"""Property-based tests (hypothesis) for the bitmask kernel layer.

The kernel's claim is that ints under bitwise ops implement the same set
algebra the reference implements with ``frozenset``.  These tests state that
claim as properties over seeded random label universes:

* encode/decode round-trips (``mask_of`` / ``labels_of`` are inverse
  bijections between label subsets and ``[0, 2^|Σ|)``),
* restriction, ``uses_only``, continuation, and flexibility computed on
  masks agree with the ``LCLProblem``/automata set semantics,
* the child-multiset matching agrees with ``assign_children_to_sets``, and
  so does the per-δ matching table, whose keys forget the alphabet,
* the restriction identity behind the roots memo: one derivation step on
  the full problem, masked to a subset ``A``, is the derivation step on the
  restriction to ``A``, and
* renaming invariance: canonical forms still identify renamed problems, and
  the kernel classifies every renaming of a problem identically.
"""

from __future__ import annotations

import gc
import itertools
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.automata.flexibility import path_flexible_labels
from repro.core import Configuration, LCLProblem, classify, kernel_override
from repro.core import kernel
from repro.core.kernel import (
    BITMASK,
    REFERENCE,
    MatchingTable,
    match_children_to_sets,
    problem_encoding,
)
from repro.core.logstar_certificate import _derive, assign_children_to_sets
from repro.engine.canonical import canonical_form

LABEL_NAMES = ["1", "2", "3", "a", "b", "zz"]

labels_strategy = st.lists(
    st.sampled_from(LABEL_NAMES), min_size=1, max_size=4, unique=True
)


@st.composite
def problems(draw, delta: int = 2):
    """Random small LCL problems (δ = 2, at most 4 labels, any density)."""
    labels = draw(labels_strategy)
    universe = [
        (parent, (first, second))
        for parent in labels
        for first in labels
        for second in labels
        if first <= second
    ]
    subset = draw(
        st.lists(st.sampled_from(universe), min_size=0, max_size=len(universe), unique=True)
    )
    return LCLProblem.create(delta=delta, configurations=subset, labels=labels)


@st.composite
def problem_and_label_subset(draw):
    problem = draw(problems())
    ordered = sorted(problem.labels)
    chosen = draw(
        st.lists(st.sampled_from(ordered), min_size=0, max_size=len(ordered), unique=True)
    )
    return problem, frozenset(chosen)


# ----------------------------------------------------------------------
# Encode / decode
# ----------------------------------------------------------------------
@given(problem_and_label_subset())
@settings(max_examples=80, deadline=None)
def test_mask_roundtrip_from_labels(pair):
    problem, subset = pair
    enc = problem_encoding(problem)
    assert enc.labels_of(enc.mask_of(subset)) == subset


@given(problems(), st.integers(min_value=0, max_value=(1 << len(LABEL_NAMES)) - 1))
@settings(max_examples=80, deadline=None)
def test_mask_roundtrip_from_ints(problem, raw):
    enc = problem_encoding(problem)
    mask = raw & enc.full_mask
    assert enc.mask_of(enc.labels_of(mask)) == mask


@given(problems())
@settings(max_examples=60, deadline=None)
def test_bit_order_is_sorted_label_order(problem):
    enc = problem_encoding(problem)
    assert enc.labels == sorted(problem.labels)
    for index, label in enumerate(enc.labels):
        assert enc.index_of[label] == index
        assert enc.labels_of(1 << index) == frozenset({label})


# ----------------------------------------------------------------------
# Set semantics: restriction / uses_only / continuation / flexibility
# ----------------------------------------------------------------------
@given(problem_and_label_subset())
@settings(max_examples=80, deadline=None)
def test_uses_only_is_a_single_mask_test(pair):
    problem, subset = pair
    enc = problem_encoding(problem)
    allowed = enc.mask_of(subset)
    for (parent, config_mask, _bits), config in zip(
        enc.configs, problem.sorted_configurations()
    ):
        assert enc.labels[parent] == config.parent
        assert (config_mask & ~allowed == 0) == config.uses_only(subset)


@given(problem_and_label_subset())
@settings(max_examples=80, deadline=None)
def test_restriction_config_count_matches(pair):
    problem, subset = pair
    enc = problem_encoding(problem)
    restricted = problem.restrict(subset)
    assert enc.allowed_config_count(enc.mask_of(subset)) == len(
        restricted.configurations
    )


@given(problems())
@settings(max_examples=60, deadline=None)
def test_infinite_continuation_mask_matches(problem):
    enc = problem_encoding(problem)
    assert (
        enc.labels_of(enc.infinite_continuation_mask())
        == problem.infinite_continuation_labels()
    )


@given(problem_and_label_subset())
@settings(max_examples=60, deadline=None)
def test_flexible_mask_matches_automaton_flexibility(pair):
    problem, subset = pair
    enc = problem_encoding(problem)
    restricted = problem.restrict(subset)
    assert enc.labels_of(enc.flexible_mask(enc.mask_of(subset))) == path_flexible_labels(
        restricted
    )


@given(problem_and_label_subset())
@settings(max_examples=60, deadline=None)
def test_support_test_is_exact(pair):
    """``all_labels_supported`` ⟺ every subset label parents an allowed config."""
    problem, subset = pair
    enc = problem_encoding(problem)
    restricted = problem.restrict(subset)
    expected = all(
        any(config.parent == label for config in restricted.configurations)
        for label in subset & problem.labels
    )
    assert enc.all_labels_supported(enc.mask_of(subset)) == expected


# ----------------------------------------------------------------------
# Matching
# ----------------------------------------------------------------------
children_strategy = st.lists(
    st.sampled_from(LABEL_NAMES), min_size=1, max_size=5
)
sets_strategy = st.lists(
    st.frozensets(st.sampled_from(LABEL_NAMES), max_size=4), min_size=1, max_size=5
)

# One table per δ that lives across examples: an answer filled in by one
# (children, sets) input is served to every later input with the same key.
TABLES = {delta: MatchingTable(delta) for delta in range(1, 6)}


def _table_matches(table, children, sets):
    """The table's answer for one children multiset, as a one-parent group."""
    child_bits = 0
    for child in children:
        child_bits |= 1 << child
    return table.roots(((children, child_bits, 1),), sets) == 1


@given(children_strategy, sets_strategy)
@settings(max_examples=200, deadline=None)
def test_matching_agrees_with_reference_assignment(children, sets):
    if len(children) != len(sets):
        sets = (sets * len(children))[: len(children)]
    config = Configuration(parent=children[0], children=tuple(children))
    # Configuration sorts its children; mirror that order for the index view.
    sorted_children = tuple(sorted(children))
    index_of = {label: index for index, label in enumerate(LABEL_NAMES)}
    child_indices = tuple(index_of[label] for label in sorted_children)
    set_masks = tuple(
        sum(1 << index_of[label] for label in label_set) for label_set in sets
    )
    expected = assign_children_to_sets(config, [frozenset(s) for s in sets]) is not None
    assert match_children_to_sets(child_indices, set_masks) == expected
    assert _table_matches(TABLES[len(children)], child_indices, set_masks) == expected


def test_matching_table_is_exact_on_every_small_input():
    """δ ≤ 3 over three labels, every children multiset against every tuple
    of label sets, all through one table per δ."""
    for delta in (1, 2, 3):
        table = MatchingTable(delta)
        for children in itertools.combinations_with_replacement(range(3), delta):
            for sets in itertools.product(range(8), repeat=delta):
                assert _table_matches(table, children, sets) == match_children_to_sets(
                    children, sets
                ), (children, sets)
        assert len(table.answers) <= {1: 2, 2: 10, 3: 120}[delta]


@given(children_strategy, sets_strategy, st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_matching_is_permutation_invariant(children, sets, rng):
    if len(children) != len(sets):
        sets = (sets * len(children))[: len(children)]
    index_of = {label: index for index, label in enumerate(LABEL_NAMES)}
    child_indices = tuple(sorted(index_of[label] for label in children))
    set_masks = [sum(1 << index_of[label] for label in s) for s in sets]
    baseline = match_children_to_sets(child_indices, tuple(set_masks))
    rng.shuffle(set_masks)
    assert match_children_to_sets(child_indices, tuple(set_masks)) == baseline


# ----------------------------------------------------------------------
# The restriction identity behind the roots memo
# ----------------------------------------------------------------------
@st.composite
def problem_subset_and_pairs(draw):
    """A problem (δ ≤ 3), a label subset ``A`` and a sorted δ-tuple of
    non-empty subsets of ``A`` with flags: one Algorithm 3 step's input."""
    delta = draw(st.integers(min_value=1, max_value=3))
    labels = sorted(draw(labels_strategy))
    universe = [
        (parent, children)
        for parent in labels
        for children in itertools.combinations_with_replacement(labels, delta)
    ]
    chosen = draw(st.lists(st.sampled_from(universe), max_size=len(universe), unique=True))
    problem = LCLProblem.create(delta=delta, configurations=chosen, labels=labels)
    subset = draw(
        st.lists(st.sampled_from(labels), min_size=1, max_size=len(labels), unique=True)
    )
    pair = st.tuples(
        st.frozensets(st.sampled_from(sorted(subset)), min_size=1), st.booleans()
    )
    pairs = draw(st.lists(pair, min_size=delta, max_size=delta))
    pairs.sort(key=lambda item: (tuple(sorted(item[0])), item[1]))
    return problem, frozenset(subset), tuple(pairs)


@given(problem_subset_and_pairs())
@settings(max_examples=150, deadline=None)
def test_full_roots_masked_to_a_subset_equal_the_restricted_derivation(case):
    problem, subset, pairs = case
    enc = problem_encoding(problem)
    sets = tuple(enc.mask_of(labels) for labels, _flag in pairs)
    full_roots = MatchingTable(problem.delta).roots(enc.groups, sets)
    expected_roots, _flag = _derive(problem.restrict(subset), pairs)
    assert enc.labels_of(full_roots & enc.mask_of(subset)) == expected_roots


@pytest.mark.parametrize("delta", [3, 5, 20])
def test_each_classification_drops_its_own_table(monkeypatch, delta):
    """A classification's matching table numbers the position masks it meets,
    so its keys stay small even where ``2^δ`` masks exist, and nothing keeps
    the table once the classification returns."""
    tables = []

    class Recording(MatchingTable):
        __slots__ = ("__weakref__",)

        def __init__(self, delta):
            super().__init__(delta)
            tables.append(self)

    monkeypatch.setattr(kernel, "MatchingTable", Recording)
    half = delta // 2
    problem = LCLProblem.create(
        delta=delta,
        configurations=[
            ("a", ("a",) * (delta - 1) + ("b",)),
            ("b", ("a",) * half + ("b",) * (delta - half)),
            ("b", ("a",) * delta),
        ],
    )
    with kernel_override(BITMASK):
        classify(problem)
    assert tables and all(table.delta == delta for table in tables)
    assert any(table.answers for table in tables)  # the sweeps consulted it
    assert all(key.bit_length() < 1024 for table in tables for key in table.answers)
    alive = [weakref.ref(table) for table in tables]
    tables.clear()
    gc.collect()
    assert all(ref() is None for ref in alive)


# ----------------------------------------------------------------------
# Renaming invariance
# ----------------------------------------------------------------------
@given(problems(), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_renaming_preserves_canonical_key_and_classification(problem, rng):
    ordered = sorted(problem.labels)
    fresh = [f"r{index}" for index in range(len(ordered))]
    rng.shuffle(fresh)
    mapping = dict(zip(ordered, fresh))
    renamed = LCLProblem.create(
        delta=problem.delta,
        configurations=[
            (mapping[config.parent], tuple(mapping[child] for child in config.children))
            for config in problem.configurations
        ],
        labels=[mapping[label] for label in ordered],
    )
    assert canonical_form(renamed).key == canonical_form(problem).key
    with kernel_override(BITMASK):
        bitmask_result = classify(renamed)
        assert bitmask_result.complexity == classify(problem).complexity
    with kernel_override(REFERENCE):
        assert classify(renamed).complexity == bitmask_result.complexity
