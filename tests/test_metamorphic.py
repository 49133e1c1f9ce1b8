"""Metamorphic relations: oracles that share no code with either kernel.

The differential suite pins the bitmask kernel to the reference, and the
golden census pins outputs.  Both would still pass a misreading of the paper
that the two kernels share.  The relations below follow from the definitions
alone, so they check each kernel against the paper instead of against the
other kernel.  With classes ordered O(1) < Θ(log* n) < Θ(log n) < n^Θ(1) <
unsolvable:

* adding a configuration never raises the class (every labeling that was
  valid stays valid);
* restricting to a label subset never lowers it (a labeling of the
  restriction is a labeling of the problem);
* a disjoint union over fresh labels gets the lower of the two classes (no
  configuration mixes the copies, so a labeling lives in one copy);
* splitting a label into a twin that parents the same configurations and
  may replace the label in any child slot leaves the class unchanged
  (mapping the twin back onto the label turns labelings of either problem
  into labelings of the other).

Problems, restrictions, unions and twins are built here from plain
``(parent, children)`` pairs; only ``classify`` (and the catalog's
configurations, as data) come from the package.  Half of the inputs are
catalog problems, because seeded random draws rarely land in Θ(log* n) or
n^Θ(1).
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import LCLProblem, classify, kernel_override
from repro.core.kernel import KERNELS
from repro.problems.catalog import catalog

ORDER = {
    "O(1)": 0,
    "Theta(log* n)": 1,
    "Theta(log n)": 2,
    "n^Theta(1)": 3,
    "unsolvable": 4,
}


def _rank(delta, configurations, labels, kernel):
    problem = LCLProblem.create(delta=delta, configurations=configurations, labels=labels)
    with kernel_override(kernel):
        return ORDER[classify(problem).complexity.value]


def _universe(labels, delta):
    return [
        (parent, children)
        for parent in labels
        for children in itertools.combinations_with_replacement(labels, delta)
    ]


# The catalog's problems over at most four labels, as plain data.
BASES = [
    (
        problem.delta,
        sorted((config.parent, config.children) for config in problem.configurations),
        sorted(problem.labels),
    )
    for problem, _expected in catalog().values()
    if len(problem.labels) <= 4
]


@st.composite
def problems(draw, max_labels=3, delta=None):
    """``(δ, configurations, labels)``: a catalog problem, or a seeded draw
    with δ ∈ {2, 3} over two to ``max_labels`` labels."""
    bases = [
        base
        for base in BASES
        if len(base[2]) <= max_labels and delta in (None, base[0])
    ]
    if bases and draw(st.booleans()):
        base_delta, configurations, labels = draw(st.sampled_from(bases))
        return base_delta, list(configurations), list(labels)
    if delta is None:
        delta = draw(st.sampled_from((2, 3)))
    labels = ["a", "b", "c", "d"][: draw(st.integers(min_value=2, max_value=max_labels))]
    density = draw(st.sampled_from((0.15, 0.25, 0.4)))
    rng = draw(st.randoms(use_true_random=False))
    configurations = [c for c in _universe(labels, delta) if rng.random() < density]
    return delta, configurations, labels


KERNEL = pytest.mark.parametrize("kernel", KERNELS)
RELATION = settings(max_examples=60, deadline=None)


@KERNEL
@RELATION
@given(problems(max_labels=4), st.data())
def test_adding_a_configuration_never_raises_the_class(kernel, problem, data):
    delta, configurations, labels = problem
    missing = [c for c in _universe(labels, delta) if c not in configurations]
    if not missing:
        return
    added = data.draw(st.sampled_from(missing))
    assert _rank(delta, configurations + [added], labels, kernel) <= _rank(
        delta, configurations, labels, kernel
    )


@KERNEL
@RELATION
@given(problems(max_labels=4), st.data())
def test_restricting_to_a_label_subset_never_lowers_the_class(kernel, problem, data):
    delta, configurations, labels = problem
    subset = data.draw(
        st.lists(st.sampled_from(labels), min_size=1, max_size=len(labels), unique=True)
    )
    kept = [
        (parent, children)
        for parent, children in configurations
        if parent in subset and set(children) <= set(subset)
    ]
    assert _rank(delta, kept, subset, kernel) >= _rank(delta, configurations, labels, kernel)


@KERNEL
@RELATION
@given(problems(max_labels=2), st.data())
def test_a_disjoint_union_gets_the_lower_class(kernel, first, data):
    delta, configurations, labels = first
    _delta, other_configurations, other_labels = data.draw(problems(max_labels=2, delta=delta))
    fresh = {label: f"{label}_u" for label in other_labels}
    renamed = [
        (fresh[parent], tuple(fresh[child] for child in children))
        for parent, children in other_configurations
    ]
    union = _rank(
        delta,
        configurations + renamed,
        labels + [fresh[label] for label in other_labels],
        kernel,
    )
    assert union == min(
        _rank(delta, configurations, labels, kernel),
        _rank(delta, other_configurations, other_labels, kernel),
    )


@KERNEL
@RELATION
@given(problems(), st.data())
def test_splitting_a_label_into_twins_keeps_the_class(kernel, problem, data):
    delta, configurations, labels = problem
    label = data.draw(st.sampled_from(labels))
    twin = f"{label}'"

    def variants(label_of_slot):
        return (label_of_slot, twin) if label_of_slot == label else (label_of_slot,)

    split = set()
    for parent, children in configurations:
        for new_parent in variants(parent):
            for new_children in itertools.product(*(variants(child) for child in children)):
                split.add((new_parent, tuple(sorted(new_children))))
    assert _rank(delta, sorted(split), labels + [twin], kernel) == _rank(
        delta, configurations, labels, kernel
    )
