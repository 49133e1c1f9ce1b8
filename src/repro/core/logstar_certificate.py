"""Certificate builders for ``O(log* n)`` solvability (Section 6, Algorithms 3 and 4).

Algorithm 3 (:func:`find_unrestricted_certificate`) performs a fixed-point
computation over *sets of possible root labels*: starting from the singletons,
a new set ``r_n`` is derived from a ``δ``-tuple of existing sets
``(r_1, ..., r_δ)`` by collecting every label ``σ`` that admits a configuration
whose children can be assigned to the sets ``r_1, ..., r_δ``.  Each derived set is
recorded in a *certificate builder* together with the tuple it was derived from;
when the full label set of the (restricted) problem is derived, a uniform
certificate for ``O(log* n)`` solvability exists (Theorem 6.8) and can be
materialized from the builder (Lemma 6.9, implemented in
:mod:`repro.core.certificates`).

Algorithm 4 (:func:`find_certificate_builder`) simply tries Algorithm 3 on the
restriction of the problem to every subset of labels.

The pairs carry a boolean flag tracking whether a designated *special* label can
appear at a leaf of the certificate; this is only needed for the constant-time
certificates of Section 7.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .cancellation import checkpoint
from .configuration import Configuration, Label
from .problem import LCLProblem

RootSet = FrozenSet[Label]
BuilderKey = Tuple[RootSet, bool]


def assign_children_to_sets(
    config: Configuration, sets: Sequence[FrozenSet[Label]]
) -> Optional[Tuple[Label, ...]]:
    """Assign the children of ``config`` to the given label sets, if possible.

    Returns a tuple ``(x_1, ..., x_δ)`` that is a permutation of the
    configuration's children with ``x_i ∈ sets[i]`` for every ``i``, or ``None``
    when no such assignment exists.  A simple backtracking search is used; ``δ``
    is a small constant in all problems of interest.
    """
    children = list(config.children)
    assignment: List[Optional[Label]] = [None] * len(sets)
    used = [False] * len(children)

    def backtrack(position: int) -> bool:
        if position == len(sets):
            return True
        tried: Set[Label] = set()
        for index, child in enumerate(children):
            if used[index] or child in tried:
                continue
            tried.add(child)
            if child in sets[position]:
                used[index] = True
                assignment[position] = child
                if backtrack(position + 1):
                    return True
                used[index] = False
                assignment[position] = None
        return False

    if len(children) != len(sets):
        return None
    if backtrack(0):
        return tuple(label for label in assignment if label is not None)
    return None


@dataclass(frozen=True)
class CertificateBuilder:
    """The output of Algorithm 3: a recipe for building a uniform certificate.

    Attributes
    ----------
    problem:
        The restricted problem ``Π'`` the builder was computed for.
    label_set:
        The certificate label set ``Σ_T`` (the alphabet of ``problem``).
    special_label:
        The designated leaf label ``a`` (``None`` when no leaf requirement).
    entries:
        For every derived pair ``(root set, flag)`` the ``δ``-tuple of pairs it
        was derived from.
    root:
        The pair ``(Σ_T, special_label is not None)``; guaranteed to be either a
        singleton (initial pair) or to have an entry.
    """

    problem: LCLProblem
    label_set: RootSet
    special_label: Optional[Label]
    entries: Dict[BuilderKey, Tuple[BuilderKey, ...]] = field(default_factory=dict)
    root: BuilderKey = field(default=(frozenset(), False))


def _derive(
    problem: LCLProblem, pairs: Sequence[BuilderKey]
) -> Tuple[RootSet, bool]:
    """One derivation step of Algorithm 3 for a fixed ``δ``-tuple of pairs."""
    sets = [pair[0] for pair in pairs]
    flag = any(pair[1] for pair in pairs)
    roots: Set[Label] = set()
    for config in problem.configurations:
        if assign_children_to_sets(config, sets) is not None:
            roots.add(config.parent)
    return frozenset(roots), flag


def find_unrestricted_certificate(
    problem: LCLProblem, special_label: Optional[Label] = None
) -> Optional[CertificateBuilder]:
    """Algorithm 3: find a certificate builder for the (already restricted) problem.

    Returns ``None`` (the paper's ``ε``) when no certificate whose label set is
    exactly ``Σ(problem)`` exists, and a :class:`CertificateBuilder` otherwise.
    When ``special_label`` is given, the certificate is additionally required to
    have that label at one of its leaves.
    """
    from . import kernel

    if kernel.use_bitmask_kernel():
        return kernel.find_unrestricted_certificate(problem, special_label)

    labels = frozenset(problem.labels)
    if not labels or not problem.configurations:
        return None
    if special_label is not None and special_label not in labels:
        return None

    initial: Set[BuilderKey] = {
        (frozenset({label}), label == special_label) for label in labels
    }
    known: Set[BuilderKey] = set(initial)
    entries: Dict[BuilderKey, Tuple[BuilderKey, ...]] = {}
    newly: Set[BuilderKey] = set(initial)

    def sort_key(pair: BuilderKey) -> Tuple[Tuple[Label, ...], bool]:
        return (tuple(sorted(pair[0])), pair[1])

    while newly:
        added: Set[BuilderKey] = set()
        all_pairs = sorted(known, key=sort_key)
        new_pairs = sorted(newly, key=sort_key)
        for tuple_of_pairs in product(all_pairs, repeat=problem.delta):
            # The |known|^delta tuple sweep is the exponential heart of
            # Algorithm 3; poll the cancel scope so a deadline or an explicit
            # cancellation interrupts the search mid-iteration.
            checkpoint()
            if not any(pair in newly for pair in tuple_of_pairs):
                continue
            roots, flag = _derive(problem, tuple_of_pairs)
            key = (roots, flag)
            if roots and key not in known and key not in added:
                entries[key] = tuple(tuple_of_pairs)
                added.add(key)
        known |= added
        newly = added
        del new_pairs  # kept for clarity; the "touch a new pair" filter is above

    root_key: BuilderKey = (labels, special_label is not None)
    if root_key not in known:
        return None
    return CertificateBuilder(
        problem=problem,
        label_set=labels,
        special_label=special_label,
        entries=entries,
        root=root_key,
    )


def candidate_label_subsets(problem: LCLProblem) -> Iterator[FrozenSet[Label]]:
    """Subsets of labels worth trying in Algorithm 4, lazily.

    Any certificate label set ``Σ_T`` must be a subset of the greatest fixed point
    of "has a continuation below within the set" (every certificate label occurs
    as a root, hence needs a continuation using certificate labels only), so
    subsets outside that fixed point are skipped.  Subsets are enumerated in
    increasing size so that the cheapest candidates are tried first.  The
    enumeration is a generator: on wide alphabets there are ``2^|Σ|``
    candidates, and the sweep's per-subset ``checkpoint()`` can only interrupt
    an abandoned search early if the candidates are produced on demand.
    """
    universe = sorted(problem.infinite_continuation_labels())
    for size in range(1, len(universe) + 1):
        for combo in combinations(universe, size):
            yield frozenset(combo)


def find_certificate_builder(problem: LCLProblem) -> Optional[CertificateBuilder]:
    """Algorithm 4: find a certificate builder for ``O(log* n)`` solvability.

    Tries Algorithm 3 on the restriction of the problem to every candidate subset
    of labels and returns the first builder found (or ``None``).  The running
    time is exponential in the problem description in the worst case
    (Theorem 6.10), but small in practice.
    """
    from . import kernel

    if kernel.use_bitmask_kernel():
        return kernel.find_certificate_builder(problem)

    for subset in candidate_label_subsets(problem):
        checkpoint()
        restricted = problem.restrict(subset)
        builder = find_unrestricted_certificate(restricted, special_label=None)
        if builder is not None:
            return builder
    return None


def has_logstar_certificate(problem: LCLProblem) -> bool:
    """Decision version: is the round complexity ``O(log* n)`` (Theorem 6.11)?"""
    return find_certificate_builder(problem) is not None
