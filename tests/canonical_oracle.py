"""Reference canonicalizer: exhaustive minimization over group-respecting orders.

This is the enumeration :mod:`repro.engine.canonical` used before it switched
to a pruned search, kept here (and only here) as the differential oracle:

1. every label gets a renaming-invariant signature, and sorting by signature
   splits the alphabet into ordered groups;
2. among all label orders that permute labels only within their group, the
   one whose relabeled configuration list (as integer tuples) is smallest
   wins -- ``min`` keeps the first minimal order of the enumeration;
3. the key text is rendered from the relabeled :class:`LCLProblem`, whose
   configurations sort by label *strings* ("10" < "2").

The enumeration is factorial in the group sizes, so callers keep inputs
small (a few thousand orders at most).
"""

from __future__ import annotations

from itertools import permutations
from typing import Dict, Iterator, List, Mapping, Sequence, Tuple

from repro.core.configuration import Configuration, Label
from repro.core.problem import LCLProblem


def _label_signature(problem: LCLProblem, label: Label) -> Tuple:
    parent_profiles: List[Tuple[int, int, int]] = []
    child_profile: List[Tuple[int, int]] = []
    for config in problem.configurations:
        occurrences = sum(1 for child in config.children if child == label)
        if config.parent == label:
            parent_profiles.append(
                (len(set(config.children)), occurrences, int(config.is_special()))
            )
        if occurrences:
            child_profile.append((occurrences, int(config.parent == label)))
    return (
        len(parent_profiles),
        sum(count for count, _ in child_profile),
        tuple(sorted(parent_profiles)),
        tuple(sorted(child_profile)),
    )


def signature_groups(problem: LCLProblem) -> List[List[Label]]:
    """The alphabet split into signature groups, in canonical group order."""
    by_signature: Dict[Tuple, List[Label]] = {}
    for label in problem.sorted_labels():
        by_signature.setdefault(_label_signature(problem, label), []).append(label)
    return [by_signature[signature] for signature in sorted(by_signature)]


def group_respecting_orders(
    groups: Sequence[Sequence[Label]],
) -> Iterator[Tuple[Label, ...]]:
    """Every label order obtained by permuting within each group."""

    def recurse(index: int, prefix: Tuple[Label, ...]) -> Iterator[Tuple[Label, ...]]:
        if index == len(groups):
            yield prefix
            return
        for ordering in permutations(groups[index]):
            yield from recurse(index + 1, prefix + ordering)

    yield from recurse(0, ())


def _indexed_configurations(problem: LCLProblem, index_of: Mapping[Label, int]):
    return tuple(
        sorted(
            (
                index_of[config.parent],
                tuple(sorted(index_of[child] for child in config.children)),
            )
            for config in problem.configurations
        )
    )


def reference_form(problem: LCLProblem) -> Tuple[str, Dict[Label, Label]]:
    """``(key, forward)`` of ``problem`` by exhaustive enumeration."""
    best_order = min(
        group_respecting_orders(signature_groups(problem)),
        key=lambda order: _indexed_configurations(
            problem, {label: index for index, label in enumerate(order)}
        ),
    )
    forward = {label: str(index) for index, label in enumerate(best_order)}
    relabeled = LCLProblem(
        delta=problem.delta,
        labels=frozenset(forward.values()),
        configurations=frozenset(
            Configuration(
                forward[config.parent],
                tuple(forward[child] for child in config.children),
            )
            for config in problem.configurations
        ),
        name="canonical",
    )
    config_text = "|".join(
        f"{config.parent}:{','.join(config.children)}"
        for config in relabeled.sorted_configurations()
    )
    key = f"d={relabeled.delta};k={relabeled.num_labels};C={config_text}"
    return key, forward
