"""Verification of LCL solutions (Definition 4.2).

A *labeling* assigns a label to every node of a rooted tree.  It is a valid
solution of a problem ``Π = (δ, Σ, C)`` when every node with exactly ``δ``
children uses an allowed configuration together with its children; nodes with a
different number of children (in particular leaves) are unconstrained.

The verifier is the ground truth used by the tests to check every solver and
certificate-driven algorithm in the repository.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from ..core.configuration import Configuration, Label
from ..core.problem import LCLProblem
from ..trees.rooted_tree import RootedTree

Labeling = Dict[int, Label]
"""A labeling maps node identifiers to labels."""


@dataclass(frozen=True)
class Violation:
    """A single constraint violation found by the verifier."""

    node: int
    reason: str
    configuration: Optional[Configuration] = None

    def __str__(self) -> str:  # pragma: no cover - convenience
        return f"node {self.node}: {self.reason}"


@dataclass(frozen=True)
class VerificationReport:
    """The outcome of verifying a labeling against a problem."""

    valid: bool
    violations: Tuple[Violation, ...] = field(default_factory=tuple)
    checked_nodes: int = 0

    def __bool__(self) -> bool:
        return self.valid


def verify_labeling(
    problem: LCLProblem,
    tree: RootedTree,
    labeling: Mapping[int, Label],
    max_violations: int = 16,
) -> VerificationReport:
    """Verify ``labeling`` as a solution of ``problem`` on ``tree`` (Definition 4.2).

    Parameters
    ----------
    problem, tree, labeling:
        The problem, the instance, and the candidate solution.
    max_violations:
        Stop collecting violations after this many (the report is still marked
        invalid); pass a large value to collect everything.
    """
    violations: List[Violation] = []
    checked = 0
    for node in tree.nodes():
        label = labeling.get(node)
        if label is None:
            violations.append(Violation(node, "node is unlabeled"))
        elif label not in problem.labels:
            violations.append(Violation(node, f"label {label!r} is not in the alphabet"))
        if len(violations) >= max_violations:
            return VerificationReport(False, tuple(violations), checked)

    for node in tree.internal_nodes():
        children = tree.children[node]
        if len(children) != problem.delta:
            continue  # nodes with a different number of children are unconstrained
        checked += 1
        label = labeling.get(node)
        child_labels = tuple(labeling.get(child) for child in children)
        if label is None or any(child is None for child in child_labels):
            continue  # already reported as unlabeled above
        config = Configuration(label, child_labels)  # type: ignore[arg-type]
        if config not in problem.configurations:
            violations.append(
                Violation(node, "configuration not allowed", configuration=config)
            )
            if len(violations) >= max_violations:
                break
    return VerificationReport(not violations, tuple(violations), checked)


def is_valid_labeling(
    problem: LCLProblem, tree: RootedTree, labeling: Mapping[int, Label]
) -> bool:
    """Shorthand for ``verify_labeling(...).valid``."""
    return verify_labeling(problem, tree, labeling).valid


def assert_valid_labeling(
    problem: LCLProblem, tree: RootedTree, labeling: Mapping[int, Label]
) -> None:
    """Raise ``AssertionError`` with a readable message when the labeling is invalid."""
    report = verify_labeling(problem, tree, labeling)
    if not report.valid:
        details = "; ".join(str(violation) for violation in report.violations[:5])
        raise AssertionError(f"invalid labeling for {problem.name or 'problem'}: {details}")
