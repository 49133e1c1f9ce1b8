"""Labelings of rooted trees: verification and reference solvers."""

from .verifier import (
    Labeling,
    VerificationReport,
    Violation,
    assert_valid_labeling,
    is_valid_labeling,
    verify_labeling,
)
from .brute_force import (
    brute_force_solve,
    count_solutions,
    greedy_top_down_solve,
    solvable_on_tree,
)

__all__ = [
    "Labeling",
    "VerificationReport",
    "Violation",
    "assert_valid_labeling",
    "brute_force_solve",
    "count_solutions",
    "greedy_top_down_solve",
    "is_valid_labeling",
    "solvable_on_tree",
    "verify_labeling",
]
