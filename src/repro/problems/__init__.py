"""Problem catalog and random problem generators."""

from .adversarial import hard_problem
from .pools import distinct_forms
from .catalog import (
    branch_two_coloring,
    catalog,
    coloring,
    figure2_combined_problem,
    maximal_independent_set,
    pi_k,
    three_coloring,
    trivial_problem,
    two_coloring,
    unconstrained_problem,
    unsolvable_problem,
)
from .random_problems import (
    all_possible_configurations,
    all_problems_with,
    random_problem,
)

__all__ = [
    "all_possible_configurations",
    "all_problems_with",
    "branch_two_coloring",
    "catalog",
    "coloring",
    "figure2_combined_problem",
    "hard_problem",
    "maximal_independent_set",
    "pi_k",
    "distinct_forms",
    "random_problem",
    "three_coloring",
    "trivial_problem",
    "two_coloring",
    "unconstrained_problem",
    "unsolvable_problem",
]
