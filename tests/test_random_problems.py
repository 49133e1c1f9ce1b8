"""Tests for the random problem generators."""

import pytest

from repro.core import classify, ComplexityClass
from repro.problems.random_problems import (
    all_possible_configurations,
    all_problems_with,
    random_problem,
)


class TestUniverse:
    def test_all_possible_configurations_count(self):
        configs = all_possible_configurations(["1", "2"], 2)
        assert len(configs) == 6  # 2 parents x 3 children multisets

    def test_num_possible_configurations_formula(self):
        # |Σ| parents times C(|Σ| + δ - 1, δ) children multisets.
        assert len(all_possible_configurations(["1", "2", "3"], 2)) == 3 * 6
        assert len(all_possible_configurations(["1", "2"], 3)) == 2 * 4


class TestRandomProblems:
    def test_reproducibility(self):
        first = random_problem(3, seed=42)
        second = random_problem(3, seed=42)
        assert first.configurations == second.configurations

    def test_density_extremes(self):
        empty = random_problem(3, density=0.0, seed=1)
        full = random_problem(3, density=1.0, seed=1)
        assert empty.num_configurations == 0
        assert full.num_configurations == 3 * 6

    def test_invalid_density_rejected(self):
        with pytest.raises(ValueError):
            random_problem(2, density=1.5)

    def test_full_density_problem_is_constant_time(self):
        # The unconstrained problem is trivially zero-round solvable.
        problem = random_problem(2, density=1.0, seed=0)
        result = classify(problem)
        assert result.complexity is ComplexityClass.CONSTANT
        assert result.zero_round_solvable

    def test_random_census_hits_multiple_classes(self):
        """With two labels and moderate density the four-way landscape is populated."""
        seen = set()
        for seed in range(80):
            problem = random_problem(2, density=0.5, seed=seed)
            seen.add(classify(problem).complexity)
        assert ComplexityClass.CONSTANT in seen
        assert ComplexityClass.UNSOLVABLE in seen
        assert len(seen) >= 3


class TestExhaustiveEnumeration:
    def test_enumeration_count_single_label(self):
        problems = list(all_problems_with(1, 2))
        assert len(problems) == 2  # the single configuration is in or out

    def test_single_label_classification(self):
        problems = list(all_problems_with(1, 2))
        classes = {p.num_configurations: classify(p).complexity for p in problems}
        assert classes[0] is ComplexityClass.UNSOLVABLE
        assert classes[1] is ComplexityClass.CONSTANT
