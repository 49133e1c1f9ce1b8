"""Tests for the solution verifier (Definition 4.2) and the reference solvers."""

import pytest

from repro.labeling import (
    assert_valid_labeling,
    brute_force_solve,
    count_solutions,
    greedy_top_down_solve,
    is_valid_labeling,
    solvable_on_tree,
    verify_labeling,
)
from repro.problems import (
    maximal_independent_set,
    three_coloring,
    trivial_problem,
    two_coloring,
    unsolvable_problem,
)
from repro.trees import complete_tree, hairy_path, random_full_tree


class TestVerifier:
    def test_valid_two_coloring_of_complete_tree(self):
        tree = complete_tree(2, 3)
        depths = tree.depths()
        labeling = {v: "1" if depths[v] % 2 == 0 else "2" for v in tree.nodes()}
        report = verify_labeling(two_coloring(), tree, labeling)
        assert report.valid
        assert report.checked_nodes == len(tree.internal_nodes())

    def test_invalid_labeling_detected(self):
        tree = complete_tree(2, 2)
        labeling = {v: "1" for v in tree.nodes()}
        report = verify_labeling(two_coloring(), tree, labeling)
        assert not report.valid
        assert report.violations

    def test_unlabeled_node_detected(self):
        tree = complete_tree(2, 2)
        labeling = {v: "1" for v in tree.nodes() if v != tree.root}
        assert not verify_labeling(two_coloring(), tree, labeling).valid

    def test_unknown_label_detected(self):
        tree = complete_tree(2, 1)
        labeling = {v: "9" for v in tree.nodes()}
        assert not verify_labeling(two_coloring(), tree, labeling).valid

    def test_leaves_are_unconstrained(self):
        tree = complete_tree(2, 1)
        labeling = {tree.root: "1"}
        for child in tree.children[tree.root]:
            labeling[child] = "2"
        # Change one leaf to an arbitrary alphabet label: still fine as long as the
        # root's configuration is allowed.
        labeling[tree.children[tree.root][0]] = "2"
        assert is_valid_labeling(two_coloring(), tree, labeling)

    def test_max_violations_cap(self):
        tree = complete_tree(2, 4)
        labeling = {v: "1" for v in tree.nodes()}
        report = verify_labeling(two_coloring(), tree, labeling, max_violations=3)
        assert not report.valid
        assert len(report.violations) <= 3

    def test_assert_valid_labeling_raises(self):
        tree = complete_tree(2, 2)
        labeling = {v: "1" for v in tree.nodes()}
        with pytest.raises(AssertionError):
            assert_valid_labeling(two_coloring(), tree, labeling)


class TestBruteForce:
    def test_brute_force_finds_three_coloring(self):
        tree = complete_tree(2, 3)
        labeling = brute_force_solve(three_coloring(), tree)
        assert labeling is not None
        assert is_valid_labeling(three_coloring(), tree, labeling)

    def test_brute_force_finds_mis(self):
        tree = random_full_tree(2, 6, seed=0)
        labeling = brute_force_solve(maximal_independent_set(), tree)
        assert labeling is not None
        assert is_valid_labeling(maximal_independent_set(), tree, labeling)

    def test_brute_force_detects_unsolvable(self):
        tree = complete_tree(2, 3)
        assert brute_force_solve(unsolvable_problem(), tree) is None
        assert not solvable_on_tree(unsolvable_problem(), tree)

    def test_unsolvable_problem_is_solvable_on_shallow_trees(self):
        # Depth-1 complete trees only constrain the root, so 1 : 2 2 suffices.
        tree = complete_tree(2, 1)
        assert solvable_on_tree(unsolvable_problem(), tree)

    def test_count_solutions_trivial(self):
        tree = complete_tree(2, 1)
        assert count_solutions(trivial_problem(), tree) == 1

    def test_count_solutions_two_coloring_depth_one(self):
        tree = complete_tree(2, 1)
        # Root has 2 choices, the configuration then fixes both leaves.
        assert count_solutions(two_coloring(), tree) == 2


class TestGreedySolver:
    def test_greedy_solves_catalog_problems(self):
        tree = random_full_tree(2, 40, seed=2)
        for problem in (three_coloring(), two_coloring(), maximal_independent_set()):
            labeling = greedy_top_down_solve(problem, tree)
            assert labeling is not None
            assert is_valid_labeling(problem, tree, labeling)

    def test_greedy_fails_on_unsolvable(self):
        assert greedy_top_down_solve(unsolvable_problem(), complete_tree(2, 3)) is None

    def test_greedy_matches_brute_force_solvability(self):
        tree = complete_tree(2, 2)
        for problem in (three_coloring(), two_coloring(), trivial_problem()):
            assert (greedy_top_down_solve(problem, tree) is not None) == (
                brute_force_solve(problem, tree) is not None
            )

    def test_greedy_on_hairy_path(self):
        tree = hairy_path(2, 30)
        labeling = greedy_top_down_solve(two_coloring(), tree)
        assert labeling is not None
        assert is_valid_labeling(two_coloring(), tree, labeling)
