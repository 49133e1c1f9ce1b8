"""Unit tests for the LCL problem formalism (Definitions 4.1–4.6)."""

import pytest

from repro.core import Configuration, LCLError, LCLProblem
from repro.problems import (
    branch_two_coloring,
    maximal_independent_set,
    three_coloring,
    two_coloring,
    unsolvable_problem,
)


class TestConstruction:
    def test_create_infers_labels(self):
        problem = LCLProblem.create(2, [("1", ("2", "2")), ("3", ["2", "1"])])
        assert problem.labels == frozenset({"1", "2", "3"})
        assert Configuration("3", ("1", "2")) in problem.configurations

    def test_wrong_arity_rejected(self):
        with pytest.raises(LCLError, match=r"^configuration 1 : 2 has 1 children, expected 2$"):
            LCLProblem.create(2, [("1", ("2",))])

    def test_labels_outside_alphabet_rejected(self):
        with pytest.raises(
            LCLError,
            match=r"^configuration 1 : 2 2 uses labels outside the alphabet \['1'\]$",
        ):
            LCLProblem(2, frozenset({"1"}), frozenset({Configuration("1", ("2", "2"))}))
        # A foreign parent alone is caught too.
        with pytest.raises(
            LCLError,
            match=r"^configuration 2 : 1 1 uses labels outside the alphabet \['1'\]$",
        ):
            LCLProblem(2, frozenset({"1"}), frozenset({Configuration("2", ("1", "1"))}))

    def test_delta_must_be_positive(self):
        with pytest.raises(LCLError, match=r"^delta must be >= 1, got 0$"):
            LCLProblem.create(0, [])

    def test_first_bad_configuration_in_iteration_order_is_named(self):
        # Bad arities and foreign labels mixed: the error names the first bad
        # configuration in the frozenset's iteration order, whatever its fault.
        configs = frozenset(
            [Configuration("1", (label, "2")) for label in "3456"]
            + [Configuration("2", (label,)) for label in "12"]
            + [Configuration("1", ("2", "2"))]
        )
        first = next(c for c in configs if c.delta != 2 or not c.labels <= {"1", "2"})
        if first.delta != 2:
            expected = f"configuration {first} has 1 children, expected 2"
        else:
            expected = f"configuration {first} uses labels outside the alphabet ['1', '2']"
        with pytest.raises(LCLError) as raised:
            LCLProblem(2, frozenset({"1", "2"}), configs)
        assert str(raised.value) == expected

    def test_three_coloring_has_nine_configurations(self):
        assert three_coloring().num_configurations == 9

    def test_two_coloring_has_two_configurations(self):
        assert two_coloring().num_configurations == 2

    def test_mis_matches_equation_3(self):
        problem = maximal_independent_set()
        expected = {
            Configuration("1", ("a", "a")),
            Configuration("1", ("a", "b")),
            Configuration("1", ("b", "b")),
            Configuration("a", ("b", "b")),
            Configuration("b", ("1", "b")),
            Configuration("b", ("1", "1")),
        }
        assert problem.configurations == frozenset(expected)


class TestRestriction:
    def test_restrict_drops_configurations(self):
        problem = three_coloring()
        restricted = problem.restrict({"1", "2"})
        assert restricted.labels == frozenset({"1", "2"})
        assert restricted.configurations == frozenset(
            {Configuration("1", ("2", "2")), Configuration("2", ("1", "1"))}
        )

    def test_restrict_to_all_labels_is_identity(self):
        problem = maximal_independent_set()
        assert problem.restrict(problem.labels).configurations == problem.configurations

    def test_restrict_is_monotone(self):
        problem = three_coloring()
        small = problem.restrict({"1", "2"})
        smaller = problem.restrict({"1"})
        assert smaller.configurations <= small.configurations <= problem.configurations

    def test_relabel(self):
        problem = two_coloring().relabel({"1": "x", "2": "y"})
        assert problem.labels == frozenset({"x", "y"})
        assert Configuration("x", ("y", "y")) in problem.configurations

    def test_relabel_must_be_injective(self):
        with pytest.raises(LCLError):
            two_coloring().relabel({"1": "x", "2": "x"})


class TestPathForm:
    def test_path_form_of_three_coloring(self):
        path = three_coloring().path_form()
        assert path.delta == 1
        assert Configuration("1", ("2",)) in path.configurations
        assert Configuration("1", ("1",)) not in path.configurations
        assert path.num_configurations == 6

    def test_path_edges_of_mis(self):
        edges = maximal_independent_set().path_edges()
        assert ("1", "a") in edges
        assert ("b", "1") in edges
        assert ("a", "b") in edges
        assert ("a", "1") not in edges


class TestContinuations:
    def test_continuation_below(self):
        problem = maximal_independent_set()
        assert problem.has_continuation_below("1")
        assert problem.has_continuation_below("b")

    def test_continuation_below_with_labels(self):
        problem = maximal_independent_set()
        assert problem.has_continuation_below_with("b", {"b", "1"})
        assert not problem.has_continuation_below_with("a", {"a", "1"})

    def test_continuation_of_is_deterministic(self):
        problem = three_coloring()
        first = problem.continuation_of("1")
        second = problem.continuation_of("1")
        assert first == second
        assert first is not None and first.parent == "1"


class TestSolvability:
    def test_unsolvable_problem_detected(self):
        assert not unsolvable_problem().is_solvable()
        assert unsolvable_problem().infinite_continuation_labels() == frozenset()

    def test_solvable_problems(self):
        for problem in (three_coloring(), two_coloring(), maximal_independent_set()):
            assert problem.is_solvable()

    def test_infinite_continuation_labels_of_mis(self):
        assert maximal_independent_set().infinite_continuation_labels() == frozenset({"1", "a", "b"})

    def test_zero_round_solvability(self):
        assert not maximal_independent_set().is_zero_round_solvable()
        assert not three_coloring().is_zero_round_solvable()
        trivial = LCLProblem.create(2, [("1", ("1", "1"))])
        assert trivial.is_zero_round_solvable()

    def test_special_configurations(self):
        specials = maximal_independent_set().special_configurations()
        assert Configuration("b", ("1", "b")) in specials
        assert len(specials) == 1
        assert three_coloring().special_configurations() == []


class TestIntrospection:
    def test_parents(self):
        assert branch_two_coloring().parents() == frozenset({"1", "2"})

    def test_summary_mentions_name(self):
        assert "3-coloring" in three_coloring().summary()
