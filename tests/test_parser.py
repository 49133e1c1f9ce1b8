"""Unit tests for parsing and formatting of problem descriptions."""

import pytest

from repro.core import (
    Configuration,
    LCLError,
    LCLProblem,
    format_problem,
    parse_problem,
)
from repro.problems import maximal_independent_set, three_coloring


def round_trip(problem: LCLProblem) -> LCLProblem:
    """Format then re-parse ``problem``."""
    return parse_problem(
        format_problem(problem),
        delta=problem.delta,
        labels=problem.labels,
        name=problem.name,
    )


def error_message(call, *args, **kwargs) -> str:
    """The text of the :class:`LCLError` that ``call(*args, **kwargs)`` raises."""
    with pytest.raises(LCLError) as raised:
        call(*args, **kwargs)
    return str(raised.value)


class TestConfigurationParsing:
    """The line grammar, one configuration at a time."""

    def test_colon_form(self):
        assert parse_problem("1 : 2 3").configurations == {
            Configuration("1", ("2", "3"))
        }

    def test_compact_form(self):
        assert parse_problem("1:23").configurations == {Configuration("1", ("2", "3"))}

    def test_whitespace_form(self):
        assert parse_problem("a b b").configurations == {
            Configuration("a", ("b", "b"))
        }

    def test_multicharacter_labels_with_known_alphabet(self):
        problem = parse_problem("x1 : a1 b1", labels=["x1", "a1", "b1"])
        assert problem.configurations == {Configuration("x1", ("a1", "b1"))}

    def test_missing_children_rejected(self):
        assert error_message(parse_problem, "1 :") == "configuration '1 :' has no children"


class TestProblemParsing:
    def test_three_coloring_from_paper_notation(self):
        text = """
        1 : 22   ; 1 : 23 ; 1 : 33
        2 : 11   ; 2 : 13 ; 2 : 33
        3 : 11   ; 3 : 12 ; 3 : 22
        """
        problem = parse_problem(text, name="3-coloring")
        assert problem.configurations == three_coloring().configurations

    def test_mis_from_lines(self):
        problem = parse_problem(
            "\n".join(["1 : a a", "1 : a b", "1 : b b", "a : b b", "b : b 1", "b : 1 1"])
        )
        assert problem.configurations == maximal_independent_set().configurations

    def test_comments_and_blank_lines_ignored(self):
        problem = parse_problem("# proper 2-coloring\n\n1 : 2 2\n2 : 1 1\n")
        assert problem.num_configurations == 2

    def test_inconsistent_arity_rejected(self):
        assert error_message(parse_problem, "1 : 2 2\n2 : 1") == (
            "configuration 2 : 1 has 1 children, expected 2"
        )

    def test_empty_description_rejected(self):
        assert error_message(parse_problem, "   \n  # nothing here\n") == (
            "problem description contains no configurations"
        )

    def test_explicit_delta_checked(self):
        assert error_message(parse_problem, "1 : 2 2", delta=3) == (
            "configuration 1 : 2 2 has 2 children, expected 3"
        )

    @pytest.mark.parametrize(
        "text, kwargs, message",
        [
            ("1 : 2 2\n1 2 : 3 3", {}, "expected exactly one parent label in '1 2 : 3 3'"),
            ("1 : 2 2\n  1 :  ", {}, "configuration '1 :' has no children"),
            ("1 : 2 2\n3", {}, "configuration '3' has no children"),
            ("1 : 2 2", {"delta": 0}, "configuration 1 : 2 2 has 2 children, expected 0"),
            (
                "1 : 2 2",
                {"labels": ["1"]},
                "configuration 1 : 2 2 uses labels outside the alphabet ['1']",
            ),
            # The first bad line in text order is the one reported.
            ("1 : 2 2\n1 : 2\n1 2 : 3 3", {}, "configuration 1 : 2 has 1 children, expected 2"),
        ],
    )
    def test_error_message(self, text, kwargs, message):
        assert error_message(parse_problem, text, **kwargs) == message

    def test_multicharacter_labels_kept_whole_with_explicit_alphabet(self):
        problem = parse_problem("x1 : a1 b1\na1 : b1 b1", labels=["x1", "a1", "b1"])
        assert problem.configurations == frozenset(
            {Configuration("x1", ("a1", "b1")), Configuration("a1", ("b1", "b1"))}
        )
        assert problem.labels == frozenset({"x1", "a1", "b1"})
        # Without the alphabet, glued children tokens are split.
        glued = parse_problem("x1 : a1")
        assert glued.configurations == frozenset({Configuration("x1", ("1", "a"))})


class TestFormatting:
    def test_round_trip_three_coloring(self):
        problem = three_coloring()
        assert round_trip(problem).configurations == problem.configurations

    def test_round_trip_mis(self):
        problem = maximal_independent_set()
        assert round_trip(problem).configurations == problem.configurations

    def test_compact_formatting(self):
        text = format_problem(three_coloring(), compact=True)
        assert "1 : 22" in text

    def test_format_is_sorted_and_stable(self):
        assert format_problem(three_coloring()) == format_problem(three_coloring())
