"""Golden tests for the full classifier on the paper's sample problems (Table 1 / Sections 1.2-1.4, 8)."""

import pytest

from repro.core import ComplexityClass, classify, classify_with_certificates
from repro.problems import (
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


class TestCatalogGoldenValues:
    @pytest.mark.parametrize("name", sorted(catalog().keys()))
    def test_catalog_problem_classified_correctly(self, name):
        problem, expected = catalog()[name]
        assert classify(problem).complexity == expected

    def test_three_coloring_is_logstar(self):
        assert classify(three_coloring()).complexity == ComplexityClass.LOGSTAR

    def test_mis_is_constant_but_not_zero_rounds(self):
        result = classify(maximal_independent_set())
        assert result.complexity == ComplexityClass.CONSTANT
        assert not result.zero_round_solvable

    def test_trivial_problem_is_zero_round(self):
        result = classify(trivial_problem())
        assert result.complexity == ComplexityClass.CONSTANT
        assert result.zero_round_solvable

    def test_two_coloring_is_global(self):
        result = classify(two_coloring())
        assert result.complexity == ComplexityClass.POLYNOMIAL
        assert result.polynomial_exponent_bound == 1

    def test_branch_two_coloring_is_log(self):
        assert classify(branch_two_coloring()).complexity == ComplexityClass.LOG

    def test_figure2_is_log(self):
        assert classify(figure2_combined_problem()).complexity == ComplexityClass.LOG

    def test_pi_k_lower_bound_exponent(self):
        for k in (1, 2, 3):
            result = classify(pi_k(k))
            assert result.complexity == ComplexityClass.POLYNOMIAL
            assert result.polynomial_exponent_bound == k

    def test_unsolvable(self):
        assert classify(unsolvable_problem()).complexity == ComplexityClass.UNSOLVABLE


class TestClassificationArtifacts:
    def test_mis_artifacts_contain_all_certificates(self):
        artifacts = classify_with_certificates(maximal_independent_set())
        assert artifacts.complexity == ComplexityClass.CONSTANT
        assert artifacts.log_certificate is not None
        assert artifacts.logstar_certificate is not None
        assert artifacts.constant_certificate is not None
        assert artifacts.constant_certificate.validate() == []
        assert artifacts.elapsed_seconds >= 0.0

    def test_coloring_artifacts(self):
        artifacts = classify_with_certificates(three_coloring())
        assert artifacts.logstar_certificate is not None
        assert artifacts.logstar_certificate.validate() == []
        assert artifacts.constant_certificate is None

    def test_log_problem_artifacts(self):
        artifacts = classify_with_certificates(branch_two_coloring())
        assert artifacts.log_certificate is not None
        assert artifacts.logstar_certificate is None

    def test_result_describe_mentions_class(self):
        result = classify(three_coloring())
        assert "log*" in result.describe()

    def test_model_robustness_accessors(self):
        result = classify(three_coloring())
        assert result.randomized_complexity() == result.complexity
        assert result.congest_complexity() == result.complexity


class TestComplexityOrdering:
    def test_order_is_total(self):
        assert ComplexityClass.CONSTANT < ComplexityClass.LOGSTAR < ComplexityClass.LOG
        assert ComplexityClass.LOG < ComplexityClass.POLYNOMIAL < ComplexityClass.UNSOLVABLE

    def test_class_hierarchy_consistency_on_catalog(self):
        """If a problem is O(1) it must also have log* and log certificates, etc."""
        for name, (problem, expected) in catalog().items():
            artifacts = classify_with_certificates(problem)
            if artifacts.complexity == ComplexityClass.CONSTANT:
                assert artifacts.log_certificate is not None
                assert artifacts.logstar_certificate is not None
            if artifacts.complexity == ComplexityClass.LOGSTAR:
                assert artifacts.log_certificate is not None
                assert artifacts.constant_certificate is None
            if artifacts.complexity == ComplexityClass.LOG:
                assert artifacts.logstar_certificate is None

    def test_larger_palette_colorings_are_logstar(self):
        for colors in (3, 4, 5):
            assert classify(coloring(colors)).complexity == ComplexityClass.LOGSTAR

    def test_coloring_with_delta_three(self):
        assert classify(coloring(3, delta=3)).complexity == ComplexityClass.LOGSTAR
        assert classify(coloring(2, delta=3)).complexity == ComplexityClass.POLYNOMIAL
