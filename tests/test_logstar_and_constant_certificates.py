"""Tests for Algorithms 3–5 (Sections 6 and 7): uniform and constant certificates."""

import pytest

from repro.core import (
    build_constant_certificate,
    build_uniform_certificate,
    find_certificate_builder,
    find_constant_certificate_builder,
    find_unrestricted_certificate,
    has_constant_certificate,
    has_logstar_certificate,
)
from repro.core.certificates import (
    CertificateError,
    CertificateTree,
    ConstantCertificate,
    UniformCertificate,
)
from repro.core.logstar_certificate import assign_children_to_sets, candidate_label_subsets
from repro.core.configuration import Configuration
from repro.core.problem import LCLProblem
from repro.problems import (
    branch_two_coloring,
    figure2_combined_problem,
    maximal_independent_set,
    three_coloring,
    trivial_problem,
    two_coloring,
    unconstrained_problem,
)


class TestChildAssignment:
    def test_assignment_found(self):
        config = Configuration("1", ("2", "3"))
        sets = [frozenset({"3"}), frozenset({"2", "9"})]
        assert assign_children_to_sets(config, sets) == ("3", "2")

    def test_assignment_respects_multiplicity(self):
        config = Configuration("1", ("2", "2"))
        sets = [frozenset({"2"}), frozenset({"3"})]
        assert assign_children_to_sets(config, sets) is None

    def test_assignment_impossible(self):
        config = Configuration("1", ("2", "3"))
        sets = [frozenset({"2"}), frozenset({"2"})]
        assert assign_children_to_sets(config, sets) is None


class TestAlgorithm3:
    def test_three_coloring_full_alphabet_builder(self):
        builder = find_unrestricted_certificate(three_coloring())
        assert builder is not None
        assert builder.label_set == frozenset({"1", "2", "3"})

    def test_branch_two_coloring_has_no_builder(self):
        assert find_unrestricted_certificate(branch_two_coloring()) is None

    def test_two_coloring_has_no_builder(self):
        assert find_unrestricted_certificate(two_coloring()) is None

    def test_mis_builder_with_special_leaf(self):
        builder = find_unrestricted_certificate(maximal_independent_set(), special_label="b")
        assert builder is not None
        assert builder.special_label == "b"


class TestAlgorithm4And5:
    def test_logstar_certificates_exist(self):
        assert has_logstar_certificate(three_coloring())
        assert has_logstar_certificate(maximal_independent_set())
        assert has_logstar_certificate(unconstrained_problem())

    def test_logstar_certificates_absent(self):
        assert not has_logstar_certificate(branch_two_coloring())
        assert not has_logstar_certificate(two_coloring())
        assert not has_logstar_certificate(figure2_combined_problem())

    def test_constant_certificates(self):
        assert has_constant_certificate(maximal_independent_set())
        assert has_constant_certificate(trivial_problem())
        assert not has_constant_certificate(three_coloring())
        assert not has_constant_certificate(branch_two_coloring())

    def test_candidate_subsets_are_within_fixed_point(self):
        problem = maximal_independent_set()
        fixed_point = problem.infinite_continuation_labels()
        for subset in candidate_label_subsets(problem):
            assert subset <= fixed_point


class TestUniformCertificateConstruction:
    def test_three_coloring_certificate_valid(self):
        builder = find_certificate_builder(three_coloring())
        certificate = build_uniform_certificate(builder)
        assert certificate.validate() == []
        assert certificate.depth >= 1
        # One tree per certificate label, each rooted at that label (Definition 6.1).
        assert set(certificate.trees.keys()) == set(certificate.labels)
        for label, tree in certificate.trees.items():
            assert tree.label == label

    def test_three_coloring_certificate_leaf_layers_identical(self):
        builder = find_certificate_builder(three_coloring())
        certificate = build_uniform_certificate(builder)
        leaves = {tree.leaf_labels() for tree in certificate.trees.values()}
        assert len(leaves) == 1

    def test_coprime_certificate_derived_from_uniform(self):
        builder = find_certificate_builder(three_coloring())
        certificate = build_uniform_certificate(builder)
        coprime = certificate.to_coprime()
        assert coprime.validate() == []
        assert coprime.depth_pair == (certificate.depth, certificate.depth + 1)

    def test_trivial_problem_certificate(self):
        builder = find_certificate_builder(trivial_problem())
        certificate = build_uniform_certificate(builder)
        assert certificate.validate() == []
        assert certificate.depth == 1

    def test_unconstrained_problem_certificate(self):
        builder = find_certificate_builder(unconstrained_problem(3))
        certificate = build_uniform_certificate(builder)
        assert certificate.validate() == []


class TestConstantCertificateConstruction:
    def test_mis_constant_certificate_matches_figure_8(self):
        outcome = find_constant_certificate_builder(maximal_independent_set())
        assert outcome is not None
        builder, special = outcome
        certificate = build_constant_certificate(builder, special)
        assert certificate.validate() == []
        # The special configuration is (b : b 1) and b occurs at a certificate leaf.
        assert certificate.special_configuration == Configuration("b", ("1", "b"))
        assert certificate.special_label == "b"
        assert "b" in certificate.uniform.leaf_labels()

    def test_certificate_trees_use_allowed_configurations_only(self):
        outcome = find_constant_certificate_builder(maximal_independent_set())
        builder, special = outcome
        certificate = build_constant_certificate(builder, special)
        problem = maximal_independent_set()
        for tree in certificate.uniform.trees.values():
            for config in tree.iter_internal_configurations():
                assert config in problem.configurations


def _tree(label, *children):
    """A labeled tree from nested ``(label, children...)`` calls."""
    return CertificateTree(label, tuple(children))


def _leafy(label, *leaves):
    return _tree(label, *(_tree(leaf) for leaf in leaves))


class TestCertificateValidationRejects:
    """Each case breaks one condition of Definition 6.1 or 7.1 in a valid
    certificate and pins the exact issues ``validate()`` reports."""

    # δ = 2 over {a, b, c}; the certificates below use {a, b} only.
    PROBLEM = LCLProblem.create(
        delta=2,
        configurations=[
            ("a", ("a", "b")),
            ("b", ("a", "b")),
            ("b", ("a", "c")),
            ("c", ("a", "b")),
            ("a", ("a", "a")),
            ("b", ("a", "a")),
        ],
    )
    LABELS = frozenset({"a", "b"})
    TREE_A = _tree("a", _leafy("a", "a", "b"), _leafy("b", "a", "b"))
    TREE_B = _tree("b", _leafy("a", "a", "b"), _leafy("b", "a", "b"))

    def _uniform(self, tree_b=None, tree_a=None):
        return UniformCertificate(
            problem=self.PROBLEM,
            labels=self.LABELS,
            depth=2,
            trees={"a": tree_a or self.TREE_A, "b": tree_b or self.TREE_B},
        )

    def test_the_unbroken_certificates_are_valid(self):
        assert self._uniform().validate() == []
        assert self._uniform().to_coprime().validate() == []

    def test_root_differing_from_its_key(self):
        certificate = self._uniform(tree_a=self.TREE_B)
        assert certificate.validate() == ["tree for label 'a' has root 'b'"]

    def test_node_with_one_child_too_few(self):
        broken = _tree("b", _leafy("a", "a", "b"), _leafy("b", "a"))
        assert self._uniform(broken).validate() == [
            "tree for label 'b' is not a complete 2-ary tree",
            "configuration b : a not allowed by the problem",
            "tree for label 'b' has a different leaf labeling",
        ]

    def test_leaves_at_two_depths(self):
        broken = _tree("b", _leafy("a", "a", "b"), _tree("b"))
        assert self._uniform(broken).validate() == [
            "tree for label 'b' is not a complete 2-ary tree",
            "tree for label 'b' has a different leaf labeling",
        ]
        assert not broken.is_complete(2) and self.TREE_B.is_complete(2)
        assert (broken.depth(), broken.leaf_labels()) == (2, ("a", "b", "b"))

    def test_forbidden_configuration(self):
        broken = _tree("b", _leafy("b", "a", "b"), _leafy("b", "a", "b"))
        assert self._uniform(broken).validate() == [
            "configuration b : b b not allowed by the problem",
        ]

    def test_label_outside_the_certificate_labels(self):
        broken = _tree("b", _leafy("a", "a", "b"), _leafy("c", "a", "b"))
        assert self._uniform(broken).validate() == [
            "tree for label 'b' uses labels outside the certificate labels",
        ]

    def test_label_outside_the_problem_alphabet(self):
        broken = _tree("b", _leafy("a", "a", "b"), _leafy("b", "a", "z"))
        assert self._uniform(broken).validate() == [
            "tree for label 'b' uses labels outside the certificate labels",
            "tree uses labels outside the problem alphabet",
            "configuration b : a z not allowed by the problem",
            "tree for label 'b' has a different leaf labeling",
        ]
        assert broken.labels_used() == frozenset({"a", "b", "z"})
        assert broken.validate_against(self.PROBLEM) == [
            "tree uses labels outside the problem alphabet",
            "configuration b : a z not allowed by the problem",
        ]

    def test_different_leaf_labeling(self):
        broken = _tree("b", _leafy("a", "b", "a"), _leafy("b", "a", "b"))
        assert self._uniform(broken).validate() == [
            "tree for label 'b' has a different leaf labeling",
        ]

    def test_special_label_not_at_a_leaf(self):
        uniform = UniformCertificate(
            problem=self.PROBLEM,
            labels=self.LABELS,
            depth=1,
            trees={"a": _leafy("a", "a", "a"), "b": _leafy("b", "a", "a")},
        )
        assert uniform.validate() == []
        at_leaf = ConstantCertificate(uniform, Configuration("a", ("a", "b")))
        assert at_leaf.validate() == []
        not_at_leaf = ConstantCertificate(uniform, Configuration("b", ("a", "b")))
        assert not_at_leaf.validate() == [
            "special label 'b' does not occur at a certificate leaf",
        ]
