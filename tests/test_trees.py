"""Tests for the rooted-tree substrate and the instance generators."""

import pytest

from repro.trees import (
    RootedTree,
    TreeBuilder,
    TreeError,
    complete_tree,
    concatenated_lower_bound_tree,
    hairy_path,
    lower_bound_tree,
    lower_bound_tree_size,
    random_full_tree,
)


class TestRootedTree:
    def test_two_roots_rejected(self):
        with pytest.raises(TreeError):
            RootedTree(parent=[None, None], children=[[], []]).validate()

    def test_cycle_rejected(self):
        with pytest.raises(TreeError):
            RootedTree(parent=[1, 0], children=[[1], [0]]).validate()

    def test_depths_and_height(self):
        tree = complete_tree(2, 3)
        depths = tree.depths()
        assert depths[tree.root] == 0
        assert tree.height() == 3
        assert max(depths) == 3

    def test_leaves_and_internal(self):
        tree = complete_tree(2, 3)
        assert len(tree.leaves()) == 8
        assert len(tree.internal_nodes()) == 7

    def test_bfs_order_starts_at_root(self):
        tree = complete_tree(2, 3)
        order = tree.bfs_order()
        assert order[0] == tree.root
        assert len(order) == tree.num_nodes

    def test_bottom_up_order_children_first(self):
        tree = complete_tree(2, 3)
        position = {node: i for i, node in enumerate(tree.topological_bottom_up())}
        for node in tree.nodes():
            for child in tree.children[node]:
                assert position[child] < position[node]

    def test_ancestors_and_path_to_root(self):
        tree = hairy_path(2, 5)
        leaf = max(tree.nodes(), key=lambda v: tree.depths()[v])
        assert len(tree.ancestors(leaf, limit=2)) == 2

    def test_distance(self):
        tree = complete_tree(2, 3)
        a, b = tree.children[tree.root]
        assert tree.distance(a, b) == 2
        assert tree.distance(tree.root, a) == 1
        assert tree.distance(a, a) == 0

    def test_port_of(self):
        tree = complete_tree(2, 2)
        left, right = tree.children[tree.root]
        assert tree.port_of(left) == 0
        assert tree.port_of(right) == 1
        assert tree.port_of(tree.root) == 0

    def test_identifiers_unique(self):
        tree = complete_tree(2, 4)
        ids = tree.default_identifiers(seed=3)
        assert len(set(ids)) == tree.num_nodes


class TestGenerators:
    def test_complete_tree_size(self):
        assert complete_tree(2, 4).num_nodes == 31
        assert complete_tree(3, 3).num_nodes == 40

    def test_complete_tree_is_full(self):
        assert complete_tree(2, 5).is_full_delta_ary(2)
        assert complete_tree(3, 3).is_full_delta_ary(3)

    def test_hairy_path_structure(self):
        tree = hairy_path(2, 10)
        assert tree.is_full_delta_ary(2)
        assert tree.height() == 10
        assert tree.num_nodes == 21
        assert len(tree.internal_nodes()) == 10

    def test_random_full_tree_is_full(self):
        tree = random_full_tree(2, 50, seed=1)
        assert tree.is_full_delta_ary(2)
        assert tree.num_nodes == 101

    def test_random_full_tree_reproducible(self):
        first = random_full_tree(2, 30, seed=5)
        second = random_full_tree(2, 30, seed=5)
        assert first.parent == second.parent

    def test_builder_rejects_second_root(self):
        builder = TreeBuilder()
        builder.add_root()
        with pytest.raises(TreeError):
            builder.add_root()


class TestLowerBoundTrees:
    def test_size_matches_closed_form(self):
        for x in (2, 3, 5):
            for k in (0, 1, 2, 3):
                bipolar = lower_bound_tree(x, k)
                assert bipolar.num_nodes == lower_bound_tree_size(x, k)

    def test_growth_is_theta_x_to_k(self):
        # n = Θ(x^k): doubling x should multiply the size by roughly 2^k.
        for k in (1, 2, 3):
            small = lower_bound_tree_size(4, k)
            large = lower_bound_tree_size(8, k)
            ratio = large / small
            assert 2 ** k * 0.5 <= ratio <= 2 ** k * 2.5

    def test_core_path_length(self):
        bipolar = lower_bound_tree(5, 2)
        assert len(bipolar.core_path()) == 5
        assert bipolar.layer[bipolar.source] == 2
        assert bipolar.layer[bipolar.sink] == 2

    def test_layers_partition_nodes(self):
        bipolar = lower_bound_tree(4, 3)
        counted = sum(len(bipolar.nodes_in_layer(layer)) for layer in range(0, 4))
        assert counted == bipolar.num_nodes

    def test_concatenated_tree_middle_edge(self):
        bipolar = concatenated_lower_bound_tree(4, 2, 1)
        middle = bipolar.tree.metadata["middle_edge"]
        first_end, second_start = middle
        assert bipolar.tree.parent[second_start] == first_end
        assert bipolar.layer[first_end] == 2
        assert bipolar.layer[second_start] == 1

    def test_concatenated_size(self):
        bipolar = concatenated_lower_bound_tree(3, 1, 2)
        expected = lower_bound_tree_size(3, 1) + lower_bound_tree_size(3, 2)
        assert bipolar.num_nodes == expected

    def test_trees_are_valid_rooted_trees(self):
        bipolar = lower_bound_tree(3, 2, delta=3)
        bipolar.tree.validate()
        assert bipolar.tree.root == bipolar.source
