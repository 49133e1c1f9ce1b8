"""Rooted-tree substrate: tree structures, generators and lower-bound constructions."""

from .rooted_tree import RootedTree, TreeBuilder, TreeError
from .generators import complete_tree, hairy_path, random_full_tree
from .lower_bound import (
    BipolarTree,
    concatenated_lower_bound_tree,
    extend_bipolar,
    lower_bound_tree,
    lower_bound_tree_size,
)

__all__ = [
    "BipolarTree",
    "RootedTree",
    "TreeBuilder",
    "TreeError",
    "complete_tree",
    "concatenated_lower_bound_tree",
    "extend_bipolar",
    "hairy_path",
    "lower_bound_tree",
    "lower_bound_tree_size",
    "random_full_tree",
]
