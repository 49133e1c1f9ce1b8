"""Generators for full ``δ``-ary rooted trees.

The problems of the paper are defined on *full* ``δ``-ary trees: every node has
exactly ``δ`` or zero children (Section 4.1).  This module provides the standard
instance families used by the tests and benchmarks:

* complete (perfectly balanced) trees,
* hairy paths (Definition 4.11) — the hard instances for global problems,
* random full trees grown by repeatedly expanding random leaves.
"""

from __future__ import annotations

import random
from typing import List, Optional

from .rooted_tree import RootedTree, TreeBuilder, TreeError


def complete_tree(delta: int, depth: int) -> RootedTree:
    """The complete ``δ``-ary tree of the given depth (depth 0 is a single node)."""
    if delta < 1:
        raise TreeError("delta must be at least 1")
    if depth < 0:
        raise TreeError("depth must be non-negative")
    builder = TreeBuilder()
    root = builder.add_root()
    frontier = [root]
    for _ in range(depth):
        next_frontier: List[int] = []
        for node in frontier:
            next_frontier.extend(builder.add_children(node, delta))
        frontier = next_frontier
    return builder.build(metadata={"kind": "complete", "delta": delta, "depth": depth})


def hairy_path(delta: int, length: int) -> RootedTree:
    """A hairy path (Definition 4.11): a path of ``length`` internal nodes, each with ``δ`` children.

    The path continues through the first child of every node; the remaining
    ``δ - 1`` children are leaves, and the final path node's children are all
    leaves.  Hairy paths are the hard instances for global problems such as
    2-coloring.
    """
    if delta < 1:
        raise TreeError("delta must be at least 1")
    if length < 1:
        raise TreeError("length must be at least 1")
    builder = TreeBuilder()
    current = builder.add_root()
    for _ in range(length):
        children = builder.add_children(current, delta)
        current = children[0]
    return builder.build(metadata={"kind": "hairy-path", "delta": delta, "length": length})


def random_full_tree(
    delta: int,
    num_internal: int,
    seed: Optional[int] = None,
    rng: Optional[random.Random] = None,
) -> RootedTree:
    """A random full ``δ``-ary tree with ``num_internal`` internal nodes.

    Starting from a single root, ``num_internal`` times a uniformly random leaf
    is expanded into an internal node with ``δ`` children.  The resulting tree
    has ``num_internal * δ + 1`` nodes.
    """
    if delta < 1:
        raise TreeError("delta must be at least 1")
    if num_internal < 0:
        raise TreeError("num_internal must be non-negative")
    generator = rng if rng is not None else random.Random(seed)
    builder = TreeBuilder()
    root = builder.add_root()
    leaves = [root]
    for _ in range(num_internal):
        index = generator.randrange(len(leaves))
        node = leaves.pop(index)
        leaves.extend(builder.add_children(node, delta))
    return builder.build(
        metadata={"kind": "random-full", "delta": delta, "num_internal": num_internal}
    )
