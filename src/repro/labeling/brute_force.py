"""Reference solvers: exhaustive and greedy labelings of small trees.

These centralized solvers serve as ground truth for the distributed algorithms
and for cross-validating the classifier:

* :func:`brute_force_solve` — backtracking over all labelings (exponential, only
  for small trees),
* :func:`greedy_top_down_solve` — labels the tree top-down staying inside the
  greatest fixed point of "has a continuation below"; succeeds exactly when the
  problem is solvable,
* :func:`count_solutions` — the number of valid labelings (used by property
  tests on tiny instances).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.configuration import Configuration, Label
from ..core.problem import LCLProblem
from ..trees.rooted_tree import RootedTree
from .verifier import Labeling


def _constrained_nodes(problem: LCLProblem, tree: RootedTree) -> List[int]:
    """Internal nodes with exactly ``δ`` children (the constrained ones)."""
    return [
        node
        for node in tree.internal_nodes()
        if len(tree.children[node]) == problem.delta
    ]


def brute_force_solve(problem: LCLProblem, tree: RootedTree) -> Optional[Labeling]:
    """Find a valid labeling by backtracking, or return ``None`` if none exists.

    Nodes are processed in breadth-first order; when a node's configuration with
    its parent cannot be completed the search backtracks.  Intended for trees of
    at most a few dozen nodes.
    """
    order = tree.bfs_order()
    labels = problem.sorted_labels()
    labeling: Dict[int, Label] = {}
    constrained = set(_constrained_nodes(problem, tree))

    def compatible(node: int) -> bool:
        """Check the configuration of ``node``'s parent when all its children are labeled."""
        parent = tree.parent[node]
        if parent is None or parent not in constrained:
            return True
        children = tree.children[parent]
        if any(child not in labeling for child in children):
            return True
        config = Configuration(labeling[parent], [labeling[child] for child in children])
        return config in problem.configurations

    def backtrack(index: int) -> bool:
        if index == len(order):
            return True
        node = order[index]
        for label in labels:
            labeling[node] = label
            if compatible(node) and backtrack(index + 1):
                return True
            del labeling[node]
        return False

    if backtrack(0):
        return dict(labeling)
    return None


def greedy_top_down_solve(problem: LCLProblem, tree: RootedTree) -> Optional[Labeling]:
    """Label the tree top-down using labels with infinite continuations.

    The root receives any label of the greatest fixed point; every constrained
    internal node then picks a configuration whose children stay inside the
    fixed point.  Unconstrained nodes (leaves, or internal nodes with a number of
    children different from ``δ``) inherit whatever label the parent's
    configuration assigned, or the smallest fixed-point label.
    """
    viable = problem.infinite_continuation_labels()
    if not viable:
        return None
    default = min(viable)
    labeling: Dict[int, Label] = {}
    for node in tree.bfs_order():
        if node not in labeling:
            labeling[node] = default
        children = tree.children[node]
        if len(children) != problem.delta:
            continue
        config = problem.continuation_of(labeling[node], viable)
        if config is None:
            return None
        for child, child_label in zip(children, config.children):
            labeling[child] = child_label
    return labeling


def count_solutions(problem: LCLProblem, tree: RootedTree, limit: int = 1_000_000) -> int:
    """Count the valid labelings of ``tree`` (up to ``limit``)."""
    order = tree.bfs_order()
    labels = problem.sorted_labels()
    labeling: Dict[int, Label] = {}
    constrained = set(_constrained_nodes(problem, tree))
    count = 0

    def compatible(node: int) -> bool:
        parent = tree.parent[node]
        if parent is None or parent not in constrained:
            return True
        children = tree.children[parent]
        if any(child not in labeling for child in children):
            return True
        config = Configuration(labeling[parent], [labeling[child] for child in children])
        return config in problem.configurations

    def backtrack(index: int) -> None:
        nonlocal count
        if count >= limit:
            return
        if index == len(order):
            count += 1
            return
        node = order[index]
        for label in labels:
            labeling[node] = label
            if compatible(node):
                backtrack(index + 1)
            del labeling[node]
            if count >= limit:
                return

    backtrack(0)
    return count


def solvable_on_tree(problem: LCLProblem, tree: RootedTree) -> bool:
    """Whether the problem admits any valid labeling of ``tree``."""
    return brute_force_solve(problem, tree) is not None
