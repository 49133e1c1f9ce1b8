"""Rooted trees: the input instances of LCL problems.

Trees are stored in a flat, array-based representation: nodes are integers
``0 .. n-1``, each node stores its parent (``None`` for the root) and the list of
its children.  The representation is cheap to traverse and convenient both for
the distributed simulator (ports = child indices) and for the combinatorial
constructions of the paper (Section 5.4).

Edges are conceptually oriented from child to parent, matching the paper's
convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set


class TreeError(ValueError):
    """Raised when a tree is malformed or an operation is not applicable."""


@dataclass
class RootedTree:
    """A rooted tree over nodes ``0 .. n-1``.

    Attributes
    ----------
    parent:
        ``parent[v]`` is the parent of ``v`` or ``None`` for the root.
    children:
        ``children[v]`` is the list of children of ``v`` (the order defines the
        port numbering used by the distributed algorithms).
    metadata:
        Optional per-tree annotations (e.g. the layer numbers of the lower-bound
        constructions).
    """

    parent: List[Optional[int]]
    children: List[List[int]]
    metadata: Dict[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check that the structure is a single tree rooted at :attr:`root`."""
        n = self.num_nodes
        seen: Set[int] = set()
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node in seen:
                raise TreeError("tree contains a cycle")
            seen.add(node)
            stack.extend(self.children[node])
        if len(seen) != n:
            raise TreeError("tree is not connected")

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """The number of nodes ``n``."""
        return len(self.parent)

    def __len__(self) -> int:
        return self.num_nodes

    @property
    def root(self) -> int:
        """The root node (the unique node without a parent)."""
        for node, parent in enumerate(self.parent):
            if parent is None:
                return node
        raise TreeError("tree has no root")

    def nodes(self) -> range:
        """All node identifiers."""
        return range(self.num_nodes)

    def is_leaf(self, node: int) -> bool:
        """Whether ``node`` has no children."""
        return not self.children[node]

    def is_internal(self, node: int) -> bool:
        """Whether ``node`` has at least one child."""
        return bool(self.children[node])

    def leaves(self) -> List[int]:
        """All leaves."""
        return [node for node in self.nodes() if self.is_leaf(node)]

    def internal_nodes(self) -> List[int]:
        """All internal nodes."""
        return [node for node in self.nodes() if self.is_internal(node)]

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def is_full_delta_ary(self, delta: int) -> bool:
        """Whether every node has exactly ``delta`` or zero children."""
        return all(
            len(self.children[node]) in (0, delta) for node in self.nodes()
        )

    def depths(self) -> List[int]:
        """Depth of every node (root has depth 0)."""
        depth = [0] * self.num_nodes
        for node in self.bfs_order():
            parent = self.parent[node]
            if parent is not None:
                depth[node] = depth[parent] + 1
        return depth

    def height(self) -> int:
        """The height of the tree (length of the longest root-to-leaf path)."""
        return max(self.depths()) if self.num_nodes else 0

    def bfs_order(self) -> List[int]:
        """Nodes in breadth-first order starting at the root."""
        order: List[int] = [self.root]
        index = 0
        while index < len(order):
            node = order[index]
            index += 1
            order.extend(self.children[node])
        return order

    def topological_bottom_up(self) -> List[int]:
        """Nodes ordered so that every node appears after all of its children."""
        return list(reversed(self.bfs_order()))

    def ancestors(self, node: int, limit: Optional[int] = None) -> List[int]:
        """The ancestors of ``node`` from parent upwards (at most ``limit`` of them)."""
        result: List[int] = []
        current = self.parent[node]
        while current is not None and (limit is None or len(result) < limit):
            result.append(current)
            current = self.parent[current]
        return result

    def distance(self, first: int, second: int) -> int:
        """Distance between two nodes in the undirected tree."""
        depth = self.depths()
        a, b = first, second
        while depth[a] > depth[b]:
            a = self.parent[a]  # type: ignore[assignment]
        while depth[b] > depth[a]:
            b = self.parent[b]  # type: ignore[assignment]
        while a != b:
            a = self.parent[a]  # type: ignore[assignment]
            b = self.parent[b]  # type: ignore[assignment]
        lca_depth = depth[a]
        return (depth[first] - lca_depth) + (depth[second] - lca_depth)

    def port_of(self, node: int) -> int:
        """The index of ``node`` among its siblings (0 for the root)."""
        parent = self.parent[node]
        if parent is None:
            return 0
        return self.children[parent].index(node)

    # ------------------------------------------------------------------
    # Identifier assignment
    # ------------------------------------------------------------------
    def default_identifiers(self, seed: Optional[int] = None) -> List[int]:
        """Unique ``O(log n)``-bit identifiers for the nodes.

        With ``seed=None`` the identity assignment is used; otherwise a
        pseudo-random permutation of ``1 .. poly(n)`` is drawn, matching the
        LOCAL-model assumption that identifiers come from a polynomial range.
        """
        import random

        n = self.num_nodes
        if seed is None:
            return [node + 1 for node in self.nodes()]
        rng = random.Random(seed)
        universe = rng.sample(range(1, max(2, n * n) + 1), n)
        return list(universe)

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def summary(self) -> str:
        """One-line description of the tree."""
        return (
            f"RootedTree(n={self.num_nodes}, height={self.height()}, "
            f"leaves={len(self.leaves())})"
        )

    def __repr__(self) -> str:  # pragma: no cover - convenience
        return self.summary()


class TreeBuilder:
    """Incremental construction of rooted trees.

    The builder keeps parent/children arrays in sync and hands out node
    identifiers in creation order; it is used by the generators and by the
    lower-bound constructions.
    """

    def __init__(self) -> None:
        self._parent: List[Optional[int]] = []
        self._children: List[List[int]] = []

    def add_root(self) -> int:
        """Add a root node (only valid once)."""
        if self._parent:
            raise TreeError("builder already has a root")
        return self._add(None)

    def add_child(self, parent: int) -> int:
        """Add a child of ``parent`` and return its identifier."""
        if not 0 <= parent < len(self._parent):
            raise TreeError(f"unknown parent {parent}")
        return self._add(parent)

    def add_children(self, parent: int, count: int) -> List[int]:
        """Add ``count`` children of ``parent``."""
        return [self.add_child(parent) for _ in range(count)]

    def _add(self, parent: Optional[int]) -> int:
        node = len(self._parent)
        self._parent.append(parent)
        self._children.append([])
        if parent is not None:
            self._children[parent].append(node)
        return node

    @property
    def num_nodes(self) -> int:
        """Number of nodes added so far."""
        return len(self._parent)

    def build(self, metadata: Optional[Dict[str, object]] = None) -> RootedTree:
        """Finalize and return the tree."""
        tree = RootedTree(
            parent=list(self._parent),
            children=[list(children) for children in self._children],
            metadata=dict(metadata or {}),
        )
        tree.validate()
        return tree
