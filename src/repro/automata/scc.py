"""Strongly connected components and absorbing subgraphs of directed graphs.

This is a small, self-contained graph substrate used by the automaton analysis of
Section 4.4 and by the certificate algorithms of Section 5.  Graphs are given as
adjacency mappings ``{node: iterable of successors}`` over hashable nodes.

Provided operations:

* Tarjan's strongly connected components (iterative, no recursion limit issues),
* the condensation (SCC DAG),
* sink SCCs and *minimal absorbing subgraphs* (Definition 4.12),
* SCC periods (gcd of cycle lengths), used by the flexibility analysis.
"""

from __future__ import annotations

from math import gcd
from typing import Dict, FrozenSet, Hashable, Iterable, List, Mapping, Sequence, Set, Tuple

Node = Hashable
Graph = Mapping[Node, Iterable[Node]]


def normalize_graph(graph: Graph) -> Dict[Node, List[Node]]:
    """Return a copy of ``graph`` where every mentioned node has an adjacency list."""
    normalized: Dict[Node, List[Node]] = {}
    for node, successors in graph.items():
        normalized.setdefault(node, [])
        for successor in successors:
            normalized[node].append(successor)
            normalized.setdefault(successor, [])
    return normalized


def strongly_connected_components(graph: Graph) -> List[FrozenSet[Node]]:
    """Tarjan's algorithm, implemented iteratively.

    Returns the SCCs in reverse topological order of the condensation (every SCC
    appears after all SCCs it can reach), which is the order Tarjan naturally
    produces.
    """
    adjacency = normalize_graph(graph)
    index_counter = 0
    indices: Dict[Node, int] = {}
    lowlink: Dict[Node, int] = {}
    on_stack: Set[Node] = set()
    stack: List[Node] = []
    components: List[FrozenSet[Node]] = []

    for root in adjacency:
        if root in indices:
            continue
        # Each frame is (node, iterator over successors).
        work: List[Tuple[Node, int]] = [(root, 0)]
        while work:
            node, child_index = work.pop()
            if child_index == 0:
                indices[node] = index_counter
                lowlink[node] = index_counter
                index_counter += 1
                stack.append(node)
                on_stack.add(node)
            recurse = False
            successors = adjacency[node]
            while child_index < len(successors):
                successor = successors[child_index]
                child_index += 1
                if successor not in indices:
                    work.append((node, child_index))
                    work.append((successor, 0))
                    recurse = True
                    break
                if successor in on_stack:
                    lowlink[node] = min(lowlink[node], indices[successor])
            if recurse:
                continue
            if lowlink[node] == indices[node]:
                component: Set[Node] = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                components.append(frozenset(component))
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return components


def condensation(graph: Graph) -> Tuple[List[FrozenSet[Node]], Dict[int, Set[int]]]:
    """Return the SCCs and the condensation DAG over SCC indices."""
    adjacency = normalize_graph(graph)
    components = strongly_connected_components(adjacency)
    component_of: Dict[Node, int] = {}
    for index, component in enumerate(components):
        for node in component:
            component_of[node] = index
    dag: Dict[int, Set[int]] = {index: set() for index in range(len(components))}
    for node, successors in adjacency.items():
        for successor in successors:
            source = component_of[node]
            target = component_of[successor]
            if source != target:
                dag[source].add(target)
    return components, dag


def sink_components(graph: Graph) -> List[FrozenSet[Node]]:
    """All SCCs with no outgoing edges in the condensation (sorted deterministically)."""
    components, dag = condensation(graph)
    sinks = [components[index] for index, targets in dag.items() if not targets]
    return sorted(sinks, key=lambda component: sorted(map(str, component)))


def minimal_absorbing_subgraph(graph: Graph) -> FrozenSet[Node]:
    """A minimal absorbing subgraph (Definition 4.12).

    A minimal absorbing subgraph is a strongly connected component without
    outgoing edges.  One always exists; for determinism the lexicographically
    smallest sink component (by sorted node names) is returned.
    """
    sinks = sink_components(graph)
    if not sinks:
        raise ValueError("graph has no nodes, hence no absorbing subgraph")
    return sinks[0]


def component_has_edge(graph: Graph, component: FrozenSet[Node]) -> bool:
    """Return ``True`` iff the subgraph induced by ``component`` contains an edge."""
    adjacency = normalize_graph(graph)
    return any(
        successor in component
        for node in component
        for successor in adjacency.get(node, ())
    )


def component_period(graph: Graph, component: FrozenSet[Node]) -> int:
    """Period (gcd of cycle lengths) of the subgraph induced by ``component``.

    Returns ``0`` when the induced subgraph has no cycle (a trivial SCC without a
    self-loop).  The classic BFS-level argument is used: the period equals the gcd
    of ``level(u) + 1 - level(v)`` over all induced edges ``u -> v``.
    """
    adjacency = normalize_graph(graph)
    if not component_has_edge(adjacency, component):
        return 0
    start = next(iter(sorted(component, key=str)))
    level: Dict[Node, int] = {start: 0}
    frontier: List[Node] = [start]
    while frontier:
        next_frontier: List[Node] = []
        for node in frontier:
            for successor in adjacency.get(node, ()):
                if successor in component and successor not in level:
                    level[successor] = level[node] + 1
                    next_frontier.append(successor)
        frontier = next_frontier
    period = 0
    for node in component:
        for successor in adjacency.get(node, ()):
            if successor in component:
                period = gcd(period, level[node] + 1 - level[successor])
    return abs(period)


def is_strongly_connected(graph: Graph) -> bool:
    """Return ``True`` iff the whole graph is one strongly connected component."""
    adjacency = normalize_graph(graph)
    if not adjacency:
        return True
    return len(strongly_connected_components(adjacency)) == 1
