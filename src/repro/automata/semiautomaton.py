"""The nondeterministic unary semiautomaton ``M(Π)`` (Definition 4.7).

The automaton associated with the path-form of an LCL problem has the labels as
states and a transition ``a -> b`` whenever ``(a : b)`` appears in the path-form,
i.e. whenever some configuration with parent ``a`` contains ``b`` among its
children.  Walks in this automaton correspond to labelings of vertical (root to
leaf) paths.

This module implements the automaton together with:

* flexibility of states (Definition 4.8) and path-flexibility of labels
  (Definition 4.9),
* exact-length walk queries (used by the rake-and-compress solver of
  Theorem 5.1 to fill compress paths),
* minimal absorbing subgraphs of the automaton (used by Algorithm 2).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from . import scc as scc_module

if TYPE_CHECKING:  # pragma: no cover - import only for type checkers
    from ..core.problem import LCLProblem

Label = str
"""Automaton states are LCL labels (plain strings); kept free of core imports."""


class PathAutomaton:
    """The unary semiautomaton ``M(Π)`` of an LCL problem."""

    def __init__(self, states: Iterable[Label], edges: Iterable[Tuple[Label, Label]]):
        self.states: FrozenSet[Label] = frozenset(states)
        self._successors: Dict[Label, Set[Label]] = {state: set() for state in self.states}
        for source, target in edges:
            if source not in self.states or target not in self.states:
                raise ValueError(f"transition {source}->{target} uses unknown states")
            self._successors[source].add(target)
        self._scc_cache: Optional[List[FrozenSet[Label]]] = None
        self._flexibility_cache: Dict[Label, Optional[int]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @staticmethod
    def from_problem(problem: "LCLProblem") -> "PathAutomaton":
        """Build ``M(Π)`` from a problem (Definition 4.7)."""
        return PathAutomaton(problem.labels, problem.path_edges())

    # ------------------------------------------------------------------
    # Basic structure
    # ------------------------------------------------------------------
    def successors(self, state: Label) -> FrozenSet[Label]:
        """States reachable in one step from ``state``."""
        return frozenset(self._successors.get(state, ()))

    def edges(self) -> FrozenSet[Tuple[Label, Label]]:
        """All transitions as ``(source, target)`` pairs."""
        return frozenset(
            (source, target)
            for source, targets in self._successors.items()
            for target in targets
        )

    def num_edges(self) -> int:
        """Number of transitions."""
        return sum(len(targets) for targets in self._successors.values())

    def adjacency(self) -> Dict[Label, List[Label]]:
        """Adjacency mapping suitable for the :mod:`repro.automata.scc` helpers."""
        return {state: sorted(targets) for state, targets in self._successors.items()}

    # ------------------------------------------------------------------
    # SCCs and absorbing subgraphs
    # ------------------------------------------------------------------
    def strongly_connected_components(self) -> List[FrozenSet[Label]]:
        """The SCCs of the automaton (cached)."""
        if self._scc_cache is None:
            self._scc_cache = scc_module.strongly_connected_components(self.adjacency())
        return self._scc_cache

    def component_of(self, state: Label) -> FrozenSet[Label]:
        """The SCC containing ``state``."""
        for component in self.strongly_connected_components():
            if state in component:
                return component
        raise KeyError(state)

    def is_strongly_connected(self) -> bool:
        """Whether the automaton consists of a single SCC."""
        return scc_module.is_strongly_connected(self.adjacency())

    def minimal_absorbing_states(self) -> FrozenSet[Label]:
        """States of a minimal absorbing subgraph (Definition 4.12)."""
        return scc_module.minimal_absorbing_subgraph(self.adjacency())

    # ------------------------------------------------------------------
    # Flexibility (Definition 4.8 / 4.9)
    # ------------------------------------------------------------------
    def walk_length_bound(self) -> int:
        """Upper bound on the flexibility of any flexible state.

        For a strongly connected aperiodic digraph on ``s`` nodes, walks of every
        length ``>= (s - 1)^2 + 1`` exist between every pair of nodes (Wielandt's
        bound).  We add a small safety margin.
        """
        s = max(1, len(self.states))
        return (s - 1) * (s - 1) + s + 2

    def is_flexible(self, state: Label) -> bool:
        """Flexibility of a state (Definition 4.8).

        A state is flexible iff returning walks of every sufficiently large length
        exist, which holds exactly when the state's SCC contains at least one edge
        and has period 1.
        """
        return self.flexibility(state) is not None

    def flexibility(self, state: Label) -> Optional[int]:
        """The flexibility value ``flexibility(state)`` or ``None`` if inflexible.

        The flexibility is the smallest ``K`` such that returning walks of every
        length ``k >= K`` exist.  It is computed by an exact dynamic program over
        walk lengths, capped by :meth:`walk_length_bound`.
        """
        if state in self._flexibility_cache:
            return self._flexibility_cache[state]
        result = self._compute_flexibility(state)
        self._flexibility_cache[state] = result
        return result

    def _compute_flexibility(self, state: Label) -> Optional[int]:
        component = self.component_of(state)
        if not scc_module.component_has_edge(self.adjacency(), component):
            return None
        period = scc_module.component_period(self.adjacency(), component)
        if period != 1:
            return None
        bound = self.walk_length_bound()
        # reachable[k] = set of states reachable from `state` by a walk of length k
        # staying anywhere in the automaton; returning walks only need membership
        # of `state` itself.
        returning = self.returning_walk_lengths(state, bound)
        # Find the smallest K such that all lengths K..bound admit a returning walk.
        best: Optional[int] = None
        for length in range(bound, 0, -1):
            if length in returning:
                best = length
            else:
                break
        return best

    def returning_walk_lengths(self, state: Label, max_length: int) -> FrozenSet[int]:
        """The set of lengths ``1..max_length`` of walks from ``state`` back to ``state``."""
        lengths: Set[int] = set()
        current: Set[Label] = {state}
        for length in range(1, max_length + 1):
            nxt: Set[Label] = set()
            for node in current:
                nxt |= self._successors.get(node, set())
            if state in nxt:
                lengths.add(length)
            current = nxt
            if not current:
                break
        return frozenset(lengths)

    def flexible_states(self) -> FrozenSet[Label]:
        """All flexible states of the automaton."""
        return frozenset(state for state in self.states if self.is_flexible(state))

    def max_flexibility(self) -> int:
        """The maximum flexibility value over all flexible states (0 if none)."""
        values = [self.flexibility(state) for state in self.states]
        finite = [value for value in values if value is not None]
        return max(finite) if finite else 0

    # ------------------------------------------------------------------
    # Walks
    # ------------------------------------------------------------------
    def find_walk(self, source: Label, target: Label, length: int) -> Optional[List[Label]]:
        """Return a walk ``[source, ..., target]`` with exactly ``length`` edges, or ``None``.

        The walk is found by a backward dynamic program: ``good[k]`` is the set of
        states from which ``target`` is reachable in exactly ``k`` steps.
        """
        if length < 0:
            return None
        good: List[Set[Label]] = [set() for _ in range(length + 1)]
        good[0] = {target}
        for steps in range(1, length + 1):
            good[steps] = {
                state
                for state in self.states
                if self._successors.get(state, set()) & good[steps - 1]
            }
        if source not in good[length]:
            return None
        walk = [source]
        current = source
        for remaining in range(length, 0, -1):
            next_state = min(
                successor
                for successor in self._successors.get(current, set())
                if successor in good[remaining - 1]
            )
            walk.append(next_state)
            current = next_state
        return walk

    def __repr__(self) -> str:  # pragma: no cover - convenience
        return (
            f"PathAutomaton(states={sorted(self.states)}, "
            f"edges={sorted(self.edges())})"
        )
