"""Unit tests for the automaton substrate (Definitions 4.7–4.9, 4.12)."""

import pytest

from repro.automata import (
    PathAutomaton,
    automaton_of,
    component_period,
    is_path_flexible_problem,
    label_flexibilities,
    minimal_absorbing_subgraph,
    path_flexible_labels,
    path_inflexible_labels,
    sink_components,
    strongly_connected_components,
)
from repro.automata.scc import component_has_edge, condensation, is_strongly_connected
from repro.problems import (
    branch_two_coloring,
    figure2_combined_problem,
    maximal_independent_set,
    three_coloring,
    two_coloring,
)


class TestSCC:
    def test_single_cycle(self):
        graph = {"a": ["b"], "b": ["c"], "c": ["a"]}
        components = strongly_connected_components(graph)
        assert len(components) == 1
        assert components[0] == frozenset({"a", "b", "c"})

    def test_dag(self):
        graph = {"a": ["b"], "b": ["c"], "c": []}
        components = strongly_connected_components(graph)
        assert len(components) == 3

    def test_two_components(self):
        graph = {"a": ["b"], "b": ["a", "c"], "c": ["d"], "d": ["c"]}
        components = {frozenset(c) for c in strongly_connected_components(graph)}
        assert frozenset({"a", "b"}) in components
        assert frozenset({"c", "d"}) in components

    def test_condensation_edges(self):
        graph = {"a": ["b"], "b": ["a", "c"], "c": ["d"], "d": ["c"]}
        components, dag = condensation(graph)
        index_of = {component: i for i, component in enumerate(components)}
        source = index_of[frozenset({"a", "b"})]
        target = index_of[frozenset({"c", "d"})]
        assert target in dag[source]

    def test_sink_components(self):
        graph = {"a": ["b"], "b": ["a", "c"], "c": ["d"], "d": ["c"]}
        sinks = sink_components(graph)
        assert sinks == [frozenset({"c", "d"})]

    def test_minimal_absorbing_subgraph_deterministic(self):
        graph = {"a": [], "b": []}
        assert minimal_absorbing_subgraph(graph) == frozenset({"a"})

    def test_component_period_of_two_cycle(self):
        graph = {"a": ["b"], "b": ["a"]}
        assert component_period(graph, frozenset({"a", "b"})) == 2

    def test_component_period_with_self_loop(self):
        graph = {"a": ["b", "a"], "b": ["a"]}
        assert component_period(graph, frozenset({"a", "b"})) == 1

    def test_component_period_trivial(self):
        graph = {"a": ["b"], "b": []}
        assert component_period(graph, frozenset({"a"})) == 0
        assert not component_has_edge(graph, frozenset({"a"}))

    def test_is_strongly_connected(self):
        assert is_strongly_connected({"a": ["b"], "b": ["a"]})
        assert not is_strongly_connected({"a": ["b"], "b": []})


class TestPathAutomaton:
    def test_three_coloring_automaton_structure(self):
        automaton = automaton_of(three_coloring())
        assert automaton.states == frozenset({"1", "2", "3"})
        assert automaton.successors("1") == frozenset({"2", "3"})
        assert automaton.num_edges() == 6
        assert automaton.is_strongly_connected()

    def test_flexibility_of_three_coloring(self):
        automaton = automaton_of(three_coloring())
        for state in "123":
            assert automaton.is_flexible(state)
            assert automaton.flexibility(state) == 2

    def test_two_coloring_is_inflexible(self):
        automaton = automaton_of(two_coloring())
        assert not automaton.is_flexible("1")
        assert not automaton.is_flexible("2")
        assert path_flexible_labels(two_coloring()) == frozenset()

    def test_branch_two_coloring_is_flexible(self):
        flexibilities = label_flexibilities(branch_two_coloring())
        assert flexibilities["1"] is not None
        assert flexibilities["2"] is not None

    def test_figure2_inflexible_labels(self):
        # In the combined problem of Figure 2, labels a and b are path-inflexible
        # while 1 and 2 are path-flexible.
        assert path_inflexible_labels(figure2_combined_problem()) == frozenset({"a", "b"})

    def test_mis_automaton_flexible(self):
        problem = maximal_independent_set()
        assert path_flexible_labels(problem) == frozenset({"1", "a", "b"})

    def test_returning_walk_lengths(self):
        automaton = automaton_of(branch_two_coloring())
        lengths = automaton.returning_walk_lengths("1", 6)
        assert 1 in lengths  # 1 -> 1 self-loop via configuration 1 : 1 2
        assert 2 in lengths  # 1 -> 2 -> 1

    def test_find_walk_exact_length(self):
        automaton = automaton_of(three_coloring())
        for length in range(2, 8):
            walk = automaton.find_walk("1", "2", length)
            assert walk is not None
            assert len(walk) == length + 1
            assert walk[0] == "1" and walk[-1] == "2"
            for a, b in zip(walk, walk[1:]):
                assert b in automaton.successors(a)

    def test_find_walk_impossible(self):
        automaton = automaton_of(two_coloring())
        assert automaton.find_walk("1", "1", 3) is None

    def test_minimal_absorbing_states(self):
        automaton = automaton_of(three_coloring())
        assert automaton.minimal_absorbing_states() == frozenset({"1", "2", "3"})

    def test_unknown_transition_rejected(self):
        with pytest.raises(ValueError):
            PathAutomaton({"a"}, [("a", "z")])

    def test_is_path_flexible_problem(self):
        assert is_path_flexible_problem(three_coloring())
        assert not is_path_flexible_problem(two_coloring())
        assert not is_path_flexible_problem(figure2_combined_problem())
