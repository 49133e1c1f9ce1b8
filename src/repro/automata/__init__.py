"""Automata substrate: unary semiautomata, SCC analysis and flexibility.

The automaton ``M(Π)`` associated with the path-form of an LCL problem
(Definition 4.7 of the paper) is the central tool of the super-logarithmic
analysis of Section 5.  This package provides the automaton itself, generic
directed-graph utilities (Tarjan SCCs, condensations, periods, absorbing
subgraphs), and the flexibility analysis of labels.
"""

from .scc import (
    condensation,
    component_has_edge,
    component_period,
    is_strongly_connected,
    minimal_absorbing_subgraph,
    sink_components,
    strongly_connected_components,
)
from .semiautomaton import PathAutomaton
from .flexibility import (
    automaton_of,
    is_path_flexible_problem,
    label_flexibilities,
    path_flexible_labels,
    path_inflexible_labels,
)

__all__ = [
    "PathAutomaton",
    "automaton_of",
    "condensation",
    "component_has_edge",
    "component_period",
    "is_path_flexible_problem",
    "is_strongly_connected",
    "label_flexibilities",
    "minimal_absorbing_subgraph",
    "path_flexible_labels",
    "path_inflexible_labels",
    "sink_components",
    "strongly_connected_components",
]
