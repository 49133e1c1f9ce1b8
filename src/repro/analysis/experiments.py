"""Experiment harness: scaling experiments and landscape censuses.

The benchmarks under ``benchmarks/`` are the canonical way to regenerate the
paper's tables and figures; this module provides the small amount of shared
machinery they (and the examples) build on, so that ad-hoc experiments can be
scripted in a few lines::

    from repro.analysis import scaling_experiment, format_table
    from repro.distributed import MISSolver
    from repro.problems import maximal_independent_set
    from repro.trees import complete_tree

    rows = scaling_experiment(
        maximal_independent_set(),
        MISSolver(maximal_independent_set()),
        [complete_tree(2, d) for d in (6, 9, 12)],
    )
    print(format_table(["n", "rounds", "valid"], rows))
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..api.session import connect
from ..core.classifier import classify
from ..core.complexity import ComplexityClass
from ..core.problem import LCLProblem
from ..distributed.solvers.base import Solver
from ..labeling.verifier import verify_labeling
from ..problems.random_problems import random_problem
from ..trees.rooted_tree import RootedTree


@dataclass(frozen=True)
class ScalingRow:
    """One measurement of a rounds-vs-n scaling experiment."""

    num_nodes: int
    rounds: int
    valid: bool
    solver_name: str

    def as_tuple(self) -> Tuple[int, int, bool]:
        """The row as a plain ``(n, rounds, valid)`` tuple."""
        return (self.num_nodes, self.rounds, self.valid)


def scaling_experiment(
    problem: LCLProblem,
    solver: Solver,
    trees: Sequence[RootedTree],
    seed: Optional[int] = None,
) -> List[ScalingRow]:
    """Run ``solver`` on every tree, verify the outputs and collect the round counts."""
    rows: List[ScalingRow] = []
    for tree in trees:
        result = solver.solve(tree, seed=seed)
        report = verify_labeling(problem, tree, result.labeling)
        rows.append(
            ScalingRow(
                num_nodes=tree.num_nodes,
                rounds=result.rounds,
                valid=report.valid,
                solver_name=result.solver_name,
            )
        )
    return rows


def classification_timing(problems: Iterable[LCLProblem]) -> List[Tuple[str, ComplexityClass, float]]:
    """Classify every problem and record the wall-clock time in milliseconds."""
    rows: List[Tuple[str, ComplexityClass, float]] = []
    for problem in problems:
        start = time.perf_counter()
        result = classify(problem)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        rows.append((problem.name or "<anonymous>", result.complexity, elapsed_ms))
    return rows


def landscape_census(
    num_labels: int,
    density: float,
    count: int,
    delta: int = 2,
) -> Dict[ComplexityClass, int]:
    """Classify ``count`` random problems and count the complexity classes.

    Classification runs through a ``local://inline`` session, so isomorphic
    draws share a single certificate search.
    """
    problems = [
        random_problem(num_labels, delta=delta, density=density, seed=seed)
        for seed in range(count)
    ]
    counts: Counter = Counter()
    with connect("local://inline") as session:
        for outcome in session.classify_many(problems):
            counts[outcome.result.complexity] += 1
    return dict(counts)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render a simple fixed-width text table (used by examples and reports)."""
    materialized = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = ["  ".join(header.ljust(widths[i]) for i, header in enumerate(headers))]
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in materialized:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)
