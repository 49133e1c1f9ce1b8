"""Random LCL problems, used for the census benchmark and property-based tests.

Random problems are drawn by including every possible configuration over a given
alphabet independently with a fixed probability.  Small alphabets already produce
problems in all four complexity classes, which makes the random census a useful
smoke test of the classifier (cf. the paper's remark that the classifier is fast
on problems of interest).
"""

from __future__ import annotations

import random
from itertools import combinations_with_replacement
from typing import Iterator, List, Optional, Sequence, Tuple

from ..core.configuration import Label
from ..core.problem import LCLProblem


def all_possible_configurations(labels: Sequence[Label], delta: int) -> List[Tuple[Label, Tuple[Label, ...]]]:
    """Every configuration over ``labels`` with ``delta`` children (children unordered)."""
    result: List[Tuple[Label, Tuple[Label, ...]]] = []
    for parent in sorted(labels):
        for children in combinations_with_replacement(sorted(labels), delta):
            result.append((parent, children))
    return result


def random_problem(
    num_labels: int,
    delta: int = 2,
    density: float = 0.5,
    seed: Optional[int] = None,
    rng: Optional[random.Random] = None,
    name: str = "",
) -> LCLProblem:
    """Draw a random problem: each possible configuration is kept with probability ``density``."""
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must be in [0, 1]")
    generator = rng if rng is not None else random.Random(seed)
    labels = [str(index) for index in range(1, num_labels + 1)]
    kept = [
        config
        for config in all_possible_configurations(labels, delta)
        if generator.random() < density
    ]
    return LCLProblem.create(
        delta=delta,
        configurations=kept,
        labels=labels,
        name=name or f"random({num_labels} labels, delta={delta}, density={density})",
    )


def all_problems_with(num_labels: int, delta: int = 2) -> Iterator[LCLProblem]:
    """Enumerate *every* problem over the given alphabet (exponentially many).

    Only feasible for very small alphabets; used to exhaustively check the
    classifier against brute force on tiny problem spaces.
    """
    universe = all_possible_configurations(
        [str(index) for index in range(1, num_labels + 1)], delta
    )
    total = 1 << len(universe)
    for mask in range(total):
        configs = [config for bit, config in enumerate(universe) if mask & (1 << bit)]
        yield LCLProblem.create(
            delta=delta,
            configurations=configs,
            labels=[str(index) for index in range(1, num_labels + 1)],
            name=f"enumerated-{num_labels}-{delta}-{mask}",
        )
