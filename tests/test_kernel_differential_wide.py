"""Differential oracle at δ = 4 and δ = 5.

The exhaustive sweep of ``test_kernel_differential.py`` stops at δ ≤ 3,
where the kernel's matching table has at most 120 keys.  These seeded
samples of two-label problems pin the wider tables (up to 3,876 keys at
δ = 4, far more from δ = 5) to the reference at builder level
(``entries`` included) and at classification level.
"""

from __future__ import annotations

import random
from typing import List

import pytest

from repro.core.problem import LCLProblem
from repro.problems.random_problems import random_problem
from test_kernel_differential import _assert_same_builders, _assert_same_classification


def _two_label_draws(delta: int, count: int, seed: int) -> List[LCLProblem]:
    """``count`` non-empty two-label draws at mixed densities."""
    rng = random.Random(seed)
    draws: List[LCLProblem] = []
    while len(draws) < count:
        problem = random_problem(2, delta=delta, density=rng.choice((0.25, 0.4, 0.55)), rng=rng)
        if problem.configurations:
            draws.append(problem)
    return draws


@pytest.mark.parametrize("delta, count", [(4, 40), (5, 16)])
def test_two_label_draws_agree(delta, count):
    for problem in _two_label_draws(delta, count, seed=4500 + delta):
        _assert_same_builders(problem)
        _assert_same_classification(problem)
