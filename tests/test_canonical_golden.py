"""Golden canonical-key pin: every key and forward map of a fixed pool is committed.

``tests/test_canonical.py`` checks the canonical search against an
exhaustive oracle; this pin fixes its *output*.  The key text is the index
of every json and sqlite cache, so a changed key sends every persisted
cache back to cold, and a change that only means to make canonicalization
cheaper must leave every key and every forward map byte-identical.

The inputs are 585 bases -- the catalog rows, colorings, ``Pi_k``, a
3-ary MIS, two adversarial problems, the 256 problems of
``distinct_forms(256)`` and 300 sparse 4-label 3-ary draws -- each with
three seeded renamings, 2,340 problems in all.  Every problem contributes
the line ``f"{key}|{sorted(forward.items())}"``; each base's four lines are
pinned by a short digest, and all lines together by one SHA-256, against
the committed fixture ``tests/data/canonical_golden.json``.

The fixture is regenerated on purpose only::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest -q tests/test_canonical_golden.py

A regeneration must come with an explanation of *why* the keys moved.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Iterator, Tuple

from repro.core.problem import LCLProblem
from repro.engine import canonical_form
from repro.problems import catalog, coloring, hard_problem, maximal_independent_set, pi_k
from repro.problems.pools import distinct_forms
from repro.problems.random_problems import random_problem
from test_canonical import renamings

GOLDEN_PATH = Path(__file__).parent / "data" / "canonical_golden.json"

RENAMINGS = 3
RANDOM_SEEDS = range(300)


def _bases() -> Iterator[Tuple[str, LCLProblem]]:
    """The pinned bases, in a fixed order."""
    for name, (problem, _expected) in catalog().items():
        yield f"catalog/{name}", problem
    for colors in range(2, 7):
        yield f"coloring/{colors}", coloring(colors)
    for colors in range(2, 6):
        yield f"coloring_delta3/{colors}", coloring(colors, delta=3)
    for k in range(1, 6):
        yield f"pi_k/{k}", pi_k(k)
    yield "mis_delta3", maximal_independent_set(3)
    yield "hard_problem/5", hard_problem(5)
    yield "hard_problem/13", hard_problem(13)
    for index, form in enumerate(distinct_forms(256)):
        yield f"distinct_forms/{index}", form.problem
    for seed in RANDOM_SEEDS:
        yield f"labels4_delta3_density0.15/{seed}", random_problem(
            4, delta=3, density=0.15, seed=seed
        )


def compute_pin() -> dict:
    """The full canonical-key pin (deterministic: every seed is fixed).

    Each row is the digest prefix of its base's lines: the base, then its
    renamings.
    """
    overall = hashlib.sha256()
    rows = {}
    problems = 0
    for name, base in _bases():
        lines = []
        for problem in [base] + renamings(base, RENAMINGS, seed=len(base.labels)):
            form = canonical_form(problem)
            lines.append(f"{form.key}|{sorted(form.forward.items())}\n")
        text = "".join(lines).encode("utf-8")
        overall.update(text)
        rows[name] = hashlib.sha256(text).hexdigest()[:16]
        problems += len(lines)
    return {
        "schema": "repro.canonical_golden/1",
        "bases": len(rows),
        "problems": problems,
        "rows": rows,
        "digest": overall.hexdigest(),
    }


def test_canonical_keys_match_committed_golden():
    pin = compute_pin()
    if os.environ.get("REPRO_UPDATE_GOLDEN") == "1":  # pragma: no cover
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(pin, indent=1, sort_keys=True) + "\n")
    golden = json.loads(GOLDEN_PATH.read_text())

    # Row by row first: a digest mismatch alone is undebuggable.
    mismatched = [
        name for name, row in golden["rows"].items() if pin["rows"].get(name) != row
    ]
    assert mismatched == []
    assert pin["rows"].keys() == golden["rows"].keys()
    assert (pin["bases"], pin["problems"]) == (golden["bases"], golden["problems"])
    assert pin["digest"] == golden["digest"]
