"""The perf gates' bounds, checked on synthetic readings (no timing).

``benchmarks/bench_gates.py`` is a script, not a package module, so it is
loaded by path.  Each bound passes at its edge and fails just past it, and a
broken bound in one gate never hides one in another.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "benchmarks" / "bench_gates.py"
COMMITTED = json.loads((ROOT / "BENCH_gates.json").read_text())


@pytest.fixture(scope="module")
def gates():
    spec = importlib.util.spec_from_file_location("bench_gates", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def reading(speedup=150.0, overhead=0.0, scaling=1.0, advantage=500.0):
    """A measured report in the shape ``measure`` returns, every bound met."""
    return {
        "certsearch": {"hard_problem": {"5": {"speedup": speedup}}},
        "obs": {"overhead_pct": {"obs_on": overhead, "traced": 15.0}},
        "cache": {"sqlite_scaling": scaling, "sqlite_advantage": advantage},
    }


def committed_with(speedup):
    return {**COMMITTED, "certsearch": {"hard_problem": {"5": {"speedup": speedup}}}}


def failures(results):
    return {name: len(broken) for name, (_reading, broken) in results.items()}


PASSING = {"certsearch": 0, "obs": 0, "cache": 0}


def test_committed_figures_are_the_gates_baseline():
    assert COMMITTED["schema"] == "repro.gates/1"
    assert COMMITTED["certsearch"]["hard_problem"]["5"]["speedup"] == 112.28
    assert COMMITTED["obs"]["overhead_pct"]["obs_on"] == 2.83


@pytest.mark.parametrize(
    "committed, measured, broken",
    [
        # The 10x acceptance floor, where 20% under the committed figure is lower.
        (10.0, reading(speedup=10.0), None),
        (10.0, reading(speedup=9.99), "certsearch"),
        # 0.8 x the committed 112.28x, i.e. 89.8x.
        (112.28, reading(speedup=0.8 * 112.28), None),
        (112.28, reading(speedup=89.82), "certsearch"),
        # obs_on at most 5% over obs_off.
        (112.28, reading(overhead=5.0), None),
        (112.28, reading(overhead=5.01), "obs"),
        # sqlite 5000/500 at most 3x.
        (112.28, reading(scaling=3.0), None),
        (112.28, reading(scaling=3.001), "cache"),
        # json/sqlite at 5000 entries at least 2x.
        (112.28, reading(advantage=2.0), None),
        (112.28, reading(advantage=1.999), "cache"),
    ],
)
def test_each_bound_holds_at_its_edge_and_breaks_past_it(
    gates, committed, measured, broken
):
    expected = dict(PASSING)
    if broken is not None:
        expected[broken] = 1
    assert failures(gates.check(committed_with(committed), measured)) == expected


def test_a_broken_bound_hides_no_other(gates):
    one_each = reading(speedup=50.0, advantage=1.0)
    assert failures(gates.check(COMMITTED, one_each)) == {
        "certsearch": 1, "obs": 0, "cache": 1
    }
    every_bound = reading(speedup=5.0, overhead=9.0, scaling=4.0, advantage=1.0)
    assert failures(gates.check(COMMITTED, every_bound)) == {
        "certsearch": 2, "obs": 1, "cache": 2
    }


def test_gate_rejects_another_schema_before_measuring(tmp_path):
    path = tmp_path / "old-schema.json"
    path.write_text(json.dumps({"schema": "repro.certsearch/1"}))
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--gate", str(path)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2, done.stderr
    assert done.stdout == ""
    # Measuring prints each section to stderr; nothing was measured.
    assert "certsearch:" not in done.stderr
    assert "repro.gates/1" in done.stderr
