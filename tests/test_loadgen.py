"""Tests for the load-generation harness (`repro.loadgen`).

Covers the three layers — workload models (determinism, arrival processes,
Zipf skew, adversarial injection), the driver (open/closed loop, error
attribution), and the SLO report (schema, exact percentiles, verdicts) —
plus the CLI wiring and the scheduler-facing soak/regression tests that
ride on loadgen bursts.
"""

import json

import pytest

from repro.api import SessionError, connect
from repro.api.outcome import summarize_outcomes
from repro.cli import SLO_EXIT_CODE, main
from repro.loadgen import (
    LoadDriver,
    SLOSpec,
    WorkloadSpec,
    build_report,
    build_workload,
    stream_digest,
    summarize_report,
)
from repro.loadgen.driver import RequestRecord, RunResult
from repro.loadgen.report import SCHEMA
from repro.problems import hard_problem


def _quick_spec(**overrides):
    """A sub-second spec for unit tests (tiny pool, modest rate)."""
    defaults = dict(
        name="zipf", seed=1, duration=0.5, rate=30, pool_size=8, zipf_s=1.2
    )
    defaults.update(overrides)
    return WorkloadSpec(**defaults)


# ----------------------------------------------------------------------
# Workload models
# ----------------------------------------------------------------------
class TestWorkloadModels:
    def test_plan_is_deterministic(self):
        first = _quick_spec(seed=7).plan()
        second = _quick_spec(seed=7).plan()
        assert [r.stream_line() for r in first] == [r.stream_line() for r in second]
        assert stream_digest(first) == stream_digest(second)

    def test_different_seeds_differ(self):
        assert stream_digest(_quick_spec(seed=1).plan()) != stream_digest(
            _quick_spec(seed=2).plan()
        )

    def test_poisson_offsets_are_sorted_within_duration(self):
        plan = _quick_spec(arrival="poisson", duration=2.0).plan()
        offsets = [r.offset for r in plan]
        assert offsets == sorted(offsets)
        assert all(0 < offset <= 2.0 for offset in offsets)

    def test_uniform_arrivals_use_fixed_cadence(self):
        plan = _quick_spec(arrival="uniform", rate=10, duration=1.0).plan()
        assert len(plan) == 10
        gaps = {
            round(b.offset - a.offset, 6) for a, b in zip(plan, plan[1:])
        }
        assert gaps == {0.1}

    def test_burst_arrivals_group_back_to_back(self):
        plan = _quick_spec(
            arrival="burst", rate=20, burst_size=5, duration=1.0
        ).plan()
        offsets = [r.offset for r in plan]
        assert offsets.count(0.0) == 5  # the first whole burst lands at once

    def test_zipf_skew_prefers_low_ranks(self):
        spec = _quick_spec(zipf_s=1.5, duration=5.0, rate=40)
        plan = spec.plan()
        counts = {}
        for request in plan:
            counts[request.key] = counts.get(request.key, 0) + 1
        top_key = max(counts, key=counts.get)
        assert top_key == spec.pool()[0][0]  # rank 0 is the most popular

    def test_priority_mix_and_deadlines_are_applied(self):
        spec = _quick_spec(
            duration=3.0,
            mix={"interactive": 1.0},
            deadlines={"interactive": 2.5},
        )
        plan = spec.plan()
        assert {r.priority for r in plan} == {"interactive"}
        assert {r.deadline for r in plan} == {2.5}

    def test_adversarial_injection(self):
        spec = _quick_spec(adversarial_rate=1.0, adversarial_pairs=0)
        plan = spec.plan()
        assert all(r.adversarial for r in plan)
        assert all(r.priority == "interactive" for r in plan)
        assert {r.deadline for r in plan} == {spec.adversarial_deadline}
        assert {r.key for r in plan} == {"adversarial:adversarial-0-pairs"}

    def test_plan_never_empty(self):
        assert len(_quick_spec(duration=0.001, rate=1).plan()) == 1

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(duration=0),
            dict(rate=0),
            dict(pool_size=0),
            dict(zipf_s=-1),
            dict(arrival="tidal"),
            dict(burst_size=0),
            dict(adversarial_rate=1.5),
            dict(mix={}),
            dict(mix={"urgent": 1.0}),
            dict(mix={"interactive": -1.0}),
            dict(deadlines={"urgent": 1.0}),
        ],
    )
    def test_bad_specs_raise(self, overrides):
        with pytest.raises(ValueError):
            _quick_spec(**overrides)

    def test_build_workload_registry_and_overrides(self):
        spec = build_workload("uniform", seed=3, duration=2.0, rate=12.5)
        assert (spec.name, spec.arrival, spec.zipf_s) == ("uniform", "uniform", 0.0)
        assert spec.rate == 12.5
        # None overrides fall through to the model's own defaults.
        assert build_workload("zipf", seed=0, duration=1.0, rate=None).rate == 40.0
        with pytest.raises(ValueError):
            build_workload("tsunami", seed=0, duration=1.0)

    def test_pool_problems_have_stable_names_and_distinct_keys(self):
        pool = _quick_spec(pool_size=6).pool()
        assert len({key for key, _ in pool}) == 6
        assert [problem.name for _, problem in pool] == [
            f"pool-{index}" for index in range(6)
        ]


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
class TestLoadDriver:
    def test_closed_loop_records_every_request(self):
        plan = _quick_spec(duration=1.0).plan()
        with connect("local://threads?workers=2") as session:
            result = LoadDriver([session], mode="closed", concurrency=4).run(plan)
        assert len(result.records) == len(plan)
        assert all(r.outcome == "ok" for r in result.records)
        assert all(r.latency_ms >= 0 for r in result.records)
        # Duplicate-heavy stream: the engine amortized most of the work.
        assert sum(1 for r in result.records if r.from_cache) > 0
        assert result.stats and "workers" in result.stats[0]

    def test_open_loop_paces_to_arrival_offsets(self):
        plan = _quick_spec(duration=0.4, rate=25).plan()
        with connect("local://inline") as session:
            result = LoadDriver([session], mode="open").run(plan)
        assert result.wall_seconds >= max(r.offset for r in plan)
        assert all(r.outcome == "ok" for r in result.records)
        # Each request was issued no earlier than its planned offset.
        for request, record in zip(plan, result.records):
            assert record.started_at >= request.offset - 0.01

    def test_requests_round_robin_across_sessions(self):
        plan = _quick_spec(duration=0.5).plan()
        with connect("local://inline") as first, connect("local://inline") as second:
            result = LoadDriver([first, second], mode="closed").run(plan)
        assert {r.session_index for r in result.records} == {0, 1}
        assert len(result.stats) == 2

    def test_session_errors_are_recorded_not_raised(self):
        class ExplodingSession:
            def submit(self, problem, priority=None, deadline=None):
                raise SessionError("boom", code="internal")

            def stats(self):
                return {}

        plan = _quick_spec(duration=0.2, rate=10).plan()
        result = LoadDriver([ExplodingSession()], mode="closed").run(plan)
        assert all(r.outcome == "error" for r in result.records)
        assert {r.error_code for r in result.records} == {"internal"}

    def test_driver_validates_arguments(self):
        with connect("local://inline") as session:
            with pytest.raises(ValueError):
                LoadDriver([], mode="closed")
            with pytest.raises(ValueError):
                LoadDriver([session], mode="sideways")
            with pytest.raises(ValueError):
                LoadDriver([session], concurrency=0)
            with pytest.raises(ValueError):
                LoadDriver([session], max_in_flight=0)

    def test_deadline_timeouts_surface_as_timeout_outcomes(self):
        spec = _quick_spec(
            duration=0.2,
            rate=10,
            adversarial_rate=1.0,
            adversarial_pairs=12,  # minutes of search, far over the deadline
            adversarial_deadline=0.1,
        )
        plan = spec.plan()[:2]
        with connect("local://threads?workers=2") as session:
            result = LoadDriver([session], mode="closed").run(plan)
        assert {r.outcome for r in result.records} == {"timeout"}


# ----------------------------------------------------------------------
# SLO specs
# ----------------------------------------------------------------------
class TestSLOSpec:
    def test_known_objectives_validate(self):
        SLOSpec.from_dict(
            {
                "p99_interactive_ms": 100,
                "p50_ms": 10,
                "p90_all_ms": 50,
                "max_timeout_rate": 0.01,
                "min_throughput_rps": 5,
                "min_dedup_ratio": 0.5,
            }
        )

    @pytest.mark.parametrize(
        "payload",
        [
            {"p99_urgent_ms": 10},  # unknown class
            {"p75_ms": 10},  # unsupported quantile
            {"max_typo_rate": 0.1},  # unknown objective
            {"p99_ms": "fast"},  # non-numeric
            {"p99_ms": True},  # bool is not a number here
            {"max_timeout_rate": 1.5},  # rates live in [0, 1]
            {"p99_ms": -1},  # negative threshold
        ],
    )
    def test_bad_specs_raise(self, payload):
        with pytest.raises(ValueError):
            SLOSpec.from_dict(payload)

    def test_from_file_round_trip(self, tmp_path):
        path = tmp_path / "slo.json"
        path.write_text('{"p99_ms": 250, "max_error_rate": 0}')
        spec = SLOSpec.from_file(str(path))
        assert spec.as_dict() == {"p99_ms": 250, "max_error_rate": 0}
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ValueError):
            SLOSpec.from_file(str(bad))

    def test_evaluate_against_a_real_run(self):
        plan = _quick_spec(duration=0.5).plan()
        with connect("local://inline") as session:
            result = LoadDriver([session], mode="closed").run(plan)
        report = build_report("local://inline", _quick_spec(duration=0.5), plan, result)
        assert SLOSpec.from_dict({"p99_ms": 60000}).evaluate(report) == []
        violations = SLOSpec.from_dict(
            {"p99_ms": 0.000001, "min_throughput_rps": 10**9}
        ).evaluate(report)
        assert len(violations) == 2

    def test_missing_observations_are_violations(self):
        spec = _quick_spec(duration=0.3, mix={"interactive": 1.0})
        plan = spec.plan()
        with connect("local://inline") as session:
            result = LoadDriver([session], mode="closed").run(plan)
        report = build_report("local://inline", spec, plan, result)
        # The stream carried no batch traffic, so a batch guarantee is
        # unmeasured — which must fail loudly, not pass silently.
        violations = SLOSpec.from_dict({"p99_batch_ms": 1000}).evaluate(report)
        assert violations and "no observations" in violations[0]


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
def _synthetic_result(latencies_ms, outcome="ok"):
    records = [
        RequestRecord(
            index=i,
            key=f"k{i}",
            priority="interactive",
            deadline=None,
            offset=0.0,
            adversarial=False,
            latency_ms=ms,
            outcome=outcome,
            from_cache=False,
        )
        for i, ms in enumerate(latencies_ms)
    ]
    return RunResult(
        records=records,
        wall_seconds=1.0,
        mode="closed",
        concurrency=1,
        sessions=1,
        backpressure_stalls=0,
        stats=[{}],
    )


class TestReport:
    def test_schema_and_sections(self):
        spec = _quick_spec(duration=0.3)
        plan = spec.plan()
        with connect("local://inline") as session:
            result = LoadDriver([session], mode="closed").run(plan)
        report = build_report("local://inline", spec, plan, result)
        assert report["schema"] == SCHEMA
        assert set(report) >= {
            "endpoint",
            "workload",
            "stream",
            "run",
            "outcomes",
            "cache",
            "dedup",
            "deadlines",
            "latency_ms",
            "stats",
        }
        assert report["stream"]["digest"] == stream_digest(plan)
        assert report["outcomes"]["ok"] == len(plan)
        json.dumps(report)  # must be JSON-serializable as-is

    def test_percentiles_are_exact_nearest_rank(self):
        plan = _quick_spec(duration=0.3).plan()[:100]
        latencies = [float(i + 1) for i in range(100)]  # 1..100 ms
        result = _synthetic_result(latencies)
        report = build_report("x", _quick_spec(duration=0.3), plan, result)
        section = report["latency_ms"]["all"]
        assert section["p50"] == 50.0
        assert section["p90"] == 90.0
        assert section["p99"] == 99.0
        assert section["max"] == 100.0

    def test_deadline_miss_rate(self):
        spec = _quick_spec(duration=0.3)
        plan = spec.plan()[:4]
        result = _synthetic_result([1.0, 2.0, 3.0, 4.0])
        for record, deadline, outcome in zip(
            result.records, [0.1, 0.1, None, 0.1], ["timeout", "ok", "ok", "timeout"]
        ):
            record.deadline = deadline
            record.outcome = outcome
        report = build_report("x", spec, plan, result)
        assert report["deadlines"] == {
            "with_deadline": 3,
            "missed": 2,
            "miss_rate": pytest.approx(2 / 3),
        }

    def test_summary_renders_slo_verdicts(self):
        spec = _quick_spec(duration=0.3)
        plan = spec.plan()
        result = _synthetic_result([1.0] * len(plan))
        passing = build_report("x", spec, plan, result, SLOSpec.from_dict({"p99_ms": 10}))
        failing = build_report(
            "x", spec, plan, result, SLOSpec.from_dict({"p99_ms": 0.1})
        )
        assert "SLO: PASS" in summarize_report(passing)
        assert "SLO: FAIL" in summarize_report(failing)
        assert not failing["slo"]["passed"]


# ----------------------------------------------------------------------
# CLI wiring
# ----------------------------------------------------------------------
class TestLoadgenCLI:
    ARGS = [
        "loadgen",
        "local://threads?workers=2",
        "--workload",
        "zipf",
        "--duration",
        "0.5",
        "--seed",
        "7",
        "--mode",
        "closed",
    ]

    def test_report_file_and_loose_slo_exit_zero(self, tmp_path, capsys):
        slo = tmp_path / "slo.json"
        slo.write_text('{"p99_ms": 60000, "max_error_rate": 0}')
        report_path = tmp_path / "report.json"
        code = main(
            self.ARGS + ["--slo", str(slo), "--report", str(report_path), "--json"]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["schema"] == SCHEMA
        assert report["slo"]["passed"] is True
        stdout = json.loads(capsys.readouterr().out)
        assert stdout["stream"]["digest"] == report["stream"]["digest"]

    def test_same_seed_is_reproducible_through_the_cli(self, tmp_path):
        digests = []
        for run in range(2):
            report_path = tmp_path / f"run{run}.json"
            assert main(self.ARGS + ["--report", str(report_path)]) == 0
            report = json.loads(report_path.read_text())
            digests.append(report["stream"]["digest"])
            assert report["outcomes"]["error"] == 0
        assert digests[0] == digests[1]

    def test_impossible_slo_exits_nonzero(self, tmp_path, capsys):
        slo = tmp_path / "slo.json"
        slo.write_text('{"p99_ms": 0.000001}')
        code = main(self.ARGS + ["--slo", str(slo)])
        assert code == SLO_EXIT_CODE
        assert "slo violation" in capsys.readouterr().err

    def test_bad_slo_spec_is_a_cli_error(self, tmp_path, capsys):
        slo = tmp_path / "slo.json"
        slo.write_text('{"max_typo_rate": 0.1}')
        assert main(self.ARGS + ["--slo", str(slo)]) == 1
        assert "unknown SLO objective" in capsys.readouterr().err

    def test_bad_endpoint_is_a_cli_error(self, capsys):
        assert main(["loadgen", "gpu://fast", "--duration", "0.1"]) == 1
        assert "error:" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Soak: classify_many under duplicate-heavy loadgen streams
# ----------------------------------------------------------------------
class TestClassifyManySoak:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_stream_summary_denominator_invariant(self, seed):
        """hits + misses + interrupted == count, for every workload seed.

        The loadgen streams are duplicate-heavy by construction, which is
        exactly the regime where the PR 4 accounting bug class (duplicate
        hits counted against unresolved orbits) would break the denominator.
        """
        spec = _quick_spec(seed=seed, duration=1.0, rate=40, pool_size=6)
        problems = [request.problem for request in spec.plan()]
        with connect("local://threads?workers=3") as session:
            outcomes = list(session.classify_many(problems))
        summary = summarize_outcomes(outcomes)
        assert summary["count"] == len(problems)
        interrupted = summary["timeouts"] + summary["cancelled"]
        assert (
            summary["cache_hits"] + summary["cache_misses"] + interrupted
            == summary["count"]
        )
        assert interrupted == 0  # no deadlines in this stream

    def test_denominator_holds_with_interruptions(self):
        """The invariant survives a stream where some searches blow deadlines."""
        spec = _quick_spec(
            seed=5,
            duration=0.5,
            rate=30,
            adversarial_rate=0.5,
            adversarial_pairs=12,
            adversarial_deadline=0.15,
        )
        plan = spec.plan()
        assert any(r.adversarial for r in plan)
        with connect("local://threads?workers=2") as session:
            outcomes = [
                session.submit(
                    request.problem,
                    priority=request.priority,
                    deadline=request.deadline,
                ).result()
                for request in plan
            ]
        summary = summarize_outcomes(outcomes)
        interrupted = summary["timeouts"] + summary["cancelled"]
        assert interrupted >= 1  # the poison pills really timed out
        assert (
            summary["cache_hits"] + summary["cache_misses"] + interrupted
            == summary["count"]
        )


# ----------------------------------------------------------------------
# Regression: cancelled waiters during a burst never leak scheduler slots
# ----------------------------------------------------------------------
class TestSlotLeakRegression:
    def test_cancelled_waiter_during_burst_releases_all_slots(self):
        spec = _quick_spec(seed=9, arrival="burst", rate=40, duration=0.5)
        plan = spec.plan()
        with connect("local://threads?workers=2") as session:
            scheduler = session._driver.scheduler
            # Two slow poison pills with different keys hold both worker
            # slots, so the whole burst queues behind them; then they get
            # cancelled mid-flight.
            blockers = [
                session.submit(hard_problem(pairs), deadline=30) for pairs in (12, 11)
            ]
            pendings = [
                session.submit(request.problem, priority=request.priority)
                for request in plan
            ]
            cancelled = [pending.cancel() for pending in pendings[::3]]
            assert any(cancelled)  # some victims really were live
            for blocker in blockers:
                blocker.cancel()
            for pending in pendings:
                try:
                    pending.result(timeout=30)
                except SessionError:
                    pytest.fail("burst submissions must resolve, not error")
                except TimeoutError:
                    pytest.fail("burst submissions must resolve, not hang")
            assert scheduler.wait_idle(timeout=30)
            assert scheduler.slots_in_use == 0, "leaked a worker slot"
            assert scheduler.in_flight == 0
            stats = scheduler.stats
            assert stats.flights == (
                stats.completed + stats.failed + stats.cancelled + stats.timeouts
            )
            assert stats.failed == 0


# ----------------------------------------------------------------------
# Perf smoke (CI perf-smoke lane only: pytest -m perf)
# ----------------------------------------------------------------------
@pytest.mark.perf
def test_perf_smoke_ten_second_loadgen_against_threads(tmp_path):
    """The CI perf-smoke gate: 10 s of seeded zipf traffic, loose SLOs.

    Asserts the CLI contract end to end — exit 0 under a loose spec, a
    schema-valid JSON report, and a reproducible stream digest — with an
    open-loop run long enough to exercise pacing and backpressure.
    """
    slo = tmp_path / "slo.json"
    slo.write_text(
        json.dumps(
            {
                "p99_interactive_ms": 60000,
                "max_error_rate": 0.0,
                "max_timeout_rate": 0.1,
                "min_dedup_ratio": 0.3,
            }
        )
    )
    report_path = tmp_path / "report.json"
    code = main(
        [
            "loadgen",
            "local://threads?workers=4",
            "--workload",
            "zipf",
            "--duration",
            "10",
            "--seed",
            "7",
            "--slo",
            str(slo),
            "--report",
            str(report_path),
        ]
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["schema"] == SCHEMA
    assert report["slo"]["passed"] is True
    assert report["run"]["wall_seconds"] >= 9.0  # open loop really paced
    # The digest is the stream's identity: pinned for seed 7 so a committed
    # benchmark and any rerun provably measured the same traffic.
    assert report["stream"]["digest"] == stream_digest(
        build_workload("zipf", seed=7, duration=10.0).plan()
    )
