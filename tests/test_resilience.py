"""Resilience layer: fault injection, retry, journal resume, watchdog.

The fault-injection matrix (raise/stall/corrupt x pool task/grid
point), journal resume equivalence, and watchdog quarantine demanded
by the robustness contract: every recovery path is exercised through a
deterministic seeded fault plan.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.bench.runner import GridPoint, GridResult, run_grid
from repro.machine.simulator import SimResult
from repro.machine.spec import IVY_DESKTOP
from repro.resilience import faults
from repro.resilience.faults import (
    FaultInjected,
    FaultPlan,
    FaultSpec,
    RandomFaultPlan,
    inject_faults,
)
from repro.resilience.journal import (
    AppendLog,
    GridJournal,
    grid_hash,
    point_key,
    read_log,
    sim_result_from_dict,
    sim_result_to_dict,
)
from repro.resilience.retry import (
    RetryExhausted,
    RetryPolicy,
    TaskFailure,
    call_with_retry,
)
from repro.resilience.watchdog import is_finite_result, verify_variants_bitwise
from repro.schedules import Variant
from repro.serve import MemoStore
from repro.serve.shards import WAL_FSYNC, WAL_HEADER, replay_wal_state

DOMAIN = (32, 32, 32)


def small_grid(n_threads=(1, 2, 4), boxes=(16, 32)) -> list[GridPoint]:
    return [
        GridPoint(Variant("series"), IVY_DESKTOP, t, b, DOMAIN)
        for t in n_threads
        for b in boxes
    ]


def results_equal(a, b) -> bool:
    """Bitwise equality of two SimResult lists (exact float compare)."""
    if len(a) != len(b):
        return False
    return all(
        ra is not None
        and rb is not None
        and sim_result_to_dict(ra) == sim_result_to_dict(rb)
        for ra, rb in zip(a, b)
    )


# ------------------------------------------------------------------ faults
class TestFaultPlan:
    def test_spec_budget_is_consumed(self):
        plan = FaultPlan([FaultSpec("grid", "raise", index=3, count=2)])
        assert plan.take("grid", 3).mode == "raise"
        assert plan.take("grid", 3).mode == "raise"
        assert plan.take("grid", 3) is None

    def test_addressing_by_index_and_label(self):
        plan = FaultPlan([FaultSpec("pool", "stall", index=1, label="box0")])
        assert plan.take("pool", 1, "other-group") is None
        assert plan.take("grid", 1, "box0-tiles") is None
        assert plan.take("pool", 2, "box0-tiles") is None
        assert plan.take("pool", 1, "box0-tiles").mode == "stall"

    def test_mode_filter(self):
        plan = FaultPlan([FaultSpec("grid", "corrupt", index=0)])
        assert plan.take("grid", 0, modes=("raise", "stall")) is None
        assert plan.take("grid", 0, modes=("corrupt",)).mode == "corrupt"

    def test_random_plan_is_deterministic(self):
        a = RandomFaultPlan(seed=7, rate=0.5)
        b = RandomFaultPlan(seed=7, rate=0.5)
        decisions_a = [a.take("grid", i) is not None for i in range(50)]
        decisions_b = [b.take("grid", i) is not None for i in range(50)]
        assert decisions_a == decisions_b
        assert any(decisions_a) and not all(decisions_a)

    def test_random_plan_fires_once_per_site(self):
        plan = RandomFaultPlan(seed=1, rate=1.0)
        assert plan.take("pool", 5, "g") is not None
        assert plan.take("pool", 5, "g") is None

    def test_inject_faults_restores_previous(self):
        # Neutralize any ambient plan (e.g. REPRO_FAULT_SEED bootstrap)
        # so we observe the context manager's own save/restore.
        prior = faults.active_plan()
        faults.set_fault_plan(None)
        try:
            assert not faults.plan_active()
            with inject_faults(FaultPlan()):
                assert faults.plan_active()
                with inject_faults(
                    FaultPlan([FaultSpec("grid", "raise")])
                ) as inner:
                    assert faults.active_plan() is inner
                assert faults.plan_active()
            assert not faults.plan_active()
        finally:
            faults.set_fault_plan(prior)

    def test_perturb_raises_before_any_work(self):
        with inject_faults(FaultPlan([FaultSpec("grid", "raise", index=0)])):
            with pytest.raises(FaultInjected):
                faults.perturb("grid", 0)
            faults.perturb("grid", 0)  # budget spent: clean now

    def test_env_bootstrap(self):
        out = subprocess.run(
            [sys.executable, "-c",
             "from repro.resilience import faults; print(faults.plan_active())"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": "src", "REPRO_FAULT_SEED": "42"},
        )
        assert out.stdout.strip() == "True"


# ------------------------------------------------------------------- retry
class TestRetry:
    def test_backoff_is_deterministic_and_bounded(self):
        p = RetryPolicy(base_delay_s=0.01, max_delay_s=0.1, jitter=0.5)
        delays = [p.delay_s(a, salt=9) for a in range(8)]
        assert delays == [p.delay_s(a, salt=9) for a in range(8)]
        assert all(0 < d <= 0.1 * 1.25 for d in delays)
        assert delays[1] > delays[0] * 1.2  # roughly exponential

    def test_call_with_retry_recovers(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise ValueError("transient")
            return "ok"

        result, failures = call_with_retry(
            flaky, RetryPolicy(max_attempts=3), sleep=lambda d: None
        )
        assert result == "ok"
        assert len(failures) == 2 and all(f.recovered for f in failures)

    def test_retry_exhausted(self):
        def broken():
            raise ValueError("permanent")

        with pytest.raises(RetryExhausted) as e:
            call_with_retry(
                broken, RetryPolicy(max_attempts=2), sleep=lambda d: None
            )
        assert len(e.value.failures) == 2
        assert not e.value.failures[-1].recovered

    def test_backoff_never_sleeps_past_the_deadline(self):
        """Regression: a backoff the deadline cannot cover fails fast.

        Before the fix, a 10s backoff was slept in full even with 1s of
        deadline budget left — the retry then died to the deadline
        *after* burning the wall time.  Now the call fails immediately
        with a final ``"deadline"`` failure and never sleeps.
        """
        slept = []
        now = [100.0]

        def broken():
            raise ValueError("permanent")

        policy = RetryPolicy(
            max_attempts=4, base_delay_s=10.0, max_delay_s=10.0, jitter=0.0
        )
        with pytest.raises(RetryExhausted) as e:
            call_with_retry(
                broken, policy, sleep=slept.append,
                deadline_at=now[0] + 1.0, clock=lambda: now[0],
            )
        assert slept == []  # the losing backoff was never slept
        trail = e.value.failures
        assert trail[-1].kind == "deadline"
        assert "cannot fit" in trail[-1].error
        assert trail[-2].kind == "exception"  # the real attempt is kept

    def test_backoff_that_fits_the_deadline_still_sleeps(self):
        slept = []
        now = [0.0]
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 2:
                raise ValueError("transient")
            return "ok"

        policy = RetryPolicy(
            max_attempts=3, base_delay_s=0.01, max_delay_s=0.01, jitter=0.0
        )
        result, failures = call_with_retry(
            flaky, policy, sleep=slept.append,
            deadline_at=now[0] + 60.0, clock=lambda: now[0],
        )
        assert result == "ok"
        assert slept == [0.01]

    def test_retry_budget_denial_has_distinct_kind(self):
        from repro.resilience.retry import RETRY_BUDGET_KIND
        from repro.serve import RetryBudget

        budget = RetryBudget(ratio=0.0)

        def broken():
            raise ValueError("permanent")

        with pytest.raises(RetryExhausted) as e:
            call_with_retry(
                broken, RetryPolicy(max_attempts=3), sleep=lambda d: None,
                budget=budget,
            )
        trail = e.value.failures
        assert trail[-1].kind == RETRY_BUDGET_KIND
        assert budget.units == 1 and budget.denied == 1 and budget.spent == 0

    def test_retry_budget_funds_retries_when_banked(self):
        from repro.serve import RetryBudget

        budget = RetryBudget(ratio=1.0)
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 2:
                raise ValueError("transient")
            return "ok"

        result, failures = call_with_retry(
            flaky, RetryPolicy(max_attempts=3), sleep=lambda d: None,
            budget=budget,
        )
        assert result == "ok"
        assert budget.spent == 1
        assert budget.amplification_bound_ok()


# ---------------------------------------------------- grid fault matrix
class TestGridFaults:
    def test_transient_raise_recovers_bitwise(self):
        points = small_grid()
        clean = run_grid(points)
        plan = FaultPlan([FaultSpec("grid", "raise", index=2, count=1)])
        with inject_faults(plan):
            r = run_grid(points)
        assert results_equal(r, clean)
        assert any(f.kind == "injected" and f.recovered for f in r.failures)

    def test_permanent_raise_yields_partial_with_manifest(self):
        points = small_grid()
        plan = FaultPlan([FaultSpec("grid", "raise", index=1, count=10**6)])
        with inject_faults(plan):
            r = run_grid(points)
        assert r[1] is None
        assert all(r[i] is not None for i in range(len(points)) if i != 1)
        m = r.manifest()
        assert m["completed"] == len(points) - 1
        perm = [f for f in r.failures if not f.recovered]
        assert perm and perm[-1].index == 1 and perm[-1].kind == "injected"

    def test_stall_with_deadline_times_out_then_recovers(self):
        points = small_grid(n_threads=(1, 2), boxes=(16,))
        clean = run_grid(points)
        plan = FaultPlan(
            [FaultSpec("grid", "stall", index=0, count=1, stall_s=0.5)]
        )
        policy = RetryPolicy(max_attempts=2, deadline_s=0.08, base_delay_s=0.001)
        with inject_faults(plan):
            # Deadlines need the pooled path; force fan-out (the
            # container may have a single CPU).
            r = run_grid(points, max_workers=2, policy=policy)
        assert results_equal(r, clean)
        assert any(f.kind == "timeout" and f.recovered for f in r.failures)

    def test_corrupt_quarantined_by_watchdog(self):
        points = small_grid()
        clean = run_grid(points)
        plan = FaultPlan([FaultSpec("grid", "corrupt", index=3, count=1)])
        with inject_faults(plan):
            r = run_grid(points)
        assert results_equal(r, clean)
        recovered = [f for f in r.failures if f.kind == "nonfinite"]
        assert recovered and recovered[0].recovered
        assert recovered[0].degraded_to == "serial"

    def test_simulate_engine_degrades_to_estimator(self):
        points = [
            GridPoint(Variant("series"), IVY_DESKTOP, 2, 16, DOMAIN,
                      engine="simulate")
        ]
        plan = FaultPlan(
            [FaultSpec("simulate", "raise", count=10**6)]
        )
        policy = RetryPolicy(max_attempts=2, base_delay_s=0.001)
        with inject_faults(plan):
            r = run_grid(points, policy=policy)
        assert r[0] is not None and is_finite_result(r[0])
        assert any(f.degraded_to == "estimate" for f in r.failures)
        # The degraded result is the estimator's answer.
        estimate = points[0].evaluate(engine="estimate")
        assert sim_result_to_dict(r[0]) == sim_result_to_dict(estimate)

    def test_happy_path_returns_plain_gridresult(self):
        r = run_grid(small_grid(n_threads=(1,), boxes=(16,)))
        assert isinstance(r, GridResult)
        assert r.ok and not r.failures and r.journal_hits == 0


# ----------------------------------------------------------------- journal
class TestJournal:
    def test_sim_result_roundtrip_bitwise(self):
        r = small_grid(n_threads=(2,), boxes=(16,))[0].evaluate()
        d = json.loads(json.dumps(sim_result_to_dict(r)))
        rt = sim_result_from_dict(d)
        assert sim_result_to_dict(rt) == sim_result_to_dict(r)
        assert rt.time_s == r.time_s  # exact, not approx

    def test_point_key_and_grid_hash_are_content_keys(self):
        a = small_grid()
        b = small_grid()
        assert [point_key(p) for p in a] == [point_key(p) for p in b]
        assert grid_hash(a) == grid_hash(b)
        assert grid_hash(a) != grid_hash(list(reversed(a)))

    def test_journal_replays_only_exact_slots(self, tmp_path):
        points = small_grid()
        path = str(tmp_path / "j.jsonl")
        with GridJournal(path) as j:
            first = run_grid(points, journal=j)
            assert j.written == len(points) and j.hits == 0
        with GridJournal(path, resume=True) as j2:
            second = run_grid(points, journal=j2)
            assert j2.hits == len(points) and j2.written == 0
        assert results_equal(first, second)
        assert second.journal_hits == len(points)

    def test_journal_ignores_truncated_tail(self, tmp_path):
        points = small_grid()
        path = str(tmp_path / "j.jsonl")
        with GridJournal(path) as j:
            run_grid(points, journal=j)
        with open(path, "a") as fh:
            fh.write('{"grid": "partial-wri')  # the crash mid-append
        with GridJournal(path, resume=True) as j2:
            r = run_grid(points, journal=j2)
        assert all(x is not None for x in r)

    def test_interrupted_then_resumed_equals_uninjected(self, tmp_path):
        """The acceptance scenario: a fault plan kills 10% of grid
        points; run_grid completes with a manifest; a --resume re-run
        without faults converges to the bitwise-identical full result."""
        points = small_grid(n_threads=(1, 2, 4), boxes=(8, 16, 32))  # 9 pts
        clean = run_grid(points)
        path = str(tmp_path / "sweep.jsonl")
        kill = FaultPlan(
            [FaultSpec("grid", "raise", index=4, count=10**6)]
        )
        with GridJournal(path) as j:
            with inject_faults(kill):
                partial = run_grid(points, journal=j)
        assert partial[4] is None
        assert sum(1 for r in partial if r is not None) == len(points) - 1
        assert any(not f.recovered for f in partial.failures)
        # Resume: journaled points replay, only the remainder computes.
        with GridJournal(path, resume=True) as j2:
            resumed = run_grid(points, journal=j2)
            assert j2.hits == len(points) - 1
            assert j2.written == 1
        assert results_equal(resumed, clean)


# ---------------------------------------------------------------- watchdog
class TestWatchdog:
    def test_is_finite_result(self):
        r = small_grid(n_threads=(1,), boxes=(16,))[0].evaluate()
        assert is_finite_result(r)
        r.time_s = float("nan")
        assert not is_finite_result(r)
        r.time_s = 1.0
        r.phase_times[0] = float("inf")
        assert not is_finite_result(r)

    def test_cross_variant_bitwise_clean(self):
        from repro.exemplar import ExemplarProblem

        phi0 = ExemplarProblem(domain_cells=(16, 16, 16), box_size=8).make_phi0()
        report = verify_variants_bitwise(
            [
                Variant("series", "P>=Box", "CLO"),
                Variant("shift_fuse", "P<Box", "CLO"),
            ],
            phi0,
            threads=2,
        )
        assert report.clean
        assert not report.divergent
        assert len(report.checked) == 2

    def test_divergent_variant_quarantined_and_recovered(self):
        from repro.exemplar import ExemplarProblem

        phi0 = ExemplarProblem(domain_cells=(16, 16, 16), box_size=8).make_phi0()
        v = Variant("series", "P>=Box", "CLO")
        # Corrupt the threaded run's output; the serial quarantine
        # re-run is clean (budget of 1), so the watchdog must recover.
        plan = FaultPlan([FaultSpec("pool", "corrupt", count=1)])
        with inject_faults(plan):
            report = verify_variants_bitwise([v], phi0, threads=2)
        assert report.divergent == [v.short_name]
        assert report.recovered == [v.short_name]
        assert report.clean  # recovered => clean

    def test_taskfailure_to_dict(self):
        f = TaskFailure("grid", 3, "k", "timeout", error="x", recovered=True)
        d = f.to_dict()
        assert d["scope"] == "grid" and d["kind"] == "timeout" and d["recovered"]


class TestJournalCorruptRecords:
    """Regression: corrupt journal records must be skipped, never fatal.

    A crash mid-append (or a hand-edited file) can leave records that
    parse as JSON but are structurally broken; resume used to raise
    KeyError on a record carrying "grid" and "r" but no "i"."""

    def _write_journal(self, path, lines):
        with open(path, "w") as fh:
            fh.write('{"kind": "header", "version": 1}\n')
            for line in lines:
                fh.write(line + "\n")

    def test_record_missing_index_is_skipped(self, tmp_path):
        points = small_grid()
        r = points[0].evaluate()
        path = str(tmp_path / "j.jsonl")
        self._write_journal(
            path,
            [json.dumps({"grid": grid_hash(points), "key": point_key(points[0]), "r": sim_result_to_dict(r)})],
        )
        with GridJournal(path, resume=True) as j:  # KeyError pre-fix
            assert len(j) == 0
            out = run_grid(points, journal=j)
        assert all(x is not None for x in out)

    def test_record_with_bad_index_is_skipped(self, tmp_path):
        points = small_grid()
        r = sim_result_to_dict(points[0].evaluate())
        path = str(tmp_path / "j.jsonl")
        self._write_journal(
            path,
            [json.dumps({"grid": grid_hash(points), "i": "zero-ish", "key": point_key(points[0]), "r": r})],
        )
        with GridJournal(path, resume=True) as j:
            assert len(j) == 0

    def test_payload_missing_simresult_fields_is_skipped(self, tmp_path):
        points = small_grid()
        good = sim_result_to_dict(points[0].evaluate())
        ghash = grid_hash(points)
        key = point_key(points[0])
        bad_payloads = [
            {k: v for k, v in good.items() if k != "time_s"},  # missing field
            {**good, "time_s": "fast"},  # non-numeric
            {**good, "phase_times": "not-a-list"},
            {**good, "phase_times": [1.0, "x"]},
            "not-a-dict",
        ]
        path = str(tmp_path / "j.jsonl")
        self._write_journal(
            path,
            [
                json.dumps({"grid": ghash, "i": i, "key": key, "r": p})
                for i, p in enumerate(bad_payloads)
            ],
        )
        with GridJournal(path, resume=True) as j:
            assert len(j) == 0
            assert j.lookup(ghash, 0, key) is None

    def test_unhashable_grid_is_skipped_and_counted(self, tmp_path):
        points = small_grid()
        r = sim_result_to_dict(points[0].evaluate())
        path = str(tmp_path / "j.jsonl")
        self._write_journal(
            path,
            [
                json.dumps({"grid": ["x"], "i": 0, "key": "k", "r": r}),
                json.dumps({"grid": "g", "i": 0, "key": ["k"], "r": r}),
                json.dumps({"grid": "g", "i": 1, "key": "k", "r": r}),
            ],
        )
        with GridJournal(path, resume=True) as j:  # TypeError pre-fix
            assert len(j) == 1 and j.skipped_records == 2
            assert j.lookup("g", 1, "k") is not None

    def test_valid_records_survive_surrounding_corruption(self, tmp_path):
        points = small_grid()
        clean = run_grid(points)
        path = str(tmp_path / "j.jsonl")
        with GridJournal(path) as j:
            run_grid(points, journal=j)
        # Splice corrupt records *between* the valid ones.
        with open(path) as fh:
            lines = [ln for ln in fh.read().splitlines() if ln]
        lines.insert(1, json.dumps({"grid": "g", "r": {}}))
        lines.insert(3, '{"grid": "trunc')
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with GridJournal(path, resume=True) as j2:
            resumed = run_grid(points, journal=j2)
            assert j2.hits == len(points) and j2.written == 0
        assert results_equal(resumed, clean)


class TestClassifyFailure:
    def test_kind_map(self):
        import concurrent.futures

        from repro.resilience.retry import (
            CorruptionError,
            DeadlineExceeded,
            classify_failure,
        )

        assert classify_failure(FaultInjected("grid", 0)) == "injected"
        assert classify_failure(DeadlineExceeded("over budget", 0.5)) == "deadline"
        assert classify_failure(TimeoutError("slow")) == "timeout"
        assert classify_failure(
            concurrent.futures.CancelledError()
        ) == "cancelled"
        assert classify_failure(CorruptionError("nan")) == "corruption"
        assert classify_failure(ValueError("boom")) == "exception"
        assert classify_failure(RuntimeError("boom")) == "exception"

    def test_deadline_still_caught_as_timeout(self):
        # DeadlineExceeded subclasses TimeoutError so pre-existing
        # handlers keep working; only the classification is finer.
        from repro.resilience.retry import DeadlineExceeded

        with pytest.raises(TimeoutError):
            raise DeadlineExceeded("x")

    def test_private_alias_stable(self):
        from repro.resilience.retry import _classify, classify_failure

        assert _classify is classify_failure

    def test_retry_records_carry_new_kinds(self):
        from repro.resilience.retry import CorruptionError

        def poisoned():
            raise CorruptionError("nan payload")

        with pytest.raises(RetryExhausted) as ei:
            call_with_retry(
                poisoned,
                RetryPolicy(max_attempts=2, base_delay_s=0.0, jitter=0.0),
                sleep=lambda _s: None,
            )
        assert [f.kind for f in ei.value.failures] == [
            "corruption", "corruption",
        ]


class TestHeartbeat:
    def test_busy_tracking_with_injected_clock(self):
        from repro.resilience.watchdog import Heartbeat

        now = [100.0]
        hb = Heartbeat("w0", clock=lambda: now[0])
        assert hb.busy_for() is None
        hb.start("job-a")
        now[0] = 100.25
        assert hb.busy_for() == pytest.approx(0.25)
        assert hb.task_label == "job-a"
        hb.beat()
        hb.clear()
        assert hb.busy_for() is None
        assert hb.tasks_started == 1

    def test_monitor_finds_hung_tasks(self):
        from repro.resilience.watchdog import HeartbeatMonitor

        now = [0.0]
        mon = HeartbeatMonitor(clock=lambda: now[0])
        fast = mon.register("fast")
        slow = mon.register("slow")
        fast.start("quick")
        slow.start("wedged")
        now[0] = 0.05
        fast.clear()
        now[0] = 1.0
        hung = mon.hung(timeout_s=0.5)
        assert [hb.name for hb, _busy in hung] == ["slow"]
        assert hung[0][1] == pytest.approx(1.0)

    def test_monitor_register_rejects_duplicates(self):
        from repro.resilience.watchdog import HeartbeatMonitor

        mon = HeartbeatMonitor()
        mon.register("w")
        with pytest.raises(ValueError):
            mon.register("w")
        mon.unregister("w")
        mon.register("w")
        assert len(mon) == 1


class TestConcurrentJournalWriters:
    def test_two_instances_interleave_whole_lines(self, tmp_path):
        import threading

        path = str(tmp_path / "shared.jsonl")
        j1 = GridJournal(path)
        j2 = GridJournal(path, resume=True)

        def result(i):
            return SimResult(
                machine="m", variant="v", threads=1, time_s=float(i),
                flops=1.0, dram_bytes=1.0, phase_times=[float(i)],
            )

        def writer(j, ghash, count):
            for i in range(count):
                j.record(ghash, i, f"k{i}", result(i))

        threads = [
            threading.Thread(target=writer, args=(j1, "gridA", 50)),
            threading.Thread(target=writer, args=(j2, "gridB", 50)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        j1.close()
        j2.close()
        # Every line is whole, valid JSON — no interleaved fragments.
        with open(path) as fh:
            lines = [ln for ln in fh.read().splitlines() if ln]
        records = [json.loads(ln) for ln in lines]
        data = [r for r in records if "grid" in r]
        assert len(data) == 100
        # And a resumed reader sees every record from both writers.
        with GridJournal(path, resume=True) as j3:
            assert len(j3) == 100
            assert j3.lookup("gridA", 7, "k7").time_s == 7.0
            assert j3.lookup("gridB", 3, "k3").time_s == 3.0

    def test_same_path_instances_share_one_lock(self, tmp_path):
        from repro.resilience.journal import _path_lock

        path = tmp_path / "same.jsonl"
        assert _path_lock(str(path)) is _path_lock(str(path))

# ------------------------------------------------------------- WAL journal
def wal_log(path, resume=False):
    return AppendLog(path, WAL_HEADER, resume=resume, fsync=WAL_FSYNC)


class TestWALJournal:
    """The WAL record schema over AppendLog."""

    def test_commit_replay_resume_roundtrip(self, tmp_path):
        path = str(tmp_path / "w.wal")
        records = [
            {"op": "lease", "lid": "l0", "seq": 0},
            {"op": "release", "lid": "l0"},
            {"op": "settle", "seq": 0, "status": "ok"},
        ]
        with wal_log(path) as w:
            for rec in records:
                w.append(rec)
            assert w.records == []  # a fresh log found nothing on open
        assert read_log(path, WAL_HEADER) == records
        with wal_log(path, resume=True) as w2:
            assert w2.records == records
            assert w2.recovered_bytes == 0
            assert w2.skipped_records == 0

    def test_commits_are_byte_stable(self, tmp_path):
        # Same logical records, different dict insertion order: the
        # sorted-keys discipline makes the logs byte-for-byte identical,
        # which is what lets replay comparisons be exact.
        a, b = str(tmp_path / "a.wal"), str(tmp_path / "b.wal")
        with wal_log(a) as w:
            w.append({"op": "lease", "lid": "l0", "seq": 4})
        with wal_log(b) as w:
            w.append({"seq": 4, "lid": "l0", "op": "lease"})
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()

    def test_open_without_resume_truncates(self, tmp_path):
        path = str(tmp_path / "w.wal")
        with wal_log(path) as w:
            w.append({"op": "lease", "lid": "l0"})
        with wal_log(path) as w2:  # resume=False: fresh log
            assert w2.records == []
        with wal_log(path, resume=True) as w3:
            assert w3.records == []

    def test_interior_corruption_skipped_and_counted(self, tmp_path):
        path = str(tmp_path / "w.wal")
        with wal_log(path) as w:
            w.append({"op": "lease", "lid": "l0"})
            w.append({"op": "release", "lid": "l0"})
        with open(path) as fh:
            lines = fh.read().splitlines()
        lines.insert(2, "{torn-interior-garbage")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with wal_log(path, resume=True) as w2:
            assert w2.records == [
                {"op": "lease", "lid": "l0"},
                {"op": "release", "lid": "l0"},
            ]
            assert w2.skipped_records == 1


def sim(i: int) -> SimResult:
    return SimResult(
        machine="m", variant="v", threads=1, time_s=float(i),
        flops=1.0, dram_bytes=1.0, phase_times=[float(i)],
    )


#: One record schema each over AppendLog, as ``(open, write, present)``:
#: open a store (fresh or resumed), write record ``i``, and whether
#: record ``i`` is live in an opened store.
SCHEMAS = {
    "grid": (
        lambda path, resume: GridJournal(path, resume=resume),
        lambda j, i: j.record("g", i, f"k{i}", sim(i)),
        lambda j, i: j.lookup("g", i, f"k{i}") is not None,
    ),
    "wal": (
        wal_log,
        lambda w, i: w.append({"op": "lease", "lid": f"l{i}", "seq": i}),
        lambda w, i: {"op": "lease", "lid": f"l{i}", "seq": i} in w.records,
    ),
    "memo": (
        lambda path, resume: MemoStore(path, resume=resume),
        lambda m, i: m.put(f"k{i}", "estimate", sim(i)),
        lambda m, i: f"k{i}" in m,
    ),
}


class TestTailCorruptionByteByByte:
    """Crash-consistency sweep over every tail byte.

    A crash mid-append can stop the write after *any* byte of the final
    record; whatever the cut or corruption point, resume must (a) never
    raise, (b) keep every fully committed prefix record, and (c) leave
    the file appendable.  Every record schema shares one AppendLog, so
    each sweep runs over all three."""

    def _pristine(self, tmp_path, schema):
        open_, write, _ = SCHEMAS[schema]
        base = str(tmp_path / "base.log")
        with open_(base, False) as store:
            write(store, 0)
            write(store, 1)
        with open(base, "rb") as fh:
            lines = fh.read().splitlines(keepends=True)
        return b"".join(lines[:-1]), lines[-1]

    def _check_resumes(self, path, schema, recovered):
        open_, write, present = SCHEMAS[schema]
        with open_(path, True) as store:
            assert present(store, 0) and not present(store, 1)
            assert store.recovered_bytes == recovered
            write(store, 2)
        with open_(path, True) as store:
            assert [i for i in range(3) if present(store, i)] == [0, 2]

    @pytest.mark.parametrize("schema", sorted(SCHEMAS))
    def test_truncated_at_every_byte(self, tmp_path, schema):
        prefix, final = self._pristine(tmp_path, schema)
        path = str(tmp_path / "cut.log")
        for cut in range(len(final)):
            with open(path, "wb") as fh:
                fh.write(prefix + final[:cut])
            self._check_resumes(path, schema, recovered=cut)

    @pytest.mark.parametrize("schema", sorted(SCHEMAS))
    def test_corrupted_at_every_byte(self, tmp_path, schema):
        prefix, final = self._pristine(tmp_path, schema)
        path = str(tmp_path / "corrupt.log")
        for i in range(len(final)):
            with open(path, "wb") as fh:
                fh.write(prefix + final[:i] + b"\x00" + final[i + 1:])
            # The corrupt final record is dropped whole; the prefix survives.
            self._check_resumes(path, schema, recovered=len(final))


class TestEarlierFormatFixtures:
    """Log files as the earlier per-store writers produced them, byte for
    byte: a grid journal whose result payloads keep SimResult field
    order (unsorted keys), a WAL and a memo log.  They must resume to
    the same entries and state, and the WAL and memo writers must still
    produce these exact bytes for the same record sequence."""

    GRID = (
        '{"kind": "header", "version": 1}\n'
        '{"grid": "g0", "i": 0, "key": "k0", "r": {"machine": "m", '
        '"variant": "v", "threads": 1, "time_s": 0.5, "flops": 1.0, '
        '"dram_bytes": 2.0, "phase_times": [0.0]}}\n'
        '{"grid": "g0", "i": 1, "key": "k1", "r": {"machine": "m", '
        '"variant": "v", "threads": 1, "time_s": 1.5, "flops": 1.0, '
        '"dram_bytes": 2.0, "phase_times": [1.0]}}\n'
        '{"grid": "g0", "i": 0, "key": "k0b", "r": {"machine": "m", '
        '"variant": "v", "threads": 1, "time_s": 2.5, "flops": 1.0, '
        '"dram_bytes": 2.0, "phase_times": [2.0]}}\n'
    )
    WAL_RECORDS = [
        {"op": "spawn", "shard": "s0", "pid": 7},
        {"op": "lease", "lid": "l0", "seq": 0, "shard": "s0", "site": "a"},
        {"op": "lease", "lid": "l1", "seq": 1, "shard": "s0", "site": "b"},
        {"op": "release", "lid": "l0"},
        {"op": "settle", "seq": 0, "status": "ok", "reason": "",
         "degraded_to": None},
    ]
    WAL = (
        '{"kind": "wal-header", "version": 1}\n'
        '{"op": "spawn", "pid": 7, "shard": "s0"}\n'
        '{"lid": "l0", "op": "lease", "seq": 0, "shard": "s0", "site": "a"}\n'
        '{"lid": "l1", "op": "lease", "seq": 1, "shard": "s0", "site": "b"}\n'
        '{"lid": "l0", "op": "release"}\n'
        '{"degraded_to": null, "op": "settle", "reason": "", "seq": 0, '
        '"status": "ok"}\n'
    )
    MEMO = (
        '{"kind": "memo-header", "version": 1}\n'
        '{"k": "k1", "kind": "estimate", "op": "put", "v": {"sim": '
        '{"dram_bytes": 2.0, "flops": 1.0, "machine": "m", "phase_times": '
        '[1.0], "threads": 1, "time_s": 1.5, "variant": "v"}}}\n'
        '{"k": "k2", "kind": "estimate", "op": "put", "v": {"sim": '
        '{"dram_bytes": 2.0, "flops": 1.0, "machine": "m", "phase_times": '
        '[2.0], "threads": 1, "time_s": 2.5, "variant": "v"}}}\n'
        '{"k": "k1", "op": "evict"}\n'
        '{"k": "v1", "kind": "verify", "op": "put", "v": {"messages": '
        '["msg"]}}\n'
    )

    @staticmethod
    def result(i: int) -> SimResult:
        return SimResult(
            machine="m", variant="v", threads=1, time_s=i + 0.5,
            flops=1.0, dram_bytes=2.0, phase_times=[float(i)],
        )

    def _write(self, tmp_path, name, text):
        path = str(tmp_path / name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def test_grid_journal_resumes(self, tmp_path):
        path = self._write(tmp_path, "g.jsonl", self.GRID)
        with GridJournal(path, resume=True) as j:
            assert len(j) == 2 and j.skipped_records == 0
            assert j.lookup("g0", 0, "k0") is None  # superseded by k0b
            for i, key, r in ((0, "k0b", 2), (1, "k1", 1)):
                got = j.lookup("g0", i, key)
                assert sim_result_to_dict(got) == sim_result_to_dict(
                    self.result(r)
                )

    def test_wal_resumes_and_writes_identical_bytes(self, tmp_path):
        path = self._write(tmp_path, "w.wal", self.WAL)
        with wal_log(path, resume=True) as w:
            assert w.records == self.WAL_RECORDS
        state = replay_wal_state(path)
        assert set(state["open_leases"]) == {"l1"}
        assert state["settled"] == {
            "0": {"status": "ok", "reason": "", "degraded_to": None},
        }
        assert state["counts"]["skipped"] == 0
        fresh = str(tmp_path / "fresh.wal")
        with wal_log(fresh) as w:
            for rec in self.WAL_RECORDS:
                w.append(rec)
        with open(fresh, encoding="utf-8") as fh:
            assert fh.read() == self.WAL

    def test_memo_resumes_and_writes_identical_bytes(self, tmp_path):
        path = self._write(tmp_path, "m.jsonl", self.MEMO)
        with MemoStore(path, resume=True) as m:
            assert len(m) == 2 and m.skipped_records == 0
            assert "k1" not in m and m.get("v1") == ["msg"]
            assert sim_result_to_dict(m.get("k2")) == sim_result_to_dict(
                self.result(2)
            )
        fresh = str(tmp_path / "fresh.jsonl")
        with MemoStore(fresh, resume=False) as m:
            m.put("k1", "estimate", self.result(1))
            m.limit_bytes = int(m.current_bytes * 1.5)
            m.put("k2", "estimate", self.result(2))  # evicts k1
            m.put("v1", "verify", ["msg"])
        with open(fresh, encoding="utf-8") as fh:
            assert fh.read() == self.MEMO


# ------------------------------------------------- process failure kinds
class TestClassifyProcessFailures:
    def test_process_kind_map(self):
        from concurrent.futures.process import BrokenProcessPool

        from repro.resilience.retry import (
            PROCESS_FAILURE_KINDS,
            RemoteTaskError,
            WorkerLost,
            classify_failure,
        )

        assert classify_failure(WorkerLost("gone", signal=9)) == "signal_exit"
        assert classify_failure(WorkerLost("gone")) == "worker_lost"
        assert classify_failure(BrokenProcessPool("broke")) == "worker_lost"
        assert set(PROCESS_FAILURE_KINDS) == {"worker_lost", "signal_exit"}

    def test_remote_error_carries_child_classification(self):
        from repro.resilience.retry import RemoteTaskError, classify_failure

        # The child classifies its own exception; the parent must not
        # re-classify the wrapper as a generic "exception".
        assert classify_failure(
            RemoteTaskError("corruption", "CorruptionError('nan')")
        ) == "corruption"
        assert classify_failure(
            RemoteTaskError("exception", "ValueError('boom')")
        ) == "exception"

    def test_lease_unavailable_is_a_process_failure(self):
        from repro.resilience.retry import (
            PROCESS_FAILURE_KINDS,
            classify_failure,
        )
        from repro.serve.shards import LeaseUnavailable

        assert classify_failure(LeaseUnavailable("none")) in (
            PROCESS_FAILURE_KINDS
        )

    def test_worker_lost_attrs(self):
        from repro.resilience.retry import WorkerLost

        exc = WorkerLost("s3 died", shard="s3", signal=9, exitcode=-9)
        assert exc.shard == "s3"
        assert exc.signal == 9 and exc.exitcode == -9

    def test_take_kill_budget_consumed(self):
        plan = FaultPlan([FaultSpec("shard", "kill", label="x", count=1)])
        with inject_faults(plan):
            assert faults.take_kill("shard", 0, "x-site")
            assert not faults.take_kill("shard", 0, "x-site")  # spent
            assert not faults.take_kill("shard", 0, "other")
