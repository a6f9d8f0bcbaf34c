"""Chaos soak: the four serving invariants under seeded mixed faults."""

import json
import os
import subprocess
import sys

import pytest

from repro.serve.chaos import run_overload_soak, run_soak

INVARIANTS = (
    "no_hung_threads",
    "queue_bound_held",
    "accounting_exact",
    "breakers_reclosed",
)


@pytest.mark.parametrize("seed", [2014, 5])
def test_soak_invariants_hold(seed):
    report = run_soak(seed, duration_cases=40)
    assert report.ok, report.violations
    for name in INVARIANTS:
        assert report.invariants[name], name
    counts = report.stats["counts"]
    total = (
        counts["ok"] + counts["shed"] + counts["degraded"] + counts["failed"]
        + counts["coalesced"]
    )
    assert total == counts["submitted"]


def test_soak_exercises_worker_replacement():
    # The schedule pins a stall (4x the hang budget) on the first point
    # job, so every seed forces at least one abandonment + replacement.
    report = run_soak(11, duration_cases=30)
    assert report.ok, report.violations
    assert report.stats["workers"]["replaced"] >= 1


def test_soak_report_round_trips():
    report = run_soak(3, duration_cases=20)
    d = report.to_dict()
    assert d["seed"] == 3 and d["ok"] is report.ok
    assert set(d["invariants"]) == set(INVARIANTS)
    json.dumps(d, default=str)  # artifact-serializable


PROCESS_INVARIANTS = INVARIANTS + (
    "no_orphaned_leases",
    "wal_replay_consistent",
)


@pytest.mark.parametrize("seed", [2014, 7])
def test_process_chaos_invariants_hold(seed, tmp_path):
    report = run_soak(
        seed, duration_cases=40, shards=2, kill_rate=0.15,
        wal_path=str(tmp_path / f"soak{seed}.wal"),
    )
    assert report.ok, report.violations
    for name in PROCESS_INVARIANTS:
        assert report.invariants[name], name
    # The kill schedule must actually bite: shards died and were
    # replaced, their leases orphaned and closed.
    sh = report.stats["shards"]
    assert sh["restarts_total"] >= 1
    assert sh["leases"]["orphaned"] >= 1
    assert report.stats["wal"]["open_leases"] == 0


def test_process_chaos_cli(tmp_path):
    out = str(tmp_path / "metrics.json")
    wal = str(tmp_path / "soak.wal")
    env = {**os.environ, "PYTHONPATH": "src"}
    env.pop("REPRO_FAULT_SEED", None)
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro.serve.chaos",
            "--seed", "2014", "--duration-cases", "30",
            "--shards", "2", "--kill-rate", "0.15", "--wal", wal,
            "--metrics-out", out,
        ],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "invariant no_orphaned_leases: PASS" in proc.stdout
    assert "invariant wal_replay_consistent: PASS" in proc.stdout
    assert os.path.exists(wal)
    with open(out) as fh:
        payload = json.load(fh)
    assert payload["report"]["ok"] is True


OVERLOAD_INVARIANTS = (
    "no_hung_threads",
    "queue_bound_held",
    "accounting_exact",
    "goodput_floor",
    "amplification_bounded",
    "limiter_recovered",
)


@pytest.mark.parametrize("seed", [2014, 7])
def test_overload_soak_invariants_hold(seed):
    report = run_overload_soak(seed, duration_cases=60)
    assert report.ok, report.violations
    for name in OVERLOAD_INVARIANTS:
        assert report.invariants[name], name
    ov = report.stats["overload"]
    # The soak genuinely overloads: offered rate ~2x measured capacity,
    # and the service still clears the goodput floor.
    assert ov["offered_per_s"] > ov["capacity_per_s"] * 1.5
    assert ov["goodput_ratio"] >= 0.7
    assert ov["pre_storm_limit"] >= 2
    assert ov["recovered_limit"] >= 0.9 * ov["pre_storm_limit"]


def test_overload_soak_storm_actually_bites():
    report = run_overload_soak(2014, duration_cases=60)
    stats = report.stats
    # The retry storm spent or denied budget tokens, and the limiter
    # reacted to the latency injection.
    budgets = stats["adaptive"]["retry_budgets"]
    assert any(b["spent"] or b["denied"] for b in budgets.values())
    assert stats["adaptive"]["limiter"]["backoffs"] >= 1


def test_overload_soak_report_round_trips():
    report = run_overload_soak(3, duration_cases=60)
    d = report.to_dict()
    assert d["seed"] == 3 and d["ok"] is report.ok
    assert set(OVERLOAD_INVARIANTS) <= set(d["invariants"])
    json.dumps(d, default=str)  # artifact-serializable


def test_overload_cli_writes_metrics_artifact(tmp_path):
    out = str(tmp_path / "overload_metrics.json")
    env = {**os.environ, "PYTHONPATH": "src"}
    env.pop("REPRO_FAULT_SEED", None)
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro.serve.chaos",
            "--overload", "--seed", "2014", "--duration-cases", "60",
            "--metrics-out", out,
        ],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "invariant goodput_floor: PASS" in proc.stdout
    assert "invariant amplification_bounded: PASS" in proc.stdout
    assert "invariant limiter_recovered: PASS" in proc.stdout
    with open(out) as fh:
        payload = json.load(fh)
    assert payload["report"]["ok"] is True


def test_chaos_cli_writes_metrics_artifact(tmp_path):
    out = str(tmp_path / "chaos_metrics.json")
    env = {**os.environ, "PYTHONPATH": "src"}
    env.pop("REPRO_FAULT_SEED", None)
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro.serve.chaos",
            "--seed", "2014", "--duration-cases", "25",
            "--metrics-out", out,
        ],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "invariant accounting_exact: PASS" in proc.stdout
    with open(out) as fh:
        payload = json.load(fh)
    assert payload["report"]["ok"] is True
    assert "counters" in payload["metrics"] or payload["metrics"]
