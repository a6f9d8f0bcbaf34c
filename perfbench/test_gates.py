"""Planted faults: every gate of the benchmark must be able to fail.

Faults go in through the public ``repro.resilience.faults`` API, and
each must be caught:

* a ``stall`` on the ``estimate`` scope pushes the served tail latency
  past its bound and lowers the highest rate that meets the limit;
* a ``raise`` on the ``estimate`` scope makes jobs fail, so
  ``fail_ratio`` rises above zero;
* a ``corrupt`` on the thread-pool scope is quarantined by the parallel
  executor and shows as a degraded run, which the kernel workload
  counts as a failure.

The program catches the values its faults corrupt, so the benchmark's
own value checks are shown to fail on wrong values planted past the
program: a kernel reference, a served value and a figure digest that
differ from what the program gives, each counted as a violation.

Run with ``python -m pytest perfbench/test_gates.py`` (about two
minutes on two cores).
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

common.add_source_path()

import kernel  # noqa: E402
import run  # noqa: E402
import serving  # noqa: E402
import sweep  # noqa: E402
import numpy as np  # noqa: E402
from repro.resilience.faults import FaultPlan, FaultSpec, inject_faults  # noqa: E402

SEED = 3
ALWAYS = 10**9


def serve_run(plan: FaultPlan | None = None) -> dict:
    cfg = common.config()["serve"]
    if plan is None:
        return serving.run(SEED, 0, False, cfg)
    with inject_faults(plan):
        return serving.run(SEED, 0, False, cfg)


def fail_ratio(result: dict) -> float:
    return len(result["failures"]) / result["attempted"]


@pytest.fixture(scope="module")
def baseline() -> dict:
    result = serve_run()
    assert result["failures"] == []
    return result


def test_stall_breaks_the_latency_gates(baseline):
    bound = common.declared_metrics()["end_to_end"]["tail_ms"]["bound"]
    stalled = serve_run(FaultPlan([
        FaultSpec("estimate", "stall", count=ALWAYS, stall_s=0.1)]))
    assert (stalled["end_to_end"]["tail_ms"]
            > baseline["end_to_end"]["tail_ms"] * (1 + bound))
    assert (stalled["detail"]["serve.max_rate_hz"]
            < baseline["detail"]["serve.max_rate_hz"])


def test_raise_shows_in_fail_ratio(baseline):
    assert fail_ratio(baseline) == 0
    failing = serve_run(FaultPlan([FaultSpec("estimate", "raise", count=ALWAYS)]))
    assert fail_ratio(failing) > 0
    assert any("nominal rate" in f for f in failing["failures"])


def small_kernel_cfg() -> dict:
    cfg = dict(common.config()["kernel"])
    cfg["levels"] = {"n16": {"domain": [32, 32, 32], "box": 16}}
    cfg["variants"] = {"series": "Baseline: P>=Box"}
    return cfg


def test_corrupt_is_caught_by_the_kernel_checks():
    cfg = small_kernel_cfg()
    with inject_faults(FaultPlan([FaultSpec("pool", "corrupt", count=1)])):
        result = kernel.run(SEED, 0, False, cfg)
    assert result["detail"]["parallel.degraded_runs"] == 1
    assert fail_ratio(result) > 0

    clean = kernel.run(SEED, 0, False, cfg)
    assert clean["failures"] == []


def test_kernel_output_unlike_the_reference_is_a_violation(monkeypatch):
    import repro.exemplar

    real = repro.exemplar.reference_on_level

    def off_by_one_ulp(phi0):
        out = real(phi0).to_global_array()
        out.flat[0] = np.nextafter(out.flat[0], np.inf)
        return SimpleNamespace(to_global_array=lambda: out)

    monkeypatch.setattr(repro.exemplar, "reference_on_level", off_by_one_ulp)
    result = kernel.run(SEED, 0, False, small_kernel_cfg())
    assert set(result["failures"]) == {
        "series n16 1t differs from reference",
        "series n16 2t differs from reference",
    }
    out = run.report("kernel", SEED, False, result)
    assert not out["correct"] and out["failed"] == 2


def served(status: str, value, cached: bool = False):
    point = dataclasses.replace(sweep.design_space()[0], engine="estimate")
    job = serving.Job("estimate", point, 0.0)
    job.outcome = SimpleNamespace(status=status, value=value, cached=cached,
                                  degraded_to=None)
    return job


@pytest.mark.parametrize("status,cached", [
    ("ok", False), ("ok", True), ("coalesced", False)])
def test_served_value_unlike_direct_evaluate_is_a_violation(status, cached):
    point = dataclasses.replace(sweep.design_space()[0], engine="estimate")
    direct = point.evaluate(engine="estimate")
    failures: list[str] = []
    serving._check_values([served(status, direct, cached)], failures)
    assert failures == []

    wrong = dataclasses.replace(
        direct, time_s=float(np.nextafter(direct.time_s, np.inf)))
    serving._check_values([served(status, wrong, cached)], failures)
    assert failures == ["served estimate value differs from direct evaluate"]


def test_figure_unlike_its_digest_is_a_violation():
    import io
    from contextlib import redirect_stdout

    from repro.bench.__main__ import main as bench_main

    buf = io.StringIO()
    with redirect_stdout(buf):
        bench_main(["fig2"])
    digests = dict(common.config()["model_sweep"]["figure_digests"])
    assert sweep.figure_failure("fig2", buf.getvalue(), digests) is None
    digests["fig2"] = "0" * 64
    assert "fig2" in sweep.figure_failure("fig2", buf.getvalue(), digests)
