"""Tests of the execution simulators: physics bounds, engine agreement,
and the paper's qualitative scaling behaviour."""

import pytest

from repro.machine import (
    IVY_BRIDGE,
    MAGNY_COURS,
    SANDY_BRIDGE,
    build_workload,
    estimate_workload,
    min_time_bound,
    simulate_workload,
)
from repro.machine.simulator import clear_phase_cost_cache
from repro.obs import trace as _trace
from repro.schedules import Variant
from repro.util.arena import scratch_arena

SMALL_DOMAIN = (32, 32, 32)


def _wl(variant=None, box=16, domain=SMALL_DOMAIN):
    return build_workload(variant or Variant("series", "P>=Box", "CLO"), box, domain)


class TestPhysicsBounds:
    @pytest.mark.parametrize("threads", [1, 4, 16])
    @pytest.mark.parametrize("engine", ["estimate", "simulate"])
    def test_never_beats_roofline(self, threads, engine):
        wl = _wl()
        run = estimate_workload if engine == "estimate" else simulate_workload
        r = run(wl, SANDY_BRIDGE, threads)
        bound = min_time_bound(SANDY_BRIDGE, r.flops, r.dram_bytes, threads)
        assert r.time_s >= bound * 0.999

    def test_monotone_in_threads(self):
        wl = _wl()
        times = [
            estimate_workload(wl, SANDY_BRIDGE, t).time_s for t in (1, 2, 4, 8, 16)
        ]
        # Near-monotone: extra threads may only cost barrier overhead.
        assert all(b <= a * 1.02 for a, b in zip(times, times[1:]))

    def test_thread_limit_enforced(self):
        wl = _wl()
        with pytest.raises(ValueError):
            estimate_workload(wl, SANDY_BRIDGE, 17)
        with pytest.raises(ValueError):
            simulate_workload(wl, SANDY_BRIDGE, 17)

    def test_bandwidth_never_exceeds_machine(self):
        wl = _wl(Variant("series", "P>=Box", "CLO"), 32, (64, 64, 64))
        for t in (1, 8, 16):
            r = estimate_workload(wl, SANDY_BRIDGE, t)
            assert r.bandwidth_gbs <= SANDY_BRIDGE.effective_bw_gbs * 1.001


class TestEngineAgreement:
    @pytest.mark.parametrize(
        "variant",
        [
            Variant("series", "P>=Box", "CLO"),
            Variant("series", "P<Box", "CLI"),
            Variant("overlapped", "P<Box", "CLO", tile_size=8, intra_tile="basic"),
            Variant("blocked_wavefront", "P<Box", "CLO", tile_size=8),
        ],
        ids=lambda v: v.short_name,
    )
    @pytest.mark.parametrize("threads", [1, 3, 8])
    def test_estimate_matches_simulation(self, variant, threads):
        wl = _wl(variant)
        est = estimate_workload(wl, IVY_BRIDGE, threads)
        sim = simulate_workload(wl, IVY_BRIDGE, threads)
        assert est.time_s == pytest.approx(sim.time_s, rel=0.05)
        assert est.dram_bytes == pytest.approx(sim.dram_bytes, rel=1e-6)
        assert est.flops == pytest.approx(sim.flops, rel=1e-9)


class TestDeterminism:
    def test_bitwise_determinism_under_toggles(self):
        # Neither engine observes the scratch arena or tracing.  The
        # phase caches are dropped before every run so each toggle
        # recomputes rather than replaying a memoized phase time.
        wl = build_workload(Variant("series", "P<Box"), 16, (64, 64, 64))
        for run in (estimate_workload, simulate_workload):
            clear_phase_cost_cache()
            base = run(wl, IVY_BRIDGE, 8)
            clear_phase_cost_cache()
            with scratch_arena():
                arena_run = run(wl, IVY_BRIDGE, 8)
            clear_phase_cost_cache()
            with _trace.tracing():
                traced_run = run(wl, IVY_BRIDGE, 8)
            for other in (arena_run, traced_run):
                assert other.time_s == base.time_s
                assert other.flops == base.flops
                assert other.dram_bytes == base.dram_bytes
                assert other.phase_times == base.phase_times


class TestPaperShape:
    """Scaled-down versions of the headline figure claims."""

    def test_baseline_small_box_scales(self):
        wl = build_workload(Variant("series", "P>=Box", "CLO"), 16)
        t1 = estimate_workload(wl, MAGNY_COURS, 1).time_s
        t24 = estimate_workload(wl, MAGNY_COURS, 24).time_s
        assert t1 / t24 > 0.75 * 24

    def test_baseline_large_box_stalls(self):
        wl = build_workload(Variant("series", "P>=Box", "CLO"), 128)
        t1 = estimate_workload(wl, MAGNY_COURS, 1).time_s
        t24 = estimate_workload(wl, MAGNY_COURS, 24).time_s
        assert t1 / t24 < 8

    def test_ot_restores_large_box(self):
        base16 = build_workload(Variant("series", "P>=Box", "CLO"), 16)
        ot128 = build_workload(
            Variant("overlapped", "P<Box", "CLO", tile_size=8, intra_tile="shift_fuse"),
            128,
        )
        tb = estimate_workload(base16, MAGNY_COURS, 24).time_s
        to = estimate_workload(ot128, MAGNY_COURS, 24).time_s
        assert to <= 1.25 * tb

    def test_wavefront_fill_drain_penalty(self):
        # Wavefront tiles scale but pay the ramp: strictly slower than
        # the equivalent overlapped tiling at high thread counts.
        wf = build_workload(
            Variant("blocked_wavefront", "P<Box", "CLO", tile_size=16), 128
        )
        ot = build_workload(
            Variant("overlapped", "P<Box", "CLO", tile_size=16, intra_tile="shift_fuse"),
            128,
        )
        t_wf = estimate_workload(wf, MAGNY_COURS, 24).time_s
        t_ot = estimate_workload(ot, MAGNY_COURS, 24).time_s
        assert t_wf > 1.2 * t_ot

    def test_result_accessors(self):
        wl = _wl()
        r = estimate_workload(wl, SANDY_BRIDGE, 4)
        assert r.gflops > 0
        assert r.bandwidth_gbs > 0
        assert r.speedup_over(estimate_workload(wl, SANDY_BRIDGE, 1)) > 1.0
        assert len(r.phase_times) == len(wl.phases)


class TestSpeedupDegenerateCases:
    """Regression: speedup_over used to ZeroDivisionError on zero-time
    results; now every degenerate combination is defined, consistent
    with the gflops/bandwidth_gbs zero guards."""

    def _r(self, t):
        from repro.machine.simulator import SimResult

        return SimResult("m", "v", 1, t, 0.0, 0.0, [t])

    def test_normal_ratio(self):
        assert self._r(1.0).speedup_over(self._r(2.0)) == 2.0

    def test_zero_time_self_vs_nonzero(self):
        import math

        assert self._r(0.0).speedup_over(self._r(2.0)) == math.inf

    def test_nonzero_vs_zero_time_other(self):
        assert self._r(2.0).speedup_over(self._r(0.0)) == 0.0

    def test_both_zero_tie(self):
        assert self._r(0.0).speedup_over(self._r(0.0)) == 1.0

    def test_nan_propagates(self):
        import math

        nan = float("nan")
        assert math.isnan(self._r(nan).speedup_over(self._r(1.0)))
        assert math.isnan(self._r(1.0).speedup_over(self._r(nan)))
        assert math.isnan(self._r(nan).speedup_over(self._r(0.0)))

    def test_zero_time_accessors_stay_finite(self):
        r = self._r(0.0)
        assert r.gflops == 0.0
        assert r.bandwidth_gbs == 0.0
