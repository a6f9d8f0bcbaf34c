"""Phase-structure subtleties: repetition sharing, memoization, timing."""

import pytest

from repro.analysis.traffic import TrafficModel
from repro.machine import SANDY_BRIDGE, build_workload, estimate_workload
from repro.machine.workload import Phase, WorkItem
from repro.schedules import Variant

VARIANTS = [
    Variant("series", "P>=Box"),
    Variant("series", "P<Box"),
    Variant("shift_fuse", "P<Box", "CLI"),
    Variant("blocked_wavefront", "P<Box", "CLO", tile_size=8),
    Variant("overlapped", "P>=Box", "CLO", tile_size=8, intra_tile="basic"),
]


class TestCycleSharing:
    def test_boxes_share_phase_objects(self):
        # P<Box boxes repeat one shared cycle of Phase objects; the
        # expanded list holds references, not per-box copies.
        wl = build_workload(Variant("series", "P<Box", "CLO"), 16, (32, 32, 32))
        assert wl.phases[0] is wl.phases[1]
        (cycle, repeat), = wl.phase_runs()
        assert repeat == wl.num_boxes == 8
        assert wl.phases == list(cycle) * repeat

    def test_hand_built_workload_is_single_run(self):
        from repro.machine import Workload

        wl = Workload(Variant("series"), 16, 1, 5, 3)
        p = Phase("p")
        p.add(WorkItem("i", 1.0, TrafficModel(8.0)), 4)
        wl.phases = [p, p]
        assert wl.phase_runs() == [((p, p), 1)]


class TestMemoization:
    def test_repeated_phases_get_identical_times(self):
        wl = build_workload(Variant("series", "P<Box", "CLO"), 16, (32, 32, 32))
        r = estimate_workload(wl, SANDY_BRIDGE, 4)
        # 8 per-box phases, all structurally identical.
        assert len(set(round(t, 15) for t in r.phase_times)) == 1

    def test_memo_matches_unmemoized_total(self):
        # Total time equals per-phase time x phase count.
        wl = build_workload(Variant("series", "P<Box", "CLO"), 16, (32, 32, 32))
        r = estimate_workload(wl, SANDY_BRIDGE, 4)
        assert r.time_s == pytest.approx(r.phase_times[0] * len(wl.phases), rel=1e-12)

    def test_wavefront_phase_cycle(self):
        v = Variant("blocked_wavefront", "P<Box", "CLO", tile_size=8)
        wl = build_workload(v, 16, (32, 32, 32))
        r = estimate_workload(wl, SANDY_BRIDGE, 4)
        # Per box: wavefronts of width 1,3,3,1 -> a repeating 4-phase
        # time pattern across the 8 boxes.
        first_box = r.phase_times[:4]
        for b in range(1, 8):
            assert r.phase_times[4 * b: 4 * b + 4] == pytest.approx(first_box)


class TestPhaseAccounting:
    def test_workload_width_and_items(self):
        v = Variant("overlapped", "P<Box", "CLO", tile_size=8, intra_tile="basic")
        wl = build_workload(v, 16, (32, 32, 32))
        assert wl.max_phase_width() == 8
        assert wl.total_items() == 8 * 8

    def test_flops_positive_every_phase(self):
        wl = build_workload(Variant("shift_fuse", "P<Box", "CLI"), 16, (32, 32, 32))
        assert all(p.total_flops() > 0 for p in wl.phases)


class TestCompressedReplay:
    def test_phase_runs_compression_matches_phases(self):
        for v in VARIANTS:
            wl = build_workload(v, 16, (64, 64, 64))
            expanded = []
            for cycle, repeat in wl.phase_runs():
                expanded.extend(list(cycle) * repeat)
            assert expanded == wl.phases

    def test_estimate_scales_with_distinct_phases_not_boxes(self):
        # 4096 boxes replay one cached per-box cycle: phase_times has
        # one entry per expanded phase but only one distinct value.
        wl = build_workload(Variant("series", "P<Box"), 16, (256, 256, 256))
        r = estimate_workload(wl, SANDY_BRIDGE, 4)
        assert len(r.phase_times) == len(wl.phases) == 4096
        assert len(set(r.phase_times)) == 1
        assert r.time_s == pytest.approx(
            r.phase_times[0] * 4096, rel=1e-9
        )
