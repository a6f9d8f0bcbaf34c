"""Tests of the distributed (MPI-everywhere) cluster model."""

import pytest

from repro.box import Box, ProblemDomain, decompose_domain
from repro.machine import MAGNY_COURS, SANDY_BRIDGE
from repro.cluster import (
    GEMINI,
    ClusterSpec,
    InterconnectSpec,
    step_cost,
)
from repro.schedules import Variant

DOMAIN = (64, 64, 64)


def cluster(nodes=4, machine=SANDY_BRIDGE):
    return ClusterSpec(machine, GEMINI, nodes)


class TestInterconnect:
    def test_transfer_time(self):
        ic = InterconnectSpec("x", bandwidth_gbs=10.0, latency_us=1.0)
        t = ic.transfer_seconds(10e9, 0)
        assert t == pytest.approx(1.0)
        assert ic.transfer_seconds(0, 1000) == pytest.approx(1e-3)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            GEMINI.transfer_seconds(-1, 0)

    def test_cluster_validation(self):
        with pytest.raises(ValueError):
            ClusterSpec(SANDY_BRIDGE, GEMINI, 0)


class TestBlockAssignment:
    def test_block_ranks_contiguous(self):
        domain = ProblemDomain(Box.cube(16, 3))
        lay = decompose_domain(domain, 4, num_ranks=4, rank_assignment="block")
        ranks = [lay.rank(i) for i in lay]
        assert ranks == sorted(ranks)
        assert lay.num_ranks() == 4

    def test_block_less_offrank_than_round_robin(self):
        from repro.box import ExchangeCopier

        # Slabs must be at least two boxes thick for block assignment
        # to have any on-rank face neighbours in the split direction.
        domain = ProblemDomain(Box.cube(32, 3))
        block = decompose_domain(domain, 4, num_ranks=4, rank_assignment="block")
        rr = decompose_domain(domain, 4, num_ranks=4, rank_assignment="round_robin")
        c_block = ExchangeCopier(block, 2)
        c_rr = ExchangeCopier(rr, 2)
        assert c_block.off_rank_points() < c_rr.off_rank_points()
        assert c_block.total_ghost_points() == c_rr.total_ghost_points()

    def test_unknown_assignment(self):
        domain = ProblemDomain(Box.cube(8, 3))
        with pytest.raises(ValueError):
            decompose_domain(domain, 4, num_ranks=2, rank_assignment="hash")


class TestStepCost:
    def test_decomposition_and_totals(self):
        c = step_cost(cluster(), Variant("series", "P>=Box", "CLO"), 16, DOMAIN)
        assert c.total_s == pytest.approx(c.compute_s + c.exchange_s)
        assert 0 < c.exchange_fraction < 1
        assert c.ghost_bytes_per_node > 0
        assert c.messages_per_node > 0

    def test_exchange_drops_with_box_size(self):
        v = Variant("series", "P>=Box", "CLO")
        ex = [
            step_cost(cluster(2), v, n, DOMAIN).exchange_s for n in (8, 16, 32)
        ]
        assert ex[0] > ex[1] > ex[2]

    def test_single_node_still_exchanges_nothing_offnode(self):
        v = Variant("series", "P>=Box", "CLO")
        c = step_cost(cluster(1), v, 16, DOMAIN)
        assert c.ghost_bytes_per_node == 0.0

    def test_best_end_to_end_is_large_box_with_ot(self):
        # The paper's full argument: with the right schedule, the
        # biggest box wins end-to-end (compute restored by overlapped
        # tiling, exchange volume cut by the larger box).
        base = Variant("series", "P>=Box", "CLO")
        ot = Variant(
            "overlapped", "P<Box", "CLO", tile_size=8, intra_tile="shift_fuse"
        )
        cl = cluster(2, MAGNY_COURS)
        big = (128, 128, 128)
        small_base = step_cost(cl, base, 16, big).total_s
        large_base = step_cost(cl, base, 64, big).total_s
        large_ot = step_cost(cl, ot, 64, big).total_s
        assert large_ot < large_base
        assert large_ot < small_base

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError):
            step_cost(cluster(3), Variant("series"), 16, DOMAIN)
        with pytest.raises(ValueError):
            step_cost(cluster(2), Variant("series"), 24, DOMAIN)

    def test_slab_vs_proportional_paths_agree(self):
        # nodes=4 divides the slowest axis cleanly; nodes=8 of a 64^3
        # domain with 16^3 boxes does not (4 slabs only) -> fallback.
        v = Variant("series", "P>=Box", "CLO")
        slab = step_cost(cluster(4), v, 16, DOMAIN)
        prop = step_cost(cluster(8), v, 16, DOMAIN)
        # Per-node compute roughly halves again moving 4 -> 8 nodes.
        assert prop.compute_s == pytest.approx(slab.compute_s / 2, rel=0.35)
