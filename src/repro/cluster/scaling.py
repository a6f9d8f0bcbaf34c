"""Weak/strong scaling sweeps with StepCost-style attribution.

The paper's motivating tradeoff — box size balances parallelism against
ghost-exchange overhead — replayed *across* simulated nodes: each step's
cost is assembled from the node-level task graph
(:mod:`repro.cluster.nodegraph`), with per-rank compute from the real
engines and per-rank exchange from the real copier-derived halo plan.

Attribution follows the serving layer's StepCost idiom, grown with an
imbalance term::

    step_s = max over ranks of (compute + exposed exchange)
           = mean compute + mean exposed exchange + imbalance

so a scaling figure decomposes exactly into the three causes the paper
cares about: on-node work, interconnect traffic, and load imbalance
from uneven box counts.

:func:`step_cost` keeps the seed single-module cluster contract
(same signature, same ValueErrors, ``total_s == compute_s +
exchange_s`` on the divisible configurations it accepts) while deriving
exchange volumes from the real halo plan instead of the closed-form
ghost ring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ..exemplar.problem import PAPER_DOMAIN_CELLS
from ..machine.simulator import estimate_workload
from ..machine.spec import MachineSpec
from ..machine.workload import build_workload
from ..obs.metrics import default_registry
from ..schedules.base import Variant
from .decompose import decompose_ranks
from .halo import halo_plan
from .nodegraph import NodeGraph, RankCost, rank_workload_cells
from .topology import GEMINI, ClusterSpec, InterconnectSpec

__all__ = [
    "ClusterPoint",
    "ClusterStep",
    "DEFAULT_VARIANTS",
    "StepCost",
    "assemble_step",
    "cluster_step",
    "near_cubic_grid",
    "step_cost",
    "strong_scaling",
    "weak_scaling",
]


@dataclass(frozen=True)
class StepCost:
    """Per-time-step cost attribution.

    The first four fields keep the seed dataclass shape (the compat
    shim re-exports this class); ``imbalance_s`` is new and defaults to
    zero, so seed-era constructors and the ``total_s == compute_s +
    exchange_s`` property they tested are unchanged.
    """

    compute_s: float
    exchange_s: float
    ghost_bytes_per_node: float
    messages_per_node: float
    imbalance_s: float = 0.0

    @property
    def total_s(self) -> float:
        return self.compute_s + self.exchange_s + self.imbalance_s

    @property
    def exchange_fraction(self) -> float:
        return self.exchange_s / self.total_s if self.total_s > 0 else 0.0


@dataclass(frozen=True)
class ClusterStep:
    """One evaluated cluster step: per-rank costs + attribution."""

    cluster: ClusterSpec
    variant: Variant
    box_size: int
    domain_cells: tuple[int, ...]
    policy: str
    engine: str
    ranks: tuple[RankCost, ...]
    step_s: float  #: the step takes as long as its slowest rank
    cost: StepCost  #: mean-based attribution; ``cost.total_s ~= step_s``

    def to_row(self) -> dict:
        """JSON-safe summary row for figures and the CLI."""
        return {
            "variant": self.variant.short_name,
            "nodes": self.cluster.nodes,
            "interconnect": self.cluster.interconnect.name,
            "machine": self.cluster.node.name,
            "box_size": self.box_size,
            "domain_cells": list(self.domain_cells),
            "policy": self.policy,
            "engine": self.engine,
            "step_s": self.step_s,
            "compute_s": self.cost.compute_s,
            "exchange_s": self.cost.exchange_s,
            "imbalance_s": self.cost.imbalance_s,
            "exchange_fraction": self.cost.exchange_fraction,
            "exchange_bytes_per_rank": self.cost.ghost_bytes_per_node,
            "messages_per_rank": self.cost.messages_per_node,
        }


def assemble_step(graph: NodeGraph, costs: Sequence[RankCost], engine: str) -> ClusterStep:
    """Fold per-rank costs into a :class:`ClusterStep` (+ obs gauges).

    Shared by the direct path (:func:`cluster_step`) and the serving
    layer's ``cluster`` job kind, so both report identical attribution.
    """
    n = len(costs)
    step_s = max(c.total_s for c in costs)
    mean_compute = sum(c.compute_s for c in costs) / n
    mean_exposed = sum(c.exposed_s for c in costs) / n
    imbalance = max(0.0, step_s - mean_compute - mean_exposed)
    cost = StepCost(
        compute_s=mean_compute,
        exchange_s=mean_exposed,
        ghost_bytes_per_node=sum(c.exchange_bytes for c in costs) / n,
        messages_per_node=sum(c.messages for c in costs) / n,
        imbalance_s=imbalance,
    )
    reg = default_registry()
    reg.counter_inc("cluster.steps")
    reg.gauge_set("cluster.ranks", float(n))
    reg.gauge_set(
        "cluster.exchange_bytes", float(graph.plan.off_rank_bytes(graph.ncomp))
    )
    reg.gauge_set("cluster.rank_imbalance", imbalance)
    return ClusterStep(
        cluster=graph.cluster,
        variant=graph.variant,
        box_size=graph.box_size,
        domain_cells=graph.domain_cells,
        policy=graph.policy,
        engine=engine,
        ranks=tuple(costs),
        step_s=step_s,
        cost=cost,
    )


def cluster_step(
    cluster: ClusterSpec,
    variant: Variant,
    box_size: int,
    domain_cells: Sequence[int] = PAPER_DOMAIN_CELLS,
    *,
    ncomp: int = 5,
    ghost: int = 2,
    threads: int | None = None,
    policy: str = "surface",
    engine: str = "estimate",
    periodic: Sequence[bool] | None = None,
) -> ClusterStep:
    """Evaluate one distributed step through the full model."""
    graph = NodeGraph(
        cluster,
        variant,
        box_size,
        domain_cells,
        ncomp=ncomp,
        ghost=ghost,
        threads=threads,
        policy=policy,
        periodic=periodic,
    )
    return assemble_step(graph, graph.evaluate(engine), engine)


def step_cost(
    cluster: ClusterSpec,
    variant: Variant,
    box_size: int,
    domain_cells: Sequence[int] = PAPER_DOMAIN_CELLS,
    threads: int | None = None,
    ncomp: int = 5,
    ghost: int = 2,
) -> StepCost:
    """Per-step cost of one node (the seed contract, real halo volumes).

    Keeps the seed ``step_cost`` behaviour: the
    domain must divide evenly into boxes and boxes across nodes (block
    assignment, ValueError otherwise); compute is the node's slab when
    the slowest axis splits cleanly, else the whole-level estimate
    divided by the node count; exchange is bulk-synchronous per-node
    mean traffic.  The volumes, though, come from the *real* halo plan
    (:mod:`repro.cluster.halo`) instead of the seed's closed-form ghost
    ring scaled by proxy-layout pair fractions, and messages are
    aggregated per neighbor rank as an MPI implementation sends them.
    Use :func:`cluster_step` for the full per-rank model (overlap,
    imbalance, policies).
    """
    threads = threads or cluster.node.cores
    dim = len(domain_cells)
    num_boxes = 1
    for c in domain_cells:
        if c % box_size:
            raise ValueError("domain must divide by the box size")
        num_boxes *= c // box_size
    if num_boxes % cluster.nodes:
        raise ValueError(
            f"{num_boxes} boxes do not divide across {cluster.nodes} nodes"
        )

    # Compute: the seed's two paths.  A clean slab split simulates the
    # node's actual sub-domain (bitwise the per-rank workload, which
    # depends only on the box count); otherwise the whole level divided
    # by the node count (uniform workload, exact up to box-count
    # rounding at barriers).
    last = int(domain_cells[-1])
    if last % (box_size * cluster.nodes) == 0:
        k = num_boxes // cluster.nodes
        wl = build_workload(
            variant,
            box_size,
            rank_workload_cells(box_size, k, dim),
            ncomp=ncomp,
            dim=dim,
        )
        compute = estimate_workload(wl, cluster.node, threads).time_s
    else:
        wl = build_workload(
            variant, box_size, tuple(domain_cells), ncomp=ncomp, dim=dim
        )
        compute = estimate_workload(wl, cluster.node, threads).time_s / cluster.nodes

    # Exchange: per-node mean of the real off-rank traffic.
    dec = decompose_ranks(domain_cells, box_size, cluster.nodes, "block")
    plan = halo_plan(dec.layout, ghost)
    bytes_per_node = plan.off_rank_bytes(ncomp) / cluster.nodes
    messages_per_node = plan.total_messages() / cluster.nodes
    exchange = cluster.interconnect.transfer_seconds(
        bytes_per_node, math.ceil(messages_per_node)
    )
    return StepCost(
        compute_s=compute,
        exchange_s=exchange,
        ghost_bytes_per_node=bytes_per_node,
        messages_per_node=messages_per_node,
    )


# ------------------------------------------------------------------ serve payload
@dataclass(frozen=True)
class ClusterPoint:
    """One cluster configuration — the ``cluster`` job kind's payload.

    Frozen and picklable (specs and variants are frozen dataclasses),
    mirroring :class:`repro.bench.runner.GridPoint`.
    """

    variant: Variant
    machine: MachineSpec
    interconnect: InterconnectSpec
    nodes: int
    box_size: int
    domain_cells: tuple[int, ...] = PAPER_DOMAIN_CELLS
    ncomp: int = 5
    ghost: int = 2
    threads: int | None = None
    policy: str = "surface"
    engine: str = "estimate"

    def cluster(self) -> ClusterSpec:
        return ClusterSpec(self.machine, self.interconnect, self.nodes)

    def graph(self) -> NodeGraph:
        return NodeGraph(
            self.cluster(),
            self.variant,
            self.box_size,
            self.domain_cells,
            ncomp=self.ncomp,
            ghost=self.ghost,
            threads=self.threads,
            policy=self.policy,
        )

    def evaluate(self, engine: str | None = None) -> ClusterStep:
        eng = engine or self.engine
        graph = self.graph()
        return assemble_step(graph, graph.evaluate(eng), eng)


# ------------------------------------------------------------------ sweeps
#: The sweep's default on-node schedule trio: the baseline, the paper's
#: best fusion schedule, and an overlapped-tile schedule whose exchange
#: hides behind compute — the family whose ranking flips with scale.
DEFAULT_VARIANTS = (
    Variant("series"),
    Variant("shift_fuse"),
    Variant("overlapped", "P<Box", "CLO", tile_size=8, intra_tile="shift_fuse"),
)


def near_cubic_grid(n: int, dim: int = 3) -> tuple[int, ...]:
    """Factor ``n`` into ``dim`` near-equal factors (ascending)."""
    grid = []
    rem = n
    for d in range(dim, 0, -1):
        f = max(1, int(round(rem ** (1.0 / d))))
        while f > 1 and rem % f:
            f -= 1
        grid.append(f)
        rem //= f
    return tuple(sorted(grid))


def weak_scaling(
    node_counts: Sequence[int],
    variants: Sequence[Variant] = DEFAULT_VARIANTS,
    *,
    machine: MachineSpec,
    interconnect: InterconnectSpec = GEMINI,
    box_size: int = 16,
    boxes_per_node: int = 8,
    ncomp: int = 5,
    ghost: int = 2,
    threads: int | None = None,
    policy: str = "surface",
    engine: str = "estimate",
) -> list[dict]:
    """Weak scaling: constant work per node, domain grows with nodes.

    Each node owns ``boxes_per_node`` boxes of ``box_size``; the global
    box grid is kept near-cubic.  Returns one JSON-safe row per node
    count with per-variant attribution and the winning variant.
    """
    dim = len(PAPER_DOMAIN_CELLS)
    rows = []
    for n in node_counts:
        grid = near_cubic_grid(n * boxes_per_node, dim)
        domain = tuple(g * box_size for g in grid)
        cluster = ClusterSpec(machine, interconnect, n)
        per_variant = {}
        for v in variants:
            step = cluster_step(
                cluster,
                v,
                box_size,
                domain,
                ncomp=ncomp,
                ghost=ghost,
                threads=threads,
                policy=policy,
                engine=engine,
            )
            per_variant[v.short_name] = step.to_row()
        best = min(per_variant, key=lambda k: per_variant[k]["step_s"])
        rows.append(
            {
                "nodes": n,
                "domain_cells": list(domain),
                "box_size": box_size,
                "interconnect": interconnect.name,
                "variants": per_variant,
                "best": best,
            }
        )
    return rows


def strong_scaling(
    node_counts: Sequence[int],
    variants: Sequence[Variant] = DEFAULT_VARIANTS,
    *,
    domain_cells: Sequence[int] = (256, 192, 128),
    box_size: int = 16,
    machine: MachineSpec,
    interconnect: InterconnectSpec = GEMINI,
    ncomp: int = 5,
    ghost: int = 2,
    threads: int | None = None,
    policy: str = "surface",
    engine: str = "estimate",
) -> list[dict]:
    """Strong scaling: fixed global domain spread over more nodes.

    Parallel efficiency is relative to the smallest node count in the
    sweep: ``eff(n) = (t_base * n_base) / (t_n * n)``.
    """
    counts = list(node_counts)
    if not counts:
        return []
    base_n = counts[0]
    rows = []
    base_step: dict[str, float] = {}
    for n in counts:
        cluster = ClusterSpec(machine, interconnect, n)
        per_variant = {}
        for v in variants:
            step = cluster_step(
                cluster,
                v,
                box_size,
                tuple(domain_cells),
                ncomp=ncomp,
                ghost=ghost,
                threads=threads,
                policy=policy,
                engine=engine,
            )
            row = step.to_row()
            if n == base_n:
                base_step[v.short_name] = row["step_s"]
            base = base_step[v.short_name]
            row["efficiency"] = (
                (base * base_n) / (row["step_s"] * n) if row["step_s"] > 0 else 0.0
            )
            per_variant[v.short_name] = row
        best = min(per_variant, key=lambda k: per_variant[k]["step_s"])
        rows.append(
            {
                "nodes": n,
                "domain_cells": list(domain_cells),
                "box_size": box_size,
                "interconnect": interconnect.name,
                "variants": per_variant,
                "best": best,
            }
        )
    return rows
