"""The seven differential check families.

Every check takes a :class:`~repro.verify.config.VerifyConfig` and
returns a list of failure messages — empty means the config passed.
Checks never assert; the runner and the shrinker both need failures as
data, not exceptions.

Families
--------
``bitwise``
    Every variant in the config computes bitwise the same phi1 as
    :func:`repro.exemplar.reference.reference_on_level`, under the
    config's substrate toggles (scratch arena, thread pool, tracing).
``engines``
    The closed-form :func:`estimate_workload` and the event-driven
    :func:`simulate_workload` agree: exact phase-count/flops/bytes
    bookkeeping equality, time agreement within a stated tolerance
    (near-exact for uniform phases, bounded divergence for the
    heterogeneous approximation path), and tracing-invariance of the
    estimate.
``invariants``
    Analytic-model invariants: instrumented scratch allocations stay
    within the executor's declared (Table I) temporaries and are
    arena-invisible; modeled DRAM traffic is monotone non-increasing in
    cache capacity and pinned to compulsory traffic at infinite cache;
    parallelism profiles respect their combinatorial bounds.
``metamorphic``
    Input transformations with known output behaviour: translating the
    domain origin, permuting non-velocity components, and shifting the
    initial data along a periodic axis all commute with the kernel,
    bitwise.
``memo``
    The content-addressed serving cache (:mod:`repro.serve.memo`) is
    sound on config-shaped problems: canonical job keys are stable
    across reconstruction and distinct across config changes; a cache
    hit — in-memory, resumed from disk, or served through a
    :class:`~repro.serve.service.JobService` — is bitwise-equal to the
    cold execution under the config's substrate-toggle combination;
    and a coalesced duplicate fan-out under a seeded fault plan keeps
    exact accounting (``ok + shed + degraded + failed + coalesced ==
    submitted``), at most one live execution per key, and
    bitwise-identical fan-out values.
``overload``
    The adaptive overload-control loop (:mod:`repro.serve.adaptive`)
    obeys its contracts on config-seeded event streams: the AIMD
    limiter's limit never leaves ``[min_limit, max_limit]``, breaches
    drive it to the floor, and sustained under-SLO successes at
    saturation recover it to the ceiling; a retry budget's lifetime
    counters always satisfy the amplification bound
    ``units + spent <= units * (1 + ratio)`` and its balance never goes
    negative; and a deadline-capped retry fails fast with a ``"deadline"`` failure instead of sleeping a
    backoff the deadline cannot cover.
``cluster``
    The distributed-memory scaling model (:mod:`repro.cluster`) obeys
    its structural invariants on config-shaped geometries: every rank
    decomposition policy conserves boxes and cells exactly; a
    one-node cluster step reduces to the single-node engine bitwise,
    with zero exchange;
    strong-scaling efficiency over a power-of-two node chain stays
    <= 1 and monotone non-increasing; and at constant work per node
    the exchange fraction is monotone in interconnect latency.
"""

from __future__ import annotations

from contextlib import ExitStack

import numpy as np

from ..analysis.parallelism import (
    level_parallelism,
    parallel_efficiency_bound,
    tasks_per_box,
    wavefront_efficiency,
)
from ..analysis.traffic import variant_traffic
from ..box.box import Box
from ..box.layout import decompose_domain
from ..box.leveldata import LevelData
from ..box.problem_domain import ProblemDomain
from ..exemplar.reference import reference_kernel, reference_on_level
from ..exemplar.state import random_initial_data
from ..machine.simulator import estimate_workload, simulate_workload
from ..machine.spec import machine_by_name
from ..machine.workload import build_workload
from ..obs import trace as _trace
from ..parallel.pool import run_schedule_parallel
from ..schedules.level import run_schedule_on_level
from ..schedules.variants import make_executor
from ..util.alloc import track_allocations
from ..util.arena import scratch_arena
from .config import FAMILIES, VerifyConfig

__all__ = [
    "run_check",
    "check_bitwise",
    "check_engines",
    "check_invariants",
    "check_metamorphic",
    "check_cluster",
    "check_memo",
    "check_overload",
]

#: Relative time tolerance for uniform phases, where the closed form is
#: exact and only float associativity separates the engines.
UNIFORM_TIME_RTOL = 1e-9

#: Divergence bound for the heterogeneous bound-based approximation:
#: the estimate is a max of lower bounds, so sim >= est (up to float
#: noise) and list scheduling keeps sim within a small factor.
HETEROGENEOUS_TIME_FACTOR = 3.0

#: Realized scratch tags whose declared budget lives under another name.
_TAG_ALIASES = {"flux_cache": "tile_flux"}


def run_check(config: VerifyConfig) -> list[str]:
    """Dispatch one config to its family's check."""
    try:
        fn = _FAMILY_CHECKS[config.family]
    except KeyError:
        raise ValueError(f"unknown family {config.family!r}; use {FAMILIES}")
    return fn(config)


# ------------------------------------------------------------------ helpers
def _build_phi0(config: VerifyConfig) -> LevelData:
    """A ghosted, exchanged level for this config.

    Every cell — ghosts included — is first filled from a per-box
    seeded RNG; the pre-fill doubles as a deterministic boundary
    condition for ghost cells outside a non-periodic domain edge, which
    ``exchange`` leaves untouched.
    """
    domain = ProblemDomain(
        Box.from_extents((0,) * config.dim, config.domain_cells),
        periodic=config.periodic,
    )
    layout = decompose_domain(domain, config.box_size)
    phi0 = LevelData(layout, ncomp=config.ncomp, ghost=config.ghost)
    for i, fab in enumerate(phi0.fabs):
        rng = np.random.default_rng(config.data_seed + 1000 * i)
        fab.data[...] = rng.uniform(0.5, 2.0, size=fab.data.shape)
    phi0.exchange()
    return phi0


def _toggles(stack: ExitStack, config: VerifyConfig) -> None:
    """Enter the config's substrate toggle contexts."""
    if config.arena:
        stack.enter_context(scratch_arena())
    if config.tracing:
        stack.enter_context(_trace.tracing())


def _applicable_variants(config: VerifyConfig):
    return [
        v
        for v in config.variant_objects()
        if v.applicable_to_box(config.box_size)
    ]


# ------------------------------------------------------------------ family 1
def check_bitwise(config: VerifyConfig) -> list[str]:
    """Every variant equals the reference kernel bitwise, under toggles."""
    failures: list[str] = []
    phi0 = _build_phi0(config)
    ref = reference_on_level(phi0).to_global_array()
    for variant in _applicable_variants(config):
        with ExitStack() as stack:
            _toggles(stack, config)
            if config.pool:
                out = run_schedule_parallel(
                    variant, phi0, threads=min(config.threads, 4),
                    arena=config.arena,
                ).phi1.to_global_array()
            else:
                out = run_schedule_on_level(variant, phi0).to_global_array()
        if not np.array_equal(out, ref):
            delta = float(np.max(np.abs(out - ref)))
            failures.append(
                f"bitwise: {variant.short_name} diverges from reference "
                f"(max |delta| = {delta:.3e}, pool={config.pool}, "
                f"arena={config.arena}, tracing={config.tracing})"
            )
    return failures


# ------------------------------------------------------------------ family 2
def check_engines(config: VerifyConfig) -> list[str]:
    """estimate_workload and simulate_workload agree on every variant."""
    failures: list[str] = []
    machine = machine_by_name(config.machine)
    threads = min(config.threads, machine.max_threads)
    for variant in _applicable_variants(config):
        wl = build_workload(
            variant,
            config.box_size,
            domain_cells=config.domain_cells,
            ncomp=config.ncomp,
            dim=config.dim,
        )
        est = estimate_workload(wl, machine, threads)
        sim = simulate_workload(wl, machine, threads)
        tag = f"engines: {variant.short_name} @{machine.name}x{threads}"
        if len(est.phase_times) != len(wl.phases):
            failures.append(
                f"{tag}: estimate phase count {len(est.phase_times)} != "
                f"{len(wl.phases)} workload phases"
            )
        if len(sim.phase_times) != len(est.phase_times):
            failures.append(
                f"{tag}: phase counts differ (sim {len(sim.phase_times)} "
                f"vs est {len(est.phase_times)})"
            )
        if sim.flops != est.flops:
            failures.append(
                f"{tag}: flops bookkeeping differs "
                f"(sim {sim.flops!r} vs est {est.flops!r})"
            )
        if sim.dram_bytes != est.dram_bytes:
            failures.append(
                f"{tag}: dram_bytes bookkeeping differs "
                f"(sim {sim.dram_bytes!r} vs est {est.dram_bytes!r})"
            )
        phase_sum = sum(est.phase_times)
        if abs(phase_sum - est.time_s) > 1e-9 * max(1.0, abs(est.time_s)):
            failures.append(
                f"{tag}: estimate phase times sum to {phase_sum!r}, "
                f"not time_s {est.time_s!r}"
            )
        uniform = all(len(p.groups) == 1 for p in wl.phases)
        if uniform:
            tol = UNIFORM_TIME_RTOL * max(est.time_s, sim.time_s, 1e-30)
            if abs(sim.time_s - est.time_s) > tol:
                failures.append(
                    f"{tag}: uniform-phase times diverge "
                    f"(est {est.time_s!r} vs sim {sim.time_s!r})"
                )
        else:
            if est.time_s > sim.time_s * (1 + UNIFORM_TIME_RTOL):
                failures.append(
                    f"{tag}: estimate {est.time_s!r} exceeds simulation "
                    f"{sim.time_s!r} — the bound-based approximation must "
                    f"be a lower bound"
                )
            if sim.time_s > HETEROGENEOUS_TIME_FACTOR * est.time_s:
                failures.append(
                    f"{tag}: simulation {sim.time_s!r} beyond "
                    f"{HETEROGENEOUS_TIME_FACTOR}x the estimate "
                    f"{est.time_s!r}"
                )
        if config.tracing:
            with _trace.tracing():
                traced = estimate_workload(wl, machine, threads)
            if traced.time_s != est.time_s or traced.flops != est.flops:
                failures.append(
                    f"{tag}: tracing changed the estimate "
                    f"({traced.time_s!r} vs {est.time_s!r})"
                )
    return failures


# ------------------------------------------------------------------ family 3
def check_invariants(config: VerifyConfig) -> list[str]:
    """Analytic-model invariants: allocations, traffic, parallelism."""
    failures: list[str] = []
    n = config.box_size
    num_boxes = 1
    for m in config.domain_mult:
        num_boxes *= m
    phi_g = random_initial_data(
        (n + 4,) * config.dim, ncomp=config.ncomp, seed=config.data_seed
    )
    for variant in _applicable_variants(config):
        ex = make_executor(variant, dim=config.dim, ncomp=config.ncomp)
        tag = f"invariants: {variant.short_name}"

        # Table I: instrumented allocations stay within the declared
        # per-thread temporaries, and the arena never changes what is
        # *logically* allocated.
        with track_allocations() as plain:
            ex.run_fresh(phi_g)
        decl = ex.logical_temporaries(n)
        decl_total = sum(decl.values())
        for alloc_tag, peak in plain.peak_elements_by_tag().items():
            bound = decl.get(alloc_tag) or decl.get(
                _TAG_ALIASES.get(alloc_tag, ""), 0
            )
            if bound > 0:
                if peak > bound:
                    failures.append(
                        f"{tag}: peak {alloc_tag!r} allocation {peak} "
                        f"exceeds declared budget {bound}"
                    )
            elif peak > decl_total:
                failures.append(
                    f"{tag}: undeclared scratch tag {alloc_tag!r} peak "
                    f"{peak} exceeds total declared temporaries {decl_total}"
                )
        if config.arena:
            with scratch_arena(), track_allocations() as pooled:
                ex.run_fresh(phi_g)
            if [
                (r.tag, r.shape) for r in pooled.records
            ] != [(r.tag, r.shape) for r in plain.records]:
                failures.append(
                    f"{tag}: arena changed the logical allocation stream"
                )

        # Traffic: DRAM bytes monotone non-increasing in cache capacity,
        # pinned to compulsory at infinite cache, bounded by worst case.
        tm = variant_traffic(variant, n, ncomp=config.ncomp, dim=config.dim)
        caches = [2.0**k for k in range(8, 34, 2)]
        prev = None
        for cache in caches:
            cur = tm.dram_bytes(cache)
            if cur < tm.compulsory - 1e-6:
                failures.append(
                    f"{tag}: traffic {cur} below compulsory {tm.compulsory} "
                    f"at cache {cache}"
                )
            if prev is not None and cur > prev * (1 + 1e-12):
                failures.append(
                    f"{tag}: traffic not monotone in cache size "
                    f"({prev} -> {cur} at cache {cache})"
                )
            prev = cur
        if abs(tm.dram_bytes(1e30) - tm.compulsory) > 1e-6:
            failures.append(
                f"{tag}: infinite cache traffic {tm.dram_bytes(1e30)} != "
                f"compulsory {tm.compulsory}"
            )
        if tm.worst_case_bytes() < tm.dram_bytes(caches[0]) - 1e-6:
            failures.append(f"{tag}: worst-case traffic below a finite-cache point")

        # Parallelism: combinatorial bounds and the serial fixed point.
        units = tasks_per_box(variant, n, config.dim)
        lvl = level_parallelism(variant, n, num_boxes, config.dim)
        if units < 1 or lvl < 1:
            failures.append(
                f"{tag}: non-positive parallelism (tasks={units}, level={lvl})"
            )
        if variant.granularity == "P>=Box" and lvl != num_boxes:
            failures.append(
                f"{tag}: P>=Box level parallelism {lvl} != boxes {num_boxes}"
            )
        for threads in (1, 2, config.threads):
            eff = parallel_efficiency_bound(
                variant, n, num_boxes, threads, config.dim
            )
            if not (0.0 < eff <= 1.0 + 1e-12):
                failures.append(
                    f"{tag}: efficiency bound {eff} outside (0, 1] "
                    f"at {threads} threads"
                )
        if parallel_efficiency_bound(variant, n, num_boxes, 1, config.dim) != 1.0:
            failures.append(f"{tag}: serial efficiency bound is not exactly 1")
        if variant.category == "blocked_wavefront":
            eff = wavefront_efficiency(n, variant.tile_size, config.threads, config.dim)
            if not (0.0 < eff <= 1.0 + 1e-12):
                failures.append(f"{tag}: wavefront efficiency {eff} outside (0, 1]")
    return failures


# ------------------------------------------------------------------ family 4
def check_metamorphic(config: VerifyConfig) -> list[str]:
    """Transformations that must commute with the kernel, bitwise."""
    failures: list[str] = []
    failures += _metamorphic_translation(config)
    failures += _metamorphic_component_permutation(config)
    if all(config.periodic):
        failures += _metamorphic_periodic_shift(config)
    return failures


def _level_pair(config: VerifyConfig, origin: tuple[int, ...]) -> LevelData:
    """A level whose domain box starts at ``origin``, data per-box seeded.

    Box *ordering* from ``decompose_domain`` is origin-independent, so
    two levels built at different origins receive identical per-box
    data — translation must then commute with every schedule exactly.
    """
    domain = ProblemDomain(
        Box.from_extents(origin, config.domain_cells),
        periodic=config.periodic,
    )
    layout = decompose_domain(domain, config.box_size)
    phi0 = LevelData(layout, ncomp=config.ncomp, ghost=config.ghost)
    for i, fab in enumerate(phi0.fabs):
        rng = np.random.default_rng(config.data_seed + 1000 * i)
        fab.data[...] = rng.uniform(0.5, 2.0, size=fab.data.shape)
    phi0.exchange()
    return phi0


def _metamorphic_translation(config: VerifyConfig) -> list[str]:
    failures = []
    shift = tuple(
        7 * config.box_size * (d + 1) for d in range(config.dim)
    )
    base = _level_pair(config, (0,) * config.dim)
    moved = _level_pair(config, shift)
    for variant in _applicable_variants(config):
        a = run_schedule_on_level(variant, base).to_global_array()
        b = run_schedule_on_level(variant, moved).to_global_array()
        if not np.array_equal(a, b):
            failures.append(
                f"metamorphic: {variant.short_name} not invariant under "
                f"domain-origin translation {shift}"
            )
    return failures


def _metamorphic_component_permutation(config: VerifyConfig) -> list[str]:
    """Permuting non-velocity components permutes the output likewise.

    Component ``d+1`` is direction ``d``'s advection velocity, so a
    permutation fixing components ``1..dim`` commutes with the kernel:
    every component's flux depends only on itself and the velocity.
    """
    failures = []
    dim, ncomp = config.dim, config.ncomp
    free = [0] + list(range(dim + 1, ncomp))
    if len(free) < 2:
        return failures
    rng = np.random.default_rng(config.data_seed)
    perm = np.arange(ncomp)
    shuffled = np.array(free)
    rng.shuffle(shuffled)
    perm[free] = shuffled
    if np.array_equal(perm, np.arange(ncomp)):
        perm[free] = np.roll(free, 1)
    phi_g = random_initial_data(
        (config.box_size + 4,) * dim, ncomp=ncomp, seed=config.data_seed
    )
    out = reference_kernel(phi_g)
    out_p = reference_kernel(np.asfortranarray(phi_g[..., perm]))
    if not np.array_equal(out_p, out[..., perm]):
        failures.append(
            f"metamorphic: reference kernel does not commute with "
            f"non-velocity component permutation {perm.tolist()}"
        )
    for variant in _applicable_variants(config)[:1]:
        ex = make_executor(variant, dim=dim, ncomp=ncomp)
        got = ex.run_fresh(np.asfortranarray(phi_g[..., perm]))
        if not np.array_equal(got, out[..., perm]):
            failures.append(
                f"metamorphic: {variant.short_name} does not commute with "
                f"component permutation {perm.tolist()}"
            )
    return failures


def _metamorphic_periodic_shift(config: VerifyConfig) -> list[str]:
    """Rolling phi0 along a periodic axis rolls phi1 identically.

    Only valid on fully periodic domains: every ghost cell then has a
    physical image, so the rolled level's ghost ring is the rolled
    original, and each output cell sees identical inputs bitwise.
    """
    failures = []
    axis = config.data_seed % config.dim
    shift = config.box_size
    base = _build_phi0(config)
    global_phi = base.to_global_array()
    rolled = np.roll(global_phi, shift, axis=axis)
    moved = LevelData(base.layout, ncomp=config.ncomp, ghost=config.ghost)
    moved.fill_from_function(
        lambda *grids_comp: rolled[tuple(grids_comp[:-1]) + (grids_comp[-1],)]
    )
    moved.exchange()
    for variant in _applicable_variants(config):
        # Recompute the base from exchanged-from-valid data so both
        # levels' ghost provenance matches (base's original ghosts are
        # exchange-filled too on a fully periodic domain).
        a = run_schedule_on_level(variant, base).to_global_array()
        b = run_schedule_on_level(variant, moved).to_global_array()
        if not np.array_equal(b, np.roll(a, shift, axis=axis)):
            failures.append(
                f"metamorphic: {variant.short_name} does not commute with "
                f"periodic shift of {shift} cells along axis {axis}"
            )
    return failures


# ------------------------------------------------------------------ family 5
def check_cluster(config: VerifyConfig) -> list[str]:
    """Structural invariants of the distributed scaling model."""
    failures: list[str] = []
    failures += _cluster_conservation(config)
    failures += _cluster_single_node(config)
    failures += _cluster_strong_efficiency(config)
    failures += _cluster_latency_monotone(config)
    return failures


def _cluster_variants(config: VerifyConfig):
    """At most two applicable variants (the family is about the model
    *around* the engines, so one bulk-synchronous sample suffices;
    a second catches category-dependent assembly bugs)."""
    return _applicable_variants(config)[:2]


def _cluster_conservation(config: VerifyConfig) -> list[str]:
    """Every policy assigns each box to exactly one rank."""
    from ..cluster.decompose import POLICIES, decompose_ranks

    failures: list[str] = []
    num_boxes = 1
    for m in config.domain_mult:
        num_boxes *= m
    domain = config.domain_cells
    for num_ranks in sorted({1, 2, num_boxes} - {0}):
        if num_ranks > num_boxes:
            continue
        for policy in POLICIES:
            dec = decompose_ranks(
                domain, config.box_size, num_ranks, policy,
                periodic=config.periodic,
            )
            tag = f"cluster: {policy}@{num_ranks} ranks over {num_boxes} boxes"
            if sum(dec.boxes_per_rank()) != num_boxes:
                failures.append(
                    f"{tag}: boxes not conserved "
                    f"({sum(dec.boxes_per_rank())} != {num_boxes})"
                )
            total_cells = num_boxes * config.box_size ** config.dim
            if sum(dec.cells_per_rank()) != total_cells:
                failures.append(
                    f"{tag}: cells not conserved "
                    f"({sum(dec.cells_per_rank())} != {total_cells})"
                )
            if dec.num_ranks != num_ranks:
                failures.append(f"{tag}: rank count mismatch")
    return failures


def _cluster_single_node(config: VerifyConfig) -> list[str]:
    """A one-node cluster is the single-node engine plus zero exchange.

    The compute time must agree bitwise: by the box-count-only property
    of the workload builder, the per-rank workload has the *same*
    contents as the single-node one.
    """
    from ..cluster.scaling import cluster_step
    from ..cluster.topology import GEMINI, ClusterSpec

    failures: list[str] = []
    machine = machine_by_name(config.machine)
    threads = min(config.threads, machine.max_threads)
    cluster = ClusterSpec(machine, GEMINI, 1)
    for variant in _cluster_variants(config):
        wl = build_workload(
            variant,
            config.box_size,
            domain_cells=config.domain_cells,
            ncomp=config.ncomp,
            dim=config.dim,
        )
        step = cluster_step(
            cluster, variant, config.box_size, config.domain_cells,
            ncomp=config.ncomp, ghost=config.ghost, threads=threads,
            periodic=config.periodic,
        )
        direct = estimate_workload(wl, machine, threads)
        tag = f"cluster: nodes=1 {variant.short_name}"
        if step.cost.compute_s != direct.time_s:
            failures.append(
                f"{tag}: compute {step.cost.compute_s!r} != single-node "
                f"engine {direct.time_s!r}"
            )
        if step.cost.exchange_s != 0.0 or step.cost.ghost_bytes_per_node:
            failures.append(
                f"{tag}: one node has nonzero exchange "
                f"({step.cost.exchange_s!r} s, "
                f"{step.cost.ghost_bytes_per_node!r} B)"
            )
        if step.cost.imbalance_s != 0.0:
            failures.append(
                f"{tag}: one node has imbalance {step.cost.imbalance_s!r}"
            )
        if abs(step.step_s - step.cost.total_s) > 1e-15 * max(
            step.step_s, 1e-30
        ):
            failures.append(
                f"{tag}: step_s {step.step_s!r} != attributed total "
                f"{step.cost.total_s!r}"
            )
    return failures


def _cluster_strong_efficiency(config: VerifyConfig) -> list[str]:
    """Strong-scaling efficiency <= 1, monotone non-increasing.

    Over a power-of-two node chain whose box count divides evenly at
    every count — uniform per-rank box counts make the subadditivity
    of the ceil-based phase costs an exact monotonicity guarantee
    (ragged counts can legitimately violate it through imbalance).
    """
    from ..cluster.scaling import strong_scaling
    from ..cluster.topology import GEMINI

    failures: list[str] = []
    machine = machine_by_name(config.machine)
    threads = min(config.threads, machine.max_threads)
    b = config.box_size
    domain = (b,) * (config.dim - 1) + (8 * b,)
    rows = strong_scaling(
        (1, 2, 4, 8),
        _cluster_variants(config),
        domain_cells=domain,
        box_size=b,
        machine=machine,
        interconnect=GEMINI,
        ncomp=config.ncomp,
        ghost=config.ghost,
        threads=threads,
        policy="block",
    )
    prev: dict[str, float] = {}
    for row in rows:
        for name, v in row["variants"].items():
            eff = v["efficiency"]
            tag = f"cluster: strong {name}@{row['nodes']} nodes"
            if eff > 1.0 + 1e-12:
                failures.append(f"{tag}: efficiency {eff!r} exceeds 1")
            if name in prev and eff > prev[name] + 1e-12:
                failures.append(
                    f"{tag}: efficiency {eff!r} rose from {prev[name]!r} "
                    f"at the previous node count"
                )
            prev[name] = eff
    return failures


def _cluster_latency_monotone(config: VerifyConfig) -> list[str]:
    """Exchange time and fraction rise with interconnect latency.

    Run at constant work per node on a fully periodic, fully symmetric
    geometry (one box per rank, rank grid == box grid), so every rank
    is congruent: the exchange fraction is then strictly monotone in
    latency at fixed bandwidth, with zero imbalance.
    """
    from ..cluster.scaling import cluster_step
    from ..cluster.topology import ClusterSpec, InterconnectSpec

    failures: list[str] = []
    machine = machine_by_name(config.machine)
    threads = min(config.threads, machine.max_threads)
    b = config.box_size
    nodes = 2 ** config.dim
    domain = (2 * b,) * config.dim
    periodic = (True,) * config.dim
    for variant in _cluster_variants(config)[:1]:
        prev_ex = prev_frac = None
        for latency_us in (0.5, 2.0, 8.0, 32.0):
            ic = InterconnectSpec(
                f"lat{latency_us}", bandwidth_gbs=5.0, latency_us=latency_us
            )
            step = cluster_step(
                ClusterSpec(machine, ic, nodes), variant, b, domain,
                ncomp=config.ncomp, ghost=config.ghost, threads=threads,
                policy="surface", periodic=periodic,
            )
            tag = (
                f"cluster: latency {variant.short_name} "
                f"@{latency_us}us/{nodes} nodes"
            )
            ex, frac = step.cost.exchange_s, step.cost.exchange_fraction
            if step.cost.imbalance_s > 1e-15:
                failures.append(
                    f"{tag}: symmetric geometry shows imbalance "
                    f"{step.cost.imbalance_s!r}"
                )
            if prev_ex is not None and ex < prev_ex - 1e-15:
                failures.append(
                    f"{tag}: exchange time fell with latency "
                    f"({prev_ex!r} -> {ex!r})"
                )
            if prev_frac is not None and frac < prev_frac - 1e-15:
                failures.append(
                    f"{tag}: exchange fraction fell with latency "
                    f"({prev_frac!r} -> {frac!r})"
                )
            prev_ex, prev_frac = ex, frac
    return failures


# ------------------------------------------------------------------ family 6
def check_memo(config: VerifyConfig) -> list[str]:
    """The serving cache + coalescing layer is sound on this config."""
    failures: list[str] = []
    failures += _memo_key_stability(config)
    failures += _memo_bitwise_hits(config)
    failures += _memo_coalesced_accounting(config)
    return failures


def _memo_points(config: VerifyConfig):
    """Config-shaped GridPoints (at most two variants keep cases fast)."""
    from ..bench.runner import GridPoint

    machine = machine_by_name(config.machine)
    return [
        GridPoint(
            v, machine, config.threads, config.box_size,
            config.domain_cells, ncomp=config.ncomp,
        )
        for v in _applicable_variants(config)[:2]
    ]


def _memo_key_stability(config: VerifyConfig) -> list[str]:
    """Keys are stable across reconstruction, distinct across content."""
    import dataclasses

    from ..serve.memo import canonical_job_key

    failures: list[str] = []
    for p in _memo_points(config):
        k1 = canonical_job_key("estimate", p)
        k2 = canonical_job_key("estimate", dataclasses.replace(p))
        if k1 != k2:
            failures.append(
                f"memo: key unstable across reconstruction for "
                f"{p.variant.short_name}: {k1} != {k2}"
            )
        bumped = canonical_job_key(
            "estimate", dataclasses.replace(p, ncomp=p.ncomp + 1)
        )
        if bumped == k1:
            failures.append(
                f"memo: ncomp change did not change the key for "
                f"{p.variant.short_name}"
            )
        if canonical_job_key("simulate", p) == k1:
            failures.append(
                f"memo: engine kind not part of the key for "
                f"{p.variant.short_name}"
            )
    return failures


def _memo_bitwise_hits(config: VerifyConfig) -> list[str]:
    """In-memory, disk-resumed, and served hits equal cold execution."""
    import os
    import tempfile

    from ..resilience.journal import sim_result_to_dict
    from ..serve.memo import MemoStore, canonical_job_key

    failures: list[str] = []
    points = _memo_points(config)
    if not points:
        return failures
    with ExitStack() as stack:
        _toggles(stack, config)
        cold = {
            canonical_job_key("estimate", p): (p, p.evaluate())
            for p in points
        }
    with tempfile.TemporaryDirectory(prefix="repro-verify-memo-") as tmp:
        path = os.path.join(tmp, "memo.jsonl")
        store = MemoStore(path=path)
        for key, (p, r) in cold.items():
            store.put(key, "estimate", r)
        for key, (p, r) in cold.items():
            hit = store.get(key)
            if hit is None or sim_result_to_dict(hit) != sim_result_to_dict(r):
                failures.append(
                    f"memo: in-memory hit not bitwise-equal to cold "
                    f"execution for {p.variant.short_name} "
                    f"({config.label()})"
                )
        store.close()
        resumed = MemoStore(path=path)
        for key, (p, r) in cold.items():
            hit = resumed.get(key)
            if hit is None or sim_result_to_dict(hit) != sim_result_to_dict(r):
                failures.append(
                    f"memo: disk-resumed hit not bitwise-equal to cold "
                    f"execution for {p.variant.short_name} "
                    f"({config.label()})"
                )
        resumed.close()
    return failures


def _memo_coalesced_accounting(config: VerifyConfig) -> list[str]:
    """A duplicate fan-out under seeded faults settles exactly once each.

    The first attempt of the leader stalls (so duplicates genuinely
    pile up behind it) and one seeded raise forces a retry; whatever
    the interleaving, accounting stays exact, at most one execution per
    key is ever live, and every successful settle carries the identical
    result.
    """
    from ..resilience.faults import FaultPlan, FaultSpec, inject_faults
    from ..resilience.journal import sim_result_to_dict
    from ..serve.service import JobService, JobSpec

    failures: list[str] = []
    points = _memo_points(config)
    if not points:
        return failures
    point = points[0]
    fanout = 6
    label = f"memo.{config.data_seed % 1000}"
    plan = FaultPlan([
        FaultSpec(
            scope="serve", mode="stall", label=f"{label}|", stall_s=0.05,
            count=1,
        ),
        FaultSpec(
            scope="serve", mode="raise", label=f"{label}|", count=1,
        ),
    ])
    with ExitStack() as stack:
        _toggles(stack, config)
        with inject_faults(plan), JobService(workers=2, memo=True) as svc:
            tickets = [
                svc.submit(JobSpec("estimate", point, label=label))
                for _ in range(fanout)
            ]
            outs = [t.result(timeout=60.0) for t in tickets]
            stats = svc.stats()
    counts = stats["counts"]
    if not stats["accounted"]:
        failures.append(
            f"memo: coalesced fan-out accounting inexact: {counts} "
            f"({config.label()})"
        )
    if counts["submitted"] != fanout:
        failures.append(
            f"memo: expected {fanout} submissions, counted "
            f"{counts['submitted']}"
        )
    if stats["coalesce"]["max_live_per_key"] > 1:
        failures.append(
            f"memo: single-flight violated "
            f"({stats['coalesce']['max_live_per_key']} live executions "
            f"for one key, {config.label()})"
        )
    encodings = {
        json_dumps_sorted(sim_result_to_dict(o.value))
        for o in outs
        if o.status in ("ok", "coalesced") and not o.degraded_to
    }
    if len(encodings) > 1:
        failures.append(
            f"memo: fan-out produced {len(encodings)} distinct results "
            f"for one canonical key ({config.label()})"
        )
    settled = sum(
        counts[s] for s in ("ok", "shed", "degraded", "failed", "coalesced")
    )
    if settled != counts["submitted"]:
        failures.append(
            f"memo: settle count {settled} != submitted "
            f"{counts['submitted']} ({config.label()})"
        )
    return failures


def json_dumps_sorted(d: dict) -> str:
    import json

    return json.dumps(d, sort_keys=True)


# ------------------------------------------------------------------ family 7
def check_overload(config: VerifyConfig) -> list[str]:
    """The adaptive overload-control loop is sound on this config."""
    failures: list[str] = []
    failures += _overload_limiter_trajectory(config)
    failures += _overload_budget_bound(config)
    failures += _overload_retry_deadline(config)
    return failures


def _overload_limiter_trajectory(config: VerifyConfig) -> list[str]:
    """AIMD limit stays in its band; breaches floor it, successes recover.

    Runs on a fake clock (each event advances one cooldown period, so
    every breach is eligible to back off) and a seeded event stream, so
    the trajectory is a deterministic function of the config.
    """
    import random

    from ..serve.adaptive import AdaptiveLimiter

    failures: list[str] = []
    rng = random.Random(config.data_seed ^ 0x0A1D)
    min_limit = 1 + config.data_seed % 2
    max_limit = min_limit + 3 + config.data_seed % 5
    now = [0.0]
    changes: list[float] = []
    lim = AdaptiveLimiter(
        max_limit=max_limit, min_limit=min_limit, cooldown_s=0.5,
        clock=lambda: now[0], on_change=changes.append,
    )

    def step(ok: bool, breach: bool) -> None:
        now[0] += 1.0
        # Saturate so under-SLO successes are eligible to probe up.
        held = 0
        while lim.inflight < lim.limit and lim.acquire(timeout=0):
            held += 1
        lim.on_result(0.001, ok=ok, breach=breach)
        for _ in range(held):
            lim.release()
        eff = lim.limit
        if not min_limit <= eff <= max_limit:
            failures.append(
                f"overload: limit {eff} left [{min_limit}, {max_limit}] "
                f"({config.label()})"
            )

    # Seeded mixed phase: the band invariant must hold throughout.
    for _ in range(40):
        step(ok=rng.random() < 0.7, breach=rng.random() < 0.3)
    # Breach storm drives the limit to the floor...
    for _ in range(2 * max_limit + 4):
        step(ok=False, breach=True)
    if lim.limit != min_limit:
        failures.append(
            f"overload: breach storm left limit at {lim.limit}, "
            f"expected floor {min_limit} ({config.label()})"
        )
    # ...and sustained under-SLO successes at saturation recover it.
    for _ in range(4 * max_limit * max_limit + 8):
        step(ok=True, breach=False)
    if lim.limit != max_limit:
        failures.append(
            f"overload: recovery left limit at {lim.limit}, "
            f"expected ceiling {max_limit} ({config.label()})"
        )
    if lim.backoffs == 0 or lim.probes == 0:
        failures.append(
            f"overload: trajectory never exercised both directions "
            f"(backoffs={lim.backoffs}, probes={lim.probes})"
        )
    for raw in changes:
        if not min_limit <= max(min_limit, int(raw)) <= max_limit:
            failures.append(
                f"overload: on_change mirrored out-of-band limit {raw}"
            )
    return failures


def _overload_budget_bound(config: VerifyConfig) -> list[str]:
    """The amplification bound holds at every point of a seeded stream."""
    import random

    from ..serve.adaptive import RetryBudget

    failures: list[str] = []
    rng = random.Random(config.data_seed ^ 0xB0D6)
    ratio = (1 + config.data_seed % 7) / 10.0
    budget = RetryBudget(ratio=ratio, cap=5.0)
    granted = 0
    for i in range(300):
        if rng.random() < 0.6:
            budget.deposit()
        else:
            granted += 1 if budget.try_spend() else 0
        if budget.tokens() < 0:
            failures.append(
                f"overload: budget balance went negative at op {i}"
            )
            break
        if budget.tokens() > budget.cap + 1e-9:
            failures.append(f"overload: budget balance exceeded its cap")
            break
        if not budget.amplification_bound_ok():
            failures.append(
                f"overload: amplification bound violated at op {i}: "
                f"units={budget.units} spent={budget.spent} ratio={ratio} "
                f"({config.label()})"
            )
            break
    if budget.spent != granted:
        failures.append(
            f"overload: spend ledger drifted ({budget.spent} != {granted})"
        )
    # Exhaustion is denied, not granted: an empty bucket must refuse.
    drained = RetryBudget(ratio=0.0, cap=1.0)
    drained.deposit()
    if drained.try_spend():
        failures.append("overload: zero-ratio budget granted a spend")
    if drained.denied != 1:
        failures.append(
            f"overload: denied counter is {drained.denied}, expected 1"
        )
    return failures


def _overload_retry_deadline(config: VerifyConfig) -> list[str]:
    """A backoff that cannot fit the deadline fails fast, without sleeping."""
    from ..resilience.retry import (
        RetryExhausted,
        RetryPolicy,
        call_with_retry,
    )

    failures: list[str] = []
    slept: list[float] = []
    now = [100.0]

    def boom():
        raise ValueError("always fails")

    policy = RetryPolicy(
        max_attempts=4, base_delay_s=10.0, max_delay_s=10.0, jitter=0.0
    )
    try:
        call_with_retry(
            boom, policy, scope="verify", label="overload.deadline",
            sleep=slept.append, deadline_at=now[0] + 1.0,
            clock=lambda: now[0],
        )
        failures.append("overload: deadline-capped retry returned a result")
    except RetryExhausted as exc:
        if exc.failures[-1].kind != "deadline":
            failures.append(
                f"overload: fail-fast kind is {exc.failures[-1].kind!r}, "
                f"expected 'deadline'"
            )
        if slept:
            failures.append(
                f"overload: retry slept {slept} past a deadline it could "
                f"not cover"
            )
    return failures


_FAMILY_CHECKS = {
    "bitwise": check_bitwise,
    "engines": check_engines,
    "invariants": check_invariants,
    "metamorphic": check_metamorphic,
    "cluster": check_cluster,
    "memo": check_memo,
    "overload": check_overload,
}
