"""Execution simulation of a workload on a simulated machine.

Two engines that must agree:

* :func:`estimate_workload` — closed-form phase analysis.  Within a
  phase of identical items on P threads, list scheduling runs rounds of
  P concurrent items; an item with compute time ``C`` and DRAM bytes
  ``B`` finishes in ``max(C, B·k/W(k))`` when ``k`` items share
  aggregate bandwidth ``W(k)``.  Exact for uniform phases (all of the
  paper's configurations) and instant at paper scale.
* :func:`simulate_workload` — event-driven fluid simulation with
  per-instant fair bandwidth sharing; handles arbitrary heterogeneous
  items and validates the closed form in tests.

Both charge each item's traffic at the per-thread cache capacity the
thread count implies — that coupling (more threads -> smaller L3 share
-> more traffic) is what breaks large-box scaling in the paper.

Both engines replay the workload's compressed ``phase_runs()``: each
distinct cycle of phases is costed once and replayed ``repeat`` times,
and the flops/bytes bookkeeping goes through one shared accumulation
loop so the two engines agree *bitwise* (asserted by
:mod:`repro.verify`).
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable

from ..obs import trace as _trace
from ..resilience import faults as _faults
from ..util.perf import perf
from .spec import MachineSpec
from .workload import Phase, WorkItem, Workload

__all__ = [
    "SimResult",
    "estimate_workload",
    "simulate_workload",
    "achieved_bandwidth",
    "clear_phase_cost_cache",
]


@dataclass
class SimResult:
    """Outcome of one simulated execution."""

    machine: str
    variant: str
    threads: int
    time_s: float
    flops: float
    dram_bytes: float
    phase_times: list[float] = field(default_factory=list)

    @property
    def gflops(self) -> float:
        return self.flops / self.time_s / 1e9 if self.time_s > 0 else 0.0

    @property
    def bandwidth_gbs(self) -> float:
        """Average achieved DRAM bandwidth over the run."""
        return self.dram_bytes / self.time_s / 1e9 if self.time_s > 0 else 0.0

    def speedup_over(self, other: "SimResult") -> float:
        """``other.time_s / self.time_s`` with the degenerate cases defined.

        Consistent with the zero guards on :attr:`gflops` and
        :attr:`bandwidth_gbs`: a NaN time on either side (e.g. a
        corrupted fault-injection result) propagates NaN; two zero-time
        runs tie at 1.0; a zero-time run is infinitely faster than a
        nonzero one (``inf``), and the reverse reads 0.0.
        """
        if math.isnan(self.time_s) or math.isnan(other.time_s):
            return math.nan
        if self.time_s > 0:
            return other.time_s / self.time_s
        return 1.0 if other.time_s == 0 else math.inf


# ------------------------------------------------------------------ item/phase costs
def _item_cost(item, machine: MachineSpec, threads: int) -> tuple[float, float]:
    """(compute seconds, DRAM bytes) of one item at this thread count."""
    rate = machine.thread_compute_rate(threads)
    cache = machine.cache_per_thread_bytes(threads)
    return item.flops / rate, item.traffic.dram_bytes(cache)


def _round_time(c: float, b: float, k: int, machine: MachineSpec) -> float:
    """Time for k identical concurrent items sharing bandwidth."""
    if k <= 0:
        return 0.0
    bw = machine.available_bw_gbs(k) * 1e9
    return max(c, b * k / bw) if bw > 0 else c


def _phase_totals(
    phase: Phase, machine: MachineSpec, threads: int
) -> tuple[float, float]:
    """(flops, DRAM bytes) bookkeeping for one phase.

    Both engines charge their totals through this one loop so their
    flops/bytes accounting is *bitwise* identical — same expressions in
    the same accumulation order — which is what the differential
    harness (:mod:`repro.verify`) asserts.
    """
    flops = 0.0
    total_bytes = 0.0
    for item, count in phase.groups:
        _, b = _item_cost(item, machine, threads)
        flops += item.flops * count
        total_bytes += b * count
    return flops, total_bytes


def _merged_groups(phase: Phase) -> list[tuple[WorkItem, int]]:
    """Groups merged by item content and sorted by content key.

    The canonical form behind :meth:`Phase.cost_key`: a phase split into
    several groups of one identical item is *uniform* for costing
    purposes, and any two phases with equal cost keys reduce to the
    same merged groups — so the memoized closed-form time can never
    depend on which of them computed it first.
    """
    merged: dict[tuple, list] = {}
    for item, count in phase.groups:
        k = item.structure_key
        rec = merged.get(k)
        if rec is None:
            merged[k] = [item, count]
        else:
            rec[1] += count
    return [
        (item, count)
        for _, (item, count) in sorted(merged.items(), key=lambda kv: kv[0])
    ]


def _estimate_phase_time(phase: Phase, machine: MachineSpec, threads: int) -> float:
    """Closed-form list-scheduling time for one phase."""
    groups = _merged_groups(phase)
    if len(groups) == 1:
        item, m = groups[0]
        c, b = _item_cost(item, machine, threads)
        full, rem = divmod(m, threads)
        t = full * _round_time(c, b, threads, machine)
        if rem:
            t += _round_time(c, b, rem, machine)
        return t
    # Heterogeneous phase: bound-based approximation (max of the
    # work-sharing bound, the bandwidth bound, and the largest item).
    # Every term is a true lower bound on the fluid simulation, so the
    # estimate never exceeds it: the largest item is charged at the
    # single-thread bandwidth share, which an item's fair share can
    # never beat (available_bw(k) <= k * available_bw(1)).
    total_c = 0.0
    total_bytes = 0.0
    max_item_t = 0.0
    m = 0
    for item, count in groups:
        c, b = _item_cost(item, machine, threads)
        total_c += c * count
        total_bytes += b * count
        max_item_t = max(max_item_t, _round_time(c, b, 1, machine))
        m += count
    k_typ = min(m, threads)
    bw = machine.available_bw_gbs(k_typ) * 1e9
    return max(total_c / threads, total_bytes / bw if bw > 0 else 0.0, max_item_t)


def _simulate_phase_time(phase: Phase, machine: MachineSpec, threads: int) -> float:
    """Event-driven fluid time for one phase (barrier excluded).

    Each running item holds remaining compute time and remaining bytes;
    at every instant the active items split the available bandwidth
    evenly, and compute and transfer overlap (an item completes when
    both are drained).
    """
    now = 0.0
    queue = phase.expand()
    running: list[list] = []  # [remaining_c, remaining_b]
    idx = 0
    while idx < len(queue) and len(running) < threads:
        c, b = _item_cost(queue[idx], machine, threads)
        running.append([c, b])
        idx += 1
    while running:
        k = len(running)
        bw = machine.available_bw_gbs(k) * 1e9
        share = bw / k if k else 0.0
        # Earliest completion under the current allocation.
        dt = min(
            max(rc, (rb / share) if share > 0 else 0.0)
            for rc, rb in running
        )
        dt = max(dt, 1e-15)
        still: list[list] = []
        for rec in running:
            rec[0] = max(0.0, rec[0] - dt)
            rec[1] = max(0.0, rec[1] - share * dt)
            if rec[0] > 1e-12 or rec[1] > 1e-3:
                still.append(rec)
        running = still
        now += dt
        while idx < len(queue) and len(running) < threads:
            c, b = _item_cost(queue[idx], machine, threads)
            running.append([c, b])
            idx += 1
    return now


# Process-wide phase-time caches.  A phase's content key determines its
# time exactly, so costs survive across engine calls — a thread sweep
# over one workload, or the same per-box phase appearing in other
# workloads, recompute nothing.  The estimator keys on the *canonical*
# cost key (group order and splitting are non-semantic for the closed
# form); the event-driven engine keys on the order-sensitive structural
# key, because its queue order follows group order.  Bounded FIFO;
# cleared by tests.
_PHASE_COST_CACHE: OrderedDict[tuple, float] = OrderedDict()
_SIM_PHASE_CACHE: OrderedDict[tuple, float] = OrderedDict()
_PHASE_COST_CACHE_MAX = 8192
_PHASE_COST_LOCK = threading.Lock()


def clear_phase_cost_cache() -> None:
    """Drop every memoized phase time (both engines' caches)."""
    with _PHASE_COST_LOCK:
        _PHASE_COST_CACHE.clear()
        _SIM_PHASE_CACHE.clear()


def _cached_phase_time(
    cache: OrderedDict,
    counter: str,
    key: tuple,
    compute: Callable[[], float],
) -> float:
    """Shared bounded-FIFO lookup for the two phase-time caches."""
    with _PHASE_COST_LOCK:
        t = cache.get(key)
        if t is not None:
            cache.move_to_end(key)
    if t is None:
        perf().inc(f"{counter}.misses")
        t = compute()
        with _PHASE_COST_LOCK:
            cache[key] = t
            while len(cache) > _PHASE_COST_CACHE_MAX:
                cache.popitem(last=False)
    else:
        perf().inc(f"{counter}.hits")
    return t


# ------------------------------------------------------------------ shared replay
def _replay_runs(
    workload: Workload,
    machine: MachineSpec,
    threads: int,
    phase_time: Callable[[Phase], float],
    counter: str,
) -> tuple[float, float, float, list[float]]:
    """(time, flops, bytes, phase_times) over the compressed phase runs.

    One accumulation loop serves both engines: each distinct cycle of
    phases is costed once (``phase_time`` supplies the engine-specific
    per-phase time) and replayed ``repeat`` times, with the flops/bytes
    charged through :func:`_phase_totals` in identical expression order
    — the basis of the engines' bitwise bookkeeping agreement.

    ``counter`` names the perf family (``phase_cache`` or
    ``sim_phase_cache``) whose hit/miss ratio measures the phase-cost
    memoization stack.  The counters track *logical* phase-cost
    requests — one per expanded phase — so the ``repeat`` compression
    here records ``len(cycle) * (repeat - 1)`` hits in bulk: those
    evaluations were avoided just as surely as a cache lookup.
    """
    time = 0.0
    flops = 0.0
    total_bytes = 0.0
    phase_times: list[float] = []
    barrier = machine.barrier_seconds(threads) if threads > 1 else 0.0
    for cycle, repeat in workload.phase_runs():
        cyc_t = 0.0
        cyc_f = 0.0
        cyc_b = 0.0
        times: list[float] = []
        for phase in cycle:
            f, b = _phase_totals(phase, machine, threads)
            t = phase_time(phase)
            if threads > 1:
                t += barrier
            cyc_t += t
            cyc_f += f
            cyc_b += b
            times.append(t)
        if repeat == 1:
            time += cyc_t
            flops += cyc_f
            total_bytes += cyc_b
            phase_times.extend(times)
        else:
            time += cyc_t * repeat
            flops += cyc_f * repeat
            total_bytes += cyc_b * repeat
            phase_times.extend(times * repeat)
            perf().inc(f"{counter}.hits", len(times) * (repeat - 1))
    return time, flops, total_bytes, phase_times


def _fault_site(workload: Workload, machine: MachineSpec, threads: int) -> str | None:
    """Fault-injection label for one engine call (None when inactive)."""
    if not _faults.plan_active():
        return None
    return f"{machine.name}:{workload.variant.short_name}:{threads}"


def _maybe_corrupt(result: SimResult, scope: str, label: str | None) -> SimResult:
    """Apply an output-corruption fault: flip the time to NaN."""
    if label is not None and _faults.take_corrupt(scope, None, label):
        result.time_s = float("nan")
        if result.phase_times:
            result.phase_times[0] = float("nan")
    return result


def _traced_engine(fn, name: str):
    """Wrap an engine entry point in an ``engine.*`` span when tracing.

    Pure observation: the wrapped call's result object is returned
    untouched; with tracing off the original function runs directly.
    """

    def run(workload: Workload, machine: MachineSpec, threads: int) -> SimResult:
        if not _trace.tracing_enabled():
            return fn(workload, machine, threads)
        with _trace.span(
            name,
            machine=machine.name,
            variant=workload.variant.short_name,
            threads=threads,
        ) as s:
            result = fn(workload, machine, threads)
            s.set_attr(
                model_time_s=result.time_s,
                model_dram_bytes=result.dram_bytes,
                model_flops=result.flops,
                phases=len(result.phase_times),
            )
            return result

    run.__name__ = fn.__name__
    run.__doc__ = fn.__doc__
    return run


def estimate_workload(
    workload: Workload, machine: MachineSpec, threads: int
) -> SimResult:
    """Closed-form execution estimate (exact for uniform phases)."""
    if threads > machine.max_threads:
        raise ValueError(
            f"{machine.name} supports at most {machine.max_threads} threads"
        )
    fault_label = _fault_site(workload, machine, threads)
    if fault_label is not None:
        _faults.perturb("estimate", None, fault_label)
    local: dict[tuple, float] = {}

    def phase_time(phase: Phase) -> float:
        ckey = phase.cost_key()
        t = local.get(ckey)
        if t is None:
            t = _cached_phase_time(
                _PHASE_COST_CACHE,
                "phase_cache",
                (machine, threads, ckey),
                lambda: _estimate_phase_time(phase, machine, threads),
            )
            local[ckey] = t
        else:
            perf().inc("phase_cache.hits")
        return t

    time, flops, total_bytes, phase_times = _replay_runs(
        workload, machine, threads, phase_time, "phase_cache"
    )
    result = SimResult(
        machine=machine.name,
        variant=workload.variant.label,
        threads=threads,
        time_s=time,
        flops=flops,
        dram_bytes=total_bytes,
        phase_times=phase_times,
    )
    return _maybe_corrupt(result, "estimate", fault_label)


def simulate_workload(
    workload: Workload, machine: MachineSpec, threads: int
) -> SimResult:
    """Event-driven fluid simulation with fair bandwidth sharing.

    Phases are barriers, so each phase's fluid time is a pure function
    of its structure — computed once per distinct phase (memoized
    process-wide, keyed on the order-sensitive structural key) and
    replayed across the workload's repeated cycles.
    """
    if threads > machine.max_threads:
        raise ValueError(
            f"{machine.name} supports at most {machine.max_threads} threads"
        )
    fault_label = _fault_site(workload, machine, threads)
    if fault_label is not None:
        _faults.perturb("simulate", None, fault_label)
    local: dict[tuple, float] = {}

    def phase_time(phase: Phase) -> float:
        skey = phase.structure_key()
        t = local.get(skey)
        if t is None:
            t = _cached_phase_time(
                _SIM_PHASE_CACHE,
                "sim_phase_cache",
                (machine, threads, skey),
                lambda: _simulate_phase_time(phase, machine, threads),
            )
            local[skey] = t
        else:
            perf().inc("sim_phase_cache.hits")
        return t

    time, flops, total_bytes, phase_times = _replay_runs(
        workload, machine, threads, phase_time, "sim_phase_cache"
    )
    result = SimResult(
        machine=machine.name,
        variant=workload.variant.label,
        threads=threads,
        time_s=time,
        flops=flops,
        dram_bytes=total_bytes,
        phase_times=phase_times,
    )
    return _maybe_corrupt(result, "simulate", fault_label)


# Engine calls appear as ``engine.estimate`` / ``engine.simulate``
# spans carrying the modeled time/traffic (see repro.obs).
estimate_workload = _traced_engine(estimate_workload, "engine.estimate")
simulate_workload = _traced_engine(simulate_workload, "engine.simulate")


def achieved_bandwidth(result: SimResult) -> float:
    """Convenience accessor matching the paper's VTune probes (GB/s)."""
    return result.bandwidth_gbs
