"""``serve``: open-loop load into an in-process ``JobService``.

One process generates the load.  Each phase of a run gets a fresh
service over cleared program caches and replays the same multiset of
jobs: a fixed, stratified pool of ``estimate`` and ``simulate`` point
jobs from the practical design space (see :func:`job_pool`), each job
``copies`` times.  With three copies two thirds of the jobs repeat an
earlier one, so the memo mostly reads.  The seed sets the arrival order
of the windows.  Keeping the multiset fixed keeps the work per phase
equal across seeds, so the spread between runs is the system's, not the
sample's.

* Bursts submit the whole multiset at once, in pool order, and time
  the drain, from the first submit to the last settle (``wall_s``), and
  each job from the first submit to its settle (``p50_ms`` and
  ``tail_ms``: the geometric means of the central half and of the
  slowest quarter of a burst's latencies, median over the bursts).
* Open-loop windows submit it on a fixed schedule at each rate in
  ``rates_hz``; each job is timed from its due time to its settle.
  The nominal-rate latencies come from the ``nominal_hz`` windows, run
  again while the run's time allows.  ``max_rate_hz`` is the highest
  rate whose tail, with shed and failed jobs counted as misses, meets
  ``latency_limit_ms`` and whose backlog drains within that limit.

A traced run adds one phase through the durable stack (two shards, a
WAL and a file-backed memo, jobs that never repeat) for the per-layer
shard, memo-write and log metrics.

Every served value, memo hits included, is compared bitwise with a
direct ``GridPoint.evaluate``, and the accounting identity
``ok+shed+degraded+failed+coalesced == submitted`` is checked after
each phase.
"""

from __future__ import annotations

import math
import os
import random
import shutil
import threading
import time
from dataclasses import replace

from common import (
    SETUP_REPEATS,
    HostProbe,
    Spans,
    cold_import_s,
    fresh_workdir,
    median,
    peak_rss_mb,
    quartile_geomeans,
    ratio,
    tail,
)
from sweep import clear_caches, design_space, strata

#: Outcome statuses that carry a value to check.
VALUED = ("ok", "degraded", "coalesced")
SHED_REASONS = ("queue_full", "byte_budget", "deadline", "shutdown")
PROBES_PER_PHASE = 5
#: What a cold start of this workload imports.
IMPORTS = ("numpy", "repro.bench.runner", "repro.machine.workload", "repro.serve")


def job_pool(per_stratum: dict) -> list[tuple[str, object]]:
    """``per_stratum[kind]`` points of every machine x box-size stratum,
    as ``kind`` jobs.

    Each stratum is ordered by its workloads' phase count, which sets
    both the engine's work and the size of the result the memo stores,
    and the points at the midpoints of ``count`` equal slices are
    taken, so the pool spans small and large results alike.
    """
    from repro.machine.workload import build_workload

    def size(p):
        wl = build_workload(p.variant, p.box_size, p.domain_cells, p.ncomp,
                            len(p.domain_cells))
        return (len(wl.phases), p.threads, p.variant.short_name)

    pool = []
    for group in strata(design_space()).values():
        ordered = sorted(group, key=size)
        for kind, count in per_stratum.items():
            step = len(ordered) / count
            pool += [(kind, replace(ordered[int((i + 0.5) * step)], engine=kind))
                     for i in range(count)]
    return pool


class Job:
    __slots__ = ("kind", "point", "due", "late_s", "settled", "outcome")

    def __init__(self, kind, point, due):
        self.kind, self.point, self.due = kind, point, due
        self.late_s = 0.0
        self.settled = math.nan
        self.outcome = None

    @property
    def latency_ms(self) -> float:
        return (self.settled - self.due) * 1e3


def _submit(svc, job: Job, spans: Spans) -> threading.Thread | None:
    """Submit one job; a waiter thread stamps its settle time."""
    from repro.serve import JobSpec

    job.late_s = time.perf_counter() - job.due
    with spans.span("serve.submit"):
        ticket = svc.submit(JobSpec(job.kind, job.point))

    def wait():
        job.outcome = ticket.result(timeout=120)
        job.settled = time.perf_counter()

    if ticket.done():
        wait()
        return None
    th = threading.Thread(target=wait, daemon=True)
    th.start()
    return th


def _drain(threads) -> None:
    end = time.perf_counter() + 120
    for th in threads:
        if th is not None:
            th.join(max(0.0, end - time.perf_counter()))


def burst(svc, jobs, spans: Spans) -> tuple[list[Job], float]:
    start = time.perf_counter()
    batch = [Job(kind, p, start) for kind, p in jobs]
    _drain([_submit(svc, j, spans) for j in batch])
    return batch, max(j.settled for j in batch) - start


def open_loop(svc, jobs, rate_hz: float, spans: Spans) -> tuple[list[Job], float]:
    """Submit on a fixed schedule; returns the jobs and the time the
    backlog took to drain after the last due time."""
    start = time.perf_counter() + 0.005
    batch, threads = [], []
    for i, (kind, p) in enumerate(jobs):
        due = start + i / rate_hz
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        job = Job(kind, p, due)
        batch.append(job)
        threads.append(_submit(svc, job, spans))
    _drain(threads)
    last_due = start + (len(jobs) - 1) / rate_hz
    return batch, max(j.settled for j in batch) - last_due


def _bits(r) -> tuple:
    import numpy as np

    return (r.machine, r.variant, r.threads, float(r.time_s).hex(),
            float(r.flops).hex(), float(r.dram_bytes).hex(),
            np.asarray(r.phase_times, dtype=np.float64).tobytes())


def fresh_service(cfg: dict, workdir, tag: str):
    """Cold caches, every design-space workload built (as a running
    service would have them), and a started service."""
    from repro.machine.workload import build_workload
    from repro.serve import JobService

    clear_caches()
    for p in design_space():
        build_workload(p.variant, p.box_size, p.domain_cells, p.ncomp,
                       len(p.domain_cells))
    kw = dict(workers=cfg["workers"], queue_limit=cfg["queue_limit"])
    if cfg.get("shards"):
        kw.update(shards=cfg["shards"], wal=str(workdir / f"wal-{tag}.jsonl"),
                  memo=str(workdir / f"memo-{tag}.jsonl"))
    else:
        kw.update(memo=True)
    return JobService(**kw).start()


def run(seed: int, seconds: float, traced: bool,
        cfg: dict | None = None) -> dict:
    import layers
    from common import config

    cfg = cfg or config()["serve"]
    workdir = fresh_workdir("serve")
    spans = Spans(traced)
    rng = random.Random(seed)
    pool = job_pool(cfg["per_stratum"])

    def jobs():
        batch = pool * cfg["copies"]
        rng.shuffle(batch)
        return batch

    # Bursts replay the multiset in pool order, so every burst does the
    # same work: with shuffled copies, whether a repeat coalesces, hits
    # the memo or runs again would change from burst to burst.
    in_order = pool * cfg["copies"]

    setups = []
    for rep in range(SETUP_REPEATS):
        t = time.perf_counter()
        svc = fresh_service(cfg, workdir, f"setup{rep}")
        setups.append(time.perf_counter() - t)
        svc.stop()

    failures: list[str] = []
    phases: list[dict] = []

    host = HostProbe()

    def phase(tag: str, drive, service_cfg: dict = cfg) -> dict:
        # Probe the host between phases only: inside one, the probe would
        # compete with the service for the interpreter.
        for _ in range(PROBES_PER_PHASE):
            host.probe()
        svc = fresh_service(service_cfg, workdir, tag)
        try:
            batch, drain_s = drive(svc)
            accounted = svc.accounted()
        finally:
            svc.stop()
        stats = svc.stats()
        settled = sum(1 for j in batch if j.outcome is not None)
        if not accounted or settled != len(batch) or (
                stats["counts"]["submitted"] != len(batch)):
            failures.append(f"accounting identity broken in {tag}")
        record = {"tag": tag, "jobs": batch, "drain_s": drain_s, "stats": stats}
        phases.append(record)
        return record

    overhead = before = None
    if traced:
        before = layers.cache_counters()
    # Bursts; a traced run alternates bursts without and with the span
    # wrappers to price tracing, and keeps the wrappers from then on.
    drains: dict[bool, list[float]] = {False: [], True: []}
    for b in range(cfg["bursts"]):
        for on in (False, True) if traced else (False,):
            spans.enabled = on
            uninstrument = layers.instrument(spans) if on else None
            tag = f"{'traced-' if on else ''}burst{b}"
            drains[on].append(
                phase(tag, lambda svc: burst(svc, in_order, spans))["drain_s"])
            if uninstrument is not None:
                uninstrument()
    if traced:
        overhead = median(drains[True]) / median(drains[False])
        layers.instrument(spans)

    windows: dict[float, list[dict]] = {}
    nominal = cfg["nominal_hz"]
    for r in cfg["rates_hz"]:
        windows[r] = [phase(f"window{r}", lambda svc: open_loop(svc, jobs(), r, spans))]
    # Further nominal windows fill the run; their number depends only on
    # the configuration and ``seconds``, so every run has the same.
    window_s = len(pool) * cfg["copies"] / nominal
    for extra in range(int(max(0.0, seconds - cfg["fixed_s"]) // window_s) - 1):
        windows[nominal].append(phase(
            f"window{nominal}-{extra + 1}",
            lambda svc: open_loop(svc, jobs(), nominal, spans)))

    durable = None
    if traced:
        # The durable stack (shards, WAL, file-backed memo) is measured per
        # layer only: one open-loop window of jobs that never repeat.  Its
        # latency drifts too much on a small shared host to gate on.
        dcfg = {**cfg, **config()["durable_phase"]}
        dpool = job_pool(dcfg["per_stratum"])
        rng.shuffle(dpool)
        durable = phase("durable", lambda svc: open_loop(
            svc, dpool, dcfg["rate_hz"], spans), dcfg)

    all_jobs = [j for p in phases for j in p["jobs"]]
    after = layers.cache_counters() if traced else None
    spans.enabled = False  # the direct evaluations below are checks, not load
    direct_s = _check_values(all_jobs, failures)

    limit = cfg["latency_limit_ms"]
    per_rate = {}
    for r, recs in windows.items():
        lat = [j.latency_ms if j.outcome.status in VALUED else math.inf
               for rec in recs for j in rec["jobs"]]
        drain_ms = max(rec["drain_s"] for rec in recs) * 1e3
        t_ms = tail(lat)[0]
        per_rate[r] = {
            "windows": len(recs), "jobs": len(lat), "p50_ms": median(lat),
            "tail_ms": t_ms, "drain_ms": drain_ms,
            "shed": sum(1 for rec in recs for j in rec["jobs"]
                        if j.outcome.status == "shed"),
            "meets_limit": t_ms <= limit and drain_ms <= limit,
        }
    met = [r for r in cfg["rates_hz"] if per_rate[r]["meets_limit"]]
    nominal_jobs = [j for rec in windows[nominal] for j in rec["jobs"]]
    for j in nominal_jobs:
        if j.outcome.status not in ("ok", "coalesced"):
            failures.append(f"{j.kind} job settled {j.outcome.status} "
                            f"({j.outcome.reason}) at the nominal rate")
    nominal_ms = [j.latency_ms for j in nominal_jobs if j.outcome.status in VALUED]
    # The gated latencies are those of the bursts: a job's time from the
    # burst's start to its settle, as quartile geometric means (a single
    # high percentile jumps from run to run), median over the bursts.
    # Open-loop latencies at the nominal rate spread up to a third of
    # their median over ten seeds on a shared host, so they are printed
    # by their own names and not gated.
    per_burst = [quartile_geomeans([j.latency_ms for j in p["jobs"]
                                    if j.outcome.status in VALUED])
                 for p in phases if p["tag"].startswith("burst")]
    detail = {
        "serve.p50_ms": median(nominal_ms),
        "serve.tail_ms": tail(nominal_ms)[0],
        "serve.max_rate_hz": max(met) if met else 0.0,
        "nominal_samples": len(nominal_ms),
        "tail_percentile": tail(nominal_ms)[1],
        "distinct_jobs": len(pool),
        "rates": per_rate,
    }
    result = {
        "end_to_end": {
            "setup_s": cold_import_s(IMPORTS) + median(setups),
            "peak_rss_mb": peak_rss_mb(include_children=True),
            "wall_s": median(drains[False]),
            "p50_ms": median([c for c, _t in per_burst]),
            "tail_ms": median([t for _c, t in per_burst]),
        },
        "attempted": len(all_jobs),
        "failures": failures,
        "detail": detail,
        "probe_s": host.median_s(),
    }
    if traced:
        layer = layers.layer_metrics(spans)
        layer.update({k: v for k, v in layers.cache_ratios(before, after).items()
                      if k.startswith("machine.")})
        traced_phases = [p for p in phases
                         if p["tag"].startswith(("traced-", "window"))]
        layer.update(_serve_layers(spans, traced_phases, windows, cfg, seed))
        layer.update(_durable_layers(durable, direct_s, workdir, seed))
        layer["obs.trace_overhead_ratio"] = overhead
        result["per_layer"] = layer
        result["spans"] = spans
    shutil.rmtree(workdir, ignore_errors=True)
    return result


def _check_values(jobs: list[Job], failures: list[str]) -> dict:
    """Compare every served value with a direct evaluation; returns the
    direct evaluation time of each (engine, point)."""
    direct, direct_s = {}, {}
    for job in jobs:
        out = job.outcome
        if out is None or out.status not in VALUED:
            continue
        engine = out.degraded_to or job.kind
        key = (engine, job.point)
        if key not in direct:
            t = time.perf_counter()
            direct[key] = _bits(job.point.evaluate(engine=engine))
            direct_s[key] = time.perf_counter() - t
        if _bits(out.value) != direct[key]:
            failures.append(f"served {job.kind} value differs from direct evaluate")
    return direct_s


def _serve_layers(spans, phases, windows, cfg, seed) -> dict:
    """Per-layer metrics of the in-process serve stack."""
    jobs = [j for p in phases for j in p["jobs"]]
    window_jobs = [j for recs in windows.values() for rec in recs for j in rec["jobs"]]
    nominal = {id(j) for rec in windows[cfg["nominal_hz"]] for j in rec["jobs"]}
    out: dict = {}
    submit_us = [d * 1e6 for d in spans.durations("serve.submit")]
    out["serve.submit_us.p50"] = median(submit_us)
    out["serve.submit_us.tail"] = tail(submit_us)[0]
    executed = _executed(jobs)
    waits = [j.latency_ms - j.outcome.elapsed_s * 1e3 for j in executed
             if id(j) in nominal]
    if waits:
        out["serve.queue_wait_ms.p50"] = median(waits)
        out["serve.queue_wait_ms.tail"] = tail(waits)[0]
    for kind in ("estimate", "simulate"):
        ms = [j.outcome.elapsed_s * 1e3 for j in executed if j.kind == kind]
        if ms:
            out[f"serve.exec_ms.{kind}.p50"] = median(ms)
            out[f"serve.exec_ms.{kind}.tail"] = tail(ms)[0]
    out["serve.generator_late_ms.max"] = max(j.late_s for j in window_jobs) * 1e3

    stats = [p["stats"] for p in phases]
    for reason in SHED_REASONS:
        out[f"serve.shed.{reason}"] = sum(s["shed_reasons"].get(reason, 0)
                                          for s in stats)
    out["serve.coalesced"] = sum(s["counts"]["coalesced"] for s in stats)
    out["serve.degraded"] = sum(s["counts"]["degraded"] for s in stats)
    out["serve.queue_high_water"] = max(s["queue"]["high_water"] for s in stats)
    hits = sum(s["memo"]["hits"] for s in stats)
    misses = sum(s["memo"]["misses"] for s in stats)
    out["serve.memo.hit_ratio"] = ratio(hits, hits + misses)
    out["resilience.retries"] = sum(1 for j in jobs for f in j.outcome.failures
                                    if f.recovered)
    return out


def _executed(jobs: list[Job]) -> list[Job]:
    """Jobs that ran an engine (not memo hits, coalesced or shed)."""
    return [j for j in jobs if j.outcome.status in ("ok", "degraded")
            and not j.outcome.cached]


def _durable_layers(durable: dict, direct_s: dict, workdir, seed) -> dict:
    """Per-layer metrics of the durable stack: memo writes, shard
    transport, the WAL and the memo log."""
    from repro.serve import MemoStore, canonical_job_key, replay_wal_state

    out: dict = {}
    jobs = durable["jobs"]
    executed = _executed(jobs)
    # Memo timings: replay the phase's keys and results, in a seeded
    # order, through the public key function and a separate file-backed
    # store.
    sample = [(j.kind, j.point, j.outcome.value) for j in executed]
    random.Random(seed).shuffle(sample)
    key_us, put_ms, get_ms = [], [], []
    with MemoStore(path=str(workdir / "memo-replay.jsonl")) as store:
        for kind, point, value in sample:
            t = time.perf_counter()
            key = canonical_job_key(kind, point)
            key_us.append((time.perf_counter() - t) * 1e6)
            t = time.perf_counter()
            store.put(key, kind, value)
            put_ms.append((time.perf_counter() - t) * 1e3)
            t = time.perf_counter()
            store.get(key)
            get_ms.append((time.perf_counter() - t) * 1e3)
        st = store.stats()
    out["serve.memo.bytes_per_entry"] = ratio(st["bytes"], st["entries"])
    out["serve.memo.key_us"] = median(key_us)
    out["serve.memo.put_ms.p50"] = median(put_ms)
    out["serve.memo.put_ms.tail"] = tail(put_ms)[0]
    out["serve.memo.get_ms.p50"] = median(get_ms)
    out["serve.memo.get_ms.tail"] = tail(get_ms)[0]

    shards = durable["stats"]["shards"]
    out["serve.shards.restarts"] = shards["restarts_total"]
    out["serve.shards.leases_orphaned"] = shards["leases"]["orphaned"]
    out["serve.shards.transport_ms"] = median(
        [j.outcome.elapsed_s * 1e3 - direct_s[(j.kind, j.point)] * 1e3
         for j in executed])
    wal = workdir / "wal-durable.jsonl"
    out["resilience.wal_bytes_per_job"] = os.path.getsize(wal) / len(jobs)
    out["resilience.memo_log_bytes_per_job"] = (
        os.path.getsize(workdir / "memo-durable.jsonl") / len(jobs))
    t = time.perf_counter()
    replay_wal_state(str(wal))
    out["resilience.wal_replay_s"] = time.perf_counter() - t
    return out
