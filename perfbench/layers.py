"""Traced-run instrumentation: spans around the program's public calls.

The benchmark changes nothing in the program.  In a traced run it
rebinds a handful of public functions and methods to wrappers that
record a span around each call, and reads the program's own perf
counters (``repro.util.perf``) for cache hit ratios.  Untraced runs
never call :func:`instrument`; traced runs undo it to time the same
work without the wrappers.
"""

from __future__ import annotations

import functools
import sys

from common import Spans, median, ratio, tail

#: (module, attribute, span name) of the public functions wrapped in a
#: traced run.  Functions are rebound in every loaded ``repro`` module
#: that imported them by name, so internal callers are covered too.
FUNCTIONS = (
    ("repro.box.layout", "decompose_domain", "box.decompose"),
    ("repro.machine.workload", "build_workload", "machine.build_workload"),
    ("repro.machine.simulator", "estimate_workload", "machine.estimate"),
    ("repro.machine.simulator", "simulate_workload", "machine.simulate"),
    ("repro.cluster.decompose", "decompose_ranks", "cluster.decompose_ranks"),
    ("repro.cluster.halo", "halo_plan", "cluster.halo_plan"),
    ("repro.cluster.scaling", "cluster_step", "cluster.step"),
)

#: Cache families read from the perf counters, by metric name.
CACHE_RATIOS = {
    "machine.workload_cache.hit_ratio": ("workload_cache",),
    "machine.phase_cache.hit_ratio": ("phase_cache", "sim_phase_cache"),
    "util.arena.hit_ratio": ("arena",),
}


def _rebind(original, wrapper) -> None:
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def _wrap(fn, spans: Spans, span_name: str, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with spans.span(span_name):
            out = fn(*args, **kwargs)
        if after is not None:
            after(args, out)
        return out

    return wrapper


def instrument(spans: Spans):
    """Install span wrappers for every layer (traced runs only).

    Returns a function that puts the original functions and methods
    back, so untraced work can be timed in the same process.
    """
    import importlib

    from repro.box.copier import ExchangeCopier
    from repro.box.leveldata import LevelData

    def count_boxes(_args, layout):
        spans.count("box.boxes", len(layout))

    def count_exchange(args, _out):
        level = args[0]
        if level.ghost:
            spans.count("box.exchange_bytes",
                        level.copier().bytes_per_exchange(level.ncomp))

    undo = []
    for module, attr, span_name in FUNCTIONS:
        original = getattr(importlib.import_module(module), attr)
        after = count_boxes if span_name == "box.decompose" else None
        wrapper = _wrap(original, spans, span_name, after)
        _rebind(original, wrapper)
        undo.append(lambda o=original, w=wrapper: _rebind(w, o))

    for cls, attr, span_name, after in (
        (ExchangeCopier, "__init__", "box.copier_build", None),
        (LevelData, "fill_from_function", "box.fill", None),
        (LevelData, "exchange", "box.exchange", count_exchange),
    ):
        original = vars(cls)[attr]
        setattr(cls, attr, _wrap(original, spans, span_name, after))
        undo.append(lambda c=cls, a=attr, o=original: setattr(c, a, o))

    def uninstrument() -> None:
        for step in reversed(undo):
            step()

    return uninstrument


def cache_counters() -> dict:
    """Snapshot of every cache family's hit/miss counters."""
    from repro.util.perf import perf

    p = perf()
    fams = {f for group in CACHE_RATIOS.values() for f in group}
    return {f: (p.get(f"{f}.hits"), p.get(f"{f}.misses")) for f in fams}


def cache_ratios(before: dict, after: dict) -> dict:
    """Hit ratios of the caches that saw traffic between two snapshots."""
    out = {}
    for metric, fams in CACHE_RATIOS.items():
        hits = sum(after[f][0] - before[f][0] for f in fams)
        misses = sum(after[f][1] - before[f][1] for f in fams)
        if hits + misses:
            out[metric] = ratio(hits, hits + misses)
    return out


#: Busy-time metrics: metric name -> span name (totals over the run).
BUSY = {
    "box.decompose_s": "box.decompose",
    "box.copier_build_s": "box.copier_build",
    "box.fill_s": "box.fill",
    "box.exchange_s": "box.exchange",
    "machine.build_workload_s": "machine.build_workload",
    "cluster.decompose_ranks_s": "cluster.decompose_ranks",
    "cluster.halo_plan_s": "cluster.halo_plan",
    "cluster.step_s": "cluster.step",
}


def layer_metrics(spans: Spans) -> dict:
    """Per-layer metrics from the wrapped calls; a layer the run never
    reached has no entry."""
    out = {}
    for metric, name in BUSY.items():
        durations = spans.durations(name)
        if durations:
            out[metric] = sum(durations)
    for name in ("box.exchange_bytes", "box.boxes"):
        if name in spans.counts:
            out[name] = spans.counts[name]
    if "cluster.step_s" in out:
        out["cluster.steps"] = len(spans.durations("cluster.step"))
    for engine in ("estimate", "simulate"):
        ms = [d * 1e3 for d in spans.durations(f"machine.{engine}")]
        if ms:
            out[f"machine.{engine}_point_ms.p50"] = median(ms)
            out[f"machine.{engine}_point_ms.tail"] = tail(ms)[0]
    return out
