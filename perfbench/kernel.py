"""``kernel``: the paper's own experiment, on real NumPy arrays.

One step of every Fig. 10 schedule that applies at the box size, over
one exemplar level, at 1 thread (``run_schedule_on_level``) and at 2
threads (``run_schedule_parallel``).  Four variants apply at N=16 and
seven at N=64.  Every output is compared bitwise with
``reference_on_level`` on the same input.  The seed fills the levels
with reproducible random state.
"""

from __future__ import annotations

import time

from common import (
    SETUP_REPEATS,
    HostProbe,
    Spans,
    cold_import_s,
    geomean,
    median,
    peak_rss_mb,
    quartile_geomeans,
)

THREADS = (1, 2)
#: What a cold start of this workload imports.
IMPORTS = ("numpy", "repro.box.leveldata", "repro.exemplar", "repro.parallel",
           "repro.schedules")


def _level_fill(domain_cells, seed: int):
    from repro.exemplar.state import random_initial_data

    data = random_initial_data(tuple(domain_cells), seed=seed)

    def fill(*grids_and_comp):
        *grids, comp = grids_and_comp
        return data[tuple(grids) + (comp,)]

    return fill


def setup_levels(cfg: dict, seed: int, spans: Spans) -> tuple[dict, dict]:
    """Layouts, exchanged inputs and reference outputs for each N.

    Returns ``(levels, reference_s)``; caches the program keeps across
    levels (the exchange-plan cache) are cleared first so every repeat
    pays the same cold cost.
    """
    from repro.box.copier import clear_copier_cache
    from repro.box.leveldata import LevelData
    from repro.exemplar import ExemplarProblem, reference_on_level

    clear_copier_cache()
    levels, reference_s = {}, {}
    for n_key, spec in cfg["levels"].items():
        with spans.span("kernel.setup_level", level=n_key):
            prob = ExemplarProblem(tuple(spec["domain"]), box_size=spec["box"])
            phi0 = LevelData(prob.layout, ncomp=prob.ncomp, ghost=prob.ghost)
            phi0.fill_from_function(_level_fill(spec["domain"], seed))
            phi0.exchange()
        t = time.perf_counter()
        with spans.span("exemplar.reference", level=n_key):
            ref = reference_on_level(phi0).to_global_array()
        reference_s[n_key] = time.perf_counter() - t
        levels[n_key] = (prob, phi0, ref)
    return levels, reference_s


def cells_to_run(cfg: dict) -> list[tuple[str, str, int]]:
    """Every (level, variant alias, threads) step, in a fixed order: the
    order sets which arrays are alive together, and so peak memory."""
    from repro.schedules.variants import figure_variants

    fig = figure_variants(cfg["figure"])
    by_alias = {alias: fig[label] for alias, label in cfg["variants"].items()}
    cells = [
        (n_key, alias, t)
        for n_key, spec in cfg["levels"].items()
        for alias, v in by_alias.items()
        if v.applicable_to_box(spec["box"])
        for t in THREADS
    ]
    return cells


def run(seed: int, seconds: float, traced: bool,
        cfg: dict | None = None) -> dict:
    import numpy as np

    from repro.parallel import run_schedule_parallel
    from repro.schedules import run_schedule_on_level
    from repro.schedules.variants import figure_variants

    import layers
    from common import config

    cfg = cfg or config()["kernel"]
    spans = Spans(traced)
    untraced = Spans(False)
    setups = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        levels, reference_s = setup_levels(cfg, seed, untraced)
        setups.append(time.perf_counter() - t)
    overhead = None
    if traced:
        # Set-ups without and with the span wrappers, alternated, price
        # the tracing; the wrappers then stay for the timed steps.
        timed_setups: dict[bool, list[float]] = {False: [], True: []}
        for _ in range(SETUP_REPEATS):
            for on in (False, True):
                uninstrument = layers.instrument(spans) if on else None
                t = time.perf_counter()
                levels, reference_s = setup_levels(cfg, seed,
                                                   spans if on else untraced)
                timed_setups[on].append(time.perf_counter() - t)
                if uninstrument is not None:
                    uninstrument()
        overhead = median(timed_setups[True]) / median(timed_setups[False])
        layers.instrument(spans)

    host = HostProbe()
    fig = figure_variants(cfg["figure"])
    variants = {alias: fig[label] for alias, label in cfg["variants"].items()}
    cells = cells_to_run(cfg)
    before = layers.cache_counters()

    passes: list[dict] = []
    failures: list[str] = []
    degraded = 0
    # The pass count depends only on ``seconds``, never on timings.
    for _ in range(max(1, round(seconds / cfg["pass_s"]))):
        step_s: dict[tuple, float] = {}
        for n_key, alias, threads in cells:
            prob, phi0, ref = levels[n_key]
            v = variants[alias]
            # Quick steps repeat until they add up to min_step_s; the
            # step's time is the median of its repeats.
            host.probe()
            times: list[float] = []
            while not times or (sum(times) < cfg["min_step_s"]
                                and len(times) < cfg["max_repeats"]):
                t = time.perf_counter()
                with spans.span("kernel.step", level=n_key, variant=alias,
                                threads=threads):
                    if threads == 1:
                        out = run_schedule_on_level(v, phi0)
                    else:
                        res = run_schedule_parallel(v, phi0, threads)
                        out = res.phi1
                        if res.degraded:
                            degraded += 1
                            failures.append(
                                f"{alias} {n_key} 2t degraded to a serial rerun")
                times.append(time.perf_counter() - t)
                if not np.array_equal(out.to_global_array(), ref):
                    failures.append(f"{alias} {n_key} {threads}t differs from reference")
            step_s[(n_key, alias, threads)] = median(times)
        passes.append(step_s)

    cells_of = {k: prob.total_cells() for k, (prob, _p, _r) in levels.items()}
    step_med = {c: median([p[c] for p in passes]) for c in passes[0]}
    mcells = {c: cells_of[c[0]] / s / 1e6 for c, s in step_med.items()}
    speedups = [
        step_med[(n, a, 1)] / step_med[(n, a, 2)]
        for (n, a, t) in step_med if t == 1
    ]
    # A request is one step of one cell; its latency is taken per Mcell
    # so that every variant, box size and thread count weighs the same.
    # The cells' per-Mcell times cluster by variant, so a plain median or
    # percentile would jump between clusters from run to run.
    central_ms, top_ms = quartile_geomeans(
        [p[c] * 1e3 * 1e6 / cells_of[c[0]] for p in passes for c in p])
    detail = {
        "passes": len(passes),
        "kernel.n16_mcells_per_s": geomean(
            [m for (n, _a, t), m in mcells.items() if n == "n16" and t == 1]),
        "kernel.n64_mcells_per_s": geomean(
            [m for (n, _a, t), m in mcells.items() if n == "n64" and t == 1]),
        "kernel.speedup_2t": geomean(speedups),
        "parallel.degraded_runs": degraded,
        "step_ms": {f"{n}.{a}.{t}t": round(s * 1e3, 3)
                    for (n, a, t), s in sorted(step_med.items())},
    }
    result = {
        "end_to_end": {
            "setup_s": cold_import_s(IMPORTS) + median(setups),
            "peak_rss_mb": peak_rss_mb(),
            "wall_s": geomean(step_med.values()),
            "p50_ms": central_ms,
            "tail_ms": top_ms,
        },
        "attempted": len(cells) * len(passes),
        "failures": failures,
        "detail": detail,
        "probe_s": host.median_s(),
    }
    if traced:
        layer = layers.layer_metrics(spans)
        layer.update(layers.cache_ratios(before, layers.cache_counters()))
        for n_key, secs in reference_s.items():
            layer[f"exemplar.reference.{n_key}.mcells_per_s"] = cells_of[n_key] / secs / 1e6
        for (n_key, alias, threads), m in mcells.items():
            if threads == 1:
                layer[f"schedules.{alias}.{n_key}.mcells_per_s"] = m
            else:
                layer[f"parallel.{alias}.{n_key}.mcells_per_s_2t"] = m
        layer["parallel.degraded_runs"] = degraded
        layer["obs.trace_overhead_ratio"] = overhead
        result["per_layer"] = layer
        result["spans"] = spans
    return result
