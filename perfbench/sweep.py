"""``model_sweep``: cold batch runs of the paper's model, no real arrays.

Each pass runs in a fresh interpreter, so every cache starts cold,
including the few with no public ``clear_*`` function; the public ones
are also cleared before each phase.  A pass has three phases:

(a) every figure, table and text probe of ``python -m repro.bench``,
    each checked against its digest in ``config.json``;
(b) the practical design space through ``run_grid``, one figure line
    (a variant's thread sweep on one machine at one box size) per call:
    practical variants x the three paper machines x their thread points
    x box sizes 16-128, all under ``estimate``, and one thread count of
    every line under ``simulate``, the lines in a seeded order;
(c) ``repro.cluster`` weak and strong sweeps to 64 nodes, one row per
    node count.

Run as a script it performs one pass and prints its JSON record; the
benchmark's ``run.py`` starts as many passes as ``pass_s`` fits into the
run's seconds.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
import subprocess
import sys
import time
from contextlib import redirect_stdout

from common import (
    HERE,
    HostProbe,
    Spans,
    add_source_path,
    cold_import_s,
    config,
    geomean,
    median,
    peak_rss_mb,
    quartile_geomeans,
)

FIGURES = ("fig1", "fig2", "fig3", "fig4", "table1", "fig9", "fig10",
           "fig11", "fig12", "bandwidth", "profile")
NODE_COUNTS = (1, 2, 4, 8, 16, 32, 64)
#: What a cold start of a pass imports.
IMPORTS = ("numpy", "layers", "repro.bench.__main__", "repro.bench.runner",
           "repro.cluster", "repro.machine.spec")
#: Untraced/traced pass pairs that price the tracing in a traced run.
OVERHEAD_PAIRS = 3


def design_space():
    from repro.bench.runner import GridPoint, machine_thread_points
    from repro.exemplar import PAPER_BOX_SIZES
    from repro.machine.spec import IVY_BRIDGE, MAGNY_COURS, SANDY_BRIDGE
    from repro.schedules.variants import practical_variants

    return [
        GridPoint(v, m, t, n)
        for m in (MAGNY_COURS, IVY_BRIDGE, SANDY_BRIDGE)
        for n in PAPER_BOX_SIZES
        for v in practical_variants()
        if v.applicable_to_box(n)
        for t in machine_thread_points(m)
    ]


def strata(points) -> dict:
    """Points grouped by (machine, box size)."""
    out: dict = {}
    for p in points:
        out.setdefault((p.machine.name, p.box_size), []).append(p)
    return out


def lines(points) -> dict:
    """Points grouped into figure lines: one variant's thread sweep on
    one machine at one box size."""
    out: dict = {}
    for p in points:
        out.setdefault((p.machine.name, p.box_size, p.variant.short_name),
                       []).append(p)
    return out


def simulate_sample(points) -> dict:
    """One thread count of every line, as a simulate point: every variant
    is simulated on every machine at every box size, and the thread
    counts rotate through each machine's thread points line by line."""
    from dataclasses import replace

    return {key: [replace(line[i % len(line)], engine="simulate")]
            for i, (key, line) in enumerate(lines(points).items())}


def shuffled(groups: dict, seed: int) -> dict:
    """The same groups in a seeded order: which request pays a cold
    cache depends on the order, the total work does not."""
    keys = list(groups)
    random.Random(seed).shuffle(keys)
    return {k: groups[k] for k in keys}


def figure_failure(name: str, text: str, digests: dict) -> str | None:
    """A violation when a figure's text does not match its digest."""
    digest = hashlib.sha256(text.encode()).hexdigest()
    if digest != digests.get(name):
        return f"figure {name}: digest {digest[:16]} differs"
    return None


def clear_caches() -> None:
    from repro.box.copier import clear_copier_cache
    from repro.cluster import clear_halo_cache
    from repro.machine.simulator import clear_phase_cost_cache
    from repro.machine.workload import clear_workload_cache
    from repro.util.arena import clear_arena

    clear_workload_cache()
    clear_phase_cost_cache()
    clear_copier_cache()
    clear_halo_cache()
    clear_arena()


def one_pass(seed: int, traced: bool) -> dict:
    """One cold pass; returns the JSON-safe record the parent folds."""
    add_source_path()
    from repro.bench.__main__ import main as bench_main
    from repro.bench.runner import run_grid
    from repro.cluster import strong_scaling, weak_scaling
    from repro.machine.spec import MAGNY_COURS

    import layers

    cfg = config()["model_sweep"]
    spans = Spans(traced)
    if traced:
        layers.instrument(spans)
    before = layers.cache_counters()
    items: list[tuple[str, str, float]] = []
    failures: list[str] = []
    counts = {"figures": 0, "estimate_points": 0, "simulate_points": 0,
              "cluster_steps": 0}

    host = HostProbe(every_s=0.25)

    def timed(phase: str, name: str, fn):
        host.probe()
        t = time.perf_counter()
        with spans.span(f"{phase}.{name}"):
            out = fn()
        items.append((phase, name, time.perf_counter() - t))
        return out

    # (a) figures, tables, text probes
    clear_caches()
    for name in FIGURES:
        buf = io.StringIO()

        def regenerate(name=name, buf=buf):
            with redirect_stdout(buf):
                bench_main([name])

        timed("figure", name, regenerate)
        counts["figures"] += 1
        bad = figure_failure(name, buf.getvalue(), cfg["figure_digests"])
        if bad:
            failures.append(bad)

    # (b) the design space under both engines
    points = design_space()
    groups = {
        "estimate": shuffled(lines(points), seed),
        "simulate": shuffled(simulate_sample(points), seed + 1),
    }
    grid_failures = 0
    for engine, by_line in groups.items():
        clear_caches()
        for (machine, n, variant), chunk in by_line.items():
            with spans.span("bench.run_grid"):
                res = timed(engine, f"{machine}.n{n}.{variant}",
                            lambda chunk=chunk: run_grid(chunk))
            counts[f"{engine}_points"] += len(chunk)
            bad = sum(1 for r in res if r is None or not math.isfinite(r.time_s))
            bad += sum(1 for f in res.failures if not f.recovered)
            grid_failures += bad
            if bad:
                failures.append(f"{engine} {machine} N={n} {variant}: "
                                f"{bad} point(s) failed")

    # (c) cluster weak and strong sweeps, one row per node count
    clear_caches()
    for kind, sweep in (("weak", weak_scaling), ("strong", strong_scaling)):
        for nodes in NODE_COUNTS:
            rows = timed("cluster", f"{kind}.{nodes}",
                         lambda sweep=sweep, nodes=nodes:
                         sweep([nodes], machine=MAGNY_COURS))
            for row in rows:
                for name, step in row["variants"].items():
                    counts["cluster_steps"] += 1
                    if not (math.isfinite(step["step_s"]) and step["step_s"] > 0):
                        failures.append(f"cluster {kind} {nodes} {name}: bad step")

    phase_s: dict[str, float] = {}
    for phase, _name, secs in items:
        phase_s[phase] = phase_s.get(phase, 0.0) + secs
    record = {
        "items": items,
        "phase_s": phase_s,
        "counts": counts,
        "failures": failures,
        "grid_failures": grid_failures,
        "attempted": sum(counts.values()),
        "rss_mb": peak_rss_mb(),
        "probe_s": host.median_s(),
    }
    if traced:
        layer = layers.layer_metrics(spans)
        layer.update(layers.cache_ratios(before, layers.cache_counters()))
        layer["bench.run_grid_s"] = spans.total("bench.run_grid")
        layer["bench.grid_failures"] = grid_failures
        for name in FIGURES:
            layer[f"bench.figure.{name}_s"] = spans.total(f"figure.{name}")
        record["layers"] = layer
        record["spans"] = spans
    return record


def _child(seed: int, traced: bool) -> dict:
    """Run one pass in a fresh interpreter and parse its record."""
    cmd = [sys.executable, str(HERE / "sweep.py"), str(seed), str(int(traced))]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(
            f"sweep pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run(seed: int, seconds: float, traced: bool) -> dict:
    """Cold passes until ``seconds`` are spent (at least one)."""
    passes, plain = [], []
    overhead = None
    if traced:
        # Untraced and traced passes of the same work, alternated: the
        # ratio of their medians is the tracing cost.
        for _ in range(OVERHEAD_PAIRS):
            plain.append(_child(seed, False))
            passes.append(_child(seed, True))
        overhead = (median([sum(p["phase_s"].values()) for p in passes])
                    / median([sum(p["phase_s"].values()) for p in plain]))
    else:
        # The pass count depends only on ``seconds``, never on timings.
        for _ in range(max(1, round(seconds / config()["model_sweep"]["pass_s"]))):
            passes.append(_child(seed, False))

    failures = [f for p in passes + plain for f in p["failures"]]
    phase = {k: median([p["phase_s"][k] for p in passes])
             for k in passes[0]["phase_s"]}
    # A request is one item of a phase (a figure, a figure line, a
    # cluster row).  Phases differ in their items' cost by orders of
    # magnitude, so each phase's median and tail weigh the same; within a
    # phase, item times cluster (cache hits, node counts), so each phase
    # reports quartile geometric means rather than single order statistics.
    item_ms: dict[str, list[float]] = {}
    for p in passes:
        for ph, _name, secs in p["items"]:
            item_ms.setdefault(ph, []).append(secs * 1e3)
    counts = passes[0]["counts"]
    detail = {
        "passes": len(passes),
        "sweep.figures_s": phase["figure"],
        "sweep.estimate_points_per_s": counts["estimate_points"] / phase["estimate"],
        "sweep.simulate_points_per_s": counts["simulate_points"] / phase["simulate"],
        "sweep.cluster_steps_per_s": counts["cluster_steps"] / phase["cluster"],
        "item_ms": {ph: quartile_geomeans(ms) for ph, ms in item_ms.items()},
    }
    result = {
        "end_to_end": {
            "setup_s": cold_import_s(IMPORTS),
            "peak_rss_mb": max(p["rss_mb"] for p in passes),
            "wall_s": median([sum(p["phase_s"].values()) for p in passes]),
            "p50_ms": geomean([detail["item_ms"][ph][0] for ph in item_ms]),
            "tail_ms": geomean([detail["item_ms"][ph][1] for ph in item_ms]),
        },
        "attempted": sum(p["attempted"] for p in passes + plain),
        "failures": failures,
        "detail": detail,
        "probe_s": median([p["probe_s"] for p in passes]),
    }
    if traced:
        layer = dict(passes[0]["layers"])
        layer["obs.trace_overhead_ratio"] = overhead
        result["per_layer"] = layer
    return result


def _main(argv: list[str]) -> int:
    seed, traced = int(argv[0]), bool(int(argv[1]))
    record = one_pass(seed, traced)
    spans = record.pop("spans", None)
    if spans is not None:
        from common import WORK

        spans.dump(WORK / f"trace-model_sweep-{seed}.json")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
