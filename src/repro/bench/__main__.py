"""CLI: regenerate the paper's tables and figures from the command line.

Usage::

    python -m repro.bench                  # everything
    python -m repro.bench fig1 fig10 table1 bandwidth fig9 fig2 ...
    python -m repro.bench --perf fig9      # append substrate perf counters
    python -m repro.bench --jobs 4 fig10   # grid fan-out width
    python -m repro.bench --journal J.jsonl fig9           # checkpoint grids
    python -m repro.bench --journal J.jsonl --resume fig9  # replay + remainder
    python -m repro.bench --trace out.json fig9    # Chrome/Perfetto trace
    python -m repro.bench --trace out.jsonl fig9   # flat JSONL trace
    python -m repro.bench --metrics M.json fig9    # metrics snapshot
    python -m repro.bench --trace out.json --attribution fig10
    python -m repro.bench --profile fig9           # cProfile top-25
    python -m repro.bench --profile=40 fig9        # cProfile top-40
"""

from __future__ import annotations

import sys

from .experiments import (
    desktop_bandwidth_probes,
    fig1_ghost_ratio,
    fig9_best_by_box_size,
    scaling_figure,
    schedule_figure,
    table1,
)
from .report import ascii_plot, format_series, format_table

__all__ = ["main"]


def _run(name: str) -> str:
    if name == "fig1":
        return format_series(fig1_ghost_ratio())
    if name in ("fig2", "fig3", "fig4"):
        d = scaling_figure(name)
        return format_series(d) + ascii_plot(d)
    if name == "table1":
        return format_table("Table I (N=128, T=16, C=5, P=1)", table1())
    if name == "fig9":
        return format_series(fig9_best_by_box_size())
    if name in ("fig10", "fig11", "fig12"):
        d = schedule_figure(name)
        return format_series(d) + ascii_plot(d)
    if name == "bandwidth":
        return format_table(
            "SVI-B desktop bandwidth probes (GB/s)", desktop_bandwidth_probes()
        )
    if name == "profile":
        return _bandwidth_profile_report()
    raise SystemExit(
        f"unknown experiment {name!r}; choose from fig1 fig2 fig3 fig4 "
        f"table1 fig9 fig10 fig11 fig12 bandwidth profile"
    )


def _bandwidth_profile_report() -> str:
    """§VI-B style VTune profile of baseline vs shift-fuse on the desktop."""
    from ..machine import IVY_DESKTOP, build_workload
    from ..machine.counters import profile_workload
    from ..schedules import Variant

    out = ["SVI-B: single-thread bandwidth profiles, Ivy Bridge desktop, N=128", ""]
    for label, variant in (
        ("baseline", Variant("series", "P>=Box", "CLO")),
        ("shift-fuse", Variant("shift_fuse", "P>=Box", "CLO")),
    ):
        profile = profile_workload(build_workload(variant, 128), IVY_DESKTOP, 1)
        out.append(
            f"{label}: mean {profile.mean_gbs():.1f} GB/s, "
            f"peak sustained {profile.peak_sustained_gbs():.1f} GB/s"
        )
        for s in profile.stretches(tolerance_gbs=0.5)[:6]:
            out.append(
                f"  [{s.start_s:7.3f}s +{s.duration_s:6.3f}s] {s.gbs:6.2f} GB/s"
            )
    out.append("")
    return "\n".join(out)


ALL = (
    "fig1", "fig2", "fig3", "fig4", "table1",
    "fig9", "fig10", "fig11", "fig12", "bandwidth", "profile",
)


def main(argv: list[str] | None = None) -> int:
    from ..util.perf import format_perf_report
    from .runner import set_grid_journal, set_grid_workers

    def _jobs(text: str) -> int:
        try:
            return max(1, int(text))
        except ValueError:
            raise SystemExit(f"--jobs needs an integer, got {text!r}")

    def _profile_top(text: str) -> int:
        try:
            return max(1, int(text))
        except ValueError:
            raise SystemExit(f"--profile needs an integer, got {text!r}")

    args = list(argv if argv is not None else sys.argv[1:])
    show_perf = False
    journal_path: str | None = None
    trace_path: str | None = None
    metrics_path: str | None = None
    profile_top = 0
    attribution = False
    resume = False
    names: list[str] = []
    i = 0
    while i < len(args):
        a = args[i]
        if a == "--perf":
            show_perf = True
        elif a == "--jobs":
            i += 1
            if i >= len(args):
                raise SystemExit("--jobs needs a worker count")
            set_grid_workers(_jobs(args[i]))
        elif a.startswith("--jobs="):
            set_grid_workers(_jobs(a.split("=", 1)[1]))
        elif a == "--journal":
            i += 1
            if i >= len(args):
                raise SystemExit("--journal needs a file path")
            journal_path = args[i]
        elif a.startswith("--journal="):
            journal_path = a.split("=", 1)[1]
        elif a == "--trace":
            i += 1
            if i >= len(args):
                raise SystemExit("--trace needs a file path")
            trace_path = args[i]
        elif a.startswith("--trace="):
            trace_path = a.split("=", 1)[1]
        elif a == "--metrics":
            i += 1
            if i >= len(args):
                raise SystemExit("--metrics needs a file path")
            metrics_path = args[i]
        elif a.startswith("--metrics="):
            metrics_path = a.split("=", 1)[1]
        elif a == "--profile":
            profile_top = 25
        elif a.startswith("--profile="):
            profile_top = _profile_top(a.split("=", 1)[1])
        elif a == "--attribution":
            attribution = True
        elif a == "--resume":
            resume = True
        elif a.startswith("-"):
            raise SystemExit(f"unknown flag {a!r}")
        else:
            names.append(a)
        i += 1
    if resume and journal_path is None:
        raise SystemExit("--resume requires --journal PATH")
    if attribution and trace_path is None:
        raise SystemExit("--attribution requires --trace PATH")
    journal = None
    if journal_path is not None:
        from ..resilience.journal import GridJournal

        journal = GridJournal(journal_path, resume=resume)
        set_grid_journal(journal)
    tracer = None
    if trace_path is not None:
        from ..obs import start_tracing

        tracer = start_tracing()
    profiler = None
    if profile_top:
        import cProfile

        profiler = cProfile.Profile()
    try:
        from ..obs import span

        for name in names or list(ALL):
            with span(f"bench.{name}"):
                if profiler is not None:
                    profiler.enable()
                    try:
                        text = _run(name)
                    finally:
                        profiler.disable()
                else:
                    text = _run(name)
                print(text)
    finally:
        if journal is not None:
            set_grid_journal(None)
            print(
                f"journal {journal.path}: {journal.hits} point(s) replayed, "
                f"{journal.written} computed"
            )
            journal.close()
        if tracer is not None:
            from ..obs import stop_tracing, write_chrome_trace, write_jsonl

            stop_tracing()
            if trace_path.endswith(".jsonl"):
                write_jsonl(trace_path, tracer)
            else:
                write_chrome_trace(trace_path, tracer)
            print(
                f"trace {trace_path}: {len(tracer.spans())} span(s), "
                f"{len(tracer.events())} event(s), "
                f"{len(tracer.samples())} sample(s)"
            )
        if metrics_path is not None:
            from ..obs import write_metrics
            from ..obs.metrics import default_registry

            write_metrics(metrics_path, default_registry())
            print(f"metrics {metrics_path}: registry snapshot written")
    if attribution and tracer is not None:
        from ..obs import attribution_rows, format_attribution

        print(format_attribution(attribution_rows(tracer)))
    if profiler is not None:
        import io
        import pstats

        buf = io.StringIO()
        stats = pstats.Stats(profiler, stream=buf)
        stats.sort_stats("cumulative").print_stats(profile_top)
        print(buf.getvalue().rstrip())
    if show_perf:
        print(format_perf_report())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
