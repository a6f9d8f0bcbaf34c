"""Shared pieces of the benchmark: paths, spans, statistics, output.

Nothing here imports ``repro``; the workload modules do, after
:func:`add_source_path` has put the checkout's ``src/`` on ``sys.path``.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for WAL/memo files and trace dumps; removed per run
#: except for the trace dumps, which are the traced run's output.
WORK = ROOT / ".perfbench"
#: Cold set-ups timed per run; ``setup_s`` is built from their medians.
SETUP_REPEATS = 7


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (missing sources or config)."""


def add_source_path() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"no program sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_json(path: Path) -> dict:
    if not path.is_file():
        raise SetupError(f"missing {path}")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def config() -> dict:
    return load_json(HERE / "config.json")


def declared_metrics() -> dict:
    """``{"end_to_end": {name: spec}, "per_layer": {name: spec}}``."""
    bench = load_json(ROOT / "BENCHMARK.json")
    return {
        group: {m["name"]: m for m in bench[group]}
        for group in ("end_to_end", "per_layer")
    }


# ------------------------------------------------------------------ spans
class Spans:
    """In-memory span recorder with per-thread parent tracking.

    A disabled recorder yields without recording, so untraced runs pay
    one attribute read per boundary.  Records are plain tuples
    ``(id, parent, name, start_s, end_s, thread, attrs)`` kept in a list
    (appends are atomic under the interpreter lock) and written out
    once, at the end of the run.
    """

    def __init__(self, enabled: bool):
        self.enabled = bool(enabled)
        self.records: list[tuple] = []
        self.counts: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield attrs
            return
        stack = self._local.__dict__.setdefault("stack", [])
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            self.records.append(
                (sid, parent, name, start, end, threading.get_ident(), attrs)
            )

    def count(self, name: str, amount: float = 1) -> None:
        if self.enabled:
            with self._lock:
                self.counts[name] = self.counts.get(name, 0) + amount

    def durations(self, name: str) -> list[float]:
        return [r[4] - r[3] for r in self.records if r[2] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_times(self) -> dict[str, float]:
        """Per span name: duration minus the time its children cover."""
        child_time: dict[int, float] = {}
        for sid, parent, _name, start, end, _tid, _a in self.records:
            if parent:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        out: dict[str, float] = {}
        for sid, _p, name, start, end, _tid, _a in self.records:
            own = max(0.0, (end - start) - child_time.get(sid, 0.0))
            out[name] = out.get(name, 0.0) + own
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {"id": sid, "parent": parent, "name": name, "start_s": start,
             "end_s": end, "thread": tid, "attrs": _json_safe(attrs)}
            for sid, parent, name, start, end, tid, attrs in self.records
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows, "counts": self.counts,
                       "self_s": self.self_times()}, fh)


def _json_safe(attrs: dict) -> dict:
    return {k: v if isinstance(v, (int, float, str, bool)) else repr(v)
            for k, v in attrs.items()}


# ------------------------------------------------------------ host probe
class HostProbe:
    """Times a fixed slice of interpreter and memory work between the
    measured operations, to track how fast the host is running.

    Shared hosts change speed by tens of percent over seconds to
    minutes.  ``run.py`` scales every end-to-end time by the probe's
    reference time over its median in the run, which cancels the host's
    drift and keeps the program's own.  ``every_s`` spaces the probes
    out when the caller offers them more often than that.
    """

    def __init__(self, every_s: float = 0.0):
        import numpy as np

        self.every_s = every_s
        self.samples: list[float] = []
        self._data = np.random.default_rng(0).random(1 << 17)
        self._last = -math.inf

    def probe(self) -> None:
        now = time.perf_counter()
        if now - self._last < self.every_s:
            return
        acc = 0
        for i in range(20_000):
            acc += i * i
        for _ in range(4):
            self._data.sort()
            self._data[::7] += 1.0
        self._last = time.perf_counter()
        self.samples.append(self._last - now)

    def median_s(self) -> float:
        return median(self.samples)


# ------------------------------------------------------------- statistics
def median(values) -> float:
    vals = sorted(values)
    if not vals:
        return math.nan
    mid = len(vals) // 2
    return vals[mid] if len(vals) % 2 else 0.5 * (vals[mid - 1] + vals[mid])


def tail(values) -> tuple[float, float]:
    """``(value, percentile)`` of the highest percentile with at least
    ten samples beyond it; the maximum when there are ten or fewer."""
    vals = sorted(values)
    n = len(vals)
    if n == 0:
        return math.nan, math.nan
    if n <= 10:
        return vals[-1], 100.0
    return vals[n - 11], 100.0 * (n - 10) / n


def quartile_geomeans(values) -> tuple[float, float]:
    """Geometric means of the central half and of the top quarter of
    ``values``: a median and a tail that average over their samples, for
    samples that cluster by kind rather than spread evenly."""
    vals = sorted(values)
    lo, hi = len(vals) // 4, len(vals) - len(vals) // 4
    return geomean(vals[lo:hi]), geomean(vals[hi:] or vals[-1:])


def geomean(values) -> float:
    vals = [v for v in values]
    if not vals or any(v <= 0 for v in vals):
        return math.nan
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def peak_rss_mb(include_children: bool = False) -> float:
    """Peak resident set of this process (or its largest child), in MB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0  # ru_maxrss is in KiB on Linux


def host_facts() -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        numpy_version = None
    caches = {}
    for key in ("SC_LEVEL1_DCACHE_SIZE", "SC_LEVEL2_CACHE_SIZE",
                "SC_LEVEL3_CACHE_SIZE"):
        if key in os.sysconf_names:
            try:
                caches[key] = os.sysconf(key)
            except (OSError, ValueError):
                pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
        "cache_bytes": caches or "not readable",
    }


def cold_import_s(modules: tuple[str, ...], repeats: int = SETUP_REPEATS) -> float:
    """Median time a fresh interpreter takes to import ``modules``, with
    the checkout's ``src/`` and this directory on its path."""
    code = ("import sys, time\n"
            "sys.path[:0] = sys.argv[1:3]\n"
            "t = time.perf_counter()\n"
            f"import {', '.join(modules)}\n"
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", code, str(SRC), str(HERE)],
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"import of {modules} failed: {proc.stderr[-2000:]}")
        times.append(float(proc.stdout.split()[-1]))
    return median(times)


def fresh_workdir(name: str) -> Path:
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
