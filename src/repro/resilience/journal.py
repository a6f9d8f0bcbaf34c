"""Append-only JSONL logs, and the grid checkpoint journal over them.

:class:`AppendLog` is the one storage primitive behind every durable
record stream in the repo: the grid checkpoint journal below, the
shard/service write-ahead log (:mod:`repro.serve.shards`) and the memo
log (:mod:`repro.serve.memo`).  It is the only code that opens,
appends to, fsyncs or repairs a log file; each store is a *record
schema* over it — a header record, an fsync constant, and a fold from
the record stream to the store's state.  The contract:

* a log begins with its schema's header record; opening with
  ``resume=False`` truncates the file, ``resume=True`` keeps it;
* on resume a *torn tail* — the final record of an interrupted append
  (no newline, or a final line that no longer parses) — is truncated
  away (``recovered_bytes``), so the next append starts at a clean
  line boundary; corrupt *interior* lines are skipped and counted
  (``skipped_records``);
* :meth:`AppendLog.append` writes one sorted-keys JSON line and
  flushes it, then fsyncs it when the schema asks for that, all under
  a process-global per-path lock — instances on one path never
  interleave partial lines, and identical records always serialize
  to identical bytes;
* :func:`read_log` returns a log's intact records without touching
  the file.

Records that parse but are structurally corrupt are skipped and
counted by each schema's fold, never fatal.

The grid checkpoint schema (fsync off): ``run_grid`` appends one
record per *completed* grid point:

.. code-block:: text

    {"kind": "header", "version": 1}
    {"grid": "<hash>", "i": 3, "key": "<point key>", "r": {...SimResult...}}

Points are keyed by ``(grid content hash, index)`` plus the point's own
content key, so one journal file can hold many grids (a figure suite
issues many ``run_grid`` calls) and a record is only ever replayed into
the exact grid slot it came from.  Floats round-trip through JSON via
``repr`` — shortest-roundtrip — so a replayed :class:`SimResult` is
bitwise identical to the computed one.  Failures are *not* journaled:
a resumed sweep (``python -m repro.bench --journal PATH --resume``)
retries them, and a skipped record is simply recomputed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import numbers
import os
import threading
from typing import Iterable

from ..machine.simulator import SimResult

__all__ = [
    "canonical_number",
    "canonical_fragment",
    "point_key",
    "grid_hash",
    "sim_result_to_dict",
    "sim_result_from_dict",
    "AppendLog",
    "read_log",
    "GridJournal",
]

_GRID_HEADER = {"kind": "header", "version": 1}

#: Process-global per-path write locks: every AppendLog on the same
#: (real) path shares one lock, so two instances appending to one file
#: cannot interleave partial lines.
_PATH_LOCKS: dict[str, threading.Lock] = {}
_PATH_LOCKS_GUARD = threading.Lock()


def _path_lock(path: str) -> threading.Lock:
    with _PATH_LOCKS_GUARD:
        return _PATH_LOCKS.setdefault(os.path.realpath(path), threading.Lock())


# ------------------------------------------------------------- canonical keys
def canonical_number(x) -> str:
    """repr-stable text for one number (cache-key material).

    The invariant: **equal finite numbers always format identically**
    — regardless of type — or identical configs hash to different
    cache entries:

    * ``-0.0``, ``0.0``, and ``0`` all collapse to ``"0"`` (they
      compare equal);
    * an integral-valued float formats as its exact integer (floats
      convert to ``int`` exactly), so a float-typed thread count
      (``2.0``), a NumPy scalar, and the plain-int twin ``2`` key
      identically — and ``1e22`` spelled any way (``1e+22``,
      ``10.0**22``) yields one string;
    * non-integral floats go through ``repr`` of a genuine Python
      ``float`` — shortest-roundtrip, NumPy scalars lose their
      type-dependent ``repr``;
    * integers (including NumPy integers) format via ``int``; bools
      are kept distinct with ``true``/``false`` tokens;
    * non-finite floats use fixed tokens (``nan``/``inf``/``-inf``).
    """
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, numbers.Integral):
        return str(int(x))
    x = float(x)
    if x != x:
        return "nan"
    if x == float("inf"):
        return "inf"
    if x == float("-inf"):
        return "-inf"
    if x == 0.0:
        return "0"
    if x.is_integer():
        return str(int(x))
    return repr(x)


def canonical_fragment(obj) -> str:
    """Deterministic content text for a JSON-shaped object.

    The invariants cache keys need:

    * **dict-order invariance** — mappings serialize sorted by their
      canonically encoded key, so insertion order can never split one
      semantic config into two hashes;
    * **repr-stable numbers** — every number routes through
      :func:`canonical_number`;
    * **unambiguous structure** — strings are JSON-quoted, sequence
      types bracketed, dataclasses tagged with their class name, so no
      two distinct values can collide by concatenation.

    Sets serialize sorted by element encoding.  Anything else raises
    ``TypeError`` — a cache key silently built from ``str(object)``
    (identity-dependent ``repr``) would be a correctness bug.
    """
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return canonical_number(obj)
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=True)
    if isinstance(obj, (numbers.Integral, numbers.Real)):
        return canonical_number(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical_fragment(v) for v in obj) + "]"
    if isinstance(obj, (set, frozenset)):
        return "{" + ",".join(sorted(canonical_fragment(v) for v in obj)) + "}"
    if isinstance(obj, dict):
        items = sorted(
            (canonical_fragment(k), canonical_fragment(v))
            for k, v in obj.items()
        )
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {
            f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)
        }
        return type(obj).__name__ + canonical_fragment(fields)
    raise TypeError(
        f"canonical_fragment: unsupported type {type(obj).__name__} "
        f"(keys must be built from JSON-shaped content, not object repr)"
    )


# ------------------------------------------------------------ append-only log
def _scan_log(path: str, header: dict) -> tuple[list[dict], int, int]:
    """Scan a JSONL log, distinguishing a torn tail from interior rot.

    Returns ``(records, keep_bytes, skipped)``: every parseable record
    in file order (records of ``header``'s kind excluded); the byte
    offset the file should be truncated to so that it ends at a clean
    record boundary; and how many complete-but-corrupt *interior*
    lines were skipped.

    A *torn tail* — the signature of a crash mid-append: a final line
    with no terminating newline, or a terminated final line that no
    longer parses as a JSON object — is excluded from ``keep_bytes``,
    so truncating to it drops exactly the interrupted record.  A
    corrupt line in the middle of the file is not torn (every record
    after it is intact), so it is skipped and counted instead of
    truncated, which would discard good data.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    lines = data.split(b"\n")
    records: list[dict] = []
    keep = len(data)
    skipped = 0
    pos = 0
    last = len(lines) - 1
    for idx, raw in enumerate(lines):
        if idx == last:
            # The remainder past the final newline: empty means the file
            # ends cleanly; anything else is an unterminated torn tail.
            if raw:
                keep = pos
            break
        end = pos + len(raw) + 1
        stripped = raw.strip()
        if stripped:
            try:
                rec = json.loads(stripped.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                rec = None
            if isinstance(rec, dict):
                if rec.get("kind") != header["kind"]:
                    records.append(rec)
            elif end == len(data):
                keep = pos  # corrupt final record, newline intact: torn
            else:
                skipped += 1
        pos = end
    return records, keep, skipped


def read_log(path: str, header: dict) -> list[dict]:
    """Every intact record of the log at ``path`` in file order, its
    schema's ``header`` records excluded.

    Side-effect free, so it is safe on a log a live writer owns: a torn
    tail is excluded but left on disk, and a missing path raises
    ``FileNotFoundError`` instead of creating a file.
    """
    return _scan_log(str(path), header)[0]


class AppendLog:
    """One append-only JSONL log file (the contract is in the module
    docstring).

    ``header`` is the schema's header record, written first into an
    empty log; ``fsync`` is the schema's durability constant — with it,
    a record is on disk when :meth:`append` returns.  :attr:`records`
    holds the intact records found on open (header excluded; empty
    unless ``resume``) for the owning schema to fold.
    """

    def __init__(
        self, path: str, header: dict, *, fsync: bool, resume: bool = False,
    ):
        self.path = str(path)
        self._fsync = bool(fsync)
        self.records: list[dict] = []
        #: Bytes of torn tail truncated away on open (0 = clean file).
        self.recovered_bytes = 0
        #: Complete-but-corrupt interior lines skipped on open.
        self.skipped_records = 0
        self._lock = _path_lock(self.path)
        with self._lock:
            if resume and os.path.exists(self.path):
                self.records, keep, self.skipped_records = _scan_log(
                    self.path, header
                )
                size = os.path.getsize(self.path)
                if keep < size:
                    with open(self.path, "r+b") as fh:
                        fh.truncate(keep)
                        fh.flush()
                        os.fsync(fh.fileno())
                    self.recovered_bytes = size - keep
            else:
                # Truncate explicitly; the write handle below is append-
                # only, so concurrent instances place whole lines at EOF.
                open(self.path, "w", encoding="utf-8").close()
            self._fh = open(self.path, "a", encoding="utf-8")
            if os.path.getsize(self.path) == 0:
                self._write(json.dumps(header, sort_keys=True) + "\n")

    def _write(self, line: str) -> None:
        """Write, flush (and fsync) one line; call with the path lock held."""
        self._fh.write(line)
        self._fh.flush()
        if self._fsync:
            os.fsync(self._fh.fileno())

    def append(self, record: dict) -> None:
        """Append one record as a sorted-keys JSON line."""
        line = json.dumps(record, sort_keys=True) + "\n"
        with self._lock:
            self._write(line)

    def close(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._fh.close()

    def __enter__(self) -> "AppendLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


#: Fields a journaled result payload must carry to rebuild a SimResult.
_RESULT_FIELDS = (
    "machine",
    "variant",
    "threads",
    "time_s",
    "flops",
    "dram_bytes",
    "phase_times",
)


def _valid_result_payload(r) -> bool:
    """Structural check of one record's ``"r"`` payload.

    A payload that would make :func:`sim_result_from_dict` raise —
    missing fields, non-numeric values, a non-list ``phase_times`` — is
    corrupt and must be skipped, not replayed.
    """
    if not isinstance(r, dict):
        return False
    for k in _RESULT_FIELDS:
        if k not in r:
            return False
    if not isinstance(r["threads"], (int, float)):
        return False
    for k in ("time_s", "flops", "dram_bytes"):
        if not isinstance(r[k], (int, float)):
            return False
    if not isinstance(r["phase_times"], list):
        return False
    return all(isinstance(t, (int, float)) for t in r["phase_times"])


def _grid_entry(rec: dict):
    """``((grid hash, index), (key, payload))`` of one checkpoint record,
    or ``None`` when the record is structurally corrupt."""
    ghash, key, payload = rec.get("grid"), rec.get("key", ""), rec.get("r")
    if not (
        isinstance(ghash, str)
        and isinstance(key, str)
        and _valid_result_payload(payload)
    ):
        return None
    try:
        index = int(rec["i"])
    except (KeyError, TypeError, ValueError, OverflowError):
        return None  # no usable grid slot
    return (ghash, index), (key, payload)


def point_key(p) -> str:
    """Content key of one grid point (any GridPoint-shaped object).

    Numeric components route through :func:`canonical_number`, so a
    point built from NumPy scalars (a sweep over ``np.arange``), a
    float-typed thread count, or a ``-0.0`` that leaked into a domain
    extent keys identically to its plain-int twin — the journal must
    never recompute (or, worse, replay the wrong slot for) a point
    because of number formatting.
    """
    return "|".join(
        (
            p.variant.short_name,
            p.machine.name,
            canonical_number(p.threads),
            canonical_number(p.box_size),
            "x".join(canonical_number(c) for c in p.domain_cells),
            canonical_number(p.ncomp),
            p.engine,
        )
    )


def grid_hash(points: Iterable) -> str:
    """Content hash of a whole grid spec (order-sensitive)."""
    h = hashlib.sha256()
    for p in points:
        h.update(point_key(p).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def sim_result_to_dict(r: SimResult) -> dict:
    return {
        "machine": r.machine,
        "variant": r.variant,
        "threads": r.threads,
        "time_s": r.time_s,
        "flops": r.flops,
        "dram_bytes": r.dram_bytes,
        "phase_times": list(r.phase_times),
    }


def sim_result_from_dict(d: dict) -> SimResult:
    return SimResult(
        machine=d["machine"],
        variant=d["variant"],
        threads=int(d["threads"]),
        time_s=d["time_s"],
        flops=d["flops"],
        dram_bytes=d["dram_bytes"],
        phase_times=[float(t) for t in d["phase_times"]],
    )


class GridJournal:
    """The grid checkpoint schema over :class:`AppendLog` (fsync off).

    Folds ``{"grid", "i", "key", "r"}`` records into one entry per
    ``(grid hash, index)`` slot — a later record for a slot wins — and
    skips (counting in :attr:`skipped_records`) any record without a
    usable slot, key or result payload.
    """

    def __init__(self, path: str, resume: bool = False):
        self._log = AppendLog(path, _GRID_HEADER, resume=resume, fsync=False)
        self.path = self._log.path
        self.hits = 0
        self.written = 0
        #: Bytes of torn tail dropped by the last resume (0 = clean file).
        self.recovered_bytes = self._log.recovered_bytes
        #: Corrupt lines and structurally corrupt records skipped on resume.
        self.skipped_records = self._log.skipped_records
        self._lock = threading.Lock()
        self._entries: dict[tuple[str, int], tuple[str, dict]] = {}
        for rec in self._log.records:
            entry = _grid_entry(rec)
            if entry is None:
                self.skipped_records += 1
            else:
                self._entries[entry[0]] = entry[1]

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, ghash: str, index: int, key: str) -> SimResult | None:
        """Replay a journaled result for this exact grid slot, if any."""
        with self._lock:
            entry = self._entries.get((ghash, index))
            if entry is None or entry[0] != key:
                return None
            self.hits += 1
            return sim_result_from_dict(entry[1])

    def record(self, ghash: str, index: int, key: str, result: SimResult) -> None:
        """Checkpoint one completed point (flushed before this returns)."""
        d = sim_result_to_dict(result)
        with self._lock:
            self._entries[(ghash, index)] = (key, d)
            self._log.append({"grid": ghash, "i": index, "key": key, "r": d})
            self.written += 1

    def close(self) -> None:
        self._log.close()

    def __enter__(self) -> "GridJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"GridJournal({self.path!r}, entries={len(self._entries)}, "
            f"hits={self.hits}, written={self.written})"
        )
