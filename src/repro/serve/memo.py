"""Content-addressed result memoization for the serving layer.

Grid points, grid sweeps, verify cases, cluster steps — every job the
service executes is a *pure function of its config*, so identical jobs
from different users should cost exactly one simulation.  This module
supplies the two ingredients the service needs to make that true:

* :func:`canonical_job_key` — one canonical content hash per job,
  covering problem geometry, machine, threads, variant and requested
  engine.  The key is built on
  :func:`repro.resilience.journal.canonical_fragment`:
  dict-insertion-order invariant, repr-stable float formatting
  (``-0.0`` == ``0.0``, ``1e22`` == ``1e+22``), NumPy scalars
  normalized — two semantically identical configs can never hash to
  different cache entries.

* :class:`MemoStore` — the :class:`~repro.resilience.journal
  .GridJournal` generalized into a persistent content-addressed store:
  the same JSONL append discipline, torn-tail recovery, atomic
  write-aside rotation, per-path locks, and rotation epochs, but keyed
  by content hash instead of ``(grid hash, index)``, with LRU
  byte-budget eviction.  The bytes a store pins are visible to the
  admission :class:`~repro.serve.budget.ByteBudget` through the
  ``"memo"`` / ``"arena+memo"`` probes, so cache growth is charged
  against the same ceiling that sheds oversized submissions.

Results round-trip through the journal's ``SimResult`` codec (floats
via ``repr`` — shortest-roundtrip), so a cache hit is **bitwise
identical** to the cold execution it replaces; the ``memo`` verify
family asserts exactly that under every substrate-toggle combination.

Hit/miss/eviction traffic lands in :mod:`repro.obs` as
``serve.memo.{hits,misses,evictions}`` counters plus
``serve.memo.{bytes,entries}`` gauges (published by the service
supervisor).  See ``docs/serving.md``.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import weakref
from collections import OrderedDict
from functools import lru_cache

from ..bench.runner import GridResult
from ..obs.metrics import default_registry
from ..resilience.journal import (
    _bump_path_epoch,
    _fsync_dir,
    _path_epoch,
    _path_lock,
    _recover_jsonl,
    _truncate_to,
    canonical_fragment,
    sim_result_from_dict,
    sim_result_to_dict,
)

__all__ = [
    "canonical_job_key",
    "encode_result",
    "decode_result",
    "MemoStore",
    "memo_bytes",
]

_MEMO_VERSION = 1

#: Engine job kinds whose payload is a single GridPoint.
_POINT_KINDS = ("estimate", "simulate")

_UNSET = object()


# ------------------------------------------------------------------ keys
@lru_cache(maxsize=512)
def _spec_fragment(obj) -> str:
    """Memoized canonical fragment of a frozen spec dataclass.

    Variants and machine specs are frozen, interned module constants
    reused across every point of a grid; canonicalizing them once per
    process (equal specs hash equal, so equality — not identity — is
    the cache key) keeps :func:`canonical_job_key` cheap enough for
    the 100%-hit serve path, where it *is* the job.
    """
    return canonical_fragment(obj)


def _spec_frag(obj) -> str:
    try:
        return _spec_fragment(obj)
    except TypeError:  # unhashable custom spec: canonicalize in full
        return canonical_fragment(obj)


def _point_content(p, engine: str) -> dict:
    """The canonical content of one GridPoint-shaped payload.

    The variant and machine enter as whole dataclasses (every field,
    not just the display name — pre-canonicalized to their fragment
    strings), so a custom machine spec or a tiled variant with a
    different inner tile can never alias a cache entry.  ``engine`` is
    passed explicitly: a ``simulate`` *job* over a point whose own
    ``engine`` attribute says ``estimate`` executes the simulator, and
    must key as such.
    """
    return {
        "variant": _spec_frag(p.variant),
        "machine": _spec_frag(p.machine),
        "threads": p.threads,
        "box_size": p.box_size,
        "domain_cells": tuple(p.domain_cells),
        "ncomp": p.ncomp,
        "engine": engine,
    }


@lru_cache(maxsize=4096)
def _point_fragment_cached(p, engine: str) -> str:
    return canonical_fragment(_point_content(p, engine))


def _point_frag(p, engine: str) -> str:
    """Canonical fragment of one point, memoized when the point is
    hashable (``GridPoint`` is frozen, so grid sweeps and repeated
    submissions of the same points pay the canonicalization once)."""
    try:
        return _point_fragment_cached(p, engine)
    except TypeError:  # unhashable point-shaped payload
        return canonical_fragment(_point_content(p, engine))


def canonical_job_key(kind_or_spec, payload=_UNSET) -> str:
    """The canonical content hash of one job, for every job kind.

    Accepts a :class:`~repro.serve.service.JobSpec` or an explicit
    ``(kind, payload)`` pair.  Point jobs key on the full point content
    plus the *requested* engine; grid jobs on the ordered point list
    (a grid's result is an ordered list, so order is content); cluster
    jobs on the whole frozen :class:`~repro.cluster.scaling
    .ClusterPoint`; verify jobs on the config dataclass; any other kind
    (``tune`` and future kinds) on the canonical fragment of its
    JSON-shaped payload.

    Raises ``TypeError`` for payloads that are not content (objects
    with no canonical encoding) — callers treat that as "not
    memoizable", never as a silent identity key.
    """
    if payload is _UNSET:
        spec = kind_or_spec
        kind, payload = spec.kind, spec.payload
    else:
        kind = kind_or_spec
    try:
        if kind in _POINT_KINDS:
            frag = _point_frag(payload, kind)
        elif kind == "grid":
            frag = canonical_fragment(
                [_point_frag(p, p.engine) for p in payload]
            )
        else:
            # cluster (frozen dataclass), verify (config dataclass),
            # tune and future kinds (JSON-shaped payloads) all encode
            # directly.
            frag = canonical_fragment(payload)
    except AttributeError as exc:
        raise TypeError(
            f"canonical_job_key: {kind!r} payload is not content: {exc}"
        ) from None
    text = f"v{_MEMO_VERSION}|{kind}|{frag}"
    return f"{kind}:{hashlib.sha256(text.encode()).hexdigest()[:32]}"


# ------------------------------------------------------------------ codecs
def encode_result(kind: str, value) -> dict | None:
    """JSON payload for one ``ok`` outcome value, or ``None``.

    ``None`` means the value has no JSON codec (cluster steps carry
    live spec objects) — the store keeps such entries in memory only.
    Grid results are encodable only when fully complete; a partial
    grid must never be replayed as a hit.
    """
    if kind in _POINT_KINDS:
        return {"sim": sim_result_to_dict(value)}
    if kind == "grid":
        if not isinstance(value, GridResult) or any(r is None for r in value):
            return None
        return {
            "grid_hash": value.grid_hash,
            "sims": [sim_result_to_dict(r) for r in value],
        }
    if kind == "verify":
        return {"messages": [str(m) for m in value]}
    return None


def decode_result(kind: str, payload: dict):
    """Rebuild a hit's value from its stored payload (fresh objects)."""
    if kind in _POINT_KINDS:
        return sim_result_from_dict(payload["sim"])
    if kind == "grid":
        return GridResult(
            [sim_result_from_dict(d) for d in payload["sims"]],
            grid_hash=payload.get("grid_hash", ""),
        )
    if kind == "verify":
        return list(payload["messages"])
    raise KeyError(f"no decoder for memoized kind {kind!r}")


#: Live stores, for the byte-budget probe (weakly held: a dropped
#: store stops charging the budget).
_LIVE_STORES: "weakref.WeakSet[MemoStore]" = weakref.WeakSet()
_LIVE_STORES_GUARD = threading.Lock()

#: Byte charge for an entry kept in memory only (no JSON codec): the
#: object graph of a cluster step over a few rank shapes.
_OPAQUE_ENTRY_BYTES = 2048


def memo_bytes() -> int:
    """Total bytes pinned by every live MemoStore (budget probe)."""
    with _LIVE_STORES_GUARD:
        stores = list(_LIVE_STORES)
    return sum(s.current_bytes for s in stores)


class _Entry:
    __slots__ = ("kind", "payload", "value", "nbytes")

    def __init__(self, kind, payload, value, nbytes):
        self.kind = kind
        self.payload = payload  # JSON dict, or None for opaque entries
        self.value = value  # live object, only for opaque entries
        self.nbytes = nbytes


class MemoStore:
    """Content-addressed LRU result cache with optional persistence.

    ``path=None`` keeps the store purely in memory (tests, soaks).
    With a path, every ``put`` appends a durable JSONL record and every
    eviction a tombstone, exactly the :class:`GridJournal` storage
    discipline: torn tails are truncated on resume, ``rotate()``
    compacts atomically (write aside, fsync, replace, fsync dir, bump
    the path epoch), and instances sharing one path share the
    process-global lock and revalidate their append handles against
    the rotation epoch.

    ``limit_bytes`` is the LRU byte budget: a ``put`` that lifts the
    store past the limit evicts least-recently-used entries until it
    fits (the incoming entry is charged too — one entry larger than
    the whole budget is simply not stored).
    """

    def __init__(
        self,
        path: str | None = None,
        limit_bytes: int | None = None,
        resume: bool = True,
        fsync: bool = False,
    ):
        self.path = str(path) if path else None
        self.limit_bytes = None if limit_bytes is None else int(limit_bytes)
        self.fsync = bool(fsync)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.written = 0
        #: Bytes of torn tail dropped by the last resume (0 = clean).
        self.recovered_bytes = 0
        self._bytes = 0
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self._registry = default_registry()
        self._fh = None
        self._epoch = 0
        if self.path is not None:
            self._path_lock = _path_lock(self.path)
            with self._path_lock:
                if resume and os.path.exists(self.path):
                    self._load()
                else:
                    open(self.path, "w", encoding="utf-8").close()
                self._fh = open(self.path, "a", encoding="utf-8")
                self._epoch = _path_epoch(self.path)
                if os.path.getsize(self.path) == 0:
                    self._append(
                        {"kind": "memo-header", "version": _MEMO_VERSION}
                    )
        with _LIVE_STORES_GUARD:
            _LIVE_STORES.add(self)

    # ----------------------------------------------------------- persistence
    def _load(self) -> None:
        """Fold the put/evict record stream into the live entry set."""
        records, keep, _skipped = _recover_jsonl(self.path)
        size = os.path.getsize(self.path)
        if keep < size:
            _truncate_to(self.path, keep)
            self.recovered_bytes = size - keep
        for rec in records:
            op = rec.get("op")
            if op == "put":
                key, kind, payload = rec.get("k"), rec.get("kind"), rec.get("v")
                if not isinstance(key, str) or not isinstance(payload, dict):
                    continue
                try:
                    decode_result(kind, payload)  # structural validation
                except (KeyError, TypeError, ValueError):
                    continue
                nbytes = len(json.dumps(payload))
                old = self._entries.pop(key, None)
                if old is not None:
                    self._bytes -= old.nbytes
                self._entries[key] = _Entry(kind, payload, None, nbytes)
                self._bytes += nbytes
            elif op == "evict":
                old = self._entries.pop(rec.get("k"), None)
                if old is not None:
                    self._bytes -= old.nbytes
        # Re-apply the byte budget: the log may hold more live entries
        # than the (possibly newly lowered) limit admits.
        self._evict_to_limit(persist=False)

    def _append(self, rec: dict) -> None:
        """Append one record; call while holding the path lock."""
        current = _path_epoch(self.path)
        if current != self._epoch:
            self._fh.close()
            self._fh = open(self.path, "a", encoding="utf-8")
            self._epoch = current
        self._fh.write(json.dumps(rec, sort_keys=True) + "\n")
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())

    def _persist(self, rec: dict) -> None:
        if self._fh is None:
            return
        with self._path_lock:
            self._append(rec)

    # ----------------------------------------------------------- cache ops
    def get(self, key: str):
        """The cached value for ``key`` (a fresh object), or ``None``.

        Persistent entries decode from their stored JSON payload on
        every hit, so callers can never mutate the cache through a
        returned result; opaque (memory-only) entries return the
        stored frozen object.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                self._registry.counter_inc("serve.memo.misses")
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            self._registry.counter_inc("serve.memo.hits")
            if entry.payload is not None:
                return decode_result(entry.kind, entry.payload)
            return entry.value

    def put(self, key: str, kind: str, value) -> bool:
        """Store one result; returns whether the entry is now cached.

        First write wins: results are deterministic functions of the
        key, so a concurrent duplicate put only refreshes recency.
        """
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                return True
            payload = encode_result(kind, value)
            if payload is not None:
                nbytes = len(json.dumps(payload))
                entry = _Entry(kind, payload, None, nbytes)
            else:
                entry = _Entry(kind, None, value, _OPAQUE_ENTRY_BYTES)
            if (
                self.limit_bytes is not None
                and entry.nbytes > self.limit_bytes
            ):
                return False  # larger than the whole budget
            self._entries[key] = entry
            self._bytes += entry.nbytes
            self.written += 1
            if payload is not None:
                self._persist({"op": "put", "k": key, "kind": kind,
                               "v": payload})
            self._evict_to_limit(persist=True)
            return key in self._entries

    def _evict_to_limit(self, persist: bool) -> None:
        """Drop LRU entries until the byte budget holds (lock held)."""
        if self.limit_bytes is None:
            return
        while self._bytes > self.limit_bytes and self._entries:
            key, entry = self._entries.popitem(last=False)
            self._bytes -= entry.nbytes
            self.evictions += 1
            self._registry.counter_inc("serve.memo.evictions")
            if persist and entry.payload is not None:
                self._persist({"op": "evict", "k": key})

    # ----------------------------------------------------------- maintenance
    def rotate(self) -> None:
        """Compact the log to the live entry set, atomically.

        Same discipline as :meth:`GridJournal.rotate`: the snapshot is
        the union of what is on disk (another instance may have put
        entries this one never loaded) and this instance's live
        entries, written aside, fsync'd, renamed over the live path,
        directory fsync'd, and the rotation epoch bumped so every
        other instance reopens its stale handle before its next write.
        """
        if self.path is None:
            return
        with self._lock, self._path_lock:
            merged: "OrderedDict[str, _Entry]" = OrderedDict()
            if os.path.exists(self.path):
                records, _, _ = _recover_jsonl(self.path)
                for rec in records:
                    op = rec.get("op")
                    if op == "put" and isinstance(rec.get("v"), dict):
                        merged[rec["k"]] = _Entry(
                            rec.get("kind"), rec["v"], None,
                            len(json.dumps(rec["v"])),
                        )
                    elif op == "evict":
                        merged.pop(rec.get("k"), None)
            for key, entry in self._entries.items():
                if entry.payload is not None:
                    merged[key] = entry
            tmp = f"{self.path}.rotate"
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(
                    {"kind": "memo-header", "version": _MEMO_VERSION}
                ))
                fh.write("\n")
                for key, entry in merged.items():
                    fh.write(json.dumps(
                        {"op": "put", "k": key, "kind": entry.kind,
                         "v": entry.payload},
                        sort_keys=True,
                    ))
                    fh.write("\n")
                fh.flush()
                os.fsync(fh.fileno())
            self._fh.close()
            os.replace(tmp, self.path)
            _fsync_dir(self.path)
            self._epoch = _bump_path_epoch(self.path)
            self._fh = open(self.path, "a", encoding="utf-8")

    def close(self) -> None:
        with self._lock:
            if self._fh is not None and not self._fh.closed:
                self._fh.close()

    def __enter__(self) -> "MemoStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ----------------------------------------------------------- introspection
    @property
    def current_bytes(self) -> int:
        return self._bytes

    @property
    def epoch(self) -> int:
        """Rotation epoch this instance's handle is valid for."""
        return self._epoch

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def stats(self) -> dict:
        with self._lock:
            return {
                "path": self.path,
                "entries": len(self._entries),
                "bytes": self._bytes,
                "limit_bytes": self.limit_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "written": self.written,
            }

    def __repr__(self) -> str:
        return (
            f"MemoStore({self.path!r}, entries={len(self._entries)}, "
            f"bytes={self._bytes}, hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions})"
        )
