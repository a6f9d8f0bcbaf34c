"""Set-associative LRU cache simulator.

The simulator validates the analytic miss-fraction model in
:mod:`repro.analysis.traffic`: synthetic address traces with the same
structure as the schedules' access patterns (streaming reads, strided
stencil reuse, scratch write-read) replay through this simulator, and
tests check the analytic ``miss_fraction`` tracks the simulated miss
rate on both sides of the capacity cliff.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

__all__ = [
    "CacheStats",
    "SetAssociativeCache",
    "CacheHierarchy",
]


@dataclass
class CacheStats:
    """Access counters for one cache level."""

    accesses: int = 0
    misses: int = 0
    writebacks: int = 0

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class SetAssociativeCache:
    """A single write-back, write-allocate, LRU set-associative cache.

    Parameters
    ----------
    size_bytes:
        Total capacity.
    line_bytes:
        Cache-line size (64 for every machine in the paper).
    ways:
        Associativity; ``ways=0`` means fully associative.
    """

    def __init__(self, size_bytes: int, line_bytes: int = 64, ways: int = 8):
        if size_bytes <= 0 or line_bytes <= 0:
            raise ValueError("sizes must be positive")
        if size_bytes % line_bytes != 0:
            raise ValueError("capacity must be a multiple of the line size")
        lines = size_bytes // line_bytes
        if ways == 0:
            ways = lines
        if lines % ways != 0:
            raise ValueError("line count must be a multiple of associativity")
        self.size_bytes = size_bytes
        self.line_bytes = line_bytes
        self.ways = ways
        self.num_sets = lines // ways
        # Each set: OrderedDict tag -> dirty flag, LRU order = insertion.
        self._sets: list[OrderedDict] = [OrderedDict() for _ in range(self.num_sets)]
        self.stats = CacheStats()

    def _locate(self, address: int) -> tuple[int, int]:
        line = address // self.line_bytes
        return line % self.num_sets, line // self.num_sets

    def access(self, address: int, write: bool = False) -> bool:
        """Access one byte address.  Returns True on hit."""
        set_idx, tag = self._locate(address)
        s = self._sets[set_idx]
        self.stats.accesses += 1
        if tag in s:
            s.move_to_end(tag)
            if write:
                s[tag] = True
            return True
        self.stats.misses += 1
        if len(s) >= self.ways:
            _, dirty = s.popitem(last=False)
            if dirty:
                self.stats.writebacks += 1
        s[tag] = write
        return False

    def access_range(self, start: int, nbytes: int, write: bool = False) -> int:
        """Access every line in a byte range; returns the miss count.

        Semantically a loop of :meth:`access` per touched line, but with
        the per-line work inlined and all lookups hoisted — range
        replays are the bulk of trace validation and the exact-vs-fast
        comparisons, and the per-call overhead of ``access`` dominated
        them.
        """
        if nbytes <= 0:
            return 0
        line = self.line_bytes
        first = start // line
        last = (start + nbytes - 1) // line
        sets = self._sets
        num_sets = self.num_sets
        ways = self.ways
        stats = self.stats
        stats.accesses += last - first + 1
        misses = 0
        writebacks = 0
        for ln in range(first, last + 1):
            s = sets[ln % num_sets]
            tag = ln // num_sets
            if tag in s:
                s.move_to_end(tag)
                if write:
                    s[tag] = True
            else:
                misses += 1
                if len(s) >= ways:
                    _, dirty = s.popitem(last=False)
                    if dirty:
                        writebacks += 1
                s[tag] = write
        stats.misses += misses
        stats.writebacks += writebacks
        return misses

    def reset_stats(self) -> None:
        self.stats = CacheStats()

    def flush(self) -> None:
        """Drop all contents (counting dirty writebacks)."""
        for s in self._sets:
            for _, dirty in s.items():
                if dirty:
                    self.stats.writebacks += 1
            s.clear()


class CacheHierarchy:
    """A two-level hierarchy (private L2 over a shared-L3 share).

    Misses in the upper level fall through to the lower one; DRAM
    traffic is the lower level's misses plus writebacks, in lines.
    """

    def __init__(self, l2: SetAssociativeCache, l3: SetAssociativeCache):
        if l2.line_bytes != l3.line_bytes:
            raise ValueError("levels must share a line size")
        self.l2 = l2
        self.l3 = l3

    def access(self, address: int, write: bool = False) -> None:
        if not self.l2.access(address, write):
            self.l3.access(address, write)

    def access_range(self, start: int, nbytes: int, write: bool = False) -> None:
        if nbytes <= 0:
            return
        line = self.l2.line_bytes
        first = (start // line) * line
        stop = ((start + nbytes - 1) // line) * line
        for addr in range(first, stop + line, line):
            self.access(addr, write)

    def dram_bytes(self) -> int:
        """DRAM traffic so far: L3 fills plus writebacks."""
        return (self.l3.stats.misses + self.l3.stats.writebacks) * self.l3.line_bytes
