"""Randomized configurations for the differential correctness harness.

A :class:`VerifyConfig` is one point in the configuration space the
harness fuzzes: domain shape (including anisotropic), box size, ghost
width, per-axis periodicity, component count, a sample of schedule
variants, a simulated machine and thread count, and the execution-
substrate toggles (scratch arena, thread pool, tracing).  Configs are
content — hashable, JSON round-trippable — so a failing case can be
serialized as a replayable repro file and shrunk to a minimal
counterexample.

The generator is fully seeded: the same seed always yields the same
case sequence, which is what lets CI pin ``--seed 2014`` and still be a
regression test rather than a lottery.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from typing import Sequence

from ..machine.spec import PAPER_MACHINES, machine_by_name
from ..schedules.base import Variant
from ..schedules.variants import (
    enumerate_design_space,
    extended_variants,
    practical_variants,
)

__all__ = [
    "FAMILIES",
    "VerifyConfig",
    "random_config",
    "variant_by_short_name",
    "variant_registry",
]

#: The seven check families (see :mod:`repro.verify.checks`).
FAMILIES = (
    "bitwise", "engines", "invariants", "metamorphic", "cluster", "memo",
    "overload",
)

#: Box edges the generator draws from — small enough that a single case
#: runs in milliseconds, varied enough to hit odd box/tile ratios
#: (ragged edge tiles) and tile==box-1 corner cases.
_BOX_SIZES = (4, 5, 6, 8, 9, 12)

_VARIANT_REGISTRY: dict[str, Variant] | None = None


def variant_registry() -> dict[str, Variant]:
    """Every known variant, keyed by its ``short_name`` (lazily built)."""
    global _VARIANT_REGISTRY
    if _VARIANT_REGISTRY is None:
        reg: dict[str, Variant] = {}
        for v in enumerate_design_space() + extended_variants():
            reg.setdefault(v.short_name, v)
        _VARIANT_REGISTRY = reg
    return _VARIANT_REGISTRY


def variant_by_short_name(name: str) -> Variant:
    """Resolve a variant from its compact identifier."""
    try:
        return variant_registry()[name]
    except KeyError:
        raise KeyError(
            f"unknown variant short name {name!r}; see "
            f"repro.verify.config.variant_registry()"
        ) from None


@dataclass(frozen=True)
class VerifyConfig:
    """One randomized harness case (see module docstring)."""

    family: str
    dim: int
    box_size: int
    #: Boxes per direction; ``domain_cells = box_size * domain_mult``.
    domain_mult: tuple[int, ...]
    ncomp: int
    ghost: int
    periodic: tuple[bool, ...]
    #: Variant ``short_name``s this case exercises.
    variants: tuple[str, ...]
    machine: str
    threads: int
    arena: bool
    pool: bool
    tracing: bool
    data_seed: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; use {FAMILIES}")
        if len(self.domain_mult) != self.dim or len(self.periodic) != self.dim:
            raise ValueError("domain_mult/periodic must have dim entries")
        if self.ncomp <= self.dim:
            raise ValueError("ncomp must exceed dim")
        if self.ghost < 2:
            raise ValueError("kernel needs ghost >= 2")
        if self.threads < 1:
            raise ValueError("threads must be positive")
        machine_by_name(self.machine)  # raises on unknown
        for name in self.variants:
            variant_by_short_name(name)  # raises on unknown

    @property
    def domain_cells(self) -> tuple[int, ...]:
        return tuple(self.box_size * m for m in self.domain_mult)

    def variant_objects(self) -> list[Variant]:
        return [variant_by_short_name(n) for n in self.variants]

    def label(self) -> str:
        dom = "x".join(str(c) for c in self.domain_cells)
        per = "".join("p" if p else "w" for p in self.periodic)
        tog = "".join(
            t for t, on in (
                ("a", self.arena), ("P", self.pool), ("t", self.tracing)
            ) if on
        )
        return (
            f"{self.family}[{dom}/b{self.box_size} g{self.ghost} "
            f"c{self.ncomp} {per} {self.machine}@{self.threads} "
            f"{tog or '-'} s{self.data_seed}]"
        )

    # -- serialization (repro files) ---------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "dim": self.dim,
            "box_size": self.box_size,
            "domain_mult": list(self.domain_mult),
            "ncomp": self.ncomp,
            "ghost": self.ghost,
            "periodic": list(self.periodic),
            "variants": list(self.variants),
            "machine": self.machine,
            "threads": self.threads,
            "arena": self.arena,
            "pool": self.pool,
            "tracing": self.tracing,
            "data_seed": self.data_seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "VerifyConfig":
        return cls(
            family=str(d["family"]),
            dim=int(d["dim"]),
            box_size=int(d["box_size"]),
            domain_mult=tuple(int(m) for m in d["domain_mult"]),
            ncomp=int(d["ncomp"]),
            ghost=int(d["ghost"]),
            periodic=tuple(bool(p) for p in d["periodic"]),
            variants=tuple(str(v) for v in d["variants"]),
            machine=str(d["machine"]),
            threads=int(d["threads"]),
            arena=bool(d["arena"]),
            pool=bool(d["pool"]),
            tracing=bool(d["tracing"]),
            data_seed=int(d["data_seed"]),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "VerifyConfig":
        return cls.from_dict(json.loads(text))

    def simplified(self, **changes) -> "VerifyConfig":
        """A copy with some fields replaced (shrinking helper)."""
        return replace(self, **changes)


def _applicable(variants: Sequence[Variant], box_size: int) -> list[Variant]:
    return [v for v in variants if v.applicable_to_box(box_size)]


def random_config(rng: random.Random, family: str | None = None) -> VerifyConfig:
    """Draw one configuration from the fuzzed space.

    ``rng`` is the only randomness source; the draw sequence is part of
    the harness's compatibility surface (changing it changes what a
    given ``--seed`` covers, which is fine, but keep it deterministic).
    """
    fam = family if family is not None else rng.choice(FAMILIES)
    dim = rng.choice((2, 3, 3, 3))
    box_size = rng.choice(_BOX_SIZES)
    # Anisotropic domains: independent per-axis box counts, capped so a
    # case stays at a few thousand cells.
    cap = 4 if box_size <= 8 else 2
    mult = []
    total = 1
    for _ in range(dim):
        m = rng.randint(1, 3)
        while total * m > cap:
            m = max(1, m - 1)
        mult.append(m)
        total *= m
    ncomp = rng.randint(dim + 1, 6)
    ghost = rng.choice((2, 2, 3))
    periodic = tuple(rng.random() < 0.8 for _ in range(dim))
    if fam == "metamorphic" and rng.random() < 0.7:
        # The periodic-shift relation needs a fully periodic domain;
        # bias toward it so the sub-check runs often.
        periodic = (True,) * dim

    pool: list[Variant] = _applicable(practical_variants(), box_size)
    if rng.random() < 0.30:
        # Occasionally reach beyond the paper's practical set: pruned
        # design-space points and the hierarchical-tiling extension.
        pool += _applicable(enumerate_design_space(), box_size)
        pool += _applicable(extended_variants(), box_size)
    seen: dict[str, Variant] = {}
    for v in pool:
        seen.setdefault(v.short_name, v)
    names = sorted(seen)
    k = min(len(names), rng.randint(3, 5))
    variants = tuple(rng.sample(names, k))

    machine = rng.choice(PAPER_MACHINES)
    threads = rng.choice(
        [t for t in (1, 2, 3, 4, 6, 8) if t <= machine.max_threads]
    )
    return VerifyConfig(
        family=fam,
        dim=dim,
        box_size=box_size,
        domain_mult=tuple(mult),
        ncomp=ncomp,
        ghost=ghost,
        periodic=periodic,
        variants=variants,
        machine=machine.name,
        threads=threads,
        arena=rng.random() < 0.5,
        pool=rng.random() < 0.5,
        tracing=rng.random() < 0.5,
        data_seed=rng.randrange(2**31),
    )
