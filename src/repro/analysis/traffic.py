"""Memory-traffic model: DRAM bytes per box as a function of cache capacity.

Every schedule's accesses split into *compulsory* traffic (first read of
phi0, final write of phi1 — unavoidable) and *reuse streams*: re-accesses
that hit in cache iff their reuse window fits the per-thread cache
capacity.  The miss fraction degrades smoothly as the window outgrows
the cache (an LRU stack-distance approximation)::

    miss(ws, cache) = 0                 if ws <= cache
                    = 1 - cache / ws    otherwise

This single mechanism reproduces the paper's §VI-B findings:

* baseline, N=16 — the whole box footprint fits in L3, traffic is
  compulsory-only, scaling is compute-bound and near-ideal;
* baseline, N=128 — cross-direction rereads of phi0, the spilled flux
  temporaries, and the z-stencil window all miss; traffic is ~4-5x
  compulsory and the socket bandwidth saturates at a few threads
  (18.3 GB/s vs 4.9 GB/s single-thread on the Ivy Bridge desktop);
* shift-fuse — eliminates the flux spill and the cross-direction
  rereads; traffic roughly halves (the measured 18.3 -> 9.4 GB/s);
* tiled schedules — shrink every window to tile size; traffic
  approaches compulsory plus the overlap redundancy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..schedules.base import Variant
from .locality import (
    DOUBLE,
    box_footprint_bytes,
    cells_of,
    faces_of,
    ghosted_cells_of,
    scratch_bytes,
    stencil_window_bytes,
)

__all__ = ["ReuseStream", "TrafficModel", "variant_traffic", "miss_fraction"]


def miss_fraction(working_set: float, cache_bytes: float) -> float:
    """Fraction of a reuse stream that misses, given the cache capacity."""
    if working_set <= 0 or working_set <= cache_bytes:
        return 0.0
    if cache_bytes <= 0:
        return 1.0
    return 1.0 - cache_bytes / working_set


@dataclass(frozen=True)
class ReuseStream:
    """Bytes of re-accesses whose hit/miss depends on one reuse window."""

    label: str
    bytes: float
    working_set: float


@dataclass
class TrafficModel:
    """Compulsory bytes plus cache-dependent reuse streams."""

    compulsory: float
    streams: list[ReuseStream] = field(default_factory=list)

    def dram_bytes(self, cache_bytes: float) -> float:
        """Total DRAM traffic given a per-thread cache capacity."""
        total = self.compulsory
        for s in self.streams:
            total += s.bytes * miss_fraction(s.working_set, cache_bytes)
        return total

    def worst_case_bytes(self) -> float:
        """Traffic with no cache at all."""
        return self.compulsory + sum(s.bytes for s in self.streams)

    def scaled(self, fraction: float) -> "TrafficModel":
        """Proportional share of the model (for per-task accounting).

        Byte volumes scale; reuse windows do not (a slice of the box
        still fights the same windows).
        """
        return TrafficModel(
            self.compulsory * fraction,
            [ReuseStream(s.label, s.bytes * fraction, s.working_set) for s in self.streams],
        )

    def structure_key(self) -> tuple:
        """Hashable content key: two models with equal keys produce the
        same ``dram_bytes`` for every cache capacity."""
        return (
            self.compulsory,
            tuple((s.bytes, s.working_set) for s in self.streams),
        )


def _series_traffic(variant: Variant, shape: Sequence[int], c: int) -> TrafficModel:
    dim = len(shape)
    cells = cells_of(shape)
    ghosted = ghosted_cells_of(shape)
    cif = c if variant.component_loop == "CLI" else 1
    footprint = box_footprint_bytes(variant, shape, c)
    scratch = scratch_bytes(variant, shape, c)
    streams: list[ReuseStream] = []
    for d in range(dim):
        faces = faces_of(shape, d)
        if d > 0:
            # Stencil rereads along y/z (x rereads are register-level).
            streams.append(
                ReuseStream(
                    f"phi0-stencil-d{d}",
                    3 * c * ghosted * DOUBLE,
                    stencil_window_bytes(shape, d, cif),
                )
            )
        # Flux temporary: written by EvalFlux1, rw by EvalFlux2, read by
        # the accumulation — spills when the face array outgrows cache.
        streams.append(
            ReuseStream(f"flux-d{d}", 4 * c * faces * DOUBLE, scratch)
        )
        if variant.component_loop == "CLI":
            # Velocity copy: written once, read for each component.
            streams.append(
                ReuseStream(f"velocity-d{d}", (1 + c) * faces * DOUBLE, scratch)
            )
    # phi0 reread once per extra direction.
    streams.append(
        ReuseStream("phi0-cross-dir", (dim - 1) * c * ghosted * DOUBLE, footprint)
    )
    # phi1 reread/rewritten each direction beyond the compulsory
    # init-write + final writeback.
    streams.append(
        ReuseStream(
            "phi1-cross-dir", (2 * dim - 1) * c * cells * DOUBLE, footprint
        )
    )
    compulsory = (c * ghosted + 2 * c * cells) * DOUBLE
    return TrafficModel(compulsory, streams)


def _shift_fuse_traffic(variant: Variant, shape: Sequence[int], c: int) -> TrafficModel:
    dim = len(shape)
    cells = cells_of(shape)
    ghosted = ghosted_cells_of(shape)
    vel_faces = sum(faces_of(shape, d) for d in range(dim))
    cif = c if variant.component_loop == "CLI" else 1
    footprint = box_footprint_bytes(variant, shape, c)
    # The fused sweep keeps several streams live at once: the phi0
    # stencil window plus, at plane rate, the three velocities, the two
    # rolling caches, and phi1.  Plane-distance reuse must fit the
    # whole co-resident set, not the phi0 window alone.
    plane = cells // int(shape[-1]) if dim >= 2 else 1
    co_resident = 6 * plane * cif * DOUBLE
    streams: list[ReuseStream] = [
        # Stencil rereads, now within the single fused traversal.
        ReuseStream(
            "phi0-stencil-y",
            3 * c * ghosted * DOUBLE,
            stencil_window_bytes(shape, 1, cif) if dim > 1 else 0.0,
        ),
    ]
    if dim > 2:
        streams.append(
            ReuseStream(
                "phi0-stencil-z",
                3 * c * ghosted * DOUBLE,
                stencil_window_bytes(shape, 2, cif) + co_resident,
            )
        )
        # phi0 reread by the sweep after the velocity precompute pass.
        streams.append(
            ReuseStream("phi0-sweep", c * ghosted * DOUBLE, footprint)
        )
    # Velocity: written at precompute, read back during the sweep; CLO
    # rereads once per component pass.
    reread = 1 + (c - 1 if variant.component_loop == "CLO" else 0)
    streams.append(
        ReuseStream(
            "velocity", (1 + reread) * vel_faces * DOUBLE, footprint
        )
    )
    # Rolling flux caches: one write + one read per interior face.  The
    # reuse window is the rolling cache itself (a plane + a row per
    # component in flight), NOT the whole scratch — the velocity arrays
    # are streamed, they do not sit between a cache write and its read.
    plane = cells // int(shape[-1]) if dim >= 2 else 1
    row = int(shape[0])
    cache_ws = 2 * (plane + row + 1) * cif * DOUBLE
    streams.append(
        ReuseStream("flux-cache", 2 * (dim - 1) * c * cells * DOUBLE, cache_ws)
    )
    # phi1 is revisited within the sweep window only; one extra read
    # beyond the compulsory init-write/writeback pair.
    streams.append(ReuseStream("phi1-sweep", c * cells * DOUBLE, footprint))
    compulsory = (c * ghosted + 2 * c * cells) * DOUBLE
    return TrafficModel(compulsory, streams)


def _wavefront_traffic(variant: Variant, shape: Sequence[int], c: int) -> TrafficModel:
    dim = len(shape)
    t = variant.tile_size
    cells = cells_of(shape)
    ghosted = ghosted_cells_of(shape)
    vel_faces = sum(faces_of(shape, d) for d in range(dim))
    footprint = box_footprint_bytes(variant, shape, c)
    # Tiles read a (t+2)-band of phi0 per direction for their own faces:
    # the inter-tile stencil overlap.
    overlap = ((t + 2) / t) ** dim - 1.0
    # Reuse window for overlap data: the wavefront frontier (~ a tile
    # slab of the box per component in flight).
    cif = c if variant.component_loop == "CLI" else 1
    frontier = (cells // int(shape[-1])) * t * cif * DOUBLE
    streams = [
        ReuseStream("phi0-tile-overlap", overlap * c * cells * DOUBLE, frontier),
        # Velocity precompute (box-sized) spills exactly as shift-fuse.
        ReuseStream(
            "velocity",
            (2 + (c - 1 if variant.component_loop == "CLO" else 0))
            * vel_faces
            * DOUBLE,
            footprint,
        ),
        # Frontier flux-cache planes: written/read once per tile face.
        ReuseStream(
            "flux-cache",
            2 * dim * c * (cells // t) * DOUBLE,
            scratch_bytes(variant, shape, c),
        ),
        ReuseStream("phi1-sweep", c * cells * DOUBLE, footprint),
    ]
    compulsory = (c * ghosted + 2 * c * cells) * DOUBLE
    return TrafficModel(compulsory, streams)


def _overlapped_traffic(variant: Variant, shape: Sequence[int], c: int) -> TrafficModel:
    dim = len(shape)
    t = variant.tile_size
    cells = cells_of(shape)
    # Each tile reads its tile grown by the 2-cell stencil ring: the
    # communication-avoiding redundancy (§IV-D).
    overlap = ((t + 4) / t) ** dim - 1.0
    # Overlap rereads may hit data a neighbouring tile just pulled into
    # the shared cache; window ~ a row of ghosted tiles.
    row_ws = c * (t + 4) ** (dim - 1) * (int(shape[0]) + 4) * DOUBLE
    scratch = scratch_bytes(variant, shape, c)
    ntiles = max(1, cells // (t ** dim))
    tile_cells = t ** dim
    tile_faces = sum(faces_of((t,) * dim, d) for d in range(dim))
    # Everything one tile touches: its ghosted phi0 reach plus scratch.
    # When this outgrows the per-thread cache (tile 32 on a busy
    # socket), the tile behaves like a miniature large box: the series
    # intra-tile schedule rereads phi0 once per direction, the fused one
    # once after its velocity precompute — the reason the paper found
    # tile sizes of 8 and 16 the most efficient (§VI).
    tile_footprint = c * (t + 4) ** dim * DOUBLE + scratch
    ghosted_reads = c * cells * ((t + 4) / t) ** dim * DOUBLE
    if variant.intra_tile == "basic":
        # Per-tile series: flux written/rw/read per direction.
        scratch_stream = 4 * c * tile_faces * ntiles * DOUBLE
        cross_dir = (dim - 1) * ghosted_reads
    elif variant.intra_tile == "wavefront":
        # Hierarchical (extension): the inner blocked wavefront keeps
        # cross-direction reuse at *inner*-tile footprint — it fits the
        # cache even when the outer tile would not.
        ti = variant.inner_tile_size
        scratch_stream = (
            2 * tile_faces + 2 * (dim - 1) * tile_cells
        ) * c * ntiles * DOUBLE
        cross_dir = (dim - 1) * ghosted_reads
        tile_footprint = c * (ti + 2) ** dim * DOUBLE + scratch
    else:
        # Per-tile fused: velocity faces written+read, rolling caches.
        scratch_stream = (
            2 * tile_faces + 2 * (dim - 1) * tile_cells
        ) * c * ntiles * DOUBLE
        cross_dir = ghosted_reads
    streams = [
        ReuseStream("phi0-overlap", overlap * c * cells * DOUBLE, row_ws),
        ReuseStream("tile-scratch", scratch_stream, scratch),
        ReuseStream("phi0-tile-cross-dir", cross_dir, tile_footprint),
        # In-tile stencil windows are tile-sized: model them against the
        # tile scratch footprint (they only miss for tile 32-ish sizes).
        ReuseStream(
            "phi0-stencil-tile",
            6 * c * cells * DOUBLE,
            c * 4 * (t + 4) ** (dim - 1) * DOUBLE,
        ),
    ]
    ghosted = ghosted_cells_of(shape)
    compulsory = (c * ghosted + 2 * c * cells) * DOUBLE
    return TrafficModel(compulsory, streams)


def variant_traffic(
    variant: Variant, shape: int | Sequence[int], ncomp: int = 5, dim: int = 3
) -> TrafficModel:
    """DRAM-traffic model for one box of ``shape`` cells under ``variant``."""
    if isinstance(shape, int):
        shape = (shape,) * dim
    shape = tuple(int(s) for s in shape)
    builders = {
        "series": _series_traffic,
        "shift_fuse": _shift_fuse_traffic,
        "blocked_wavefront": _wavefront_traffic,
        "overlapped": _overlapped_traffic,
    }
    return builders[variant.category](variant, shape, ncomp)
