"""Interconnect and cluster topology model.

Grown from the seed's interconnect spec: the two-parameter
latency/bandwidth model is extended with per-peer link
bandwidth and a link-contention term, so a rank exchanging ghost zones
with many neighbors concurrently pays more than one streaming a single
message.  The defaults keep the seed's closed-form behaviour bitwise
(``transfer_seconds(bytes, messages)`` with one peer and no contention
is exactly ``bytes / bw + messages * latency``), which is what
:func:`repro.cluster.scaling.step_cost` and its tests rely on.

Named instances cover the paper's era and two common alternatives:

``GEMINI``
    Cray Gemini-class 3D torus (the paper's Cray XT6m testbed era):
    modest injection bandwidth, low latency, noticeable contention when
    many peers share torus links.
``FAT_TREE``
    QDR-InfiniBand-class fat tree: full bisection, light contention.
``HDR``
    Modern HDR-200-class fabric: high bandwidth, sub-microsecond
    latency, adaptive routing keeps contention minimal.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..machine.spec import MachineSpec

__all__ = [
    "ClusterSpec",
    "FAT_TREE",
    "GEMINI",
    "HDR",
    "INTERCONNECTS",
    "InterconnectSpec",
    "interconnect_by_name",
]


@dataclass(frozen=True)
class InterconnectSpec:
    """A node interconnect: injection bandwidth, latency, link contention.

    Parameters
    ----------
    bandwidth_gbs:
        Per-node injection bandwidth (GB/s).  The ceiling on what one
        rank can push into the network regardless of peer count.
    latency_us:
        Per-message latency (microseconds).  Charged once per message.
    link_gbs:
        Per-peer link bandwidth (GB/s).  With few peers the node cannot
        saturate its injection bandwidth: the effective rate is capped
        at ``peers * link_gbs``.  ``None`` (the seed behaviour) means
        links are never the bottleneck.
    contention:
        Fractional slowdown per *additional* concurrent peer, modelling
        shared links/switch ports.  Effective bandwidth is divided by
        ``1 + contention * (peers - 1)``; zero (the default) recovers
        the seed's contention-free model.
    """

    name: str
    bandwidth_gbs: float
    latency_us: float = 2.0
    link_gbs: float | None = None
    contention: float = 0.0

    def __post_init__(self):
        if self.bandwidth_gbs <= 0:
            raise ValueError("bandwidth must be positive")
        if self.latency_us < 0 or self.contention < 0:
            raise ValueError("latency and contention must be non-negative")
        if self.link_gbs is not None and self.link_gbs <= 0:
            raise ValueError("link bandwidth must be positive")

    def effective_gbs(self, peers: int = 1) -> float:
        """Achievable injection rate when exchanging with ``peers`` ranks."""
        if peers < 1:
            peers = 1
        rate = self.bandwidth_gbs
        if self.link_gbs is not None:
            rate = min(rate, peers * self.link_gbs)
        return rate / (1.0 + self.contention * (peers - 1))

    def transfer_seconds(
        self, bytes_per_node: float, messages: int, peers: int = 1
    ) -> float:
        """Time one node needs to exchange its ghost traffic.

        With the default ``peers=1`` this is bitwise the seed formula
        ``bytes / (bw * 1e9) + messages * latency_us * 1e-6``.
        """
        if bytes_per_node < 0 or messages < 0:
            raise ValueError("volumes must be non-negative")
        return (
            bytes_per_node / (self.effective_gbs(peers) * 1e9)
            + messages * self.latency_us * 1e-6
        )


#: Cray Gemini-class 3D torus (the paper's Cray XT6m era).  Keeps the
#: seed's headline numbers — a single-peer transfer is bitwise the seed
#: model — while torus-link contention penalizes many concurrent peers.
GEMINI = InterconnectSpec(
    "gemini", bandwidth_gbs=5.0, latency_us=1.5, link_gbs=5.0, contention=0.08
)

#: QDR-InfiniBand-class fat tree: full-bisection, light contention.
FAT_TREE = InterconnectSpec(
    "fat_tree", bandwidth_gbs=12.5, latency_us=1.0, link_gbs=12.5, contention=0.02
)

#: Modern HDR-200-class fabric: adaptive routing, sub-microsecond latency.
HDR = InterconnectSpec(
    "hdr", bandwidth_gbs=25.0, latency_us=0.6, link_gbs=25.0, contention=0.01
)

INTERCONNECTS: tuple[InterconnectSpec, ...] = (GEMINI, FAT_TREE, HDR)


def interconnect_by_name(name: str) -> InterconnectSpec:
    for spec in INTERCONNECTS:
        if spec.name == name:
            return spec
    known = ", ".join(s.name for s in INTERCONNECTS)
    raise ValueError(f"unknown interconnect {name!r} (known: {known})")


@dataclass(frozen=True)
class ClusterSpec:
    """Homogeneous nodes joined by an interconnect.

    One simulated rank per node (MPI-everywhere over boxes, §II of the
    paper): ``nodes`` is both the node count and the rank count.
    """

    node: MachineSpec
    interconnect: InterconnectSpec
    nodes: int

    def __post_init__(self):
        if self.nodes <= 0:
            raise ValueError("nodes must be positive")
