"""Simulated multicore machines reproducing the paper's testbeds (§VI-A).

Machine specs, a set-associative cache simulator, synthetic trace
generators, and the workload execution simulators (closed-form and
event-driven) that regenerate the paper's scaling figures.
"""

from .cache import CacheHierarchy, CacheStats, SetAssociativeCache
from .counters import BandwidthProfile, BandwidthSample, profile_workload
from .roofline import arithmetic_intensity, min_time_bound, roofline_gflops
from .simulator import (
    SimResult,
    achieved_bandwidth,
    estimate_workload,
    simulate_workload,
)
from .spec import (
    IVY_BRIDGE,
    IVY_DESKTOP,
    MAGNY_COURS,
    PAPER_MACHINES,
    SANDY_BRIDGE,
    MachineSpec,
    machine_by_name,
)
from .workload import Phase, WorkItem, Workload, build_workload

__all__ = [
    "BandwidthProfile",
    "BandwidthSample",
    "CacheHierarchy",
    "CacheStats",
    "profile_workload",
    "IVY_BRIDGE",
    "IVY_DESKTOP",
    "MAGNY_COURS",
    "MachineSpec",
    "PAPER_MACHINES",
    "Phase",
    "SANDY_BRIDGE",
    "SetAssociativeCache",
    "SimResult",
    "WorkItem",
    "Workload",
    "achieved_bandwidth",
    "arithmetic_intensity",
    "build_workload",
    "estimate_workload",
    "machine_by_name",
    "min_time_bound",
    "roofline_gflops",
    "simulate_workload",
]
