"""Differential correctness harness (``python -m repro.verify``).

A seeded generator draws randomized configurations — domain shape
(including anisotropic), box size, ghost width, per-axis periodicity,
component count, schedule variants, simulated machine, thread count,
and execution-substrate toggles — and drives seven check families:

* **bitwise** — every variant equals the reference kernel bitwise,
  under arena/pool/tracing toggle combinations;
* **engines** — the closed-form estimate and the event-driven
  simulation agree (exact bookkeeping, bounded time divergence);
* **invariants** — Table I temporaries vs instrumented allocations,
  traffic monotonicity in cache size, parallelism-profile bounds;
* **metamorphic** — domain translation, component permutation, and
  periodic-shift invariance;
* **cluster** — decomposition conservation, the ``nodes=1``
  reduction, scaling-efficiency and latency monotonicity;
* **memo** — canonical-key stability and sensitivity, bitwise hit
  replay, exact coalesced accounting;
* **overload** — AIMD limiter trajectories, the retry amplification
  bound, deadline-capped backoff, hedged-request accounting.

Failures shrink to a minimal counterexample and serialize as replayable
JSON repro files.  See :mod:`repro.verify.__main__` for the CLI.
"""

from .checks import (
    check_bitwise,
    check_cluster,
    check_engines,
    check_invariants,
    check_memo,
    check_metamorphic,
    check_overload,
    run_check,
)
from .config import (
    FAMILIES,
    VerifyConfig,
    random_config,
    variant_by_short_name,
    variant_registry,
)
from .runner import (
    CaseResult,
    VerifyReport,
    load_repro,
    replay_repro,
    run_verification,
)
from .shrink import shrink

__all__ = [
    "FAMILIES",
    "VerifyConfig",
    "CaseResult",
    "VerifyReport",
    "random_config",
    "variant_registry",
    "variant_by_short_name",
    "run_check",
    "check_bitwise",
    "check_cluster",
    "check_engines",
    "check_invariants",
    "check_memo",
    "check_metamorphic",
    "check_overload",
    "run_verification",
    "load_repro",
    "replay_repro",
    "shrink",
]
