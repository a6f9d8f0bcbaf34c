"""CLI for the differential correctness harness.

Examples::

    python -m repro.verify --seed 2014 --cases 150
    python -m repro.verify --family bitwise --cases 40
    python -m repro.verify --repro out/verify/repro-2014-17.json

Exit status is 0 when every case passes and 1 otherwise, so the seeded
CI job fails the build on any counterexample.
"""

from __future__ import annotations

import argparse
import sys

from .config import FAMILIES
from .runner import load_repro, run_verification
from .checks import run_check


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description="Property-based differential verification of the PDE "
        "schedule variants, model engines, and analytic invariants.",
    )
    parser.add_argument(
        "--seed", type=int, default=2014,
        help="RNG seed for case generation (default: 2014)",
    )
    parser.add_argument(
        "--cases", type=int, default=100,
        help="number of randomized cases (default: 100)",
    )
    parser.add_argument(
        "--family", choices=FAMILIES, action="append", dest="families",
        help="restrict to one check family (repeatable; default: all seven)",
    )
    parser.add_argument(
        "--repro", metavar="FILE",
        help="replay one repro file instead of generating cases",
    )
    parser.add_argument(
        "--out-dir", default="out/verify",
        help="directory for repro files of failing cases (default: out/verify)",
    )
    parser.add_argument(
        "--no-shrink", action="store_true",
        help="skip counterexample shrinking on failure",
    )
    args = parser.parse_args(argv)

    if args.repro:
        try:
            cfg, doc = load_repro(args.repro)
        except (OSError, ValueError, KeyError) as exc:
            print(f"cannot load repro file {args.repro}: {exc}", file=sys.stderr)
            return 2
        print(f"replaying {args.repro}: {cfg.label()}")
        failures = run_check(cfg)
        if failures:
            print(f"{len(failures)} failure(s):")
            for msg in failures:
                print(f"  - {msg}")
            return 1
        print("case passes on the current tree")
        if doc.get("failures"):
            print("(the repro file recorded failures — likely fixed since)")
        return 0

    report = run_verification(
        seed=args.seed,
        cases=args.cases,
        families=args.families,
        out_dir=args.out_dir,
        do_shrink=not args.no_shrink,
        progress=lambda msg: print(msg, file=sys.stderr),
    )
    print(report.summary())
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
