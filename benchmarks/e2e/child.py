"""Child-process entry of the benchmark (one JSON line on stdout).

``child.py prepare --workloads a,b --seed S`` fills the plan store named
by ``SPLIT_CACHE_DIR`` and computes the wire workloads' ``simulate()``
reference digests; ``child.py round NAME --seed S --n N --spawn T``
runs one round (see :func:`benchmarks.e2e.workloads.run_round`).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="cmd", required=True)
    prep = sub.add_parser("prepare")
    prep.add_argument("--workloads", required=True)
    prep.add_argument("--seed", type=int, required=True)
    rnd = sub.add_parser("round")
    rnd.add_argument("workload")
    rnd.add_argument("--seed", type=int, required=True)
    rnd.add_argument("--n", type=int, required=True)
    rnd.add_argument("--spawn", type=float, required=True)
    rnd.add_argument("--round-id", type=int, default=0)
    rnd.add_argument("--reps", type=int, default=1)
    rnd.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)

    from benchmarks.e2e import workloads
    from benchmarks.e2e.catalog import WORKLOADS

    if args.cmd == "prepare":
        names = args.workloads.split(",")
        workloads.prime(names, args.seed)
        out = {
            "refs": {
                name: workloads.reference_digest(name, WORKLOADS[name], args.seed)
                for name in names
            }
        }
    else:
        out = workloads.run_round(
            args.workload,
            args.n,
            args.seed,
            traced=args.traced,
            round_id=args.round_id,
            spawn=args.spawn,
            reps=args.reps,
        )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    # Import this checkout's program and benchmark package, never another
    # copy (the script's own directory is dropped from the path).
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    sys.exit(main())
