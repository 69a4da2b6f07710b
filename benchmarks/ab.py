"""Paired A/B runs of the end-to-end benchmark: a base revision against
the working tree.

``python3 benchmarks/ab.py --workloads W[,W2] --pairs N --seed S
[--seconds T] [--base REV]`` extracts ``REV`` (default ``HEAD``) into a
temporary directory with ``git archive``, removed on exit, so the
repository itself is never touched. Pair ``i`` runs ``python3
benchmarks/e2e --workloads W --seed S+i [--seconds T]`` once in each
checkout, and the side that runs first alternates from pair to pair, so
a slow stretch of the machine lands on both sides alike.

For each workload and end-to-end metric of ``BENCHMARK.json`` it prints
each side's median and quartiles and the pairs the change won (a tie
counts for neither side; ``better`` says which way wins), and whether
the gain rule holds: the change won at least 9 of every 10 pairs, and
its median beats the base's by more than the base's interquartile
range. It prints the failed and attempted requests of each side and
exits 1 when any run is not correct. It refuses to run (exit 2) when
the benchmark itself, ``benchmarks/e2e/`` or ``BENCHMARK.json``,
differs between the two checkouts: the pairs would not measure the same
thing.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Any, NamedTuple

ROOT = Path(__file__).resolve().parents[1]
#: What must be byte-identical in both checkouts.
BENCHMARK_PATHS = ("BENCHMARK.json", "benchmarks/e2e")
#: The gain rule: the change wins at least 9 of every 10 pairs.
WINS_PER_TEN = 9


class Spread(NamedTuple):
    """First quartile, median and third quartile of one side's runs."""

    q1: float
    median: float
    q3: float


class Verdict(NamedTuple):
    """One metric on one workload, over every pair."""

    base: Spread
    change: Spread
    won: int
    pairs: int
    holds: bool


def spread(values: list[float]) -> Spread:
    """Quartiles by :func:`statistics.quantiles` (its default, exclusive
    method); one value is its own quartiles."""
    if len(values) == 1:
        return Spread(values[0], values[0], values[0])
    q1, median, q3 = statistics.quantiles(values, n=4)
    return Spread(q1, median, q3)


def verdict(base: list[float], change: list[float], better: str) -> Verdict:
    """Compare aligned per-pair values; ``better`` is ``"higher"`` or
    ``"lower"``, as in ``BENCHMARK.json``."""
    if len(base) != len(change) or not base:
        raise ValueError("need one base and one change value per pair")
    sign = {"higher": 1.0, "lower": -1.0}[better]
    won = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    b, c = spread(base), spread(change)
    gap = sign * (c.median - b.median)
    holds = 10 * won >= WINS_PER_TEN * len(base) and gap > b.q3 - b.q1
    return Verdict(b, c, won, len(base), holds)


def benchmark_differs(a: Path, b: Path) -> list[str]:
    """The files under :data:`BENCHMARK_PATHS` that are not identical in
    checkouts ``a`` and ``b`` (bytecode caches aside)."""

    def files(root: Path) -> dict[str, bytes]:
        out = {}
        for rel in BENCHMARK_PATHS:
            top = root / rel
            paths = [top] if top.is_file() else sorted(top.rglob("*"))
            for path in paths:
                if path.is_file() and "__pycache__" not in path.parts:
                    out[path.relative_to(root).as_posix()] = path.read_bytes()
        return out

    fa, fb = files(a), files(b)
    return sorted(k for k in fa.keys() | fb.keys() if fa.get(k) != fb.get(k))


def extract(rev: str, dest: Path) -> str:
    """Write the tree of ``rev`` into ``dest``; returns the commit id."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.strip()
    archive = subprocess.run(
        ["git", "archive", "--format=tar", commit],
        cwd=ROOT, capture_output=True, check=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return commit


def run_e2e(
    checkout: Path, workloads: str, seed: int, seconds: float | None
) -> dict[str, Any]:
    """One benchmark run; its closing JSON line, or an incorrect run
    with no metrics when it printed none."""
    cmd = [sys.executable, "benchmarks/e2e", "--workloads", workloads,
           "--seed", str(seed)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                "error": f"exit {proc.returncode}: {tail[0]}"}


def _value(run: dict[str, Any], workload: str, metric: str, single: bool) -> float:
    key = metric if single else f"{workload}.{metric}"
    return run["metrics"][key]["value"]


def _fmt(x: float) -> str:
    return f"{x:,.0f}" if abs(x) >= 1e4 else f"{x:.4g}"


def report(
    runs: dict[str, list[dict[str, Any]]],
    workloads: list[str],
    spec: dict[str, Any],
) -> int:
    """Print the comparison of every ok pair; 1 when any run was not
    correct."""
    ok = [
        i for i, (b, c) in enumerate(zip(runs["base"], runs["change"]))
        if b["metrics"] and c["metrics"]
    ]
    single = len(workloads) == 1
    print(f"\n{'workload':<14} {'metric':<15} {'unit':<6} "
          f"{'base median [Q1, Q3]':<32} {'change median [Q1, Q3]':<32} "
          f"{'won':>6}  gain rule")
    for workload in workloads if ok else ():
        for m in spec["end_to_end"]:
            base = [_value(runs["base"][i], workload, m["name"], single) for i in ok]
            change = [_value(runs["change"][i], workload, m["name"], single) for i in ok]
            v = verdict(base, change, m["better"])
            cells = [
                f"{_fmt(s.median)} [{_fmt(s.q1)}, {_fmt(s.q3)}]"
                for s in (v.base, v.change)
            ]
            print(f"{workload:<14} {m['name']:<15} {m['unit']:<6} "
                  f"{cells[0]:<32} {cells[1]:<32} {v.won:>3}/{v.pairs:<2}  "
                  f"{'holds' if v.holds else 'does not hold'} "
                  f"(change/base median {v.change.median / v.base.median:.3f})")
    bad = 0
    for side, side_runs in runs.items():
        failed = sum(r["failed"] for r in side_runs)
        attempted = sum(r["attempted"] for r in side_runs)
        side_bad = sum(not r["correct"] for r in side_runs)
        print(f"{side}: {failed} of {attempted} requests failed; "
              f"{side_bad} of {len(side_runs)} runs not correct")
        bad += side_bad
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 benchmarks/ab.py",
        description="Paired A/B runs of benchmarks/e2e: a base revision "
        "against the working tree.",
    )
    parser.add_argument("--workloads", required=True,
                        help="comma-separated e2e workloads")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the first pair; pair i runs seed+i")
    parser.add_argument("--seconds", type=float, default=None,
                        help="e2e time budget per workload (default: its own)")
    parser.add_argument("--base", default="HEAD", help="base revision")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    workloads = args.workloads.split(",")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    with tempfile.TemporaryDirectory(prefix="ab-base-") as tmp:
        base_dir = Path(tmp)
        commit = extract(args.base, base_dir)
        differs = benchmark_differs(base_dir, ROOT)
        if differs:
            print(f"refusing: the benchmark differs between {args.base} and "
                  f"the working tree: {', '.join(differs)}", file=sys.stderr)
            return 2
        print(f"base {args.base} ({commit[:12]}) vs working tree {ROOT}; "
              f"{args.pairs} pairs, seeds {args.seed}-{args.seed + args.pairs - 1}")
        checkouts = {"base": base_dir, "change": ROOT}
        runs: dict[str, list[dict[str, Any]]] = {"base": [], "change": []}
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                run = run_e2e(checkouts[side], args.workloads, seed, args.seconds)
                runs[side].append(run)
                shown = ", ".join(
                    f"{k} {_fmt(v['value'])}" for k, v in run["metrics"].items()
                ) or run.get("error", "")
                print(f"pair {i + 1}/{args.pairs} seed {seed} {side:<6} "
                      f"correct={run['correct']}: {shown}", flush=True)
    return report(runs, workloads, spec)


if __name__ == "__main__":
    sys.exit(main())
