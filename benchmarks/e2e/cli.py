"""Command line of the end-to-end benchmark.

``python3 benchmarks/e2e --workload NAME --seed S --seconds T --trace 0|1``
(or ``python -m benchmarks.e2e`` from the repository root) runs rounds of
the named workloads, each round in a fresh interpreter, round-robin
across workloads so each workload's rounds spread over the whole run.
It checks every round's outputs, prints every metric by name with its
unit, writes a result file under ``.benchmarks/e2e/``, and ends with one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``.

Statistics (``README.md`` explains why): ``throughput_rps`` is n over
the fastest untraced replay's timed phase, ``setup_s`` the median
round's spawn-to-ready time, ``peak_rss_mb`` the largest round's peak
resident set.

``--compare A.json B.json`` diffs two result files against the bounds in
``BENCHMARK.json`` and exits 1 when any (metric, workload) pair worsened
beyond its bound.

This module never imports the program under test: a checkout without
it fails in the first child process, before any result is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Iterator

from benchmarks.e2e.catalog import (
    BENCHMARK_FILE,
    DIGESTS_FILE,
    HERE,
    OUT_DIR,
    ROOT,
    WORKLOADS,
)

#: The floor of rounds per workload and round kind (untraced, traced),
#: however short the --seconds budget.
MIN_ROUNDS = 3
#: Timed replays per round, after one set-up: more, shorter samples
#: spread over the run catch more of the machine's quiet moments.
REPS = 4
CHILD_TIMEOUT_S = 150.0


class BenchmarkError(Exception):
    """A round or the preparation step died: no result is printed."""


# ------------------------------------------------------------ children
def _child(args: list[str], env: dict[str, str]) -> dict[str, Any]:
    cmd = [sys.executable, str(HERE / "child.py"), *args]
    try:
        proc = subprocess.run(
            cmd,
            env=env,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{' '.join(args)}: timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"{' '.join(args)}: exit code {proc.returncode}")
    return json.loads(lines[-1])


def _round(
    name: str, seed: int, traced: bool, round_id: int, env: dict[str, str]
) -> dict[str, Any]:
    n = WORKLOADS[name]
    args = ["round", name, "--seed", str(seed), "--n", str(n),
            "--round-id", str(round_id), "--reps", str(REPS)]
    if traced:
        args.append("--traced")
    # Taken last, so set-up time starts at the spawn itself.
    spawn = time.monotonic()
    return _child([*args, "--spawn", repr(spawn)], env)


def _schedule(
    names: list[str], trace: bool, seconds: float
) -> Iterator[tuple[str, bool]]:
    """Yield (workload, traced) round-robin until ``seconds`` per
    workload are spent (checked before every round), and at least
    ``MIN_ROUNDS`` of each kind; traced rounds join when tracing."""
    kinds = [(n, t) for n in names for t in ((False, True) if trace else (False,))]
    done = dict.fromkeys(kinds, 0)
    start = time.monotonic()

    def wanted(kind: tuple[str, bool]) -> bool:
        spent = time.monotonic() - start >= seconds * len(names)
        return done[kind] < MIN_ROUNDS or not spent

    while any(wanted(k) for k in kinds):
        for kind in kinds:
            if wanted(kind):
                yield kind
                done[kind] += 1


# ---------------------------------------------------------- statistics
def _spec() -> dict[str, Any]:
    return json.loads(BENCHMARK_FILE.read_text())


def _stored_digests() -> dict[str, dict[str, Any]]:
    return json.loads(DIGESTS_FILE.read_text())["workloads"]


def _summarise(
    name: str,
    rounds: list[dict[str, Any]],
    seed: int,
    ref: str | None,
    spec: dict[str, Any],
) -> dict[str, Any]:
    n = WORKLOADS[name]
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    problems: list[str] = []

    # Which digest every round must reproduce: the stored seed-0 digest,
    # the simulate() reference of a wire workload, else the rounds' own
    # majority (traced and untraced rounds alike).
    authorities = []
    stored = _stored_digests().get(name)
    if seed == 0 and stored is not None and stored["n"] == n:
        authorities.append(("seed-0 digest", stored["digest"]))
    if ref is not None:
        authorities.append(("simulate() reference", ref))
    conflict = len({d for _, d in authorities}) > 1
    if conflict:
        problems.append(f"{authorities[0][0]} != {authorities[1][0]}")
    samples = [rep for r in rounds for rep in r["reps"]]
    digests = [rep["digest"] for rep in samples]
    expected = (
        authorities[0][1] if authorities
        else max(set(digests), key=digests.count)
    )
    label = authorities[0][0] if authorities else "the other replays"
    failed = 0
    for r in rounds:
        for rep in r["reps"]:
            bad = list(rep["problems"])
            if rep["digest"] != expected:
                bad.append(f"digest {rep['digest']} differs from {label}")
            if bad or conflict:
                failed += n
            problems.extend(f"round {r['round']}: {p}" for p in bad)

    best = min(rep["wall_s"] for r in plain for rep in r["reps"])
    end_to_end = {
        "throughput_rps": n / best,
        "setup_s": statistics.median(r["setup_s"] for r in plain),
        "peak_rss_mb": max(r["rss_mb"] for r in plain),
    }
    out: dict[str, Any] = {
        "n": n,
        "rounds": [
            {
                **r,
                "reps": [
                    {k: v for k, v in rep.items() if k != "spans"}
                    for rep in r["reps"]
                ],
            }
            for r in rounds
        ],
        "attempted": n * len(samples),
        "failed": failed,
        "problems": problems,
        "metrics": _with_units(end_to_end, spec["end_to_end"]),
    }
    if traced:
        fastest = min(
            (rep for r in traced for rep in r["reps"]), key=lambda rep: rep["wall_s"]
        )
        layers = dict(fastest["layers"])
        # Set-up layers are untraced: the median over untraced rounds.
        for key in plain[0]["setup"]:
            layers[key] = statistics.median(r["setup"][key] for r in plain)
        out["layers"] = layers
        out["stages"] = fastest["stages"]
        out["trace_overhead"] = fastest["wall_s"] / best - 1.0
        out["metrics_per_layer"] = _with_units(layers, spec["per_layer"])
    return out


def _with_units(
    values: dict[str, float], specs: list[dict[str, Any]]
) -> dict[str, dict[str, Any]]:
    return {
        s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
        for s in specs
        if s["name"] in values
    }


def _provenance(
    args: argparse.Namespace, rounds: dict[str, list[dict[str, Any]]]
) -> dict[str, Any]:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=30,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    return {
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "kernel": platform.release(),
        "git_revision": rev,
        "seed": args.seed,
        "seconds": args.seconds,
        "rounds": {name: len(rs) for name, rs in rounds.items()},
        "replays_per_round": REPS,
        "trace": bool(args.trace),
        "utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


# ---------------------------------------------------------------- output
def _print_report(summaries: dict[str, dict[str, Any]]) -> None:
    for name, s in summaries.items():
        n_plain = sum(1 for r in s["rounds"] if not r["traced"])
        print(f"== {name}: n={s['n']}, {n_plain} untraced rounds, "
              f"{len(s['rounds']) - n_plain} traced, {REPS} replays each, "
              f"{s['failed']} of {s['attempted']} requests failed")
        for metric, m in s["metrics"].items():
            print(f"   {metric:<18} {m['value']:>14.6g} {m['unit']}")
        for problem in s["problems"]:
            print(f"   CHECK FAILED {problem}")
        if "layers" in s:
            print(f"   tracing overhead {s['trace_overhead']:+.1%} (fastest "
                  "traced vs untraced replay)")
            for key, value in sorted(s["layers"].items()):
                print(f"   {key:<34} {value:>14.6g}")
            wall = s["layers"]["timed.wall_s"]
            print(f"   stages (sum to timed.wall_s = {wall:.4f} s):")
            for key, value in s["stages"].items():
                print(f"     {key:<32} {value:>10.4f} s {value / wall:>7.1%}")


def _write_traces(
    name: str, rounds: list[dict[str, Any]], summary: dict[str, Any]
) -> None:
    spans = [
        span
        for r in rounds
        if r["traced"]
        for span in _offset(
            min(r["reps"], key=lambda rep: rep["wall_s"])["spans"], r
        )
    ]
    (OUT_DIR / f"trace-{name}.json").write_text(
        json.dumps(
            {
                "workload": name,
                "layers": summary["layers"],
                "stages": summary["stages"],
                "spans": spans,
            }
        )
    )


def _offset(
    spans: list[dict[str, Any]], r: dict[str, Any]
) -> Iterator[dict[str, Any]]:
    """Give parents round-qualified ids so several rounds share a file."""
    for i, span in enumerate(spans):
        parent = span["parent"]
        yield {
            **span,
            "id": f"{r['round']}:{i}",
            "parent": None if parent is None else f"{r['round']}:{parent}",
        }


def run(args: argparse.Namespace) -> int:
    names = args.workloads.split(",") if args.workloads else list(WORKLOADS)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"unknown workload(s) {unknown}; one of {list(WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = _spec()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    # A private plan store per run, primed once: no GA search is timed,
    # and two checkouts never share a store.
    store = tempfile.mkdtemp(prefix="store-", dir=OUT_DIR)
    env = {**os.environ, "SPLIT_CACHE_DIR": store}
    try:
        prepared = _child(
            ["prepare", "--workloads", ",".join(names), "--seed", str(args.seed)],
            env,
        )
        rounds: dict[str, list[dict[str, Any]]] = {n: [] for n in names}
        plan = _schedule(names, bool(args.trace), args.seconds)
        for i, (name, traced) in enumerate(plan):
            rounds[name].append(_round(name, args.seed, traced, i, env))
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(store, ignore_errors=True)

    summaries = {
        name: _summarise(
            name, rounds[name], args.seed, prepared["refs"].get(name), spec
        )
        for name in names
    }
    _print_report(summaries)
    label = names[0] if len(names) == 1 else "+".join(names)
    suffix = "-trace" if args.trace else ""
    result_file = OUT_DIR / f"result-{label}-seed{args.seed}{suffix}.json"
    result_file.write_text(
        json.dumps(
            {"provenance": _provenance(args, rounds), "workloads": summaries},
            indent=1,
        )
    )
    if args.trace:
        for name in names:
            _write_traces(name, rounds[name], summaries[name])
    print(f"result file: {result_file.relative_to(ROOT)}")

    key = "metrics_per_layer" if args.trace else "metrics"
    metrics: dict[str, Any] = {}
    for name, s in summaries.items():
        for metric, m in s[key].items():
            metrics[metric if len(names) == 1 else f"{name}.{metric}"] = m
    attempted = sum(s["attempted"] for s in summaries.values())
    failed = sum(s["failed"] for s in summaries.values())
    correct = failed == 0 and not any(s["problems"] for s in summaries.values())
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


# --------------------------------------------------------------- compare
def compare(old_path: str, new_path: str) -> int:
    """Print each (metric, workload) pair as old -> new, its change and
    its bound; 1 when any pair worsened beyond its bound."""
    old = json.loads(Path(old_path).read_text())["workloads"]
    new = json.loads(Path(new_path).read_text())["workloads"]
    worse = 0
    for m in _spec()["end_to_end"]:
        for name in [w for w in WORKLOADS if w in old and w in new]:
            a = old[name]["metrics"].get(m["name"])
            b = new[name]["metrics"].get(m["name"])
            if a is None or b is None:
                continue
            delta = b["value"] / a["value"] - 1.0
            loss = -delta if m["better"] == "higher" else delta
            verdict = "WORSE" if loss > m["bound"] else "ok"
            worse += verdict == "WORSE"
            print(f"{m['name']:<16} {name:<14} {a['value']:>12.6g} -> "
                  f"{b['value']:>12.6g} {m['unit']:<6} {delta:>+8.2%}  "
                  f"bound {m['bound']:.0%}  {verdict}")
    for name in [w for w in WORKLOADS if w in new]:
        if new[name]["failed"]:
            print(f"{name}: {new[name]['failed']} requests failed their checks")
            worse += 1
    return 1 if worse else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e",
        description="End-to-end benchmark of the SPLIT reproduction.",
    )
    parser.add_argument(
        "--workloads", "--workload", default=None,
        help=f"comma-separated subset of {','.join(WORKLOADS)} (default all)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="time budget per workload (default: run_seconds in BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="add traced rounds and report per-layer metrics",
    )
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.seconds is None:
        args.seconds = float(_spec()["run_seconds"])
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run(args)
