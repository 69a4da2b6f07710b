"""Throughput floors taken from the end-to-end benchmark.

For each workload of ``benchmarks/e2e`` this runs one in-process round
at the benchmark's n and seed 0: set up once, then three timed replays
of the same trace. No replay may report a problem (the workload's own
output checks: conservation, failover, server counters), and the fastest
replay must reach a third of the workload's set-A median throughput in
``benchmarks/e2e/baseline.json``. A path that runs three times slower
than its recorded median fails; re-measuring the baseline moves every
floor with it.

Wall-clock throughput is noisy on shared machines, so the floors only
run when ``SPLIT_BENCH_PIN`` is set (``make bench-check`` sets it);
plain ``pytest benchmarks/`` skips them.
"""

from __future__ import annotations

import json
import os

import pytest

from benchmarks.e2e.catalog import HERE, WORKLOADS
from benchmarks.e2e.workloads import run_round

#: Share of the baseline median a workload must reach.
FLOOR_FRACTION = 1 / 3
REPS = 3

_BASELINE = json.loads((HERE / "baseline.json").read_text())["sets"]["A"]


@pytest.mark.skipif(
    not os.environ.get("SPLIT_BENCH_PIN"),
    reason="throughput floors run only under `make bench-check` "
    "(SPLIT_BENCH_PIN=1): wall-clock numbers are meaningless on busy "
    "machines",
)
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_throughput_floor(name):
    n = WORKLOADS[name]
    median = _BASELINE[name]["throughput_rps"]["median"]
    floor = FLOOR_FRACTION * median
    reps = run_round(name, n, 0, reps=REPS)["reps"]
    assert [r["problems"] for r in reps] == [[]] * REPS
    rps = n / min(r["wall_s"] for r in reps)
    print(f"{name}: {rps:,.0f} req/s, floor {floor:,.0f}")
    assert rps >= floor, (
        f"{name} throughput {rps:,.0f} req/s is under its floor "
        f"{floor:,.0f} (a third of the baseline median {median:,.0f})"
    )
