"""Fleet chaos throughput: the 100k kill-and-recover cell.

Pins ``fleet_chaos`` requests/second into the ``BENCH_<rev>.json``
trajectory: the full fault path — scripted kill schedule compiled to
timelines, parent-side failover re-deal, per-segment node replays with
in-flight loss accounting, ordered QoS merge — timed end to end against
the 100-node mixed inventory with a tenth of it dying mid-trace.

Under ``--benchmark-disable`` (CI) the replay runs once at reduced n and
keeps the conservation, failover and determinism assertions, so the
chaos path is exercised on every push without paying for timing rounds.
"""

from __future__ import annotations

from repro.cluster import DEFAULT_INVENTORY, FleetOrchestrator
from repro.experiments.fleet import derived_lambda_ms
from repro.experiments.fleet_chaos import scripted_kill_schedule
from repro.runtime.simulator import warm_caches
from repro.runtime.workload import Scenario

SEED = 0


def test_bench_fleet_chaos(benchmark, ctx):
    """Chaos-replay requests/second with 10 of 100 nodes killed
    mid-trace (the ``fleet_chaos`` trajectory number)."""
    n = 100_000 if benchmark.enabled else 10_000
    clean = FleetOrchestrator(DEFAULT_INVENTORY, models=ctx.models, seed=SEED)
    warm_caches(ctx.models, ctx.device.name)
    lambda_ms = derived_lambda_ms(clean)  # triggers deploy off the clock
    scenario = Scenario("bench-chaos", lambda_ms, "high", n_requests=n)
    plan = scripted_kill_schedule(
        len(clean.nodes), clean.fault_horizon_ms(scenario)
    )
    orch = FleetOrchestrator(
        DEFAULT_INVENTORY, models=ctx.models, seed=SEED, node_faults=plan
    )

    result = benchmark.pedantic(
        lambda: orch.replay(scenario, jobs=ctx.jobs),
        rounds=3 if benchmark.enabled else 1,
        warmup_rounds=1 if benchmark.enabled else 0,
        iterations=1,
    )

    assert result.n_nodes == 100
    totals = result.qos.totals()
    assert totals["submitted"] == n
    assert (
        totals["served"]
        + totals["rejected"]
        + totals["shed"]
        + totals["failed"]
        + totals["timed_out"]
        == n
    )
    assert result.re_routed > 0
    # Ten victims: the availability report must show exactly the
    # schedule's outages and nothing else.
    impaired = sum(
        1
        for w in result.availability.values()
        if w != ((0.0, float("inf")),)
    )
    assert impaired == 10
    # Re-sharding under the same plan must stay byte-stable.
    assert result.digests == {
        s.node: s.digest() for s in orch.shard(scenario).shards
    }
    if benchmark.stats is not None:
        benchmark.extra_info["requests_per_sec"] = round(
            n / benchmark.stats["mean"]
        )
        benchmark.extra_info["re_routed"] = result.re_routed
        benchmark.extra_info["failed"] = totals["failed"]
