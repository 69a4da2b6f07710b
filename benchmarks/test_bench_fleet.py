"""Fleet replay throughput: the million-request 100-node cell.

Pins ``fleet_1m`` requests/second into the ``BENCH_<rev>.json``
trajectory: the full orchestrator path — per-class deploy (plan-store
warm), parent-side sharding with transfer charging, per-node streaming
replays, ordered QoS merge — timed end to end. Deploy and the workload
caches are warmed outside the timed region (a warm fleet redeploy is a
plan-store lookup, which is exactly what repeated rounds should time).

Under ``--benchmark-disable`` (CI) the replay runs once at reduced n and
keeps the conservation and determinism assertions, so the fleet path is
exercised on every push without paying for timing rounds.
"""

from __future__ import annotations

from repro.cluster import DEFAULT_INVENTORY, FleetOrchestrator
from repro.experiments.fleet import derived_lambda_ms
from repro.runtime.simulator import warm_caches
from repro.runtime.workload import Scenario

SEED = 0


def test_bench_fleet_1m(benchmark, ctx):
    """Fleet requests/second over the default 100-node mixed inventory
    (the headline ``fleet_1m`` number)."""
    n = 1_000_000 if benchmark.enabled else 20_000
    orch = FleetOrchestrator(
        DEFAULT_INVENTORY, models=ctx.models, seed=SEED
    )
    warm_caches(ctx.models, ctx.device.name)
    lambda_ms = derived_lambda_ms(orch)  # triggers deploy off the clock
    scenario = Scenario("bench-fleet", lambda_ms, "high", n_requests=n)

    result = benchmark.pedantic(
        lambda: orch.replay(scenario, jobs=ctx.jobs),
        rounds=3 if benchmark.enabled else 1,
        warmup_rounds=1 if benchmark.enabled else 0,
        iterations=1,
    )

    assert result.n_nodes == 100
    totals = result.qos.totals()
    assert totals["submitted"] == n
    assert result.transfer_hops > 0
    # Re-sharding the same scenario must be byte-stable (the benchmark's
    # own determinism guard — a racy shard would quietly vary the work).
    assert result.digests == {
        s.node: s.digest() for s in orch.shard(scenario).shards
    }
    if benchmark.stats is not None:
        benchmark.extra_info["requests_per_sec"] = round(
            n / benchmark.stats["mean"]
        )
        benchmark.extra_info["n_nodes"] = result.n_nodes
        benchmark.extra_info["transfer_hops"] = result.transfer_hops
