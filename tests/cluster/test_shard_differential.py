"""The fleet deal against its frozen predecessor, bit for bit.

``FleetOrchestrator.shard`` deals a seeded trace across the fleet and
re-deals the requests that would reach a down node. Its shards feed the
per-node replays and the fleet digests, so any change to how the deal
is computed must leave every ``ShardPlan`` bit-identical: each node's
enqueue, arrival and model arrays as raw bytes, the transfer and
failover counts, and the two accumulated float totals as hex.

``_legacy_shard.legacy_shard`` is the deal as it stood before it moved
onto its per-class heaps. It is compared here on the 36 fixed cases
(seeds 0, 1 and 7; 20k and 80k requests; the default inventory and a
5-node one; no faults, the scripted kill schedule and a stochastic
plan) and on randomly drawn fleets: 1–3 node classes of 1–60 nodes,
capability restrictions that leave every model servable, and no
faults, a scripted kill schedule or stochastic fail-stop, fail-recover
and degrade plans. When the re-deal strands a model, both deals must
raise the same error. One more case fails a node at the exact instant a
request is enqueued on it. ``SPLIT_LARGE_N=1`` adds a 1M-request chaos
case.
"""

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import DEFAULT_INVENTORY, FleetOrchestrator, NodeClass
from repro.errors import SimulationError
from repro.experiments.fleet import derived_lambda_ms
from repro.experiments.fleet_chaos import scripted_kill_schedule
from repro.hardware.presets import PRESETS
from repro.robustness import NodeFaultEvent, NodeFaultKind, NodeFaultPlan
from repro.runtime.workload import Scenario
from repro.zoo.registry import EVALUATED_MODELS

from tests.cluster._legacy_shard import legacy_shard

STOCHASTIC = NodeFaultPlan(
    fail_stop_rate=0.05, fail_recover_rate=0.1, degrade_rate=0.1
)


def plan_signature(plan):
    """Everything a ``ShardPlan`` carries, as comparable bits."""
    return (
        [
            (
                s.node,
                s.device_name,
                s.enqueue_ms.dtype.str,
                s.enqueue_ms.tobytes(),
                s.arrival_ms.dtype.str,
                s.arrival_ms.tobytes(),
                s.model_idx.dtype.str,
                s.model_idx.tobytes(),
            )
            for s in plan.shards
        ],
        plan.transfer_hops,
        plan.transfer_ms.hex(),
        plan.timelines,
        plan.re_routed,
        plan.failover_ms.hex(),
    )


def deal_both(orch, scenario):
    """Both deals' signatures, or both deals' error messages."""
    try:
        old = plan_signature(legacy_shard(orch, scenario))
    except SimulationError as exc:
        old = ("raised", str(exc))
    try:
        new = plan_signature(orch.shard(scenario))
    except SimulationError as exc:
        new = ("raised", str(exc))
    return old, new


def chaos_fleet(inventory, seed, n, faults, models=EVALUATED_MODELS):
    """An orchestrator and a scenario at the fleet's derived load, with
    ``faults`` one of ``none``, ``kill`` or ``stochastic``."""
    orch = FleetOrchestrator(inventory, models=models, seed=seed)
    scenario = Scenario("shard-diff", derived_lambda_ms(orch), "high", n)
    if faults == "kill":
        orch.node_faults = scripted_kill_schedule(
            len(orch.nodes), orch.fault_horizon_ms(scenario)
        )
    elif faults == "stochastic":
        orch.node_faults = STOCHASTIC
    return orch, scenario


INVENTORIES = {
    "default": DEFAULT_INVENTORY,
    "small": "jetson-nano:3,desktop-gpu:2",
}


@pytest.mark.parametrize("faults", ["none", "kill", "stochastic"])
@pytest.mark.parametrize("inventory", sorted(INVENTORIES))
@pytest.mark.parametrize("n", [20_000, 80_000])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_fixed_cases_match_legacy(seed, n, inventory, faults):
    orch, scenario = chaos_fleet(INVENTORIES[inventory], seed, n, faults)
    old, new = deal_both(orch, scenario)
    assert old[0] != "raised"
    assert new == old


def test_failure_at_an_enqueue_instant():
    """Up-segments are half-open: a request enqueued on a node at the
    very instant it fails is re-dealt, in both deals."""
    orch = FleetOrchestrator(
        "jetson-nano:2,desktop-gpu:1", models=EVALUATED_MODELS, seed=3
    )
    scenario = Scenario("shard-edge", 20.0, "high", 2_000)
    enqueued = orch.shard(scenario).shards[0].enqueue_ms
    at = float(enqueued[enqueued.size // 2])
    orch.node_faults = NodeFaultPlan(
        scripted=(NodeFaultEvent(NodeFaultKind.FAIL_STOP, 0, at_ms=at),)
    )
    old, new = deal_both(orch, scenario)
    assert new == old
    assert new[4] > 0  # re_routed
    assert np.frombuffer(new[0][0][3]).max() < at


@st.composite
def fleets(draw):
    """A random fleet, trace and fault plan (see the module docstring)."""
    chosen = draw(
        st.sets(st.sampled_from(EVALUATED_MODELS), min_size=1, max_size=3)
    )
    models = [m for m in EVALUATED_MODELS if m in chosen]
    n_classes = draw(st.integers(1, 3))
    supports = [
        draw(
            st.one_of(
                st.none(),
                st.frozensets(st.sampled_from(models), min_size=1),
            )
        )
        for _ in range(n_classes)
    ]
    for model in models:
        if not any(s is None or model in s for s in supports):
            k = draw(st.integers(0, n_classes - 1))
            supports[k] = supports[k] | {model}
    inventory = tuple(
        NodeClass(
            draw(st.sampled_from(sorted(PRESETS))),
            draw(st.integers(1, 60)),
            supports=s,
        )
        for s in supports
    )
    orch = FleetOrchestrator(
        inventory, models=tuple(models), seed=draw(st.integers(0, 2**16))
    )
    scenario = Scenario(
        "shard-prop",
        draw(st.floats(0.01, 50.0)),
        "high",
        # Spread over the range: st.integers alone favours small values.
        draw(st.integers(1, 20)) * 1000 - draw(st.integers(0, 999)),
    )
    faults = draw(st.sampled_from(["kill", "stochastic", "none"]))
    if faults == "kill":
        orch.node_faults = scripted_kill_schedule(
            len(orch.nodes),
            orch.fault_horizon_ms(scenario),
            kill_fraction=draw(st.floats(0.01, 0.5)),
        )
    elif faults == "stochastic":
        orch.node_faults = NodeFaultPlan(
            seed=draw(st.integers(0, 2**16)),
            fail_stop_rate=draw(st.floats(0.0, 0.3)),
            fail_recover_rate=draw(st.floats(0.0, 0.3)),
            degrade_rate=draw(st.floats(0.0, 0.3)),
            degrade_multiplier=draw(st.floats(1.0, 4.0)),
        )
    return orch, scenario


@given(fleets())
@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_random_fleets_match_legacy(case):
    orch, scenario = case
    old, new = deal_both(orch, scenario)
    assert new == old


@pytest.mark.skipif(
    not os.environ.get("SPLIT_LARGE_N"),
    reason="set SPLIT_LARGE_N=1 for the 1M-request chaos deal",
)
def test_million_request_chaos_deal_matches_legacy():
    orch, scenario = chaos_fleet(DEFAULT_INVENTORY, 0, 1_000_000, "kill")
    old, new = deal_both(orch, scenario)
    assert old[0] != "raised"
    assert old[4] > 0  # the kill schedule re-dealt something
    assert new == old
    assert sum(
        np.frombuffer(shard[5]).size for shard in new[0]
    ) == scenario.n_requests
