"""Fleet orchestrator: differential pins, determinism, sharding laws.

The two contracts that make the fleet layer trustworthy:

* a 1-node fleet on the default preset is the single-GPU simulator —
  violation-curve bits identical to ``simulate()``, every float identical
  to ``simulate_stream()`` (merge-into-fresh is a field copy);
* per-node shards are byte-identical across ``--jobs`` values and the
  merged fleet QoS is float-identical (parent-side sharding + ordered
  merge).
"""

import numpy as np
import pytest

from repro.cluster import FleetOrchestrator, NodeClass
from repro.errors import SimulationError
from repro.runtime.capture import float_bits
from repro.runtime.simulator import POLICIES, simulate, simulate_stream
from repro.runtime.workload import Scenario

MODELS = ("yolov2", "vgg19")
SEED = 5
SCENARIO = Scenario("fleet-test", 40.0, "high", 1500)


@pytest.fixture(scope="module")
def one_node():
    orch = FleetOrchestrator("jetson-nano:1", models=MODELS, seed=SEED)
    return orch.replay(SCENARIO, jobs=1, hist_bins=65536)


@pytest.fixture(scope="module")
def mixed():
    orch = FleetOrchestrator(
        "jetson-nano:2,desktop-gpu:1", models=MODELS, seed=SEED
    )
    return orch, orch.replay(SCENARIO, jobs=1)


class TestSingleNodeDifferential:
    def test_violation_curve_bits_match_simulate(self, one_node):
        rep = simulate("split", SCENARIO, models=MODELS, seed=SEED).report
        fleet_curve = one_node.qos.violation_curve()
        sim_curve = rep.violation_curve(one_node.qos.alphas)
        assert np.array_equal(fleet_curve, sim_curve)
        for a, b in zip(fleet_curve, sim_curve):
            assert float_bits(float(a)) == float_bits(float(b))

    def test_float_identical_to_simulate_stream(self, one_node):
        ref = simulate_stream("split", SCENARIO, models=MODELS, seed=SEED).qos
        qos = one_node.qos
        assert float_bits(qos.mean_latency_ms()) == float_bits(
            ref.mean_latency_ms()
        )
        assert float_bits(qos.jitter_ms()) == float_bits(ref.jitter_ms())
        assert float_bits(qos.mean_response_ratio()) == float_bits(
            ref.mean_response_ratio()
        )
        assert np.array_equal(qos.violation_counts(), ref.violation_counts())
        assert qos.totals() == ref.totals()
        for model in MODELS:
            assert float_bits(qos.mean_latency_ms(model)) == float_bits(
                ref.mean_latency_ms(model)
            )

    def test_no_transfer_on_one_node(self, one_node):
        assert one_node.transfer_hops == 0
        assert one_node.transfer_ms == 0.0


class TestJobsInvariance:
    def test_shards_and_qos_identical_across_jobs(self):
        orch = FleetOrchestrator(
            "jetson-nano:2,desktop-gpu:2", models=MODELS, seed=SEED
        )
        r1 = orch.replay(SCENARIO, jobs=1)
        r2 = orch.replay(SCENARIO, jobs=2)
        assert r1.digests == r2.digests
        assert float_bits(r1.qos.mean_latency_ms()) == float_bits(
            r2.qos.mean_latency_ms()
        )
        assert float_bits(r1.qos.jitter_ms()) == float_bits(
            r2.qos.jitter_ms()
        )
        assert np.array_equal(
            r1.qos.violation_counts(), r2.qos.violation_counts()
        )
        assert r1.qos.totals() == r2.qos.totals()
        assert r1.node_totals == r2.node_totals

    def test_replay_is_reproducible(self):
        mk = lambda: FleetOrchestrator(
            "jetson-nano:3", models=MODELS, seed=SEED
        ).replay(SCENARIO, jobs=1)
        a, b = mk(), mk()
        assert a.digests == b.digests
        assert float_bits(a.qos.mean_latency_ms()) == float_bits(
            b.qos.mean_latency_ms()
        )


class TestSharding:
    def test_conservation(self, mixed):
        _, res = mixed
        assert sum(res.placements.values()) == SCENARIO.n_requests
        assert res.qos.totals()["submitted"] == SCENARIO.n_requests

    def test_shards_time_ordered_and_hop_charged(self, mixed):
        orch, res = mixed
        shards = orch.shard(SCENARIO).shards
        assert sum(s.n_requests for s in shards) == SCENARIO.n_requests
        for shard in shards:
            assert np.all(np.diff(shard.enqueue_ms) >= 0.0)
            # Enqueue never precedes true arrival: hops only add delay.
            assert np.all(shard.enqueue_ms >= shard.arrival_ms)

    def test_transfer_accounted(self, mixed):
        _, res = mixed
        assert res.transfer_hops > 0
        assert res.transfer_ms > 0.0

    def test_faster_class_carries_more_load_per_node(self, mixed):
        _, res = mixed
        nano = [
            n for name, n in res.placements.items() if "nano" in name
        ]
        gpu = [
            n for name, n in res.placements.items() if "desktop" in name
        ]
        assert min(gpu) > max(nano)

    def test_capability_restricted_models_stay_on_capable_nodes(self):
        inventory = (
            NodeClass("jetson-nano", 2, supports=frozenset({MODELS[0]})),
            NodeClass("desktop-gpu", 1),
        )
        orch = FleetOrchestrator(inventory, models=MODELS, seed=SEED)
        shards = orch.shard(SCENARIO).shards
        vgg = MODELS.index("vgg19")
        for shard, nc_idx in zip(shards, orch._node_class):
            if orch.inventory[nc_idx].supports is not None:
                assert not np.any(shard.model_idx == vgg)


class TestFleetCapacity:
    def test_capacity_relative_to_reference_class(self, mixed):
        orch, _ = mixed
        by_name = {n.name: n for n in orch.nodes}
        assert by_name["jetson-nano/0"].capacity == pytest.approx(1.0)
        assert by_name["desktop-gpu/0"].capacity > 1.0


#: Policies a fleet node cannot run: rta needs the ConcurrentEngine,
#: reef operator-granularity plans.
NOT_ON_FLEET = ("rta", "reef")


class TestValidation:
    @pytest.mark.parametrize("policy", NOT_ON_FLEET)
    def test_unsupported_policy_rejected(self, policy):
        with pytest.raises(SimulationError, match="cannot run on fleet"):
            FleetOrchestrator("jetson-nano:1", models=MODELS, policy=policy)

    @pytest.mark.parametrize(
        "policy", [p for p in POLICIES if p not in NOT_ON_FLEET]
    )
    def test_every_other_policy_accepted(self, policy):
        orch = FleetOrchestrator("jetson-nano:1", models=MODELS, policy=policy)
        assert orch.policy == policy

    def test_unservable_model_rejected_up_front(self):
        inventory = (
            NodeClass("jetson-nano", 1, supports=frozenset({MODELS[0]})),
        )
        with pytest.raises(SimulationError, match="no node class"):
            FleetOrchestrator(inventory, models=MODELS)

    def test_empty_inventory_rejected(self):
        with pytest.raises(SimulationError, match="at least one node"):
            FleetOrchestrator((), models=MODELS)
