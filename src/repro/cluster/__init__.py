"""Fleet layer: SPLIT serving scaled out to a cluster of shared GPUs.

:mod:`repro.cluster.inventory` describes *what* the fleet is (node
classes, counts, capability tags); :mod:`repro.cluster.fleet` is the
orchestrator that deploys per-class split plans, shards a workload trace
across the nodes with modeled cross-node transfer costs, replays every
shard (in parallel, determinism preserved) and aggregates the per-node
QoS accumulators into one fleet-level report. See ``docs/cluster.md``.
"""

from repro.cluster.inventory import (
    DEFAULT_INVENTORY,
    NodeClass,
    parse_inventory,
)
from repro.cluster.fleet import (
    FleetOrchestrator,
    FleetResult,
    NodeShard,
    ShardPlan,
)

__all__ = [
    "DEFAULT_INVENTORY",
    "NodeClass",
    "parse_inventory",
    "FleetOrchestrator",
    "FleetResult",
    "NodeShard",
    "ShardPlan",
]
