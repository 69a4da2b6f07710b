"""Frozen fleet deal (revision 198e4c2), verbatim.

``FleetOrchestrator.shard`` as it stood before the deal moved onto its
per-class heaps: a per-request Python deal into three lists per node,
and a failover re-deal that scans every node of each eligible class for
each orphan. It is the *old* side of ``test_shard_differential.py``,
which proves the heap deal produces bit-identical ``ShardPlan``s.

The body is the method's, unmodified: ``self`` is the orchestrator, and
only the imports are new. Do not fix, extend, or "clean up" this
module: its only value is being exactly what shipped before the change.
"""

from __future__ import annotations

import heapq
import zlib

import numpy as np

from repro.cluster.fleet import (
    _CHUNK,
    FleetOrchestrator,
    NodeShard,
    ShardPlan,
)
from repro.errors import SimulationError
from repro.hardware.presets import device_by_name
from repro.hardware.transfer import TransferModel
from repro.runtime.workload import Scenario, WorkloadGenerator
from repro.zoo.registry import get_model


def legacy_shard(self: FleetOrchestrator, scenario: Scenario) -> ShardPlan:
    """Deal the scenario's trace across the fleet (deterministic).

    Runs entirely in the calling process — no RNG beyond the seeded
    workload stream, no thread or job-count dependence — which is what
    makes the per-node shards byte-identical across ``--jobs``.
    """
    nodes = self.nodes
    n_nodes = len(nodes)
    node_class = self._node_class
    n_classes = len(self.inventory)

    # Per-model placement tables.
    class_transfer = [
        TransferModel(device_by_name(nc.device_name))
        for nc in self.inventory
    ]
    eligible_classes: list[list[int]] = []
    local_ext: list[list[float]] = []  # model -> per-class ext
    home_node: list[int] = []
    hop_by_class: list[list[float]] = []  # model -> per-class hop cost
    crossing_bytes: list[float] = []  # model -> input-tensor bytes
    for m_idx, model in enumerate(self.models):
        elig_c = [
            ci
            for ci in range(n_classes)
            if self.inventory[ci].can_serve(model)
        ]
        eligible_classes.append(elig_c)
        local_ext.append(
            [
                self._class_specs[ci][model].ext_ms
                if ci in elig_c
                else float("inf")
                for ci in range(n_classes)
            ]
        )
        elig_nodes = [
            i for i in range(n_nodes) if node_class[i] in set(elig_c)
        ]
        digest = zlib.crc32(model.encode("utf-8"))
        home = elig_nodes[digest % len(elig_nodes)]
        home_node.append(home)
        crossing = float(
            sum(t.nbytes for t in get_model(model, cached=True).inputs)
        )
        crossing_bytes.append(crossing)
        src = nodes[home].transfer
        hop_by_class.append(
            [
                src.hop_cost_ms(class_transfer[ci], crossing)
                for ci in range(n_classes)
            ]
        )

    # Least-projected-backlog deal: one heap of (assigned_work,
    # node_idx) per class; within a class every node quotes the same
    # local ext, so each class's best candidate is its heap head.
    heaps: list[list[tuple[float, int]]] = [[] for _ in range(n_classes)]
    for i in range(n_nodes):
        heaps[node_class[i]].append((0.0, i))
    for h in heaps:
        heapq.heapify(h)

    per_node_enqueue: list[list[float]] = [[] for _ in range(n_nodes)]
    per_node_arrival: list[list[float]] = [[] for _ in range(n_nodes)]
    per_node_model: list[list[int]] = [[] for _ in range(n_nodes)]
    transfer_hops = 0
    transfer_ms = 0.0

    gen = WorkloadGenerator(self.models, seed=self.seed)
    for t_chunk, idx_chunk in gen.iter_arrival_chunks(scenario, _CHUNK):
        for t, m in zip(t_chunk.tolist(), idx_chunk.tolist()):
            best_ci = -1
            best_proj = float("inf")
            best_idx = -1
            for ci in eligible_classes[m]:
                h = heaps[ci]
                if not h:
                    continue
                load, idx = h[0]
                proj = load + local_ext[m][ci]
                if proj < best_proj or (
                    proj == best_proj and idx < best_idx
                ):
                    best_ci, best_proj, best_idx = ci, proj, idx
            load, idx = heapq.heappop(heaps[best_ci])
            if idx == home_node[m]:
                enqueue = t
            else:
                hop = hop_by_class[m][best_ci]
                enqueue = t + hop
                transfer_hops += 1
                transfer_ms += hop
            per_node_enqueue[idx].append(enqueue)
            per_node_arrival[idx].append(t)
            per_node_model[idx].append(m)
            heapq.heappush(
                heaps[best_ci], (load + local_ext[m][best_ci], idx)
            )

    # ---- failover: re-deal requests headed for down nodes ----------
    # Runs after the fault-free deal so an empty/healthy plan leaves
    # every shard byte-identical to the plan-less orchestrator; still
    # parent-side and single-threaded, so the failed-over shards stay
    # byte-identical across --jobs too.
    timelines = self._fault_timelines(scenario)
    re_routed = 0
    failover_ms = 0.0
    if timelines is not None:
        load_by_node = [0.0] * n_nodes
        for h in heaps:
            for load, idx in h:
                load_by_node[idx] = load
        class_nodes: list[list[int]] = [[] for _ in range(n_classes)]
        for i in range(n_nodes):
            class_nodes[node_class[i]].append(i)
        fo_hop: dict[tuple[int, int, int], float] = {}
        for i in range(n_nodes):
            tl = timelines[i]
            if tl.healthy:
                continue
            keep_e: list[float] = []
            keep_a: list[float] = []
            keep_m: list[int] = []
            orphans: list[tuple[float, float, int]] = []
            for e, a, m in zip(
                per_node_enqueue[i], per_node_arrival[i], per_node_model[i]
            ):
                if tl.is_up(e):
                    keep_e.append(e)
                    keep_a.append(a)
                    keep_m.append(m)
                else:
                    orphans.append((e, a, m))
            if not orphans:
                continue
            per_node_enqueue[i] = keep_e
            per_node_arrival[i] = keep_a
            per_node_model[i] = keep_m
            src_ci = node_class[i]
            for e, a, m in orphans:
                # Same selection rule as the deal — least projected
                # completion, ties to the lower node index — over the
                # nodes still up when the re-shipped request lands.
                best_proj = float("inf")
                best_idx = -1
                best_ci = -1
                best_enqueue = 0.0
                for ci in eligible_classes[m]:
                    hop = fo_hop.get((src_ci, ci, m))
                    if hop is None:
                        hop = class_transfer[src_ci].hop_cost_ms(
                            class_transfer[ci], crossing_bytes[m]
                        )
                        fo_hop[(src_ci, ci, m)] = hop
                    cand_enqueue = e + hop
                    for j in class_nodes[ci]:
                        if j == i or not timelines[j].is_up(cand_enqueue):
                            continue
                        proj = load_by_node[j] + local_ext[m][ci]
                        if proj < best_proj or (
                            proj == best_proj and j < best_idx
                        ):
                            best_proj = proj
                            best_idx = j
                            best_ci = ci
                            best_enqueue = cand_enqueue
                if best_idx < 0:
                    raise SimulationError(
                        f"failover: no surviving node can serve model "
                        f"{self.models[m]!r} at t={e:.3f} ms "
                        f"(node {nodes[i].name} is down and every "
                        f"eligible class has no live node)"
                    )
                per_node_enqueue[best_idx].append(best_enqueue)
                per_node_arrival[best_idx].append(a)
                per_node_model[best_idx].append(m)
                load_by_node[best_idx] += local_ext[m][best_ci]
                re_routed += 1
                failover_ms += best_enqueue - e

    shards: list[NodeShard] = []
    for i in range(n_nodes):
        enqueue = np.asarray(per_node_enqueue[i], dtype=np.float64)
        arrival = np.asarray(per_node_arrival[i], dtype=np.float64)
        midx = np.asarray(per_node_model[i], dtype=np.int64)
        # Ingress hops can locally reorder the stream; a stable sort
        # on enqueue time restores kernel order deterministically.
        order = np.argsort(enqueue, kind="stable")
        shards.append(
            NodeShard(
                node=nodes[i].name,
                device_name=nodes[i].device.name,
                enqueue_ms=enqueue[order],
                arrival_ms=arrival[order],
                model_idx=midx[order],
            )
        )
    return ShardPlan(
        shards=shards,
        transfer_hops=transfer_hops,
        transfer_ms=transfer_ms,
        timelines=timelines,
        re_routed=re_routed,
        failover_ms=failover_ms,
    )
