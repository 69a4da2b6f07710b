"""Fleet orchestrator: per-node plan deployment, trace sharding, replay.

The pipeline, end to end:

1. **Deploy.** For each :class:`~repro.cluster.inventory.NodeClass` the
   orchestrator runs the offline pipeline against *that class's*
   calibrated hardware model — profiles, GA split plans (round-tripped
   through the persistent content-hash plan store, so a hundred nodes of
   one class search once), task catalogue — and mints one
   :class:`~repro.hardware.NodeProfile` per node instance. Capacity tags
   are calibrated, not nominal: a class's capacity is the ratio of the
   reference class's mean isolated execution time to its own.
2. **Shard.** One seeded workload trace (the same
   :meth:`~repro.runtime.workload.WorkloadGenerator.iter_arrival_chunks`
   stream ``simulate_stream`` replays) is dealt across nodes by least
   load: each arrival goes to the eligible node where
   ``assigned_work + local ext`` is smallest, ties to the lower node
   index (within a class the least-loaded node also takes a tie that
   float rounding makes; the failover re-deal gives it to the lower
   index). ``assigned_work`` is the cumulative local ext of everything
   dealt to the node so far; it never drains with time, so it is not a
   projected completion. Fast nodes accumulate work slower per request,
   so the calibrated imbalance places more load on them without any
   tuning knob. The loads live in one ``(assigned_work, node)`` min-heap
   per node class, and each class offers its head. Each model has a
   *home* node (stable CRC32 affinity — where its weights notionally
   live); serving a request elsewhere ships the model's input tensors
   once, charged via
   :meth:`~repro.hardware.transfer.TransferModel.hop_cost_ms` as an
   enqueue delay (the request's arrival time, and thus its QoS clock,
   is unchanged — transfer shows up as waited time, exactly like any
   other queueing delay). Under a node fault plan, the requests that
   would reach a down node are then re-dealt by the same rule, from the
   end-of-deal loads, over the nodes still up when the re-shipped
   request lands: each class heap is searched past its down heads.
   Sharding is single-threaded in the parent, so per-node traces are
   byte-identical for every ``--jobs`` value by construction;
   :class:`NodeShard.digest` pins it.
3. **Replay.** Every node is an independent single-processor
   :class:`~repro.runtime.engine.SequentialEngine` cell (the shards never
   interact after sharding — that is what no-migration buys), fanned out
   via :func:`~repro.runtime.sweeps.sweep_map` with its ordered-collection
   guarantee, each folding terminals into its own
   :class:`~repro.runtime.metrics.StreamingQoS`. Each node's task
   catalogue is pre-bound at shard time, because the kernel's batched
   one-processor loop, which every node replay runs, takes no node
   profile. The node replays of one process draw their requests from one
   :class:`~repro.scheduling.request.RequestPool`, so a later node reuses
   the requests an earlier one settled.
4. **Aggregate.** Node accumulators merge in node-index order into one
   fleet-level :class:`StreamingQoS`; with one node and the default
   preset the merged report is float-identical to ``simulate()`` /
   ``simulate_stream()`` on the same trace (the differential test pins
   the bits).
"""

from __future__ import annotations

import functools
import hashlib
import heapq
import math
import operator
import zlib
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.cluster.inventory import NodeClass, parse_inventory
from repro.errors import SimulationError
from repro.robustness.node_faults import NodeFaultPlan, NodeTimeline
from repro.hardware.device import DeviceSpec
from repro.hardware.latency import LatencyModel
from repro.hardware.node import NodeProfile
from repro.hardware.presets import device_by_name
from repro.hardware.transfer import TransferModel
from repro.profiling.cache import ProfileCache
from repro.profiling.records import ModelProfile
from repro.profiling.store import default_plan_store
from repro.runtime.metrics import StreamingQoS
from repro.runtime.simulator import (
    _POLICY_TABLE,
    _profiles_for,
    _request_classes,
    default_split_plans,
    make_scheduler,
)
from repro.runtime.engine import SequentialEngine
from repro.runtime.sweeps import sweep_map
from repro.runtime.workload import Scenario, WorkloadGenerator, build_task_specs
from repro.scheduling.request import Request, RequestPool, TaskSpec
from repro.splitting.genetic import GAConfig
from repro.splitting.selection import choose_block_count
from repro.types import RequestClass
from repro.zoo.registry import EVALUATED_MODELS, get_model

_CHUNK = 8192

#: Sequential policies a fleet node can run, mapped to their plan kind:
#: the simulator's policy table minus rta (no sequential scheduler) and
#: reef (operator-granularity plans a fleet node does not model).
_PLAN_KINDS = {
    policy: plan_kind
    for policy, (plan_kind, factory) in _POLICY_TABLE.items()
    if factory is not None and plan_kind != "operator"
}


@dataclass(frozen=True)
class NodeShard:
    """One node's slice of the fleet trace (time-ordered by enqueue)."""

    node: str
    device_name: str
    #: When the node sees each request (arrival + any ingress hop), sorted.
    enqueue_ms: np.ndarray
    #: The request's true arrival time (the QoS clock).
    arrival_ms: np.ndarray
    #: Index into the fleet's model mix.
    model_idx: np.ndarray

    @property
    def n_requests(self) -> int:
        return int(self.enqueue_ms.size)

    def digest(self) -> str:
        """BLAKE2b over the raw shard bytes — the byte-identity pin."""
        h = hashlib.blake2b(digest_size=16)
        h.update(self.enqueue_ms.tobytes())
        h.update(self.arrival_ms.tobytes())
        h.update(self.model_idx.tobytes())
        return h.hexdigest()


@dataclass(frozen=True)
class ShardPlan:
    """One scenario dealt across the fleet: everything
    :meth:`FleetOrchestrator.replay` needs besides the deployed nodes."""

    #: Per-node shards, in node order.
    shards: list[NodeShard]
    #: Requests placed off their model's home node, and the modeled
    #: transfer time they paid.
    transfer_hops: int
    transfer_ms: float
    #: Per-node fault timelines; None when every node stays healthy.
    timelines: list[NodeTimeline] | None
    #: Requests re-dealt off a down node, and the extra hand-off time.
    re_routed: int
    failover_ms: float


@dataclass(frozen=True)
class FleetResult:
    """Fleet-level QoS plus the determinism and transfer accounting."""

    qos: StreamingQoS
    scenario: Scenario
    n_nodes: int
    n_requests: int
    #: node name -> requests placed there.
    placements: dict[str, int]
    #: node name -> shard digest (byte-identical across --jobs).
    digests: dict[str, str]
    #: Requests served off their model's home node, and the total modeled
    #: boundary-tensor transfer time they paid.
    transfer_hops: int
    transfer_ms: float
    #: Per-node outcome totals (same layout as StreamingQoS.totals()).
    node_totals: tuple[dict[str, int], ...]
    #: Requests deterministically re-dealt off a down node at shard time
    #: (failover), and the extra modeled hand-off transfer they paid.
    re_routed: int = 0
    failover_ms: float = 0.0
    #: node name -> availability windows ``(up_from_ms, up_to_ms)``; every
    #: node reads ``((0, inf),)`` when no fault plan is active.
    availability: dict[str, tuple[tuple[float, float], ...]] = field(
        default_factory=dict
    )

    @property
    def node_outcomes(self) -> tuple[dict[str, int], ...]:
        """Per-node outcome accounting (alias of :attr:`node_totals`):
        one ``StreamingQoS.totals()`` dict per node, in node-index order.
        Fleet conservation is their sum:
        ``sent == served + rejected + shed + failed + timed_out``."""
        return self.node_totals


def _cross_calibrated_profiles(
    models: tuple[str, ...], device: DeviceSpec, ref_device: DeviceSpec
) -> dict[str, ModelProfile]:
    """Per-class profiles with genuinely heterogeneous service times.

    The paper's measurements (``metadata["paper_latency_ms"]``) were taken
    on one testbed; calibrating every preset to them would make a desktop
    card quote Jetson-Nano totals. Instead the *reference* class keeps the
    standard store-backed, paper-calibrated path (bit-identical to
    ``simulate()`` — the 1-node differential depends on it), and every
    other class scales the paper total by the roofline model's analytic
    ratio between the two devices, preserving per-op proportions. These
    scaled profiles stay process-local (never written to the persistent
    profile store, whose entries mean "paper-calibrated").
    """
    if device.name == ref_device.name:
        return dict(_profiles_for(models, device.name))
    cache = ProfileCache(device)
    dev_lat, ref_lat = LatencyModel(device), LatencyModel(ref_device)
    out: dict[str, ModelProfile] = {}
    for name in models:
        graph = get_model(name, cached=True)
        paper = graph.metadata.get("paper_latency_ms")
        target = None
        if paper is not None:
            ratio = float(dev_lat.profile_graph(graph).sum()) / float(
                ref_lat.profile_graph(graph).sum()
            )
            target = float(paper) * ratio
        out[name] = cache.get(graph, target_total_ms=target)
    return out


def _split_plans_for(
    profiles: dict[str, ModelProfile],
    classes: dict[str, RequestClass],
    max_blocks: int = 4,
    seed: int = 0,
) -> dict[str, tuple[float, ...]]:
    """GA block plans against *these* profiles (the per-class search).

    Same search as :func:`~repro.runtime.simulator.default_split_plans`,
    but fed the class's cross-calibrated profiles; the content-hash plan
    store keys on the profile bits, so each hardware class gets its own
    persistent cache line and warm deploys skip the GA entirely.
    """
    store = default_plan_store()
    plans: dict[str, tuple[float, ...]] = {}
    for name, profile in profiles.items():
        if classes[name] is not RequestClass.LONG:
            continue
        choice = choose_block_count(
            profile,
            max_blocks=max_blocks,
            config=GAConfig(seed=seed),
            store=store,
        )
        if choice.result is not None:
            plans[name] = tuple(
                float(t) for t in choice.result.partition.block_times_ms
            )
    return plans


class _ShardSource:
    """Chunk-capable arrival source over one node's shard arrays.

    The fleet counterpart of
    :class:`~repro.runtime.workload.RequestChunkStream`: requests enter
    the engine at their *enqueue* time but keep their true *arrival* time
    as the QoS clock, so ingress transfer reads as waited time. Requests
    come from the replay's :class:`RequestPool`, which the kernel refills
    with settled terminals.
    """

    def __init__(
        self,
        enqueue_ms: np.ndarray,
        arrival_ms: np.ndarray,
        model_idx: np.ndarray,
        specs_by_index: Sequence[TaskSpec],
        pool: RequestPool,
    ):
        self._enqueue = enqueue_ms
        self._arrival = arrival_ms
        self._model_idx = model_idx
        self._specs = list(specs_by_index)
        self._pos = 0
        self._last = 0.0
        self.pool = pool

    def next_chunk(self) -> tuple[list[float], list[Request]] | None:
        start = self._pos
        if start >= self._enqueue.size:
            return None
        stop = min(start + _CHUNK, int(self._enqueue.size))
        self._pos = stop
        t_arr = self._enqueue[start:stop]
        times: list[float] = t_arr.tolist()
        if (
            float(t_arr.min()) < 0.0
            or times[0] < self._last
            or bool(np.any(np.diff(t_arr) < 0.0))
        ):
            raise SimulationError("fleet shard is not time-ordered")
        self._last = times[-1]
        arrivals: list[float] = self._arrival[start:stop].tolist()
        indices: list[int] = self._model_idx[start:stop].tolist()
        specs = self._specs
        take = self.pool.take
        requests = [take(specs[k], a) for a, k in zip(arrivals, indices)]
        return times, requests


class _SegmentSink:
    """Terminal sink of one finite up-segment of a node's timeline.

    A request served after the segment's end was in flight when the node
    died, so it settles as ``failed``. The batched variant lets the
    kernel settle the segment in batches, like a whole-shard run.
    """

    __slots__ = ("_qos", "_end_ms")

    def __init__(self, qos: StreamingQoS, end_ms: float) -> None:
        self._qos = qos
        self._end_ms = end_ms

    def observe(self, request: Request, outcome: str) -> None:
        self.observe_batch([request], [outcome])

    def observe_batch(
        self, requests: Sequence[Request], outcomes: Sequence[str]
    ) -> None:
        end_ms = self._end_ms
        self._qos.observe_batch(
            requests,
            [
                "failed"
                if outcome == "served"
                and request.finish_ms is not None
                and request.finish_ms > end_ms
                else outcome
                for request, outcome in zip(requests, outcomes)
            ],
        )

def _degraded_specs(
    specs: list[TaskSpec], multiplier: float
) -> list[TaskSpec]:
    """The node catalogue under a degraded window.

    Block service times stretch by ``multiplier`` while ``ext_ms`` (the
    response-ratio denominator) and ``alpha`` stay at their healthy
    values — the absolute latency target is a property of the *request*,
    not of the ailing node, so degradation honestly raises the violation
    curve instead of quietly re-normalising it away.
    """
    return [
        TaskSpec(
            name=s.name,
            ext_ms=s.ext_ms,
            blocks_ms=tuple(b * multiplier for b in s.blocks_ms),
            request_class=s.request_class,
            alpha=s.alpha,
        )
        for s in specs
    ]


def _serve_node(
    policy: str,
    spec_table: dict[str, TaskSpec],
    model_names: tuple[str, ...],
    enqueue_ms: np.ndarray,
    arrival_ms: np.ndarray,
    model_idx: np.ndarray,
    alphas: tuple[float, ...] | None,
    hist_bin_ms: float,
    hist_bins: int,
    timeline: NodeTimeline | None,
    pool: RequestPool,
) -> StreamingQoS:
    """Replay one node's shard (sweep cell; must stay module-level).

    Without a timeline (or with a healthy one) this is exactly the
    fault-free path — one engine over the whole shard, terminals folded
    straight into the accumulator (the empty-plan differential pins the
    bytes). With faults, every up-segment is an *independent* engine run
    (a node reboot clears its queue): requests enqueued in the segment
    replay under the segment's (possibly degraded) catalogue, and served
    requests whose finish time overruns a finite segment end were in
    flight when the node died — they become ``failed`` outcomes, which is
    how dead-node losses reach ``StreamingQoS.merge``. Requests enqueued
    while the node is down (possible only when a timeline is replayed
    directly, bypassing the orchestrator's failover re-deal) fail on
    arrival, keeping conservation exact.

    Every engine run draws its requests from ``pool``, the replay's one
    :class:`RequestPool`. Sharing it across runs is safe: the kernel
    recycles a terminal only after the sink has returned and keeps the
    latest served one out, and each run starts a new engine that has
    executed nothing yet.
    """
    qos = StreamingQoS(
        alphas=alphas, hist_bin_ms=hist_bin_ms, hist_bins=hist_bins
    )
    if enqueue_ms.size == 0:
        return qos
    specs = [spec_table[name] for name in model_names]
    if timeline is None or timeline.healthy:
        source = _ShardSource(enqueue_ms, arrival_ms, model_idx, specs, pool)
        engine = SequentialEngine(make_scheduler(policy))
        engine.run_stream(source, qos.observe)
        return qos

    covered = np.zeros(enqueue_ms.size, dtype=bool)
    for start, end, mult in timeline.segments:
        lo = int(np.searchsorted(enqueue_ms, start, side="left"))
        hi = (
            int(enqueue_ms.size)
            if math.isinf(end)
            else int(np.searchsorted(enqueue_ms, end, side="left"))
        )
        if lo >= hi:
            continue
        covered[lo:hi] = True
        seg_specs = specs if mult == 1.0 else _degraded_specs(specs, mult)
        source = _ShardSource(
            enqueue_ms[lo:hi],
            arrival_ms[lo:hi],
            model_idx[lo:hi],
            seg_specs,
            pool,
        )
        engine = SequentialEngine(make_scheduler(policy))
        if math.isinf(end):
            engine.run_stream(source, qos.observe)
        else:
            engine.run_stream(source, _SegmentSink(qos, end).observe)
    if not bool(covered.all()):
        for gi in np.nonzero(~covered)[0].tolist():
            orphan = Request(
                task=specs[int(model_idx[gi])],
                arrival_ms=float(arrival_ms[gi]),
            )
            qos.observe(orphan, "failed")
    return qos


def _least_projection(
    heap: list[tuple[float, int]],
    ext: float,
    dying: int,
    at: float,
    faulty: Sequence[NodeTimeline | None],
    aside: list[tuple[float, int]],
) -> tuple[float, int] | None:
    """The least ``(load + ext, node)`` in one class heap over the nodes
    that can take a request landing at ``at``, or None when none can.

    A node can when it is not the ``dying`` one and is up at ``at`` by
    its timeline in ``faulty`` (None for a node that is always up).
    Heads that cannot are popped into ``aside``, and the caller pushes
    them back. Entries leave the heap in ``(load, node)`` order and
    adding ``ext`` is monotone, so the first usable head projects least.
    A node with a higher load can still tie that projection through
    rounding, and a scan of every node would give the tie to the lower
    index. So when the next-least load projects equal, every tied entry
    is popped into ``aside`` and the lowest usable index wins.
    """
    while heap:
        load, node = heap[0]
        tl = faulty[node]
        if node == dying or (tl is not None and not tl.is_up(at)):
            aside.append(heapq.heappop(heap))
            continue
        proj = load + ext
        if len(heap) == 1 or min(heap[1:3])[0] + ext != proj:
            return proj, node
        aside.append(heapq.heappop(heap))
        while heap and heap[0][0] + ext == proj:
            entry = heapq.heappop(heap)
            aside.append(entry)
            j = entry[1]
            tl = faulty[j]
            if j < node and j != dying and (tl is None or tl.is_up(at)):
                node = j
        return proj, node
    return None


class FleetOrchestrator:
    """Deploys, shards and replays a workload over a heterogeneous fleet."""

    def __init__(
        self,
        inventory: str | Sequence[NodeClass],
        models: tuple[str, ...] = EVALUATED_MODELS,
        policy: str = "split",
        seed: int = 0,
        alphas: dict[str, float] | None = None,
        node_faults: NodeFaultPlan | None = None,
    ):
        if isinstance(inventory, str):
            inventory = parse_inventory(inventory)
        if not inventory:
            raise SimulationError("fleet needs at least one node class")
        if policy not in _PLAN_KINDS:
            raise SimulationError(
                f"policy {policy!r} cannot run on fleet nodes; "
                f"one of {sorted(_PLAN_KINDS)}"
            )
        self.inventory: tuple[NodeClass, ...] = tuple(inventory)
        self.models = models
        self.policy = policy
        self.seed = seed
        self.alphas = alphas
        #: None (or a never-enabled plan) keeps every code path — shard
        #: bytes included — identical to the fault-free orchestrator.
        self.node_faults = node_faults
        for model in models:
            if not any(nc.can_serve(model) for nc in self.inventory):
                raise SimulationError(
                    f"no node class in the inventory serves model {model!r}"
                )
        self._nodes: list[NodeProfile] | None = None
        #: Per-node class index, aligned with :attr:`nodes`.
        self._node_class: list[int] = []
        self._class_specs: list[dict[str, TaskSpec]] = []

    # ------------------------------------------------------------ deploy
    @property
    def nodes(self) -> list[NodeProfile]:
        """The fleet's node profiles (deploys on first access)."""
        if self._nodes is None:
            self._deploy()
        assert self._nodes is not None
        return self._nodes

    def _deploy(self) -> None:
        plan_kind = _PLAN_KINDS[self.policy]
        classes = _request_classes(self.models)
        ref_device = device_by_name(self.inventory[0].device_name)
        class_specs: list[dict[str, TaskSpec]] = []
        class_mean_ext: list[float] = []
        for nc in self.inventory:
            device = device_by_name(nc.device_name)
            profiles = _cross_calibrated_profiles(
                self.models, device, ref_device
            )
            plans: dict[str, tuple[float, ...]] | None = None
            if plan_kind == "split":
                if device.name == ref_device.name:
                    plans = dict(
                        default_split_plans(self.models, device.name)
                    )
                else:
                    plans = _split_plans_for(profiles, classes)
            specs = build_task_specs(
                profiles,
                split_plans=plans,
                plan_kind=plan_kind,
                request_classes=classes,
                alphas=self.alphas,
            )
            class_specs.append(specs)
            served = [m for m in self.models if nc.can_serve(m)]
            class_mean_ext.append(
                sum(specs[m].ext_ms for m in served) / len(served)
            )
        ref_ext = class_mean_ext[0]
        nodes: list[NodeProfile] = []
        node_class: list[int] = []
        for ci, nc in enumerate(self.inventory):
            device = device_by_name(nc.device_name)
            for j in range(nc.count):
                nodes.append(
                    NodeProfile(
                        name=f"{nc.device_name}/{j}",
                        device=device,
                        capacity=ref_ext / class_mean_ext[ci],
                        specs=class_specs[ci],
                        supports=nc.supports,
                        preemption_overhead_ms=nc.preemption_overhead_ms,
                    )
                )
                node_class.append(ci)
        self._nodes = nodes
        self._node_class = node_class
        self._class_specs = class_specs

    # ------------------------------------------------------------- faults
    def fault_horizon_ms(self, scenario: Scenario) -> float:
        """The stochastic fault horizon: the scenario's expected span.

        One Poisson stream of mean ``lambda_ms`` per model means the
        aggregate trace covers about ``n / m x lambda`` ms; stochastic
        node faults are placed inside that window. Deterministic in the
        scenario alone (never in the realised trace), so timelines can be
        compiled before the deal starts.
        """
        return scenario.n_requests * scenario.lambda_ms / len(self.models)

    def _fault_timelines(
        self, scenario: Scenario
    ) -> list[NodeTimeline] | None:
        """Per-node timelines under the plan, or None when all-healthy."""
        plan = self.node_faults
        if plan is None or not plan.enabled:
            return None
        horizon = self.fault_horizon_ms(scenario)
        timelines = [
            plan.timeline_for(i, horizon) for i in range(len(self.nodes))
        ]
        if all(tl.healthy for tl in timelines):
            return None
        return timelines

    # ------------------------------------------------------------- shard
    def shard(self, scenario: Scenario) -> ShardPlan:
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

        # Least-load deal: one heap of (assigned_work, node_idx) per
        # class. Within a class every node quotes the same local ext, so
        # each class's best candidate is its heap head; the winner's head
        # is replaced by its new load. Loads only ever grow: they are
        # cumulative work, not a backlog that drains with time.
        heaps: list[list[tuple[float, int]]] = [[] for _ in range(n_classes)]
        for i in range(n_nodes):
            heaps[node_class[i]].append((0.0, i))
        for h in heaps:
            heapq.heapify(h)
        # model -> (class heap, local ext) for each eligible class.
        candidates = [
            [(heaps[ci], local_ext[m][ci]) for ci in eligible_classes[m]]
            for m in range(len(self.models))
        ]

        replace = heapq.heapreplace
        t_parts: list[np.ndarray] = []
        m_parts: list[np.ndarray] = []
        node_parts: list[np.ndarray] = []
        gen = WorkloadGenerator(self.models, seed=self.seed)
        for t_chunk, idx_chunk in gen.iter_arrival_chunks(scenario, _CHUNK):
            placed: list[int] = []
            place = placed.append
            for m in idx_chunk.tolist():
                best_heap = heaps[0]
                best_proj = math.inf
                best_idx = -1
                for heap, ext in candidates[m]:
                    load, idx = heap[0]
                    proj = load + ext
                    if proj < best_proj or (
                        proj == best_proj and idx < best_idx
                    ):
                        best_heap, best_proj, best_idx = heap, proj, idx
                replace(best_heap, (best_proj, best_idx))
                place(best_idx)
            t_parts.append(t_chunk)
            m_parts.append(idx_chunk)
            node_parts.append(np.array(placed, dtype=np.int64))

        arrival = np.concatenate(t_parts)
        model_idx = np.concatenate(m_parts).astype(np.int64, copy=False)
        node_idx = np.concatenate(node_parts)
        # A request served off its model's home node enqueues one hop
        # later: one IEEE add per hopped request, as a scalar deal would.
        hopped = node_idx != np.asarray(home_node, dtype=np.int64)[model_idx]
        hops = np.asarray(hop_by_class, dtype=np.float64)[
            model_idx[hopped],
            np.asarray(node_class, dtype=np.int64)[node_idx[hopped]],
        ]
        enqueue = arrival.copy()
        enqueue[hopped] = arrival[hopped] + hops
        transfer_hops = int(np.count_nonzero(hopped))
        # Left to right in deal order: the total's rounding is part of the
        # plan (sum() changed its float algorithm in Python 3.12).
        transfer_ms = functools.reduce(operator.add, hops.tolist(), 0.0)

        # Per-node slices in deal order: a stable sort on node index.
        by_node = np.argsort(node_idx, kind="stable")
        enqueue = enqueue[by_node]
        arrival = arrival[by_node]
        model_idx = model_idx[by_node]
        cuts = np.cumsum(np.bincount(node_idx, minlength=n_nodes)).tolist()
        per_node = [
            (enqueue[lo:hi], arrival[lo:hi], model_idx[lo:hi])
            for lo, hi in zip([0] + cuts[:-1], cuts)
        ]

        # ---- failover: re-deal requests headed for down nodes ----------
        # Runs after the fault-free deal so an empty/healthy plan leaves
        # every shard byte-identical to the plan-less orchestrator; still
        # parent-side and single-threaded, so the failed-over shards stay
        # byte-identical across --jobs too. It starts from the end-of-deal
        # loads still in the class heaps.
        timelines = self._fault_timelines(scenario)
        re_routed = 0
        failover_ms = 0.0
        redealt: list[list[tuple[float, float, int]]] = [
            [] for _ in range(n_nodes)
        ]
        if timelines is not None:
            faulty = [None if tl.healthy else tl for tl in timelines]
            fo_hop: dict[tuple[int, int, int], float] = {}
            for i, tl in enumerate(faulty):
                if tl is None:
                    continue
                e_i, a_i, m_i = per_node[i]
                # NodeTimeline.is_up over the whole shard: half-open
                # up-segments, so a node failing at t is down at t.
                up = np.zeros(e_i.size, dtype=bool)
                for start, end, _mult in tl.segments:
                    up |= (start <= e_i) & (e_i < end)
                if bool(up.all()):
                    continue
                per_node[i] = (e_i[up], a_i[up], m_i[up])
                src_ci = node_class[i]
                down = ~up
                for e, a, m in zip(
                    e_i[down].tolist(), a_i[down].tolist(), m_i[down].tolist()
                ):
                    # The deal's rule — least load plus local ext, ties to
                    # the lower node index — over the nodes still up when
                    # the re-shipped request lands. Each class heap yields
                    # its best such node; the heads it passes over wait in
                    # ``aside`` until the pick is made.
                    aside: list[tuple[float, int]] = []
                    best: tuple[float, int] | None = None
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
                        pick = _least_projection(
                            heaps[ci],
                            local_ext[m][ci],
                            i,
                            cand_enqueue,
                            faulty,
                            aside,
                        )
                        if pick is not None and (best is None or pick < best):
                            best, best_ci = pick, ci
                            best_enqueue = cand_enqueue
                    if best is None:
                        raise SimulationError(
                            f"failover: no surviving node can serve model "
                            f"{self.models[m]!r} at t={e:.3f} ms "
                            f"(node {nodes[i].name} is down and every "
                            f"eligible class has no live node)"
                        )
                    # The winner's load becomes its projection.
                    heap = heaps[best_ci]
                    if heap and heap[0][1] == best[1]:
                        heapq.heapreplace(heap, best)
                    else:  # set aside while a rounding tie was broken
                        aside = [
                            best if n == best[1] else (w, n) for w, n in aside
                        ]
                    for entry in aside:
                        heapq.heappush(heaps[node_class[entry[1]]], entry)
                    redealt[best[1]].append((best_enqueue, a, m))
                    re_routed += 1
                    failover_ms += best_enqueue - e

        shards: list[NodeShard] = []
        for i in range(n_nodes):
            enq, arr, midx = per_node[i]
            if redealt[i]:
                re_e, re_a, re_m = zip(*redealt[i])
                enq = np.concatenate((enq, np.array(re_e, dtype=np.float64)))
                arr = np.concatenate((arr, np.array(re_a, dtype=np.float64)))
                midx = np.concatenate((midx, np.array(re_m, dtype=np.int64)))
            # Ingress hops can locally reorder the stream; a stable sort
            # on enqueue time restores kernel order deterministically.
            order = np.argsort(enq, kind="stable")
            shards.append(
                NodeShard(
                    node=nodes[i].name,
                    device_name=nodes[i].device.name,
                    enqueue_ms=enq[order],
                    arrival_ms=arr[order],
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

    # ------------------------------------------------------------ replay
    def replay(
        self,
        scenario: Scenario,
        jobs: int | None = 1,
        alphas_grid: Sequence[float] | None = None,
        hist_bin_ms: float = 1.0,
        hist_bins: int = 4096,
    ) -> FleetResult:
        """Shard, replay every node (``jobs``-wide), merge the QoS.

        Node results are collected in submission order and merged in node
        index order, so the fleet report is float-identical for every job
        count; the shards themselves are parent-computed and byte-stable.
        """
        nodes = self.nodes
        plan = self.shard(scenario)
        shards, timelines = plan.shards, plan.timelines
        grid = tuple(alphas_grid) if alphas_grid is not None else None
        # One pool for every node replay run in this process; under
        # jobs > 1 each pickled cell carries its own empty copy.
        pool = RequestPool()
        payloads = []
        for i, (shard, ci) in enumerate(zip(shards, self._node_class)):
            payloads.append(
                (
                    self.policy,
                    self._class_specs[ci],
                    self.models,
                    shard.enqueue_ms,
                    shard.arrival_ms,
                    shard.model_idx,
                    grid,
                    hist_bin_ms,
                    hist_bins,
                    timelines[i] if timelines is not None else None,
                    pool,
                )
            )
        node_qos = sweep_map(_serve_node, payloads, jobs=jobs)
        fleet_qos = StreamingQoS(
            alphas=grid, hist_bin_ms=hist_bin_ms, hist_bins=hist_bins
        )
        node_totals = []
        for qos in node_qos:
            fleet_qos.merge(qos)
            node_totals.append(qos.totals())
        availability = {
            nodes[i].name: (
                timelines[i].up_windows()
                if timelines is not None
                else ((0.0, math.inf),)
            )
            for i in range(len(nodes))
        }
        return FleetResult(
            qos=fleet_qos,
            scenario=scenario,
            n_nodes=len(nodes),
            n_requests=scenario.n_requests,
            placements={s.node: s.n_requests for s in shards},
            digests={s.node: s.digest() for s in shards},
            transfer_hops=plan.transfer_hops,
            transfer_ms=plan.transfer_ms,
            node_totals=tuple(node_totals),
            re_routed=plan.re_routed,
            failover_ms=plan.failover_ms,
            availability=availability,
        )
