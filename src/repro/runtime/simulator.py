"""High-level simulation façade: policy name + scenario -> QoS report.

Wires together the zoo, profiler, GA splitting, task catalogues, workload
generation and the engines, mirroring the paper's experimental setup:
the five Table-1 models, long models split by the GA (with Eq.-1-driven
block counts), six Poisson scenarios, paired arrival schedules.

Profiles and GA split plans are memoised twice: per process (``lru_cache``,
returned as read-only mappings so a caller can never corrupt a future
hit) and on disk via :mod:`repro.profiling.store`, so repeated runs and
the sibling worker processes of a parallel sweep (see
:mod:`repro.runtime.sweeps`) never redo the offline pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Mapping

from repro.errors import SimulationError
from repro.hardware.contention import ContentionModel
from repro.hardware.device import DeviceSpec
from repro.hardware.presets import jetson_nano
from repro.profiling.cache import ProfileCache
from repro.profiling.records import ModelProfile
from repro.profiling.store import default_plan_store, default_profile_store
from repro.robustness.config import RobustnessConfig
from repro.runtime.engine import EngineResult, SequentialEngine
from repro.runtime.executor import ConcurrentEngine
from repro.runtime.metrics import QoSReport, StreamingQoS, collect_records
from repro.runtime.workload import (
    Scenario,
    WorkloadGenerator,
    build_task_specs,
    materialize_chunk_stream,
    materialize_requests,
)
from repro.scheduling.policies import (
    ClockWorkScheduler,
    EDFScheduler,
    FIFOScheduler,
    PremaScheduler,
    RoundRobinScheduler,
    SJFScheduler,
    SplitScheduler,
)
from repro.scheduling.policies.base import Scheduler
from repro.scheduling.request import RequestPool, TaskSpec
from repro.splitting.elastic import ElasticSplitConfig
from repro.splitting.genetic import GAConfig
from repro.splitting.selection import choose_block_count
from repro.types import RequestClass
from repro.zoo.registry import EVALUATED_MODELS, get_model

#: policy -> (plan kind of its task catalogue, scheduler factory taking
#: the elastic-splitting config). ``rta`` has no factory: it is the one
#: policy that runs on the ConcurrentEngine.
_POLICY_TABLE: dict[
    str,
    tuple[str, Callable[[ElasticSplitConfig | None], Scheduler] | None],
] = {
    "split": ("split", lambda elastic: SplitScheduler(elastic=elastic)),
    "clockwork": ("vanilla", lambda _: ClockWorkScheduler()),
    "prema": ("prema", lambda _: PremaScheduler()),
    "rta": ("vanilla", None),
    "fifo": ("vanilla", lambda _: FIFOScheduler()),
    "sjf": ("vanilla", lambda _: SJFScheduler()),
    "edf": ("split", lambda _: EDFScheduler()),
    "roundrobin": ("split", lambda _: RoundRobinScheduler()),
    # Kernel-level oracle (§6): operator-granularity preemption, no
    # boundary cost, same greedy queue discipline as SPLIT.
    "reef": (
        "operator",
        lambda _: SplitScheduler(elastic=ElasticSplitConfig(enabled=False)),
    ),
}

POLICIES = tuple(_POLICY_TABLE)


@dataclass(frozen=True)
class SimulationResult:
    policy: str
    scenario: Scenario
    report: QoSReport
    engine_result: EngineResult
    split_plans: dict[str, tuple[float, ...]]


@dataclass(frozen=True)
class StreamingSimulationResult:
    """One streamed cell: aggregate QoS without per-request records."""

    policy: str
    scenario: Scenario
    qos: StreamingQoS
    engine_result: EngineResult
    split_plans: dict[str, tuple[float, ...]]


def _request_classes(models: tuple[str, ...]) -> dict[str, RequestClass]:
    out = {}
    for name in models:
        meta = get_model(name, cached=True).metadata
        out[name] = RequestClass(meta.get("request_class", "short"))
    return out


@lru_cache(maxsize=16)
def _profiles_for(
    models: tuple[str, ...], device_name: str
) -> Mapping[str, ModelProfile]:
    """Read-only model -> profile mapping (process-memoised).

    Consults the persistent profile store (content-hash staleness check)
    before profiling, and returns a :class:`MappingProxyType`: the result
    is shared across every future call, so a writable dict would let one
    caller corrupt all later simulations.
    """
    device = _device_by_name(device_name)
    cache = ProfileCache(device)
    store = default_profile_store()
    profiles: dict[str, ModelProfile] = {}
    for name in models:
        graph = get_model(name, cached=True)
        if store is not None:
            profiles[name] = store.get_or_profile(graph, cache.profiler)
        else:
            profiles[name] = cache.get(graph)
    return MappingProxyType(profiles)


def _device_by_name(name: str) -> DeviceSpec:
    from repro.hardware.presets import device_by_name

    return device_by_name(name)


@lru_cache(maxsize=32)
def default_split_plans(
    models: tuple[str, ...] = EVALUATED_MODELS,
    device_name: str = "jetson-nano",
    max_blocks: int = 4,
    seed: int = 0,
) -> Mapping[str, tuple[float, ...]]:
    """GA block plans for the long models (ResNet50, VGG19 in the paper).

    Short models stay unsplit: splitting exists so that *short* requests
    can preempt *long* ones at block boundaries (§5.5). The block count per
    long model comes from the Eq.-1 score via :func:`choose_block_count`.
    GA results round-trip through the persistent plan store, and the
    returned mapping is read-only (it backs every future cache hit).
    """
    profiles = _profiles_for(models, device_name)
    classes = _request_classes(models)
    store = default_plan_store()
    plans: dict[str, tuple[float, ...]] = {}
    for name, profile in profiles.items():
        if classes[name] is not RequestClass.LONG:
            continue
        choice = choose_block_count(
            profile, max_blocks=max_blocks, config=GAConfig(seed=seed), store=store
        )
        if choice.result is not None:
            plans[name] = tuple(
                float(t) for t in choice.result.partition.block_times_ms
            )
    return MappingProxyType(plans)


def warm_caches(
    models: tuple[str, ...] = EVALUATED_MODELS,
    device_name: str = "jetson-nano",
    max_blocks: int = 4,
    seed: int = 0,
) -> None:
    """Populate the profile and split-plan caches for a model set.

    Parallel sweeps call this in the parent before forking workers: the
    children inherit the warm in-process caches, and cold-start platforms
    still find the results in the on-disk stores.
    """
    _profiles_for(models, device_name)
    default_split_plans(models, device_name, max_blocks, seed)


def make_scheduler(
    policy: str, elastic: ElasticSplitConfig | None = None
) -> Scheduler:
    """The queue discipline of a policy that runs on a SequentialEngine."""
    factory = _POLICY_TABLE.get(policy, ("", None))[1]
    if factory is None:
        raise SimulationError(f"unknown sequential policy {policy!r}")
    return factory(elastic)


def _prepare(
    policy: str,
    models: tuple[str, ...],
    device: DeviceSpec | None,
    split_plans: Mapping[str, tuple[float, ...]] | None,
    elastic: ElasticSplitConfig | None,
    keep_trace: bool,
    alphas: dict[str, float] | None,
    robustness: RobustnessConfig | None,
) -> tuple[
    dict[str, TaskSpec],
    SequentialEngine | ConcurrentEngine,
    Mapping[str, tuple[float, ...]],
]:
    """The set-up every entry point shares: resolve the device, profiles,
    request classes and split plans, then build the policy's task
    catalogue and engine. Returns ``(specs, engine, split_plans)``."""
    if policy not in _POLICY_TABLE:
        raise SimulationError(f"unknown policy {policy!r}; one of {POLICIES}")
    device = device or jetson_nano()
    profiles = _profiles_for(models, device.name)
    if split_plans is None:
        split_plans = default_split_plans(models, device.name)
    plan_kind, factory = _POLICY_TABLE[policy]
    specs = build_task_specs(
        profiles,
        split_plans=split_plans,
        plan_kind=plan_kind,
        request_classes=_request_classes(models),
        alphas=alphas,
    )
    engine: SequentialEngine | ConcurrentEngine
    if factory is None:
        engine = ConcurrentEngine(ContentionModel(device), robustness=robustness)
    else:
        engine = SequentialEngine(
            factory(elastic), keep_trace=keep_trace, robustness=robustness
        )
    return specs, engine, split_plans


def _run(
    policy: str,
    scenario: Scenario,
    items: list,
    models: tuple[str, ...],
    device: DeviceSpec | None,
    split_plans: Mapping[str, tuple[float, ...]] | None,
    elastic: ElasticSplitConfig | None,
    keep_trace: bool,
    alphas: dict[str, float] | None,
    robustness: RobustnessConfig | None = None,
) -> SimulationResult:
    specs, engine, split_plans = _prepare(
        policy, models, device, split_plans, elastic, keep_trace, alphas,
        robustness,
    )
    arrivals = materialize_requests(items, specs)
    engine_result = engine.run(arrivals)
    report = QoSReport(collect_records(engine_result))
    return SimulationResult(
        policy=policy,
        scenario=scenario,
        report=report,
        engine_result=engine_result,
        split_plans=dict(split_plans),
    )


def simulate(
    policy: str,
    scenario: Scenario,
    models: tuple[str, ...] = EVALUATED_MODELS,
    device: DeviceSpec | None = None,
    seed: int = 0,
    split_plans: Mapping[str, tuple[float, ...]] | None = None,
    elastic: ElasticSplitConfig | None = None,
    keep_trace: bool = False,
    alphas: dict[str, float] | None = None,
    robustness: RobustnessConfig | None = None,
) -> SimulationResult:
    """Run one (policy, scenario) cell of the evaluation grid.

    The arrival schedule depends only on (models, scenario, seed), so runs
    across policies are paired. ``split_plans`` overrides the default GA
    plans (ablations); ``elastic`` configures SPLIT's elastic splitting;
    ``alphas`` assigns per-task latency-target multipliers (differentiated
    QoS — stricter tasks get alpha < 1 and are favoured by the greedy
    preemption rule); ``robustness`` enables fault injection, timeouts,
    retries and load shedding (see :mod:`repro.robustness`).
    """
    items = WorkloadGenerator(models, seed=seed).generate(scenario)
    return _run(
        policy, scenario, items, models, device, split_plans, elastic,
        keep_trace, alphas, robustness,
    )


def simulate_stream(
    policy: str,
    scenario: Scenario,
    models: tuple[str, ...] = EVALUATED_MODELS,
    device: DeviceSpec | None = None,
    seed: int = 0,
    split_plans: Mapping[str, tuple[float, ...]] | None = None,
    elastic: ElasticSplitConfig | None = None,
    keep_trace: bool = False,
    alphas: dict[str, float] | None = None,
    qos: StreamingQoS | None = None,
    chunk_size: int = WorkloadGenerator.DEFAULT_CHUNK,
    robustness: RobustnessConfig | None = None,
) -> StreamingSimulationResult:
    """Run one cell end-to-end in O(1) memory per request.

    The bounded-memory pipeline: ``WorkloadGenerator.iter_arrival_chunks``
    (vectorised Poisson draws, lexsort-merged) feeds
    :func:`~repro.runtime.workload.materialize_chunk_stream` backed by a
    :class:`~repro.scheduling.request.RequestPool` (terminal requests are
    recycled by the kernel's fast lane, so steady-state allocation is
    ~zero), the engine's ``run_stream`` consumes it chunk-wise on the fast
    lane, robust or not, and every terminal request
    folds into a :class:`~repro.runtime.metrics.StreamingQoS` accumulator.
    The
    scheduling decisions — and therefore every QoS number on the shared
    alpha grid — are identical to :func:`simulate` with the same
    arguments; only the aggregation differs. Pass ``qos`` to configure
    the alpha grid or histogram resolution (or to accumulate several
    scenarios into one view).

    ``robustness`` works on the streaming path too (the unhappy terminals
    fold into the accumulator's shed/failed/timed-out counters). Only the
    ``rta`` concurrent engine stays batch-only.
    """
    if policy == "rta":
        raise SimulationError(
            "policy 'rta' runs on the concurrent engine, which is not "
            "streamable; use simulate()"
        )
    specs, engine, split_plans = _prepare(
        policy, models, device, split_plans, elastic, keep_trace, alphas,
        robustness,
    )
    assert isinstance(engine, SequentialEngine)
    if qos is None:
        qos = StreamingQoS()
    source = materialize_chunk_stream(
        WorkloadGenerator(models, seed=seed),
        scenario,
        specs,
        chunk_size=chunk_size,
        pool=RequestPool(),
    )
    engine_result = engine.run_stream(source, qos.observe)
    return StreamingSimulationResult(
        policy=policy,
        scenario=scenario,
        qos=qos,
        engine_result=engine_result,
        split_plans=dict(split_plans),
    )


def simulate_items(
    policy: str,
    items: list,
    models: tuple[str, ...] = EVALUATED_MODELS,
    device: DeviceSpec | None = None,
    split_plans: Mapping[str, tuple[float, ...]] | None = None,
    elastic: ElasticSplitConfig | None = None,
    keep_trace: bool = False,
    alphas: dict[str, float] | None = None,
    robustness: RobustnessConfig | None = None,
) -> SimulationResult:
    """Run a policy against an explicit arrival schedule.

    ``items`` is any list of :class:`~repro.runtime.workload.WorkloadItem`
    (bursty generation, CSV trace replay, hand-built schedules); everything
    else matches :func:`simulate`. The scenario recorded on the result is a
    synthetic descriptor derived from the items.
    """
    if not items:
        raise SimulationError("need at least one workload item")
    span = max(i.arrival_ms for i in items)
    mean_gap = span / max(1, len(items) - 1)
    scenario = Scenario(
        "trace", lambda_ms=max(mean_gap, 1e-6), load="trace", n_requests=len(items)
    )
    return _run(
        policy, scenario, items, models, device, split_plans, elastic,
        keep_trace, alphas, robustness,
    )
