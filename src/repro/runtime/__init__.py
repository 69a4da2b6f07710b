"""Discrete-event serving runtime for the shared edge GPU.

One discrete-event kernel — :class:`EventKernel` — owns virtual time,
the arrival stream and the block dispatch/finish cycle (see
``docs/kernel.md``), with one loop per engine shape.
:class:`SequentialEngine` (one processor, no router: the batched loop)
and :class:`MultiProcessorEngine` (k processors behind a router: the
routed loop) are thin adapters over it; both execute one block at a time
(non-preemptible mid-block, preemptible at boundaries) under pluggable
schedulers and share the kernel's robustness features and streaming
sinks.
:class:`ConcurrentEngine` models RT-A's multi-stream co-execution via
contention-degraded processor sharing and keeps its own loop.
:func:`simulate` wires profiles, partitions, workloads and engines
together for the evaluation scenarios.
"""

from repro.runtime.trace import ExecutionTrace, TraceEntry
from repro.runtime.kernel import (
    EngineResult,
    EventKernel,
    ProcState,
    RecordSink,
    Router,
    batch_sink,
    validate_batch_arrivals,
    validated_stream,
)
from repro.runtime.engine import SequentialEngine
from repro.runtime.executor import ConcurrentEngine
from repro.runtime.workload import (
    SCENARIOS,
    Scenario,
    WorkloadGenerator,
    build_task_specs,
    materialize_stream,
    prema_chunk_plan,
)
from repro.runtime.metrics import (
    DEFAULT_ALPHA_GRID,
    QoSReport,
    RequestRecord,
    StreamingQoS,
    collect_records,
    robustness_totals,
)
from repro.runtime.simulator import (
    SimulationResult,
    StreamingSimulationResult,
    simulate,
    simulate_stream,
    warm_caches,
)
from repro.runtime.sweeps import (
    SweepCell,
    cell_seed,
    resolve_jobs,
    run_sweep,
    sweep_map,
)
from repro.runtime.multi import (
    ROUTERS,
    MultiEngineResult,
    MultiProcessorEngine,
)
from repro.runtime.capture import (
    ReplaySummary,
    summarize_engine_result,
    summarize_observations,
)
from repro.runtime.traces import (
    BurstConfig,
    BurstyWorkloadGenerator,
    burstiness_index,
    load_trace,
    save_trace,
)

__all__ = [
    "ExecutionTrace",
    "TraceEntry",
    "EngineResult",
    "EventKernel",
    "ProcState",
    "RecordSink",
    "Router",
    "batch_sink",
    "validate_batch_arrivals",
    "validated_stream",
    "SequentialEngine",
    "ConcurrentEngine",
    "SCENARIOS",
    "Scenario",
    "WorkloadGenerator",
    "build_task_specs",
    "materialize_stream",
    "prema_chunk_plan",
    "DEFAULT_ALPHA_GRID",
    "QoSReport",
    "RequestRecord",
    "StreamingQoS",
    "collect_records",
    "robustness_totals",
    "SimulationResult",
    "StreamingSimulationResult",
    "simulate",
    "simulate_stream",
    "warm_caches",
    "SweepCell",
    "cell_seed",
    "resolve_jobs",
    "run_sweep",
    "sweep_map",
    "BurstConfig",
    "BurstyWorkloadGenerator",
    "burstiness_index",
    "load_trace",
    "save_trace",
    "ROUTERS",
    "MultiEngineResult",
    "MultiProcessorEngine",
    "ReplaySummary",
    "summarize_engine_result",
    "summarize_observations",
]
