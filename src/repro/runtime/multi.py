"""Multi-processor serving: SPLIT scaled out to k edge GPUs.

The paper targets one shared processor; real deployments have several,
and rarely matched ones (two Nanos and a Xavier, an edge box plus a
desktop card). This module dispatches each arriving request to one
processor at arrival time (no migration — a placed request keeps its
blocks local, since moving intermediate activations between devices would
pay the staging cost twice) and runs each processor with its own
scheduler instance, preserving every single-processor guarantee.

Processors need *not* be identical: pass ``profiles`` (one
:class:`~repro.hardware.NodeProfile` per processor, None entries allowed)
and each processor serves arrivals under its own calibrated model — the
kernel rebinds every routed request onto the owning node's task catalogue
(node-local block plans, node-local ``ext_ms``), and a node-level
preemption overhead overrides the policy constant. Without profiles the
engine behaves exactly as before (homogeneous processors, byte-identical
to the pre-profile code).

Since the kernel unification this is a thin adapter over
:class:`~repro.runtime.kernel.EventKernel` with a router, which runs the
kernel's routed loop and buys the features the old hand-rolled loop
lacked for free: fault injection / deadlines / retries / load shedding
via ``robustness=``, and streaming sinks via
:meth:`MultiProcessorEngine.run_stream`. A retried request stays on the
processor that first accepted it (its blocks are local), and load
shedding considers each processor's queue separately.

Routers:

* ``round_robin`` — arrival i goes to processor i mod k;
* ``least_backlog`` — least total remaining work (join-shortest-workload);
* ``shortest_queue`` — fewest pending requests (JSQ);
* ``model_affinity`` — hash by model name (keeps each model's weights
  resident on one device, the deployment the paper's §4.1 implies);
* ``least_normalized_backlog`` — heterogeneity-aware JSW: predicted
  completion of the *incoming* request on each node, i.e. backlog + the
  running block's remainder + the request's execution time under that
  node's own catalogue. Degenerates to ``least_backlog`` when no
  processor carries a profile.

Wrap any router in :func:`capability_filter` to restrict placement to
processors whose profile can serve the request's model.

Routers receive the live :class:`~repro.runtime.kernel.ProcState` list
and may read ``queue``, ``running``, ``block_end``, ``now``,
``dispatched_arrivals`` and ``profile``.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.errors import SimulationError
from repro.robustness.config import RobustnessConfig
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
from repro.runtime.trace import ExecutionTrace
from repro.scheduling.policies.base import Scheduler
from repro.scheduling.request import Request

if TYPE_CHECKING:
    from repro.hardware.node import NodeProfile


def round_robin(processors: list[ProcState], request: Request) -> int:
    counter = sum(p.dispatched_arrivals for p in processors)
    return counter % len(processors)


def least_backlog(processors: list[ProcState], request: Request) -> int:
    def backlog(p: ProcState) -> float:
        running = p.block_end - p.now if p.running is not None else 0.0
        return p.queue.total_backlog_ms() + max(0.0, running)

    return min(range(len(processors)), key=lambda i: backlog(processors[i]))


def shortest_queue(processors: list[ProcState], request: Request) -> int:
    return min(range(len(processors)), key=lambda i: len(processors[i].queue))


def model_affinity(processors: list[ProcState], request: Request) -> int:
    # Stable across processes (Python's str hash is salted per run).
    digest = zlib.crc32(request.task_type.encode("utf-8"))
    return digest % len(processors)


def least_normalized_backlog(
    processors: list[ProcState], request: Request
) -> int:
    """Place where the *incoming* request would finish soonest.

    Backlog milliseconds are wall-clock on any node, so they are not
    rescaled; heterogeneity enters through the last term — the request's
    execution time under each candidate node's own catalogue (a slow node
    quoting 80 ms for work a fast node serves in 14 ms loses the tie even
    at equal backlog). With no profiles every node quotes the same ext and
    the choice reduces to :func:`least_backlog`.
    """

    def completion(p: ProcState) -> float:
        running = p.block_end - p.now if p.running is not None else 0.0
        prof = p.profile
        local_ext = (
            prof.resolve(request.task).ext_ms
            if prof is not None
            else request.task.ext_ms
        )
        return p.queue.total_backlog_ms() + max(0.0, running) + local_ext

    return min(range(len(processors)), key=lambda i: completion(processors[i]))


def capability_filter(base: Router) -> Router:
    """Restrict ``base`` to processors whose profile serves the model.

    Profile-less processors count as universal. The base router sees only
    the eligible subset (re-indexed), and its pick is mapped back to the
    real processor index. No eligible processor raises
    :class:`~repro.errors.SimulationError` — a placement hole is a fleet
    misconfiguration, not a schedulable state.
    """

    def routed(processors: list[ProcState], request: Request) -> int:
        eligible = [
            p
            for p in processors
            if p.profile is None or p.profile.can_serve(request.task_type)
        ]
        if not eligible:
            raise SimulationError(
                f"no processor can serve model {request.task_type!r}"
            )
        if len(eligible) == len(processors):
            return base(processors, request)
        return eligible[base(eligible, request)].index

    return routed


ROUTERS: dict[str, Router] = {
    "round_robin": round_robin,
    "least_backlog": least_backlog,
    "shortest_queue": shortest_queue,
    "model_affinity": model_affinity,
    "least_normalized_backlog": least_normalized_backlog,
}


@dataclass
class MultiEngineResult:
    """Aggregate outcome plus per-processor placement statistics."""

    engine_result: EngineResult
    placements: dict[int, int]  # processor index -> requests routed
    traces: dict[int, ExecutionTrace]  # empty unless keep_trace

    @property
    def completed(self) -> list[Request]:
        return self.engine_result.completed

    def verify_traces(self) -> None:
        for trace in self.traces.values():
            trace.verify()


class MultiProcessorEngine:
    """k processors, one arrival-time router, no migration."""

    def __init__(
        self,
        schedulers: list[Scheduler],
        router: str | Router = "least_backlog",
        keep_trace: bool = False,
        robustness: RobustnessConfig | None = None,
        profiles: "list[NodeProfile | None] | None" = None,
    ):
        if not schedulers:
            raise SimulationError("need at least one processor")
        if profiles is not None and len(profiles) != len(schedulers):
            raise SimulationError(
                f"got {len(profiles)} node profiles for "
                f"{len(schedulers)} processors"
            )
        self.schedulers = schedulers
        self.profiles = profiles
        if isinstance(router, str):
            if router not in ROUTERS:
                raise SimulationError(
                    f"unknown router {router!r}; one of {sorted(ROUTERS)}"
                )
            self.router: Router = ROUTERS[router]
            self.router_name = router
        else:
            self.router = router
            self.router_name = getattr(router, "__name__", "custom")
        self.keep_trace = keep_trace
        self.robustness = robustness

    def _kernel(self) -> EventKernel:
        return EventKernel(
            self.schedulers,
            router=self.router,
            robustness=self.robustness,
            keep_trace=self.keep_trace,
            profiles=self.profiles,
        )

    def _wrap(self, kernel: EventKernel, result: EngineResult) -> MultiEngineResult:
        placements = {p.index: p.dispatched_arrivals for p in kernel.procs}
        traces = {
            p.index: p.trace for p in kernel.procs if p.trace is not None
        }
        return MultiEngineResult(
            engine_result=result, placements=placements, traces=traces
        )

    def run(self, arrivals: list[tuple[float, Request]]) -> MultiEngineResult:
        """Route and serve a batch arrival schedule (any order)."""
        validate_batch_arrivals(arrivals)
        schedule = sorted(arrivals, key=lambda pair: pair[0])
        kernel = self._kernel()
        result = EngineResult()
        kernel.run(schedule, batch_sink(result), result)
        return self._wrap(kernel, result)

    def run_stream(
        self,
        arrivals: Iterable[tuple[float, Request]],
        sink: RecordSink,
    ) -> MultiEngineResult:
        """Serve a time-ordered arrival stream, emitting terminals to
        ``sink`` — the multi-processor counterpart of
        :meth:`SequentialEngine.run_stream`, with the same O(live queue)
        memory contract and the same sink outcomes."""
        kernel = self._kernel()
        result = EngineResult()
        kernel.run(validated_stream(arrivals), sink, result)
        return self._wrap(kernel, result)
