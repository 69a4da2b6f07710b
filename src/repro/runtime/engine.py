"""Sequential block-granularity engine: a thin adapter over the kernel.

The processor runs exactly one block at a time. A running block is never
interrupted; between blocks the scheduler re-selects the queue head, which
is where block-boundary preemption happens. Preempting an unfinished
request defers *all* of its remaining blocks (full preemption, Fig. 3) —
that falls out of the queue discipline, because the preempted request
simply sits behind the preemptor until re-selected.

Both entry points drive the discrete-event kernel
(:mod:`repro.runtime.kernel`) without a router, which runs its batched
one-processor loop:

* :meth:`SequentialEngine.run` — the batch API: takes the full arrival
  list, returns an :class:`EngineResult` holding every terminal request.
* :meth:`SequentialEngine.run_stream` — the streaming API for
  million-request traces: consumes a time-ordered *iterator* of arrivals
  (see :meth:`~repro.runtime.workload.WorkloadGenerator.iter_arrivals`)
  and hands each terminal request to a sink callback the moment it
  leaves the system, retaining nothing — O(live queue) memory instead of
  O(total requests). Scheduling decisions are identical between the two
  because they run the same kernel over the same arrival sequence.

With a :class:`~repro.robustness.RobustnessConfig` the kernel additionally
honours a fault plan (block failures, stalls, drops), per-request
deadlines, bounded retries with exponential backoff, and overload load
shedding — see ``docs/robustness.md`` — on *both* entry points: streaming
robustness is supported since the kernel unification. Without one,
execution follows the original fault-free loop unchanged (same float
operations in the same order, so results are byte-identical; the
differential suite in ``tests/runtime/test_kernel_differential.py`` pins
this against a frozen pre-kernel copy).
"""

from __future__ import annotations

from typing import Iterable

from repro.robustness.config import RobustnessConfig
from repro.runtime.kernel import (
    EngineResult,
    EventKernel,
    RecordSink,
    batch_sink,
    validate_batch_arrivals,
    validated_stream,
)
from repro.scheduling.policies.base import Scheduler
from repro.scheduling.queue import RequestQueue
from repro.scheduling.request import Request

__all__ = ["EngineResult", "RecordSink", "SequentialEngine"]


class SequentialEngine:
    """Runs a fixed arrival schedule to completion under one scheduler.

    ``queue_cls`` selects the pending-queue backend; the default
    :class:`RequestQueue` is the deque-backed fast structure, while
    :class:`~repro.scheduling.queue.ListBackedRequestQueue` reproduces the
    original list costs (used by the benchmarks as the asymptotic
    baseline — both order requests identically).
    """

    def __init__(
        self,
        scheduler: Scheduler,
        keep_trace: bool = False,
        robustness: RobustnessConfig | None = None,
        queue_cls: type = RequestQueue,
    ):
        self.scheduler = scheduler
        self.keep_trace = keep_trace
        self.robustness = robustness
        self.queue_cls = queue_cls

    def _kernel(self) -> EventKernel:
        return EventKernel(
            [self.scheduler],
            robustness=self.robustness,
            keep_trace=self.keep_trace,
            queue_cls=self.queue_cls,
        )

    def run(self, arrivals: list[tuple[float, Request]]) -> EngineResult:
        """Simulate until every admitted request finishes or terminates.

        ``arrivals`` is a list of ``(time_ms, request)`` pairs (any order).
        """
        validate_batch_arrivals(arrivals)
        # One stable sort up front replaces a heap push/pop per request;
        # ties break on input position, exactly like the old (t, i) heap.
        schedule = sorted(arrivals, key=lambda pair: pair[0])
        kernel = self._kernel()
        result = EngineResult(trace=kernel.procs[0].trace)
        # The sorted list goes to the kernel as-is: the batched loop
        # consumes it in place.
        kernel.run(schedule, batch_sink(result), result)
        return result

    def run_stream(
        self,
        arrivals: Iterable[tuple[float, Request]],
        sink: RecordSink,
    ) -> EngineResult:
        """Run a time-ordered arrival stream, emitting terminals to ``sink``.

        ``arrivals`` is any iterable of ``(time_ms, request)`` pairs in
        nondecreasing time order (violations raise
        :class:`~repro.errors.SimulationError`); it is consumed lazily, so
        generators over million-request traces never materialise the
        schedule. ``sink(request, outcome)`` is invoked exactly once per
        request at its terminal event — ``"served"`` when it finishes,
        ``"rejected"`` when admission drops it, and (with a robustness
        config) ``"shed"`` / ``"failed"`` / ``"timed_out"`` for the
        unhappy endings — after which the engine holds no reference,
        keeping memory proportional to the live queue plus parked retries.

        The returned :class:`EngineResult` carries the aggregate counters
        (``n_completed``/``n_dropped``/``context_switches``/
        ``preemptions``, the robustness totals, and the trace when
        ``keep_trace`` is set) with empty per-request lists.
        """
        kernel = self._kernel()
        result = EngineResult(trace=kernel.procs[0].trace)
        if hasattr(arrivals, "next_chunk"):
            # Chunk-capable sources (see kernel.ChunkSource) validate
            # their own chunks, and the batched loop consumes them whole.
            kernel.run(arrivals, sink, result)
        else:
            kernel.run(validated_stream(arrivals), sink, result)
        return result
