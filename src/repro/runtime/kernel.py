"""The discrete-event kernel every engine-shaped execution path runs on.

Before this module existed, the paper's online contribution — greedy
preemption at block boundaries (Algorithm 1, Eq. 3) — was re-implemented
four times: the SequentialEngine fast path, its robustness fork, the
MultiProcessorEngine per-GPU loops, and the live server's token loop.
Each copy had to independently preserve the dispatch contract the
run-length queue optimisation relies on (see ``docs/kernel.md``), and
features landed unevenly: streaming rejected robustness, the multi
engine had neither. Clockwork and PREMA both structure their simulators
around one event core with pluggable policies; this is that core.

One :class:`EventKernel` owns virtual time, the pending-arrival stream,
the block dispatch/finish cycle, retry parking, deadline eviction, load
shedding, and terminal emission. Its loop follows from its shape:

* **No router:** one processor and one queue, served by the batched loop.
  :class:`~repro.runtime.engine.SequentialEngine`, the fleet's per-node
  replays and the lockstep server run it. It admits runs of arrivals in
  bulk and settles terminals in batches.
* **A router:** k processors behind an arrival-time :data:`Router`, each
  optionally bound to a node profile, served by the routed loop.
  :class:`~repro.runtime.multi.MultiProcessorEngine` runs it. A router
  reads live processor state at every arrival, so this loop admits and
  settles one request at a time.

An optional :class:`~repro.robustness.RobustnessConfig` arms the retry
heap, deadline eviction, fault decisions and load shedding in both loops,
in the same event order. ``robustness=None`` follows the exact float
operations of the original fault-free loop, in the same order (results
are byte-identical; the differential suite pins this against a frozen
pre-kernel copy). The live server's token-gated queue reuses the
dispatch primitives (:func:`select_head`, :func:`fault_decision`,
:func:`is_preemption`, :func:`fix_plan`, :func:`settle_failure`) from
real threads instead of a virtual-time loop.

Terminal requests leave through a sink callback (``sink(request,
outcome)`` with outcome in ``served / rejected / shed / failed /
timed_out``), so batch runs collect lists while streaming runs retain
nothing — which is what closes the old feature matrix: ``run_stream``
with robustness and the multi engine with fault injection both fall out
of the same kernel.
"""

from __future__ import annotations

import heapq
import itertools
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterable,
    Iterator,
    Protocol,
    TypeGuard,
)

from repro.errors import SimulationError
from repro.robustness.config import RobustnessConfig
from repro.robustness.faults import FaultDecision, FaultInjector, FaultKind
from repro.robustness.retry import RetryPolicy
from repro.runtime.trace import ExecutionTrace, TraceEntry
from repro.scheduling.policies.base import Scheduler
from repro.scheduling.queue import RequestQueue
from repro.scheduling.request import Request

if TYPE_CHECKING:
    from repro.hardware.node import NodeProfile

_INF = float("inf")

#: Terminal sink: called exactly once per request with its outcome label
#: ("served", "rejected", "shed", "failed" or "timed_out").
RecordSink = Callable[[Request, str], None]

#: How many arrivals the batched loop pulls from a plain iterator per refill,
#: and how many terminals it buffers before flushing to the sink.
_FAST_CHUNK = 4096


class ChunkSource(Protocol):
    """An arrival source that can hand out whole time-ordered chunks.

    The batched loop recognises such sources by the presence of
    :meth:`next_chunk` and consumes arrivals chunk-wise. ``pool`` is an
    optional :class:`~repro.scheduling.request.RequestPool` the source
    draws requests from — when present, the batched loop recycles
    terminal requests back into it after the sink has seen them, so the
    sink must not retain references.
    """

    pool: Any

    def next_chunk(self) -> tuple[list[float], list[Request]] | None:
        """The next time-ordered ``(times, requests)`` chunk, or None.

        None is final: the source is exhausted, and the batched loop
        never calls :meth:`next_chunk` again in that run.
        """
        ...


@dataclass
class EngineResult:
    """Aggregate outcome of one kernel run.

    Batch adapters fill the per-request lists through their sink;
    streaming adapters leave the lists empty and only the counters
    record how many requests reached each outcome.
    """

    completed: list[Request] = field(default_factory=list)
    dropped: list[Request] = field(default_factory=list)
    trace: ExecutionTrace | None = None
    context_switches: int = 0
    preemptions: int = 0
    #: Robustness outcomes (empty/zero on fault-free runs).
    failed: list[Request] = field(default_factory=list)
    timed_out: list[Request] = field(default_factory=list)
    shed: list[Request] = field(default_factory=list)
    retries: int = 0
    stalls: int = 0
    fault_fails: int = 0
    fault_drops: int = 0
    #: Terminal counts. On batch runs these equal the list lengths; on
    #: streaming runs the lists stay empty (requests go to the sink) and
    #: only the counters record how many requests reached each outcome.
    n_completed: int = 0
    n_dropped: int = 0


# ------------------------------------------------------------------ arrivals
def _arrival_error(t: float) -> SimulationError:
    """The error for an arrival time outside ``[0, inf)``: negative, or
    NaN / infinite (which the loops would read as "no arrival")."""
    kind = "negative" if t < 0 else "non-finite"
    return SimulationError(f"{kind} arrival time {t}")


def validate_batch_arrivals(arrivals: Iterable[tuple[float, Request]]) -> None:
    """Reject arrival times that are negative or not finite (batch entry
    points, any order)."""
    for t, _ in arrivals:
        if not 0.0 <= t < _INF:
            raise _arrival_error(t)


def validated_stream(
    pairs: Iterable[tuple[float, Request]],
) -> Iterator[tuple[float, Request]]:
    """Lazily validate a time-ordered arrival stream.

    The single validator shared by every streaming entry point: negative
    or non-finite times and ordering violations raise
    :class:`SimulationError` with one canonical message format.
    """
    last = 0.0
    for t, req in pairs:
        if not 0.0 <= t < _INF:
            raise _arrival_error(t)
        if t < last:
            raise SimulationError(
                f"arrival stream not time-ordered: {t} after {last}"
            )
        last = t
        yield t, req


# ---------------------------------------------------- dispatch-contract core
# The primitives below are the dispatch contract written once. The routed
# loop calls them; so does the live server's token scheduler, from real
# threads. The batched loop inlines the same operations. Any change here
# (or in the batched loop's inlined copies) must keep docs/kernel.md's
# contract intact — the run-length queue summary is only sound because
# scheduling state is mutated exclusively on peeked heads.


def select_head(scheduler: Scheduler, queue: RequestQueue, now_ms: float) -> Request:
    """Ask the policy for the next request and rotate it to the head.

    This is the *only* sanctioned way to pick work: ``select`` →
    ``move_to_front`` → ``peek``. ``peek`` taints the head out of any
    compressed run, which is what licenses the caller to mutate the
    request's scheduling state afterwards.
    """
    idx = scheduler.select(queue, now_ms)
    if idx != 0:
        queue.move_to_front(idx)
    return queue.peek()


def fault_decision(
    injector: FaultInjector | None, request: Request
) -> FaultDecision | None:
    """The injector's verdict for the request's next block attempt."""
    if injector is None:
        return None
    return injector.decide(
        request.task_type, request.arrival_ms, request.next_block, request.retries
    )


def is_preemption(
    last: Request | None, request: Request
) -> TypeGuard[Request]:
    """Did granting ``request`` preempt ``last``?

    True when the previously-executed request is a different one that has
    started but not finished — switching away defers all of its remaining
    blocks (full preemption, Fig. 3). A true answer also tells the type
    checker that ``last`` is a request.
    """
    return (
        last is not None
        and last is not request
        and not last.done
        and last.started
    )


def fix_plan(
    scheduler: Scheduler, request: Request, queue: RequestQueue, now_ms: float
) -> None:
    """Fix the execution plan at first dispatch (idempotent afterwards)."""
    if not request.started:
        plan = scheduler.plan_for(request, queue, now_ms)
        request.begin(plan, now_ms)


def settle_failure(
    request: Request, now_ms: float, retry: RetryPolicy
) -> float | None:
    """Rewind a failed block and account the attempt.

    Returns the absolute time the retry becomes ready, or None when the
    retry budget is exhausted (the request fails terminally). The caller
    removes the request from its queue and parks or buries it.
    """
    request.unpop_block()
    request.retries += 1
    if retry.exhausted(request.retries):
        return None
    return now_ms + retry.backoff_ms(request.retries - 1)


# ------------------------------------------------------------ processors
@dataclass(slots=True)
class ProcState:
    """One processor's execution state inside the kernel.

    Routers receive these (the attribute surface is the old
    ``_Processor``'s): ``queue``, ``running``, ``block_end``, ``now`` and
    ``dispatched_arrivals`` are all safe to read from a router.
    """

    index: int
    scheduler: Scheduler
    queue: RequestQueue
    running: Request | None = None
    pending_fail: bool = False
    block_end: float = _INF
    block_start: float = 0.0
    last_executed: Request | None = None
    now: float = 0.0
    dispatched_arrivals: int = 0
    #: Per-processor trace (execution on *one* processor never overlaps;
    #: across processors it legitimately does, so traces are not shared).
    trace: ExecutionTrace | None = None
    #: The owning node's hardware identity, or None for the homogeneous
    #: default. When set, arriving requests are rebound onto the node's
    #: task catalogue (node-local block plans and ext times), and routers
    #: may read capacity / capability facets.
    profile: "NodeProfile | None" = None


#: Arrival-time placement policy of a routed kernel: the index of the
#: processor that owns the request (no migration).
Router = Callable[[list[ProcState], Request], int]


# --------------------------------------------------------------------- kernel
class EventKernel:
    """One discrete-event loop per engine shape.

    Without a ``router`` the kernel has one processor, and :meth:`run`
    takes the batched loop; with one it takes the routed loop over every
    processor. Both keep the same event order, which is load-bearing and
    pinned by the differential suites: (1) an idle processor with pending
    work dispatches immediately at its own local time; (2) otherwise the
    earliest of next-arrival / next-retry / next-block-finish fires, with
    ties broken in exactly that order; (3) a running block is never
    interrupted — preemption happens only because the queue head changed
    by the time the next block is granted.

    ``queue_cls`` is :class:`RequestQueue` or
    :class:`~repro.scheduling.queue.ListBackedRequestQueue`; the batched
    loop reads their backing sequence directly.
    """

    def __init__(
        self,
        schedulers: list[Scheduler],
        router: Router | None = None,
        robustness: RobustnessConfig | None = None,
        keep_trace: bool = False,
        queue_cls: type = RequestQueue,
        profiles: "list[NodeProfile | None] | None" = None,
    ):
        if not schedulers:
            raise SimulationError("need at least one processor")
        if router is None and len(schedulers) > 1:
            raise SimulationError(f"{len(schedulers)} processors need a router")
        if router is None and profiles is not None:
            raise SimulationError("node profiles need a router")
        if profiles is not None and len(profiles) != len(schedulers):
            raise SimulationError(
                f"got {len(profiles)} node profiles for "
                f"{len(schedulers)} processors"
            )
        self.procs: list[ProcState] = [
            ProcState(
                index=i,
                scheduler=s,
                queue=queue_cls(),
                trace=ExecutionTrace() if keep_trace else None,
                profile=profiles[i] if profiles is not None else None,
            )
            for i, s in enumerate(schedulers)
        ]
        for proc in self.procs:
            prof = proc.profile
            if prof is not None and prof.preemption_overhead_ms is not None:
                # Checkpoint cost is a property of the node's hardware, so
                # a profile overrides the policy constant — on this
                # processor's (engine-owned, never shared) scheduler
                # instance, which _grant reads each preemption.
                proc.scheduler.preemption_overhead_ms = (
                    prof.preemption_overhead_ms
                )
        self.router = router
        self.robustness = robustness
        self._injector: FaultInjector | None = None
        self._shedder = None
        if robustness is not None:
            self._injector = robustness.make_injector()
            self._shedder = robustness.make_shedder()

    @staticmethod
    def _batch_observer(
        emit: RecordSink,
    ) -> Callable[[list[Request], list[str]], None] | None:
        """Resolve a sink's batched variant, if it offers one.

        A bound method ``obj.observe`` opts into batched settlement by
        defining ``obj.observe_batch(requests, outcomes)`` (same naming
        convention for any sink name). The batched variant must be
        observably identical to calling the scalar sink once per request
        in order; ``StreamingQoS.observe_batch`` is the canonical case.
        """
        func = getattr(emit, "__func__", None)
        owner = getattr(emit, "__self__", None)
        if func is None or owner is None:
            return None
        batch = getattr(owner, func.__name__ + "_batch", None)
        if not callable(batch):
            return None
        return batch  # type: ignore[no-any-return]

    # ------------------------------------------------------- routed loop
    def _terminal(
        self,
        proc: ProcState,
        req: Request,
        outcome: str,
        result: EngineResult,
        emit: RecordSink,
    ) -> None:
        """Emit a terminal request and update kernel accounting.

        A request evicted mid-flight (shed / failed / timed_out) leaves
        the processor's memory of it: selecting another request afterwards
        is not a preemption.
        """
        if self.robustness is not None:
            req.outcome = outcome
        if outcome == "served":
            result.n_completed += 1
        elif outcome == "rejected":
            result.n_dropped += 1
        elif proc.last_executed is req:
            proc.last_executed = None
        emit(req, outcome)

    def _shed_overload(
        self, proc: ProcState, t: float, result: EngineResult, emit: RecordSink
    ) -> None:
        if self._shedder is None:
            return
        for victim in self._shedder.select_victims(
            proc.queue, t, exclude=proc.running
        ):
            proc.queue.remove(victim)
            self._terminal(proc, victim, "shed", result, emit)

    def _grant(
        self, proc: ProcState, t: float, result: EngineResult, emit: RecordSink
    ) -> None:
        """Give the next block of the policy's pick to the processor."""
        scheduler = proc.scheduler
        queue = proc.queue
        cfg = self.robustness
        while not queue.empty:
            req = select_head(scheduler, queue, t)
            if cfg is not None and t >= cfg.deadline_ms(req):
                queue.remove(req)
                self._terminal(proc, req, "timed_out", result, emit)
                continue
            decision = fault_decision(self._injector, req)
            if decision is not None and decision.kind is FaultKind.DROP:
                queue.remove(req)
                result.fault_drops += 1
                self._terminal(proc, req, "failed", result, emit)
                continue
            switch_cost = 0.0
            last = proc.last_executed
            if is_preemption(last, req):
                switch_cost = scheduler.preemption_overhead_ms
                last.preemptions += 1
                result.preemptions += 1
            if last is not None and last is not req:
                result.context_switches += 1
            fix_plan(scheduler, req, queue, t)
            block_ms = req.pop_block()
            if decision is not None and decision.kind is FaultKind.STALL:
                block_ms *= decision.stall_factor
                result.stalls += 1
            proc.pending_fail = (
                decision is not None and decision.kind is FaultKind.FAIL
            )
            proc.block_start = t + switch_cost
            proc.block_end = proc.block_start + block_ms
            proc.running = req
            proc.last_executed = req
            return
        proc.running = None
        proc.block_end = _INF

    # ---------------------------------------------------------------- run
    def run(
        self,
        schedule: Iterable[tuple[float, Request]],
        emit: RecordSink,
        result: EngineResult,
    ) -> EngineResult:
        """Consume a time-ordered arrival stream until the system drains.

        ``schedule`` yields ``(time_ms, request)`` in nondecreasing time
        order (callers validate via :func:`validate_batch_arrivals` +
        sort, or :func:`validated_stream`; :class:`ChunkSource` objects
        validate their own chunks, and only the batched loop takes them);
        ``emit`` receives every terminal request exactly once. Counters
        and traces accumulate on ``result``, which is returned for
        convenience.

        A kernel without a router runs the batched loop
        (:meth:`_run_fast`). A routed kernel runs the loop below: each
        arrival goes to the processor its router picks, is rebound onto
        its node profile, if any, and is admitted and settled on its own.
        On one processor both loops give byte-identical traces and
        float-identical results.
        """
        router = self.router
        if router is None:
            return self._run_fast(schedule, emit, result)
        stream = iter(schedule)
        procs = self.procs
        cfg = self.robustness
        retry: RetryPolicy | None = cfg.retry if cfg is not None else None
        shedding = self._shedder is not None
        retry_heap: list[tuple[float, int, int, Request]] = []
        retry_seq = itertools.count()
        pending: tuple[float, Request] | None = next(stream, None)

        while True:
            # An idle processor with pending work dispatches immediately,
            # at its own local time.
            idle = next(
                (p for p in procs if p.running is None and not p.queue.empty),
                None,
            )
            if idle is not None:
                self._grant(idle, idle.now, result, emit)
                continue
            next_arrival = pending[0] if pending is not None else _INF
            next_retry = retry_heap[0][0] if retry_heap else _INF
            next_done = min(
                (p.block_end for p in procs if p.running is not None),
                default=_INF,
            )
            if next_arrival == _INF and next_retry == _INF and next_done == _INF:
                break  # nothing left anywhere
            if next_arrival <= next_retry and next_arrival <= next_done:
                now = next_arrival
                req = pending[1]  # type: ignore[index]
                pending = next(stream, None)
                target = router(procs, req)
                if not 0 <= target < len(procs):
                    raise SimulationError(
                        f"router returned invalid processor {target}"
                    )
                proc = procs[target]
                prof = proc.profile
                if prof is not None:
                    # Serve under the owning node's calibrated model: swap
                    # the request's task for the node-local spec before any
                    # admission/planning decision reads it. Legal only
                    # because the request has not begun (begin() freezes
                    # the plan); retries keep the already-rebound task.
                    req.task = prof.resolve(req.task)
                proc.now = max(proc.now, now)
                proc.dispatched_arrivals += 1
                if not proc.scheduler.on_arrival(proc.queue, req, now):
                    self._terminal(proc, req, "rejected", result, emit)
                elif shedding:
                    self._shed_overload(proc, now, result, emit)
                # A running block is never interrupted; if idle, the loop's
                # next iteration dispatches at `now`.
            elif next_retry <= next_done:
                now = next_retry
                _, _, pidx, req = heapq.heappop(retry_heap)
                proc = procs[pidx]
                proc.now = max(proc.now, now)
                assert cfg is not None
                if now >= cfg.deadline_ms(req):
                    self._terminal(proc, req, "timed_out", result, emit)
                    continue
                if not proc.scheduler.on_arrival(proc.queue, req, now):
                    self._terminal(proc, req, "rejected", result, emit)
                elif shedding:
                    self._shed_overload(proc, now, result, emit)
            else:
                proc = min(
                    (p for p in procs if p.running is not None),
                    key=lambda p: p.block_end,
                )
                now = proc.block_end
                proc.now = now
                req = proc.running  # type: ignore[assignment]
                assert req is not None
                fail = proc.pending_fail
                if proc.trace is not None:
                    proc.trace.record(
                        TraceEntry(
                            request_id=req.request_id,
                            task_type=req.task_type,
                            block_index=req.next_block - 1,
                            start_ms=proc.block_start,
                            end_ms=now,
                            failed=fail,
                        )
                    )
                proc.running = None
                proc.block_end = _INF
                if fail:
                    proc.pending_fail = False
                    result.fault_fails += 1
                    assert retry is not None
                    ready = settle_failure(req, now, retry)
                    proc.queue.remove(req)
                    if ready is None:
                        self._terminal(proc, req, "failed", result, emit)
                    else:
                        result.retries += 1
                        if proc.last_executed is req:
                            proc.last_executed = None
                        heapq.heappush(
                            retry_heap,
                            (ready, next(retry_seq), proc.index, req),
                        )
                elif req.blocks_left == 0:
                    req.finish_ms = now
                    proc.queue.remove(req)
                    if cfg is not None and now > cfg.deadline_ms(req):
                        # Finished, but past the client's deadline: the
                        # response is useless — count it as timed out.
                        self._terminal(proc, req, "timed_out", result, emit)
                    else:
                        self._terminal(proc, req, "served", result, emit)
                self._grant(proc, now, result, emit)

        leftovers = sum(len(p.queue) for p in procs)
        if leftovers:
            raise SimulationError(
                f"engine finished with {leftovers} requests still queued"
            )
        return result

    def _run_fast(
        self,
        schedule: Iterable[tuple[float, Request]],
        emit: RecordSink,
        result: EngineResult,
    ) -> EngineResult:
        """The batched loop of a kernel without a router: the routed
        loop's event order on one processor, with its three per-request
        costs batched away.

        Same event order, same float operations (the differential suites
        pin byte-identical traces and float-identical QoS), reached by
        exploiting three invariants of the single-processor loop: (a)
        while a block runs, every arrival at or before ``min(block end,
        next retry)`` is admitted consecutively with no other event in
        between, so a whole run of pending arrivals can be admitted in one
        ``bulk_admit`` call — when no shed check can fire inside the run
        (no shedder, or a depth-only shedder whose cap the run cannot
        pass); otherwise the run is admitted one arrival at a time, each
        followed by its shed check; (b) an idle processor has an empty
        queue, so the next arrival (or a retry due before it) opens
        service at its own time; (c) terminal settlement is
        order-sensitive only in the sink-call sequence, so terminals are
        buffered and flushed through the sink's batched variant
        (``observe_batch``) in completion order.

        A :class:`RobustnessConfig` arms the routed loop's retry heap,
        deadline eviction, fault decisions and load shedding here too;
        each sits behind a per-run local, so a fault-free run pays one
        test per event for them. The grant inlines the dispatch
        primitives.

        Arrivals come from a :class:`ChunkSource` (structure-of-arrays
        chunks, ~zero allocation with a request pool), a pre-validated
        list, or any iterator (pulled in chunks). ``preemption_overhead_ms``
        is read once per run — it is a policy constant.
        """
        proc = self.procs[0]
        scheduler = proc.scheduler
        queue = proc.queue
        # Eligibility pinned the exact queue type, so reading its backing
        # sequence for the emptiness test is safe (and skips a property
        # call per finished block).
        queue_items = queue._items
        trace = proc.trace

        # -- arrival source normalisation --------------------------------
        times: list[float] = []
        reqs: list[Request] = []
        i = 0
        n = 0
        pool = None
        if hasattr(schedule, "next_chunk"):
            source: ChunkSource = schedule  # type: ignore[assignment]
            pool = source.pool

            def refill() -> bool:
                nonlocal times, reqs, i, n
                while True:
                    nxt = source.next_chunk()
                    if nxt is None:
                        return False
                    if nxt[0]:
                        times, reqs = nxt
                        i, n = 0, len(times)
                        return True
        elif isinstance(schedule, list):
            # Batch entry point: validated and sorted by the caller.
            times = [pair[0] for pair in schedule]
            reqs = [pair[1] for pair in schedule]
            n = len(times)

            def refill() -> bool:
                return False
        else:
            stream = iter(schedule)

            def refill() -> bool:
                nonlocal times, reqs, i, n
                pairs = list(itertools.islice(stream, _FAST_CHUNK))
                if not pairs:
                    return False
                times = [pair[0] for pair in pairs]
                reqs = [pair[1] for pair in pairs]
                i, n = 0, len(times)
                return True

        # -- per-run constants and buffered settlement -------------------
        bulk = getattr(scheduler, "bulk_admit", None)
        default_select = type(scheduler).select is Scheduler.select
        overhead = scheduler.preemption_overhead_ms
        batch_observer = self._batch_observer(emit)
        out_reqs: list[Request] = []
        out_outcomes: list[str] = []

        def flush() -> None:
            if not out_reqs:
                return
            if batch_observer is not None:
                batch_observer(out_reqs, out_outcomes)
            else:
                for done_req, outcome in zip(out_reqs, out_outcomes):
                    emit(done_req, outcome)
            if pool is not None:
                # The batch's latest served request may still be the last
                # one executed (every other terminal clears that memory);
                # taken from the pool again, it would read as the same
                # request at the next grant. It stays out of the pool.
                keep = len(out_outcomes) - 1
                while keep >= 0 and out_outcomes[keep] != "served":
                    keep -= 1
                if keep >= 0:
                    del out_reqs[keep]
                pool.recycle(out_reqs)
            out_reqs.clear()
            out_outcomes.clear()

        # -- robustness, each piece behind a local -----------------------
        cfg = self.robustness
        robust = cfg is not None
        injector = self._injector
        shedder = self._shedder
        retry: RetryPolicy | None = cfg.retry if cfg is not None else None
        deadline_of = (
            cfg.deadline_ms
            if cfg is not None
            and (cfg.timeout_rr is not None or cfg.timeout_ms is not None)
            else None
        )
        # The deepest queue a bulk-admitted run may leave behind: a shed
        # check inside a run that stays within the depth cap cannot fire,
        # while a backlog cap may fire on any admission.
        bulk_depth = 0
        if shedder is not None and shedder.config.max_backlog_ms is None:
            bulk_depth = shedder.config.max_queue_depth or 0
        fault_drop, fault_stall = FaultKind.DROP, FaultKind.STALL
        fault_fail = FaultKind.FAIL
        retry_heap: list[tuple[float, int, int, Request]] = []
        retry_seq = itertools.count()

        def settle(req: Request, outcome: str) -> None:
            """Buffer a robust run's terminal under its outcome label."""
            req.outcome = outcome
            out_reqs.append(req)
            out_outcomes.append(outcome)
            if len(out_reqs) >= _FAST_CHUNK:
                flush()

        # -- the loop, over locals ---------------------------------------
        proc_now = proc.now
        dispatched = 0
        n_completed = 0
        n_dropped = 0
        context_switches = 0
        preemptions = 0
        retries = 0
        stalls = 0
        fault_fails = 0
        fault_drops = 0
        pending_fail = False
        # A robust grant's fault verdict; None throughout a fault-free run.
        decision: FaultDecision | None = None
        running: Request | None = None
        last_executed: Request | None = proc.last_executed
        block_start = proc.block_start
        block_end = _INF
        # A source that has returned None is never polled again.
        exhausted = False

        while True:
            if running is None:
                # Idle processor == empty queue: the next arrival, or a
                # retry due strictly before it, opens service at its own
                # time.
                if i >= n and not exhausted and not refill():
                    exhausted = True
                if retry_heap and (i >= n or retry_heap[0][0] < times[i]):
                    now, _, _, req = heapq.heappop(retry_heap)
                    proc_now = now
                    if deadline_of is not None and now >= deadline_of(req):
                        settle(req, "timed_out")
                        continue
                elif i < n:
                    now = times[i]
                    req = reqs[i]
                    i += 1
                    proc_now = now
                    dispatched += 1
                else:
                    break
                if not scheduler.on_arrival(queue, req, now):
                    n_dropped += 1
                    if robust:
                        req.outcome = "rejected"
                    out_reqs.append(req)
                    out_outcomes.append("rejected")
                    if len(out_reqs) >= _FAST_CHUNK:
                        flush()
                    continue
                if shedder is not None:
                    # The queue holds only this request, which was never
                    # the last one executed (a parked retry forgot it).
                    for victim in shedder.select_victims(queue, now):
                        queue.remove(victim)
                        settle(victim, "shed")
                    if not queue_items:
                        continue
            else:
                # Admit every arrival at or before min(block end, next
                # retry), then the retry if it is due by the block's end,
                # and round again (on exact ties an arrival fires before a
                # retry, and a retry before a finish).
                while True:
                    bound = block_end
                    if retry_heap and retry_heap[0][0] < bound:
                        bound = retry_heap[0][0]
                    if i < n:
                        j = bisect_right(times, bound, i)
                        if j > i:
                            dispatched += j - i
                            proc_now = times[j - 1]
                            batch = reqs[i:j]
                            if bulk is not None and (
                                shedder is None
                                or len(queue_items) + j - i <= bulk_depth
                            ):
                                i = j
                                bulk(queue, batch)
                            else:
                                batch_ts = times[i:j]
                                i = j
                                for bi, breq in enumerate(batch):
                                    bt = batch_ts[bi]
                                    if not scheduler.on_arrival(queue, breq, bt):
                                        n_dropped += 1
                                        if robust:
                                            breq.outcome = "rejected"
                                        out_reqs.append(breq)
                                        out_outcomes.append("rejected")
                                    elif shedder is not None:
                                        for victim in shedder.select_victims(
                                            queue, bt, exclude=running
                                        ):
                                            queue.remove(victim)
                                            settle(victim, "shed")
                                if len(out_reqs) >= _FAST_CHUNK:
                                    flush()
                    if i >= n and not exhausted:
                        if refill():
                            continue
                        exhausted = True
                    # Any further arrival is past `bound`.
                    if retry_heap and retry_heap[0][0] <= block_end:
                        now, _, _, req = heapq.heappop(retry_heap)
                        proc_now = now
                        if deadline_of is not None and now >= deadline_of(req):
                            settle(req, "timed_out")
                        elif not scheduler.on_arrival(queue, req, now):
                            n_dropped += 1
                            settle(req, "rejected")
                        elif shedder is not None:
                            for victim in shedder.select_victims(
                                queue, now, exclude=running
                            ):
                                queue.remove(victim)
                                settle(victim, "shed")
                        continue
                    break
                # Finish the running block (the running request is the
                # last one executed).
                now = block_end
                proc_now = now
                req = running
                if trace is not None:
                    trace.record(
                        TraceEntry(
                            request_id=req.request_id,
                            task_type=req.task_type,
                            block_index=req.next_block - 1,
                            start_ms=block_start,
                            end_ms=now,
                            failed=pending_fail,
                        )
                    )
                if pending_fail:
                    pending_fail = False
                    fault_fails += 1
                    req.unpop_block()
                    req.retries += 1
                    queue.remove(req)
                    last_executed = None
                    assert retry is not None
                    if retry.exhausted(req.retries):
                        settle(req, "failed")
                    else:
                        retries += 1
                        heapq.heappush(
                            retry_heap,
                            (
                                now + retry.backoff_ms(req.retries - 1),
                                next(retry_seq),
                                0,
                                req,
                            ),
                        )
                else:
                    plan = req.plan_ms
                    assert plan is not None
                    if req.next_block == len(plan):
                        req.finish_ms = now
                        queue.remove(req)
                        if not robust:
                            n_completed += 1
                            out_reqs.append(req)
                            out_outcomes.append("served")
                            if len(out_reqs) >= _FAST_CHUNK:
                                flush()
                        elif deadline_of is not None and now > deadline_of(req):
                            # Finished, but past the client's deadline.
                            last_executed = None
                            settle(req, "timed_out")
                        else:
                            n_completed += 1
                            settle(req, "served")
                if not queue_items:
                    running = None
                    block_end = _INF
                    continue
            # ---- grant (the reference _grant, inlined) -----------------
            while True:
                if default_select:
                    head = queue.peek()
                else:
                    idx = scheduler.select(queue, now)
                    if idx != 0:
                        queue.move_to_front(idx)
                    head = queue.peek()
                if robust:
                    decision = None
                    evict = None
                    if deadline_of is not None and now >= deadline_of(head):
                        evict = "timed_out"
                    elif injector is not None:
                        decision = injector.decide(
                            head.task.name,
                            head.arrival_ms,
                            head.next_block,
                            head.retries,
                        )
                        if decision is not None and decision.kind is fault_drop:
                            fault_drops += 1
                            evict = "failed"
                    if evict is not None:
                        queue.remove(head)
                        if last_executed is head:
                            last_executed = None
                        settle(head, evict)
                        if queue_items:
                            continue
                        running = None
                        block_end = _INF
                        break
                switch_cost = 0.0
                last = last_executed
                if (
                    last is not None
                    and last is not head
                    and last.finish_ms is None
                    and last.first_start_ms is not None
                ):
                    switch_cost = overhead
                    last.preemptions += 1
                    preemptions += 1
                if last is not None and last is not head:
                    context_switches += 1
                if head.first_start_ms is None:
                    head.begin(scheduler.plan_for(head, queue, now), now)
                head_plan = head.plan_ms
                assert head_plan is not None
                nb = head.next_block
                head.next_block = nb + 1
                block_start = now + switch_cost
                block_end = block_start + head_plan[nb]
                running = head
                last_executed = head
                if decision is not None:
                    if decision.kind is fault_stall:
                        block_end = block_start + head_plan[nb] * (
                            decision.stall_factor
                        )
                        stalls += 1
                    elif decision.kind is fault_fail:
                        pending_fail = True
                break

        flush()
        proc.now = proc_now
        proc.dispatched_arrivals += dispatched
        proc.running = None
        proc.block_end = _INF
        proc.block_start = block_start
        proc.last_executed = last_executed
        result.n_completed += n_completed
        result.n_dropped += n_dropped
        result.context_switches += context_switches
        result.preemptions += preemptions
        result.retries += retries
        result.stalls += stalls
        result.fault_fails += fault_fails
        result.fault_drops += fault_drops
        if len(queue):
            raise SimulationError(
                f"engine finished with {len(queue)} requests still queued"
            )
        return result


def batch_sink(result: EngineResult) -> RecordSink:
    """A sink that files every terminal request into its result bucket."""
    buckets: dict[str, list[Request]] = {
        "served": result.completed,
        "rejected": result.dropped,
        "failed": result.failed,
        "timed_out": result.timed_out,
        "shed": result.shed,
    }

    def emit(request: Request, outcome: str) -> None:
        buckets[outcome].append(request)

    return emit
