"""Token scheduler and token assigner (Fig. 4).

The *token scheduler* owns the request queue under a lock and orders it
with the greedy preemption rule on every arrival; the *token assigner* is
the single executor thread: it hands the token to the queue head, holds
the (scaled-clock) processor for one block, and repeats — so preemption
happens exactly at block boundaries, as in the engine.

The live path is the thread-shaped adapter over the discrete-event
kernel's dispatch contract: head selection, fault decisions, preemption
accounting, plan fixing and failure settlement all go through the
primitives in :mod:`repro.runtime.kernel` (:func:`select_head`,
:func:`fault_decision`, :func:`is_preemption`, :func:`fix_plan`,
:func:`settle_failure`), so the server cannot drift from the simulated
engines — only the clock differs (real scaled time instead of virtual
time, which is why this adapter keeps its own thread/condition plumbing
instead of running the kernel's loop).

With a :class:`~repro.robustness.RobustnessConfig` the pair also enforces
the robustness contract (docs/robustness.md): expired requests are evicted
from the queue, injected block failures are retried with backoff through a
parked-request heap, injected stalls stretch the held block, drops and
exhausted retries fail the request, and overload sheds the lowest-headroom
queued requests — all surfaced through the responder callbacks instead of
leaving handles hanging.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from dataclasses import dataclass
from typing import Callable

from repro.errors import ServerError
from repro.robustness.config import RobustnessConfig
from repro.robustness.faults import FaultKind
from repro.runtime.kernel import (
    fault_decision,
    fix_plan,
    is_preemption,
    select_head,
    settle_failure,
)
from repro.scheduling.policies.base import Scheduler
from repro.scheduling.queue import RequestQueue
from repro.scheduling.request import Request
from repro.server.clock import ScaledClock

#: Longest wall-clock wait of an idle assigner before it re-checks its
#: stop flag.
_POLL_S = 0.05


@dataclass(frozen=True)
class TokenGrant:
    """One block's worth of processor time handed to the assigner."""

    request: Request
    block_ms: float
    #: True when fault injection failed this attempt: the assigner holds
    #: the processor for ``block_ms``, then reports the failure instead of
    #: completing the block.
    fail: bool = False


class TokenScheduler:
    """Thread-safe queue ordered by the configured scheduling policy."""

    def __init__(
        self,
        scheduler: Scheduler,
        robustness: RobustnessConfig | None = None,
        on_timeout: Callable[[Request], None] | None = None,
        on_shed: Callable[[Request], None] | None = None,
        on_failed: Callable[[Request], None] | None = None,
    ):
        self.scheduler = scheduler
        self.robustness = robustness
        self._injector = robustness.make_injector() if robustness else None
        self._shedder = robustness.make_shedder() if robustness else None
        self._on_timeout = on_timeout
        self._on_shed = on_shed
        self._on_failed = on_failed
        self._queue = RequestQueue()
        self._parked: list[tuple[float, int, Request]] = []
        self._park_seq = itertools.count()
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._last_granted: Request | None = None
        self._executing: Request | None = None
        self.preemptions = 0
        self.timed_out = 0
        self.shed = 0
        self.failed = 0
        self.retries = 0
        self.stalls = 0

    # ------------------------------------------------------ robustness hooks
    def _deadline(self, request: Request) -> float:
        if self.robustness is None:
            return float("inf")
        return self.robustness.deadline_ms(request)

    def _leave(self, request: Request) -> None:
        """Forget a request that left the system mid-flight: selecting
        another request afterwards is not a preemption (lock held)."""
        if self._last_granted is request:
            self._last_granted = None

    def _evict_expired(self, now_ms: float) -> None:
        """Remove every queued request past its deadline (lock held)."""
        if self.robustness is None:
            return
        for req in [r for r in self._queue if r is not self._executing]:
            if now_ms >= self._deadline(req):
                self._queue.remove(req)
                self._leave(req)
                self.timed_out += 1
                if self._on_timeout is not None:
                    self._on_timeout(req)

    def _shed_overload(self, now_ms: float) -> None:
        """Evict the lowest-headroom queued requests while over capacity
        (lock held)."""
        if self._shedder is None:
            return
        for victim in self._shedder.select_victims(
            self._queue, now_ms, exclude=self._executing
        ):
            self._queue.remove(victim)
            self._leave(victim)
            self.shed += 1
            if self._on_shed is not None:
                self._on_shed(victim)

    def _unpark_due(self, now_ms: float) -> None:
        """Re-enqueue parked retries whose backoff elapsed (lock held)."""
        while self._parked and self._parked[0][0] <= now_ms:
            _, _, req = heapq.heappop(self._parked)
            if now_ms >= self._deadline(req):
                self.timed_out += 1
                if self._on_timeout is not None:
                    self._on_timeout(req)
                continue
            self.scheduler.on_arrival(self._queue, req, now_ms)
        # Parked requests past their deadline need not wait for their
        # backoff to expire before being reported.
        if self.robustness is not None:
            keep = []
            for ready, seq, req in self._parked:
                if now_ms >= self._deadline(req):
                    self.timed_out += 1
                    if self._on_timeout is not None:
                        self._on_timeout(req)
                else:
                    keep.append((ready, seq, req))
            if len(keep) != len(self._parked):
                self._parked = keep
                heapq.heapify(self._parked)

    # --------------------------------------------------------------- intake
    def submit_batch(
        self, requests: list[Request], now_ms: float
    ) -> list[bool]:
        """Enqueue simultaneous arrivals by policy under one lock; wakes
        the assigner.

        The one intake path: N requests that crossed in one INFER_BATCH
        frame share a single lock acquisition, one shed pass and one
        assigner wake-up instead of N of each (a single submission is a
        batch of one). Returns per-request admission verdicts, aligned
        with the input.
        """
        with self._work:
            admitted = [
                self.scheduler.on_arrival(self._queue, request, now_ms)
                for request in requests
            ]
            if any(admitted):
                self._shed_overload(now_ms)
                self._work.notify()
            return admitted

    # ---------------------------------------------------------------- grant
    def acquire_token(
        self, now_ms: float, timeout_s: float | None
    ) -> TokenGrant | None:
        """Block until a request holds the token (queue head); returns the
        grant (request + its next block's duration), or None on timeout /
        shutdown wake-up with an empty queue.

        The block is consumed under the queue lock so arrival-time greedy
        insertions always observe consistent remaining-time state. The
        per-grant decisions are the kernel's dispatch primitives.
        """
        with self._work:
            self._unpark_due(now_ms)
            if self._queue.empty and not self._work.wait_for(
                lambda: not self._queue.empty, timeout=timeout_s
            ):
                return None
            self._evict_expired(now_ms)
            while not self._queue.empty:
                req = select_head(self.scheduler, self._queue, now_ms)
                fail = False
                stall_factor = 1.0
                decision = fault_decision(self._injector, req)
                if decision is not None:
                    if decision.kind is FaultKind.DROP:
                        self._queue.remove(req)
                        self._leave(req)
                        self.failed += 1
                        if self._on_failed is not None:
                            self._on_failed(req)
                        continue
                    if decision.kind is FaultKind.STALL:
                        stall_factor = decision.stall_factor
                        self.stalls += 1
                    else:
                        fail = True
                if is_preemption(self._last_granted, req):
                    # A different request took the token while the last
                    # one still has blocks pending: block-boundary
                    # preemption.
                    self._last_granted.preemptions += 1
                    self.preemptions += 1
                self._last_granted = req
                fix_plan(self.scheduler, req, self._queue, now_ms)
                self._executing = req
                return TokenGrant(
                    request=req,
                    block_ms=req.pop_block() * stall_factor,
                    fail=fail,
                )
            return None

    # ------------------------------------------------------------ settlement
    def release_token(self, request: Request) -> None:
        """Remove a finished request from the queue."""
        with self._lock:
            if self._executing is request:
                self._executing = None
            if request.blocks_left == 0:
                self._queue.remove(request)

    def report_failure(self, request: Request, now_ms: float) -> None:
        """The granted block's execution failed: rewind it, then either
        park the request for a backed-off retry or fail it terminally."""
        if self.robustness is None:
            raise ServerError("report_failure needs a robustness config")
        with self._work:
            if self._executing is request:
                self._executing = None
            ready_ms = settle_failure(request, now_ms, self.robustness.retry)
            self._queue.remove(request)
            self._leave(request)
            if ready_ms is None:
                self.failed += 1
                if self._on_failed is not None:
                    self._on_failed(request)
            else:
                self.retries += 1
                heapq.heappush(
                    self._parked,
                    (ready_ms, next(self._park_seq), request),
                )
            self._work.notify()

    def wake(self) -> None:
        with self._work:
            self._work.notify_all()

    def depth(self) -> int:
        with self._lock:
            return len(self._queue)

    def parked(self) -> int:
        """Requests waiting out a retry backoff."""
        with self._lock:
            return len(self._parked)

    def next_ready_ms(self) -> float:
        """When the earliest parked retry is ready (inf when none is)."""
        with self._lock:
            return self._parked[0][0] if self._parked else float("inf")

    def backlog_ms(self) -> float:
        """Total remaining execution time currently queued."""
        with self._lock:
            return self._queue.total_backlog_ms()


class TokenAssigner:
    """The executor thread: runs one block per token grant."""

    def __init__(
        self,
        scheduler: TokenScheduler,
        clock: ScaledClock,
        on_complete: Callable[[Request, float], None],
        on_timeout: Callable[[Request, float], None] | None = None,
    ):
        self.scheduler = scheduler
        self.clock = clock
        self.on_complete = on_complete
        #: Called (instead of ``on_complete``) when a request finishes past
        #: its deadline: the result exists but the client has given up.
        self.on_timeout = on_timeout
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.blocks_executed = 0
        self.timed_out = 0

    def start(self) -> None:
        if self._thread is not None:
            raise ServerError("token assigner already started")
        self._thread = threading.Thread(
            target=self._run, name="split-token-assigner", daemon=True
        )
        self._thread.start()

    def stop(self, timeout_s: float = 5.0) -> None:
        self._stop.set()
        self.scheduler.wake()
        if self._thread is not None:
            self._thread.join(timeout=timeout_s)
            if self._thread.is_alive():
                raise ServerError("token assigner failed to stop")
            self._thread = None

    def _deadline(self, req: Request) -> float:
        cfg = self.scheduler.robustness
        return float("inf") if cfg is None else cfg.deadline_ms(req)

    def _idle_wait_s(self, now_ms: float) -> float:
        """How long the next grant may wait on an empty queue: the poll, or
        until the earliest parked retry is ready, whichever comes first
        (simulated ms converted to seconds through the clock's scale)."""
        ready_ms = self.scheduler.next_ready_ms()
        return min(_POLL_S, max(0.0, (ready_ms - now_ms) * self.clock.scale))

    def _run(self) -> None:
        while not self._stop.is_set():
            now = self.clock.now_ms()
            grant = self.scheduler.acquire_token(
                now, timeout_s=self._idle_wait_s(now)
            )
            if grant is None:
                continue
            req = grant.request
            self.clock.sleep_ms(grant.block_ms)
            self.blocks_executed += 1
            if grant.fail:
                self.scheduler.report_failure(req, self.clock.now_ms())
                continue
            if req.blocks_left == 0:
                finish = self.clock.now_ms()
                req.finish_ms = finish
                self.scheduler.release_token(req)
                if finish > self._deadline(req) and self.on_timeout is not None:
                    self.timed_out += 1
                    self.on_timeout(req, finish)
                else:
                    self.on_complete(req, finish)
            else:
                self.scheduler.release_token(req)
