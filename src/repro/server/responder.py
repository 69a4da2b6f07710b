"""Responder (Fig. 4): accepts user requests and returns inference results.

In the paper the responder speaks RPC on its own thread with locked
asynchronous reads/writes; here it exposes an in-process future-style
handle per submission and a completion callback wired to the token
assigner.

Every submitted request resolves its handle exactly once, whatever
happens to it: served (:class:`InferenceResult`), rejected by admission,
shed under overload, failed by fault injection / exhausted retries, or
timed out past its deadline. The unhappy outcomes surface as typed
exceptions from :meth:`InferenceHandle.result` — never as a hang.
"""

from __future__ import annotations

import threading
from typing import Callable, NamedTuple

from repro.errors import RequestFailed, RequestTimeout, ServerError
from repro.scheduling.request import Request


class InferenceResult(NamedTuple):
    """What the user gets back.

    A NamedTuple, built positionally once per served request: a frozen
    dataclass would pay an ``object.__setattr__`` per field.
    """

    request_id: int
    model: str
    arrival_ms: float
    finish_ms: float
    e2e_ms: float
    response_ratio: float
    preemptions: int
    retries: int = 0


class InferenceHandle:
    """Future-like handle for one submitted request."""

    def __init__(self, request: Request):
        self._request = request
        self._event = threading.Event()
        self._result: InferenceResult | None = None
        self._outcome = "pending"
        self._cb_lock = threading.Lock()
        self._callbacks: list[Callable[["InferenceHandle"], None]] = []

    @property
    def request_id(self) -> int:
        return self._request.request_id

    @property
    def outcome(self) -> str:
        """One of pending / served / rejected / shed / failed / timed_out."""
        return self._outcome

    @property
    def plan_ms(self) -> tuple[float, ...] | None:
        """The execution plan fixed at first dispatch (None before)."""
        return self._request.plan_ms

    def add_done_callback(
        self, fn: Callable[["InferenceHandle"], None]
    ) -> None:
        """Call ``fn(handle)`` once the handle resolves.

        Fires from whichever thread resolves the request (the token
        assigner, the lockstep engine thread, or the submitter on
        immediate rejection) — callbacks must be cheap and thread-safe;
        the socket front-end uses them to bridge into its event loop. If
        the handle is already resolved the callback runs immediately on
        the calling thread.
        """
        with self._cb_lock:
            if not self._event.is_set():
                self._callbacks.append(fn)
                return
        fn(self)

    def _resolve(self, outcome: str, result: InferenceResult | None = None) -> None:
        with self._cb_lock:
            self._outcome = outcome
            self._result = result
            self._event.set()
            callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)

    def done(self) -> bool:
        return self._event.is_set()

    @property
    def dropped(self) -> bool:
        """True when the server discarded the request without serving it
        (admission rejection or overload shedding)."""
        return self._outcome in ("rejected", "shed")

    def result(self, timeout_s: float | None = None) -> InferenceResult:
        if not self._event.wait(timeout=timeout_s):
            raise ServerError(
                f"request {self.request_id} did not complete within timeout"
            )
        if self._outcome == "failed":
            raise RequestFailed(
                f"request {self.request_id} failed "
                f"after {self._request.retries} retries"
            )
        if self._outcome == "timed_out":
            raise RequestTimeout(
                f"request {self.request_id} missed its deadline"
            )
        if self._result is None:
            raise ServerError(f"request {self.request_id} was dropped")
        return self._result


class Responder:
    """Tracks in-flight handles and resolves them on terminal outcomes."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._pending: dict[int, InferenceHandle] = {}
        # Running totals of the served results, updated under the lock as
        # each is served; the results themselves live only in handles
        # and on the wire, so a settled request leaves nothing behind.
        self._served = 0
        self._rr_sum = 0.0
        self._rr_max = float("nan")
        self.rejected = 0
        self.shed = 0
        self.failed = 0
        self.timed_out = 0

    def register(self, request: Request) -> InferenceHandle:
        handle = InferenceHandle(request)
        with self._lock:
            self._pending[request.request_id] = handle
        return handle

    def _retire(self, request: Request, outcome: str) -> InferenceHandle | None:
        request.outcome = outcome
        with self._lock:
            return self._pending.pop(request.request_id, None)

    def reject(self, request: Request) -> None:
        """Admission control turned the request away at submit time."""
        handle = self._retire(request, "rejected")
        if handle is not None:
            self.rejected += 1
            handle._resolve("rejected")

    def drop_shed(self, request: Request) -> None:
        """Overload shedding evicted the request from the queue."""
        handle = self._retire(request, "shed")
        if handle is not None:
            self.shed += 1
            handle._resolve("shed")

    def fail(self, request: Request) -> None:
        """Fault injection dropped the request or exhausted its retries."""
        handle = self._retire(request, "failed")
        if handle is not None:
            self.failed += 1
            handle._resolve("failed")

    def timeout(self, request: Request, now_ms: float | None = None) -> None:
        """The request missed its deadline (queued, parked, or finished
        too late)."""
        handle = self._retire(request, "timed_out")
        if handle is not None:
            self.timed_out += 1
            handle._resolve("timed_out")

    def resolve(self, request: Request, finish_ms: float) -> None:
        """Completion callback for the token assigner."""
        e2e = finish_ms - request.arrival_ms
        result = InferenceResult(
            request.request_id,
            request.task_type,
            request.arrival_ms,
            finish_ms,
            e2e,
            e2e / request.ext_ms,
            request.preemptions,
            request.retries,
        )
        handle = self._retire(request, "served")
        with self._lock:
            self._record(result.response_ratio)
        if handle is not None:
            handle._resolve("served", result)

    def _record(self, rr: float) -> None:
        """Fold one served response ratio into the running totals (caller
        holds the lock). Left to right in completion order, like a plain
        loop over the served results; the first result sets the
        maximum."""
        if not self._served or rr > self._rr_max:
            self._rr_max = rr
        self._rr_sum += rr
        self._served += 1

    def served_stats(self) -> tuple[int, float, float]:
        """``(served, mean, max)`` of the response ratios served so far,
        read under the lock in O(1); mean and max are NaN before the
        first result."""
        with self._lock:
            n = self._served
            if not n:
                return 0, float("nan"), float("nan")
            return n, self._rr_sum / n, self._rr_max

    def settle_batch(self, requests: list[Request], outcomes: list[str]) -> None:
        """Settle a batch of terminal requests under one lock acquisition.

        The batched variant of the scalar callbacks above, used by the
        socket front-end's lockstep sink (`docs/serving.md`): ``requests``
        and ``outcomes`` are aligned, in terminal order. An
        :class:`InferenceResult` is built only for a served request with
        a registered handle; the wire reply reads the settled request.

        Unlike the scalar methods — which count an unhappy outcome only
        when a handle was registered, because engine-internal requests
        also pass through them — every request in the batch is a
        submitted request by contract, so every outcome is counted.
        Handles, when registered, still resolve exactly once (outside the
        lock, like the scalar paths).
        """
        resolutions: list[tuple[InferenceHandle, str, InferenceResult | None]]
        resolutions = []
        pending = self._pending
        with self._lock:
            for request, outcome in zip(requests, outcomes):
                request.outcome = outcome
                handle = pending.pop(request.request_id, None)
                result: InferenceResult | None = None
                if outcome == "served":
                    finish = request.finish_ms
                    assert finish is not None
                    e2e = finish - request.arrival_ms
                    rr = e2e / request.ext_ms
                    self._record(rr)
                    if handle is not None:
                        result = InferenceResult(
                            request.request_id,
                            request.task_type,
                            request.arrival_ms,
                            finish,
                            e2e,
                            rr,
                            request.preemptions,
                            request.retries,
                        )
                elif outcome == "rejected":
                    self.rejected += 1
                elif outcome == "shed":
                    self.shed += 1
                elif outcome == "failed":
                    self.failed += 1
                elif outcome == "timed_out":
                    self.timed_out += 1
                else:
                    raise ServerError(f"unknown terminal outcome {outcome!r}")
                if handle is not None:
                    resolutions.append((handle, outcome, result))
        for handle, outcome, result in resolutions:
            handle._resolve(outcome, result)

    def in_flight(self) -> int:
        with self._lock:
            return len(self._pending)

    def abort_pending(self) -> int:
        """Resolve every in-flight handle as failed (server teardown path).

        The no-hang guarantee must survive even an engine crash: whoever
        was waiting on a handle gets :class:`RequestFailed` instead of
        blocking forever. Returns the number of handles aborted.
        """
        with self._lock:
            handles = list(self._pending.values())
            self._pending.clear()
        for handle in handles:
            handle._request.outcome = "failed"
            self.failed += 1
            handle._resolve("failed")
        return len(handles)
