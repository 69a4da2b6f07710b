"""Overload load shedding ordered by response-ratio headroom.

When the queue grows past a configured depth or backlog, serving every
request means serving all of them late. Shedding drops the requests with
the *least* response-ratio headroom first — the ones whose predicted
response ratio is already furthest past their target. Those are the
requests most likely to violate no matter what (the same prediction the
ClockWork-style admission gate uses, Eq. 3), so evicting them frees
capacity for requests that can still meet their targets. This composes
with admission control (which rejects at submit time using the same
predictor) and with elastic splitting (which cuts splitting overhead in
exactly these deep-queue regimes, §3.3).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError
from repro.scheduling.queue import RequestQueue
from repro.scheduling.request import Request


@dataclass(frozen=True)
class LoadShedConfig:
    """When to shed and how much headroom a request is entitled to.

    ``max_queue_depth`` / ``max_backlog_ms``: shedding triggers when either
    is exceeded (None disables that trigger). ``target_alpha`` is the
    response-ratio multiplier headroom is measured against, mirroring the
    server's ``admission_alpha``.
    """

    max_queue_depth: int | None = None
    max_backlog_ms: float | None = None
    target_alpha: float = 8.0

    def __post_init__(self) -> None:
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise SimulationError("max_queue_depth must be >= 1")
        if self.max_backlog_ms is not None and self.max_backlog_ms <= 0:
            raise SimulationError("max_backlog_ms must be positive")
        if self.target_alpha <= 0:
            raise SimulationError("target_alpha must be positive")
        if self.max_queue_depth is None and self.max_backlog_ms is None:
            raise SimulationError(
                "load shedding needs max_queue_depth or max_backlog_ms"
            )


class LoadShedder:
    """Selects shed victims; the engine/server owns the actual eviction."""

    def __init__(self, config: LoadShedConfig):
        self.config = config
        self.shed_count = 0  # observability: victims selected so far

    def headroom(self, request: Request, queue: RequestQueue, now_ms: float) -> float:
        """Target multiplier minus the request's predicted response ratio.

        Negative headroom = already predicted to violate its target.
        """
        position = next(
            (i for i, r in enumerate(queue) if r is request), len(queue)
        )
        predicted_ms = (
            request.waited_ms(now_ms)
            + queue.waiting_ahead_ms(position)
            + request.ext_left_ms
        )
        target_ms = self.config.target_alpha * request.task.target_ms
        return (target_ms - predicted_ms) / request.task.target_ms

    def select_victims(
        self,
        queue: RequestQueue,
        now_ms: float,
        exclude: Request | None = None,
    ) -> list[Request]:
        """Requests to shed, lowest headroom first, until within limits.

        ``exclude`` protects the currently-running request — a request
        mid-block cannot be revoked, only not rescheduled.

        Headrooms are computed from one pass over the queue: the running
        prefix of ``ext_left_ms`` *is* ``waiting_ahead_ms(position)`` for
        each position in turn (same left-to-right float accumulation, so
        the values — and therefore the victim order — are bit-identical
        to probing :meth:`headroom` per candidate, which costs a linear
        position scan each and made a shed event O(n^2)).

        The trigger the victim loop breaks on is checked first: within
        the limits nothing is scored or sorted, so the per-admission cost
        is O(1) plus one backlog sum when ``max_backlog_ms`` is set.
        """
        cfg = self.config
        max_depth = cfg.max_queue_depth
        max_backlog = cfg.max_backlog_ms
        depth = len(queue)
        backlog = queue.total_backlog_ms() if max_backlog is not None else 0.0
        if (max_depth is None or depth <= max_depth) and (
            max_backlog is None or backlog <= max_backlog
        ):
            return []
        target_alpha = cfg.target_alpha
        ahead_ms = 0.0
        scored: list[tuple[float, Request]] = []
        for req in queue:
            if req is not exclude:
                predicted_ms = (
                    req.waited_ms(now_ms) + ahead_ms + req.ext_left_ms
                )
                task_target_ms = req.task.target_ms
                scored.append(
                    (
                        (target_alpha * task_target_ms - predicted_ms)
                        / task_target_ms,
                        req,
                    )
                )
            ahead_ms += req.ext_left_ms
        scored.sort(key=lambda pair: pair[0])
        candidates = [req for _headroom, req in scored]
        victims: list[Request] = []
        for req in candidates:
            over_depth = max_depth is not None and depth > max_depth
            over_backlog = max_backlog is not None and backlog > max_backlog
            if not over_depth and not over_backlog:
                break
            victims.append(req)
            depth -= 1
            backlog -= req.ext_left_ms
        self.shed_count += len(victims)
        return victims
