"""SplitServer: the assembled serving pipeline (Fig. 4's workflow).

    (1) users deploy tasks -> (2) unwrap to .ronnx -> (3) offline GA split
    -> (4) deploy blocks + greedy-preemption serving -> (5) respond.

Usage::

    server = SplitServer(device=jetson_nano(), time_scale=1e-5)
    server.deploy(build_resnet50())
    server.start()
    handle = server.submit("resnet50")
    result = handle.result(timeout_s=5)
    server.stop()
"""

from __future__ import annotations

import threading
from pathlib import Path

from repro.errors import ServerError
from repro.graphs.graph import ModelGraph
from repro.hardware.device import DeviceSpec
from repro.hardware.presets import jetson_nano
from repro.robustness.config import RobustnessConfig
from repro.scheduling.policies.base import Scheduler
from repro.scheduling.policies.split_policy import SplitScheduler
from repro.scheduling.request import TaskSpec
from repro.server.clock import ScaledClock
from repro.server.deployment import DeployedModel, DeploymentManager
from repro.server.responder import InferenceHandle, Responder
from repro.server.token import TokenAssigner, TokenScheduler
from repro.server.wrapper import RequestUnwrapper, RequestWrapper


class SplitServer:
    """In-process SPLIT serving system with a scaled clock."""

    def __init__(
        self,
        device: DeviceSpec | None = None,
        scheduler: Scheduler | None = None,
        time_scale: float = 1e-5,
        block_dir: str | Path | None = None,
        admission_alpha: float | None = None,
        robustness: RobustnessConfig | None = None,
    ):
        """``admission_alpha`` enables ClockWork-style admission control:
        a submission whose *predicted* response ratio (current backlog plus
        its own execution over its isolated time) already exceeds the
        threshold is rejected immediately instead of queuing to miss its
        target anyway.

        ``robustness`` arms fault injection, per-request deadlines, retry
        with backoff, and overload load shedding (see
        :mod:`repro.robustness` and ``docs/robustness.md``); the unhappy
        outcomes surface as typed exceptions from the inference handles.
        """
        if admission_alpha is not None and admission_alpha <= 1.0:
            raise ServerError("admission_alpha must exceed 1")
        self.admission_alpha = admission_alpha
        self.robustness = robustness
        self.rejected = 0
        self.device = device or jetson_nano()
        self.clock = ScaledClock(scale=time_scale)
        self.unwrapper = RequestUnwrapper()
        self.deployment = DeploymentManager(
            self.device, block_dir=Path(block_dir) if block_dir else None
        )
        self.responder = Responder()
        self._scheduler = scheduler or SplitScheduler()
        self.tokens = TokenScheduler(
            self._scheduler,
            robustness=robustness,
            on_timeout=self.responder.timeout,
            on_shed=self.responder.drop_shed,
            on_failed=self.responder.fail,
        )
        self.assigner = TokenAssigner(
            self.tokens,
            self.clock,
            self.responder.resolve,
            on_timeout=self.responder.timeout,
        )
        #: The deployed task catalogue by name, swapped whole on every
        #: deploy (the wire front-end resolves JSON infers against it).
        self.specs: dict[str, TaskSpec] = {}
        self._wrapper: RequestWrapper | None = None
        self._deploy_lock = threading.Lock()
        self._running = False

    # ------------------------------------------------------------ lifecycle
    def deploy(self, model: ModelGraph | str | Path) -> DeployedModel:
        """Offline path: unwrap, split, persist, register."""
        if self._running:
            raise ServerError(
                "deploy models before starting the server "
                "(or use register() for live deployment)"
            )
        return self.register(model)

    def register(self, model: ModelGraph | str | Path) -> DeployedModel:
        """Deploy a model, allowed while serving.

        Unlike :meth:`deploy` this is safe on a running server: the
        offline pipeline (profile, GA split, persistence) happens under a
        deploy lock and the task-catalogue swap is a single atomic
        assignment, so concurrent submissions keep seeing a consistent
        wrapper throughout. The socket front-end's register frame lands
        here.
        """
        graph = self.unwrapper.unwrap(model)
        with self._deploy_lock:
            record = self.deployment.deploy(graph)
            self.specs = self.deployment.task_specs()
            self._wrapper = RequestWrapper(self.specs)
        return record

    def start(self) -> None:
        if self._running:
            raise ServerError("server already running")
        if not self.deployment.deployed:
            raise ServerError("no models deployed")
        self.assigner.start()
        self._running = True

    def stop(self) -> None:
        if not self._running:
            return
        self.assigner.stop()
        self._running = False

    def __enter__(self) -> "SplitServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # --------------------------------------------------------------- online
    def submit(self, model_name: str) -> InferenceHandle:
        """Submit one inference request; returns a future-style handle."""
        if not self._running:
            raise ServerError("server is not running")
        assert self._wrapper is not None
        now = self.clock.now_ms()
        request = self._wrapper.wrap(model_name, arrival_ms=now)
        return self.submit_batch([request], now)[0]

    def submit_batch(
        self, requests: list, now: float | None = None
    ) -> list[InferenceHandle]:
        """Submit a batch of wrapped requests sharing one arrival instant.

        The one submission path (:meth:`submit` and the wire front-end's
        realtime intake): handles register per request, ClockWork-style
        admission control is evaluated per request against the backlog
        as seen before the batch (the batch's own members do not count
        against each other — they arrived together), and admitted
        requests enqueue through :meth:`TokenScheduler.submit_batch`
        under a single queue lock. Every outcome — including immediate
        rejection — resolves the handle.
        """
        if now is None:
            now = self.clock.now_ms()
        handles = [self.responder.register(request) for request in requests]
        if self.admission_alpha is not None:
            backlog = self.tokens.backlog_ms()
            to_queue = []
            for request in requests:
                predicted_rr = (backlog + request.ext_ms) / request.ext_ms
                if predicted_rr > self.admission_alpha:
                    self.rejected += 1
                    self.responder.reject(request)
                else:
                    to_queue.append(request)
        else:
            to_queue = list(requests)
        for request, admitted in zip(
            to_queue, self.tokens.submit_batch(to_queue, now)
        ):
            if not admitted:
                self.responder.reject(request)
        return handles

    def drain(self, timeout_s: float = 30.0) -> None:
        """Wait until every in-flight request resolves."""
        import time

        deadline = time.monotonic() + timeout_s
        while self.responder.in_flight() > 0:
            if time.monotonic() > deadline:
                raise ServerError(
                    f"{self.responder.in_flight()} requests still in flight "
                    f"after {timeout_s}s"
                )
            time.sleep(0.001)

    @property
    def deployed_models(self) -> tuple[str, ...]:
        return tuple(sorted(self.deployment.deployed))

    def stats(self) -> dict[str, float | int]:
        """Serving statistics snapshot (observability endpoint); its cost
        does not grow with the number of results served."""
        completed, mean_rr, max_rr = self.responder.served_stats()
        return {
            "deployed_models": len(self.deployment.deployed),
            "completed": completed,
            "in_flight": self.responder.in_flight(),
            "rejected": self.rejected,
            "blocks_executed": self.assigner.blocks_executed,
            "preemptions": self.tokens.preemptions,
            "queue_depth": self.tokens.depth(),
            "mean_response_ratio": mean_rr,
            "max_response_ratio": max_rr,
            # Robustness outcomes (all zero without a RobustnessConfig).
            "shed": self.responder.shed,
            "failed": self.responder.failed,
            "timed_out": self.responder.timed_out,
            "retries": self.tokens.retries,
            "stalls": self.tokens.stalls,
            "parked": self.tokens.parked(),
        }
