"""EventKernel unit surface: validators, adapters, hooks, shims.

The differential suite (``test_kernel_differential.py``) pins *what* the
kernel computes; this file pins the kernel's own API contract — the
shared arrival validators and their canonical messages (one format for
every entry point), queue-adapter routing errors, the ordering and
arguments of every :class:`KernelHooks` lifecycle callback, and the
deprecation shims left on :class:`SequentialEngine`.
"""

from __future__ import annotations

import warnings

import pytest

from repro.errors import SimulationError
from repro.robustness.config import RobustnessConfig
from repro.robustness.faults import FaultPlan
from repro.robustness.retry import RetryPolicy
from repro.runtime.engine import SequentialEngine
from repro.runtime.kernel import (
    EngineResult,
    EventKernel,
    Hooks,
    RoutedQueues,
    batch_sink,
    validate_batch_arrivals,
    validated_stream,
)
from repro.runtime.multi import MultiProcessorEngine
from repro.scheduling.policies import FIFOScheduler, SplitScheduler
from repro.scheduling.request import Request, TaskSpec


def spec(name="m", ext=10.0, blocks=None):
    return TaskSpec(name=name, ext_ms=ext, blocks_ms=blocks or (ext,))


def arrivals(*items):
    return [
        (t, Request(task=spec(name, ext, blocks), arrival_ms=t))
        for t, name, ext, blocks in items
    ]


PREEMPTIVE = (
    (0.0, "long", 40.0, (20.0, 20.0)),
    (5.0, "short", 5.0, None),
)


class TestValidators:
    def test_batch_rejects_negative(self):
        with pytest.raises(SimulationError, match="negative arrival time"):
            validate_batch_arrivals(arrivals((-1.0, "a", 10.0, None)))

    def test_stream_rejects_negative(self):
        stream = validated_stream(iter(arrivals((-0.5, "a", 10.0, None))))
        with pytest.raises(SimulationError, match="negative arrival time"):
            next(stream)

    def test_stream_rejects_disorder(self):
        stream = validated_stream(
            iter(arrivals((5.0, "a", 10.0, None), (3.0, "b", 10.0, None)))
        )
        next(stream)
        with pytest.raises(
            SimulationError, match="arrival stream not time-ordered: 3.0 after 5.0"
        ):
            next(stream)

    def test_every_entry_point_shares_the_message(self):
        """One validator, one format — sequential, multi and concurrent."""
        from repro.hardware.contention import ContentionModel
        from repro.hardware.presets import jetson_nano
        from repro.runtime.executor import ConcurrentEngine

        bad = arrivals((-2.0, "a", 10.0, None))
        engines = [
            SequentialEngine(FIFOScheduler()),
            MultiProcessorEngine([FIFOScheduler()]),
            ConcurrentEngine(ContentionModel(jetson_nano())),
        ]
        for engine in engines:
            with pytest.raises(
                SimulationError, match=r"negative arrival time -2\.0"
            ):
                engine.run(list(bad))

    def test_multi_stream_validates_order(self):
        engine = MultiProcessorEngine([FIFOScheduler(), FIFOScheduler()])
        bad = iter(arrivals((5.0, "a", 10.0, None), (1.0, "b", 10.0, None)))
        with pytest.raises(SimulationError, match="not time-ordered"):
            engine.run_stream(bad, lambda req, outcome: None)

    @pytest.mark.parametrize("api", ("run", "run_stream"))
    @pytest.mark.parametrize(
        "robustness", (None, RobustnessConfig()), ids=("plain", "robust")
    )
    @pytest.mark.parametrize(
        "make",
        (
            lambda cfg: SequentialEngine(FIFOScheduler(), robustness=cfg),
            lambda cfg: MultiProcessorEngine(
                [FIFOScheduler(), FIFOScheduler()], robustness=cfg
            ),
        ),
        ids=("sequential", "multi"),
    )
    @pytest.mark.parametrize("bad", (float("inf"), float("nan")), ids=str)
    def test_non_finite_arrival_refused(self, bad, make, robustness, api):
        """An arrival at inf or NaN is refused before any request runs:
        neither served at an infinite time nor lost as "no arrival"."""
        pairs = arrivals(
            (0.0, "a", 10.0, None), (bad, "b", 10.0, None), (5.0, "c", 10.0, None)
        )
        engine = make(robustness)
        with pytest.raises(
            SimulationError, match=f"non-finite arrival time {bad}"
        ):
            if api == "run":
                engine.run(pairs)
            else:
                engine.run_stream(iter(pairs), lambda req, outcome: None)


class TestAdapters:
    def test_needs_processors(self):
        with pytest.raises(SimulationError, match="need at least one processor"):
            EventKernel([])

    @pytest.mark.parametrize("target", [-1, 2])
    def test_router_range_checked(self, target):
        engine = MultiProcessorEngine(
            [FIFOScheduler(), FIFOScheduler()], router=lambda ps, r: target
        )
        with pytest.raises(
            SimulationError, match=f"router returned invalid processor {target}"
        ):
            engine.run(arrivals((0.0, "a", 10.0, None)))


class Recorder(Hooks):
    def __init__(self):
        self.events: list[tuple] = []

    def on_admit(self, request, now_ms, admitted, proc_index):
        self.events.append(("admit", request.task_type, now_ms, admitted))

    def on_dispatch(self, request, now_ms, block_ms, proc_index):
        self.events.append(("dispatch", request.task_type, now_ms, block_ms))

    def on_block_finish(
        self, request, block_index, start_ms, end_ms, failed, proc_index
    ):
        self.events.append(
            ("finish", request.task_type, block_index, start_ms, end_ms, failed)
        )

    def on_preempt(self, preempted, by, now_ms, proc_index):
        self.events.append(
            ("preempt", preempted.task_type, by.task_type, now_ms)
        )

    def on_retry(self, request, ready_ms, proc_index):
        self.events.append(("retry", request.task_type, ready_ms))

    def on_terminal(self, request, outcome, now_ms):
        self.events.append(("terminal", request.task_type, outcome, now_ms))

    def of(self, kind):
        return [e for e in self.events if e[0] == kind]


class TestHooks:
    def test_fault_free_lifecycle(self):
        hooks = Recorder()
        result = SequentialEngine(SplitScheduler(), hooks=hooks).run(
            arrivals(*PREEMPTIVE)
        )
        assert result.preemptions == 1
        # The short request preempts the long one at its first block
        # boundary (t=20) and the hook sees exactly that edge.
        assert hooks.of("preempt") == [("preempt", "long", "short", 20.0)]
        # Three blocks execute: long[0], short[0], long[1].
        dispatched = [e[1] for e in hooks.of("dispatch")]
        assert dispatched == ["long", "short", "long"]
        assert len(hooks.of("finish")) == 3
        assert all(not e[5] for e in hooks.of("finish"))
        # Every request reaches exactly one terminal, at its finish time.
        terminals = {(e[1], e[2]) for e in hooks.of("terminal")}
        assert terminals == {("long", "served"), ("short", "served")}
        # Admissions fire once per arrival with the arrival time.
        assert [(e[1], e[2], e[3]) for e in hooks.of("admit")] == [
            ("long", 0.0, True),
            ("short", 5.0, True),
        ]
        # Dispatch/finish pair up: same count, finish ends at block_end.
        assert len(hooks.of("dispatch")) == len(hooks.of("finish"))

    def test_retry_and_failure_edges(self):
        hooks = Recorder()
        cfg = RobustnessConfig(
            faults=FaultPlan(seed=0, fail_rate=1.0),
            retry=RetryPolicy(max_retries=2, backoff_base_ms=2.0),
        )
        result = SequentialEngine(
            FIFOScheduler(), robustness=cfg, hooks=hooks
        ).run(arrivals((0.0, "a", 10.0, None)))
        # fail_rate=1.0: initial attempt + 2 retries all fail.
        assert result.fault_fails == 3
        assert [e[0] for e in hooks.of("retry")] == ["retry", "retry"]
        # Backoff doubles: ready at finish+2 then finish+4.
        r0, r1 = hooks.of("retry")
        assert r1[2] - r0[2] > 0
        assert hooks.of("terminal") == [
            ("terminal", "a", "failed", pytest.approx(r1[2] + 10.0))
        ]
        finishes = hooks.of("finish")
        assert len(finishes) == 3 and all(e[5] for e in finishes)

    def test_hooks_are_observation_only(self):
        """The same schedule with and without hooks attached is identical."""
        bare = SequentialEngine(SplitScheduler(), keep_trace=True).run(
            arrivals(*PREEMPTIVE)
        )
        hooked = SequentialEngine(
            SplitScheduler(), keep_trace=True, hooks=Recorder()
        ).run(arrivals(*PREEMPTIVE))
        strip = lambda t: [
            (e.task_type, e.block_index, e.start_ms, e.end_ms)
            for e in t.entries
        ]
        assert strip(hooked.trace) == strip(bare.trace)

    def test_multi_hooks_carry_proc_index(self):
        seen: set[int] = set()

        class ProcRecorder(Hooks):
            def on_dispatch(self, request, now_ms, block_ms, proc_index):
                seen.add(proc_index)

        MultiProcessorEngine(
            [FIFOScheduler(), FIFOScheduler()],
            router="round_robin",
            hooks=ProcRecorder(),
        ).run(arrivals((0.0, "a", 10.0, None), (0.0, "b", 10.0, None)))
        assert seen == {0, 1}


class TestNoDeprecationSurface:
    def test_shims_are_gone(self):
        # The PR-4 forwarding wrappers served their one-release notice.
        engine = SequentialEngine(FIFOScheduler())
        assert not hasattr(engine, "_event_loop")
        assert not hasattr(engine, "_run_robust")

    def test_public_paths_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            SequentialEngine(FIFOScheduler()).run(arrivals(*PREEMPTIVE))
            SequentialEngine(
                FIFOScheduler(), robustness=RobustnessConfig()
            ).run(arrivals(*PREEMPTIVE))
