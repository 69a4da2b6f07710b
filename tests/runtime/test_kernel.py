"""EventKernel unit surface: validators, engine shapes, retired shims.

The differential suite (``test_kernel_differential.py``) pins *what* the
kernel computes; this file pins the kernel's own API contract — the
shared arrival validators and their canonical messages (one format for
every entry point), the shapes a kernel accepts with and without a
router, router range errors, and the absence of the deprecation shims
once left on :class:`SequentialEngine`.
"""

from __future__ import annotations

import warnings

import pytest

from repro.errors import SimulationError
from repro.hardware import NodeProfile
from repro.hardware.presets import jetson_nano
from repro.robustness.config import RobustnessConfig
from repro.runtime.engine import SequentialEngine
from repro.runtime.kernel import (
    EventKernel,
    validate_batch_arrivals,
    validated_stream,
)
from repro.runtime.multi import MultiProcessorEngine, round_robin
from repro.scheduling.policies import FIFOScheduler
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

    def test_routerless_kernel_has_one_plain_processor(self):
        """Without a router the kernel runs its one-processor loop, so it
        refuses a second scheduler and any node profile up front instead
        of serving everything on processor 0 or ignoring the profile."""
        with pytest.raises(SimulationError, match="2 processors need a router"):
            EventKernel([FIFOScheduler(), FIFOScheduler()])
        profile = NodeProfile(name="n", device=jetson_nano())
        with pytest.raises(SimulationError, match="node profiles need a router"):
            EventKernel([FIFOScheduler()], profiles=[profile])
        # The same shapes are fine behind a router.
        EventKernel([FIFOScheduler(), FIFOScheduler()], router=round_robin)
        EventKernel([FIFOScheduler()], router=round_robin, profiles=[profile])

    @pytest.mark.parametrize("target", [-1, 2])
    def test_router_range_checked(self, target):
        engine = MultiProcessorEngine(
            [FIFOScheduler(), FIFOScheduler()], router=lambda ps, r: target
        )
        with pytest.raises(
            SimulationError, match=f"router returned invalid processor {target}"
        ):
            engine.run(arrivals((0.0, "a", 10.0, None)))


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
