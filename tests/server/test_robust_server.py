"""SplitServer under a RobustnessConfig: typed outcomes, never a hang.

Scripted faults make the threaded path deterministic enough to assert
exact outcomes; the stochastic chaos smoke at the end only asserts the
robustness contract (every handle resolves, totals reconcile).
"""

import pytest

from repro.errors import RequestFailed, RequestTimeout, ServerError
from repro.robustness import (
    FaultKind,
    FaultPlan,
    LoadShedConfig,
    RetryPolicy,
    RobustnessConfig,
    ScriptedFault,
)
from repro.scheduling.request import Request
from repro.server.server import SplitServer
from repro.server.token import TokenAssigner
from repro.zoo.registry import get_model


def make_server(robustness, time_scale=1e-5, models=("yolov2",)):
    srv = SplitServer(time_scale=time_scale, robustness=robustness)
    for m in models:
        srv.deploy(get_model(m))
    return srv


def test_inert_config_serves_normally():
    srv = make_server(RobustnessConfig())
    with srv:
        result = srv.submit("yolov2").result(timeout_s=5.0)
    assert result.model == "yolov2"
    assert result.retries == 0
    stats = srv.stats()
    assert stats["shed"] == stats["failed"] == stats["timed_out"] == 0


def test_scripted_fail_retried_then_served():
    cfg = RobustnessConfig(
        faults=FaultPlan(scripted=(ScriptedFault(FaultKind.FAIL, attempt=0),)),
        retry=RetryPolicy(max_retries=2, backoff_base_ms=1.0),
    )
    srv = make_server(cfg)
    with srv:
        result = srv.submit("yolov2").result(timeout_s=5.0)
    assert result.retries == 1
    assert srv.tokens.retries == 1
    assert srv.stats()["failed"] == 0


def test_retries_exhausted_raises_request_failed():
    cfg = RobustnessConfig(
        faults=FaultPlan(scripted=(ScriptedFault(FaultKind.FAIL),)),
        retry=RetryPolicy(max_retries=1, backoff_base_ms=1.0),
    )
    srv = make_server(cfg)
    with srv:
        handle = srv.submit("yolov2")
        with pytest.raises(RequestFailed, match="after 2 retries"):
            handle.result(timeout_s=5.0)
    assert handle.outcome == "failed"
    assert srv.stats()["failed"] == 1


def test_scripted_drop_raises_request_failed():
    cfg = RobustnessConfig(
        faults=FaultPlan(scripted=(ScriptedFault(FaultKind.DROP),))
    )
    srv = make_server(cfg)
    with srv:
        handle = srv.submit("yolov2")
        with pytest.raises(RequestFailed):
            handle.result(timeout_s=5.0)
    assert handle.outcome == "failed"


def test_deadline_raises_request_timeout():
    cfg = RobustnessConfig(timeout_ms=2.0)  # yolov2 needs ~10.8 ms
    srv = make_server(cfg)
    with srv:
        handle = srv.submit("yolov2")
        with pytest.raises(RequestTimeout, match="deadline"):
            handle.result(timeout_s=5.0)
    assert handle.outcome == "timed_out"
    assert srv.stats()["timed_out"] == 1


def test_request_timeout_is_a_timeout_error():
    """RequestTimeout must satisfy except TimeoutError handlers."""
    cfg = RobustnessConfig(timeout_ms=2.0)
    srv = make_server(cfg)
    with srv:
        handle = srv.submit("yolov2")
        with pytest.raises(TimeoutError):
            handle.result(timeout_s=5.0)


def test_load_shed_burst():
    cfg = RobustnessConfig(load_shed=LoadShedConfig(max_queue_depth=2))
    srv = make_server(cfg)
    with srv:
        handles = [srv.submit("yolov2") for _ in range(12)]
        srv.drain(timeout_s=30.0)
    outcomes = [h.outcome for h in handles]
    assert outcomes.count("shed") > 0
    assert outcomes.count("served") > 0
    assert all(o in ("served", "shed") for o in outcomes)
    for h in handles:
        if h.outcome == "shed":
            assert h.dropped
            with pytest.raises(ServerError, match="dropped"):
                h.result(timeout_s=1.0)
    assert srv.stats()["shed"] == outcomes.count("shed")


def test_chaos_smoke_every_handle_resolves():
    """Stochastic faults: nothing hangs, every submission is accounted."""
    cfg = RobustnessConfig(
        faults=FaultPlan(seed=4, fail_rate=0.10, stall_rate=0.05),
        retry=RetryPolicy(max_retries=2, backoff_base_ms=1.0),
        timeout_rr=60.0,
        load_shed=LoadShedConfig(max_queue_depth=16),
    )
    srv = make_server(cfg, models=("yolov2", "vgg19"))
    n = 25
    with srv:
        handles = [srv.submit("yolov2") for _ in range(n - 5)]
        handles += [srv.submit("vgg19") for _ in range(5)]
        srv.drain(timeout_s=60.0)
    outcomes = [h.outcome for h in handles]
    assert all(o != "pending" for o in outcomes)
    stats = srv.stats()
    assert (
        stats["completed"]
        + stats["rejected"]
        + stats["shed"]
        + stats["failed"]
        + stats["timed_out"]
        == n
    )
    assert stats["parked"] == 0


def test_stats_exposes_robustness_counters():
    srv = make_server(RobustnessConfig())
    with srv:
        srv.submit("yolov2").result(timeout_s=5.0)
    stats = srv.stats()
    for key in ("shed", "failed", "timed_out", "retries", "stalls", "parked"):
        assert key in stats


class _FrozenClock:
    """A clock that reads a set time and never sleeps."""

    def __init__(self, now_ms: float, scale: float) -> None:
        self.now = now_ms
        self.scale = scale

    def now_ms(self) -> float:
        return self.now

    def sleep_ms(self, duration_ms: float) -> None:
        self.now += duration_ms


def test_idle_assigner_waits_for_a_parked_retry_not_its_poll():
    """After a failed first block with a 10 ms backoff, the queue is empty
    and the retry is parked: the assigner's next wait must end by the
    retry's ready time (10 ms at the clock's scale), not after its 50 ms
    wall-clock poll, which at scale 1e-5 is 5,000 simulated ms. Driven
    on this thread with a frozen clock, so no thread timing decides it."""
    cfg = RobustnessConfig(
        faults=FaultPlan(scripted=(ScriptedFault(FaultKind.FAIL, attempt=0),)),
        retry=RetryPolicy(max_retries=1, backoff_base_ms=10.0),
    )
    srv = make_server(cfg)
    tokens = srv.tokens
    clock = _FrozenClock(now_ms=100.0, scale=1e-5)
    request = Request(task=srv.specs["yolov2"], arrival_ms=clock.now_ms())
    tokens.submit_batch([request], clock.now_ms())
    grant = tokens.acquire_token(clock.now_ms(), timeout_s=0.0)
    assert grant is not None and grant.fail
    clock.sleep_ms(grant.block_ms)
    tokens.report_failure(request, clock.now_ms())
    assert tokens.parked() == 1

    waits = []
    assigner = TokenAssigner(tokens, clock, on_complete=lambda req, t: None)

    def acquire_once(now_ms, timeout_s):
        waits.append(timeout_s)
        assigner._stop.set()
        return None

    tokens.acquire_token = acquire_once
    assigner._run()
    assert waits == [pytest.approx(10.0 * clock.scale)]
