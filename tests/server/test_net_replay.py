"""The sync replay helper's exit cost.

``asyncio.run`` on CPython 3.11/3.12 formats its finished main task
twice on the way out, and the task's repr includes its result: the
:class:`ReplayReport`. The report's ``repr`` leaves ``results`` out, so
ending a replay costs the same whatever its length. A spy on
``WireResult.__repr__`` pins that no result is formatted.
"""

import asyncio
import threading

import pytest

from repro.runtime.workload import Scenario, WorkloadGenerator
from repro.server.client import ReplayReport, WireResult, replay_items
from repro.server.net import NetServer

MODEL = "mobilenetv2"
N = 50


@pytest.fixture
def lockstep_port():
    """A lockstep server on its own loop thread, so ``replay_items`` can
    run ``asyncio.run`` on the main thread."""
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()

    def call(coro):
        return asyncio.run_coroutine_threadsafe(coro, loop).result(30)

    server = call(NetServer(models=(MODEL,), mode="lockstep").start())
    try:
        yield server.port
    finally:
        call(server.stop())
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=5)
        loop.close()


@pytest.mark.net
def test_replay_exit_formats_no_result(lockstep_port, monkeypatch):
    scenario = Scenario("replay-exit", 50.0, "low", n_requests=N)
    items = WorkloadGenerator((MODEL,), seed=4).generate(scenario)
    calls = []
    original = WireResult.__repr__

    def spy(self):
        calls.append(self.id)
        return original(self)

    monkeypatch.setattr(WireResult, "__repr__", spy)
    assert threading.current_thread() is threading.main_thread()
    report = replay_items("127.0.0.1", lockstep_port, items, mode="lockstep")
    assert report.conserved and report.sent == N
    assert calls == []


def test_report_repr_omits_results():
    result = WireResult(
        id=1, outcome="served", ok=True, model=MODEL, arrival_ms=0.0
    )
    report = ReplayReport(results=[result], sent=1, wall_s=0.5)
    assert repr(report) == "ReplayReport(sent=1, wall_s=0.5)"
    assert report == ReplayReport(results=[result], sent=1, wall_s=0.5)
