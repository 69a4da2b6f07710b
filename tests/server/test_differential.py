"""Differential test: the threaded SplitServer against the discrete-event
simulator on the same trace.

The server's arrival times come from a scaled wall clock, so they can
never be bit-equal to a simulated schedule. The trace is therefore shaped
to be timing-robust: one long vgg19 request is submitted first and the
rest of the burst arrives while its first block (~36 sim-ms) holds the
processor, so every scheduling decision happens at a block boundary with
wide margins. Both systems must then agree on the *observable* outcomes:
which requests were served, the completion order of task types, and the
per-request block plans.
"""

import time

import pytest

from repro.runtime.simulator import simulate_items
from repro.runtime.workload import WorkloadItem
from repro.server.server import SplitServer
from repro.zoo.registry import get_model

TIME_SCALE = 1e-4  # 1 sim-ms = 0.1 ms wall: coarse enough to beat jitter
BURST = ["yolov2", "yolov2", "yolov2", "vgg19"]


@pytest.fixture(scope="module")
def live_run():
    srv = SplitServer(time_scale=TIME_SCALE)
    srv.deploy(get_model("yolov2"))
    srv.deploy(get_model("vgg19"))
    with srv:
        first = ("vgg19", srv.submit("vgg19"))
        # Let the long request take the processor; its first block spans
        # ~3.6 ms of wall time, so a 1 ms nap lands the burst inside it.
        time.sleep(10 * TIME_SCALE)
        handles = [first] + [(m, srv.submit(m)) for m in BURST]
        srv.drain(timeout_s=60.0)
    return srv, handles


@pytest.fixture(scope="module")
def sim_run():
    items = [WorkloadItem(0.0, "vgg19")] + [
        WorkloadItem(10.0 + 0.5 * i, m) for i, m in enumerate(BURST)
    ]
    return simulate_items("split", items, keep_trace=True)


def test_all_served_in_both(live_run, sim_run):
    _, handles = live_run
    assert all(h.outcome == "served" for _, h in handles)
    assert len(sim_run.engine_result.completed) == len(handles)
    assert sim_run.report.n_dropped == 0


def test_completion_type_order_agrees(live_run, sim_run):
    srv, handles = live_run
    live_results = [h.result(1.0) for _, h in handles]
    live_order = [
        r.model for r in sorted(live_results, key=lambda r: r.finish_ms)
    ]
    sim_order = [
        r.task_type
        for r in sorted(
            sim_run.engine_result.completed, key=lambda r: r.finish_ms
        )
    ]
    assert live_order == sim_order
    # The shorts burst-preempts the long request at its block boundary in
    # both systems: every yolov2 finishes before any vgg19.
    assert live_order[:3] == ["yolov2"] * 3


def test_per_request_block_plans_agree(live_run, sim_run):
    srv, handles = live_run
    live_plans = {}
    for model, handle in handles:
        live_plans.setdefault(model, []).append(len(handle._request.plan_ms))
    sim_plans = {}
    for r in sim_run.engine_result.completed:
        sim_plans.setdefault(r.task_type, []).append(len(r.plan_ms))
    assert {k: sorted(v) for k, v in live_plans.items()} == {
        k: sorted(v) for k, v in sim_plans.items()
    }


def test_total_blocks_executed_agree(live_run, sim_run):
    srv, _ = live_run
    assert srv.assigner.blocks_executed == len(sim_run.engine_result.trace)


def test_preemption_counts_agree(live_run, sim_run):
    """Both systems preempt the long request the same number of times:
    switching away from it at block boundaries is the paper's mechanism
    and must survive the threaded implementation."""
    srv, handles = live_run
    live_by_req = sorted(
        (r.model, r.preemptions) for r in (h.result(1.0) for _, h in handles)
    )
    sim_by_req = sorted(
        (r.task_type, r.preemptions)
        for r in sim_run.engine_result.completed
    )
    assert live_by_req == sim_by_req
