"""Differential suite for the kernel's fault-free fast lane.

The fast lane (``EventKernel._run_fast``) batches arrival admission,
settlement and allocation; its contract is *byte-identical traces and
float-identical QoS* versus the loop it replaced. This suite pins that
against the frozen pre-kernel engine (``_legacy_engines.py``) on the
list-backed queue and on pooled chunked streams, demanding exact
equality; ``test_kernel_differential.py`` does the same for the six
Table-2 batch runs.

Also covered: lane selection (when the fast lane must disengage), the
chunked arrival source's bit-identity with the element-wise merge,
``bulk_admit`` vs per-request ``on_arrival``, ``observe_batch`` vs the
scalar sink, and request-pool recycling.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.robustness.config import RobustnessConfig
from repro.robustness.faults import FaultPlan
from repro.runtime.engine import SequentialEngine
from repro.runtime.kernel import EngineResult, EventKernel, Hooks, batch_sink
from repro.runtime.metrics import StreamingQoS
from repro.runtime.workload import (
    SCENARIOS,
    RequestChunkStream,
    Scenario,
    WorkloadGenerator,
    materialize_chunk_stream,
)
from repro.scheduling.policies import SplitScheduler
from repro.scheduling.queue import ListBackedRequestQueue
from repro.scheduling.request import Request, RequestPool
from repro.zoo.registry import EVALUATED_MODELS

from tests.runtime._legacy_engines import LegacySequentialEngine
from tests.runtime.test_kernel_differential import (
    canon_trace,
    identity,
    split_specs,
    table2_arrivals,
)


def chunk_source(n, seed=7, pool=None, chunk_size=None):
    scenario = Scenario("fastlane-stream", 120.0, "high", n_requests=n)
    gen = WorkloadGenerator(EVALUATED_MODELS, seed=seed)
    kwargs = {} if chunk_size is None else {"chunk_size": chunk_size}
    return materialize_chunk_stream(
        gen, scenario, split_specs(), pool=pool, **kwargs
    )


def assert_qos_identical(a: StreamingQoS, b: StreamingQoS) -> None:
    assert a.totals() == b.totals()
    assert np.array_equal(a.violation_counts(), b.violation_counts())
    assert np.array_equal(a.violation_curve(), b.violation_curve())
    assert a.mean_latency_ms() == b.mean_latency_ms()
    assert a.jitter_ms() == b.jitter_ms()
    assert a.mean_response_ratio() == b.mean_response_ratio()
    assert a.models() == b.models()
    for q in (50, 95, 99):
        assert a.latency_percentile(q) == b.latency_percentile(q)
    for model in a.models():
        assert a.mean_latency_ms(model) == b.mean_latency_ms(model), model
        assert a.jitter_ms(model) == b.jitter_ms(model), model
        assert a.mean_response_ratio(model) == b.mean_response_ratio(model)
        assert a.latency_percentile(99, model) == b.latency_percentile(
            99, model
        ), model


class TestBatchDifferential:
    @pytest.mark.parametrize("scenario", SCENARIOS[:2], ids=lambda s: s.name)
    def test_list_backend_identical(self, scenario):
        fast_arr = table2_arrivals(scenario)
        slow_arr = table2_arrivals(scenario)
        fast = SequentialEngine(
            SplitScheduler(), keep_trace=True, queue_cls=ListBackedRequestQueue
        ).run(fast_arr)
        slow = LegacySequentialEngine(
            SplitScheduler(), keep_trace=True, queue_cls=ListBackedRequestQueue
        ).run(slow_arr)
        assert canon_trace(fast.trace, identity(fast_arr)) == canon_trace(
            slow.trace, identity(slow_arr)
        )
        assert fast.preemptions == slow.preemptions


class TestStreamingDifferential:
    def _run(self, n, pool=None, chunk_size=None):
        qos = StreamingQoS()
        result = SequentialEngine(SplitScheduler()).run_stream(
            chunk_source(n, pool=pool, chunk_size=chunk_size), qos.observe
        )
        return qos, result

    def _legacy(self, n):
        """The frozen pre-kernel loop over the same stream, element-wise."""
        qos = StreamingQoS()
        result = LegacySequentialEngine(SplitScheduler()).run_stream(
            chunk_source(n), qos.observe
        )
        return qos, result

    def test_stream_qos_identical(self):
        n = 20_000
        qf, rf = self._run(n, pool=RequestPool())
        qs, rs = self._legacy(n)
        assert_qos_identical(qf, qs)
        assert (rf.n_completed, rf.n_dropped) == (rs.n_completed, rs.n_dropped)
        assert rf.context_switches == rs.context_switches
        assert rf.preemptions == rs.preemptions

    def test_chunk_size_invariance(self):
        qa, _ = self._run(3_000, chunk_size=13)
        qb, _ = self._run(3_000)
        assert_qos_identical(qa, qb)

    @pytest.mark.skipif(
        not os.environ.get("SPLIT_LARGE_N"),
        reason="set SPLIT_LARGE_N=1 for the million-request differential",
    )
    def test_million_request_stream_identical(self):
        n = 1_000_000
        qf, rf = self._run(n, pool=RequestPool())
        qs, rs = self._legacy(n)
        assert_qos_identical(qf, qs)
        assert rf.n_completed == rs.n_completed == n
        assert rf.context_switches == rs.context_switches
        assert rf.preemptions == rs.preemptions


class TestLaneSelection:
    def _kernel_run(self, **kwargs):
        scenario = Scenario("lane", 90.0, "low", n_requests=50)
        arrivals = sorted(table2_arrivals(scenario), key=lambda p: p[0])
        schedulers = kwargs.pop("schedulers", [SplitScheduler()])
        kernel = EventKernel(schedulers, **kwargs)
        result = EngineResult(trace=kernel.procs[0].trace)
        kernel.run(arrivals, batch_sink(result), result)
        return kernel

    def test_default_config_takes_fast_lane(self):
        assert self._kernel_run().lane_used == "fast"

    def test_noop_hooks_instance_stays_fast(self):
        assert self._kernel_run(hooks=Hooks()).lane_used == "fast"

    def test_list_backend_stays_fast(self):
        kernel = self._kernel_run(queue_cls=ListBackedRequestQueue)
        assert kernel.lane_used == "fast"

    def test_custom_hooks_take_reference(self):
        class Counting(Hooks):
            def __init__(self):
                self.dispatches = 0

            def on_dispatch(self, request, now_ms, block_ms, proc_index):
                self.dispatches += 1

        hooks = Counting()
        kernel = self._kernel_run(hooks=hooks)
        assert kernel.lane_used == "reference"
        assert hooks.dispatches > 0  # the observer actually fired

    def test_robustness_takes_reference(self):
        cfg = RobustnessConfig(faults=FaultPlan(seed=3, fail_rate=0.0))
        kernel = self._kernel_run(robustness=cfg)
        assert kernel.lane_used == "reference"

    def test_multi_processor_takes_reference(self):
        kernel = self._kernel_run(
            schedulers=[SplitScheduler(), SplitScheduler()]
        )
        assert kernel.lane_used == "reference"


class TestChunkedArrivals:
    def test_chunk_merge_bit_identical_to_element_merge(self):
        scenario = Scenario("merge", 100.0, "high", n_requests=4_000)
        gen_a = WorkloadGenerator(EVALUATED_MODELS, seed=5)
        gen_b = WorkloadGenerator(EVALUATED_MODELS, seed=5)
        element = list(gen_a.iter_arrivals(scenario))
        chunked = []
        for times, idx in gen_b.iter_arrival_chunks(scenario):
            chunked.extend(
                (t, gen_b.models[k]) for t, k in zip(times.tolist(), idx.tolist())
            )
        assert chunked == element  # same floats, same tie order

    def test_chunk_size_does_not_change_the_merge(self):
        scenario = Scenario("merge", 100.0, "high", n_requests=2_000)
        runs = []
        for chunk_size in (13, 256, 8192):
            gen = WorkloadGenerator(EVALUATED_MODELS, seed=5)
            flat = []
            for times, idx in gen.iter_arrival_chunks(scenario, chunk_size):
                flat.extend(zip(times.tolist(), idx.tolist()))
            runs.append(flat)
        assert runs[0] == runs[1] == runs[2]

    def test_invalid_chunks_raise_validated_stream_errors(self):
        spec = next(iter(split_specs().values()))

        def stream_of(arrays):
            return RequestChunkStream(
                iter(arrays), [spec], pool=None
            )

        bad_negative = stream_of(
            [(np.array([-1.0, 2.0]), np.array([0, 0]))]
        )
        with pytest.raises(SimulationError, match="negative arrival time"):
            bad_negative.next_chunk()

        bad_order = stream_of(
            [(np.array([5.0, 3.0]), np.array([0, 0]))]
        )
        with pytest.raises(SimulationError, match="not time-ordered"):
            bad_order.next_chunk()

        bad_across = stream_of(
            [
                (np.array([5.0]), np.array([0])),
                (np.array([4.0]), np.array([0])),
            ]
        )
        bad_across.next_chunk()
        with pytest.raises(SimulationError, match="not time-ordered"):
            bad_across.next_chunk()

    @pytest.mark.parametrize("at", (0, 1, 2))
    @pytest.mark.parametrize("bad", (float("nan"), float("inf")), ids=str)
    def test_non_finite_chunk_times_raise(self, bad, at):
        """NaN or inf anywhere in a chunk is refused, naming the value."""
        spec = next(iter(split_specs().values()))
        times = np.array([1.0, 2.0, 3.0])
        times[at] = bad
        stream = RequestChunkStream(
            iter([(times, np.zeros(3, dtype=np.int64))]), [spec], pool=None
        )
        with pytest.raises(
            SimulationError, match=f"non-finite arrival time {bad}"
        ):
            stream.next_chunk()


class _CountingSource:
    """A fast-lane chunk source over fixed chunks that counts
    :meth:`next_chunk` calls."""

    pool = None

    def __init__(self, chunks):
        self._chunks = iter(chunks)
        self.calls = 0

    def next_chunk(self):
        self.calls += 1
        return next(self._chunks, None)


class TestExhaustedSource:
    def test_none_is_final(self):
        """Three chunks cost exactly four ``next_chunk`` calls, however
        many blocks still finish after the last arrival."""
        scenario = Scenario("eof", 90.0, "high", n_requests=60)
        pairs = sorted(table2_arrivals(scenario), key=lambda p: p[0])
        chunks = [
            ([t for t, _ in part], [req for _, req in part])
            for part in (pairs[:20], pairs[20:40], pairs[40:])
        ]
        source = _CountingSource(chunks)
        kernel = EventKernel([SplitScheduler()])
        result = EngineResult()
        kernel.run(source, batch_sink(result), result)
        assert kernel.lane_used == "fast"
        assert len(result.completed) + len(result.dropped) == len(pairs)
        assert source.calls == 4


class TestBulkAdmit:
    def test_bulk_admit_matches_per_request_on_arrival(self):
        scenario = Scenario("bulk", 80.0, "high", n_requests=300)
        one_arr = sorted(table2_arrivals(scenario), key=lambda p: p[0])
        blk_arr = sorted(table2_arrivals(scenario), key=lambda p: p[0])
        one_ids, blk_ids = identity(one_arr), identity(blk_arr)
        sched_one, sched_blk = SplitScheduler(), SplitScheduler()
        q_one = SequentialEngine(sched_one).queue_cls()
        q_blk = SequentialEngine(sched_blk).queue_cls()
        for t, req in one_arr:
            sched_one.on_arrival(q_one, req, t)
        pairs = blk_arr
        start = 0
        for size in (1, 7, 64, 3, len(pairs)):  # uneven chunk boundaries
            chunk = [req for _, req in pairs[start : start + size]]
            if chunk:
                sched_blk.bulk_admit(q_blk, chunk)
            start += size
        assert [blk_ids[r.request_id] for r in q_blk] == [
            one_ids[r.request_id] for r in q_one
        ]
        assert sched_blk.preempt_inserts == sched_one.preempt_inserts


class TestRequestPool:
    def test_take_resets_state_and_reissues_identity(self):
        spec = next(iter(split_specs().values()))
        pool = RequestPool()
        req = pool.take(spec, 0.0)
        first_id = req.request_id
        req.begin(spec.blocks_ms, 0.0)
        req.finish_ms = 12.5
        req.preemptions = 3
        req.outcome = "served"
        pool.recycle([req])
        assert len(pool) == 1
        again = pool.take(spec, 7.0)
        assert again is req  # recycled object...
        assert again.request_id != first_id  # ...with a fresh identity
        assert again.arrival_ms == 7.0
        assert again.plan_ms is None
        assert again.next_block == 0
        assert again.first_start_ms is None
        assert again.finish_ms is None
        assert again.preemptions == 0
        assert again.retries == 0
        assert again.outcome == "pending"

    def test_pooled_stream_recycles_and_matches_unpooled(self):
        n = 5_000
        pool = RequestPool()
        q_pooled, q_fresh = StreamingQoS(), StreamingQoS()
        SequentialEngine(SplitScheduler()).run_stream(
            chunk_source(n, pool=pool), q_pooled.observe
        )
        SequentialEngine(SplitScheduler()).run_stream(
            chunk_source(n), q_fresh.observe
        )
        assert len(pool) > 0  # terminals actually came back
        assert_qos_identical(q_pooled, q_fresh)


class TestObserveBatch:
    def test_observe_batch_matches_scalar_observe(self):
        n = 4_000
        terminals: list[tuple[Request, str]] = []
        # A plain function sink has no batched variant, so the fast lane
        # calls it once per terminal; without a pool nothing is recycled,
        # so the recorded requests stay valid for replay.
        SequentialEngine(SplitScheduler()).run_stream(
            chunk_source(n), lambda req, outcome: terminals.append((req, outcome))
        )
        assert len(terminals) == n
        scalar, batched = StreamingQoS(), StreamingQoS()
        for req, outcome in terminals:
            scalar.observe(req, outcome)
        batched.observe_batch(
            [req for req, _ in terminals], [o for _, o in terminals]
        )
        assert_qos_identical(batched, scalar)

    def test_observe_batch_length_mismatch_raises(self):
        qos = StreamingQoS()
        spec = next(iter(split_specs().values()))
        req = Request(task=spec, arrival_ms=0.0)
        with pytest.raises(SimulationError, match="observe_batch"):
            qos.observe_batch([req], ["served", "served"])
