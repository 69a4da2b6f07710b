"""Differential suite for the kernel's batched fast lane.

The fast lane (``EventKernel._run_fast``) batches arrival admission,
settlement and allocation; its contract is *byte-identical traces and
float-identical QoS* versus the loop it replaced. This suite pins that
against the frozen pre-kernel engine (``_legacy_engines.py``) on the
list-backed queue and on pooled chunked streams, demanding exact
equality; ``test_kernel_differential.py`` does the same for the six
Table-2 batch runs.

Robust runs take the same lane: a Hypothesis property draws small
traces, sequential policies and robustness configs (faults, retries,
deadlines, shedding) and demands the same exact equality against the
legacy engine's robust loop, for batch runs and for pooled streams; three
fixed cases pin one admission branch each.

The routed loop's one-processor case is pinned here too: a Hypothesis
property runs the same drawn robust cases through a one-processor
``MultiProcessorEngine`` and demands exact equality with the batched
loop.

Also covered: the chunked arrival source's bit-identity with the
element-wise merge, ``bulk_admit`` vs per-request ``on_arrival``,
``observe_batch`` vs the scalar sink, and request-pool recycling.
"""

from __future__ import annotations

import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.robustness.config import RobustnessConfig
from repro.robustness.faults import FaultKind, FaultPlan, ScriptedFault
from repro.robustness.retry import RetryPolicy
from repro.robustness.shedding import LoadShedConfig
from repro.runtime.engine import SequentialEngine
from repro.runtime.kernel import EngineResult, EventKernel, batch_sink
from repro.runtime.metrics import StreamingQoS, robustness_totals
from repro.runtime.multi import MultiProcessorEngine
from repro.runtime.simulator import POLICIES, make_scheduler
from repro.runtime.workload import (
    SCENARIOS,
    RequestChunkStream,
    Scenario,
    WorkloadGenerator,
    materialize_chunk_stream,
)
from repro.scheduling.policies import ClockWorkScheduler, SplitScheduler
from repro.scheduling.queue import ListBackedRequestQueue
from repro.scheduling.request import Request, RequestPool, TaskSpec
from repro.zoo.registry import EVALUATED_MODELS

from tests.runtime import _legacy_engines
from tests.runtime._legacy_engines import LegacySequentialEngine
from tests.runtime.test_kernel_differential import (
    CHAOS,
    bucket_sig,
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


def _same(x: float, y: float) -> bool:
    """Bit-for-bit float equality where NaN (nothing served) equals NaN."""
    return x == y or (x != x and y != y)


def assert_qos_identical(a: StreamingQoS, b: StreamingQoS) -> None:
    assert a.totals() == b.totals()
    assert np.array_equal(a.violation_counts(), b.violation_counts())
    assert np.array_equal(
        a.violation_curve(), b.violation_curve(), equal_nan=True
    )
    assert _same(a.mean_latency_ms(), b.mean_latency_ms())
    assert _same(a.jitter_ms(), b.jitter_ms())
    assert _same(a.mean_response_ratio(), b.mean_response_ratio())
    assert a.models() == b.models()
    for q in (50, 95, 99):
        assert _same(a.latency_percentile(q), b.latency_percentile(q))
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


# ------------------------------------------------------------ robust runs
#: Sequential policies by name (``rta`` runs on the concurrent engine),
#: plus ClockWork with admission control so that arrivals and retries
#: can be rejected.
SEQUENTIAL = {
    **{
        name: (lambda name=name: make_scheduler(name))
        for name in POLICIES
        if name != "rta"
    },
    "clockwork-drop": lambda: ClockWorkScheduler(drop_alpha=4.0),
}

#: Block times and arrival gaps on a coarse grid, so that arrivals,
#: retries, block finishes and deadlines often tie exactly.
GRID_MS = (0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0)

_OUTCOME_BUCKETS = (
    ("completed", "served"),
    ("dropped", "rejected"),
    ("shed", "shed"),
    ("failed", "failed"),
    ("timed_out", "timed_out"),
)


class _LoggedBucket(list):
    """A result bucket that also logs each terminal in append order."""

    def __init__(self, log, outcome):
        super().__init__()
        self._log = log
        self._outcome = outcome

    def append(self, request):
        super().append(request)
        self._log.append((request, self._outcome))


def legacy_robust_run(make, cfg, arrivals):
    """The legacy robust loop over ``arrivals``, plus its terminals in
    completion order (its buckets alone lose the order across them)."""
    log = []

    def logged_result(**kwargs):
        result = EngineResult(**kwargs)
        for bucket, outcome in _OUTCOME_BUCKETS:
            setattr(result, bucket, _LoggedBucket(log, outcome))
        return result

    with mock.patch.object(_legacy_engines, "EngineResult", logged_result):
        result = LegacySequentialEngine(
            make(), keep_trace=True, robustness=cfg
        ).run(arrivals)
    return result, log


def counters(result):
    return (
        result.n_completed,
        result.n_dropped,
        result.context_switches,
        result.preemptions,
        result.retries,
        result.stalls,
        result.fault_fails,
        result.fault_drops,
    )


def trace_arrivals(times, indices, specs):
    """Fresh requests over one drawn trace (engines mutate them)."""
    return [
        (t, Request(task=specs[k], arrival_ms=t)) for t, k in zip(times, indices)
    ]


def assert_robust_runs_agree(make, cfg, times, indices, specs, chunk_size):
    """Batch run and pooled stream on the batched lane against the legacy
    robust loop, all over one trace: canonical traces, every bucket's
    signature, ``robustness_totals``, the counters and the QoS."""
    old_arr = trace_arrivals(times, indices, specs)
    new_arr = trace_arrivals(times, indices, specs)
    old, log = legacy_robust_run(make, cfg, old_arr)
    new = SequentialEngine(make(), keep_trace=True, robustness=cfg).run(
        new_arr
    )
    old_ids, new_ids = identity(old_arr), identity(new_arr)
    assert canon_trace(new.trace, new_ids) == canon_trace(old.trace, old_ids)
    for bucket, _outcome in _OUTCOME_BUCKETS:
        assert bucket_sig(getattr(new, bucket), new_ids) == bucket_sig(
            getattr(old, bucket), old_ids
        ), bucket
    assert robustness_totals(new) == robustness_totals(old)
    assert counters(new) == counters(old)

    old_qos = StreamingQoS()
    for request, outcome in log:
        old_qos.observe(request, outcome)
    t_arr, k_arr = np.asarray(times), np.asarray(indices)
    chunks = [
        (t_arr[lo : lo + chunk_size], k_arr[lo : lo + chunk_size])
        for lo in range(0, len(times), chunk_size)
    ]
    new_qos = StreamingQoS()
    streamed = SequentialEngine(make(), robustness=cfg).run_stream(
        RequestChunkStream(iter(chunks), specs, pool=RequestPool()),
        new_qos.observe,
    )
    assert_qos_identical(new_qos, old_qos)
    assert counters(streamed) == counters(old)
    return new


@st.composite
def task_tables(draw, n_models):
    """The zoo's split specs, or (three times as often) grid-valued
    synthetic ones, whose event times tie far more often."""
    if draw(st.integers(0, 3)) == 0:
        real = draw(st.permutations(list(split_specs().values())))
        return real[:n_models]
    return [
        TaskSpec(
            name=f"m{k}",
            ext_ms=draw(st.sampled_from(GRID_MS)),
            blocks_ms=tuple(
                draw(st.lists(st.sampled_from(GRID_MS), min_size=1, max_size=4))
            ),
            alpha=draw(st.sampled_from((0.5, 1.0, 2.0))),
        )
        for k in range(n_models)
    ]


@st.composite
def robust_configs(draw):
    base_ms = draw(st.sampled_from((0.0, 0.5, 1.0, 2.0, 5.0)))
    depth = draw(st.none() | st.integers(1, 40))
    backlog = draw(st.none() | st.sampled_from((5.0, 20.0, 80.0)))
    return RobustnessConfig(
        faults=FaultPlan(
            seed=draw(st.integers(0, 2**16)),
            fail_rate=draw(st.sampled_from((0.0, 0.05, 0.15, 0.3))),
            stall_rate=draw(st.sampled_from((0.0, 0.05, 0.2))),
            drop_rate=draw(st.sampled_from((0.0, 0.02, 0.1))),
            stall_factor=draw(st.sampled_from((1.5, 2.0, 3.0))),
        ),
        retry=RetryPolicy(
            max_retries=draw(st.integers(0, 3)),
            backoff_base_ms=base_ms,
            backoff_factor=draw(st.sampled_from((1.0, 2.0))),
            max_backoff_ms=max(
                base_ms, draw(st.sampled_from((1.0, 8.0, 1000.0)))
            ),
        ),
        timeout_rr=draw(st.none() | st.sampled_from((2.0, 5.0, 10.0, 40.0))),
        timeout_ms=draw(st.none() | st.sampled_from((5.0, 20.0, 100.0))),
        load_shed=(
            None
            if depth is None and backlog is None
            else LoadShedConfig(
                max_queue_depth=depth,
                max_backlog_ms=backlog,
                target_alpha=draw(st.sampled_from((2.0, 8.0))),
            )
        ),
    )


@st.composite
def robust_cases(draw):
    n_models = draw(st.integers(2, 5))
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    mean_gap = draw(st.sampled_from((0.5, 1.0, 2.0, 4.0)))
    # Gaps rounded to the half-millisecond grid: equal stamps happen.
    gaps = np.round(rng.exponential(mean_gap, n) * 2.0) / 2.0
    return (
        draw(st.sampled_from(sorted(SEQUENTIAL))),
        draw(robust_configs()),
        np.cumsum(gaps).tolist(),
        rng.integers(0, n_models, n).tolist(),
        draw(task_tables(n_models)),
        draw(st.integers(1, 64)),
    )


def table2_trace(n, lambda_ms=110.0, seed=3):
    """A Table-2-style trace as flat times, model indices and specs."""
    scenario = Scenario("fastlane-robust", lambda_ms, "high", n_requests=n)
    gen = WorkloadGenerator(EVALUATED_MODELS, seed=seed)
    times, indices = [], []
    for t_chunk, k_chunk in gen.iter_arrival_chunks(scenario):
        times.extend(t_chunk.tolist())
        indices.extend(k_chunk.tolist())
    return times, indices, [split_specs()[m] for m in gen.models]


class _CountingSplit(SplitScheduler):
    """SPLIT counting its ``bulk_admit`` calls."""

    def __init__(self):
        super().__init__()
        self.bulk_calls = 0

    def bulk_admit(self, queue, requests):
        self.bulk_calls += 1
        super().bulk_admit(queue, requests)


class TestRobustDifferential:
    @given(robust_cases())
    @settings(
        max_examples=100,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_random_robust_runs_match_legacy(self, case):
        policy, cfg, times, indices, specs, chunk_size = case
        assert_robust_runs_agree(
            SEQUENTIAL[policy], cfg, times, indices, specs, chunk_size
        )

    @pytest.mark.parametrize(
        "load_shed, sheds",
        (
            (None, False),
            (LoadShedConfig(max_queue_depth=100_000), False),
            (LoadShedConfig(max_queue_depth=6), True),
        ),
        ids=("no-shedder", "depth-cap-unreached", "depth-cap-fires"),
    )
    def test_admission_branches(self, load_shed, sheds):
        """One case per admission branch: bulk with no shedder, bulk under
        a depth cap the queue never reaches, and one arrival at a time
        with a shed check after each once the cap can fire."""
        cfg = RobustnessConfig(
            faults=CHAOS.faults,
            retry=CHAOS.retry,
            timeout_rr=CHAOS.timeout_rr,
            load_shed=load_shed,
        )
        times, indices, specs = table2_trace(1_500)
        schedulers = []

        def make():
            schedulers.append(_CountingSplit())
            return schedulers[-1]

        new = assert_robust_runs_agree(make, cfg, times, indices, specs, 256)
        assert (len(new.shed) > 0) is sheds
        assert len(new.completed) + len(new.dropped) + len(new.shed) + len(
            new.failed
        ) + len(new.timed_out) == len(times)
        # schedulers: [legacy, batch, stream]; the batch run's admissions.
        bulk_calls = schedulers[1].bulk_calls
        if sheds:
            assert bulk_calls < len(times)
        else:
            assert bulk_calls > 0

    @pytest.mark.skipif(
        not os.environ.get("SPLIT_LARGE_N"),
        reason="set SPLIT_LARGE_N=1 for the 20k robust differential",
    )
    def test_20k_robust_stream_matches_legacy(self):
        cfg = RobustnessConfig(
            faults=CHAOS.faults,
            retry=CHAOS.retry,
            timeout_rr=CHAOS.timeout_rr,
            load_shed=LoadShedConfig(max_queue_depth=64),
        )
        times, indices, specs = table2_trace(20_000, seed=0)
        new = assert_robust_runs_agree(
            SplitScheduler, cfg, times, indices, specs, 4096
        )
        assert new.retries > 0 and len(new.timed_out) > 0


class TestRoutedDifferential:
    @given(robust_cases())
    @settings(
        max_examples=100,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_one_routed_processor_matches_batched_loop(self, case):
        """The routed loop behind a one-processor router against the
        batched loop, exactly: canonical traces, every bucket's
        signature, ``robustness_totals`` and the counters."""
        policy, cfg, times, indices, specs, _chunk_size = case
        make = SEQUENTIAL[policy]
        seq_arr = trace_arrivals(times, indices, specs)
        multi_arr = trace_arrivals(times, indices, specs)
        seq = SequentialEngine(make(), keep_trace=True, robustness=cfg).run(
            seq_arr
        )
        multi = MultiProcessorEngine(
            [make()], router="round_robin", keep_trace=True, robustness=cfg
        ).run(multi_arr)
        routed = multi.engine_result
        seq_ids, multi_ids = identity(seq_arr), identity(multi_arr)
        assert canon_trace(multi.traces[0], multi_ids) == canon_trace(
            seq.trace, seq_ids
        )
        for bucket, _outcome in _OUTCOME_BUCKETS:
            assert bucket_sig(getattr(routed, bucket), multi_ids) == bucket_sig(
                getattr(seq, bucket), seq_ids
            ), bucket
        assert robustness_totals(routed) == robustness_totals(seq)
        assert counters(routed) == counters(seq)


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

    def test_last_executed_request_is_not_recycled(self):
        """A chunk's last arrival dropped at its grant leaves the idle
        processor's last executed request served and flushed as the
        4,096th terminal; the next chunk must not get that object back,
        or its first grant would not count as a context switch."""
        specs = [
            TaskSpec(name="a", ext_ms=1.0, blocks_ms=(1.0,)),
            TaskSpec(name="b", ext_ms=1.0, blocks_ms=(1.0,)),
        ]
        cfg = RobustnessConfig(
            faults=FaultPlan(
                scripted=(ScriptedFault(FaultKind.DROP, task_type="b"),)
            )
        )
        first = np.arange(4_097, dtype=float) * 10.0
        first_idx = np.zeros(first.size, dtype=np.int64)
        first_idx[-1] = 1  # the dropped "b"
        second = first[-1] + 10.0 * np.arange(1, 4)
        second_idx = np.zeros(second.size, dtype=np.int64)

        def run(pool):
            source = RequestChunkStream(
                iter([(first, first_idx), (second, second_idx)]), specs, pool
            )
            return SequentialEngine(
                SplitScheduler(), robustness=cfg
            ).run_stream(source, StreamingQoS().observe)

        fresh, pooled = run(None), run(RequestPool())
        assert fresh.fault_drops == pooled.fault_drops == 1
        assert pooled.context_switches == fresh.context_switches


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

    def test_robust_stream_settles_through_observe_batch(self):
        calls = {"observe": 0, "observe_batch": 0}

        class Counting(StreamingQoS):
            def observe(self, request, outcome):
                calls["observe"] += 1
                super().observe(request, outcome)

            def observe_batch(self, requests, outcomes):
                calls["observe_batch"] += 1
                super().observe_batch(requests, outcomes)

        qos = Counting()
        cfg = RobustnessConfig(
            faults=CHAOS.faults,
            retry=CHAOS.retry,
            timeout_rr=CHAOS.timeout_rr,
            load_shed=LoadShedConfig(max_queue_depth=8),
        )
        SequentialEngine(SplitScheduler(), robustness=cfg).run_stream(
            chunk_source(3_000, pool=RequestPool()), qos.observe
        )
        totals = qos.totals()
        assert totals["submitted"] == 3_000
        assert totals["shed"] > 0 and totals["retries"] > 0
        assert calls["observe"] == 0
        assert calls["observe_batch"] > 0

    def test_observe_batch_length_mismatch_raises(self):
        qos = StreamingQoS()
        spec = next(iter(split_specs().values()))
        req = Request(task=spec, arrival_ms=0.0)
        with pytest.raises(SimulationError, match="observe_batch"):
            qos.observe_batch([req], ["served", "served"])
