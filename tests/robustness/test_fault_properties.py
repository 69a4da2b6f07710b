"""Property-based robustness invariants (hypothesis).

Whatever rates, seeds and workloads the fault plan takes, the injector
stays a pure function of its arguments and the engine conserves requests:
every submission lands in exactly one terminal bucket and retry
bookkeeping reconciles against the faults actually issued.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.robustness import (
    FaultInjector,
    FaultKind,
    FaultPlan,
    RetryPolicy,
    RobustnessConfig,
)
from repro.runtime.engine import SequentialEngine
from repro.runtime.metrics import robustness_totals
from repro.scheduling.policies import SplitScheduler
from repro.scheduling.request import Request, TaskSpec
from repro.utils.rng import derive_seed

rates = st.floats(0.0, 0.3, allow_nan=False)


@st.composite
def fault_plans(draw):
    return FaultPlan(
        seed=draw(st.integers(0, 2**16)),
        fail_rate=draw(rates),
        stall_rate=draw(rates),
        drop_rate=draw(rates),
    )


@st.composite
def workloads(draw):
    """A list of (arrival, ext, n_blocks) triples with arrivals >= 0."""
    items = draw(
        st.lists(
            st.tuples(
                st.floats(0.0, 200.0, allow_nan=False),
                st.floats(2.0, 30.0, allow_nan=False),
                st.integers(1, 3),
            ),
            min_size=1,
            max_size=25,
        )
    )
    return items


def build_arrivals(items):
    out = []
    for i, (t, ext, n_blocks) in enumerate(items):
        blocks = tuple(ext / n_blocks for _ in range(n_blocks))
        task = TaskSpec(name=f"t{i % 4}", ext_ms=ext, blocks_ms=blocks)
        out.append((t, Request(task=task, arrival_ms=t)))
    return out


class TestInjectorProperties:
    @given(fault_plans(), st.integers(0, 2**16))
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_decision_is_pure(self, plan, probe_seed):
        a, b = FaultInjector(plan), FaultInjector(plan)
        keys = [
            ("m", float(i * 7 % 113), i % 4, i % 3) for i in range(60)
        ]
        assert [a.decide(*k) for k in keys] == [b.decide(*k) for k in keys]

    @given(fault_plans())
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_counters_equal_decisions(self, plan):
        inj = FaultInjector(plan)
        decisions = [inj.decide("m", float(i), 0, 0) for i in range(150)]
        issued = [d for d in decisions if d is not None]
        assert inj.fails_issued == sum(
            1 for d in issued if d.kind is FaultKind.FAIL
        )
        assert inj.stalls_issued == sum(
            1 for d in issued if d.kind is FaultKind.STALL
        )
        assert inj.drops_issued == sum(
            1 for d in issued if d.kind is FaultKind.DROP
        )

    @given(st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_zero_rates_never_fault(self, seed):
        inj = FaultInjector(FaultPlan(seed=seed))
        assert all(
            inj.decide("m", float(i), i % 3, 0) is None for i in range(100)
        )


#: Task names with the label separator in them, plus arbitrary encodable
#: text (surrogates cannot be UTF-8 encoded by either derivation).
task_names = st.one_of(
    st.sampled_from(["m", ":", "a:b", "yolov2::0", ":fault:"]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
)
arrival_times = st.one_of(
    st.just(0.0),
    st.floats(0.0, 1e9, allow_nan=False),
    st.floats(1e9, 1e15, allow_nan=False, exclude_min=True),
)


class TestFaultKey:
    """``decide`` inlines its hash key; the draw must stay the library's
    :func:`derive_seed` over the same label path, bit for bit."""

    @given(
        st.integers(-(2**63), 2**63),
        task_names,
        arrival_times,
        st.integers(0, 40),
        st.integers(0, 3),
    )
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_draw_equals_derive_seed(self, seed, task, arrival, block, attempt):
        expected = (
            derive_seed(seed, "fault", task, f"{arrival:.9f}", block, attempt)
            / 2**64
        )
        # decide() fails the attempt iff its draw u < fail_rate, so a FAIL
        # at nextafter(expected) and none at expected pin u == expected.
        above = min(math.nextafter(expected, math.inf), 1.0)
        hit = FaultInjector(FaultPlan(seed=seed, fail_rate=above))
        decision = hit.decide(task, arrival, block, attempt)
        assert decision is not None and decision.kind is FaultKind.FAIL
        if expected > 0.0:
            miss = FaultInjector(FaultPlan(seed=seed, fail_rate=expected))
            assert miss.decide(task, arrival, block, attempt) is None


class TestEngineConservation:
    @given(fault_plans(), workloads(), st.integers(0, 3))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_every_request_reaches_one_bucket(self, plan, items, max_retries):
        cfg = RobustnessConfig(
            faults=plan,
            retry=RetryPolicy(max_retries=max_retries, backoff_base_ms=1.0),
            timeout_rr=50.0,
        )
        res = SequentialEngine(SplitScheduler(), robustness=cfg).run(
            build_arrivals(items)
        )
        totals = robustness_totals(res)
        assert totals["submitted"] == len(items)
        # Retry reconciliation: every issued FAIL either became a retry or
        # exhausted a request's budget, and every failed request ended by
        # a DROP decision or by running out of retries. (A single request
        # may retry a FAIL and *then* get dropped, so the buckets cannot
        # be separated by inspecting `retries` alone.)
        exhausted = res.fault_fails - res.retries
        assert exhausted >= 0
        assert len(res.failed) == res.fault_drops + exhausted

    @given(fault_plans(), workloads())
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_same_plan_same_result(self, plan, items):
        cfg = RobustnessConfig(faults=plan, timeout_rr=50.0)
        res_a = SequentialEngine(SplitScheduler(), robustness=cfg).run(
            build_arrivals(items)
        )
        res_b = SequentialEngine(SplitScheduler(), robustness=cfg).run(
            build_arrivals(items)
        )
        assert robustness_totals(res_a) == robustness_totals(res_b)
        fa = sorted((r.arrival_ms, r.finish_ms) for r in res_a.completed)
        fb = sorted((r.arrival_ms, r.finish_ms) for r in res_b.completed)
        assert fa == fb
