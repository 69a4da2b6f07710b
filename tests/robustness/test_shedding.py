"""Unit tests for overload load shedding (repro.robustness.shedding)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.robustness import LoadShedConfig, LoadShedder
from repro.scheduling.queue import RequestQueue
from repro.scheduling.request import Request, TaskSpec


def make_queue(*items):
    """items: (name, ext_ms, arrival_ms)."""
    q = RequestQueue()
    reqs = []
    for name, ext, arrival in items:
        r = Request(
            task=TaskSpec(name=name, ext_ms=ext, blocks_ms=(ext,)),
            arrival_ms=arrival,
        )
        q.append(r)
        reqs.append(r)
    return q, reqs


class TestLoadShedConfig:
    def test_needs_at_least_one_trigger(self):
        with pytest.raises(SimulationError, match="max_queue_depth or"):
            LoadShedConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_queue_depth": 0},
            {"max_backlog_ms": 0.0},
            {"max_backlog_ms": -5.0},
            {"max_queue_depth": 4, "target_alpha": 0.0},
        ],
    )
    def test_invalid_values(self, kwargs):
        with pytest.raises(SimulationError):
            LoadShedConfig(**kwargs)


class TestVictimSelection:
    def test_within_limits_sheds_nothing(self):
        q, _ = make_queue(("a", 10.0, 0.0), ("b", 10.0, 0.0))
        shedder = LoadShedder(LoadShedConfig(max_queue_depth=2))
        assert shedder.select_victims(q, now_ms=0.0) == []
        assert shedder.shed_count == 0

    def test_sheds_down_to_depth_limit(self):
        q, _ = make_queue(*((f"r{i}", 10.0, 0.0) for i in range(5)))
        shedder = LoadShedder(LoadShedConfig(max_queue_depth=2))
        victims = shedder.select_victims(q, now_ms=0.0)
        assert len(victims) == 3
        assert shedder.shed_count == 3

    def test_lowest_headroom_shed_first(self):
        # Same ext everywhere; the request that has waited longest has the
        # least headroom and must be the first victim.
        q, reqs = make_queue(
            ("fresh", 10.0, 90.0), ("stale", 10.0, 0.0), ("mid", 10.0, 50.0)
        )
        shedder = LoadShedder(LoadShedConfig(max_queue_depth=1))
        victims = shedder.select_victims(q, now_ms=100.0)
        assert [v.task_type for v in victims] == ["stale", "mid"]

    def test_running_request_excluded(self):
        q, reqs = make_queue(("run", 10.0, 0.0), ("wait", 10.0, 50.0))
        shedder = LoadShedder(LoadShedConfig(max_queue_depth=1))
        victims = shedder.select_victims(q, now_ms=100.0, exclude=reqs[0])
        # "run" has less headroom but is mid-block; "wait" goes instead.
        assert victims == [reqs[1]]

    def test_backlog_trigger(self):
        q, _ = make_queue(("a", 40.0, 0.0), ("b", 40.0, 0.0), ("c", 40.0, 0.0))
        shedder = LoadShedder(LoadShedConfig(max_backlog_ms=100.0))
        victims = shedder.select_victims(q, now_ms=0.0)
        assert len(victims) == 1  # 120 ms backlog -> drop one -> 80 ms

    def test_headroom_sign(self):
        q, reqs = make_queue(("a", 10.0, 0.0))
        shedder = LoadShedder(
            LoadShedConfig(max_queue_depth=1, target_alpha=4.0)
        )
        # Predicted time = waited 100 + ext 10 = 110 >> 4x target of 10.
        assert shedder.headroom(reqs[0], q, now_ms=100.0) < 0
        # Fresh arrival: predicted 10 == ext, well under 4x.
        assert shedder.headroom(reqs[0], q, now_ms=0.0) > 0


def _select_victims_quadratic(shedder, queue, now_ms, exclude=None):
    """Frozen copy of the pre-optimisation O(n^2) victim selection:
    per-candidate :meth:`LoadShedder.headroom` probes, each with a linear
    position scan. The regression oracle for the single-pass rewrite."""
    cfg = shedder.config
    candidates = sorted(
        (r for r in queue if r is not exclude),
        key=lambda r: shedder.headroom(r, queue, now_ms),
    )
    victims = []
    depth = len(queue)
    backlog = queue.total_backlog_ms() if cfg.max_backlog_ms is not None else 0.0
    for req in candidates:
        over_depth = (
            cfg.max_queue_depth is not None and depth > cfg.max_queue_depth
        )
        over_backlog = (
            cfg.max_backlog_ms is not None and backlog > cfg.max_backlog_ms
        )
        if not over_depth and not over_backlog:
            break
        victims.append(req)
        depth -= 1
        backlog -= req.ext_left_ms
    return victims


class TestSinglePassRegression:
    """The one-pass prefix-sum rewrite must reproduce the old quadratic
    path bit for bit: identical headrooms, identical victim order."""

    def _random_queue(self, rng, n):
        items = []
        for i in range(n):
            ext = float(rng.uniform(0.5, 60.0))
            arrival = float(rng.uniform(0.0, 500.0))
            items.append((f"r{i}", ext, arrival))
        return make_queue(*items)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_victim_order_bit_identical(self, seed):
        import random

        rng = random.Random(seed)
        q, reqs = self._random_queue(rng, 64)
        shedder_new = LoadShedder(
            LoadShedConfig(max_queue_depth=8, max_backlog_ms=200.0)
        )
        shedder_old = LoadShedder(
            LoadShedConfig(max_queue_depth=8, max_backlog_ms=200.0)
        )
        exclude = reqs[rng.randrange(len(reqs))]
        now = 600.0
        new = shedder_new.select_victims(q, now_ms=now, exclude=exclude)
        old = _select_victims_quadratic(shedder_old, q, now_ms=now, exclude=exclude)
        assert [id(r) for r in new] == [id(r) for r in old]

    def test_headrooms_bit_identical(self):
        import random

        rng = random.Random(99)
        q, reqs = self._random_queue(rng, 40)
        shedder = LoadShedder(LoadShedConfig(max_queue_depth=1))
        # Shed (almost) everything so the full sorted order is compared,
        # ties and all.
        new = shedder.select_victims(q, now_ms=1000.0)
        old = _select_victims_quadratic(
            LoadShedder(LoadShedConfig(max_queue_depth=1)), q, now_ms=1000.0
        )
        assert [id(r) for r in new] == [id(r) for r in old]
        # And the probe API still matches the values the fast path ranks
        # by, position scan included.
        for pos, req in enumerate(q):
            ahead = q.waiting_ahead_ms(pos)
            predicted = req.waited_ms(1000.0) + ahead + req.ext_left_ms
            expected = (
                shedder.config.target_alpha * req.task.target_ms - predicted
            ) / req.task.target_ms
            assert shedder.headroom(req, q, 1000.0) == expected


@st.composite
def shed_cases(draw):
    """A queue of 0-80 requests, a trigger config sitting on, just under
    or just over its limits, an ``exclude`` and a probe time."""
    items = draw(
        st.lists(
            st.tuples(
                st.floats(0.5, 60.0, allow_nan=False),
                st.floats(0.0, 500.0, allow_nan=False),
            ),
            max_size=80,
        )
    )
    q, reqs = make_queue(*((f"r{i}", ext, t) for i, (ext, t) in enumerate(items)))
    n = len(reqs)
    kind = draw(st.sampled_from(["depth", "backlog", "both"]))
    depth_limit = backlog_limit = None
    if kind in ("depth", "both"):
        # n - 1 / n / n + 1 straddle the strict ``depth > limit`` trigger.
        near = st.sampled_from([n - 1, n, n + 1])
        depth_limit = max(1, draw(st.one_of(near, st.integers(1, 90))))
    if kind in ("backlog", "both"):
        total = q.total_backlog_ms()
        mode = draw(
            st.sampled_from(["equal", "ulp_over", "below", "above", "free"])
        )
        if mode == "equal" and total > 0.0:
            backlog_limit = total  # exactly at the limit: not over it
        elif mode == "ulp_over" and total > 0.0:
            backlog_limit = math.nextafter(total, 0.0)  # over by one ulp
        elif mode == "below" and total > 0.0:
            backlog_limit = total * draw(st.floats(0.05, 0.999))
        elif mode == "above":
            backlog_limit = total + draw(st.floats(0.001, 100.0))
        else:
            backlog_limit = draw(st.floats(1.0, 3000.0))
    exclude = draw(st.one_of(st.none(), st.sampled_from(reqs))) if reqs else None
    now = draw(st.floats(0.0, 1000.0, allow_nan=False))
    config = LoadShedConfig(
        max_queue_depth=depth_limit, max_backlog_ms=backlog_limit
    )
    return q, config, exclude, now


class TestTriggerGate:
    """Checking the trigger before scoring must not change which requests
    are shed, their order, or the shed counter."""

    @given(shed_cases(), st.integers(0, 5))
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_gated_matches_oracle(self, case, prior_sheds):
        q, config, exclude, now = case
        shedder = LoadShedder(config)
        shedder.shed_count = prior_sheds
        new = shedder.select_victims(q, now_ms=now, exclude=exclude)
        old = _select_victims_quadratic(
            LoadShedder(config), q, now_ms=now, exclude=exclude
        )
        assert [id(r) for r in new] == [id(r) for r in old]
        assert shedder.shed_count - prior_sheds == len(old)
