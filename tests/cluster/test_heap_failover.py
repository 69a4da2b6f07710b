"""The failover re-deal searches the class heaps, not the whole fleet.

Each orphan of a down node goes to the node with the least assigned
work plus local ext among the nodes still up when the re-shipped
request lands, ties to the lower node index. ``_least_projection``
finds that node in one class heap; these tests pin its tie rule and
what it sets aside, and bound how many ``NodeTimeline.is_up`` calls a
chaos deal makes per re-routed request.
"""

import heapq

from repro.cluster import DEFAULT_INVENTORY
from repro.cluster.fleet import _least_projection
from repro.robustness.node_faults import NodeTimeline

from tests.cluster.test_shard_differential import chaos_fleet


#: Node 2 is down from t = 10 ms on; every other node is always up.
DOWN_AFTER_10 = NodeTimeline(segments=((0.0, 10.0, 1.0),))
FAULTY = [DOWN_AFTER_10 if j == 2 else None for j in range(10)]


def class_heap(entries):
    heap = list(entries)
    heapq.heapify(heap)
    return heap


def pick(entries, ext, dying=-1, at=0.0, faulty=FAULTY):
    """``_least_projection`` on a fresh heap, with what it set aside and
    what a scan of every usable node picks."""
    heap, aside = class_heap(entries), []
    got = _least_projection(heap, ext, dying, at, faulty, aside)
    usable = [
        (load + ext, j)
        for load, j in entries
        if j != dying and (faulty[j] is None or faulty[j].is_up(at))
    ]
    assert sorted(heap + aside) == sorted(entries)  # nothing lost
    return got, min(usable) if usable else None, heap, aside


class TestLeastProjection:
    def test_rounding_tie_goes_to_the_lower_index(self):
        # 1.0 + 2.0 and 1.0000000000000002 + 2.0 both round to 3.0, so
        # node 3 ties node 5 despite its higher load, and wins on index.
        assert 1.0000000000000002 + 2.0 == 3.0
        entries = [(1.0, 5), (1.0000000000000002, 3), (4.0, 7)]
        got, scan, _heap, aside = pick(entries, 2.0)
        assert got == scan == (3.0, 3)
        assert sorted(aside) == [(1.0, 5), (1.0000000000000002, 3)]

    def test_tie_skips_a_down_lower_index(self):
        entries = [(1.0, 5), (1.0000000000000002, 2), (1.0, 9)]
        got, scan, _heap, _aside = pick(entries, 2.0, at=20.0)
        assert got == scan == (3.0, 5)
        # Before node 2 fails, it takes the tie.
        assert pick(entries, 2.0, at=5.0)[0] == (3.0, 2)

    def test_down_head_is_set_aside(self):
        entries = [(0.5, 2), (1.0, 4), (2.0, 1)]
        got, scan, heap, aside = pick(entries, 1.0, at=10.0)
        assert got == scan == (2.0, 4)
        assert aside == [(0.5, 2)]
        # Without a tie the candidate stays at the head for heapreplace.
        assert heap[0] == (1.0, 4)
        # Half-open up-segments: still up just before the failure.
        assert pick(entries, 1.0, at=9.999)[0] == (1.5, 2)

    def test_dying_node_is_skipped(self):
        entries = [(0.0, 0), (0.0, 2), (0.25, 8)]
        got, scan, _heap, aside = pick(entries, 1.0, dying=0, at=15.0)
        assert got == scan == (1.25, 8)
        assert sorted(aside) == [(0.0, 0), (0.0, 2)]

    def test_no_usable_node(self):
        entries = [(0.0, 0), (1.0, 2)]
        got, scan, heap, aside = pick(entries, 1.0, dying=0, at=10.0)
        assert got is scan is None
        assert heap == [] and sorted(aside) == entries


def test_failover_searches_heaps_not_the_fleet(monkeypatch):
    """A scan of every node makes about a hundred ``is_up`` calls per
    re-routed request on the default inventory; the heap search passes
    over at most the fleet's unhealthy nodes, the dying one and one
    tied entry per eligible class."""
    orch, scenario = chaos_fleet(DEFAULT_INVENTORY, 0, 80_000, "kill")
    timelines = orch._fault_timelines(scenario)
    unhealthy = sum(not tl.healthy for tl in timelines)
    calls = 0
    is_up = NodeTimeline.is_up

    def counting(self, t_ms):
        nonlocal calls
        calls += 1
        return is_up(self, t_ms)

    monkeypatch.setattr(NodeTimeline, "is_up", counting)
    plan = orch.shard(scenario)
    assert plan.re_routed > 0
    bound = len(orch.inventory) * (unhealthy + 2)
    assert calls / plan.re_routed <= bound
