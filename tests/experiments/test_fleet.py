"""Fleet experiment: ladder mechanics and the large-N gate.

Small cells run everywhere; the headline cell — a million requests over
the 100-node mixed inventory — is opt-in via ``SPLIT_LARGE_N=1`` (CI
runs it in a dedicated step so tier-1 stays fast locally).
"""

from __future__ import annotations

import os

import pytest

from repro.cluster import DEFAULT_INVENTORY, parse_inventory
from repro.experiments import fleet
from repro.experiments.config import ExperimentContext


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext()


class TestSmallCells:
    def test_ladder_runs_and_renders(self, ctx):
        result = fleet.run(
            ctx, sizes=(500, 1500), inventory="jetson-nano:2,desktop-gpu:1"
        )
        assert [r.n_requests for r in result.rows] == [500, 1500]
        for row in result.rows:
            assert row.n_nodes == 3
            assert row.wall_s > 0
            assert row.served <= row.n_requests
            assert 0.0 <= row.violation_at_8 <= 1.0
            assert row.max_node_load >= row.min_node_load > 0
        text = fleet.render(result)
        assert "req/s" in text and "1500" in text

    def test_row_lookup(self, ctx):
        result = fleet.run(ctx, sizes=(300,), inventory="jetson-nano:2")
        assert result.row(300).n_requests == 300
        with pytest.raises(KeyError):
            result.row(301)

    def test_load_derived_from_inventory(self, ctx):
        """Adding capacity at fixed rho must raise the offered rate
        (smaller per-model interarrival mean)."""
        small = fleet.run_cell(200, ctx=ctx, inventory="jetson-nano:2")
        large = fleet.run_cell(
            200, ctx=ctx, inventory="jetson-nano:2,desktop-gpu:2"
        )
        assert large.lambda_ms < small.lambda_ms

    def test_registered_as_explicit_cli_run(self):
        from repro.experiments import EXPERIMENT_IDS
        from repro.experiments.runner import OPT_IN_IDS

        assert "fleet" in OPT_IN_IDS
        assert "fleet" not in EXPERIMENT_IDS  # not part of "all"


@pytest.mark.skipif(
    not os.environ.get("SPLIT_LARGE_N"),
    reason="large-N smoke is opt-in: set SPLIT_LARGE_N=1",
)
class TestLargeN:
    def test_million_requests_over_100_nodes(self):
        ctx = ExperimentContext()
        row = fleet.run_cell(1_000_000, ctx=ctx)
        assert row.n_nodes == sum(
            c.count for c in parse_inventory(DEFAULT_INVENTORY)
        )
        assert row.n_nodes == 100
        assert row.served <= row.n_requests == 1_000_000
        assert row.transfer_hops > 0
        # Throughput and memory must stay in the same class as the
        # single-node stress ladder: a fleet is 100 independent shards,
        # not a 100x cost multiplier.
        assert row.requests_per_s > 10_000
        assert row.peak_rss_delta_mb < 2_000
