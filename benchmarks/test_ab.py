"""The paired A/B runner's statistics and its refusal check, on made-up
numbers (``benchmarks/ab.py`` runs the benchmark itself; these do not)."""

from __future__ import annotations

import pytest

from benchmarks.ab import Spread, benchmark_differs, report, spread, verdict

#: Ten base throughputs with Q1 = 99.75, median 104.5 and Q3 = 108.25
#: (exclusive quartiles): an interquartile range of 8.5.
BASE = [100.0, 96.0, 104.0, 108.0, 99.0, 110.0, 102.0, 105.0, 107.0, 109.0]


def test_spread_uses_exclusive_quartiles():
    assert spread(BASE) == Spread(99.75, 104.5, 108.25)
    assert spread([3.0]) == Spread(3.0, 3.0, 3.0)


def test_ties_count_for_neither_side():
    v = verdict([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 5.0], "higher")
    assert v.won == 1 and v.pairs == 4
    assert verdict(BASE, BASE, "higher").won == 0


def test_lower_is_better():
    setup = [0.70, 0.68, 0.72, 0.69, 0.71, 0.70, 0.73, 0.66, 0.70, 0.69]
    faster = [s - 0.2 for s in setup]
    v = verdict(setup, faster, "lower")
    assert v.won == 10 and v.holds
    # The same numbers read as higher-is-better are a loss on every pair.
    v = verdict(setup, faster, "higher")
    assert v.won == 0 and not v.holds


def test_exactly_nine_of_ten_pairs_won_holds():
    change = [b + 20.0 for b in BASE]
    change[3] = BASE[3] - 1.0  # lost
    v = verdict(BASE, change, "higher")
    assert v.won == 9 and v.holds
    change[4] = BASE[4]  # a tie: 8 of 10 won
    v = verdict(BASE, change, "higher")
    assert v.won == 8 and not v.holds


def test_gain_must_exceed_the_base_interquartile_range():
    # Every pair won, but the medians sit 8.0 apart, inside the base's
    # interquartile range of 8.5.
    v = verdict(BASE, [b + 8.0 for b in BASE], "higher")
    assert v.won == 10 and not v.holds
    v = verdict(BASE, [b + 9.0 for b in BASE], "higher")
    assert v.won == 10 and v.holds


def test_unaligned_pairs_are_refused():
    with pytest.raises(ValueError):
        verdict([1.0, 2.0], [1.0], "higher")


def _run(correct, value, failed=0):
    return {
        "correct": correct,
        "attempted": 100,
        "failed": failed,
        "metrics": {"throughput_rps": {"value": value, "unit": "req/s"}},
    }


SPEC = {"end_to_end": [
    {"name": "throughput_rps", "unit": "req/s", "better": "higher", "bound": 0.24}
]}


def test_report_exits_one_when_any_run_is_not_correct(capsys):
    ok = {"base": [_run(True, 1.0)], "change": [_run(True, 2.0)]}
    assert report(ok, ["wire_binary"], SPEC) == 0
    bad = {"base": [_run(True, 1.0)], "change": [_run(False, 2.0, failed=5)]}
    assert report(bad, ["wire_binary"], SPEC) == 1
    out = capsys.readouterr().out
    assert "change: 5 of 100 requests failed; 1 of 1 runs not correct" in out


def test_benchmark_differs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for root in (a, b):
        (root / "benchmarks" / "e2e" / "__pycache__").mkdir(parents=True)
        (root / "BENCHMARK.json").write_text("{}")
        (root / "benchmarks" / "e2e" / "cli.py").write_text("x = 1\n")
        (root / "benchmarks" / "other.py").write_text("y = 1\n")
    (a / "benchmarks" / "e2e" / "__pycache__" / "cli.pyc").write_bytes(b"1")
    (b / "benchmarks" / "other.py").write_text("y = 2\n")
    assert benchmark_differs(a, b) == []
    (b / "benchmarks" / "e2e" / "cli.py").write_text("x = 2\n")
    (b / "benchmarks" / "e2e" / "new.py").write_text("")
    (b / "BENCHMARK.json").write_text('{"run_seconds": 1}')
    assert benchmark_differs(a, b) == [
        "BENCHMARK.json", "benchmarks/e2e/cli.py", "benchmarks/e2e/new.py"
    ]
