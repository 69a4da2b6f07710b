"""Harness test: every workload at tiny n, in-process, untraced and traced.

Pins what the benchmark itself promises: each workload's output checks
pass, the wire replays equal ``simulate()`` on the same trace, tracing
changes no output digest and keeps ``stream_fast`` on batched
settlement, every per-layer metric is emitted, the stages sum to the
timed wall, every timing wrapper is removed afterwards, and ``--compare``
flags a regression beyond its bound.
"""

from __future__ import annotations

import json

import pytest

from benchmarks.e2e import cli, tracing, workloads
from benchmarks.e2e.catalog import BENCHMARK_FILE, WORKLOADS

TINY = {
    "stream_fast": 3000,
    "stream_robust": 1500,
    "fleet_chaos": 3000,
    "wire_binary": 1500,
    "wire_json": 500,
}
SEED = 3

_WIRE_SEAMS = (
    "kernel.run_stream_calls",
    "client.frames_sent",
    "client.send_s",
    "client.wait_s",
    "protocol.decode_client_s",
    "protocol.decode_server_s",
    "protocol.encode_server_s",
    "responder.settle_calls",
)
#: Per workload, the traced layers that must read above zero: each one is
#: a timing wrapper that saw calls, so a seam the program renamed or
#: stopped calling fails here instead of hiding in a residual.
SEEN = {
    "stream_fast": (
        "kernel.run_stream_calls",
        "workload.chunks",
        "workload.arrival_chunks_s",
        "metrics.observe_batch_calls",
    ),
    "stream_robust": (
        "kernel.run_stream_calls",
        "workload.chunks",
        "metrics.observe_calls",
        "robustness.decide_calls",
        "robustness.select_victims_calls",
    ),
    "fleet_chaos": (
        "kernel.run_stream_calls",
        "workload.arrival_chunks_s",
        "cluster.shard_s",
        "cluster.deal_clean_s",
        "cluster.node_replays",
        "metrics.merge_s",
    ),
    "wire_binary": _WIRE_SEAMS,
    "wire_json": _WIRE_SEAMS,
}


@pytest.fixture(scope="module")
def rounds():
    before = tracing.originals()
    out = {}
    for name, n in TINY.items():
        # Two untraced replays exercise the between-replay reset.
        plain = workloads.run_round(name, n, SEED, reps=2)["reps"]
        traced = workloads.run_round(name, n, SEED, traced=True)
        traced["reps"][0]["setup"] = traced["setup"]
        out[name] = (plain, traced["reps"][0],
                     workloads.reference_digest(name, n, SEED))
    return out, before, tracing.originals()


def test_every_workload_is_covered():
    spec = json.loads(BENCHMARK_FILE.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert set(TINY) == set(WORKLOADS)


@pytest.mark.parametrize("name", list(TINY))
def test_output_checks_pass(rounds, name):
    plain, traced, _ = rounds[0][name]
    assert [rep["problems"] for rep in plain] == [[], []]
    assert traced["problems"] == []


@pytest.mark.parametrize("name", list(TINY))
def test_tracing_leaves_digests_unchanged(rounds, name):
    plain, traced, _ = rounds[0][name]
    assert plain[0]["digest"] == plain[1]["digest"] == traced["digest"]


@pytest.mark.parametrize("name", ["wire_binary", "wire_json"])
def test_wire_replay_equals_simulate(rounds, name):
    plain, _, ref = rounds[0][name]
    assert plain[0]["digest"] == ref


def test_stream_fast_stays_on_batched_settlement(rounds):
    _, traced, _ = rounds[0]["stream_fast"]
    assert traced["layers"]["kernel.sink_calls"] == 0
    assert traced["layers"]["kernel.sink_batch_calls"] > 0


def test_robust_stream_exercises_its_layers(rounds):
    _, traced, _ = rounds[0]["stream_robust"]
    layers = traced["layers"]
    assert layers["kernel.sink_calls"] == TINY["stream_robust"]
    assert 0.0 < layers["robustness.useful_ratio"] < 1.0


@pytest.mark.parametrize("name", list(TINY))
def test_every_seam_sees_calls(rounds, name):
    _, traced, _ = rounds[0][name]
    for layer in SEEN[name]:
        assert traced["layers"][layer] > 0, layer


def test_a_missing_seam_is_an_error(monkeypatch):
    from repro.runtime.metrics import StreamingQoS

    monkeypatch.delattr(StreamingQoS, "merge")
    before = tracing.originals()
    with pytest.raises(LookupError, match="StreamingQoS.merge"):
        with tracing.installed(tracing.Tracer()):
            pass
    assert tracing.originals() == before


@pytest.mark.parametrize("name", list(TINY))
def test_every_per_layer_metric_emitted(rounds, name):
    _, traced, _ = rounds[0][name]
    emitted = {**traced["layers"], **traced["setup"]}
    spec = json.loads(BENCHMARK_FILE.read_text())
    for metric in spec["per_layer"]:
        assert metric["name"] in emitted, metric["name"]


@pytest.mark.parametrize("name", list(TINY))
def test_stages_sum_to_the_timed_wall(rounds, name):
    _, traced, _ = rounds[0][name]
    wall = traced["layers"]["timed.wall_s"]
    stages = list(traced["stages"].values())
    assert sum(stages) == pytest.approx(wall)
    assert all(s >= 0.0 for s in stages[:-1])
    assert stages[-1] >= -0.05 * wall  # the residual: no double counting


def test_every_wrapper_is_removed(rounds):
    _, before, after = rounds
    assert after == before


def _result(throughput: float, failed: int = 0) -> dict:
    metrics = {
        "throughput_rps": {"value": throughput, "unit": "req/s"},
        "setup_s": {"value": 0.5, "unit": "s"},
        "peak_rss_mb": {"value": 80.0, "unit": "MB"},
    }
    return {"workloads": {"stream_fast": {"metrics": metrics, "failed": failed}}}


@pytest.mark.parametrize(
    "new, failed, code",
    [(100_000.0, 0, 0), (95_000.0, 0, 0), (70_000.0, 0, 1), (100_000.0, 5, 1)],
)
def test_compare_flags_regressions_beyond_bound(tmp_path, new, failed, code):
    old_file, new_file = tmp_path / "old.json", tmp_path / "new.json"
    old_file.write_text(json.dumps(_result(100_000.0)))
    new_file.write_text(json.dumps(_result(new, failed)))
    assert cli.main(["--compare", str(old_file), str(new_file)]) == code
