"""Both codecs build the same results, field by field.

The wire differential compares replay summaries, which read only the
outcome, model, arrival, finish and plan of each result. The JSON and
the binary codec build their :class:`WireResult` records in separate
code (``_result_from_payload`` and ``_ResultCodec._decode_result_record``),
so a constructor that swapped ``e2e_ms`` and ``response_ratio``, or
dropped ``retries``, would still pass it. Here one robust lockstep trace
is replayed once per codec and every field of every result is compared.

The second half pins the record contract of :class:`WireResult` and
:class:`InferenceResult`: field names, order and defaults, keyword and
positional construction, immutability and hashing.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.robustness.config import RobustnessConfig
from repro.robustness.faults import FaultPlan
from repro.robustness.retry import RetryPolicy
from repro.robustness.shedding import LoadShedConfig
from repro.runtime.workload import Scenario, WorkloadGenerator
from repro.server.client import WireResult, replay_items_async
from repro.server.net import NetServer
from repro.server.responder import InferenceResult

MODELS = ("yolov2", "vgg19")
SCENARIO = Scenario("netresults", 35.0, "high", 200)
SEED = 5
#: codec -> batch size: JSON one INFER frame per request, binary packed
#: INFER_BATCH frames.
WIRE = {"json": 1, "binary-v2": 16}


def _robustness() -> RobustnessConfig:
    """Rates under which a 200-request replay serves, sheds, fails and
    times out requests, and retries some of them."""
    return RobustnessConfig(
        faults=FaultPlan(seed=11, fail_rate=0.05, drop_rate=0.02),
        retry=RetryPolicy(max_retries=1),
        timeout_rr=8.0,
        load_shed=LoadShedConfig(max_queue_depth=12),
    )


async def _replay(codec: str) -> tuple[list[WireResult], dict[str, float]]:
    items = WorkloadGenerator(MODELS, seed=SEED).generate(SCENARIO)
    server = NetServer(models=MODELS, mode="lockstep", robustness=_robustness())
    async with server:
        ext = {name: spec.ext_ms for name, spec in server.split.specs.items()}
        report = await replay_items_async(
            "127.0.0.1",
            server.port,
            items,
            mode="lockstep",
            codec=codec,
            batch_size=WIRE[codec],
        )
    assert report.conserved
    return report.results, ext


@pytest.fixture(scope="module")
def replays():
    return {codec: asyncio.run(_replay(codec)) for codec in WIRE}


@pytest.mark.net
def test_codecs_agree_on_every_field_but_id(replays):
    (json_results, _), (binary_results, _) = replays.values()
    assert len(json_results) == len(binary_results) == SCENARIO.n_requests
    # Binary's HELLO takes id 1, so each infer id is one higher there.
    assert {b.id - j.id for j, b in zip(json_results, binary_results)} == {1}
    assert [r._replace(id=0) for r in json_results] == [
        r._replace(id=0) for r in binary_results
    ]


@pytest.mark.net
def test_replay_covers_every_outcome_and_field(replays):
    """The comparison above is only as strong as the values it meets."""
    results, _ = replays["json"]
    outcomes = {r.outcome for r in results}
    assert {"served", "shed", "failed", "timed_out"} <= outcomes
    assert any(r.retries for r in results)
    assert any(r.preemptions for r in results)
    assert any(r.plan_ms for r in results if not r.ok)


@pytest.mark.net
@pytest.mark.parametrize("codec", sorted(WIRE))
def test_derived_fields_hold_their_own_values(replays, codec):
    results, ext = replays[codec]
    for r in results:
        if r.outcome == "served":
            assert r.ok
            assert r.e2e_ms == r.finish_ms - r.arrival_ms
            assert r.response_ratio == r.e2e_ms / ext[r.model]
            assert r.plan_ms is not None
        else:
            assert not r.ok
            assert (r.finish_ms, r.e2e_ms, r.response_ratio) == (None,) * 3
            assert r.preemptions == 0
        assert r.echo is None


# --------------------------------------------------------- record contract
#: (type, field names in order, defaults, one full set of field values).
RECORDS = (
    (
        WireResult,
        (
            "id", "outcome", "ok", "model", "arrival_ms", "finish_ms",
            "e2e_ms", "response_ratio", "preemptions", "retries", "plan_ms",
            "echo",
        ),
        {
            "finish_ms": None, "e2e_ms": None, "response_ratio": None,
            "preemptions": 0, "retries": 0, "plan_ms": None, "echo": None,
        },
        (7, "served", True, "yolov2", 1.5, 13.0, 11.5, 1.06, 2, 1,
         (5.0, 6.5), "tag"),
    ),
    (
        InferenceResult,
        (
            "request_id", "model", "arrival_ms", "finish_ms", "e2e_ms",
            "response_ratio", "preemptions", "retries",
        ),
        {"retries": 0},
        (7, "yolov2", 1.5, 13.0, 11.5, 1.06, 2, 1),
    ),
)
_IDS = [kind.__name__ for kind, *_ in RECORDS]


@pytest.mark.parametrize("kind, fields, defaults, values", RECORDS, ids=_IDS)
def test_fields_order_and_defaults(kind, fields, defaults, values):
    assert kind._fields == fields
    assert kind._field_defaults == defaults
    required = len(fields) - len(defaults)
    bare = kind(*values[:required])
    assert bare._asdict() == {**dict(zip(fields, values[:required])), **defaults}


@pytest.mark.parametrize("kind, fields, defaults, values", RECORDS, ids=_IDS)
def test_keyword_and_positional_construction_agree(kind, fields, defaults, values):
    by_keyword = kind(**dict(zip(fields, values)))
    by_position = kind(*values)
    assert by_keyword == by_position
    assert tuple(by_position) == values
    for name, value in zip(fields, values):
        assert getattr(by_keyword, name) == value


@pytest.mark.parametrize("kind, fields, defaults, values", RECORDS, ids=_IDS)
def test_records_are_immutable(kind, fields, defaults, values):
    record = kind(*values)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("kind, fields, defaults, values", RECORDS, ids=_IDS)
def test_records_hash_whenever_their_fields_do(kind, fields, defaults, values):
    assert hash(kind(*values)) == hash(kind(*values))
    assert len({kind(*values), kind(*values)}) == 1
    # An unhashable field makes the record unhashable, as it would a tuple.
    unhashable = kind(*values[:-1], [values[-1]])
    with pytest.raises(TypeError):
        hash(unhashable)
