"""Refusal parity across codecs.

Every refusal a lockstep server can hand back to an infer — in-flight
cap, unknown model, stale stamp, missing, negative or infinite stamp,
infer after DRAIN — must reach the client as the same
:class:`WireResult` on the JSON and the binary codec: same ``id``,
``outcome`` and ``arrival_ms``, and the same ``model`` wherever the
codec can name it (a binary record for a model outside the HELLO table
has no name to carry).

When one request has two faults the documented precedence decides,
identically on both codecs: backpressure, then unknown model, then a
bad arrival stamp (``protocol``), then ``bad_state`` / ``out_of_order``.
"""

from __future__ import annotations

import asyncio
import math

import pytest

from repro.robustness import RetryPolicy, RobustnessConfig
from repro.server.client import AsyncNetClient
from repro.server.net import NetServer
from repro.server.protocol import (
    CODEC_BINARY,
    BinaryCodecV2,
    FrameDecoder,
    FrameType,
    encode_frame,
)

pytestmark = pytest.mark.net

MODELS = ("yolov2", "vgg19")
#: A model index outside the two-entry HELLO table.
GHOST_IDX = 7
NAN = float("nan")

#: (label, model, arrival_ms sent, expected outcome, expected arrival_ms).
#: A ``None`` stamp sends none (NaN on the binary codec). Sent in this
#: order on one connection of a ``max_inflight=2`` server whose first
#: accepted request (vgg19 at 10 ms) stays in flight until DRAIN.
REFUSALS = (
    ("out_of_order", "yolov2", 5.0, "out_of_order", 5.0),
    ("unknown_model", "ghost", 20.0, "unknown_model", 20.0),
    ("unknown_model_and_stale", "ghost", 1.0, "unknown_model", 1.0),
    ("missing_arrival", "yolov2", None, "protocol", NAN),
    ("negative_arrival", "yolov2", -1.0, "protocol", NAN),
    ("infinite_arrival", "yolov2", math.inf, "protocol", NAN),
)


async def _send(client: AsyncNetClient, model: str, arrival: float | None):
    """One INFER frame built by hand, so unknown models and bad stamps
    reach the server on either codec; returns ``(id, future)``."""
    cid, fut = client._register_waiter("infer")
    if client.binary:
        names = client.model_names
        midx = names.index(model) if model in names else GHOST_IDX
        frame = BinaryCodecV2.encode_infer(cid, midx, arrival)
    else:
        payload = {"id": cid, "model": model}
        if arrival is not None:
            payload["arrival_ms"] = arrival
        frame = encode_frame(FrameType.INFER, payload)
    client._writer.write(frame)
    await client._writer.drain()
    return cid, fut


def _same_float(a: float, b: float) -> bool:
    return (math.isnan(a) and math.isnan(b)) or a == b


async def _exchange(codec: str):
    server = NetServer(models=MODELS, mode="lockstep", max_inflight=2)
    async with server:
        client = await AsyncNetClient.connect(
            "127.0.0.1",
            server.port,
            codec=CODEC_BINARY if codec == "binary" else None,
        )
        try:
            sent = {}
            first = await _send(client, "vgg19", 10.0)
            for label, model, arrival, *_ in REFUSALS:
                sent[label] = await _send(client, model, arrival)
            second = await _send(client, "yolov2", 11.0)
            sent["backpressure"] = await _send(client, "yolov2", None)
            refused = {
                label: await asyncio.wait_for(fut, 10)
                for label, (_cid, fut) in sent.items()
            }
            await client.drain()
            served = [
                await asyncio.wait_for(fut, 10) for _cid, fut in (first, second)
            ]
            sent["bad_state"] = await _send(client, "yolov2", 50.0)
            refused["bad_state"] = await asyncio.wait_for(
                sent["bad_state"][1], 10
            )
        finally:
            await client.close()
    ids = {label: cid for label, (cid, _fut) in sent.items()}
    return ids, refused, served


@pytest.fixture(scope="module", params=("json", "binary"))
def exchange(request):
    return request.param, asyncio.run(_exchange(request.param))


EXPECTED = {
    label: (model, outcome, arrival)
    for label, model, _sent, outcome, arrival in REFUSALS
}
EXPECTED["backpressure"] = ("yolov2", "backpressure", NAN)
EXPECTED["bad_state"] = ("yolov2", "bad_state", 50.0)


@pytest.mark.parametrize("label", sorted(EXPECTED))
def test_refusal_record(exchange, label):
    codec, (ids, refused, _served) = exchange
    model, outcome, arrival = EXPECTED[label]
    result = refused[label]
    assert result.id == ids[label]
    assert result.outcome == outcome
    assert not result.ok
    assert _same_float(result.arrival_ms, arrival), result
    if outcome == "protocol":
        return  # protocol nacks name no model on either codec
    if model == "ghost" and codec == "binary":
        assert result.model == ""  # outside the table: nothing to name
    else:
        assert result.model == model


def test_accepted_requests_still_served(exchange):
    _codec, (_ids, _refused, served) = exchange
    assert [r.outcome for r in served] == ["served", "served"]
    assert [r.model for r in served] == ["vgg19", "yolov2"]
    assert [r.arrival_ms for r in served] == [10.0, 11.0]


def test_non_object_json_batch_item_is_a_protocol_nack():
    """JSON only (binary batch records cannot be non-objects): the bad
    item is refused with a protocol error and its well-formed sibling is
    still admitted."""

    async def run():
        server = NetServer(models=MODELS, mode="lockstep")
        async with server:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            frame = encode_frame(
                FrameType.INFER_BATCH,
                {"items": [5, {"id": 2, "model": "yolov2", "arrival_ms": 1.0}]},
            )
            writer.write(frame + encode_frame(FrameType.DRAIN, {"id": 3}))
            await writer.drain()
            decoder = FrameDecoder()
            frames = []
            while len(frames) < 3:
                data = await asyncio.wait_for(reader.read(65536), 10)
                assert data, "server closed early"
                frames.extend(decoder.feed(data))
            writer.close()
            await writer.wait_closed()
        return frames

    frames = asyncio.run(run())
    by_id = {payload.get("id"): (ftype, payload) for ftype, payload in frames}
    ftype, nack = by_id[None]
    assert ftype is FrameType.ERROR and nack["code"] == "protocol"
    ftype, result = by_id[2]
    assert ftype is FrameType.RESULT and result["model"] == "yolov2"
    assert by_id[3][0] is FrameType.ACK


#: A JSON integer no double can hold: ``float()`` of it overflows.
HUGE_STAMP = 10**400


async def _huge_stamp_exchange(mode: str, ftype: FrameType):
    """One JSON infer stamped with :data:`HUGE_STAMP` (as an INFER frame
    or an INFER_BATCH item), then a STATS frame on the same connection;
    returns every reply by id."""
    server = NetServer(models=MODELS, mode=mode)
    async with server:
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        item = {"id": 1, "model": "yolov2", "arrival_ms": HUGE_STAMP}
        payload = item if ftype is FrameType.INFER else {"items": [item]}
        writer.write(
            encode_frame(ftype, payload)
            + encode_frame(FrameType.STATS, {"id": 2})
        )
        await writer.drain()
        decoder = FrameDecoder()
        by_id = {}
        while len(by_id) < 2:
            data = await asyncio.wait_for(reader.read(65536), 10)
            assert data, "server closed the connection without a reply"
            for reply_type, reply in decoder.feed(data):
                by_id[reply.get("id")] = (reply_type, reply)
        writer.close()
        await writer.wait_closed()
    return by_id


@pytest.mark.parametrize(
    "ftype", (FrameType.INFER, FrameType.INFER_BATCH), ids=("infer", "batch")
)
@pytest.mark.parametrize("mode", ("lockstep", "realtime"))
def test_stamp_too_large_for_a_float_is_no_stamp(mode, ftype):
    """JSON only (a binary stamp is a double already): the stamp counts
    as missing. Lockstep nacks it like any missing stamp, realtime stamps
    the request on receipt, and the connection stays up either way."""
    by_id = asyncio.run(_huge_stamp_exchange(mode, ftype))
    reply_type, reply = by_id[1]
    if mode == "lockstep":
        assert reply_type is FrameType.ERROR
        assert reply["code"] == "protocol"
        assert reply["message"] == (
            "lockstep infer needs a finite nonnegative arrival_ms"
        )
    else:
        assert reply_type is FrameType.RESULT, reply
        assert reply["model"] == "yolov2"
        assert math.isfinite(reply["arrival_ms"]) and reply["arrival_ms"] >= 0
    assert by_id[2][0] is FrameType.STATS


async def _infinite_stamp_exchange(codec: str):
    """On a robust lockstep server: an infer stamped +inf, then a valid
    one, then DRAIN and STATS. Returns both replies, the STATS payload and
    how many admitted requests the server still holds."""
    server = NetServer(
        models=MODELS,
        mode="lockstep",
        robustness=RobustnessConfig(retry=RetryPolicy(max_retries=1)),
    )
    async with server:
        client = await AsyncNetClient.connect(
            "127.0.0.1",
            server.port,
            codec=CODEC_BINARY if codec == "binary" else None,
        )
        try:
            _cid, bad = await _send(client, "yolov2", math.inf)
            _cid, good = await _send(client, "yolov2", 1.0)
            refused = await asyncio.wait_for(bad, 10)
            await client.drain()
            served = await asyncio.wait_for(good, 10)
            stats = await client.stats()
        finally:
            await client.close()
        left = len(server._pending)
    return refused, served, stats, left


@pytest.mark.parametrize("codec", ("json", "binary"))
def test_infinite_stamp_is_a_protocol_nack(codec):
    """A lockstep stamp of +inf (a binary double, or JSON ``Infinity``) is
    refused like a missing one, not admitted as a request that never
    arrives: DRAIN then leaves nothing in flight."""
    refused, served, stats, left = asyncio.run(_infinite_stamp_exchange(codec))
    assert refused.outcome == "protocol" and not refused.ok
    assert served.outcome == "served"
    assert stats["server"]["in_flight"] == 0
    assert stats["lockstep"]["n_completed"] == 1
    assert left == 0
