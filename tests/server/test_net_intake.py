"""One intake call per run of INFER frames, and reply order.

The server admits the consecutive INFER frames of one socket read with
one intake call: one chunk on the lockstep engine's intake, or one
realtime batch whose requests share one arrival stamp. The run ends
before any other frame and before a JSON infer that gets a protocol
nack, so every reply keeps the order per-frame admission gives it.

A HELLO is a codec boundary inside a read too: the frames behind it are
decoded in the codec it negotiates.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.server import net
from repro.server.net import NetServer
from repro.server.protocol import (
    BINARY_CODEC,
    CODEC_BINARY,
    BinaryCodecV2,
    FrameDecoder,
    FrameType,
    encode_frame,
)

pytestmark = pytest.mark.net

MODELS = ("yolov2",)


def _infer(cid, arrival=None, **extra) -> bytes:
    payload = {"model": "yolov2", **extra}
    if cid is not None:
        payload["id"] = cid
    if arrival is not None:
        payload["arrival_ms"] = arrival
    return encode_frame(FrameType.INFER, payload)


async def _exchange(server: NetServer, wire: bytes, until) -> list:
    """Write ``wire`` in one write() and read replies until ``until``
    holds for them; returns every reply frame in arrival order."""
    reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
    decoder = FrameDecoder()
    replies: list = []
    try:
        writer.write(wire)
        await writer.drain()
        while not until(replies):
            data = await asyncio.wait_for(reader.read(65536), 10)
            assert data, "server closed the connection early"
            frames = decoder.feed(data)
            while frames:
                for ftype, payload in frames:
                    replies.append((ftype, payload))
                    if ftype is FrameType.ACK and "codec" in payload:
                        decoder.set_codec(BINARY_CODEC)
                frames = decoder.feed(b"")
    finally:
        writer.close()
        await writer.wait_closed()
    return replies


def _acked(replies) -> bool:
    return any(
        ftype is FrameType.ACK and payload.get("drained")
        for ftype, payload in replies
    )


def test_one_read_of_infers_is_one_intake_chunk(monkeypatch):
    n = 40
    chunks = []
    submit_chunk = net._LockstepCore.submit_chunk

    def counted(self, times, requests):
        chunks.append(len(requests))
        submit_chunk(self, times, requests)

    monkeypatch.setattr(net._LockstepCore, "submit_chunk", counted)

    async def run():
        server = NetServer(models=MODELS, mode="lockstep")
        async with server:
            wire = b"".join(_infer(i, float(i)) for i in range(1, n + 1))
            return await _exchange(
                server, wire + encode_frame(FrameType.DRAIN, {"id": 0}), _acked
            )

    replies = asyncio.run(run())
    assert chunks == [n]
    served = [p["id"] for t, p in replies if t is FrameType.RESULT]
    assert sorted(served) == list(range(1, n + 1))


def test_replies_keep_per_frame_order():
    """An out-of-order infer, an infer without an id, another stale one,
    one without a stamp and a DRAIN, between valid infers: the ERROR
    frames and the ACK come back in frame order."""
    wire = b"".join([
        _infer(1, 10.0),
        _infer(2, 5.0),  # out_of_order
        _infer(None, 11.0),  # protocol: no id
        _infer(3, 20.0),
        _infer(4, 1.0),  # out_of_order
        _infer(5),  # protocol: no stamp
        encode_frame(FrameType.DRAIN, {"id": 9}),
    ])

    async def run():
        server = NetServer(models=MODELS, mode="lockstep")
        async with server:
            return await _exchange(server, wire, _acked)

    replies = asyncio.run(run())
    control = [
        (ftype.name, payload.get("id"), payload.get("code"))
        for ftype, payload in replies
        if ftype is not FrameType.RESULT
    ]
    assert control == [
        ("ERROR", 2, "out_of_order"),
        ("ERROR", None, "protocol"),
        ("ERROR", 4, "out_of_order"),
        ("ERROR", 5, "protocol"),
        ("ACK", 9, None),
    ]
    served = [p["id"] for t, p in replies if t is FrameType.RESULT]
    assert served == [1, 3]


def test_realtime_run_shares_one_arrival_stamp():
    n = 20

    async def run():
        server = NetServer(models=MODELS, mode="realtime", time_scale=1e-5)
        async with server:
            wire = b"".join(_infer(i) for i in range(1, n + 1))
            return await _exchange(
                server,
                wire,
                lambda replies: len(replies) >= n,
            )

    replies = asyncio.run(run())
    assert [ftype for ftype, _ in replies] == [FrameType.RESULT] * n
    assert len({payload["arrival_ms"] for _, payload in replies}) == 1


def test_binary_infer_behind_a_hello_in_one_read():
    """HELLO, a binary INFER and a DRAIN in one write: the INFER is
    decoded in the codec the HELLO negotiates."""
    wire = (
        encode_frame(FrameType.HELLO, {"id": 1, "codec": CODEC_BINARY})
        + BinaryCodecV2.encode_infer(2, 0, 1.0)
        + encode_frame(FrameType.DRAIN, {"id": 3})
    )

    async def run():
        server = NetServer(models=MODELS, mode="lockstep")
        async with server:
            return await _exchange(server, wire, _acked)

    replies = asyncio.run(run())
    ftypes = [ftype for ftype, _ in replies]
    assert ftypes == [FrameType.ACK, FrameType.RESULT_BATCH, FrameType.ACK]
    assert replies[0][1]["models"] == list(MODELS)
    ((cid, tag, midx, arrival, *_),) = replies[1][1]
    assert (cid, tag, midx, arrival) == (2, 0, 0, 1.0)
