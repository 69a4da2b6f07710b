"""The client's buffered submits, and the HELLO ACK boundary.

``submit(..., flush=False)`` and ``submit_batch(..., flush=False)``
append their frames to a client-side buffer; the next flush, flushed
submit, control frame or ``close()`` writes them first, in one write, so
frame order on the wire stays submission order. A reconnect drops the
buffer: the unacknowledged infers in it are replayed from the pending
set instead.

A stand-in server records every frame it receives. One also answers the
HELLO with its ACK and a RESULT_BATCH in one write: the client decodes
the batch in the negotiated codec.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.robustness import RetryPolicy
from repro.server.client import AsyncNetClient, WireResult
from repro.server.protocol import (
    CODEC_BINARY,
    CODEC_JSON,
    BinaryCodecV2,
    FrameDecoder,
    FrameType,
    encode_frame,
)

pytestmark = pytest.mark.net

MODELS = ["yolov2"]


class _Recorder:
    """A stand-in JSON server: records each connection's frames and
    answers control frames (and, with ``serve``, infers)."""

    def __init__(self, serve: bool = False, hang_up_first: bool = False):
        self.serve = serve
        self.hang_up_first = hang_up_first
        self.conns: list[list[tuple[FrameType, dict]]] = []
        self.closed = asyncio.Event()

    async def handle(self, reader, writer):
        frames_in: list[tuple[FrameType, dict]] = []
        self.conns.append(frames_in)
        if self.hang_up_first and len(self.conns) == 1:
            writer.close()
            await writer.wait_closed()
            return
        decoder = FrameDecoder()
        try:
            while data := await reader.read(65536):
                got = decoder.feed(data)
                while got:
                    for ftype, payload in got:
                        frames_in.append((ftype, payload))
                        writer.write(self._reply(ftype, payload))
                    got = decoder.feed(b"")
        finally:
            writer.close()
            self.closed.set()

    def _reply(self, ftype: FrameType, payload: dict) -> bytes:
        cid = payload.get("id")
        if ftype is FrameType.STATS:
            return encode_frame(FrameType.STATS, {"id": cid})
        if ftype is FrameType.DRAIN:
            return encode_frame(FrameType.ACK, {"id": cid, "drained": True})
        if ftype is FrameType.HELLO:
            return encode_frame(
                FrameType.ACK, {"id": cid, "codec": CODEC_JSON, "models": MODELS}
            )
        if ftype is FrameType.INFER and self.serve:
            return encode_frame(
                FrameType.RESULT,
                {"id": cid, "model": payload["model"],
                 "arrival_ms": payload["arrival_ms"]},
            )
        return b""


async def _with_server(recorder: _Recorder, body):
    server = await asyncio.start_server(recorder.handle, "127.0.0.1", 0)
    async with server:
        return await body(server.sockets[0].getsockname()[1])


def _kinds(frames) -> list[tuple[str, object]]:
    return [(ftype.name, payload.get("id")) for ftype, payload in frames]


@pytest.mark.parametrize("control", ["stats", "drain", "negotiate"])
def test_buffered_submits_go_out_before_a_control_frame(control):
    recorder = _Recorder()

    async def body(port):
        client = await AsyncNetClient.connect("127.0.0.1", port)
        try:
            await client.submit("yolov2", 1.0, flush=False)
            await client.submit_batch([("yolov2", 2.0)], flush=False)
            await client.submit("yolov2", 3.0, flush=False)
            if control == "negotiate":
                await client.negotiate(CODEC_JSON)
            else:
                await getattr(client, control)()
        finally:
            await client.close()

    asyncio.run(_with_server(recorder, body))
    (frames,) = recorder.conns
    assert _kinds(frames) == [
        ("INFER", 1),
        ("INFER_BATCH", None),
        ("INFER", 3),
        ({"stats": "STATS", "drain": "DRAIN", "negotiate": "HELLO"}[control], 4),
    ]
    assert frames[1][1]["items"] == [
        {"id": 2, "model": "yolov2", "arrival_ms": 2.0}
    ]


def test_close_sends_buffered_submits():
    recorder = _Recorder()

    async def body(port):
        client = await AsyncNetClient.connect("127.0.0.1", port)
        for arrival in (1.0, 2.0, 3.0):
            await client.submit("yolov2", arrival, flush=False)
        await client.close()
        await asyncio.wait_for(recorder.closed.wait(), 10)

    asyncio.run(_with_server(recorder, body))
    (frames,) = recorder.conns
    assert _kinds(frames) == [("INFER", 1), ("INFER", 2), ("INFER", 3)]


def test_reconnect_drops_the_buffer_and_replays_pending():
    """The first connection hangs up before anything is flushed: the
    buffered infers reach the second connection once each, as replays,
    and a later flush sends nothing more."""
    recorder = _Recorder(serve=True, hang_up_first=True)

    async def body(port):
        client = await AsyncNetClient.connect(
            "127.0.0.1",
            port,
            reconnect=RetryPolicy(max_retries=5, backoff_base_ms=5.0),
        )
        try:
            futures = [
                await client.submit("yolov2", arrival, flush=False)
                for arrival in (1.0, 2.0, 3.0)
            ]
            results = [await asyncio.wait_for(f, 10) for f in futures]
            assert client._buf == []
            await client.flush()
            await client.stats()
            return results
        finally:
            await client.close()

    results = asyncio.run(_with_server(recorder, body))
    assert [r.id for r in results] == [1, 2, 3]
    first, second = recorder.conns
    assert first == []
    assert _kinds(second) == [("INFER", 1), ("INFER", 2), ("INFER", 3), ("STATS", 4)]


def test_results_behind_the_hello_ack_in_one_write():
    """A server that writes its HELLO ACK and a RESULT_BATCH in one
    write(): the batch is decoded in the negotiated binary codec."""
    record = (7, 0, 0, 1.0, 3.5, 2.5, 1.25, 0, 0, (2.5,))

    async def handle(reader, writer):
        decoder = FrameDecoder()
        got = []
        while not got:
            got = decoder.feed(await reader.read(65536))
        ((ftype, hello),) = got
        assert ftype is FrameType.HELLO
        writer.write(
            encode_frame(
                FrameType.ACK,
                {"id": hello["id"], "codec": CODEC_BINARY, "models": MODELS},
            )
            + BinaryCodecV2.encode_result_batch([record])
        )
        await writer.drain()
        await reader.read()  # until the client hangs up
        writer.close()

    async def body(port):
        client = await AsyncNetClient.connect(
            "127.0.0.1", port, codec=CODEC_BINARY
        )
        try:
            await asyncio.wait_for(client.wait_received(1), 10)
            return list(client.received)
        finally:
            await client.close()

    async def run():
        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        async with server:
            return await body(server.sockets[0].getsockname()[1])

    assert asyncio.run(run()) == [
        WireResult(7, "served", True, "yolov2", 1.0, 3.5, 2.5, 1.25, 0, 0, (2.5,))
    ]
