"""The wire path keeps nothing of a settled request.

Once a lockstep server has replied to a request, neither the responder
nor the reply path holds anything of it: a stopped server leaves the
same cyclic garbage whether it served 300 requests or 3,000 (or, with
``SPLIT_LARGE_N=1``, 200,000). On the client, results with equal plans
share one plan tuple, and the per-connection plan cache stays within the
negotiated model table whatever a server sends. A binary INFER_BATCH
frame holds no record tuples: the server unpacks each record as it
admits it. The reply renderer's frame budget is pinned here too: an
over-budget batch of reply records splits into several RESULT_BATCH
frames that decode to the same results.
"""

from __future__ import annotations

import asyncio
import gc
import os

import pytest

from repro.runtime.workload import Scenario, WorkloadGenerator
from repro.server import net
from repro.server.client import AsyncNetClient, replay_items_async
from repro.server.net import NetServer
from repro.server.protocol import (
    BINARY_CODEC,
    CODEC_BINARY,
    MODEL_IDX_UNKNOWN,
    BinaryCodecV2,
    FrameDecoder,
    FrameType,
    encode_frame,
)

pytestmark = pytest.mark.net

MODELS = ("yolov2", "vgg19")
#: codec -> INFER_BATCH size of its replay (JSON: one frame per request).
BATCH = {CODEC_BINARY: 64, "json": 1}


def _items(n: int, lambda_ms: float = 110.0):
    return WorkloadGenerator(MODELS, seed=3).generate(
        Scenario("garbage", lambda_ms, "high", n_requests=n)
    )


def _replay(items, codec: str):
    """Replay ``items`` through a fresh lockstep server, stop it, and
    return the replay report."""

    async def run():
        server = NetServer(
            models=MODELS, mode="lockstep", max_inflight=len(items) + 16
        )
        async with server:
            report = await replay_items_async(
                "127.0.0.1",
                server.port,
                items,
                mode="lockstep",
                codec=codec,
                batch_size=BATCH[codec],
            )
            # A full collection while the server still lives: the
            # collector stops tracking a dict of atoms (such as the empty
            # in-flight ledger) only in full collections, so this keeps
            # the count after the stop independent of when the replay's
            # own collections happened to run.
            gc.collect()
        return report

    report = asyncio.run(run())
    assert report.conserved
    return report


def _garbage_after_stop(n: int, codec: str) -> int:
    """Objects the cyclic collector frees once a stopped lockstep server
    that served ``n`` requests is gone (the client's results are still
    held, so only the server's leftovers count)."""
    items = _items(n)
    gc.collect()
    report = _replay(items, codec)
    freed = gc.collect()
    assert len(report.results) == n
    return freed


@pytest.mark.parametrize("codec", sorted(BATCH))
def test_stopped_server_keeps_nothing_per_request(codec):
    assert _garbage_after_stop(300, codec) == _garbage_after_stop(3_000, codec)


@pytest.mark.net(timeout_s=300)
@pytest.mark.skipif(
    not os.environ.get("SPLIT_LARGE_N"),
    reason="set SPLIT_LARGE_N=1 for the 200k-request garbage check",
)
def test_stopped_server_keeps_nothing_per_request_large_n():
    assert _garbage_after_stop(300, CODEC_BINARY) == _garbage_after_stop(
        200_000, CODEC_BINARY
    )


def test_served_results_share_plan_tuples():
    """Every served result of one model with one plan carries the same
    tuple object; vgg19 alternates between its split and its unsplit
    plan on this trace, and each of the two is shared too."""
    served = [r for r in _replay(_items(400), CODEC_BINARY).results if r.ok]
    for model in MODELS:
        plans = [r.plan_ms for r in served if r.model == model]
        assert plans
        assert len({id(plan) for plan in plans}) == len(set(plans))
    assert len({r.plan_ms for r in served if r.model == "vgg19"}) == 2
    assert len({r.plan_ms for r in served if r.model == "yolov2"}) == 1


def _result_batches(
    n_models: int, n_plans: int
) -> tuple[list[bytes], list[tuple]]:
    """RESULT_BATCH frames whose records carry ``n_plans`` distinct plans
    for every model index of the table and for one index outside it, and
    those records. Consecutive plans differ only in the sign of a zero:
    equal as floats, different on the wire."""
    records = []
    cid = 0
    for midx in (*range(n_models), MODEL_IDX_UNKNOWN):
        for k in range(n_plans):
            cid += 1
            plan = (float(k // 2), 0.5 * midx, -0.0 if k % 2 else 0.0)
            records.append((cid, 0, midx, 1.0, 2.0, 1.0, 2.0, 0, 0, plan))
    frames = [
        BinaryCodecV2.encode_result_batch(records[i : i + 50])
        for i in range(0, len(records), 50)
    ]
    return frames, records


def test_plan_cache_stays_within_the_model_table():
    names = ["a", "b", "c"]
    frames, records = _result_batches(len(names), n_plans=200)

    async def exchange():
        done = asyncio.Event()

        async def handle(reader, writer):
            """A stand-in server: ACK the HELLO, then answer the client's
            first infer frame with every result frame."""
            decoder = FrameDecoder()

            async def next_frame():
                frames_in = []
                while not frames_in:
                    frames_in = decoder.feed(await reader.read(65536))
                return frames_in[0]

            ftype, hello = await next_frame()
            assert ftype is FrameType.HELLO
            writer.write(
                encode_frame(
                    FrameType.ACK,
                    {"id": hello["id"], "codec": CODEC_BINARY, "models": names},
                )
            )
            decoder.set_codec(BINARY_CODEC)
            ftype, _ = await next_frame()
            assert ftype is FrameType.INFER_BATCH
            for frame in frames:
                writer.write(frame)
            await writer.drain()
            await reader.read()  # until the client hangs up
            writer.close()
            await writer.wait_closed()
            done.set()

        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        async with server:
            client = await AsyncNetClient.connect(
                "127.0.0.1", port, codec=CODEC_BINARY
            )
            try:
                await client.submit_batch([("a", 0.0)], track=False)
                await client.wait_received(len(records))
                return list(client.received), client._decoder.codec
            finally:
                await client.close()
                await done.wait()

    received, codec = asyncio.run(exchange())
    assert [(r.id, r.plan_ms) for r in received] == [
        (rec[0], rec[9]) for rec in records
    ]
    # -0.0 and 0.0 are equal floats but different plans on the wire.
    assert [str(r.plan_ms) for r in received] == [str(rec[9]) for rec in records]
    assert [r.model for r in received[:3]] == ["a"] * 3
    assert received[-1].model == ""
    assert len(codec._plans) <= len(names)
    assert all(len(plans) <= 2 for plans in codec._plans.values())


def test_infer_batch_records_are_unpacked_as_read():
    """A binary INFER_BATCH payload unpacks each record as the intake
    reads it, so a frame holds no record tuples; it reads a copy of a
    mutable chunk, and an empty batch is falsy."""
    records = [(1, 0, 1.5), (2, 1, -0.0), (3, 0, float("inf"))]
    chunk = bytearray(
        BinaryCodecV2.encode_infer_batch(records)
        + BinaryCodecV2.encode_infer_batch([])
    )
    (_, payload), (_, empty) = FrameDecoder(BINARY_CODEC).feed(chunk)
    chunk[:] = bytes(len(chunk))
    assert not isinstance(payload, list)
    assert [(cid, midx, str(t)) for cid, midx, t in payload] == [
        (cid, midx, str(t)) for cid, midx, t in records
    ]
    assert not empty


def test_reply_batches_split_under_the_frame_budget():
    """Reply records past the 256 KiB budget render as several frames
    that decode, in order, to the records with their models mapped."""
    model_idx = {"vgg19": 0, "yolov2": 1}
    plan = tuple(float(i) for i in range(12))
    records = [
        (cid, 0, ("yolov2", "vgg19", "ghost")[cid % 3], 1.0, 2.0, 1.0, 2.0,
         1, 0, plan if cid % 4 else None, None)
        for cid in range(5_000)
    ]
    frames = net._packed_result_frames(records, model_idx)
    assert len(frames) > 1
    assert all(len(frame) <= 4 + 1 + net._BATCH_FRAME_BYTES for frame in frames)
    decoded = [
        record
        for frame in frames
        for ftype, batch in FrameDecoder(BINARY_CODEC).feed(frame)
        for record in batch
    ]
    assert decoded == [
        (cid, tag, model_idx.get(model, MODEL_IDX_UNKNOWN), *rest[:-1])
        for cid, tag, model, *rest in records
    ]
