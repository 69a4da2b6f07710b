"""Backpressure and misbehaving-client robustness.

Two hostile clients attack a server configured with deliberately small
bounds (tiny socket send buffer, 8-slot outbound queues, a 16-request
in-flight cap):

* a **slow reader** that firehoses infer frames with kilobyte echo
  padding and never reads a byte — its TCP window fills, its writer task
  stalls, its bounded queue overflows, and the overflow is *dropped and
  counted* rather than growing server memory;
* a **flooder** whose submissions past the in-flight cap are refused
  immediately with ``backpressure`` error frames.

The pinned property is isolation: while both attacks are in progress a
healthy client on the same server gets every one of its requests served
and can read the stats frame, which reports the drop/rejection counts.
"""

from __future__ import annotations

import asyncio
import socket

import pytest

from repro.server.client import AsyncNetClient
from repro.server.net import NetServer
from repro.server.protocol import FrameType, encode_frame

pytestmark = pytest.mark.net(timeout_s=90)

MODELS = ("yolov2",)
PAD = "x" * 1024  # echoed into every reply frame: ~1 KiB on the wire
N_FLOOD = 400


def _flood_blob() -> bytes:
    return b"".join(
        encode_frame(
            FrameType.INFER, {"id": i, "model": "yolov2", "echo": PAD}
        )
        for i in range(N_FLOOD)
    )


def _slow_reader_socket(port: int) -> socket.socket:
    """Connect with a tiny receive buffer and never read."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    sock.connect(("127.0.0.1", port))
    return sock


async def _attack():
    server = NetServer(
        models=MODELS,
        mode="realtime",
        time_scale=1e-5,
        max_inflight=16,
        out_queue_bound=8,
        sndbuf=4096,
    )
    loop = asyncio.get_running_loop()
    async with server:
        hostile = _slow_reader_socket(server.port)
        try:
            # Firehose ~400 KiB of padded infers without ever reading.
            await loop.run_in_executor(None, hostile.sendall, _flood_blob())

            # Wait until the server has read the whole flood (the cap's
            # verdicts are final only then), the slow reader's queue
            # demonstrably overflowed and the cap demonstrably refused
            # work.
            deadline = loop.time() + 30
            while (
                server.frames_in < N_FLOOD
                or server.results_dropped == 0
                or server.backpressure_rejections == 0
            ):
                if loop.time() > deadline:
                    break
                await asyncio.sleep(0.01)
            mid_attack = (
                server.results_dropped,
                server.backpressure_rejections,
            )

            # A healthy client on the same server, while the hostile
            # connection is still open and stalled.
            healthy = await AsyncNetClient.connect("127.0.0.1", server.port)
            try:
                outcomes = []
                for _ in range(10):
                    result = await asyncio.wait_for(
                        healthy.infer("yolov2"), timeout=10
                    )
                    outcomes.append(result.outcome)
                stats = await asyncio.wait_for(healthy.stats(), timeout=10)
            finally:
                await healthy.close()
        finally:
            hostile.close()
    return mid_attack, outcomes, stats


@pytest.fixture(scope="module")
def attack():
    return asyncio.run(_attack())


def test_slow_reader_overflows_bounded_queue(attack):
    (dropped, _), _, _ = attack
    assert dropped > 0, "slow reader never overflowed the outbound queue"


def test_inflight_cap_rejects_flood(attack):
    (_, backpressure), _, _ = attack
    assert backpressure > 0, "flood never tripped the in-flight cap"
    # The cap bounds concurrent work per connection; the vast majority of
    # the 400-request flood must have been refused up front.
    assert backpressure >= N_FLOOD // 2


def test_healthy_client_unaffected(attack):
    _, outcomes, _ = attack
    assert outcomes == ["served"] * len(outcomes)


def test_stats_frame_reports_pressure(attack):
    _, _, stats = attack
    assert stats["net"]["results_dropped"] > 0
    assert stats["net"]["backpressure_rejections"] > 0
    assert stats["server"]["in_flight"] >= 0
