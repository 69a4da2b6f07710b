"""Wire resilience: heartbeats, client deadlines, reconnect, typed loss.

The failure contract of the socket layer after this suite:

* a silent dead peer is detected — HEARTBEAT round-trips on both codecs
  and an armed ``request_timeout_s`` turns any unanswered request into
  :class:`RequestTimeout` instead of a hang;
* a dropped connection rejects *every* pending future with the typed
  :class:`ConnectionLost` (a ``ServerError`` and a ``ConnectionError``)
  — killing a server mid-replay leaves nothing waiting forever;
* an opt-in :class:`RetryPolicy` redials with bounded backoff and
  replays still-unacknowledged tracked infers under their original ids,
  so each future settles exactly once with its own reply.
"""

import asyncio

import pytest

from repro.errors import ConnectionLost, RequestTimeout, ServerError
from repro.robustness import RetryPolicy
from repro.server.client import AsyncNetClient, replay_items_async
from repro.server.net import NetServer
from repro.server.protocol import CODEC_BINARY
from repro.runtime.workload import Scenario, WorkloadGenerator

MODEL = "mobilenetv2"

#: Fast redial: first attempt after 50 ms, capped well under the
#: watchdog.
RECONNECT = RetryPolicy(
    max_retries=25, backoff_base_ms=50.0, backoff_factor=1.2,
    max_backoff_ms=200.0,
)


def items_for(n):
    scenario = Scenario("resilience", 50.0, "low", n_requests=n)
    return list(WorkloadGenerator((MODEL,), seed=2).generate(scenario))


@pytest.mark.net
class TestHeartbeat:
    def test_json_codec_echo(self):
        async def run():
            server = NetServer(models=(MODEL,), mode="realtime")
            async with server:
                async with await AsyncNetClient.connect(
                    "127.0.0.1", server.port
                ) as client:
                    ack = await client.heartbeat()
                    assert "id" in ack

        asyncio.run(run())

    def test_binary_codec_echo(self):
        async def run():
            server = NetServer(models=(MODEL,), mode="realtime")
            async with server:
                async with await AsyncNetClient.connect(
                    "127.0.0.1", server.port, codec=CODEC_BINARY
                ) as client:
                    assert client.binary
                    ack = await client.heartbeat()
                    assert "id" in ack
                    # The connection is still good for hot traffic.
                    result = await client.infer(MODEL, 0.0)
                    assert result.outcome == "served"

        asyncio.run(run())


@pytest.mark.net
class TestRequestDeadline:
    def test_unanswered_infer_times_out(self):
        """Lockstep buffers terminals until drain, so an un-drained infer
        never answers — the client deadline must fire instead of hanging."""

        async def run():
            server = NetServer(models=(MODEL,), mode="lockstep")
            async with server:
                client = await AsyncNetClient.connect(
                    "127.0.0.1", server.port, request_timeout_s=0.3
                )
                fut = await client.submit(MODEL, 0.0)
                with pytest.raises(RequestTimeout, match="deadline"):
                    await asyncio.wait_for(fut, timeout=10)
                await client.close()

        asyncio.run(run())

    def test_answered_infer_unaffected(self):
        async def run():
            server = NetServer(models=(MODEL,), mode="realtime")
            async with server:
                client = await AsyncNetClient.connect(
                    "127.0.0.1", server.port, request_timeout_s=30.0
                )
                result = await client.infer(MODEL, 0.0)
                assert result.outcome == "served"
                await client.close()

        asyncio.run(run())


@pytest.mark.net
class TestConnectionLossTyping:
    def test_pending_futures_reject_with_connection_lost(self):
        async def run():
            server = NetServer(models=(MODEL,), mode="lockstep")
            await server.start()
            client = await AsyncNetClient.connect("127.0.0.1", server.port)
            futs = [await client.submit(MODEL, float(i)) for i in range(8)]
            await server.stop()
            with pytest.raises(ConnectionLost):
                await asyncio.wait_for(asyncio.gather(*futs), timeout=10)
            # ConnectionLost is both vocabularies at once.
            assert issubclass(ConnectionLost, ServerError)
            assert issubclass(ConnectionLost, ConnectionError)
            # New sends are refused with the same typed error.
            with pytest.raises(ConnectionLost):
                await client.submit(MODEL, 99.0)
            await client.close()

        asyncio.run(run())

    def test_server_killed_mid_replay_rejects_not_hangs(self):
        """Satellite: kill the server mid-``replay_items`` and assert no
        future outlives a bounded wait — every one rejects typed."""

        async def run():
            server = NetServer(models=(MODEL,), mode="lockstep")
            await server.start()
            items = items_for(50)
            replay = asyncio.ensure_future(
                replay_items_async(
                    "127.0.0.1", server.port, items, drain=False
                )
            )
            await asyncio.sleep(0.2)  # submissions in flight, no drain
            await server.stop()
            with pytest.raises((ConnectionLost, ServerError)):
                await asyncio.wait_for(replay, timeout=15)

        asyncio.run(run())


@pytest.mark.net
class TestReconnect:
    def test_replays_unacked_infers_with_original_ids(self):
        async def run():
            server = NetServer(models=(MODEL,), mode="lockstep")
            await server.start()
            port = server.port
            client = await AsyncNetClient.connect(
                "127.0.0.1", port, reconnect=RECONNECT
            )
            futs = [await client.submit(MODEL, float(i)) for i in range(4)]
            await server.stop()
            # Bring a fresh server up on the same port mid-backoff.
            await asyncio.sleep(0.2)
            server2 = NetServer(models=(MODEL,), mode="lockstep", port=port)
            await server2.start()
            try:
                await asyncio.sleep(1.0)  # redial + replay
                await client.drain()
                results = await asyncio.wait_for(
                    asyncio.gather(*futs), timeout=15
                )
                assert [r.outcome for r in results] == ["served"] * 4
                # Original ids, each settled exactly once.
                assert sorted(r.id for r in results) == [1, 2, 3, 4]
            finally:
                await client.close()
                await server2.stop()

        asyncio.run(run())

    def test_reconnect_renegotiates_codec(self):
        async def run():
            server = NetServer(models=(MODEL,), mode="realtime")
            await server.start()
            port = server.port
            client = await AsyncNetClient.connect(
                "127.0.0.1", port, codec=CODEC_BINARY, reconnect=RECONNECT
            )
            assert client.binary
            await server.stop()
            await asyncio.sleep(0.2)
            server2 = NetServer(models=(MODEL,), mode="realtime", port=port)
            await server2.start()
            try:
                await asyncio.sleep(1.0)
                # Back on the binary codec without explicit renegotiation.
                assert client.binary
                result = await asyncio.wait_for(
                    client.infer(MODEL, 0.0), timeout=15
                )
                assert result.outcome == "served"
            finally:
                await client.close()
                await server2.stop()

        asyncio.run(run())

    def test_refused_binary_batch_leaves_nothing_to_replay(self):
        """A binary batch naming a model outside the negotiated table is
        refused before any waiter is registered: nothing is left for the
        redial to replay, and the client still serves after it."""

        async def run():
            server = NetServer(models=(MODEL,), mode="realtime")
            await server.start()
            port = server.port
            client = await AsyncNetClient.connect(
                "127.0.0.1", port, codec=CODEC_BINARY, reconnect=RECONNECT
            )
            with pytest.raises(ServerError, match="nosuchmodel"):
                await client.submit_batch(
                    [(MODEL, None), ("nosuchmodel", None)]
                )
            with pytest.raises(ServerError, match="nosuchmodel"):
                await client.submit("nosuchmodel")
            await server.stop()
            await asyncio.sleep(0.2)
            server2 = NetServer(models=(MODEL,), mode="realtime", port=port)
            await server2.start()
            try:
                await asyncio.sleep(1.0)
                result = await asyncio.wait_for(
                    client.infer(MODEL, 0.0), timeout=15
                )
                assert result.outcome == "served"
                # The refused batch's MODEL item never reached the new
                # server: the only infer it saw is the one just served.
                await client.fence()
                assert server2.stats()["server"]["completed"] == 1
                assert [r.id for r in client.received] == [result.id]
            finally:
                await client.close()
                await server2.stop()

        asyncio.run(run())

    def test_exhausted_backoff_fails_typed(self):
        async def run():
            server = NetServer(models=(MODEL,), mode="lockstep")
            await server.start()
            client = await AsyncNetClient.connect(
                "127.0.0.1",
                server.port,
                reconnect=RetryPolicy(
                    max_retries=1, backoff_base_ms=20.0, max_backoff_ms=40.0
                ),
            )
            fut = await client.submit(MODEL, 0.0)
            await server.stop()  # nothing comes back on this port
            with pytest.raises(ConnectionLost):
                await asyncio.wait_for(fut, timeout=15)
            await client.close()

        asyncio.run(run())
