"""Client library for the socket front-end (:mod:`repro.server.net`).

Three layers, outermost first:

* **Replay helpers** — :func:`replay_items` / :func:`replay_items_async`
  push a :class:`~repro.runtime.workload.WorkloadItem` trace (any output
  of :meth:`WorkloadGenerator.generate`) through a live server. Lockstep
  replays go down one connection in arrival order so the result stream is
  directly comparable to :func:`~repro.runtime.simulator.simulate` via
  :mod:`repro.runtime.capture`; realtime replays pace arrivals on the
  scaled wall clock across N connections. ``codec`` and ``batch_size``
  select the negotiated wire codec and the INFER_BATCH chunking of the
  hot path; ``window`` bounds how much of the outbound stream may sit in
  the socket buffer before the writer is flushed.
* **AsyncNetClient** — one connection on the caller's event loop: a
  background reader task demultiplexes result/error/stats/ack frames back
  to per-request futures by ``id``, and records infer outcomes in frame
  order (``received``) because per-connection frame order is the server's
  terminal order. :meth:`negotiate` runs the HELLO handshake: the codec
  switches at the ACK boundary and the ACK's model table is what binary
  INFER records index into.
* **NetClient** — blocking facade for scripts and notebooks; it owns a
  private event loop thread and funnels every call through
  ``run_coroutine_threadsafe``.

Every infer resolves to a :class:`WireResult` — unhappy outcomes are
data (``ok=False`` with the wire error code), not exceptions, because
replay traffic treats shed/failed/timed-out as normal vocabulary.
Exceptions are reserved for broken conversations: :class:`ProtocolError`
on a poisoned stream, :class:`~repro.errors.ConnectionLost` when the
server goes away (every pending future is rejected with it — nothing
is left hanging), :class:`~repro.errors.RequestTimeout` when an
opt-in ``request_timeout_s`` deadline expires first.

Resilience knobs (all opt-in, all off by default):

* ``request_timeout_s`` — a client-side per-request deadline; a future
  that outlives it fails with :class:`RequestTimeout` and a late reply
  is silently discarded.
* ``reconnect`` — a :class:`~repro.robustness.retry.RetryPolicy`
  driving bounded reconnect-with-backoff after the transport drops:
  the client redials, re-runs the HELLO handshake on the previously
  negotiated codec, and replays still-unacknowledged tracked infer
  submissions under their *original* ids (the demux is id-keyed, so
  replay is idempotent: each future settles exactly once). Waiters
  that cannot be replayed idempotently (hello/meta) and untracked
  bulk submissions are failed with :class:`ConnectionLost` at the
  drop instead.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from repro.errors import ConnectionLost, ReproError, RequestTimeout, ServerError
from repro.robustness.retry import RetryPolicy
from repro.runtime.workload import WorkloadItem
from repro.server.protocol import (
    CODEC_JSON,
    CODECS,
    TAG_OUTCOMES,
    BinaryCodecV2,
    FrameDecoder,
    FrameType,
    ProtocolError,
    encode_frame,
)


@dataclass(frozen=True)
class WireResult:
    """One infer outcome as it crossed the wire.

    Satisfies :class:`repro.runtime.capture.ReplayObservation`: ``model``
    / ``arrival_ms`` / ``outcome`` / ``finish_ms`` / ``plan_ms`` are the
    fields the differential summary keys on.
    """

    id: int
    outcome: str
    ok: bool
    model: str
    arrival_ms: float
    finish_ms: float | None = None
    e2e_ms: float | None = None
    response_ratio: float | None = None
    preemptions: int = 0
    retries: int = 0
    plan_ms: tuple[float, ...] | None = None
    echo: Any = None


def _json_infer(
    cid: int, model: str, arrival_ms: float | None, echo: Any = None
) -> dict[str, Any]:
    """One JSON infer item: an INFER frame's payload or an INFER_BATCH
    entry (unset stamp and echo are left off the wire)."""
    item: dict[str, Any] = {"id": cid, "model": model}
    if arrival_ms is not None:
        item["arrival_ms"] = arrival_ms
    if echo is not None:
        item["echo"] = echo
    return item


def _result_from_payload(ftype: FrameType, payload: dict[str, Any]) -> WireResult:
    plan = payload.get("plan_ms")
    common = dict(
        id=payload["id"],
        model=payload.get("model", ""),
        arrival_ms=payload.get("arrival_ms", float("nan")),
        retries=payload.get("retries", 0),
        plan_ms=tuple(plan) if plan is not None else None,
        echo=payload.get("echo"),
    )
    if ftype is FrameType.RESULT:
        return WireResult(
            outcome="served",
            ok=True,
            finish_ms=payload.get("finish_ms"),
            e2e_ms=payload.get("e2e_ms"),
            response_ratio=payload.get("response_ratio"),
            preemptions=payload.get("preemptions", 0),
            **common,
        )
    return WireResult(outcome=payload.get("code", "error"), ok=False, **common)


class AsyncNetClient:
    """One framed connection with future-per-request demultiplexing."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        host: str | None = None,
        port: int | None = None,
        request_timeout_s: float | None = None,
        reconnect: RetryPolicy | None = None,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._host = host
        self._port = port
        self._request_timeout_s = request_timeout_s
        self._reconnect = reconnect if host is not None else None
        self._ids = itertools.count(1)
        # id -> (kind, future); kind "infer" futures get WireResults and
        # are recorded in `received`, "hello" futures switch the codec at
        # their ACK boundary, "meta" futures get raw payloads.
        self._waiters: dict[int, tuple[str, asyncio.Future]] = {}
        # id -> armed deadline timer; cancelled when the reply lands.
        self._timeouts: dict[int, asyncio.TimerHandle] = {}
        # Deadline-expired ids whose late replies must be discarded.
        self._expired: set[int] = set()
        # id -> (model, arrival_ms, echo) for tracked infers still
        # unacknowledged — the reconnect replay set.
        self._pending: dict[int, tuple[str, float | None, Any]] = {}
        #: Codec name to re-negotiate after a reconnect (set by
        #: :meth:`negotiate` on success).
        self._codec_name: str | None = None
        self._resume_task: asyncio.Task | None = None
        self._conn_error: BaseException | None = None
        self._decoder = FrameDecoder()
        self.binary = False
        #: The HELLO ACK's model table (binary INFER records index it).
        self.model_names: list[str] = []
        self._model_idx: dict[str, int] = {}
        #: Infer outcomes in the order the server emitted them.
        self.received: list[WireResult] = []
        # Untracked submissions (``submit_batch(..., track=False)``) have
        # no waiter future; their replies are recognised by count and
        # recorded in ``received`` only. ``wait_received`` is the
        # matching completion primitive.
        self._untracked = 0
        self._received_target: int | None = None
        self._received_event = asyncio.Event()
        self._reader_task = asyncio.get_running_loop().create_task(
            self._read_loop()
        )

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        *,
        codec: str | None = None,
        rcvbuf: int | None = None,
        request_timeout_s: float | None = None,
        reconnect: RetryPolicy | None = None,
    ) -> "AsyncNetClient":
        """Open a connection; ``codec`` (e.g. ``"binary-v2"``) runs the
        HELLO handshake before returning. ``request_timeout_s`` arms a
        per-request client-side deadline (:class:`RequestTimeout`);
        ``reconnect`` enables bounded reconnect-with-backoff (see the
        module docstring)."""
        reader, writer = await asyncio.open_connection(host, port)
        if rcvbuf is not None:
            import socket as _socket

            sock = writer.get_extra_info("socket")
            if sock is not None:
                sock.setsockopt(
                    _socket.SOL_SOCKET, _socket.SO_RCVBUF, rcvbuf
                )
        client = cls(
            reader,
            writer,
            host=host,
            port=port,
            request_timeout_s=request_timeout_s,
            reconnect=reconnect,
        )
        if codec is not None:
            try:
                await client.negotiate(codec)
            except BaseException:
                await client.close()
                raise
        return client

    # --------------------------------------------------------------- intake
    async def _read_loop(self) -> None:
        try:
            while True:
                exc = await self._pump()
                if not await self._reopen(exc):
                    self._fail_all(exc)
                    return
                # Re-handshake and replay run as a task so this loop is
                # back on the new reader to pump their replies.
                self._resume_task = asyncio.get_running_loop().create_task(
                    self._resume()
                )
        except asyncio.CancelledError:
            self._fail_all(ConnectionError("client closed"))
            raise

    async def _pump(self) -> BaseException:
        """Read frames until the transport breaks; return what broke it."""
        try:
            while True:
                data = await self._reader.read(65536)
                if not data:
                    return ConnectionLost("server closed connection")
                for ftype, payload in self._decoder.feed(data):
                    self._on_frame(ftype, payload)
        except (ConnectionError, OSError, ProtocolError) as exc:
            return exc

    async def _reopen(self, exc: BaseException) -> bool:
        """Bounded reconnect-with-backoff; True once a new transport is up.

        A poisoned stream (:class:`ProtocolError`) is never redialled —
        the conversation, not the transport, is broken. Waiters that
        cannot be replayed idempotently are failed with ``exc`` up
        front; tracked infer waiters stay registered for the replay.
        """
        policy = self._reconnect
        if (
            policy is None
            or isinstance(exc, ProtocolError)
            or self._conn_error is not None
        ):
            return False
        self._fail_unreplayable(exc)
        failures = 0
        while not policy.exhausted(failures):
            await asyncio.sleep(policy.backoff_ms(failures) / 1000.0)
            try:
                assert self._host is not None and self._port is not None
                reader, writer = await asyncio.open_connection(
                    self._host, self._port
                )
            except OSError:
                failures += 1
                continue
            old_writer = self._writer
            self._reader, self._writer = reader, writer
            # Fresh transport starts the wire over: JSON until the
            # resume task re-negotiates the stored codec.
            self._decoder = FrameDecoder()
            self.binary = False
            try:
                old_writer.close()
            except (ConnectionError, OSError):
                pass
            return True
        return False

    async def _resume(self) -> None:
        """Post-reconnect: re-negotiate, then replay unacknowledged
        tracked infers under their original ids (idempotent — each
        future is still registered and settles exactly once)."""
        try:
            if self._codec_name is not None:
                await self.negotiate(self._codec_name)
            for cid in sorted(self._pending):
                model, arrival_ms, echo = self._pending[cid]
                if self.binary:
                    self._writer.write(
                        BinaryCodecV2.encode_infer(
                            cid, self._model_index(model), arrival_ms
                        )
                    )
                else:
                    self._writer.write(
                        self._decoder.codec.encode(
                            FrameType.INFER,
                            _json_infer(cid, model, arrival_ms, echo),
                        )
                    )
            await self._writer.drain()
        except (ConnectionError, OSError, ReproError) as exc:
            # The pump sees the transport drop and retries the redial;
            # a re-handshake refusal poisons the client for good.
            if isinstance(exc, ServerError) and not isinstance(
                exc, (ConnectionLost, ProtocolError)
            ):
                self._fail_all(exc)

    def _fail_unreplayable(self, exc: BaseException) -> None:
        """Fail every waiter the reconnect replay cannot restore."""
        if not isinstance(exc, ReproError):
            exc = ConnectionLost(str(exc) or type(exc).__name__)
        keep: dict[int, tuple[str, asyncio.Future]] = {}
        for cid, entry in self._waiters.items():
            if entry[0] == "infer" and cid in self._pending:
                keep[cid] = entry
                continue
            handle = self._timeouts.pop(cid, None)
            if handle is not None:
                handle.cancel()
            if not entry[1].done():
                entry[1].set_exception(exc)
        self._waiters = keep
        if self._untracked:
            # In-flight untracked submissions died with the connection;
            # wake wait_received() so it surfaces the loss.
            self._conn_error = exc
            self._received_event.set()

    def _fail_all(self, exc: BaseException) -> None:
        if not isinstance(exc, ReproError):
            exc = ConnectionLost(str(exc) or type(exc).__name__)
        self._conn_error = exc
        for handle in self._timeouts.values():
            handle.cancel()
        self._timeouts.clear()
        self._pending.clear()
        waiters, self._waiters = self._waiters, {}
        for _kind, fut in waiters.values():
            if not fut.done():
                fut.set_exception(exc)
        # Wake any wait_received() caller; it re-checks the error.
        self._received_event.set()

    # ------------------------------------------------------------ deadlines
    def _arm_deadline(self, cid: int) -> None:
        if self._request_timeout_s is None:
            return
        self._timeouts[cid] = asyncio.get_running_loop().call_later(
            self._request_timeout_s, self._expire, cid
        )

    def _expire(self, cid: int) -> None:
        self._timeouts.pop(cid, None)
        entry = self._waiters.pop(cid, None)
        if entry is None:
            return
        self._pending.pop(cid, None)
        self._expired.add(cid)
        if not entry[1].done():
            entry[1].set_exception(
                RequestTimeout(
                    f"request {cid} missed its client-side "
                    f"{self._request_timeout_s}s deadline"
                )
            )

    def _pop_waiter(self, cid: int) -> tuple[str, asyncio.Future] | None:
        handle = self._timeouts.pop(cid, None)
        if handle is not None:
            handle.cancel()
        self._pending.pop(cid, None)
        return self._waiters.pop(cid, None)

    def _result_from_record(self, record: tuple) -> WireResult:
        cid, tag, midx, arrival, finish, e2e, rr, preempt, retries, plan = record
        names = self.model_names
        model = names[midx] if midx < len(names) else ""
        if tag == 0:
            return WireResult(
                id=cid,
                outcome="served",
                ok=True,
                model=model,
                arrival_ms=arrival,
                finish_ms=finish,
                e2e_ms=e2e,
                response_ratio=rr,
                preemptions=preempt,
                retries=retries,
                plan_ms=plan,
            )
        # Unhappy records carry NaN in the derived-time fields; surface
        # them as None like the JSON path does.
        return WireResult(
            id=cid,
            outcome=TAG_OUTCOMES[tag],
            ok=False,
            model=model,
            arrival_ms=arrival,
            retries=retries,
            plan_ms=plan,
        )

    def _settle(self, result: WireResult) -> None:
        """The one infer settlement, for both codecs: drop a late reply
        to a deadline-expired request; otherwise resolve its waiter (or
        count it against the untracked submissions) and record it in
        ``received``."""
        if result.id in self._expired:
            self._expired.discard(result.id)
            return
        entry = self._pop_waiter(result.id)
        if entry is not None:
            if not entry[1].done():
                entry[1].set_result(result)
        elif self._untracked:
            self._untracked -= 1
        self.received.append(result)
        if (
            self._received_target is not None
            and len(self.received) >= self._received_target
        ):
            self._received_event.set()

    def _on_frame(self, ftype: FrameType, payload: Any) -> None:
        if isinstance(payload, tuple):  # binary RESULT record
            self._settle(self._result_from_record(payload))
            return
        if isinstance(payload, list):  # binary RESULT_BATCH records
            for record in payload:
                self._settle(self._result_from_record(record))
            return
        cid = payload.get("id")
        entry = self._waiters.get(cid) if cid is not None else None
        # A JSON RESULT/ERROR answers an infer when its id is a tracked
        # infer, or is no waiter but may be an untracked or expired one.
        if (
            ftype in (FrameType.RESULT, FrameType.ERROR)
            and cid is not None
            and (
                entry[0] == "infer"
                if entry is not None
                else self._untracked or cid in self._expired
            )
        ):
            self._settle(_result_from_payload(ftype, payload))
            return
        if entry is None:
            if ftype is FrameType.ERROR:
                # Connection-level error (id None or unknown): poison.
                self._fail_all(
                    ProtocolError(
                        payload.get("message", f"server error: {payload}")
                    )
                )
            return
        self._pop_waiter(cid)
        kind, fut = entry
        if kind == "hello":
            if ftype is FrameType.ACK:
                # The ACK is the last frame of its codec: the client
                # sends nothing post-HELLO until this resolves, so the
                # switch happens exactly at the negotiated boundary.
                codec = CODECS.get(payload.get("codec"))
                if codec is None:
                    if not fut.done():
                        fut.set_exception(
                            ProtocolError(
                                f"server ACKed unknown codec {payload!r}"
                            )
                        )
                    return
                self._decoder.set_codec(codec)
                self.binary = isinstance(codec, BinaryCodecV2)
                self.model_names = list(payload.get("models", ()))
                self._model_idx = {
                    name: i for i, name in enumerate(self.model_names)
                }
            elif not fut.done():  # refused: connection stays on its codec
                fut.set_exception(
                    ServerError(
                        payload.get("message", f"HELLO refused: {payload}")
                    )
                )
                return
        if not fut.done():
            fut.set_result(payload)

    # ---------------------------------------------------------------- sends
    def _register_waiter(self, kind: str) -> tuple[int, asyncio.Future]:
        if self._conn_error is not None:
            raise self._conn_error
        cid = next(self._ids)
        fut: asyncio.Future = asyncio.get_running_loop().create_future()
        self._waiters[cid] = (kind, fut)
        self._arm_deadline(cid)
        return cid, fut

    async def _send(
        self, kind: str, ftype: FrameType, payload: dict[str, Any]
    ) -> asyncio.Future:
        cid, fut = self._register_waiter(kind)
        payload = {"id": cid, **payload}
        self._writer.write(self._decoder.codec.encode(ftype, payload))
        await self._writer.drain()
        return fut

    def _model_index(self, model: str) -> int:
        idx = self._model_idx.get(model)
        if idx is None:
            raise ServerError(
                f"model {model!r} is not in the negotiated table "
                f"{self.model_names} (re-negotiate() after registering)"
            )
        return idx

    async def negotiate(self, codec: str) -> dict[str, Any]:
        """HELLO handshake: switch this connection to ``codec`` and
        refresh the model table. Returns the ACK payload. Must not race
        in-flight sends — negotiate before pipelining traffic."""
        ack = await (
            await self._send("hello", FrameType.HELLO, {"codec": codec})
        )
        self._codec_name = codec  # what a reconnect re-negotiates
        return ack

    async def heartbeat(self) -> dict[str, Any]:
        """Round-trip one HEARTBEAT frame (liveness probe, either codec).

        Combined with ``request_timeout_s`` this turns a silent dead
        peer into a :class:`RequestTimeout` instead of a hang."""
        return await (await self._send("meta", FrameType.HEARTBEAT, {}))

    async def submit(
        self,
        model: str,
        arrival_ms: float | None = None,
        *,
        echo: Any = None,
    ) -> asyncio.Future:
        """Send one infer frame; returns the future without awaiting it."""
        if self.binary:
            if echo is not None:
                raise ServerError("echo travels on the JSON codec only")
            # Refuse an unknown model before anything is registered.
            midx = self._model_index(model)
            cid, fut = self._register_waiter("infer")
            self._pending[cid] = (model, arrival_ms, None)
            self._writer.write(
                BinaryCodecV2.encode_infer(cid, midx, arrival_ms)
            )
        else:
            cid, fut = self._register_waiter("infer")
            self._pending[cid] = (model, arrival_ms, echo)
            self._writer.write(
                self._decoder.codec.encode(
                    FrameType.INFER, _json_infer(cid, model, arrival_ms, echo)
                )
            )
        await self._writer.drain()
        return fut

    async def submit_batch(
        self,
        items: Sequence[tuple[str, float | None]],
        *,
        flush: bool = True,
        track: bool = True,
    ) -> list[asyncio.Future]:
        """Send one INFER_BATCH frame for ``(model, arrival_ms)`` pairs.

        Returns one future per item, in order. ``flush=False`` leaves the
        frame in the transport buffer (pipelined replay flushes once per
        window instead of once per batch). ``track=False`` skips the
        per-item futures entirely (returns ``[]``): replies land only in
        ``received`` and completion is observed with
        :meth:`wait_received` — the cheap path for bulk replays, where a
        future per request is pure overhead."""
        if self._conn_error is not None:
            raise self._conn_error
        futures: list[asyncio.Future] = []
        ids = self._ids
        if self.binary:
            # Resolve every model before registering any waiter, so a
            # refused batch leaves nothing behind for a reconnect replay.
            midxs = [self._model_index(model) for model, _ in items]
            records: list[tuple[int, int, float]] = []
            nan = float("nan")
            for (model, arrival_ms), midx in zip(items, midxs):
                if track:
                    cid, fut = self._register_waiter("infer")
                    self._pending[cid] = (model, arrival_ms, None)
                    futures.append(fut)
                else:
                    cid = next(ids)
                records.append(
                    (cid, midx, nan if arrival_ms is None else arrival_ms)
                )
            self._writer.write(BinaryCodecV2.encode_infer_batch(records))
        else:
            wire_items: list[dict[str, Any]] = []
            for model, arrival_ms in items:
                if track:
                    cid, fut = self._register_waiter("infer")
                    self._pending[cid] = (model, arrival_ms, None)
                    futures.append(fut)
                else:
                    cid = next(ids)
                wire_items.append(_json_infer(cid, model, arrival_ms))
            self._writer.write(
                encode_frame(FrameType.INFER_BATCH, {"items": wire_items})
            )
        if not track:
            self._untracked += len(items)
        if flush:
            await self._writer.drain()
        return futures

    async def wait_received(self, n: int) -> None:
        """Block until ``received`` holds at least ``n`` results.

        The completion primitive for untracked submissions: a lockstep
        server answers every request with exactly one terminal frame, so
        a replay that sent ``n`` requests is complete when ``n`` results
        have been recorded. Raises the connection error if the stream
        breaks first."""
        if len(self.received) >= n:
            return
        if self._conn_error is not None:
            raise self._conn_error
        self._received_target = n
        self._received_event.clear()
        # Re-check after arming: results may have landed in between.
        if len(self.received) < n:
            await self._received_event.wait()
        self._received_target = None
        if self._conn_error is not None and len(self.received) < n:
            raise self._conn_error

    async def flush(self) -> None:
        """Honour transport flow control for previously unflushed sends."""
        await self._writer.drain()

    async def infer(
        self,
        model: str,
        arrival_ms: float | None = None,
        *,
        echo: Any = None,
    ) -> WireResult:
        return await (await self.submit(model, arrival_ms, echo=echo))

    async def register(self, model: str) -> dict[str, Any]:
        """Deploy a zoo model by name on the running server."""
        return await (
            await self._send("meta", FrameType.REGISTER, {"model": model})
        )

    async def register_ronnx(self, ronnx: str) -> dict[str, Any]:
        """Deploy a model from its ``.ronnx`` wrapper payload."""
        return await (
            await self._send("meta", FrameType.REGISTER, {"ronnx": ronnx})
        )

    async def stats(self) -> dict[str, Any]:
        return await (await self._send("meta", FrameType.STATS, {}))

    async def fence(self) -> None:
        """Wait until the server has processed every frame this connection
        sent so far.

        The server answers meta frames in per-connection frame order, so a
        stats round-trip (payload discarded) returning proves all earlier
        frames — submits included — have been fully processed. Use it to
        order side effects across connections (e.g. lockstep lane claims)
        without sleeping.
        """
        await (await self._send("meta", FrameType.STATS, {}))

    async def drain(self) -> dict[str, Any]:
        """Run the server dry (lockstep: close the arrival stream)."""
        return await (await self._send("meta", FrameType.DRAIN, {}))

    async def close(self) -> None:
        if self._resume_task is not None:
            self._resume_task.cancel()
            try:
                await self._resume_task
            except (asyncio.CancelledError, ConnectionError, OSError):
                pass
        self._reader_task.cancel()
        try:
            await self._reader_task
        except (asyncio.CancelledError, ConnectionError, OSError):
            pass
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def __aenter__(self) -> "AsyncNetClient":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()


class NetClient:
    """Blocking client: an event loop on a daemon thread, sync methods.

    Usage::

        with NetClient("127.0.0.1", 7100) as client:
            result = client.infer("yolov2")
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        codec: str | None = None,
        timeout_s: float = 30.0,
        request_timeout_s: float | None = None,
        reconnect: RetryPolicy | None = None,
    ) -> None:
        self._timeout_s = timeout_s
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="net-client-loop", daemon=True
        )
        self._thread.start()
        self._client: AsyncNetClient = self._call(
            AsyncNetClient.connect(
                host,
                port,
                codec=codec,
                request_timeout_s=request_timeout_s,
                reconnect=reconnect,
            )
        )

    def _call(self, coro):
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result(
            self._timeout_s
        )

    @property
    def received(self) -> list[WireResult]:
        return self._client.received

    def negotiate(self, codec: str) -> dict[str, Any]:
        return self._call(self._client.negotiate(codec))

    def infer(
        self, model: str, arrival_ms: float | None = None, *, echo: Any = None
    ) -> WireResult:
        return self._call(self._client.infer(model, arrival_ms, echo=echo))

    def register(self, model: str) -> dict[str, Any]:
        return self._call(self._client.register(model))

    def stats(self) -> dict[str, Any]:
        return self._call(self._client.stats())

    def heartbeat(self) -> dict[str, Any]:
        """Round-trip one HEARTBEAT frame (liveness probe)."""
        return self._call(self._client.heartbeat())

    def fence(self) -> None:
        """Block until the server has processed this connection's earlier
        frames (see :meth:`AsyncNetClient.fence`)."""
        self._call(self._client.fence())

    def drain(self) -> dict[str, Any]:
        return self._call(self._client.drain())

    def close(self) -> None:
        if self._loop.is_closed():
            return
        try:
            self._call(self._client.close())
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=5)
            self._loop.close()

    def __enter__(self) -> "NetClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ------------------------------------------------------------------ replay
@dataclass
class ReplayReport:
    """Outcome of pushing one trace through a live server."""

    #: Infer outcomes in server emission order, per connection, concatenated
    #: in connection order (for one connection: exact terminal order).
    #: Left out of ``repr``: on CPython 3.11/3.12 ``asyncio.run`` formats
    #: its finished main task (and so this report) twice on exit, which
    #: would walk every result of the replay.
    results: list[WireResult] = field(repr=False)
    sent: int
    wall_s: float

    def outcome_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for r in self.results:
            counts[r.outcome] = counts.get(r.outcome, 0) + 1
        return counts

    @property
    def conserved(self) -> bool:
        """Every request sent came back with exactly one terminal frame."""
        return len(self.results) == self.sent


async def replay_items_async(
    host: str,
    port: int,
    items: Sequence[WorkloadItem] | Iterable[WorkloadItem],
    *,
    mode: str = "lockstep",
    connections: int = 1,
    time_scale: float = 1e-5,
    drain: bool = True,
    codec: str = CODEC_JSON,
    batch_size: int = 1,
    window: int = 64,
    request_timeout_s: float | None = None,
    reconnect: RetryPolicy | None = None,
) -> ReplayReport:
    """Replay a workload trace against a running :class:`NetServer`.

    ``mode`` must match the server's. Lockstep uses exactly one
    connection (arrival order on one stream is the determinism contract)
    and stamps each infer with the item's logical ``arrival_ms``;
    realtime fans submissions over ``connections`` sockets round-robin,
    pacing real time as ``arrival_ms * time_scale`` seconds from start.

    ``codec`` negotiates the wire codec per connection before any infer;
    ``batch_size > 1`` ships the lockstep trace as INFER_BATCH frames of
    that many arrivals, flushing the transport every ``window`` batches —
    the pipelined fast path the benchmarks measure. Note that a lockstep
    server buffers terminal results, so the whole trace must fit inside
    the server's ``max_inflight`` for an un-drained pipelined replay.

    ``request_timeout_s`` / ``reconnect`` forward to
    :meth:`AsyncNetClient.connect` — with them a mid-replay server crash
    rejects every outstanding future (``RequestTimeout`` /
    ``ConnectionLost``) instead of hanging the replay.
    """
    items = list(items)
    if mode == "lockstep" and connections != 1:
        raise ValueError("lockstep replay requires exactly one connection")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    loop = asyncio.get_running_loop()
    wire_codec = None if codec == CODEC_JSON else codec
    clients = [
        await AsyncNetClient.connect(
            host,
            port,
            codec=wire_codec,
            request_timeout_s=request_timeout_s,
            reconnect=reconnect,
        )
        for _ in range(connections)
    ]
    t_start = loop.time()
    try:
        futures: list[asyncio.Future] = []
        if mode == "lockstep":
            (client,) = clients
            if batch_size > 1:
                # Untracked bulk path: no future per request, completion
                # is the result count (one terminal frame per request is
                # the lockstep conservation contract).
                since_flush = 0
                for start in range(0, len(items), batch_size):
                    batch = [
                        (item.model_name, item.arrival_ms)
                        for item in items[start : start + batch_size]
                    ]
                    await client.submit_batch(batch, flush=False, track=False)
                    since_flush += 1
                    if since_flush >= window:
                        await client.flush()
                        since_flush = 0
                await client.flush()
                if drain:
                    await client.drain()
                await client.wait_received(len(items))
            else:
                for item in items:
                    futures.append(
                        await client.submit(item.model_name, item.arrival_ms)
                    )
                if drain:
                    await client.drain()
        else:
            t0 = loop.time()
            for i, item in enumerate(items):
                delay = t0 + item.arrival_ms * time_scale - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                futures.append(
                    await clients[i % connections].submit(item.model_name)
                )
            if drain:
                await clients[0].drain()
        await asyncio.gather(*futures)
        wall_s = loop.time() - t_start
        results = [r for c in clients for r in c.received]
        return ReplayReport(results=results, sent=len(items), wall_s=wall_s)
    finally:
        for client in clients:
            await client.close()


def replay_items(
    host: str,
    port: int,
    items: Sequence[WorkloadItem] | Iterable[WorkloadItem],
    **kwargs: Any,
) -> ReplayReport:
    """Synchronous wrapper around :func:`replay_items_async`."""
    return asyncio.run(replay_items_async(host, port, items, **kwargs))
