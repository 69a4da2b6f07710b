"""Asyncio TCP front-end over the SPLIT serving pipeline.

``python -m repro.server.net --host 0.0.0.0 --port 7100 --models
yolov2,vgg19`` serves the framed wire protocol of
:mod:`repro.server.protocol` (see ``docs/serving.md`` for the frame
layout, the binary codec and the error codes). Two serving modes share
the protocol:

* **realtime** (default) — arrivals are stamped by the scaled wall clock
  and executed by the threaded token scheduler/assigner pair, i.e. the
  paper's Fig.-4 pipeline behind a socket. Real concurrency, real
  contention; outcome *rates* are meaningful, exact event order is not.
* **lockstep** — infer frames carry logical ``arrival_ms`` stamps and
  feed the discrete-event kernel directly
  (:meth:`~repro.runtime.engine.SequentialEngine.run_stream` consumes
  the socket as a time-ordered arrival stream). The replay is
  float-identical to :func:`~repro.runtime.simulator.simulate` on the
  same trace — completion order, split-plan choices, shed/failed/
  timed-out verdicts — which is what the differential suite pins. A
  drain frame closes the arrival stream and runs the system dry.

Each direction has one path, whatever the codec or mode. On the way in,
every infer (a binary record, a JSON frame, a JSON batch item) becomes a
``(cid, model, arrival_ms)`` record — the binary codec decodes its
records in that shape — with its echo beside it, and one intake
(``_admit``) checks backpressure, the model, the lockstep stamp and its
ordering, in that precedence, before submitting the accepted records
together. The records of one INFER_BATCH frame, or of a run of
consecutive INFER frames in one socket read, go through one call. On the
way out, every outcome (a result, an unhappy terminal, a refusal)
becomes one reply record, read off the settled request, and the
connection renders its records in its codec: packed RESULT_BATCH frames
on binary, one RESULT/ERROR frame per record on JSON. Echo rides the one
in-flight ledger in both modes. Once a request is settled the server
keeps nothing of it.

The hot path is batched end to end: INFER_BATCH frames and runs of
INFER frames land as whole arrival chunks on the lockstep engine's
intake (driving the kernel's batched lane through ``bulk_admit``),
terminal settlement goes through :meth:`Responder.settle_batch` under
one lock, and results flow back with one event-loop hop per sink batch,
as one outbound queue item per connection, and in RESULT_BATCH frames on
binary connections. Each connection's writer coalesces queued items into
single socket writes.

``shards=N`` spreads connections over N acceptor loops (SO_REUSEPORT
kernel steering where the platform has it, an in-process accept-and-
hand-off loop otherwise). Realtime shards submit into the shared
thread-safe pipeline; sharded lockstep gives every connection an
ordered intake lane and a merger thread interleaves the lanes
deterministically by ``(arrival_ms, task_type)`` (ties break by lane
registration order) — the blocking merge means every expected lane must
submit or drain for the stream to advance, which is the price of
determinism across concurrent connections.

Robustness composes in both modes: a
:class:`~repro.robustness.RobustnessConfig` arms fault injection,
deadline eviction, retries and load shedding, and the unhappy outcomes
travel back over the wire as typed ERROR frames (JSON) or tagged result
records (binary), like the refusals.

Backpressure is connection-level and bounded everywhere: each connection
owns a bounded outbound queue drained by one writer task (a slow reader
blocks only its own writer; overflowing results are dropped and counted
in ``results_dropped``), and a per-connection in-flight cap refuses
excess infer frames immediately with ``backpressure`` errors instead of
letting one flooding client grow server state without limit.
"""

from __future__ import annotations

import argparse
import asyncio
import heapq
import itertools
import socket
import threading
from queue import Queue as ThreadQueue
from typing import Any, Callable, Iterable, Iterator

from repro.errors import ReproError, ServerError, UnknownModelError
from repro.robustness.config import RobustnessConfig
from repro.runtime.engine import EngineResult, SequentialEngine
from repro.scheduling.policies.split_policy import SplitScheduler
from repro.scheduling.request import Request, TaskSpec
from repro.server.protocol import (
    CODECS,
    ERR_BACKPRESSURE,
    ERR_BAD_STATE,
    ERR_FAILED,
    ERR_OUT_OF_ORDER,
    ERR_PROTOCOL,
    ERR_UNKNOWN_MODEL,
    RESULT_HEAD,
    TAG_BY_OUTCOME,
    TAG_OUTCOMES,
    BinaryCodecV2,
    FrameDecoder,
    FrameType,
    ProtocolError,
    encode_frame,
)
from repro.server.responder import InferenceHandle
from repro.server.server import SplitServer

_EOF = object()
_CLOSE = None  # writer-task sentinel
_INFER = FrameType.INFER
_NAN = float("nan")
_INF = float("inf")
#: The echoes of binary infer records, which carry none: an endless,
#: stateless run of None.
_NO_ECHO = itertools.repeat(None)

#: Byte budget per outbound RESULT_BATCH frame (well under MAX_FRAME).
_BATCH_FRAME_BYTES = 256 * 1024
#: Arrivals per merged intake chunk in sharded lockstep mode.
_MERGE_CHUNK = 1024


class _IntakeSource:
    """The lockstep intake as a kernel :class:`ChunkSource`.

    Wire handlers put validated, time-ordered ``(times, requests)``
    chunks; the engine thread consumes them chunk-wise through
    :meth:`next_chunk` on the kernel's batched lane, robust or not (whole
    chunks reach ``bulk_admit`` where no shed check can fire). Chunks are
    validated at intake (nonnegative, nondecreasing within and across
    chunks), which is the ChunkSource contract that lets the engine skip
    per-element revalidation.
    ``pool`` is None because wire requests are made on the event-loop
    thread (``NetServer._admit``), not by this source: a pool that the
    engine thread recycles into would have no one to hand them out again.
    """

    pool = None

    def __init__(self, intake: ThreadQueue) -> None:
        self._intake = intake
        self._done = False

    def next_chunk(self) -> tuple[list[float], list[Request]] | None:
        # Sticky EOF is a guard: the kernel stops at the first None, but
        # any later call must return None again rather than block forever
        # on the drained intake.
        if self._done:
            return None
        item = self._intake.get()
        if item is _EOF:
            self._done = True
            return None
        return item  # type: ignore[no-any-return]


class _LockstepCore:
    """The discrete-event kernel fed by wire arrivals.

    One engine thread runs ``run_stream`` over a blocking chunk intake;
    infer frames put time-ordered ``(times, requests)`` chunks, the
    drain frame puts an EOF sentinel, and terminal requests settle
    through the batched sink — the exact event order of the simulator,
    because it *is* the simulator's loop (the kernel's batched lane, with
    or without robustness settings).
    """

    def __init__(
        self,
        engine: SequentialEngine,
        responder: Any,
        settle: Callable[[list[Request], list[str]], None],
        on_abort: Callable[[], None],
    ) -> None:
        self._engine = engine
        self._responder = responder
        self._settle = settle
        self._on_abort = on_abort
        self._intake: ThreadQueue = ThreadQueue()
        self._lock = threading.Lock()
        self._last_ms = 0.0
        self._finished = False
        self.result: EngineResult | None = None
        self.error: BaseException | None = None
        self._thread = threading.Thread(
            target=self._run, name="split-lockstep-engine", daemon=True
        )

    def start(self) -> None:
        self._thread.start()

    @property
    def last_ms(self) -> float:
        with self._lock:
            return self._last_ms

    def submit_chunk(self, times: list[float], requests: list[Request]) -> None:
        """Enqueue a time-ordered arrival chunk (the caller checked every
        stamp against :attr:`last_ms` and the previous item of the chunk,
        with no await in between)."""
        with self._lock:
            if self._finished or times[0] < self._last_ms:
                raise ServerError("lockstep submit after check went stale")
            self._last_ms = times[-1]
        self._intake.put((times, requests))

    def submit_merged(self, times: list[float], requests: list[Request]) -> None:
        """Intake bypass for the lane merger (sole producer, pre-ordered)."""
        with self._lock:
            self._last_ms = times[-1]
        self._intake.put((times, requests))

    def finish(self) -> None:
        with self._lock:
            if self._finished:
                return
            self._finished = True
        self._intake.put(_EOF)

    @property
    def finished(self) -> bool:
        with self._lock:
            return self._finished

    def join(self, timeout_s: float = 60.0) -> None:
        self._thread.join(timeout=timeout_s)
        if self._thread.is_alive():
            raise ServerError("lockstep engine failed to drain")

    def _run(self) -> None:
        try:
            self.result = self._engine.run_stream(
                _IntakeSource(self._intake), self._sink
            )
        except BaseException as exc:  # engine died: nothing may hang
            self.error = exc
            self._responder.abort_pending()
            self._on_abort()

    # The scalar sink plus its `_batch` variant: the kernel's batched
    # loop resolves `_sink` -> `_sink_batch` by naming convention and
    # flushes buffered terminals through it. Both must be observably
    # identical, so the scalar is the one-element batch.
    def _sink(self, request: Request, outcome: str) -> None:
        self._settle([request], [outcome])

    def _sink_batch(self, requests: list[Request], outcomes: list[str]) -> None:
        self._settle(requests, outcomes)


class _Lane:
    """One connection's ordered intake lane (sharded lockstep)."""

    __slots__ = ("queue", "last_ms", "eof")

    def __init__(self) -> None:
        self.queue: ThreadQueue = ThreadQueue()
        self.last_ms = 0.0
        self.eof = False

    def put_chunk(self, times: list[float], requests: list[Request]) -> None:
        self.queue.put((times, requests))

    def close(self) -> None:
        if not self.eof:
            self.eof = True
            self.queue.put(_EOF)


class _LaneMerger:
    """Deterministic k-way merge of per-connection lanes into the core.

    The merger thread starts once every expected lane has registered and
    interleaves lane items by ``(arrival_ms, task_type)`` (ties break by
    lane registration order, which is connection-arrival order — stable
    within a run, arbitrary across runs; seeded workload traces have
    effectively unique stamps so this never decides a real replay). The
    merge is *blocking*: an item is emitted only once every open lane has
    shown a later-or-equal head or reached EOF, so every expected
    connection must keep submitting (or drain / disconnect, which closes
    its lane) for the stream to advance.
    """

    def __init__(self, core: _LockstepCore, expected: int) -> None:
        self._core = core
        self._expected = expected
        self._lanes: list[_Lane] = []
        self._lock = threading.Lock()
        self._thread: threading.Thread | None = None

    def add_lane(self) -> _Lane | None:
        """Register a lane; None when the expected count is reached."""
        with self._lock:
            if len(self._lanes) >= self._expected:
                return None
            lane = _Lane()
            self._lanes.append(lane)
            if len(self._lanes) == self._expected:
                self._thread = threading.Thread(
                    target=self._run, name="split-lane-merger", daemon=True
                )
                self._thread.start()
            return lane

    def close_all(self) -> bool:
        """EOF every registered lane; True when the merger is running."""
        with self._lock:
            lanes = list(self._lanes)
            started = self._thread is not None
        for lane in lanes:
            lane.close()
        return started

    @staticmethod
    def _iter_lane(lane: _Lane) -> Iterator[tuple[float, Request]]:
        while True:
            item = lane.queue.get()
            if item is _EOF:
                return
            yield from zip(*item)

    def _run(self) -> None:
        try:
            merged = heapq.merge(
                *(self._iter_lane(lane) for lane in self._lanes),
                key=lambda pair: (pair[0], pair[1].task_type),
            )
            times: list[float] = []
            requests: list[Request] = []
            for t, request in merged:
                times.append(t)
                requests.append(request)
                if len(times) >= _MERGE_CHUNK:
                    self._core.submit_merged(times, requests)
                    times, requests = [], []
            if times:
                self._core.submit_merged(times, requests)
        finally:
            self._core.finish()


class _Shard:
    """One acceptor loop plus its connections and counters.

    Counters live per shard so concurrent loop threads never share a
    read-modify-write; :class:`NetServer` exposes the sums.
    """

    __slots__ = (
        "index",
        "loop",
        "thread",
        "server",
        "conns",
        "tasks",
        "frames_in",
        "frames_out",
        "results_dropped",
        "backpressure_rejections",
        "protocol_errors",
        "connections_total",
        "orphaned_results",
    )

    def __init__(self, index: int, loop: asyncio.AbstractEventLoop) -> None:
        self.index = index
        self.loop = loop
        self.thread: threading.Thread | None = None
        self.server: asyncio.base_events.Server | None = None
        self.conns: set[_Connection] = set()
        self.tasks: set[asyncio.Task] = set()
        self.frames_in = 0
        self.frames_out = 0
        self.results_dropped = 0
        self.backpressure_rejections = 0
        self.protocol_errors = 0
        self.connections_total = 0
        self.orphaned_results = 0


class _Connection:
    """Per-connection state: bounded outbound queue, in-flight ledger,
    negotiated codec and its HELLO-time model table."""

    def __init__(self, shard: _Shard, server: "NetServer", writer: asyncio.StreamWriter):
        self.shard = shard
        self.loop = shard.loop
        self.server = server
        self.writer = writer
        # Lockstep settles terminals in bulk (up to a whole kernel flush
        # at once), but the in-flight cap already bounds how many results
        # one connection can have outstanding — so the queue is sized to
        # never drop them. Realtime keeps the strict bound: its results
        # trickle in and a slow reader loses its own frames.
        bound = server.out_queue_bound
        if server.mode == "lockstep":
            bound += server.max_inflight
        self.out: asyncio.Queue = asyncio.Queue(maxsize=bound)
        self.inflight = 0
        self.closed = False
        self.decoder = FrameDecoder()
        self.binary = False
        #: HELLO-time snapshot: index -> spec, name -> index.
        self.model_specs: dict[int, TaskSpec] = {}
        self.model_idx: dict[str, int] = {}
        self.lane: _Lane | None = None

    def render(self, records: list[tuple]) -> list[bytes]:
        """Reply records as frames in this connection's codec — the one
        reply renderer, for results and refusals alike."""
        if self.binary:
            return _packed_result_frames(records, self.model_idx)
        return _json_result_frames(records)

    def send(self, ftype: FrameType, payload: dict[str, Any]) -> bool:
        """Encode one control frame with the connection's codec and
        enqueue it (both codecs carry JSON bodies for control types)."""
        return self.send_bytes(self.decoder.codec.encode(ftype, payload))

    def send_bytes(self, data: bytes, frames: int = 1) -> bool:
        """Enqueue ``frames`` pre-encoded frames, joined in ``data``, as
        one queue item; drops (and counts) them when the queue is full.

        Dropping rather than blocking is the slow-reader contract: a
        client that stops reading loses *its own* frames while the
        server's memory and every other connection stay bounded and
        live.
        """
        if self.closed:
            return False
        try:
            self.out.put_nowait(data)
        except asyncio.QueueFull:
            self.shard.results_dropped += frames
            return False
        self.shard.frames_out += frames
        return True

    async def writer_loop(self) -> None:
        """Drain the outbound queue, coalescing every frame already
        queued into a single socket write before honouring TCP flow
        control once (`drain()`)."""
        out = self.out
        writer = self.writer
        try:
            while True:
                item = await out.get()
                closing = item is _CLOSE
                if not closing:
                    chunks = [item]
                    while True:
                        try:
                            nxt = out.get_nowait()
                        except asyncio.QueueEmpty:
                            break
                        if nxt is _CLOSE:
                            closing = True
                            break
                        chunks.append(nxt)
                    writer.write(
                        chunks[0] if len(chunks) == 1 else b"".join(chunks)
                    )
                    await writer.drain()
                if closing:
                    return
        except (ConnectionError, OSError):
            self.closed = True


# Reply records: one per infer outcome, whichever codec carries it —
# ``(cid, tag, model, arrival_ms, finish_ms, e2e_ms, response_ratio,
#    preemptions, retries, plan_ms | None, echo)``, the binary codec's
# result record plus the echo. ``model`` is the task name, or the
# client's raw table index when a binary record names no deployed model;
# unhappy records carry NaN in the derived-time fields.
def _reply_record(cid: int, echo: Any, request: Request, outcome: str) -> tuple:
    """The reply record for one settled request, read off the request
    itself: the responder keeps nothing of it. ``e2e_ms`` and the
    response ratio are the responder's two float operations."""
    if outcome == "served":
        arrival = request.arrival_ms
        finish = request.finish_ms
        e2e = finish - arrival
        return (
            cid, 0, request.task_type, arrival, finish, e2e,
            e2e / request.ext_ms, request.preemptions, request.retries,
            request.plan_ms, echo,
        )
    return (
        cid, TAG_BY_OUTCOME[outcome], request.task_type, request.arrival_ms,
        _NAN, _NAN, _NAN, 0, request.retries, request.plan_ms, echo,
    )


def _json_record(item: dict[str, Any]) -> tuple[int, str, float] | None:
    """A JSON infer (frame or batch item) as an intake record; None when
    its id or model is malformed (the caller nacks it). A stamp that is
    not a number, or an integer too large for a float, becomes NaN, i.e.
    "no stamp"."""
    cid = item.get("id")
    model = item.get("model")
    if not isinstance(cid, int) or not isinstance(model, str):
        return None
    arrival = item.get("arrival_ms")
    if type(arrival) is float:
        return cid, model, arrival
    if isinstance(arrival, bool) or not isinstance(arrival, (int, float)):
        return cid, model, _NAN
    try:
        return cid, model, float(arrival)
    except OverflowError:
        return cid, model, _NAN


def _refusal_record(
    cid: int, tag: int, model: Any, arrival_ms: float, echo: Any
) -> tuple:
    """The reply record for an infer refused before admission."""
    return (cid, tag, model, arrival_ms, _NAN, _NAN, _NAN, 0, 0, None, echo)


def _packed_result_frames(
    records: list[tuple], model_idx: dict[str, int]
) -> list[bytes]:
    """Binary rendering: RESULT_BATCH frames under a size budget. The
    codec packs the reply records as they are, mapping model names
    through the connection's HELLO-time table (echo stays on the JSON
    codec)."""
    frames: list[bytes] = []
    start = 0
    size = 4
    head = RESULT_HEAD.size
    for i, record in enumerate(records):
        plan = record[9]
        record_size = head + 8 * len(plan) if plan else head
        if size + record_size > _BATCH_FRAME_BYTES and i > start:
            frames.append(
                BinaryCodecV2.encode_result_batch(records[start:i], model_idx)
            )
            start, size = i, 4
        size += record_size
    if start < len(records):
        frames.append(
            BinaryCodecV2.encode_result_batch(
                records[start:] if start else records, model_idx
            )
        )
    return frames


def _json_result_frames(records: list[tuple]) -> list[bytes]:
    """JSON rendering: one RESULT or ERROR frame per record. An ERROR
    omits a NaN ``arrival_ms`` (an infer refused before it had a stamp):
    JSON has no NaN."""
    frames: list[bytes] = []
    for cid, tag, model, arrival, finish, e2e, rr, preempt, retries, plan, echo in records:
        plan_ms = list(plan) if plan is not None else None
        payload: dict[str, Any]
        if tag == 0:
            ftype = FrameType.RESULT
            payload = {
                "id": cid,
                "model": model,
                "arrival_ms": arrival,
                "finish_ms": finish,
                "e2e_ms": e2e,
                "response_ratio": rr,
                "preemptions": preempt,
                "retries": retries,
                "plan_ms": plan_ms,
            }
        else:
            ftype = FrameType.ERROR
            payload = {"id": cid, "code": TAG_OUTCOMES[tag], "model": model}
            if arrival == arrival:
                payload["arrival_ms"] = arrival
            payload["retries"] = retries
            payload["plan_ms"] = plan_ms
        if echo is not None:
            payload["echo"] = echo
        frames.append(encode_frame(ftype, payload))
    return frames


class NetServer:
    """The asyncio socket front-end (see module docstring).

    ``models`` are deployed before the listener opens (zoo names or
    :class:`~repro.graphs.graph.ModelGraph` objects); more can be
    registered over the wire at any time. ``port=0`` binds an ephemeral
    port, published as :attr:`port` after :meth:`start`.

    ``shards`` spreads connections across that many acceptor loops.
    Sharded lockstep additionally needs the number of submitting
    connections up front (``lockstep_lanes``, default ``shards``): the
    deterministic lane merge starts once that many lockstep connections
    have submitted, and later lockstep connections are refused with
    ``bad_state``.
    """

    def __init__(
        self,
        models=(),
        *,
        mode: str = "realtime",
        device=None,
        time_scale: float = 1e-5,
        robustness: RobustnessConfig | None = None,
        admission_alpha: float | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int = 256,
        out_queue_bound: int = 1024,
        drain_timeout_s: float = 60.0,
        sndbuf: int | None = None,
        shards: int = 1,
        lockstep_lanes: int | None = None,
        _force_handoff: bool = False,
    ):
        if mode not in ("realtime", "lockstep"):
            raise ServerError(f"unknown serving mode {mode!r}")
        if max_inflight < 1 or out_queue_bound < 1:
            raise ServerError("max_inflight and out_queue_bound must be >= 1")
        if shards < 1:
            raise ServerError("shards must be >= 1")
        self.mode = mode
        self.host = host
        self.port = port
        self.max_inflight = max_inflight
        self.out_queue_bound = out_queue_bound
        self.drain_timeout_s = drain_timeout_s
        self.sndbuf = sndbuf
        self.shards = shards
        self._force_handoff = _force_handoff
        self.split = SplitServer(
            device=device,
            time_scale=time_scale,
            robustness=robustness,
            admission_alpha=admission_alpha,
        )
        self._core: _LockstepCore | None = None
        self._merger: _LaneMerger | None = None
        #: request_id -> (connection, correlation id, echo, request) for
        #: every admitted wire request in flight, in both modes; written
        #: by connection loops, consumed by whichever thread settles the
        #: request (per-op dict access is GIL-atomic and keys never
        #: collide).
        self._pending: dict[int, tuple[_Connection, int, Any, Request]] = {}
        if mode == "lockstep":
            self._core = _LockstepCore(
                SequentialEngine(SplitScheduler(), robustness=robustness),
                self.split.responder,
                self._settle_lockstep,
                self._abort_lockstep,
            )
            if shards > 1:
                lanes = lockstep_lanes if lockstep_lanes is not None else shards
                if lanes < 1:
                    raise ServerError("lockstep_lanes must be >= 1")
                self._merger = _LaneMerger(self._core, lanes)
        for model in models:
            self.split.deploy(self._resolve_model(model))
        self._server: asyncio.base_events.Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._shards: list[_Shard] = []
        self._lsock: socket.socket | None = None
        self._acceptor: asyncio.Task | None = None

    @staticmethod
    def _resolve_model(model):
        if isinstance(model, str) and not model.lstrip().startswith("{"):
            from repro.zoo.registry import get_model

            return get_model(model)
        return model

    # ------------------------------------------------------------- counters
    # Net-level observability, summed over shards (exposed by the stats
    # frame; read-only from outside).
    @property
    def frames_in(self) -> int:
        return sum(s.frames_in for s in self._shards)

    @property
    def frames_out(self) -> int:
        return sum(s.frames_out for s in self._shards)

    @property
    def results_dropped(self) -> int:
        return sum(s.results_dropped for s in self._shards)

    @property
    def backpressure_rejections(self) -> int:
        return sum(s.backpressure_rejections for s in self._shards)

    @property
    def protocol_errors(self) -> int:
        return sum(s.protocol_errors for s in self._shards)

    @property
    def connections_total(self) -> int:
        return sum(s.connections_total for s in self._shards)

    @property
    def orphaned_results(self) -> int:
        return sum(s.orphaned_results for s in self._shards)

    # ------------------------------------------------------------ lifecycle
    async def start(self) -> "NetServer":
        self._loop = asyncio.get_running_loop()
        if self.mode == "realtime":
            self.split.start()
        else:
            assert self._core is not None
            self._core.start()
        shard0 = _Shard(0, self._loop)
        self._shards = [shard0]
        if self.shards == 1:
            self._server = await asyncio.start_server(
                self._client_cb(shard0), self.host, self.port
            )
            self.port = self._server.sockets[0].getsockname()[1]
        elif self._reuse_port_available():
            self._server = await asyncio.start_server(
                self._client_cb(shard0), self.host, self.port, reuse_port=True
            )
            self.port = self._server.sockets[0].getsockname()[1]
            for index in range(1, self.shards):
                shard = self._spawn_shard(index)
                await asyncio.wrap_future(
                    asyncio.run_coroutine_threadsafe(
                        self._open_listener(shard), shard.loop
                    )
                )
        else:
            # In-process sharding: one raw accept loop hands connected
            # sockets to the shard loops round-robin.
            lsock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            lsock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            lsock.bind((self.host, self.port))
            lsock.listen(128)
            lsock.setblocking(False)
            self._lsock = lsock
            self.port = lsock.getsockname()[1]
            for index in range(1, self.shards):
                self._spawn_shard(index)
            self._acceptor = self._loop.create_task(self._accept_loop())
        return self

    def _reuse_port_available(self) -> bool:
        return hasattr(socket, "SO_REUSEPORT") and not self._force_handoff

    def _spawn_shard(self, index: int) -> _Shard:
        loop = asyncio.new_event_loop()
        shard = _Shard(index, loop)
        shard.thread = threading.Thread(
            target=loop.run_forever,
            name=f"split-net-shard-{index}",
            daemon=True,
        )
        shard.thread.start()
        self._shards.append(shard)
        return shard

    async def _open_listener(self, shard: _Shard) -> None:
        shard.server = await asyncio.start_server(
            self._client_cb(shard), self.host, self.port, reuse_port=True
        )

    def _client_cb(self, shard: _Shard):
        async def cb(
            reader: asyncio.StreamReader, writer: asyncio.StreamWriter
        ) -> None:
            await self._serve_connection(shard, reader, writer)

        return cb

    async def _accept_loop(self) -> None:
        assert self._loop is not None and self._lsock is not None
        rr = itertools.cycle(self._shards)
        try:
            while True:
                sock, _addr = await self._loop.sock_accept(self._lsock)
                shard = next(rr)
                if shard.loop is self._loop:
                    self._loop.create_task(self._adopt(shard, sock))
                else:
                    asyncio.run_coroutine_threadsafe(
                        self._adopt(shard, sock), shard.loop
                    )
        except (asyncio.CancelledError, OSError):
            pass

    async def _adopt(self, shard: _Shard, sock: socket.socket) -> None:
        try:
            reader, writer = await asyncio.open_connection(sock=sock)
        except OSError:
            sock.close()
            return
        await self._serve_connection(shard, reader, writer)

    async def _shutdown_shard(self, shard: _Shard) -> None:
        if shard.server is not None:
            shard.server.close()
            await shard.server.wait_closed()
            shard.server = None
        for conn in list(shard.conns):
            conn.closed = True
            try:
                conn.writer.close()
            except Exception:
                pass
        tasks = list(shard.tasks)
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    async def stop(self) -> None:
        if self._acceptor is not None:
            self._acceptor.cancel()
            try:
                await self._acceptor
            except asyncio.CancelledError:
                pass
            self._acceptor = None
        if self._lsock is not None:
            self._lsock.close()
            self._lsock = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for shard in self._shards:
            if shard.thread is None:
                await self._shutdown_shard(shard)
            else:
                fut = asyncio.run_coroutine_threadsafe(
                    self._shutdown_shard(shard), shard.loop
                )
                await asyncio.wrap_future(fut)
        if self.mode == "realtime":
            self.split.stop()
        elif self._core is not None and not self._core.finished:
            if self._merger is not None:
                if not self._merger.close_all():
                    self._core.finish()
            else:
                self._core.finish()
            await asyncio.get_running_loop().run_in_executor(
                None, self._core.join, self.drain_timeout_s
            )
        for shard in self._shards:
            if shard.thread is not None:
                shard.loop.call_soon_threadsafe(shard.loop.stop)
                shard.thread.join(timeout=10)
                shard.loop.close()
                shard.thread = None

    async def __aenter__(self) -> "NetServer":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    async def serve_forever(self) -> None:
        if self._acceptor is not None:
            await self._acceptor
            return
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    # ---------------------------------------------------------------- stats
    def stats(self) -> dict[str, Any]:
        """Serving + net counters, the stats frame's payload. On a
        lockstep server ``server.in_flight`` is the wire ledger's size:
        every admitted request that has no reply yet."""
        server = self.split.stats()
        if self._core is not None:
            server["in_flight"] = len(self._pending)
        out: dict[str, Any] = {
            "mode": self.mode,
            "server": server,
            "net": {
                "connections": sum(len(s.conns) for s in self._shards),
                "connections_total": self.connections_total,
                "shards": len(self._shards),
                "frames_in": self.frames_in,
                "frames_out": self.frames_out,
                "results_dropped": self.results_dropped,
                "backpressure_rejections": self.backpressure_rejections,
                "protocol_errors": self.protocol_errors,
                "orphaned_results": self.orphaned_results,
            },
        }
        core = self._core
        if core is not None and core.result is not None:
            out["lockstep"] = {
                "preemptions": core.result.preemptions,
                "context_switches": core.result.context_switches,
                "n_completed": core.result.n_completed,
                "retries": core.result.retries,
                "stalls": core.result.stalls,
            }
        return out

    # ----------------------------------------------------------- connection
    async def _serve_connection(
        self,
        shard: _Shard,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        if self.sndbuf is not None:
            sock = writer.get_extra_info("socket")
            if sock is not None:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, self.sndbuf)
        conn = _Connection(shard, self, writer)
        shard.conns.add(conn)
        shard.connections_total += 1
        task = asyncio.current_task()
        if task is not None:
            shard.tasks.add(task)
        writer_task = asyncio.get_running_loop().create_task(conn.writer_loop())
        try:
            while True:
                data = await reader.read(65536)
                if not data or not await self._serve_read(conn, data):
                    break
        except (ConnectionError, OSError):
            pass
        except asyncio.CancelledError:
            pass  # server teardown: exit cleanly, cleanup below
        finally:
            if task is not None:
                shard.tasks.discard(task)
            conn.closed = True
            if conn.lane is not None:
                # A vanished connection must not stall the lane merge.
                conn.lane.close()
            try:
                conn.out.put_nowait(_CLOSE)
            except asyncio.QueueFull:
                writer_task.cancel()
            try:
                await writer_task
            except (asyncio.CancelledError, Exception):
                pass
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            shard.conns.discard(conn)

    async def _serve_read(self, conn: _Connection, data: bytes) -> bool:
        """Decode and handle the frames of one socket read; False closes
        the connection.

        Both codecs' infers reach the intake as ``(cid, model,
        arrival_ms)`` records: binary records, as decoded, name the model
        by HELLO table index (NaN arrival = no stamp) and carry no echo;
        JSON items name it by task name, their echoes aligned beside them.
        A run of consecutive INFER frames is admitted with one
        :meth:`_admit` call. The run ends before any other frame, before
        a JSON infer that gets a protocol nack, and at the end of the
        read, so every reply keeps the order per-frame admission gives it.
        """
        decoder = conn.decoder
        shard = conn.shard
        while True:
            try:
                frames = decoder.feed(data)
            except ProtocolError as exc:
                shard.protocol_errors += 1
                conn.send(
                    FrameType.ERROR,
                    {"id": None, "code": ERR_PROTOCOL, "message": str(exc)},
                )
                return False
            if not frames:
                return True
            data = b""
            records: list[tuple] = []
            echoes: list[Any] = []
            for ftype, payload in frames:
                shard.frames_in += 1
                if ftype is _INFER:
                    if type(payload) is tuple:
                        records.append(payload)
                        continue
                    record = _json_record(payload)
                    if record is not None:
                        records.append(record)
                        echoes.append(payload.get("echo"))
                        continue
                if records:
                    self._admit_run(conn, records, echoes)
                    records = []
                    echoes = []
                if ftype is _INFER:
                    self._nack_json_infer(conn, payload)
                elif not await self._dispatch(conn, ftype, payload):
                    return False
            if records:
                self._admit_run(conn, records, echoes)

    def _admit_run(
        self, conn: _Connection, records: list[tuple], echoes: list[Any]
    ) -> None:
        """Admit a run of INFER frames, all decoded in the connection's
        current codec (a HELLO ends the run before it switches)."""
        if conn.binary:
            self._admit(conn, records, conn.model_specs)
        else:
            self._admit(conn, records, self.split.specs, echoes)

    async def _dispatch(
        self, conn: _Connection, ftype: FrameType, payload: Any
    ) -> bool:
        """Handle one client frame other than INFER; False closes the
        connection."""
        if ftype is FrameType.INFER_BATCH:
            if not isinstance(payload, dict):
                self._admit(conn, payload, conn.model_specs)
                return True
            items = payload.get("items")
            if not isinstance(items, list):
                self._protocol_nack(
                    conn,
                    payload.get("id"),
                    "infer_batch frame needs an items list",
                )
                return True
            records = []
            echoes = []
            for item in items:
                if not isinstance(item, dict):
                    self._protocol_nack(
                        conn, None, "infer_batch items must be objects"
                    )
                    continue
                record = _json_record(item)
                if record is None:
                    self._nack_json_infer(conn, item)
                    continue
                records.append(record)
                echoes.append(item.get("echo"))
            self._admit(conn, records, self.split.specs, echoes)
            return True
        if ftype is FrameType.HELLO:
            self._handle_hello(conn, payload)
            return True
        if ftype is FrameType.STATS:
            conn.send(
                FrameType.STATS, {"id": payload.get("id"), **self.stats()}
            )
            return True
        if ftype is FrameType.DRAIN:
            await self._handle_drain(conn, payload)
            return True
        if ftype is FrameType.REGISTER:
            await self._handle_register(conn, payload)
            return True
        if ftype is FrameType.HEARTBEAT:
            # Liveness echo: same frame type back, same id, no state read.
            conn.send(FrameType.HEARTBEAT, {"id": payload.get("id")})
            return True
        conn.shard.protocol_errors += 1
        cid = payload.get("id") if isinstance(payload, dict) else None
        conn.send(
            FrameType.ERROR,
            {
                "id": cid,
                "code": ERR_PROTOCOL,
                "message": f"client may not send {ftype.name} frames",
            },
        )
        return False

    # -------------------------------------------------------------- handlers
    def _protocol_nack(self, conn: _Connection, cid, message: str) -> None:
        conn.shard.protocol_errors += 1
        conn.send(
            FrameType.ERROR, {"id": cid, "code": ERR_PROTOCOL, "message": message}
        )

    def _handle_hello(self, conn: _Connection, payload: dict[str, Any]) -> None:
        """Codec negotiation: ACK (with the model table) in the current
        codec, then switch both directions at this frame boundary. The
        client must not send post-HELLO frames until the ACK arrives —
        in-flight infers submitted before a codec switch may come back
        in either codec."""
        cid = payload.get("id")
        name = payload.get("codec")
        codec = CODECS.get(name) if isinstance(name, str) else None
        if codec is None:
            # Refused, connection stays on its current codec (fallback
            # rule: JSON-era clients never negotiate and never break).
            self._protocol_nack(conn, cid, f"unknown codec {name!r}")
            return
        specs_by_name = self.split.specs
        names = sorted(specs_by_name)
        conn.send(
            FrameType.ACK, {"id": cid, "codec": codec.name, "models": names}
        )
        conn.model_specs = {i: specs_by_name[n] for i, n in enumerate(names)}
        conn.model_idx = {n: i for i, n in enumerate(names)}
        conn.binary = isinstance(codec, BinaryCodecV2)
        conn.decoder.set_codec(codec)

    # -- lockstep intake ---------------------------------------------------
    def _lockstep_last_ms(self, conn: _Connection) -> float | None:
        """The ordering floor for this connection's next arrival, or None
        when the connection may not submit (lane refused / stream done)."""
        if self._merger is None:
            assert self._core is not None
            if self._core.finished:
                return None
            return self._core.last_ms
        if conn.lane is None:
            conn.lane = self._merger.add_lane()
            if conn.lane is None:
                return None
        if conn.lane.eof:
            return None
        return conn.lane.last_ms

    def _submit_lockstep(
        self, conn: _Connection, times: list[float], requests: list[Request]
    ) -> None:
        if self._merger is None:
            assert self._core is not None
            self._core.submit_chunk(times, requests)
        else:
            assert conn.lane is not None
            conn.lane.last_ms = times[-1]
            conn.lane.put_chunk(times, requests)

    def _nack_json_infer(self, conn: _Connection, item: dict[str, Any]) -> None:
        """The protocol nack for a JSON infer :func:`_json_record` refused."""
        cid = item.get("id")
        if isinstance(cid, int):
            self._protocol_nack(conn, cid, "infer frame needs a model name")
        else:
            self._protocol_nack(conn, None, "infer frame needs an integer id")

    def _admit(
        self,
        conn: _Connection,
        records: list[tuple[int, Any, float]],
        specs: dict[Any, TaskSpec],
        echoes: Iterable[Any] = _NO_ECHO,
    ) -> None:
        """The one infer intake, for both codecs and both modes.

        ``records`` are ``(cid, model, arrival_ms)`` and ``echoes`` their
        aligned echoes; ``specs`` resolves ``model`` (the HELLO table on
        binary, the deployed catalogue by name on JSON). Refusals take
        this precedence:
        backpressure, unknown model, a bad lockstep stamp (a protocol
        nack), then bad_state / out_of_order; they come back as reply
        records, sent in record order. Accepted records enter the ledger
        and are submitted together: one lockstep intake chunk, or one
        realtime batch, whose requests share one arrival stamp.
        Synchronous on purpose: no await between the checks and the
        submission, so frame order on one connection is submission order.
        """
        if not records:
            return
        shard = conn.shard
        cap = self.max_inflight
        inflight = conn.inflight
        lockstep = self._core is not None
        if lockstep:
            last = self._lockstep_last_ms(conn)
        else:
            now = self.split.clock.now_ms()
        pending = self._pending
        refused: list[tuple] = []
        times: list[float] = []
        requests: list[Request] = []
        for (cid, model, arrival), echo in zip(records, echoes):
            if not lockstep:
                arrival = now
            if inflight >= cap:
                shard.backpressure_rejections += 1
                refused.append(
                    _refusal_record(cid, _TAG_BACKPRESSURE, model, arrival, echo)
                )
                continue
            spec = specs.get(model)
            if spec is None:
                refused.append(
                    _refusal_record(cid, _TAG_UNKNOWN_MODEL, model, arrival, echo)
                )
                continue
            if lockstep:
                if not 0.0 <= arrival < _INF:  # NaN (no stamp), <0 or inf
                    # Replies leave in record order: earlier refusals first.
                    if refused:
                        self._send_refusals(conn, refused)
                        refused = []
                    self._protocol_nack(
                        conn,
                        cid,
                        "lockstep infer needs a finite nonnegative arrival_ms",
                    )
                    continue
                if last is None or arrival < last:
                    tag = _TAG_BAD_STATE if last is None else _TAG_OUT_OF_ORDER
                    refused.append(
                        _refusal_record(cid, tag, model, arrival, echo)
                    )
                    continue
                last = arrival
            inflight += 1
            request = Request(task=spec, arrival_ms=arrival)
            pending[request.request_id] = (conn, cid, echo, request)
            times.append(arrival)
            requests.append(request)
        conn.inflight = inflight
        if requests:
            if lockstep:
                self._submit_lockstep(conn, times, requests)
            else:
                deliver = self._deliver_handle
                for handle in self.split.submit_batch(requests, now):
                    handle.add_done_callback(deliver)
        if refused:
            self._send_refusals(conn, refused)

    @staticmethod
    def _send_refusals(conn: _Connection, refused: list[tuple]) -> None:
        # One queue item per frame: a slow reader's bounded queue drops
        # refusals one by one, like any other frame of its own.
        for frame in conn.render(refused):
            conn.send_bytes(frame)

    # -- settlement ----------------------------------------------------------
    def _settle_lockstep(
        self, requests: list[Request], outcomes: list[str]
    ) -> None:
        """Terminal sink (engine thread): batched responder settlement,
        then the shared reply path."""
        self.split.responder.settle_batch(requests, outcomes)
        self._deliver(requests, outcomes)

    def _deliver_handle(self, handle: InferenceHandle) -> None:
        """Realtime handle resolution (any thread): the shared reply path."""
        self._deliver([handle._request], [handle.outcome])

    def _deliver(self, requests: list[Request], outcomes: list[str]) -> None:
        """The one reply path for admitted requests, in both modes: take
        each settled request's ledger entry, build its reply record, and
        post."""
        pending = self._pending
        # Per-connection records in terminal order: per-connection frame
        # order is the determinism contract.
        replies: dict[_Connection, list[tuple]] = {}
        for request, outcome in zip(requests, outcomes):
            entry = pending.pop(request.request_id, None)
            if entry is None:
                continue
            conn, cid, echo, _ = entry
            record = _reply_record(cid, echo, request, outcome)
            records = replies.get(conn)
            if records is None:
                replies[conn] = [record]
            else:
                records.append(record)
        self._post(replies)

    def _post(self, replies: dict[_Connection, list[tuple]]) -> None:
        """Render each connection's reply records on the calling thread
        (off the event loop) and join its frames, then hand them over
        with one call_soon_threadsafe per shard loop."""
        by_loop: dict[
            asyncio.AbstractEventLoop,
            list[tuple[_Connection, bytes, int, int]],
        ] = {}
        for conn, records in replies.items():
            frames = conn.render(records)
            by_loop.setdefault(conn.loop, []).append((
                conn,
                frames[0] if len(frames) == 1 else b"".join(frames),
                len(frames),
                len(records),
            ))
        for loop, entries in by_loop.items():
            try:
                loop.call_soon_threadsafe(self._flush_deliveries, entries)
            except RuntimeError:  # loop already closed at teardown
                for conn, _data, _frames, count in entries:
                    conn.shard.orphaned_results += count

    @staticmethod
    def _flush_deliveries(
        entries: list[tuple[_Connection, bytes, int, int]]
    ) -> None:
        """Queue each connection's post as one item (the writer sends it
        in one write; a lockstep queue is sized never to drop)."""
        for conn, data, frames, count in entries:
            conn.inflight -= count
            if conn.closed:
                conn.shard.orphaned_results += count
                continue
            conn.send_bytes(data, frames)

    def _abort_lockstep(self) -> None:
        """Engine crash, or a drained engine that left requests unsettled:
        no request may hang — every pending wire request gets a terminal
        ``failed`` reply in its connection's codec."""
        pending, self._pending = self._pending, {}
        replies: dict[_Connection, list[tuple]] = {}
        for conn, cid, echo, request in pending.values():
            replies.setdefault(conn, []).append(
                _reply_record(cid, echo, request, ERR_FAILED)
            )
        self._post(replies)

    async def _handle_register(
        self, conn: _Connection, payload: dict[str, Any]
    ) -> None:
        cid = payload.get("id")
        name = payload.get("model")
        ronnx = payload.get("ronnx")
        loop = asyncio.get_running_loop()
        try:
            if isinstance(ronnx, str):
                graph = ronnx
            elif isinstance(name, str):
                if name in self.split.deployment.deployed:
                    task = self.split.deployment.deployed[name].task
                    conn.send(
                        FrameType.ACK,
                        {
                            "id": cid,
                            "model": name,
                            "already_deployed": True,
                            "blocks": task.n_blocks,
                            "ext_ms": task.ext_ms,
                        },
                    )
                    return
                graph = self._resolve_model(name)
            else:
                self._protocol_nack(
                    conn, cid, "register frame needs a model name or ronnx payload"
                )
                return
            # The offline pipeline (profile + GA) is CPU-heavy: run it off
            # the event loop so serving stays responsive mid-deploy.
            record = await loop.run_in_executor(
                None, self.split.register, graph
            )
        except UnknownModelError:
            conn.send(
                FrameType.ERROR,
                {"id": cid, "code": ERR_UNKNOWN_MODEL, "model": name},
            )
            return
        except ReproError as exc:
            conn.send(
                FrameType.ERROR,
                {"id": cid, "code": ERR_BAD_STATE, "message": str(exc)},
            )
            return
        conn.send(
            FrameType.ACK,
            {
                "id": cid,
                "model": record.task.name,
                "blocks": record.task.n_blocks,
                "ext_ms": record.task.ext_ms,
            },
        )

    async def _handle_drain(
        self, conn: _Connection, payload: dict[str, Any]
    ) -> None:
        cid = payload.get("id")
        loop = asyncio.get_running_loop()
        if self.mode == "lockstep":
            core = self._core
            assert core is not None
            if self._merger is not None:
                # Sharded lockstep: a drain closes this connection's lane;
                # the engine finishes once every lane has drained and the
                # merge has run dry.
                if conn.lane is not None:
                    conn.lane.close()
            else:
                core.finish()
            try:
                await loop.run_in_executor(
                    None, core.join, self.drain_timeout_s
                )
            except ServerError as exc:
                conn.send(
                    FrameType.ERROR,
                    {"id": cid, "code": ERR_BAD_STATE, "message": str(exc)},
                )
                return
            if core.error is not None:
                conn.send(
                    FrameType.ERROR,
                    {
                        "id": cid,
                        "code": ERR_BAD_STATE,
                        "message": f"lockstep engine failed: {core.error}",
                    },
                )
                return
            lost = len(self._pending)
            if lost:
                # The engine ran dry without settling these: no request
                # may hang, so each gets a terminal `failed` reply.
                self._abort_lockstep()
                conn.send(
                    FrameType.ERROR,
                    {
                        "id": cid,
                        "code": ERR_BAD_STATE,
                        "message": (
                            f"lockstep engine drained with {lost} admitted "
                            "requests unsettled"
                        ),
                    },
                )
                return
        else:
            try:
                await loop.run_in_executor(
                    None, self.split.drain, self.drain_timeout_s
                )
            except ServerError as exc:
                conn.send(
                    FrameType.ERROR,
                    {"id": cid, "code": ERR_BAD_STATE, "message": str(exc)},
                )
                return
        conn.send(FrameType.ACK, {"id": cid, "drained": True})


_TAG_BACKPRESSURE = TAG_BY_OUTCOME[ERR_BACKPRESSURE]
_TAG_UNKNOWN_MODEL = TAG_BY_OUTCOME[ERR_UNKNOWN_MODEL]
_TAG_OUT_OF_ORDER = TAG_BY_OUTCOME[ERR_OUT_OF_ORDER]
_TAG_BAD_STATE = TAG_BY_OUTCOME[ERR_BAD_STATE]


# ------------------------------------------------------------------ CLI
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server.net",
        description="Serve SPLIT inference over the framed TCP protocol.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7100)
    parser.add_argument(
        "--scale",
        type=float,
        default=1e-5,
        help="real seconds per simulated millisecond (realtime mode)",
    )
    parser.add_argument(
        "--mode", choices=("realtime", "lockstep"), default="realtime"
    )
    parser.add_argument(
        "--models",
        default="yolov2,vgg19",
        help="comma-separated zoo models deployed at startup",
    )
    parser.add_argument("--max-inflight", type=int, default=256)
    parser.add_argument("--out-queue-bound", type=int, default=1024)
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="acceptor loops to spread connections across",
    )
    args = parser.parse_args(argv)

    async def _serve() -> None:
        server = NetServer(
            models=tuple(m for m in args.models.split(",") if m),
            mode=args.mode,
            time_scale=args.scale,
            host=args.host,
            port=args.port,
            max_inflight=args.max_inflight,
            out_queue_bound=args.out_queue_bound,
            shards=args.shards,
        )
        async with server:
            print(
                f"serving {sorted(server.split.deployment.deployed)} on "
                f"{server.host}:{server.port} ({server.mode}, "
                f"scale={args.scale}, shards={args.shards})",
                flush=True,
            )
            await server.serve_forever()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
