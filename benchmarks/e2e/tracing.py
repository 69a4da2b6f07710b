"""Spans for the traced run, recorded from outside the program.

The traced run times calls into the layers' public functions by swapping
class or module attributes for timing wrappers for the length of one
replay (:func:`installed`), and puts every original back afterwards. Each
wrapper keeps the protocol the caller looks for — a chunk source keeps
``next_chunk`` and ``pool``, a terminal sink keeps its ``observe`` /
``observe_batch`` method pair — so tracing never moves a run off the
kernel's batched fast lane.

Spans sit at chunk, batch, node and frame-feed granularity. Call sites
that run once per request (scalar sinks, fault decisions, shedding
checks, JSON submits, per-result encodes) are *folded*: each enclosing
span gets one counted span per name, holding the call count and the
summed time. A span's self time is its busy time minus what its
synchronous children cover. Coroutine spans are *detached*: they overlap
whatever the event loop ran while they awaited, so they never count
against their parent.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

_now = time.perf_counter

# A span record is a list, mutated in place while the span is open:
NAME, START, END, PARENT, THREAD, COUNT, BUSY, CPU, DETACHED = range(9)


class Tracer:
    """In-memory spans of one replay, from any number of threads."""

    def __init__(self, round_id: int = 0) -> None:
        self.round_id = round_id
        self.origin = _now()
        self.records: list[list[Any]] = []
        self._local = threading.local()
        # Every thread's bottom frame, so finish() can emit folds made
        # outside any span.
        self._roots: list[list[Any]] = []

    def _stack(self) -> list[list[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            root: list[Any] = [None, {}, threading.current_thread().name]
            stack = self._local.stack = [root]
            self._roots.append(root)
        return stack

    def begin(self, name: str) -> list[Any]:
        stack = self._stack()
        top = stack[-1]
        record = [name, _now() - self.origin, 0.0, top[0], top[2], 1, 0.0,
                  None, False]
        stack.append([record, {}, top[2]])
        return record

    def end(self, record: list[Any], cpu: float | None = None) -> None:
        end = _now() - self.origin
        frame = self._stack().pop()
        record[END] = end
        record[BUSY] = end - record[START]
        record[CPU] = cpu
        self.records.append(record)
        self._emit_folds(frame)

    def fold(
        self, name: str, start: float, end: float, detached: bool = False
    ) -> None:
        """Add one timed call (absolute ``perf_counter`` stamps) to the
        counted span ``name`` under the innermost open span."""
        folds = self._stack()[-1][1]
        acc = folds.get(name)
        if acc is None:
            folds[name] = [1, end - start, start, end, detached]
        else:
            acc[0] += 1
            acc[1] += end - start
            acc[3] = end

    def detached(self, name: str, start: float, end: float) -> None:
        """Record a coroutine span (absolute ``perf_counter`` stamps)."""
        top = self._stack()[-1]
        self.records.append(
            [name, start - self.origin, end - self.origin, top[0], top[2],
             1, end - start, None, True]
        )

    def _emit_folds(self, frame: list[Any]) -> None:
        parent, folds, thread = frame
        for name, (count, busy, start, end, detached) in folds.items():
            self.records.append(
                [name, start - self.origin, end - self.origin, parent,
                 thread, count, busy, None, detached]
            )
        folds.clear()

    def finish(self) -> list[dict[str, Any]]:
        """Close the replay: emit top-level folds, return exportable spans
        (``parent`` indexes into the returned list)."""
        for root in self._roots:
            self._emit_folds(root)
        index = {id(r): i for i, r in enumerate(self.records)}
        return [
            {
                "name": r[NAME],
                "start": r[START],
                "end": r[END],
                "parent": index.get(id(r[PARENT])),
                "round": self.round_id,
                "thread": r[THREAD],
                "count": r[COUNT],
                "busy": r[BUSY],
                "cpu": r[CPU],
                "detached": r[DETACHED],
            }
            for r in self.records
        ]


def totals(spans: list[dict[str, Any]]) -> dict[str, dict[str, float]]:
    """Per span name: summed busy time, self time, CPU, call count, and
    the longest single span (``max``)."""
    covered = [0.0] * len(spans)
    for span in spans:
        parent = span["parent"]
        if parent is not None and not span["detached"]:
            covered[parent] += span["busy"]
    out: dict[str, dict[str, float]] = {}
    for span, cover in zip(spans, covered):
        acc = out.setdefault(
            span["name"],
            {"busy": 0.0, "self": 0.0, "cpu": 0.0, "count": 0, "max": 0.0},
        )
        acc["busy"] += span["busy"]
        acc["self"] += span["busy"] - cover
        acc["cpu"] += span["cpu"] or 0.0
        acc["count"] += span["count"]
        acc["max"] = max(acc["max"], span["busy"])
    return out


# ------------------------------------------------------------ wrappers
def _spanned(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        record = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(record)

    return wrapper


def _folded(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        start = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.fold(name, start, _now())

    return wrapper


def _async(tracer: Tracer, name: str, fn: Callable, fold: bool) -> Callable:
    @functools.wraps(fn)
    async def wrapper(*args: Any, **kwargs: Any) -> Any:
        start = _now()
        try:
            return await fn(*args, **kwargs)
        finally:
            if fold:
                tracer.fold(name, start, _now(), detached=True)
            else:
                tracer.detached(name, start, _now())

    return wrapper


def _by_thread(
    tracer: Tracer, main_name: str, other_name: str, fn: Callable
) -> Callable:
    """Span named after the calling thread: the load generator runs on
    the main thread, the server on its own threads."""
    main = threading.main_thread()

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        name = main_name if threading.current_thread() is main else other_name
        record = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(record)

    return wrapper


class _TimedIterator:
    """An iterator whose every pull is a span (chunk granularity)."""

    def __init__(self, tracer: Tracer, name: str, inner: Iterator) -> None:
        self._tracer = tracer
        self._name = name
        self._inner = inner

    def __iter__(self) -> "_TimedIterator":
        return self

    def __next__(self) -> Any:
        record = self._tracer.begin(self._name)
        try:
            return next(self._inner)
        finally:
            self._tracer.end(record)


class _TimedSource:
    """A kernel chunk source with every ``next_chunk`` pull timed."""

    def __init__(self, tracer: Tracer, inner: Any) -> None:
        self._tracer = tracer
        self._inner = inner
        self.pool = getattr(inner, "pool", None)

    def next_chunk(self) -> Any:
        record = self._tracer.begin("kernel.source")
        try:
            return self._inner.next_chunk()
        finally:
            self._tracer.end(record)

    def __iter__(self) -> Iterator[Any]:
        while True:
            chunk = self.next_chunk()
            if chunk is None:
                return
            yield from zip(chunk[0], chunk[1])


class _TimedSink:
    """A scalar terminal sink; each call folds into ``kernel.sink``."""

    def __init__(self, tracer: Tracer, scalar: Callable) -> None:
        self._tracer = tracer
        self._scalar = scalar

    def observe(self, request: Any, outcome: str) -> None:
        start = _now()
        try:
            self._scalar(request, outcome)
        finally:
            self._tracer.fold("kernel.sink", start, _now())


class _TimedBatchSink(_TimedSink):
    """A sink with a batched variant: the kernel resolves ``observe`` ->
    ``observe_batch`` by name, exactly as it would on the original."""

    def __init__(self, tracer: Tracer, scalar: Callable, batch: Callable) -> None:
        super().__init__(tracer, scalar)
        self._batch = batch

    def observe_batch(self, requests: list, outcomes: list) -> None:
        record = self._tracer.begin("kernel.sink_batch")
        try:
            self._batch(requests, outcomes)
        finally:
            self._tracer.end(record)


def _timed_sink(tracer: Tracer, sink: Callable) -> Callable:
    func = getattr(sink, "__func__", None)
    owner = getattr(sink, "__self__", None)
    batch = (
        getattr(owner, func.__name__ + "_batch", None)
        if func is not None and owner is not None
        else None
    )
    if callable(batch):
        return _TimedBatchSink(tracer, sink, batch).observe
    return _TimedSink(tracer, sink).observe


def _run_stream(tracer: Tracer, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def run_stream(self: Any, arrivals: Any, sink: Callable) -> Any:
        if hasattr(arrivals, "next_chunk"):
            arrivals = _TimedSource(tracer, arrivals)
        record = tracer.begin("kernel.run_stream")
        cpu = time.thread_time()
        try:
            return fn(self, arrivals, _timed_sink(tracer, sink))
        finally:
            tracer.end(record, cpu=time.thread_time() - cpu)

    return run_stream


def _iter_chunks(tracer: Tracer, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def iter_arrival_chunks(*args: Any, **kwargs: Any) -> Any:
        return _TimedIterator(
            tracer, "workload.arrival_chunks", fn(*args, **kwargs)
        )

    return iter_arrival_chunks


def _seams(tracer: Tracer) -> list[tuple[Any, str, Callable[[Any], Any]]]:
    """(owner, attribute, original -> wrapper) for every timed call."""
    from repro.cluster import fleet
    from repro.robustness.faults import FaultInjector
    from repro.robustness.shedding import LoadShedder
    from repro.runtime.engine import SequentialEngine
    from repro.runtime.metrics import StreamingQoS
    from repro.runtime.workload import WorkloadGenerator
    from repro.server import net
    from repro.server.client import AsyncNetClient
    from repro.server.protocol import BinaryCodecV2, FrameDecoder
    from repro.server.responder import Responder

    t = tracer
    return [
        (SequentialEngine, "run_stream", lambda f: _run_stream(t, f)),
        (WorkloadGenerator, "iter_arrival_chunks", lambda f: _iter_chunks(t, f)),
        (fleet.FleetOrchestrator, "shard",
         lambda f: _spanned(t, "cluster.shard", f)),
        # replay() resolves this module attribute at call time: the one
        # private seam, and the only way to see per-node replay times.
        (fleet, "_serve_node", lambda f: _spanned(t, "cluster.node_replay", f)),
        (StreamingQoS, "merge", lambda f: _spanned(t, "metrics.merge", f)),
        (FaultInjector, "decide", lambda f: _folded(t, "robustness.decide", f)),
        (LoadShedder, "select_victims",
         lambda f: _folded(t, "robustness.select_victims", f)),
        (AsyncNetClient, "submit",
         lambda f: _async(t, "client.send", f, fold=True)),
        (AsyncNetClient, "submit_batch",
         lambda f: _async(t, "client.send", f, fold=False)),
        (AsyncNetClient, "flush", lambda f: _async(t, "client.flush", f, False)),
        (AsyncNetClient, "drain", lambda f: _async(t, "client.wait", f, False)),
        (AsyncNetClient, "wait_received",
         lambda f: _async(t, "client.wait", f, fold=False)),
        (FrameDecoder, "feed",
         lambda f: _by_thread(
             t, "protocol.decode_client", "protocol.decode_server", f)),
        # The server encodes results on the engine thread through these
        # two names: JSON frames one per result, binary ones per batch.
        (net, "encode_frame",
         lambda f: _folded(t, "protocol.encode_server", f)),
        (BinaryCodecV2, "encode_result_batch",
         lambda f: classmethod(
             _folded(t, "protocol.encode_server", f.__func__))),
        (Responder, "settle_batch",
         lambda f: _spanned(t, "responder.settle_batch", f)),
    ]


@contextmanager
def installed(tracer: Tracer | None) -> Iterator[None]:
    """Swap in every timing wrapper for the block (nothing when
    ``tracer`` is None); originals are restored on exit. A seam the
    program no longer has is an error: its layer would read as zero and
    its time would hide in a residual."""
    if tracer is None:
        yield
        return
    patched: list[tuple[Any, str, Any]] = []
    try:
        for owner, attr, wrap in _seams(tracer):
            original = vars(owner).get(attr)
            if original is None:
                raise LookupError(
                    f"{getattr(owner, '__name__', owner)}.{attr} is gone: "
                    "the traced run cannot time that layer"
                )
            setattr(owner, attr, wrap(original))
            patched.append((owner, attr, original))
        yield
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


def originals() -> dict[str, Any]:
    """Every seam's current attribute, keyed ``owner.attr`` — equal
    before and after :func:`installed` when nothing leaked."""
    return {
        f"{getattr(owner, '__name__', owner)}.{attr}": vars(owner).get(attr)
        for owner, attr, _ in _seams(Tracer())
    }
