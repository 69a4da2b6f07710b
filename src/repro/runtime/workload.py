"""Workload generation: the paper's six Poisson scenarios (Table 2).

Requests arrive with exponential inter-arrival gaps of mean ``lambda_ms``
and draw their model uniformly from the evaluated set; the total request
count is 1000 (§5.1). The same seeded arrival schedule is replayed across
every policy so comparisons are paired.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.profiling.records import ModelProfile
from repro.scheduling.request import Request, RequestPool, TaskSpec
from repro.types import RequestClass
from repro.utils.rng import rng_from


@dataclass(frozen=True)
class Scenario:
    """One Table-2 scenario."""

    name: str
    lambda_ms: float  # mean request inter-arrival time
    load: str  # "low" | "high" (the table's load band)
    n_requests: int = 1000

    def __post_init__(self) -> None:
        if self.lambda_ms <= 0:
            raise SimulationError("lambda_ms must be positive")
        if self.n_requests < 1:
            raise SimulationError("n_requests must be >= 1")


#: Table 2 verbatim: lambda from 160 ms (low load) to 110 ms (high load).
SCENARIOS: tuple[Scenario, ...] = (
    Scenario("scenario1", 160.0, "low"),
    Scenario("scenario2", 150.0, "low"),
    Scenario("scenario3", 140.0, "high"),
    Scenario("scenario4", 130.0, "high"),
    Scenario("scenario5", 120.0, "high"),
    Scenario("scenario6", 110.0, "high"),
)


def scenario_by_name(name: str) -> Scenario:
    for s in SCENARIOS:
        if s.name == name:
            return s
    raise SimulationError(
        f"unknown scenario {name!r}; one of {[s.name for s in SCENARIOS]}"
    )


@dataclass(frozen=True)
class WorkloadItem:
    arrival_ms: float
    model_name: str


class WorkloadGenerator:
    """Seeded Poisson arrival schedule over a model mix.

    Each deployed task generates requests *independently* with mean
    inter-arrival ``lambda_ms`` (§4.1: "each generating requests
    independently"); the aggregate stream therefore has mean gap
    ``lambda_ms / n_models``. This is what makes Table 2's hardware
    tolerance note work out: at lambda = 90 ms the five evaluated models
    produce an 18 ms aggregate gap against a ~28 ms mean service time,
    so the queue grows without bound.
    """

    #: Per-model block size for :meth:`iter_arrivals`; large enough that
    #: RNG-call and cumsum fixed costs amortise away, small enough that a
    #: five-model merge holds well under a megabyte of float64 state.
    DEFAULT_CHUNK = 8192

    def __init__(self, models: tuple[str, ...], seed: int = 0):
        if not models:
            raise SimulationError("need at least one model in the mix")
        self.models = models
        self.seed = seed

    def _model_counts(self, n_requests: int) -> tuple[int, ...]:
        """Round-robin split of ``n_requests`` across the model mix.

        The first ``n % m`` models take one extra request, so the counts
        always sum to exactly ``n_requests`` (the old ``n // m`` floor
        undercounted whenever the mix size does not divide the total —
        999 of 1000 for a three-model mix).
        """
        base, extra = divmod(n_requests, len(self.models))
        return tuple(
            base + 1 if i < extra else base for i in range(len(self.models))
        )

    def generate(self, scenario: Scenario) -> list[WorkloadItem]:
        """Materialise the full arrival schedule (the paper-scale path)."""
        items: list[WorkloadItem] = []
        for name, count in zip(self.models, self._model_counts(scenario.n_requests)):
            if count == 0:
                continue
            rng = rng_from(self.seed, "workload", scenario.name, name)
            gaps = rng.exponential(scenario.lambda_ms, size=count)
            for t in np.cumsum(gaps):
                items.append(WorkloadItem(arrival_ms=float(t), model_name=name))
        items.sort(key=lambda it: it.arrival_ms)
        return items

    def _poisson_stream(
        self, scenario: Scenario, name: str, model_idx: int, count: int, chunk: int
    ) -> Iterator[tuple[float, int, str]]:
        """One model's arrival times in blocks of ``chunk`` draws.

        Identical to :meth:`generate`'s per-model column: splitting
        ``rng.exponential`` into several calls continues the PCG64 stream
        sample-for-sample, and seeding each block's cumsum with the
        previous block's last arrival replays the same left-to-right float
        additions as one whole-array ``np.cumsum``. Yields
        ``(arrival_ms, model_idx, name)`` so a heap-merge breaks ties on
        the model's position in the mix — the same order a stable sort
        gives :meth:`generate`.
        """
        rng = rng_from(self.seed, "workload", scenario.name, name)
        last = 0.0
        produced = 0
        while produced < count:
            size = min(chunk, count - produced)
            gaps = rng.exponential(scenario.lambda_ms, size=size)
            times = np.cumsum(np.concatenate(((last,), gaps)))[1:]
            last = float(times[-1])
            for t in times:
                yield (float(t), model_idx, name)
            produced += size

    def iter_arrivals(
        self, scenario: Scenario, chunk_size: int = DEFAULT_CHUNK
    ) -> Iterator[tuple[float, str]]:
        """Lazily yield ``(arrival_ms, model_name)`` in arrival order.

        Bit-identical sequence to :meth:`generate` for the same seed, at
        O(models x chunk_size) peak memory instead of O(n_requests): each
        model's Poisson process is drawn in NumPy blocks and the per-model
        streams are heap-merged on ``(time, model position)``. This is the
        workload side of the million-request path — pair it with
        :func:`materialize_stream` and ``SequentialEngine.run_stream``.
        """
        if chunk_size < 1:
            raise SimulationError("chunk_size must be >= 1")
        counts = self._model_counts(scenario.n_requests)
        streams = [
            self._poisson_stream(scenario, name, idx, count, chunk_size)
            for idx, (name, count) in enumerate(zip(self.models, counts))
            if count > 0
        ]
        for t, _, name in heapq.merge(*streams):
            yield (t, name)

    def iter_arrival_chunks(
        self, scenario: Scenario, chunk_size: int = DEFAULT_CHUNK
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The merged arrival schedule as ``(times, model_indices)`` numpy
        chunks — the structure-of-arrays feed of the kernel's fast lane.

        Concatenating the chunks reproduces :meth:`iter_arrivals`'s
        ``(t, model)`` sequence bit-for-bit: each model's times come from
        the exact :meth:`_poisson_stream` recipe (same RNG call sizes,
        same seeded cumsum), and each round merges with one stable
        ``lexsort`` on ``(time, model position)`` — the heap's tie order.

        Per round, every model keeps a buffered block of future arrivals;
        the *horizon* is the lowest last-buffered time among models that
        can still draw more. Everything strictly below the horizon is
        safe to emit (any future draw of any model lands at or above it;
        strictness keeps a zero-gap tie at the horizon ordered by model
        position). When nothing clears the horizon, the constraining
        stream is grown until it moves or exhausts.
        """
        if chunk_size < 1:
            raise SimulationError("chunk_size must be >= 1")
        counts = self._model_counts(scenario.n_requests)
        lam = scenario.lambda_ms
        model_pos: list[int] = []
        rngs: list[np.random.Generator] = []
        lasts: list[float] = []
        produced: list[int] = []
        totals: list[int] = []
        bufs: list[np.ndarray] = []
        for idx, (name, count) in enumerate(zip(self.models, counts)):
            if count == 0:
                continue
            model_pos.append(idx)
            rngs.append(rng_from(self.seed, "workload", scenario.name, name))
            lasts.append(0.0)
            produced.append(0)
            totals.append(count)
            bufs.append(np.empty(0, dtype=np.float64))
        m = len(model_pos)

        def refill(k: int) -> None:
            size = min(chunk_size, totals[k] - produced[k])
            gaps = rngs[k].exponential(lam, size=size)
            times = np.cumsum(np.concatenate(((lasts[k],), gaps)))[1:]
            lasts[k] = float(times[-1])
            produced[k] += size
            bufs[k] = np.concatenate((bufs[k], times)) if bufs[k].size else times

        while True:
            for k in range(m):
                if not bufs[k].size and produced[k] < totals[k]:
                    refill(k)
            if not any(buf.size for buf in bufs):
                return
            horizon = math.inf
            for k in range(m):
                if produced[k] < totals[k]:
                    last_buffered = float(bufs[k][-1])
                    if last_buffered < horizon:
                        horizon = last_buffered
            take = [
                (
                    int(np.searchsorted(bufs[k], horizon, side="left"))
                    if horizon != math.inf
                    else bufs[k].size
                )
                for k in range(m)
            ]
            if not sum(take):
                # Every buffered arrival sits at or past the horizon: grow
                # the constraining stream(s) until the horizon moves.
                for k in range(m):
                    if (
                        produced[k] < totals[k]
                        and bufs[k].size
                        and float(bufs[k][-1]) == horizon
                    ):
                        refill(k)
                continue
            t_parts = [bufs[k][: take[k]] for k in range(m) if take[k]]
            idx_parts = [
                np.full(take[k], model_pos[k], dtype=np.int64)
                for k in range(m)
                if take[k]
            ]
            for k in range(m):
                if take[k]:
                    bufs[k] = bufs[k][take[k] :]
            t_cat = np.concatenate(t_parts)
            idx_cat = np.concatenate(idx_parts)
            order = np.lexsort((idx_cat, t_cat))
            yield t_cat[order], idx_cat[order]


def prema_chunk_plan(profile: ModelProfile, n_chunks: int = 4) -> tuple[float, ...]:
    """PREMA's checkpoint plan: chunks of (nearly) equal *operator count*.

    PREMA checkpoints at layer-count boundaries without knowledge of
    per-layer times, so its chunks are even in operators but uneven in
    time — the exact unevenness SPLIT's GA removes. No staging overhead is
    charged here; PREMA's checkpoint cost is modelled as the scheduler's
    ``preemption_overhead_ms`` (paid only when preemption happens).
    """
    n_chunks = min(n_chunks, profile.n_ops)
    edges = np.linspace(0, profile.n_ops, n_chunks + 1).round().astype(int)
    prefix = np.concatenate(([0.0], profile.prefix_ms))
    times = np.diff(prefix[edges])
    return tuple(float(t) for t in times if t > 0) or (profile.total_ms,)


def build_task_specs(
    profiles: dict[str, ModelProfile],
    split_plans: dict[str, tuple[float, ...]] | None = None,
    plan_kind: str = "vanilla",
    request_classes: dict[str, RequestClass] | None = None,
    prema_chunks: int = 4,
    alphas: dict[str, float] | None = None,
) -> dict[str, TaskSpec]:
    """Per-policy task catalogue.

    ``plan_kind``:
      * ``"vanilla"`` — whole model as one block (ClockWork, FIFO, RT-A);
      * ``"split"`` — the GA block plans in ``split_plans`` (models absent
        from the dict stay unsplit);
      * ``"prema"`` — equal-operator-count checkpoint chunks;
      * ``"operator"`` — kernel-level oracle (REEF-style, §6): long models
        preemptible at *every* operator boundary with no boundary cost —
        physically requires hardware-specific kernel slicing, included as
        the upper bound SPLIT approaches.
    """
    specs: dict[str, TaskSpec] = {}
    for name, profile in profiles.items():
        rc = (request_classes or {}).get(name, RequestClass.SHORT)
        if plan_kind == "split" and split_plans and name in split_plans:
            blocks = split_plans[name]
        elif plan_kind == "prema":
            blocks = prema_chunk_plan(profile, prema_chunks)
        elif plan_kind == "operator":
            if rc is RequestClass.LONG:
                blocks = tuple(float(t) for t in profile.op_times_ms if t > 0)
            else:
                blocks = (profile.total_ms,)
        elif plan_kind in ("vanilla", "split"):
            blocks = (profile.total_ms,)
        else:
            raise SimulationError(f"unknown plan_kind {plan_kind!r}")
        specs[name] = TaskSpec(
            name=name,
            ext_ms=profile.total_ms,
            blocks_ms=blocks,
            request_class=rc,
            alpha=(alphas or {}).get(name, 1.0),
        )
    return specs


def materialize_requests(
    items: list[WorkloadItem], specs: dict[str, TaskSpec]
) -> list[tuple[float, Request]]:
    """Fresh Request objects for one engine run (engines mutate requests)."""
    out = []
    for item in items:
        spec = specs.get(item.model_name)
        if spec is None:
            raise SimulationError(f"no TaskSpec for model {item.model_name!r}")
        out.append((item.arrival_ms, Request(task=spec, arrival_ms=item.arrival_ms)))
    return out


def materialize_stream(
    arrivals: Iterable[tuple[float, str]], specs: dict[str, TaskSpec]
) -> Iterator[tuple[float, Request]]:
    """Lazily build fresh Requests from an ``(arrival_ms, model_name)`` stream.

    The streaming counterpart of :func:`materialize_requests`: each
    Request exists only between its creation here and its terminal event
    in ``SequentialEngine.run_stream``, so a million-request trace never
    holds more live Requests than the queue is deep.
    """
    for arrival_ms, model_name in arrivals:
        spec = specs.get(model_name)
        if spec is None:
            raise SimulationError(f"no TaskSpec for model {model_name!r}")
        yield (arrival_ms, Request(task=spec, arrival_ms=arrival_ms))


class RequestChunkStream:
    """Chunk-capable arrival source (the kernel's ``ChunkSource`` shape).

    Wraps :meth:`WorkloadGenerator.iter_arrival_chunks` output — or any
    iterator of ``(times, model_indices)`` array pairs — plus a
    model-position → :class:`TaskSpec` table. :meth:`next_chunk` validates
    each chunk (same :class:`SimulationError` messages as
    ``validated_stream``) and materialises Requests, drawing from ``pool``
    when one is given so steady-state allocation is ~zero.

    A pooled stream must only feed sinks that retain no terminal requests
    (``StreamingQoS`` qualifies; the batch engine's result lists do not) —
    the kernel recycles each request right after its sink call. Iterating
    the stream element-wise yields the same validated ``(t, request)``
    pairs, for consumers that take arrivals one at a time.
    """

    def __init__(
        self,
        chunks: Iterator[tuple[np.ndarray, np.ndarray]],
        specs_by_index: Sequence[TaskSpec],
        pool: RequestPool | None = None,
    ):
        self._chunks = chunks
        self._specs: list[TaskSpec] = list(specs_by_index)
        self.pool = pool
        self._last = 0.0

    def next_chunk(self) -> tuple[list[float], list[Request]] | None:
        nxt = next(self._chunks, None)
        if nxt is None:
            return None
        t_arr = np.asarray(nxt[0], dtype=np.float64)
        times: list[float] = t_arr.tolist()
        if times:
            # Vectorised equivalent of validated_stream's element checks:
            # the minimum is NaN when any time is, and a chunk that passes
            # the order check ends on its largest time.
            if (
                not 0.0 <= float(t_arr.min())
                or not times[-1] < math.inf
                or times[0] < self._last
                or bool(np.any(np.diff(t_arr) < 0.0))
            ):
                self._raise_invalid(times)
            self._last = times[-1]
        specs = self._specs
        pool = self.pool
        indices: list[int] = np.asarray(nxt[1]).tolist()
        if pool is not None:
            take = pool.take
            requests = [take(specs[k], t) for t, k in zip(times, indices)]
        else:
            requests = [
                Request(task=specs[k], arrival_ms=t)
                for t, k in zip(times, indices)
            ]
        return times, requests

    def _raise_invalid(self, times: list[float]) -> None:
        """Pinpoint the first offending time, validated_stream-style."""
        last = self._last
        for t in times:
            if t < 0:
                raise SimulationError(f"negative arrival time {t}")
            if not t < math.inf:
                raise SimulationError(f"non-finite arrival time {t}")
            if t < last:
                raise SimulationError(
                    f"arrival stream not time-ordered: {t} after {last}"
                )
            last = t
        raise SimulationError("arrival chunk failed validation")

    def __iter__(self) -> Iterator[tuple[float, Request]]:
        while True:
            chunk = self.next_chunk()
            if chunk is None:
                return
            yield from zip(chunk[0], chunk[1])


def materialize_chunk_stream(
    generator: WorkloadGenerator,
    scenario: Scenario,
    specs: dict[str, TaskSpec],
    chunk_size: int = WorkloadGenerator.DEFAULT_CHUNK,
    pool: RequestPool | None = None,
) -> RequestChunkStream:
    """The chunked counterpart of :func:`materialize_stream`: arrival
    chunks from ``generator`` joined with its model mix's TaskSpecs.
    Missing specs raise up front (the stream could not deliver their
    requests later anyway)."""
    table: list[TaskSpec] = []
    for name in generator.models:
        spec = specs.get(name)
        if spec is None:
            raise SimulationError(f"no TaskSpec for model {name!r}")
        table.append(spec)
    return RequestChunkStream(
        generator.iter_arrival_chunks(scenario, chunk_size), table, pool=pool
    )
