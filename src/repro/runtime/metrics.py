"""QoS metrics: latency-violation rate and jitter (§5.2).

* **Latency violation rate** — a request violates when its response ratio
  (end-to-end latency over isolated execution time, Eq. 3) exceeds the
  target multiplier alpha; the paper sweeps alpha in [2, 20] (Fig. 6).
  Dropped requests count as violations at every alpha.
* **Jitter** — the standard deviation of per-request latency, reported per
  model (Fig. 7). With deterministic block times all latency dispersion
  comes from queueing/preemption, which is precisely the stability the
  paper's metric captures.

Two aggregation modes:

* :class:`QoSReport` — the batch view over a full
  :func:`collect_records` list; exact, holds every record, right for the
  paper's 1000-request scenarios.
* :class:`StreamingQoS` — a single-pass accumulator for million-request
  traces, fed one terminal request at a time by
  :meth:`SequentialEngine.run_stream`. It keeps O(1) state per request:
  fixed-alpha-grid violation counts, per-model Welford latency moments,
  fixed-resolution latency histograms (percentiles/jitter without
  retaining latencies), and the robustness conservation counters.
  Violation curves match :class:`QoSReport` bit-for-bit on the shared
  grid; moment-based statistics agree to float accumulation order.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.errors import SimulationError
from repro.runtime.engine import EngineResult
from repro.scheduling.request import Request
from repro.utils.stats import OnlineStats, summarize

#: Fig. 6's latency-target sweep (alpha in [2, 20]); numerically identical
#: to ``repro.experiments.config.ALPHA_GRID``. StreamingQoS counts
#: violations on this grid by default so streamed runs reproduce the
#: figure's curves without retaining records.
DEFAULT_ALPHA_GRID: tuple[float, ...] = tuple(
    float(a) for a in np.arange(2.0, 20.5, 1.0)
)


@dataclass(frozen=True)
class RequestRecord:
    """Immutable per-request outcome."""

    request_id: int
    model: str
    arrival_ms: float
    finish_ms: float | None  # None = not served (rejected/shed/failed/...)
    ext_ms: float
    preemptions: int = 0
    #: Task-relative target multiplier (TaskSpec.alpha); the effective
    #: latency target at sweep point a is ``a * alpha * ext_ms``.
    alpha: float = 1.0
    #: Terminal outcome: "served", "rejected" (admission), "shed"
    #: (overload eviction), "failed" (fault injection), or "timed_out".
    outcome: str = "served"
    #: Block failures retried before the terminal outcome.
    retries: int = 0

    @property
    def dropped(self) -> bool:
        return self.finish_ms is None

    @property
    def e2e_ms(self) -> float:
        if self.finish_ms is None:
            return float("inf")
        return self.finish_ms - self.arrival_ms

    @property
    def response_ratio(self) -> float:
        return self.e2e_ms / self.ext_ms

    def violates(self, alpha: float) -> bool:
        """Whether the request misses the target ``alpha x self.alpha x ext``."""
        return self.response_ratio > alpha * self.alpha


def collect_records(result: EngineResult) -> list[RequestRecord]:
    """Freeze an engine run's outcome into records.

    Only served requests carry a finish time; every other outcome counts
    as a violation at any target (``finish_ms=None``).
    """

    def freeze(req: Request, outcome: str) -> RequestRecord:
        return RequestRecord(
            request_id=req.request_id,
            model=req.task_type,
            arrival_ms=req.arrival_ms,
            finish_ms=req.finish_ms if outcome == "served" else None,
            ext_ms=req.ext_ms,
            preemptions=req.preemptions,
            alpha=req.task.alpha,
            outcome=outcome,
            retries=req.retries,
        )

    records = [freeze(r, "served") for r in result.completed]
    records += [freeze(r, "rejected") for r in result.dropped]
    records += [freeze(r, "failed") for r in result.failed]
    records += [freeze(r, "timed_out") for r in result.timed_out]
    records += [freeze(r, "shed") for r in result.shed]
    records.sort(key=lambda r: r.arrival_ms)
    return records


def robustness_totals(result: EngineResult) -> dict[str, int]:
    """Outcome counters plus the conservation identity over one run.

    ``submitted == served + rejected + shed + failed + timed_out`` holds by
    construction (every request lands in exactly one bucket); the chaos
    tests assert it against the number of requests they submitted.
    """
    totals = {
        "served": len(result.completed),
        "rejected": len(result.dropped),
        "shed": len(result.shed),
        "failed": len(result.failed),
        "timed_out": len(result.timed_out),
        "retries": result.retries,
        "stalls": result.stalls,
        "fault_fails": result.fault_fails,
        "fault_drops": result.fault_drops,
    }
    totals["submitted"] = (
        totals["served"]
        + totals["rejected"]
        + totals["shed"]
        + totals["failed"]
        + totals["timed_out"]
    )
    return totals


@dataclass
class QoSReport:
    """Aggregated QoS view over one run's records."""

    records: list[RequestRecord]
    _rr: np.ndarray = field(init=False, repr=False)
    _alphas: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._rr = np.array([r.response_ratio for r in self.records])
        self._alphas = np.array([r.alpha for r in self.records])

    @property
    def n_requests(self) -> int:
        return len(self.records)

    @property
    def n_dropped(self) -> int:
        return sum(1 for r in self.records if r.dropped)

    def violation_rate(self, alpha: float) -> float:
        """Fraction of requests whose RR exceeds their target multiplier
        ``alpha x task.alpha`` (dropped requests always violate)."""
        if not self.records:
            return float("nan")
        return float(np.mean(self._rr > alpha * self._alphas))

    def violation_curve(self, alphas) -> np.ndarray:
        """Violation rate for each alpha (Fig. 6's series).

        One broadcast comparison over the (alpha, record) plane replaces
        the per-alpha rescans of the record array; each row's mean is the
        same boolean-count division :meth:`violation_rate` computes, so
        the curve is bit-identical to the scalar path.
        """
        alphas = np.asarray(alphas, dtype=float)
        if not self.records:
            return np.full(alphas.shape, np.nan)
        exceeds = self._rr[None, :] > alphas[:, None] * self._alphas[None, :]
        return exceeds.mean(axis=1)

    def models(self) -> tuple[str, ...]:
        return tuple(sorted({r.model for r in self.records}))

    def latencies_for(self, model: str | None = None) -> np.ndarray:
        """Finite end-to-end latencies, optionally for one model."""
        return np.array(
            [
                r.e2e_ms
                for r in self.records
                if not r.dropped and (model is None or r.model == model)
            ]
        )

    def jitter_ms(self, model: str | None = None) -> float:
        """Std of end-to-end latency (Fig. 7's per-model metric)."""
        lat = self.latencies_for(model)
        return float(lat.std()) if lat.size else float("nan")

    def mean_response_ratio(self, model: str | None = None) -> float:
        rr = [
            r.response_ratio
            for r in self.records
            if not r.dropped and (model is None or r.model == model)
        ]
        return float(np.mean(rr)) if rr else float("nan")

    def latency_summary(self, model: str | None = None) -> dict[str, float]:
        return summarize(self.latencies_for(model))

    def preemption_count(self) -> int:
        return sum(r.preemptions for r in self.records)


class StreamingQoS:
    """Single-pass QoS accumulator with O(1) memory per request.

    Feed it terminal requests — either as the ``sink`` of
    :meth:`SequentialEngine.run_stream` (:meth:`observe`) or from frozen
    :class:`RequestRecord` objects (:meth:`add_record`) — and read the same
    headline metrics :class:`QoSReport` computes, without retaining any
    per-request state:

    * **Violation curve** on a fixed alpha grid. For each request the
      effective targets ``grid x task.alpha`` form an ascending array, so
      ``searchsorted(thresholds, rr)`` yields in one O(log G) probe how
      many grid points the request violates; a suffix sum over those
      bucket counts recovers the per-alpha violation counts. Counts are
      exact integers and the final division matches
      :meth:`QoSReport.violation_rate` bit-for-bit on grid points.
    * **Latency moments** per model and global via Welford accumulators
      (:class:`~repro.utils.stats.OnlineStats`; population variance, same
      estimator as ``np.std``) — mean latency and Fig. 7's jitter agree
      with the batch report to float accumulation order.
    * **Latency percentiles** from fixed-resolution histograms
      (``hist_bin_ms`` wide bins plus an overflow bucket) — exact to one
      bin width.
    * **Conservation counters** mirroring :func:`robustness_totals`'s
      per-request outcome buckets, so long traces can assert
      ``submitted == served + rejected + shed + failed + timed_out``.
    """

    def __init__(
        self,
        alphas: Sequence[float] | None = None,
        hist_bin_ms: float = 1.0,
        hist_bins: int = 65536,
    ):
        grid = np.asarray(
            DEFAULT_ALPHA_GRID if alphas is None else alphas, dtype=float
        )
        if grid.ndim != 1 or grid.size == 0:
            raise SimulationError("alpha grid must be a non-empty 1-D sequence")
        if np.any(np.diff(grid) <= 0.0):
            raise SimulationError("alpha grid must be strictly increasing")
        if hist_bin_ms <= 0.0 or hist_bins < 1:
            raise SimulationError("histogram needs positive bin width and count")
        self._grid = grid
        self._hist_bin_ms = float(hist_bin_ms)
        self._hist_bins = int(hist_bins)
        # _exceed[k] = number of requests violating exactly the first k
        # grid points; violations at grid index j = sum over k > j.
        self._exceed = np.zeros(grid.size + 1, dtype=np.int64)
        # task.alpha -> ascending effective-target list (grid * alpha),
        # kept as a plain list: bisect probes it in ~0.2us where a scalar
        # np.searchsorted pays several us of call overhead per request.
        self._thresholds: dict[float, list[float]] = {}
        self._latency = OnlineStats()
        self._latency_by_model: dict[str, OnlineStats] = {}
        self._rr_sum = 0.0
        self._rr_sum_by_model: dict[str, float] = {}
        self._hist = np.zeros(self._hist_bins + 1, dtype=np.int64)
        self._hist_by_model: dict[str, np.ndarray] = {}
        self._outcomes: dict[str, int] = {
            "served": 0,
            "rejected": 0,
            "shed": 0,
            "failed": 0,
            "timed_out": 0,
        }
        self._retries = 0
        self._preemptions = 0
        self._n = 0

    # -- ingestion -------------------------------------------------------

    def observe(self, request: Request, outcome: str) -> None:
        """Engine sink: fold one terminal request into the accumulator."""
        if outcome == "served":
            if request.finish_ms is None:
                raise SimulationError(
                    f"request {request.request_id} served without a finish time"
                )
            e2e_ms = request.finish_ms - request.arrival_ms
        else:
            e2e_ms = math.inf
        self._add(
            model=request.task_type,
            e2e_ms=e2e_ms,
            ext_ms=request.ext_ms,
            task_alpha=request.task.alpha,
            outcome=outcome,
            retries=request.retries,
            preemptions=request.preemptions,
        )

    def observe_batch(
        self, requests: Sequence[Request], outcomes: Sequence[str]
    ) -> None:
        """Batched sink: fold a chunk of terminal requests in order.

        Observably identical to calling :meth:`observe` element by element
        in the same order — integer counts (violations, histograms,
        outcomes) are computed with the same IEEE arithmetic via
        vectorised equivalents (``searchsorted`` == ``bisect_left``,
        ``astype(int64)`` == ``int()`` truncation for non-negative
        latencies), and the order-sensitive float accumulators (Welford
        moments, response-ratio sums) fold sequentially over each
        accumulator's own subsequence, which is exactly the state repeated
        scalar adds leave behind. The kernel's batched fast lane
        resolves this method by naming convention (``observe`` ->
        ``observe_batch``) and delivers whole settlement chunks here.
        """
        n = len(requests)
        if n == 0:
            return
        if len(outcomes) != n:
            raise SimulationError(
                f"observe_batch: {n} requests but {len(outcomes)} outcomes"
            )
        outcome_counts = self._outcomes
        e2e: list[float] = []
        ext: list[float] = []
        alphas: list[float] = []
        models: list[str] = []
        retries = 0
        preemptions = 0
        for req, outcome in zip(requests, outcomes):
            if outcome == "served":
                finish = req.finish_ms
                if finish is None:
                    raise SimulationError(
                        f"request {req.request_id} served without a finish time"
                    )
                e2e.append(finish - req.arrival_ms)
            else:
                if outcome not in outcome_counts:
                    raise SimulationError(
                        f"unknown terminal outcome {outcome!r}"
                    )
                e2e.append(math.inf)
            outcome_counts[outcome] += 1
            task = req.task
            ext.append(task.ext_ms)
            alphas.append(task.alpha)
            models.append(task.name)
            retries += req.retries
            preemptions += req.preemptions
        self._n += n
        self._retries += retries
        self._preemptions += preemptions

        e2e_arr = np.asarray(e2e, dtype=np.float64)
        rr_arr = e2e_arr / np.asarray(ext, dtype=np.float64)
        alpha_arr = np.asarray(alphas, dtype=np.float64)

        # Violation buckets, grouped by distinct task alpha (usually one).
        for task_alpha in dict.fromkeys(alphas):
            thresholds = self._thresholds.get(task_alpha)
            if thresholds is None:
                thresholds = (self._grid * task_alpha).tolist()
                self._thresholds[task_alpha] = thresholds
            mask = alpha_arr == task_alpha
            buckets = np.searchsorted(
                np.asarray(thresholds), rr_arr[mask], side="left"
            )
            np.add.at(self._exceed, buckets, 1)

        served_mask = e2e_arr != math.inf
        if not served_mask.any():
            return
        srv_e2e = e2e_arr[served_mask]
        srv_e2e_list: list[float] = srv_e2e.tolist()
        srv_rr_list: list[float] = rr_arr[served_mask].tolist()
        self._latency.add_many(srv_e2e_list)
        rr_sum = self._rr_sum
        for rr in srv_rr_list:
            rr_sum += rr
        self._rr_sum = rr_sum
        hist_buckets = np.minimum(
            (srv_e2e / self._hist_bin_ms).astype(np.int64), self._hist_bins
        )
        np.add.at(self._hist, hist_buckets, 1)

        # Per-model subsequences, each folded in its own arrival order.
        by_model_pos: dict[str, list[int]] = {}
        for pos, gi in enumerate(np.nonzero(served_mask)[0].tolist()):
            by_model_pos.setdefault(models[gi], []).append(pos)
        for model, positions in by_model_pos.items():
            by_model = self._latency_by_model.get(model)
            if by_model is None:
                by_model = self._latency_by_model[model] = OnlineStats()
                self._rr_sum_by_model[model] = 0.0
                self._hist_by_model[model] = np.zeros(
                    self._hist_bins + 1, dtype=np.int64
                )
            by_model.add_many([srv_e2e_list[p] for p in positions])
            rr_sum = self._rr_sum_by_model[model]
            for p in positions:
                rr_sum += srv_rr_list[p]
            self._rr_sum_by_model[model] = rr_sum
            np.add.at(self._hist_by_model[model], hist_buckets[positions], 1)

    def add_record(self, record: RequestRecord) -> None:
        """Fold one frozen :class:`RequestRecord` into the accumulator."""
        self._add(
            model=record.model,
            e2e_ms=record.e2e_ms,
            ext_ms=record.ext_ms,
            task_alpha=record.alpha,
            outcome=record.outcome,
            retries=record.retries,
            preemptions=record.preemptions,
        )

    def _add(
        self,
        *,
        model: str,
        e2e_ms: float,
        ext_ms: float,
        task_alpha: float,
        outcome: str,
        retries: int,
        preemptions: int,
    ) -> None:
        if outcome not in self._outcomes:
            raise SimulationError(f"unknown terminal outcome {outcome!r}")
        self._n += 1
        self._outcomes[outcome] += 1
        self._retries += retries
        self._preemptions += preemptions

        rr = e2e_ms / ext_ms
        thresholds = self._thresholds.get(task_alpha)
        if thresholds is None:
            # Same float product QoSReport's comparison uses
            # (grid value x task alpha, one IEEE multiply), so the
            # strict > below reproduces its verdict exactly.
            thresholds = (self._grid * task_alpha).tolist()
            self._thresholds[task_alpha] = thresholds
        # Number of grid points with threshold < rr; bisect_left keeps the
        # comparison strict, matching ``rr > alpha * task_alpha``
        # (a dropped request's rr = inf violates every grid point).
        self._exceed[bisect_left(thresholds, rr)] += 1

        if e2e_ms == math.inf:
            return
        self._latency.add(e2e_ms)
        by_model = self._latency_by_model.get(model)
        if by_model is None:
            by_model = self._latency_by_model[model] = OnlineStats()
            self._rr_sum_by_model[model] = 0.0
            self._hist_by_model[model] = np.zeros(
                self._hist_bins + 1, dtype=np.int64
            )
        by_model.add(e2e_ms)
        self._rr_sum += rr
        self._rr_sum_by_model[model] += rr
        bucket = min(int(e2e_ms / self._hist_bin_ms), self._hist_bins)
        self._hist[bucket] += 1
        self._hist_by_model[model][bucket] += 1

    # -- aggregation -----------------------------------------------------

    def merge(self, other: "StreamingQoS") -> "StreamingQoS":
        """Fold another accumulator into this one (fleet aggregation).

        Both accumulators must share the alpha grid and histogram shape.
        Integer state (violation buckets, histograms, outcome counters)
        adds exactly; latency moments combine via
        :meth:`~repro.utils.stats.OnlineStats.merge` (Chan's parallel
        Welford). Merging ``other`` into a freshly-constructed accumulator
        copies its state field-for-field, so a 1-node fleet report is
        float-identical to the node's own accumulator.
        """
        if not np.array_equal(self._grid, other._grid):
            raise SimulationError("cannot merge StreamingQoS: alpha grids differ")
        if (
            self._hist_bin_ms != other._hist_bin_ms
            or self._hist_bins != other._hist_bins
        ):
            raise SimulationError(
                "cannot merge StreamingQoS: histogram shapes differ"
            )
        self._exceed += other._exceed
        for task_alpha, thresholds in other._thresholds.items():
            self._thresholds.setdefault(task_alpha, thresholds)
        self._latency.merge(other._latency)
        self._rr_sum += other._rr_sum
        self._hist += other._hist
        for model, stats in other._latency_by_model.items():
            mine = self._latency_by_model.get(model)
            if mine is None:
                mine = self._latency_by_model[model] = OnlineStats()
                self._rr_sum_by_model[model] = 0.0
                self._hist_by_model[model] = np.zeros(
                    self._hist_bins + 1, dtype=np.int64
                )
            mine.merge(stats)
            self._rr_sum_by_model[model] += other._rr_sum_by_model[model]
            self._hist_by_model[model] += other._hist_by_model[model]
        for outcome, count in other._outcomes.items():
            self._outcomes[outcome] += count
        self._retries += other._retries
        self._preemptions += other._preemptions
        self._n += other._n
        return self

    # -- violation metrics ----------------------------------------------

    @property
    def alphas(self) -> np.ndarray:
        return self._grid.copy()

    def violation_counts(self) -> np.ndarray:
        """Exact violation counts per grid alpha (suffix sum of buckets)."""
        # _exceed[k] counts requests violating grid[0..k-1]; violations at
        # grid[j] are contributed by every bucket k > j.
        suffix = np.cumsum(self._exceed[::-1])[::-1]
        return suffix[1:]

    def violation_curve(self, alphas: Sequence[float] | None = None) -> np.ndarray:
        """Violation rate per alpha, restricted to the configured grid."""
        if self._n == 0:
            size = self._grid.size if alphas is None else len(alphas)
            return np.full(size, np.nan)
        curve = self.violation_counts() / self._n
        if alphas is None:
            return curve
        return np.array([curve[self._grid_index(a)] for a in alphas])

    def violation_rate(self, alpha: float) -> float:
        """Violation rate at one grid alpha (exact match required)."""
        if self._n == 0:
            return float("nan")
        return float(self.violation_counts()[self._grid_index(alpha)] / self._n)

    def _grid_index(self, alpha: float) -> int:
        i = int(np.searchsorted(self._grid, float(alpha)))
        if i >= self._grid.size or self._grid[i] != float(alpha):
            raise SimulationError(
                f"alpha {alpha} is not on the streaming grid; configure the "
                "accumulator with it up front (streams cannot be rescanned)"
            )
        return i

    # -- latency metrics -------------------------------------------------

    def models(self) -> tuple[str, ...]:
        return tuple(sorted(self._latency_by_model))

    def _stats_for(self, model: str | None) -> OnlineStats | None:
        if model is None:
            return self._latency
        return self._latency_by_model.get(model)

    def mean_latency_ms(self, model: str | None = None) -> float:
        stats = self._stats_for(model)
        return stats.mean if stats is not None else math.nan

    def jitter_ms(self, model: str | None = None) -> float:
        """Std of served end-to-end latency (Fig. 7's per-model metric)."""
        stats = self._stats_for(model)
        return stats.std if stats is not None else math.nan

    def mean_response_ratio(self, model: str | None = None) -> float:
        if model is None:
            count, total = self._latency.count, self._rr_sum
        else:
            stats = self._latency_by_model.get(model)
            count = stats.count if stats is not None else 0
            total = self._rr_sum_by_model.get(model, 0.0)
        return total / count if count else math.nan

    def latency_percentile(self, q: float, model: str | None = None) -> float:
        """Percentile of served latency from the histogram (bin-resolution).

        Returns the upper edge of the bucket holding the q-th sample, so
        the true percentile lies within ``hist_bin_ms`` below the
        returned value (overflow bucket returns +inf).
        """
        hist = self._hist if model is None else self._hist_by_model.get(model)
        if hist is None:
            return math.nan
        total = int(hist.sum())
        if total == 0:
            return math.nan
        rank = math.ceil(q / 100.0 * total)
        rank = min(max(rank, 1), total)
        bucket = int(np.searchsorted(np.cumsum(hist), rank))
        if bucket >= self._hist_bins:
            return math.inf
        return (bucket + 1) * self._hist_bin_ms

    # -- conservation ----------------------------------------------------

    @property
    def n_requests(self) -> int:
        return self._n

    @property
    def n_dropped(self) -> int:
        return self._n - self._outcomes["served"]

    def preemption_count(self) -> int:
        return self._preemptions

    def totals(self) -> dict[str, int]:
        """Outcome counters plus the conservation identity.

        The same bucket layout as :func:`robustness_totals`, accumulated
        per record instead of from :class:`EngineResult` lists; long
        traces assert ``submitted`` equals the number of requests fed in.
        """
        totals = dict(self._outcomes)
        totals["retries"] = self._retries
        totals["preemptions"] = self._preemptions
        totals["submitted"] = self._n
        return totals
