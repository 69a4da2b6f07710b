"""One round of one workload: set up, time replays, check the outputs.

A round normally runs in a fresh interpreter (``child.py``), so its
set-up time is what a user pays on every start: interpreter, imports,
reads of the primed plan store, and fleet deploy or server start. Each
timed phase is one replay alone. Every workload replays a seeded trace
in simulated time, unpaced, so the statistic is throughput at a stated
n. Load comes from one process, one client thread and at most one
connection; the fleet replays with ``jobs=1``.

The checks hold for every seed: exact conservation, and for the wire
workloads a capture summary (completion order, finish-time bits, split
plans, outcome sets) whose digest the command line compares with
``simulate()`` on the same trace. Stream and fleet digests cover QoS
totals, violation counts, latency percentiles and moments, plus shard
digests for the fleet; at seed 0 every digest must equal
``digests.json``.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import threading
import time
from typing import Any

import numpy as np

from repro.cluster import DEFAULT_INVENTORY, FleetOrchestrator
from repro.experiments.fleet import derived_lambda_ms
from repro.experiments.fleet_chaos import scripted_kill_schedule
from repro.robustness import FaultPlan, LoadShedConfig, RetryPolicy, RobustnessConfig
from repro.runtime.capture import (
    ReplaySummary,
    summarize_engine_result,
    summarize_observations,
)
from repro.runtime.metrics import StreamingQoS
from repro.runtime.simulator import simulate, simulate_stream, warm_caches
from repro.runtime.workload import Scenario, WorkloadGenerator
from repro.server.client import replay_items_async
from repro.server.net import NetServer
from repro.server.protocol import CODEC_BINARY, CODEC_JSON
from repro.zoo.registry import EVALUATED_MODELS

from benchmarks.e2e import tracing
from benchmarks.e2e.catalog import WIRE_MODELS

#: Table 2 scenario 6, the high-load end of the paper's grid.
LAMBDA_MS = 110.0

#: stream_robust's faults, retries, deadlines and shedding.
ROBUST = RobustnessConfig(
    faults=FaultPlan(seed=11, fail_rate=0.10, stall_rate=0.05),
    retry=RetryPolicy(max_retries=2, backoff_base_ms=2.0),
    timeout_rr=40.0,
    load_shed=LoadShedConfig(max_queue_depth=64),
)

_OUTCOMES = ("served", "rejected", "shed", "failed", "timed_out")


# ---------------------------------------------------------------- digests
def _canon(value: Any) -> Any:
    """JSON-ready copy with every float as its exact hex form."""
    if isinstance(value, (bool, str)) or value is None:
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, dict):
        return {str(k): _canon(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        return _canon(value.tolist())
    return [_canon(v) for v in value]


def digest(value: Any) -> str:
    text = json.dumps(_canon(value), sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def qos_fingerprint(qos: StreamingQoS) -> dict[str, Any]:
    """QoS totals, exact violation counts, p50/p95/p99 latency and the
    latency moments (whose float bits move with any finish time), overall
    and per model."""
    models = (None, *qos.models())
    return {
        "totals": qos.totals(),
        "violations": qos.violation_counts(),
        "percentiles": {
            model or "all": [qos.latency_percentile(q, model) for q in (50, 95, 99)]
            for model in models
        },
        "moments": {
            model or "all": [
                qos.mean_latency_ms(model),
                qos.jitter_ms(model),
                qos.mean_response_ratio(model),
            ]
            for model in models
        },
    }


def summary_digest(summary: ReplaySummary) -> str:
    return digest(
        {
            "order": summary.order,
            "finishes": summary.finishes,
            "plans": summary.plans,
            **{o: sorted(getattr(summary, o)) for o in _OUTCOMES},
        }
    )


def conservation(totals: dict[str, int], n: int) -> list[str]:
    accounted = sum(totals[o] for o in _OUTCOMES)
    if totals["submitted"] == n and accounted == n:
        return []
    return [
        f"conservation: {n} requests, {totals['submitted']} terminal, "
        f"{accounted} in outcome buckets"
    ]


def useful_ratio(served: int, submitted: int, retries: int) -> float:
    """Served over attempts: the share of admitted work that paid off."""
    return served / (submitted + retries)


# -------------------------------------------------------------- workloads
class Workload:
    """Set-up, timed phase and checks of one workload at one (n, seed)."""

    models: tuple[str, ...] = EVALUATED_MODELS

    def __init__(self, n: int, seed: int) -> None:
        self.n = n
        self.seed = seed
        #: Named set-up layers beyond import, warm and deploy.
        self.setup_layers: dict[str, float] = {}
        #: Untraced per-replay numbers (thread CPU, server counters).
        self.extra: dict[str, float] = {}

    def deploy(self) -> None:
        """Everything after the plan-store warm-up, up to ready."""

    def reset(self) -> None:
        """Make ready for another timed phase in the same process."""

    def run(self) -> None:
        raise NotImplementedError

    def check(self) -> tuple[str, list[str], dict[str, float]]:
        """(output digest, problems, counts) of the last run."""
        raise NotImplementedError

    def layers(
        self, tot: dict[str, dict[str, float]], wall: float
    ) -> tuple[dict[str, float], dict[str, float]]:
        """(named layer metrics, stage times) from the traced spans; the
        stages plus the last one, a residual, sum to ``wall``. Called
        after the replay, with the timing wrappers removed."""
        raise NotImplementedError

    def close(self) -> None:
        """Stop whatever the set-up started."""


def _busy(tot: dict[str, dict[str, float]], name: str) -> float:
    return tot.get(name, {}).get("busy", 0.0)


def _count(tot: dict[str, dict[str, float]], name: str) -> int:
    return int(tot.get(name, {}).get("count", 0))


def _stages(wall: float, residual: str, **parts: float) -> dict[str, float]:
    out = dict(parts)
    out[residual] = wall - sum(parts.values())
    return out


class Stream(Workload):
    """``simulate_stream``: chunked arrivals, pooled requests, one
    ``SequentialEngine`` run into a ``StreamingQoS`` sink."""

    def __init__(
        self, n: int, seed: int, robustness: RobustnessConfig | None = None
    ) -> None:
        super().__init__(n, seed)
        self.robustness = robustness
        self.scenario = Scenario("scenario6", LAMBDA_MS, "high", n_requests=n)

    def run(self) -> None:
        self.result = simulate_stream(
            "split",
            self.scenario,
            models=self.models,
            seed=self.seed,
            robustness=self.robustness,
        )

    def check(self) -> tuple[str, list[str], dict[str, float]]:
        qos = self.result.qos
        totals = qos.totals()
        problems = conservation(totals, self.n)
        if self.robustness is not None and totals["retries"] == 0:
            problems.append("faults armed but no request was retried")
        counts = {o: totals[o] for o in (*_OUTCOMES, "retries")}
        counts["useful_ratio"] = useful_ratio(
            totals["served"], totals["submitted"], totals["retries"]
        )
        return digest(qos_fingerprint(qos)), problems, counts

    def layers(self, tot, wall):
        named = {
            "workload.next_chunk_s": _busy(tot, "kernel.source"),
            "workload.chunks": _count(tot, "kernel.source"),
            "workload.arrival_chunks_s": _busy(tot, "workload.arrival_chunks"),
            "metrics.observe_batch_s": _busy(tot, "kernel.sink_batch"),
            "metrics.observe_batch_calls": _count(tot, "kernel.sink_batch"),
            "metrics.observe_s": _busy(tot, "kernel.sink"),
            "metrics.observe_calls": _count(tot, "kernel.sink"),
            "kernel.self_s": tot.get("kernel.run_stream", {}).get("self", 0.0),
        }
        parts = {
            k: named[k]
            for k in (
                "workload.next_chunk_s",
                "metrics.observe_batch_s",
                "metrics.observe_s",
                "kernel.self_s",
            )
        }
        if self.robustness is not None:
            totals = self.result.qos.totals()
            named.update(
                {
                    "robustness.decide_s": _busy(tot, "robustness.decide"),
                    "robustness.decide_calls": _count(tot, "robustness.decide"),
                    "robustness.select_victims_s": _busy(
                        tot, "robustness.select_victims"
                    ),
                    "robustness.select_victims_calls": _count(
                        tot, "robustness.select_victims"
                    ),
                    "robustness.retries": totals["retries"],
                    "robustness.timed_out": totals["timed_out"],
                    "robustness.shed": totals["shed"],
                    "robustness.useful_ratio": useful_ratio(
                        totals["served"], totals["submitted"], totals["retries"]
                    ),
                }
            )
            parts["robustness.decide_s"] = named["robustness.decide_s"]
            parts["robustness.select_victims_s"] = named[
                "robustness.select_victims_s"
            ]
        return named, _stages(wall, "stream.other_s", **parts)


class FleetChaos(Workload):
    """``FleetOrchestrator.replay`` over the 100-node inventory with a
    tenth of it killed mid-trace (``scripted_kill_schedule``)."""

    KILLED = 10

    def deploy(self) -> None:
        start = time.perf_counter()
        self.orch = FleetOrchestrator(
            DEFAULT_INVENTORY, models=self.models, seed=self.seed
        )
        # Lambda comes from the calibrated fleet service rate (this
        # deploys the fleet). Node faults leave the profiles alone and the
        # fault horizon depends on the scenario only, so the kill plan
        # goes on after the deploy.
        lambda_ms = derived_lambda_ms(self.orch)
        self.scenario = Scenario(
            "fleet_chaos", lambda_ms, "high", n_requests=self.n
        )
        self.orch.node_faults = scripted_kill_schedule(
            len(self.orch.nodes), self.orch.fault_horizon_ms(self.scenario)
        )
        self.setup_layers["cluster.deploy_s"] = time.perf_counter() - start
        self.clean: FleetOrchestrator | None = None

    def run(self) -> None:
        self.result = self.orch.replay(self.scenario, jobs=1)

    def check(self) -> tuple[str, list[str], dict[str, float]]:
        r = self.result
        totals = r.qos.totals()
        problems = conservation(totals, self.n)
        per_node = sum(sum(t[o] for o in _OUTCOMES) for t in r.node_outcomes)
        if per_node != self.n:
            problems.append(f"per-node outcomes sum to {per_node}, not {self.n}")
        if sum(r.placements.values()) != self.n:
            problems.append("placements do not cover the trace")
        impaired = self._impaired()
        if impaired != self.KILLED:
            problems.append(f"{impaired} impaired nodes, expected {self.KILLED}")
        if r.re_routed == 0:
            problems.append("no request was failed over")
        fingerprint = qos_fingerprint(r.qos)
        fingerprint["shards"] = sorted(r.digests.items())
        fingerprint["re_routed"] = r.re_routed
        fingerprint["transfer_hops"] = r.transfer_hops
        counts = {o: totals[o] for o in _OUTCOMES}
        counts.update(
            re_routed=r.re_routed,
            transfer_hops=r.transfer_hops,
            impaired_nodes=impaired,
            useful_ratio=useful_ratio(
                totals["served"], totals["submitted"], totals["retries"]
            ),
        )
        return digest(fingerprint), problems, counts

    def _impaired(self) -> int:
        healthy = ((0.0, float("inf")),)
        return sum(1 for w in self.result.availability.values() if w != healthy)

    def _clean_deal_s(self) -> float:
        """``shard()`` on a fault-free twin of the fleet, timed apart from
        the replay; the twin is deployed untimed, in traced rounds only."""
        if self.clean is None:
            self.clean = FleetOrchestrator(
                DEFAULT_INVENTORY, models=self.models, seed=self.seed
            )
            self.clean.nodes  # deploy
        start = time.perf_counter()
        self.clean.shard(self.scenario)
        return time.perf_counter() - start

    def layers(self, tot, wall):
        totals = self.result.qos.totals()
        shard_s = _busy(tot, "cluster.shard")
        deal_clean_s = self._clean_deal_s()
        named = {
            "cluster.shard_s": shard_s,
            "cluster.deal_clean_s": deal_clean_s,
            "cluster.failover_s": shard_s - deal_clean_s,
            "workload.arrival_chunks_s": _busy(tot, "workload.arrival_chunks"),
            "cluster.node_replay_sum_s": _busy(tot, "cluster.node_replay"),
            "cluster.node_replay_max_s": tot.get("cluster.node_replay", {}).get(
                "max", 0.0
            ),
            "cluster.node_replays": _count(tot, "cluster.node_replay"),
            "metrics.merge_s": _busy(tot, "metrics.merge"),
            "cluster.re_routed": self.result.re_routed,
            "cluster.transfer_hops": self.result.transfer_hops,
            "cluster.failed_inflight": totals["failed"],
            "cluster.impaired_nodes": self._impaired(),
        }
        stages = _stages(
            wall,
            "cluster.self_s",
            **{
                k: named[k]
                for k in (
                    "cluster.shard_s",
                    "cluster.node_replay_sum_s",
                    "metrics.merge_s",
                )
            },
        )
        named["cluster.self_s"] = stages["cluster.self_s"]
        return named, stages


class Wire(Workload):
    """A lockstep ``NetServer`` on its own event-loop thread, replayed by
    one ``AsyncNetClient`` on the main thread."""

    models = WIRE_MODELS

    def __init__(self, n: int, seed: int, codec: str, batch_size: int) -> None:
        super().__init__(n, seed)
        self.codec = codec
        self.batch_size = batch_size
        self.scenario = Scenario("scenario6", LAMBDA_MS, "high", n_requests=n)
        self.loop: asyncio.AbstractEventLoop | None = None
        self.server: NetServer | None = None

    def deploy(self) -> None:
        self.items = WorkloadGenerator(self.models, seed=self.seed).generate(
            self.scenario
        )
        start = time.perf_counter()
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self.loop.run_forever, name="bench-net-loop", daemon=True
        )
        self.thread.start()
        self.server = self._call(self._start())
        self.setup_layers["net.start_s"] = time.perf_counter() - start

    def reset(self) -> None:
        # A lockstep server serves one replay: DRAIN ends its stream.
        assert self.server is not None
        self._call(self.server.stop())
        self.server = self._call(self._start())

    async def _start(self) -> NetServer:
        # A lockstep replay holds the whole trace in flight on one
        # connection, so the in-flight cap must clear the trace length.
        server = NetServer(
            models=self.models, mode="lockstep", max_inflight=self.n + 16
        )
        return await server.start()

    async def _stats(self) -> dict[str, Any]:
        assert self.server is not None
        return self.server.stats()

    def _call(self, coro: Any) -> Any:
        assert self.loop is not None
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(120)

    def run(self) -> None:
        assert self.server is not None
        loop_clock = time.pthread_getcpuclockid(self.thread.ident)
        loop_cpu = time.clock_gettime(loop_clock)
        client_cpu = time.thread_time()
        self.report = asyncio.run(
            replay_items_async(
                "127.0.0.1",
                self.server.port,
                self.items,
                mode="lockstep",
                codec=self.codec,
                batch_size=self.batch_size,
            )
        )
        self.extra["client.cpu_s"] = time.thread_time() - client_cpu
        self.extra["net.loop_cpu_s"] = time.clock_gettime(loop_clock) - loop_cpu

    def check(self) -> tuple[str, list[str], dict[str, float]]:
        report = self.report
        summary = summarize_observations(report.results)
        problems = []
        if report.sent != self.n or not report.conserved:
            problems.append(
                f"sent {report.sent} of {self.n}, {len(report.results)} answered"
            )
        if summary.n_observed != self.n:
            problems.append(f"{summary.n_observed} distinct requests answered")
        net = self._call(self._stats())["net"]
        for key in ("frames_in", "frames_out"):
            self.extra[f"net.{key}"] = net[key]
        for key in ("results_dropped", "backpressure_rejections", "protocol_errors"):
            self.extra[f"net.{key}"] = net[key]
            if net[key]:
                problems.append(f"server counted {net[key]} {key}")
        counts = summary.outcome_totals()
        counts["useful_ratio"] = useful_ratio(counts["served"], self.n, 0)
        return summary_digest(summary), problems, counts

    def layers(self, tot, wall):
        run = tot.get("kernel.run_stream", {})
        engine_cpu = run.get("cpu", 0.0)
        named = {
            "client.cpu_s": self.extra["client.cpu_s"],
            "net.loop_cpu_s": self.extra["net.loop_cpu_s"],
            "kernel.engine_cpu_s": engine_cpu,
            # The engine thread inside run_stream but not running: waiting
            # on intake or for the interpreter lock.
            "kernel.engine_idle_s": run.get("busy", 0.0) - engine_cpu,
            "client.send_s": _busy(tot, "client.send") + _busy(tot, "client.flush"),
            "client.frames_sent": _count(tot, "client.send"),
            "client.wait_s": _busy(tot, "client.wait"),
            "protocol.decode_client_s": _busy(tot, "protocol.decode_client"),
            "protocol.decode_server_s": _busy(tot, "protocol.decode_server"),
            "protocol.encode_server_s": _busy(tot, "protocol.encode_server"),
            "responder.settle_s": _busy(tot, "responder.settle_batch"),
            "responder.settle_calls": _count(tot, "responder.settle_batch"),
            **{k: v for k, v in self.extra.items() if k.startswith("net.")},
        }
        # Under the interpreter lock the three threads' CPU times add up
        # to at most the wall; what is left is time nobody ran.
        stages = _stages(
            wall,
            "wire.idle_s",
            **{
                "client.cpu_s": named["client.cpu_s"],
                "net.loop_cpu_s": named["net.loop_cpu_s"],
                "kernel.engine_cpu_s": engine_cpu,
            },
        )
        named["wire.idle_s"] = stages["wire.idle_s"]
        return named, stages

    def close(self) -> None:
        if self.loop is None:
            return
        try:
            if self.server is not None:
                self._call(self.server.stop())
        finally:
            self.loop.call_soon_threadsafe(self.loop.stop)
            self.thread.join(timeout=30)
            self.loop.close()
            self.loop = None


def make(name: str, n: int, seed: int) -> Workload:
    if name == "stream_fast":
        return Stream(n, seed)
    if name == "stream_robust":
        return Stream(n, seed, robustness=ROBUST)
    if name == "fleet_chaos":
        return FleetChaos(n, seed)
    if name == "wire_binary":
        return Wire(n, seed, CODEC_BINARY, batch_size=512)
    if name == "wire_json":
        return Wire(n, seed, CODEC_JSON, batch_size=1)
    raise ValueError(f"unknown workload {name!r}")


# ------------------------------------------------------------------ rounds
def prime(names: list[str], seed: int) -> None:
    """Fill the plan store the rounds will read (no GA search is ever
    timed): profiles and split plans, fleet classes, wire deployment."""
    warm_caches(EVALUATED_MODELS)
    warm_caches(WIRE_MODELS)
    if "fleet_chaos" in names:
        FleetOrchestrator(DEFAULT_INVENTORY, seed=seed).nodes
    if any(isinstance(make(name, 1, seed), Wire) for name in names):
        NetServer(models=WIRE_MODELS, mode="lockstep")


def reference_digest(name: str, n: int, seed: int) -> str | None:
    """``simulate()`` on a wire workload's trace, summarised like the
    replay; None for workloads without a reference."""
    wl = make(name, n, seed)
    if not isinstance(wl, Wire):
        return None
    sim = simulate("split", wl.scenario, models=wl.models, seed=seed)
    return summary_digest(summarize_engine_result(sim.engine_result))


def peak_rss_mb() -> float:
    """This process's peak resident set, in MB. Read from VmHWM, which
    starts afresh at exec; ``ru_maxrss`` would carry over the parent's
    peak from the fork."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError("no VmHWM line in /proc/self/status")


def kernel_layers(tot: dict[str, dict[str, float]]) -> dict[str, float]:
    """The layers every workload has: the kernel's own loop, its arrival
    source and its terminal sink, seen through ``run_stream``."""
    run = tot.get("kernel.run_stream", {})
    return {
        "kernel.run_stream_calls": int(run.get("count", 0)),
        "kernel.engine_cpu_s": run.get("cpu", 0.0),
        "kernel.self_s": run.get("self", 0.0),
        "kernel.source_s": _busy(tot, "kernel.source"),
        "kernel.source_chunks": _count(tot, "kernel.source"),
        "kernel.sink_s": _busy(tot, "kernel.sink_batch") + _busy(tot, "kernel.sink"),
        "kernel.sink_batch_calls": _count(tot, "kernel.sink_batch"),
        "kernel.sink_calls": _count(tot, "kernel.sink"),
    }


def run_round(
    name: str,
    n: int,
    seed: int,
    traced: bool = False,
    round_id: int = 0,
    spawn: float | None = None,
    reps: int = 1,
) -> dict[str, Any]:
    """Set up once, then time and check ``reps`` replays of the same
    trace. ``spawn`` is the ``time.monotonic()`` stamp taken just before
    this process started (defaults to now, for in-process rounds)."""
    imported = time.monotonic()
    spawn = imported if spawn is None else spawn
    wl = make(name, n, seed)
    setup = {"setup.import_s": imported - spawn}
    start = time.perf_counter()
    warm_caches(wl.models)
    setup["profiling.warm_s"] = time.perf_counter() - start
    out: dict[str, Any] = {"workload": name, "n": n, "seed": seed,
                           "round": round_id, "traced": traced, "reps": []}
    try:
        for rep in range(reps):
            tracer = tracing.Tracer(round_id) if traced else None
            # Wrappers go in before deploy: the lockstep engine thread
            # enters run_stream when the server starts.
            with tracing.installed(tracer):
                start = time.perf_counter()
                if rep == 0:
                    wl.deploy()
                    setup["setup.deploy_s"] = time.perf_counter() - start
                    out["setup_s"] = time.monotonic() - spawn
                else:
                    wl.reset()
                root = tracer.begin("round.timed") if tracer else None
                cpu = time.process_time()
                start = time.perf_counter()
                wl.run()
                wall = time.perf_counter() - start
                cpu = time.process_time() - cpu
                if tracer is not None:
                    tracer.end(root)
            if rep == 0:
                # One replay's peak, comparable across rep counts.
                out["rss_mb"] = peak_rss_mb()
            digest_, problems, counts = wl.check()
            record: dict[str, Any] = {
                "wall_s": wall,
                "cpu_s": cpu,
                "digest": digest_,
                "problems": problems,
                "counts": counts,
                "extra": dict(wl.extra),
            }
            if tracer is not None:
                spans = tracer.finish()
                tot = tracing.totals(spans)
                named, stages = wl.layers(tot, wall)
                layers = {"timed.wall_s": wall, "timed.cpu_s": cpu}
                layers.update(kernel_layers(tot))
                layers.update(named)
                layers["kernel.useful_ratio"] = counts["useful_ratio"]
                record.update(layers=layers, stages=stages, spans=spans)
            out["reps"].append(record)
    finally:
        wl.close()
    if traced:
        # Only the fastest replay's spans travel on: they are the ones
        # its layer numbers come from.
        fastest = min(out["reps"], key=lambda r: r["wall_s"])
        for record in out["reps"]:
            if record is not fastest:
                del record["spans"]
    setup.update(wl.setup_layers)
    out["setup"] = setup
    return out
