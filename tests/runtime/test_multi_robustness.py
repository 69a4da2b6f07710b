"""Multi-processor engines under robustness: placement never migrates.

A retried request stays on the processor that first accepted it (its
blocks are local — re-routing would silently ship activations), shed
victims are evicted from the queue that admitted them, and per-processor
accounting (placements vs routed requests vs terminals) reconciles for
every router. A router wrapper records each placement, and per-processor
traces show where every block ran.

Every router, two policies and three robustness cases (one with node
profiles) are also pinned exactly, by a digest of each k = 3 run.
"""

import hashlib

import pytest

from repro.hardware import NodeProfile
from repro.hardware.presets import desktop_gpu, jetson_nano
from repro.robustness import FaultPlan, RetryPolicy, RobustnessConfig
from repro.robustness.shedding import LoadShedConfig
from repro.runtime.multi import ROUTERS, MultiProcessorEngine
from repro.scheduling.policies import FIFOScheduler, SplitScheduler
from repro.scheduling.request import Request, TaskSpec
from repro.utils.rng import rng_from

from tests.runtime.test_fast_lane import counters
from tests.runtime.test_kernel_differential import (
    bucket_sig,
    canon_trace,
    identity,
)

CHAOS = RobustnessConfig(
    faults=FaultPlan(seed=23, fail_rate=0.12, stall_rate=0.05),
    retry=RetryPolicy(max_retries=2, backoff_base_ms=2.0),
    timeout_rr=60.0,
    load_shed=LoadShedConfig(max_queue_depth=6),
)

#: Fault drops, a wall-clock deadline and backlog shedding.
DROPS = RobustnessConfig(
    faults=FaultPlan(seed=31, fail_rate=0.08, drop_rate=0.06),
    retry=RetryPolicy(max_retries=1, backoff_base_ms=1.0),
    timeout_ms=160.0,
    load_shed=LoadShedConfig(max_backlog_ms=150.0),
)

EXTS = (10.0, 30.0, 65.0)
BLOCKS = ((10.0,), (15.0, 15.0), (21.0, 22.0, 22.0))


def poisson_arrivals(n=240, lam=9.0, seed=1):
    rng = rng_from(seed, "multi-robust")
    out = []
    t = 0.0
    for i in range(n):
        t += float(rng.exponential(lam))
        spec = TaskSpec(
            name=f"m{i % 3}", ext_ms=EXTS[i % 3], blocks_ms=BLOCKS[i % 3]
        )
        out.append((t, Request(task=spec, arrival_ms=t)))
    return out


def scaled_node(name, scale, device, preemption_overhead_ms=None):
    """A node whose catalogue serves every model ``scale`` times as long."""
    specs = {
        f"m{k}": TaskSpec(
            name=f"m{k}",
            ext_ms=EXTS[k] * scale,
            blocks_ms=tuple(b * scale for b in BLOCKS[k]),
        )
        for k in range(3)
    }
    return NodeProfile(
        name=name,
        device=device,
        specs=specs,
        preemption_overhead_ms=preemption_overhead_ms,
    )


class PlacementLog:
    """A router wrapper that records every placement it makes."""

    def __init__(self, router):
        self._router = ROUTERS[router]
        self.procs: dict[int, list[int]] = {}

    def __call__(self, processors, request):
        target = self._router(processors, request)
        self.procs.setdefault(request.request_id, []).append(target)
        return target


@pytest.mark.parametrize("router", sorted(ROUTERS))
class TestRoutersUnderRobustness:
    def _run(self, router):
        log = PlacementLog(router)
        eng = MultiProcessorEngine(
            [SplitScheduler(), SplitScheduler(), SplitScheduler()],
            router=log,
            keep_trace=True,
            robustness=CHAOS,
        )
        arr = poisson_arrivals()
        res = eng.run(list(arr))
        return arr, res, log

    def test_per_proc_conservation(self, router):
        """Every submitted request is routed once, settles exactly once,
        and the router's placement counts add up per processor."""
        arr, res, log = self._run(router)
        assert sorted(log.procs) == sorted(r.request_id for _, r in arr)
        assert all(len(procs) == 1 for procs in log.procs.values())
        totals = res.engine_result
        settled = [
            r.request_id
            for bucket in (
                totals.completed,
                totals.dropped,
                totals.shed,
                totals.failed,
                totals.timed_out,
            )
            for r in bucket
        ]
        assert sorted(settled) == sorted(log.procs)
        # placements counts *arrival* dispatches only (retry re-admissions
        # never re-route), so it must equal the routed requests per proc.
        routed_by_proc: dict[int, int] = {}
        for (proc,) in log.procs.values():
            routed_by_proc[proc] = routed_by_proc.get(proc, 0) + 1
        assert sum(res.placements.values()) == len(arr)
        for idx, count in res.placements.items():
            assert routed_by_proc.get(idx, 0) == count

    def test_retries_stay_on_first_processor(self, router):
        """Fault-retried requests are parked and re-admitted on the
        processor that first accepted them — never re-routed: every
        block of a request runs where it was routed."""
        arr, res, log = self._run(router)
        ran_on: dict[int, set[int]] = {}
        for idx, trace in res.traces.items():
            for entry in trace.entries:
                ran_on.setdefault(entry.request_id, set()).add(idx)
        assert any(
            r.retries > 0 for _, r in arr
        ), "chaos plan produced no retries — test is vacuous"
        for rid, procs in ran_on.items():
            assert procs == set(log.procs[rid])

    def test_shed_victims_accounted_on_admitting_processor(self, router):
        """Shed requests were routed exactly once (to one proc) and
        left through the shed bucket, not served elsewhere."""
        arr, res, log = self._run(router)
        shed = res.engine_result.shed
        assert shed, "chaos plan shed nothing — tighten max_queue_depth"
        for req in shed:
            assert len(log.procs[req.request_id]) == 1
            assert req.outcome == "shed"


#: Two node profiles and a profile-less processor: routed requests are
#: rebound onto a slow and a fast catalogue under the chaos config.
HETERO = (
    scaled_node("slow", 1.5, jetson_nano(), preemption_overhead_ms=0.5),
    scaled_node("fast", 0.5, desktop_gpu()),
    None,
)

#: sha256 over placements, per-processor canonical traces, bucket
#: signatures and counters of every k = 3 robust case below, recorded
#: before the routed loop was rewritten to call the dispatch primitives.
ROUTED_DIGESTS = {
    "least_backlog/SplitScheduler/chaos":
        "e4e33975fca71a01e8aee9741154b2877f3eac76eca8cedf66cf6418e46cd038",
    "least_backlog/SplitScheduler/drops":
        "2c7b2c3fa4629d99a936661310f058843b076b50478b3c02abffbd5a0151a757",
    "least_backlog/SplitScheduler/hetero":
        "e81afe1a814d3629668445d82eca3672adb6e83868a43c0d0ad9c81390d9f27b",
    "least_backlog/FIFOScheduler/chaos":
        "c0d9e8f037720c5a3fdaab0a7773f6800bf87b8e1df8da37ab580fe2ac72c188",
    "least_backlog/FIFOScheduler/drops":
        "dc3b56ea1788ad7e987292085c82997136886e25602627055e9c054c12a38500",
    "least_backlog/FIFOScheduler/hetero":
        "1b1353137b8dca79aa14d513f42967970fa6943c3873199241625c0c04f86c2b",
    "least_normalized_backlog/SplitScheduler/chaos":
        "e4e33975fca71a01e8aee9741154b2877f3eac76eca8cedf66cf6418e46cd038",
    "least_normalized_backlog/SplitScheduler/drops":
        "2c7b2c3fa4629d99a936661310f058843b076b50478b3c02abffbd5a0151a757",
    "least_normalized_backlog/SplitScheduler/hetero":
        "7a5f917b72e32a63dc44b33058cdbdacb6f6613e94dd160266734b7a978b4160",
    "least_normalized_backlog/FIFOScheduler/chaos":
        "c0d9e8f037720c5a3fdaab0a7773f6800bf87b8e1df8da37ab580fe2ac72c188",
    "least_normalized_backlog/FIFOScheduler/drops":
        "dc3b56ea1788ad7e987292085c82997136886e25602627055e9c054c12a38500",
    "least_normalized_backlog/FIFOScheduler/hetero":
        "3d73ba3a6f810a6e21b9c57806462e91703d2a394b3e1c110464ad13ef35b258",
    "model_affinity/SplitScheduler/chaos":
        "0d079b372c452e18ef71cbff4df36661b9c3bf95b8ffec355f0adb6e9c392137",
    "model_affinity/SplitScheduler/drops":
        "1656d603865856ab8a3904c8d3717e5d3cdf4d2873bd3d59c2e13cfb8d8ecbe9",
    "model_affinity/SplitScheduler/hetero":
        "dbe4c840689ad022348f698041a376ea36c42ca385f9a51d14ee14a5c10a9991",
    "model_affinity/FIFOScheduler/chaos":
        "3c915c5a3e3413a9172af149096436b4c867a8a72fdfd69dedd02a208b74329a",
    "model_affinity/FIFOScheduler/drops":
        "192ca87af43d6eb21ed1209efb420df300f01063c3c1b2017a10f252ef565a97",
    "model_affinity/FIFOScheduler/hetero":
        "0d2d8b87b82c89b2619744cc37d0a0e6030dc12da5a585b51fcf09710d09622a",
    "round_robin/SplitScheduler/chaos":
        "d1c030365fa303780ca3fe03068dbc0502718ba261e237a25a50693947d217c9",
    "round_robin/SplitScheduler/drops":
        "1087f0f9fef695ab6aa3f12aef77740aa95b7405284ad9483b1ef883927cda1d",
    "round_robin/SplitScheduler/hetero":
        "6c437f47b31e7f780ea4448133d4069fd22ecbfc6950c564d23678e10ea7e544",
    "round_robin/FIFOScheduler/chaos":
        "af14f803182c07a349f0660d067f10e60bf75fce29067209ad483726c3e6d6a0",
    "round_robin/FIFOScheduler/drops":
        "a4c82f57986cba573ce017786d8dca6c361cfc28b6d03d3cd2339a88942b6f79",
    "round_robin/FIFOScheduler/hetero":
        "1e31a6d49c5c9d060d1ec2a9958454c274225caf2640abad877e0e845cc85b48",
    "shortest_queue/SplitScheduler/chaos":
        "768c8326ba92d87bac8de683c4b3c8ec56bdad6d503a42833c5cdc241dcbb108",
    "shortest_queue/SplitScheduler/drops":
        "9695cc514e36abecb429a22a2efcdeede4a75065ab4c9e7d2993ecfbeca3398c",
    "shortest_queue/SplitScheduler/hetero":
        "fc8b94a6281502d67dbde1983da9c7f66eb35e404dd69d9e182aaedc59aa507a",
    "shortest_queue/FIFOScheduler/chaos":
        "20f9cc908261f25c312d3eefec92a41b9bf762af79637eaeecf2ee89f4de02db",
    "shortest_queue/FIFOScheduler/drops":
        "9187e8a87c32bf3b5e966175d243abcdf60525bc41a88900e522e48118f0277f",
    "shortest_queue/FIFOScheduler/hetero":
        "e34d2b3be5675c76b7b07e829f7c228464fae567ee673d7786c48eba32b63e67",
}


def routed_digest(router, policy, cfg, profiles):
    arr = poisson_arrivals()
    res = MultiProcessorEngine(
        [policy(), policy(), policy()],
        router=router,
        keep_trace=True,
        robustness=cfg,
        profiles=None if profiles is None else list(profiles),
    ).run(arr)
    ids = identity(arr)
    totals = res.engine_result
    record = (
        sorted(res.placements.items()),
        [(idx, canon_trace(res.traces[idx], ids)) for idx in sorted(res.traces)],
        [
            bucket_sig(getattr(totals, bucket), ids)
            for bucket in ("completed", "dropped", "shed", "failed", "timed_out")
        ],
        counters(totals),
    )
    return hashlib.sha256(repr(record).encode()).hexdigest()


ROUTED_CASES = {
    "chaos": (CHAOS, None),
    "drops": (DROPS, None),
    "hetero": (CHAOS, HETERO),
}


@pytest.mark.parametrize("case", sorted(ROUTED_CASES))
@pytest.mark.parametrize(
    "policy", (SplitScheduler, FIFOScheduler), ids=("split", "fifo")
)
@pytest.mark.parametrize("router", sorted(ROUTERS))
def test_routed_robust_runs_are_pinned(router, policy, case):
    """k = 3 robust runs reproduce their recorded digests exactly."""
    cfg, profiles = ROUTED_CASES[case]
    key = f"{router}/{policy.__name__}/{case}"
    assert routed_digest(router, policy, cfg, profiles) == ROUTED_DIGESTS[key]
