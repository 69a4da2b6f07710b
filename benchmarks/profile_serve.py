"""Profile the wire-level replay loop under cProfile.

``make profile-serve`` runs this: one warm-up replay (so the profiled
pass sees hot profile/plan caches and warmed bytecode, as the timed
replays of the end-to-end benchmark's wire workloads do), then the same
replay under cProfile, printing the top entries by cumulative time.

Client and server share one event loop here — deliberately: cProfile
only observes the calling thread, and putting both protocol endpoints on
it captures the full wire path (framing, codec encode/decode, asyncio
hand-offs, queueing) in one profile. The kernel's engine thread stays
unprofiled; ``make profile`` covers that loop separately. Since the
container is single-core anyway, colocating the endpoints does not
change what contends for the CPU — only what the profiler can see.

Usage::

    python -m benchmarks.profile_serve [n_requests] [top] [codec] [batch]

Defaults: 5000 requests, top 25 functions, binary-v2 codec, batch 512.
Pass ``json 1`` for the fallback singles path.
"""

from __future__ import annotations

import asyncio
import cProfile
import pstats
import sys
import time

from repro.runtime.workload import Scenario, WorkloadGenerator
from repro.server.client import replay_items_async
from repro.server.net import NetServer
from repro.server.protocol import CODEC_BINARY

MODELS = ("yolov2", "vgg19")
SEED = 0


def _replay_once(items, codec: str, batch_size: int):
    async def run():
        server = NetServer(
            models=MODELS, mode="lockstep", max_inflight=len(items) + 16
        )
        async with server:
            return await replay_items_async(
                "127.0.0.1",
                server.port,
                items,
                mode="lockstep",
                codec=codec,
                batch_size=batch_size,
            )

    return asyncio.run(run())


def main(argv: list[str]) -> int:
    n = int(argv[1]) if len(argv) > 1 else 5000
    top = int(argv[2]) if len(argv) > 2 else 25
    codec = argv[3] if len(argv) > 3 else CODEC_BINARY
    batch = int(argv[4]) if len(argv) > 4 else 512

    scenario = Scenario("profile-serve", 110.0, "high", n_requests=n)
    items = WorkloadGenerator(MODELS, seed=SEED).generate(scenario)

    t0 = time.perf_counter()
    report = _replay_once(items, codec, batch)  # warm-up + reference timing
    warm_s = time.perf_counter() - t0
    assert report.conserved
    print(
        f"unprofiled: {warm_s:.3f}s  ({n / warm_s:,.0f} req/s, "
        f"codec={codec}, batch={batch})\n"
    )

    profiler = cProfile.Profile()
    profiler.enable()
    _replay_once(items, codec, batch)
    profiler.disable()
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative").print_stats(top)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
