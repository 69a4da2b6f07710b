"""The benchmark's workload table and file locations.

Imported by both the round runner (which imports ``repro``) and the
command line (which must not), so it holds plain data only.
"""

from __future__ import annotations

from pathlib import Path

HERE = Path(__file__).resolve().parent
#: The checkout root: ``benchmarks/e2e`` sits two levels below it.
ROOT = HERE.parents[1]
#: Result files, trace files and the per-run primed plan store.
OUT_DIR = ROOT / ".benchmarks" / "e2e"
#: Seed-0 output digests, one per workload (see ``README.md``).
DIGESTS_FILE = HERE / "digests.json"
BENCHMARK_FILE = ROOT / "BENCHMARK.json"

#: name -> requests per round, in the order runs visit them. Each n
#: keeps one round's timed phase near half a second on a 2-vCPU guest,
#: so a run fits many short rounds; why each workload exists is in
#: ``BENCHMARK.json`` and ``README.md``.
WORKLOADS: dict[str, int] = {
    "stream_fast": 100_000,
    "stream_robust": 15_000,
    "fleet_chaos": 80_000,
    "wire_binary": 25_000,
    "wire_json": 8_000,
}

#: Models of the two wire workloads (the server deploys exactly these).
WIRE_MODELS = ("yolov2", "vgg19")
