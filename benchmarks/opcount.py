"""Bytecodes per request of one end-to-end replay, counted exactly.

``python3 benchmarks/opcount.py WORKLOAD [--n N]`` (``make opcount
W=wire_json N=3000``) sets up one workload of the end-to-end benchmark
(``benchmarks/e2e``) at ``n`` requests and seed 0, replays it
once to warm every cache, then replays it again in-process under an
opcode tracer: ``sys.settrace`` on the calling thread,
``threading.settrace`` for the threads started from then on (a wire
server's engine thread), and a loop callback for a wire server's
event-loop thread, each frame with ``f_trace_opcodes`` on. It checks the
counted replay's output (a wire replay must equal ``simulate()`` on the
same trace; exit 1 otherwise) and prints the bytecodes executed per
request by thread, by file (the top 15) and for the top 15 functions.

Reading the counts:

* An in-process replay (``stream_fast``, ``stream_robust``,
  ``fleet_chaos``) counts the same bytecodes on every run.
* A wire replay runs three threads (client, server event loop, engine),
  and how their reads and chunks batch up moves with thread timing, so
  its counts move a little from run to run: report the median of three
  runs.
* A call into C counts as one bytecode, however much it does: numpy,
  deque, dict, struct and json work is invisible. The count complements
  wall time; it does not replace it.
* Tracing slows a replay about a hundredfold: a 3,000-request
  ``wire_json`` replay takes about half a minute.

A development tool: it writes no result file and is not part of the
benchmark record.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import sysconfig
import threading
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parents[1]
_STDLIB = sysconfig.get_paths()["stdlib"]
#: The trace seed of every counted replay, and the files and functions
#: listed.
SEED = 0
TOP = 15


class OpCounter:
    """Opcodes executed, per (thread name, file, function)."""

    def __init__(self) -> None:
        self.cells: dict[tuple[str, str, str], list[int]] = {}

    def trace(self, frame: Any, event: str, arg: Any) -> Callable | None:
        """The global trace function: one counting cell per code object
        and thread, bumped on every opcode of the frame."""
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        code = frame.f_code
        key = (threading.current_thread().name, code.co_filename,
               code.co_qualname)
        cell = self.cells.get(key)
        if cell is None:
            cell = self.cells[key] = [0]

        def local(frame: Any, event: str, arg: Any) -> Callable:
            if event == "opcode":
                cell[0] += 1
            return local

        return local

    def totals(self, field: int) -> dict[Any, int]:
        """Counts summed by one key field (0 thread, 1 file, 2 function),
        or by the whole key for ``field=-1``."""
        out: dict[Any, int] = {}
        for key, (count,) in self.cells.items():
            k = key if field < 0 else key[field]
            out[k] = out.get(k, 0) + count
        return out


def _short(path: str) -> str:
    if path.startswith(str(ROOT)):
        return str(Path(path).relative_to(ROOT))
    if path.startswith(_STDLIB):
        return "<stdlib>" + path[len(_STDLIB):]
    return path


def count(name: str, n: int) -> tuple[OpCounter, list[str]]:
    """One warm-up replay, then one counted replay; returns the counts
    and the counted replay's output problems."""
    from repro.runtime.simulator import warm_caches

    from benchmarks.e2e import workloads

    wl = workloads.make(name, n, SEED)
    warm_caches(wl.models)
    counter = OpCounter()
    try:
        wl.deploy()
        wl.run()
        loop = getattr(wl, "loop", None)
        threading.settrace(counter.trace)
        try:
            wl.reset()  # a wire server's engine thread starts traced
            if loop is not None:
                _on_loop(loop, counter.trace)
            sys.settrace(counter.trace)
            try:
                wl.run()
            finally:
                sys.settrace(None)
                if loop is not None:
                    _on_loop(loop, None)
        finally:
            threading.settrace(None)  # type: ignore[arg-type]
        digest, problems, _counts = wl.check()
        reference = workloads.reference_digest(name, n, SEED)
        if reference is not None and digest != reference:
            problems.append(f"digest {digest} differs from simulate()'s {reference}")
    finally:
        wl.close()
    return counter, problems


def _on_loop(loop: asyncio.AbstractEventLoop, fn: Callable | None) -> None:
    """Set (or clear) the trace function of the loop's own thread."""

    async def install() -> None:
        sys.settrace(fn)

    asyncio.run_coroutine_threadsafe(install(), loop).result(30)


def report(counter: OpCounter, name: str, n: int) -> str:
    total = sum(counter.totals(0).values())
    lines = [
        f"opcount {name} n={n} seed={SEED}: {total / n:,.1f} bytecodes per "
        f"request ({total:,} in all)"
    ]

    def section(title: str, totals: dict[Any, int], label, k: int | None):
        lines.append(title)
        ranked = sorted(totals.items(), key=lambda kv: (-kv[1], str(kv[0])))
        for key, value in ranked[:k]:
            lines.append(
                f"  {value / n:10.1f}  {100 * value / total:5.1f}%  {label(key)}"
            )

    section("by thread:", counter.totals(0), str, None)
    section("by file:", counter.totals(1), _short, TOP)
    section(
        f"top {TOP} functions (thread, file:function):",
        counter.totals(-1),
        lambda key: f"{key[0]}  {_short(key[1])}:{key[2]}",
        TOP,
    )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 benchmarks/opcount.py",
        description="Count the bytecodes per request of one replay of an "
        "end-to-end workload.",
    )
    parser.add_argument("workload")
    parser.add_argument("--n", type=int, default=3000, help="requests")
    args = parser.parse_args(argv)
    if args.n < 1:
        parser.error("--n must be positive")
    counter, problems = count(args.workload, args.n)
    print(report(counter, args.workload, args.n))
    for problem in problems:
        print(f"output check failed: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    # Import this checkout's program and benchmark package, never another
    # copy (the script's own directory is dropped from the path).
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    sys.exit(main())
