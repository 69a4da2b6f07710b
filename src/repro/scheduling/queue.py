"""The pending-request queue.

Position 0 is the next request to receive the execution token. The
currently-running request stays at its queue position while its block
executes; a new arrival that greedily bubbles past position 0 therefore
preempts it at the next block boundary — all of its remaining blocks are
deferred together (full preemption, Fig. 3).

Two backends share one mutation surface:

* :class:`RequestQueue` — the production backend, built on
  :class:`collections.deque`. All head operations are O(1), positional
  insert/delete cost O(min(i, n-i)) C-level pointer moves (cheap at both
  ends, which is where the schedulers actually mutate: greedy/EDF/SJF
  bubbles insert near the tail under load, the engine pops and removes at
  the head). On top of the deque it maintains, incrementally:

  - a **task-type census** (``type_counts``) so the elastic-splitting
    snapshot is O(#types) instead of an O(n) queue scan per dispatch —
    the single largest cost of the old backend on long queues;
  - optional lazy **per-type arrival heaps** (built on first use,
    maintained afterwards, stale entries discarded lazily) that give
    priority policies the per-type minimum-arrival candidates they need
    to avoid rescanning the whole queue at every block boundary (see
    :meth:`min_arrival_candidates` and ``policies/prema.py``);
  - a **run-length summary** (``runs_reversed``) compressing maximal
    stretches of consecutive never-started requests of the same task.
    Everything the greedy bubble reads off such a request (remaining
    time, target) is a per-task constant, so one comparison settles a
    whole run and the bubble costs O(#runs) instead of O(depth) — under
    sustained overload the queue self-organises into one stretch per
    task type, which is what turns the million-request trace from hours
    into seconds. Soundness rests on the engine's dispatch discipline:
    a request's scheduling state (``begin``/``pop_block``) is only ever
    mutated after the request has been returned by :meth:`peek`, and
    ``peek`` conservatively splits the head into an *exact* singleton
    run that is always re-evaluated per element.

* :class:`ListBackedRequestQueue` — the original list-backed
  implementation, kept verbatim as the reference oracle for the
  equivalence test-suite and as the baseline the throughput benchmarks
  measure the asymptotic win against. Its derived views (``snapshot``,
  ``min_arrival_candidates``) are computed by definition with full scans.

Both backends order requests identically for identical call sequences —
the property suite in ``tests/scheduling/test_queue_equivalence.py``
drives random mutation programs against the pair and asserts it.

Membership is tracked in a side set of request ids so ``remove`` (called
once per completed request by the engine) checks presence in O(1) and
locates the entry by identity instead of dataclass equality. The id set
also rejects double-insertion, which would silently corrupt backlog
accounting.
"""

from __future__ import annotations

import heapq
from collections import deque
from itertools import islice
from typing import Iterator

from repro.errors import SchedulingError
from repro.scheduling.request import Request


class RequestQueue:
    """Ordered pending queue with the small mutation surface the
    schedulers need (insert at index, move to front, pop head)."""

    __slots__ = (
        "_items",
        "_ids",
        "_type_counts",
        "_arrival_index",
        "_arrival_seq",
        "_runs",
        "_pair_verdicts",
    )

    def __init__(self) -> None:
        self._items: deque[Request] = deque()
        self._ids: set[int] = set()
        #: Live census of queued task types (no zero-count keys).
        self._type_counts: dict[str, int] = {}
        #: Memo for :meth:`bulk_greedy_insert`: ``(id(new_task), id(run_
        #: task)) -> (new_task, run_task, stop?)``. Valid because the stop
        #: test between a never-started arrival and a *compressed* run
        #: depends only on the two task constants; the cached strong
        #: references pin both ids, so a hit always means the same pair.
        self._pair_verdicts: dict[tuple[int, int], tuple[object, object, bool]] = {}
        #: Lazy per-type min-heaps of ``(arrival_ms, seq, request)``; None
        #: until :meth:`min_arrival_candidates` is first called, so queues
        #: that never serve a priority policy pay nothing for it.
        self._arrival_index: dict[str, list[tuple[float, int, Request]]] | None = None
        self._arrival_seq = 0
        #: Run-length summary of ``_items``: each entry is a mutable
        #: ``[task, count, member]`` triple. ``member is None`` marks a
        #: *compressed* run — ``count`` consecutive never-started requests
        #: all sharing the ``task`` object (so remaining time and target
        #: are per-run constants); otherwise the run is *exact*
        #: (``count == 1``) and ``member`` is the live request, which must
        #: be re-read on every evaluation.
        self._runs: deque[list] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Request]:
        return iter(self._items)

    def __reversed__(self) -> Iterator[Request]:
        return reversed(self._items)

    def __getitem__(self, idx: int) -> Request:
        return self._items[idx]

    def __contains__(self, request: Request) -> bool:
        return request.request_id in self._ids

    @property
    def empty(self) -> bool:
        return not self._items

    # ---------------------------------------------------------- bookkeeping
    def _track(self, request: Request) -> None:
        if request.request_id in self._ids:
            raise SchedulingError(
                f"request {request.request_id} is already queued"
            )
        self._ids.add(request.request_id)
        ttype = request.task_type
        counts = self._type_counts
        counts[ttype] = counts.get(ttype, 0) + 1
        if self._arrival_index is not None:
            seq = self._arrival_seq
            self._arrival_seq = seq + 1
            heapq.heappush(
                self._arrival_index.setdefault(ttype, []),
                (request.arrival_ms, seq, request),
            )

    def _untrack(self, request: Request) -> None:
        self._ids.discard(request.request_id)
        counts = self._type_counts
        ttype = request.task_type
        left = counts[ttype] - 1
        if left:
            counts[ttype] = left
        else:
            del counts[ttype]
        # Arrival-index entries are invalidated lazily: a popped entry whose
        # request id is no longer in self._ids is discarded on sight.

    # ---------------------------------------------------- run maintenance
    def _locate_run(self, index: int) -> tuple[int, int]:
        """(run index, offset within run) of the element at ``index``,
        scanning from whichever end of the run list is nearer."""
        runs = self._runs
        n = len(self._items)
        if index <= n - index:
            acc = 0
            for ri, run in enumerate(runs):
                nxt = acc + run[1]
                if index < nxt:
                    return ri, index - acc
                acc = nxt
        else:
            acc = n
            ri = len(runs)
            for run in reversed(runs):
                ri -= 1
                acc -= run[1]
                if index >= acc:
                    return ri, index - acc
        raise SchedulingError(f"run summary lost element index {index}")

    def _run_insert(self, index: int, request: Request) -> None:
        """Update the run summary for an insert of ``request`` at ``index``
        (called while ``_items`` still reflects the pre-insert state)."""
        runs = self._runs
        # Only never-started requests are compressible: their remaining
        # time and target are task constants until first dispatch, and
        # first dispatch only happens to a peek-tainted (exact) head.
        compressible = request.first_start_ms is None
        task = request.task
        if not runs:
            runs.append(self._new_run(request, compressible))
            return
        if index == len(self._items):
            last = runs[-1]
            if compressible and last[2] is None and last[0] is task:
                last[1] += 1
            else:
                runs.append(self._new_run(request, compressible))
            return
        if index == 0:
            first = runs[0]
            if compressible and first[2] is None and first[0] is task:
                first[1] += 1
            else:
                runs.appendleft(self._new_run(request, compressible))
            return
        ri, off = self._locate_run(index)
        run = runs[ri]
        if compressible and run[2] is None and run[0] is task:
            run[1] += 1
            return
        if off == 0:
            prev = runs[ri - 1]
            if compressible and prev[2] is None and prev[0] is task:
                prev[1] += 1
            else:
                runs.insert(ri, self._new_run(request, compressible))
            return
        # Interior of a compressed run of a different task: split it.
        tail_count = run[1] - off
        run[1] = off
        runs.insert(ri + 1, self._new_run(request, compressible))
        runs.insert(ri + 2, [run[0], tail_count, None])

    @staticmethod
    def _new_run(request: Request, compressible: bool) -> list:
        if compressible:
            return [request.task, 1, None]
        return [request.task, 1, request]

    def _run_delete(self, index: int) -> None:
        """Update the run summary for a delete at ``index`` (called while
        ``_items`` still reflects the pre-delete state)."""
        ri, _ = self._locate_run(index)
        run = self._runs[ri]
        run[1] -= 1
        if run[1] == 0:
            del self._runs[ri]

    def runs_reversed(self) -> Iterator[list]:
        """Run summaries from tail to head, each a ``[task, count, member]``
        triple (see ``_runs``). Treat the yielded lists as read-only; a
        ``member`` of None certifies ``count`` consecutive never-started
        requests of ``task``, so any per-request quantity derived from the
        task alone is constant across the run."""
        return reversed(self._runs)

    def _runs_consistent(self) -> bool:
        """Invariant check for the test-suite (O(n))."""
        if sum(run[1] for run in self._runs) != len(self._items):
            return False
        it = iter(self._items)
        for task, count, member in self._runs:
            if member is not None:
                if count != 1 or next(it) is not member:
                    return False
            else:
                for _ in range(count):
                    req = next(it)
                    if req.task is not task or req.first_start_ms is not None:
                        return False
        return True

    # ------------------------------------------------------------ mutations
    def append(self, request: Request) -> None:
        self._track(request)
        self._run_insert(len(self._items), request)
        self._items.append(request)

    def insert(self, index: int, request: Request) -> None:
        if not 0 <= index <= len(self._items):
            raise SchedulingError(f"insert index {index} out of range")
        self._track(request)
        self._run_insert(index, request)
        self._items.insert(index, request)

    def pop_head(self) -> Request:
        if not self._items:
            raise SchedulingError("pop from empty request queue")
        runs = self._runs
        first = runs[0]
        first[1] -= 1
        if first[1] == 0:
            runs.popleft()
        head = self._items.popleft()
        self._untrack(head)
        return head

    def peek(self) -> Request:
        if not self._items:
            raise SchedulingError("peek at empty request queue")
        head = self._items[0]
        # Taint the head: the caller may now mutate its scheduling state
        # (the engine begins/advances a request only after peeking it),
        # so it can no longer vouch for a compressed run's constants.
        first = self._runs[0]
        if first[2] is None:
            if first[1] == 1:
                first[2] = head
            else:
                first[1] -= 1
                self._runs.appendleft([head.task, 1, head])
        return head

    def move_to_front(self, index: int) -> None:
        if not 0 <= index < len(self._items):
            raise SchedulingError(f"move index {index} out of range")
        if index == 0:
            return
        item = self._items[index]
        self._run_delete(index)
        del self._items[index]
        self._run_insert(0, item)
        self._items.appendleft(item)

    def remove(self, request: Request) -> None:
        rid = request.request_id
        if rid not in self._ids:
            raise SchedulingError(f"request {rid} not in queue")
        items = self._items
        # The engine removes the request it just finished running, which
        # sits at (or near) the head — the head case takes a branch-free
        # path, the rest a scan that is O(1) in practice.
        if items[0] is request:
            runs = self._runs
            first = runs[0]
            if first[1] == 1:
                runs.popleft()
            else:
                first[1] -= 1
            items.popleft()
            self._ids.discard(rid)
            counts = self._type_counts
            ttype = request.task_type
            left = counts[ttype] - 1
            if left:
                counts[ttype] = left
            else:
                del counts[ttype]
            return
        for i, item in enumerate(items):
            if item is request:
                self._run_delete(i)
                del items[i]
                self._untrack(request)
                return
        raise SchedulingError(f"request {rid} not in queue")

    def bulk_greedy_insert(self, requests: list[Request]) -> list[int]:
        """Insert a whole arrival chunk by the greedy rule (Algorithm 1,
        Eq. 3), returning each request's insertion index.

        Byte-identical outcome to calling
        :func:`repro.scheduling.greedy.greedy_insert` once per request in
        order — the equivalence suite pins this against the list-backed
        oracle — but the per-request bubble walks the **run summary**
        directly and memoises the (new task, compressed-run task) stop
        verdict, so a chunk of same-task arrivals classifies against each
        run in O(1) after the first comparison. This is the admission path
        of the kernel's batched fast lane.
        """
        items = self._items
        runs = self._runs
        verdicts = self._pair_verdicts
        ids = self._ids
        counts = self._type_counts
        # Nothing in this loop can build the lazy arrival index, so the
        # reference is loop-invariant (only min_arrival_candidates sets it).
        arrival_index = self._arrival_index
        positions: list[int] = []
        record = positions.append
        n = len(items)
        for req in requests:
            task = req.task
            new_type = task.name
            compressible = req.first_start_ms is None
            new_ext_left = (
                task.suffix_ms[0] if compressible else req.ext_left_ms
            )
            new_target = task.target_ms
            # -- bubble from the tail over runs (greedy_insert, run-wise) --
            pos = n
            stop_ri = -1
            ri = len(runs)
            for run in reversed(runs):
                ri -= 1
                member = run[2]
                if member is None:
                    rtask = run[0]
                    if compressible:
                        key = (id(task), id(rtask))
                        entry = verdicts.get(key)
                        if entry is None:
                            stop = rtask.name == new_type or (
                                rtask.suffix_ms[0] / new_target
                                - new_ext_left / rtask.target_ms
                                < 0.0
                            )
                            verdicts[key] = (task, rtask, stop)
                        else:
                            stop = entry[2]
                        if stop:
                            stop_ri = ri
                            break
                    elif rtask.name == new_type or (
                        rtask.suffix_ms[0] / new_target
                        - new_ext_left / rtask.target_ms
                        < 0.0
                    ):
                        stop_ri = ri
                        break
                    pos -= run[1]
                else:
                    # Exact run: live request, re-read per evaluation.
                    if member.task_type == new_type or (
                        member.ext_left_ms / new_target
                        - new_ext_left / member.task.target_ms
                        < 0.0
                    ):
                        stop_ri = ri
                        break
                    pos -= 1
            # -- apply: tracking, run summary, deque (mirrors insert(),
            # with _track inlined over the hoisted locals) --
            rid = req.request_id
            if rid in ids:
                raise SchedulingError(f"request {rid} is already queued")
            ids.add(rid)
            counts[new_type] = counts.get(new_type, 0) + 1
            if arrival_index is not None:
                seq = self._arrival_seq
                self._arrival_seq = seq + 1
                heapq.heappush(
                    arrival_index.setdefault(new_type, []),
                    (req.arrival_ms, seq, req),
                )
            if n == 0:
                runs.append([task, 1, None] if compressible else [task, 1, req])
                items.append(req)
            elif pos == n:
                last = runs[-1]
                if compressible and last[2] is None and last[0] is task:
                    last[1] += 1
                else:
                    runs.append(
                        [task, 1, None] if compressible else [task, 1, req]
                    )
                items.append(req)
            elif pos == 0:
                first = runs[0]
                if compressible and first[2] is None and first[0] is task:
                    first[1] += 1
                else:
                    runs.appendleft(
                        [task, 1, None] if compressible else [task, 1, req]
                    )
                items.appendleft(req)
            else:
                # Stopped at a run boundary: the new element lands directly
                # behind run ``stop_ri`` (greedy passes whole runs, so an
                # interior split can never happen here).
                run = runs[stop_ri]
                if compressible and run[2] is None and run[0] is task:
                    run[1] += 1
                else:
                    runs.insert(
                        stop_ri + 1,
                        [task, 1, None] if compressible else [task, 1, req],
                    )
                items.insert(pos, req)
            n += 1
            record(pos)
        return positions

    def type_census(self) -> dict[str, int]:
        """The live type census (the dict :meth:`type_counts` copies).

        Read-only by contract: callers take a per-dispatch decision from
        it and must not hold or mutate it. Exists so the elastic-splitting
        check costs no allocation on the dispatch hot path.
        """
        return self._type_counts

    # ------------------------------------------------------------- queries
    def index_of(self, request: Request) -> int:
        """Current position of ``request`` (identity match)."""
        for i, item in enumerate(self._items):
            if item is request:
                return i
        raise SchedulingError(f"request {request.request_id} not in queue")

    def waiting_ahead_ms(self, index: int) -> float:
        """Total remaining execution time scheduled ahead of ``index``."""
        return float(sum(r.ext_left_ms for r in islice(self._items, index)))

    def total_backlog_ms(self) -> float:
        return float(sum(r.ext_left_ms for r in self._items))

    def task_types(self) -> list[str]:
        return [r.task_type for r in self._items]

    def type_counts(self) -> dict[str, int]:
        """Queued-request count per task type (no zero entries).

        Maintained incrementally, so the elastic-splitting snapshot taken
        at every first dispatch is O(#types) instead of O(queue length).
        """
        return dict(self._type_counts)

    def min_arrival_candidates(self) -> list[Request]:
        """Per task type, the queued request(s) with the minimal arrival
        time — the only members that can win an arrival-monotone priority
        scan (PREMA's token grows with waiting time, so within one task
        type the earliest arrival always holds the largest token).

        The heaps behind this are built on first call (O(n log n) once)
        and maintained incrementally afterwards; entries for requests that
        have since left the queue are discarded lazily when they surface.
        Returns one request per type, plus every same-type request sharing
        the exact minimal arrival time (ties are resolved by the caller).
        """
        if self._arrival_index is None:
            self._arrival_index = {}
            for r in self._items:
                seq = self._arrival_seq
                self._arrival_seq = seq + 1
                heapq.heappush(
                    self._arrival_index.setdefault(r.task_type, []),
                    (r.arrival_ms, seq, r),
                )
        out: list[Request] = []
        ids = self._ids
        for ttype in self._type_counts:
            heap = self._arrival_index.get(ttype)
            if not heap:
                raise SchedulingError(
                    f"arrival index lost track of task type {ttype!r}"
                )
            while heap:
                # Drop stale tops so the minimum is a live entry.
                while heap and heap[0][2].request_id not in ids:
                    heapq.heappop(heap)
                if not heap:
                    raise SchedulingError(
                        f"arrival index lost track of task type {ttype!r}"
                    )
                t0 = heap[0][0]
                popped: list[tuple[float, int, Request]] = []
                while heap and heap[0][0] == t0:
                    entry = heapq.heappop(heap)
                    if entry[2].request_id in ids:
                        popped.append(entry)
                if popped:
                    seen: set[int] = set()
                    for entry in popped:
                        rid = entry[2].request_id
                        if rid not in seen:
                            seen.add(rid)
                            out.append(entry[2])
                        heapq.heappush(heap, entry)
                    break
        return out


class ListBackedRequestQueue:
    """The original list-backed queue, kept as the reference oracle.

    Semantically identical to :class:`RequestQueue`; every operation and
    derived view is computed the straightforward O(n) way. The equivalence
    test-suite drives both backends with identical mutation programs, and
    the engine benchmarks use this class as the asymptotic baseline
    (``SequentialEngine(..., queue_cls=ListBackedRequestQueue)``).
    """

    def __init__(self) -> None:
        self._items: list[Request] = []
        self._ids: set[int] = set()

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Request]:
        return iter(self._items)

    def __reversed__(self) -> Iterator[Request]:
        return reversed(self._items)

    def __getitem__(self, idx: int) -> Request:
        return self._items[idx]

    def __contains__(self, request: Request) -> bool:
        return request.request_id in self._ids

    @property
    def empty(self) -> bool:
        return not self._items

    def _track(self, request: Request) -> None:
        if request.request_id in self._ids:
            raise SchedulingError(
                f"request {request.request_id} is already queued"
            )
        self._ids.add(request.request_id)

    def append(self, request: Request) -> None:
        self._track(request)
        self._items.append(request)

    def insert(self, index: int, request: Request) -> None:
        if not 0 <= index <= len(self._items):
            raise SchedulingError(f"insert index {index} out of range")
        self._track(request)
        self._items.insert(index, request)

    def pop_head(self) -> Request:
        if not self._items:
            raise SchedulingError("pop from empty request queue")
        head = self._items.pop(0)
        self._ids.discard(head.request_id)
        return head

    def peek(self) -> Request:
        if not self._items:
            raise SchedulingError("peek at empty request queue")
        return self._items[0]

    def move_to_front(self, index: int) -> None:
        if not 0 <= index < len(self._items):
            raise SchedulingError(f"move index {index} out of range")
        item = self._items.pop(index)
        self._items.insert(0, item)

    def remove(self, request: Request) -> None:
        if request.request_id not in self._ids:
            raise SchedulingError(f"request {request.request_id} not in queue")
        for i, item in enumerate(self._items):
            if item is request:
                del self._items[i]
                self._ids.discard(request.request_id)
                return
        raise SchedulingError(f"request {request.request_id} not in queue")

    def index_of(self, request: Request) -> int:
        for i, item in enumerate(self._items):
            if item is request:
                return i
        raise SchedulingError(f"request {request.request_id} not in queue")

    def waiting_ahead_ms(self, index: int) -> float:
        """Total remaining execution time scheduled ahead of ``index``."""
        return float(sum(r.ext_left_ms for r in self._items[:index]))

    def total_backlog_ms(self) -> float:
        return float(sum(r.ext_left_ms for r in self._items))

    def task_types(self) -> list[str]:
        return [r.task_type for r in self._items]

    def type_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for r in self._items:
            counts[r.task_type] = counts.get(r.task_type, 0) + 1
        return counts

    def type_census(self) -> dict[str, int]:
        """Fresh census (the list backend has no incremental one)."""
        return self.type_counts()

    def bulk_greedy_insert(self, requests: list[Request]) -> list[int]:
        """Reference implementation: the element-by-element greedy bubble
        (literally :func:`repro.scheduling.greedy.greedy_insert`), once
        per request in order."""
        positions: list[int] = []
        for req in requests:
            pos = len(self._items)
            new_type = req.task_type
            new_target = req.task.target_ms
            new_ext_left = req.ext_left_ms
            for ahead in reversed(self._items):
                if ahead.task_type == new_type:
                    break
                if (
                    ahead.ext_left_ms / new_target
                    - new_ext_left / ahead.task.target_ms
                    < 0.0
                ):
                    break
                pos -= 1
            self.insert(pos, req)
            positions.append(pos)
        return positions

    def min_arrival_candidates(self) -> list[Request]:
        """Per-type minimal-arrival requests, computed by definition."""
        minima: dict[str, float] = {}
        for r in self._items:
            t = minima.get(r.task_type)
            if t is None or r.arrival_ms < t:
                minima[r.task_type] = r.arrival_ms
        return [r for r in self._items if r.arrival_ms == minima[r.task_type]]

    def runs_reversed(self) -> Iterator[list]:
        """Every element as an exact singleton run: the greedy bubble over
        these is literally the original element-by-element walk."""
        for r in reversed(self._items):
            yield [r.task, 1, r]
