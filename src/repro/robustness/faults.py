"""Deterministic, seedable fault injection for block executions.

A :class:`FaultPlan` describes *what can go wrong* (rates for failures,
stalls and drops, plus an optional scripted list for exact-control tests);
a :class:`FaultInjector` evaluates the plan for one block execution and
returns a :class:`FaultDecision` (or None for a clean run).

Decisions are pure functions of ``(seed, task_type, arrival_ms,
block_index, attempt)`` — hashed through the same BLAKE2b derivation the
rest of the library uses (:func:`repro.utils.rng.derive_seed`, with its
label path built inline on this hot path) — so they do
not depend on request ids (a process-global counter) or on call order.
Within the discrete-event engines, where arrival schedules are themselves
seeded, two runs with the same plan therefore produce identical faults and
identical metrics. In the threaded server arrival times come from the
scaled wall clock, so the *pattern* varies run to run while the configured
rates still hold.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from hashlib import blake2b

from repro.errors import SimulationError

_MAX64 = float(1 << 64)


class FaultKind(enum.Enum):
    """What happens to one block execution."""

    #: The block runs for its full duration, then its result is lost; the
    #: request retries the block (with backoff) or fails terminally.
    FAIL = "fail"
    #: The block completes but takes ``stall_factor`` times longer.
    STALL = "stall"
    #: The whole request is dropped at dispatch (no processor time used).
    DROP = "drop"


@dataclass(frozen=True)
class FaultDecision:
    """One resolved fault for one block attempt."""

    kind: FaultKind
    stall_factor: float = 1.0


@dataclass(frozen=True)
class ScriptedFault:
    """Exact-control fault rule: fields set to None match anything.

    Scripted rules are checked before the stochastic rates, first match
    wins — tests use them to place a fault on a precise block attempt.
    """

    kind: FaultKind
    task_type: str | None = None
    block_index: int | None = None
    attempt: int | None = None
    stall_factor: float = 2.0

    def matches(self, task_type: str, block_index: int, attempt: int) -> bool:
        return (
            (self.task_type is None or self.task_type == task_type)
            and (self.block_index is None or self.block_index == block_index)
            and (self.attempt is None or self.attempt == attempt)
        )


@dataclass(frozen=True)
class FaultPlan:
    """Seeded description of the fault environment.

    Rates are per *block attempt* and must sum to at most 1; the disjoint
    ranges ``[0, fail) [fail, fail+stall) [fail+stall, fail+stall+drop)``
    of one uniform draw decide the outcome, so raising one rate never
    reshuffles the faults another rate already produced.
    """

    seed: int = 0
    fail_rate: float = 0.0
    stall_rate: float = 0.0
    drop_rate: float = 0.0
    stall_factor: float = 2.0
    scripted: tuple[ScriptedFault, ...] = ()

    def __post_init__(self) -> None:
        for name in ("fail_rate", "stall_rate", "drop_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise SimulationError(f"{name} must be in [0, 1], got {rate}")
        if self.fail_rate + self.stall_rate + self.drop_rate > 1.0 + 1e-12:
            raise SimulationError("fault rates must sum to at most 1")
        if self.stall_factor < 1.0:
            raise SimulationError("stall_factor must be >= 1")

    @property
    def enabled(self) -> bool:
        return bool(
            self.scripted
            or self.fail_rate > 0.0
            or self.stall_rate > 0.0
            or self.drop_rate > 0.0
        )


class FaultInjector:
    """Evaluates a :class:`FaultPlan` per block execution, with counters.

    The issued-decision counters (``fails_issued`` etc.) let tests
    reconcile engine-side effects against the plan: every issued FAIL is
    either retried or ends the request, every issued DROP removes one
    request, every issued STALL stretches exactly one block.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.fails_issued = 0
        self.stalls_issued = 0
        self.drops_issued = 0

    def _count(self, decision: FaultDecision) -> FaultDecision:
        if decision.kind is FaultKind.FAIL:
            self.fails_issued += 1
        elif decision.kind is FaultKind.STALL:
            self.stalls_issued += 1
        else:
            self.drops_issued += 1
        return decision

    def decide(
        self,
        task_type: str,
        arrival_ms: float,
        block_index: int,
        attempt: int,
    ) -> FaultDecision | None:
        """Fault (or None) for attempt ``attempt`` of one block.

        Deterministic in its arguments plus the plan seed; safe to call
        from any thread (counters race benignly under CPython's GIL).
        """
        plan = self.plan
        for rule in plan.scripted:
            if rule.matches(task_type, block_index, attempt):
                return self._count(
                    FaultDecision(rule.kind, stall_factor=rule.stall_factor)
                )
        p_fail, p_stall, p_drop = plan.fail_rate, plan.stall_rate, plan.drop_rate
        if p_fail == p_stall == p_drop == 0.0:
            return None
        # Byte-identical to derive_seed(plan.seed, "fault", task_type,
        # f"{arrival_ms:.9f}", block_index, attempt), minus its generic
        # label join: this runs once per block attempt.
        key = f"{plan.seed}:fault:{task_type}:{arrival_ms:.9f}:{block_index}:{attempt}"
        digest = blake2b(key.encode("utf-8"), digest_size=8).digest()
        u = int.from_bytes(digest, "little") / _MAX64
        if u < p_fail:
            return self._count(FaultDecision(FaultKind.FAIL))
        if u < p_fail + p_stall:
            return self._count(
                FaultDecision(FaultKind.STALL, stall_factor=plan.stall_factor)
            )
        if u < p_fail + p_stall + p_drop:
            return self._count(FaultDecision(FaultKind.DROP))
        return None
