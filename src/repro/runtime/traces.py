"""Beyond-Poisson workloads: bursts and trace replay.

The paper uses Poisson arrivals for lack of public edge traces (§5.1); a
serving system also has to survive *bursts* (the autonomous-driving intro:
pedestrians cluster) and operators will eventually want to replay recorded
traces. Both integrate with the same ``materialize_requests`` path as the
Poisson generator.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.errors import SimulationError
from repro.runtime.workload import WorkloadItem
from repro.utils.rng import rng_from


@dataclass(frozen=True)
class BurstConfig:
    """Markov-modulated on/off arrivals.

    The stream alternates between a *calm* phase (mean inter-arrival
    ``calm_gap_ms``) and a *burst* phase (``burst_gap_ms``); phase
    durations are exponential with the given means. Burst-phase arrivals
    draw from ``burst_models`` (the short, event-triggered tasks), calm
    arrivals from ``calm_models``.
    """

    calm_models: tuple[str, ...]
    burst_models: tuple[str, ...]
    calm_gap_ms: float = 150.0
    burst_gap_ms: float = 25.0
    calm_duration_ms: float = 2000.0
    burst_duration_ms: float = 400.0

    def __post_init__(self) -> None:
        if not self.calm_models or not self.burst_models:
            raise SimulationError("both model lists must be non-empty")
        for field in (
            "calm_gap_ms",
            "burst_gap_ms",
            "calm_duration_ms",
            "burst_duration_ms",
        ):
            if getattr(self, field) <= 0:
                raise SimulationError(f"{field} must be positive")


class BurstyWorkloadGenerator:
    """On/off (interrupted-Poisson) arrival schedule."""

    def __init__(self, config: BurstConfig, seed: int = 0):
        self.config = config
        self.seed = seed

    def generate(self, n_requests: int) -> list[WorkloadItem]:
        if n_requests < 1:
            raise SimulationError("n_requests must be >= 1")
        cfg = self.config
        rng = rng_from(self.seed, "bursty-workload")
        items: list[WorkloadItem] = []
        t = 0.0
        in_burst = False
        phase_end = float(rng.exponential(cfg.calm_duration_ms))
        while len(items) < n_requests:
            gap = cfg.burst_gap_ms if in_burst else cfg.calm_gap_ms
            t += float(rng.exponential(gap))
            while t >= phase_end:
                in_burst = not in_burst
                duration = (
                    cfg.burst_duration_ms if in_burst else cfg.calm_duration_ms
                )
                phase_end += float(rng.exponential(duration))
            pool = cfg.burst_models if in_burst else cfg.calm_models
            model = pool[int(rng.integers(0, len(pool)))]
            items.append(WorkloadItem(arrival_ms=t, model_name=model))
        return items


def save_trace(items: list[WorkloadItem], path: str | Path) -> Path:
    """Persist a workload as a two-column CSV (arrival_ms, model)."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["arrival_ms", "model"])
        for item in items:
            writer.writerow([f"{item.arrival_ms:.6f}", item.model_name])
    return path


def load_trace(path: str | Path) -> list[WorkloadItem]:
    """Replay a CSV trace written by :func:`save_trace` (or hand-made)."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise SimulationError(f"cannot read trace {path}: {exc}") from exc
    items: list[WorkloadItem] = []
    reader = csv.reader(text.splitlines())
    header = next(reader, None)
    if header is None or [h.strip() for h in header[:2]] != ["arrival_ms", "model"]:
        raise SimulationError(
            f"{path}: expected header 'arrival_ms,model', got {header}"
        )
    last_t = -float("inf")
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        try:
            t = float(row[0])
        except (ValueError, IndexError) as exc:
            raise SimulationError(f"{path}:{lineno}: bad arrival time") from exc
        if len(row) < 2 or not row[1].strip():
            raise SimulationError(f"{path}:{lineno}: missing model name")
        if not 0.0 <= t < math.inf:
            kind = "negative" if t < 0 else "non-finite"
            raise SimulationError(f"{path}:{lineno}: {kind} arrival time {t}")
        if t < last_t:
            raise SimulationError(f"{path}:{lineno}: arrivals not sorted")
        last_t = t
        items.append(WorkloadItem(arrival_ms=t, model_name=row[1].strip()))
    if not items:
        raise SimulationError(f"{path}: trace is empty")
    return items


def burstiness_index(items: list[WorkloadItem]) -> float:
    """Squared coefficient of variation of inter-arrival gaps.

    1.0 for Poisson; > 1 indicates bursts (the generator above typically
    lands in the 1.5–4 range depending on configuration).
    """
    if len(items) < 3:
        raise SimulationError("need at least 3 arrivals")
    times = np.array([i.arrival_ms for i in items])
    gaps = np.diff(times)
    mean = gaps.mean()
    if mean <= 0:
        return float("inf")
    return float(gaps.var() / mean**2)
