"""Roofline-style per-operator latency model.

For each operator the model takes the slower of the compute roof
(``flops / (peak * efficiency)``) and the memory roof
(``bytes_touched / (bandwidth * efficiency)``), plus the fixed kernel-launch
cost; metadata ops (Reshape, Cast, ...) cost a small constant. Per-model
calibration scales the whole profile so the graph's isolated latency equals
a measured target (the paper's Table 1), preserving the *relative* per-op
times that drive all splitting decisions.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CalibrationError
from repro.graphs.graph import ModelGraph
from repro.graphs.operator import Operator
from repro.hardware.device import DeviceSpec

_MS = 1e3


class LatencyModel:
    """Maps operators to execution times (ms) on a :class:`DeviceSpec`."""

    def __init__(self, device: DeviceSpec):
        self.device = device

    def op_latency_ms(self, op: Operator) -> float:
        """Predicted isolated execution time of one operator, ms."""
        dev = self.device
        if op.op_type.is_reshaping:
            return dev.metadata_op_ms
        compute_ms = 0.0
        if op.flops > 0:
            eff = dev.efficiency_for(op.op_type)
            compute_ms = op.flops / (dev.peak_flops * eff) * _MS
        memory_ms = (
            op.memory_bytes / (dev.mem_bandwidth * dev.memory_efficiency) * _MS
        )
        return dev.kernel_launch_ms + max(compute_ms, memory_ms)

    def profile_graph(self, graph: ModelGraph) -> np.ndarray:
        """Raw (uncalibrated) per-op latencies in chain order, ms."""
        return np.array([self.op_latency_ms(op) for op in graph.operators])

    def calibrated_profile(
        self, graph: ModelGraph, target_total_ms: float | None = None
    ) -> np.ndarray:
        """Per-op latencies scaled so their sum matches ``target_total_ms``.

        When ``target_total_ms`` is ``None`` the graph's
        ``metadata["paper_latency_ms"]`` is used if present, otherwise the
        raw profile is returned unscaled. Scaling preserves per-op ratios —
        exactly what an on-device profiling pass would pin down.
        """
        raw = self.profile_graph(graph)
        if target_total_ms is None:
            target_total_ms = graph.metadata.get("paper_latency_ms")
        if target_total_ms is None:
            return raw
        total = float(raw.sum())
        if total <= 0:
            raise CalibrationError(
                f"{graph.name}: raw profile sums to {total}; cannot calibrate"
            )
        if target_total_ms <= 0:
            raise CalibrationError(
                f"{graph.name}: target latency {target_total_ms} must be positive"
            )
        return raw * (target_total_ms / total)
