"""Shared type aliases and small enums used across subsystems."""

from __future__ import annotations

import enum
from typing import Sequence

#: Milliseconds — the canonical time unit across the library (the paper's
#: latencies are all reported in ms).
Millis = float

#: A cut-point vector: sorted indices i meaning "cut after chain position i"
#: (0-based, so a valid cut index lies in [0, n_ops - 2]).
CutPoints = tuple[int, ...]

#: Per-operator execution times in ms, in chain (topological) order.
OpTimes = Sequence[float]


class OpType(enum.Enum):
    """Operator categories recognised by the latency model.

    The set mirrors the ONNX operators that dominate the 11 profiled
    architectures (conv / matmul compute ops, elementwise glue, pooling,
    normalisation, attention pieces for GPT-2).
    """

    CONV = "Conv"
    DEPTHWISE_CONV = "DepthwiseConv"
    MATMUL = "MatMul"
    GEMM = "Gemm"
    RELU = "Relu"
    GELU = "Gelu"
    SIGMOID = "Sigmoid"
    TANH = "Tanh"
    SOFTMAX = "Softmax"
    ADD = "Add"
    MUL = "Mul"
    CONCAT = "Concat"
    MAXPOOL = "MaxPool"
    AVGPOOL = "AveragePool"
    GLOBAL_AVGPOOL = "GlobalAveragePool"
    BATCHNORM = "BatchNormalization"
    LAYERNORM = "LayerNormalization"
    LRN = "LRN"
    RESHAPE = "Reshape"
    TRANSPOSE = "Transpose"
    FLATTEN = "Flatten"
    SLICE = "Slice"
    SHUFFLE = "ChannelShuffle"
    EMBEDDING = "Gather"
    DROPOUT = "Dropout"
    UPSAMPLE = "Upsample"
    LEAKY_RELU = "LeakyRelu"
    SWISH = "Swish"
    SUB = "Sub"
    DIV = "Div"
    POW = "Pow"
    SQRT = "Sqrt"
    EXP = "Exp"
    ERF = "Erf"
    REDUCE_MEAN = "ReduceMean"
    CAST = "Cast"
    SHAPE = "Shape"
    UNSQUEEZE = "Unsqueeze"
    SQUEEZE = "Squeeze"
    SPLIT = "Split"
    WHERE = "Where"

    @property
    def is_compute_bound(self) -> bool:
        """Whether this op class is typically limited by FLOPs, not bytes."""
        return self in _COMPUTE_BOUND

    @property
    def is_reshaping(self) -> bool:
        """Whether this op only rearranges metadata (near-zero cost)."""
        return self in _RESHAPING


_COMPUTE_BOUND = frozenset(
    {OpType.CONV, OpType.MATMUL, OpType.GEMM, OpType.DEPTHWISE_CONV}
)
_RESHAPING = frozenset(
    {
        OpType.RESHAPE,
        OpType.TRANSPOSE,
        OpType.FLATTEN,
        OpType.DROPOUT,
        OpType.CAST,
        OpType.SHAPE,
        OpType.UNSQUEEZE,
        OpType.SQUEEZE,
        OpType.SPLIT,
    }
)


class RequestClass(enum.Enum):
    """Paper's long/short classification of requests (Table 1, last column)."""

    SHORT = "short"
    LONG = "long"
