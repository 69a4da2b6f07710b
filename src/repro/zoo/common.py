"""Graph-builder helpers shared by the zoo architectures.

:class:`GraphBuilder` tracks the "current" tensor of a sequential segment and
appends operators with shapes, FLOPs (2 FLOPs per multiply-accumulate, the
usual ONNX-profiler convention) and parameter byte counts computed from the
layer configuration, so every architecture module reads like its paper
definition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.graphs.graph import ModelGraph
from repro.graphs.operator import Operator
from repro.graphs.tensor import TensorSpec
from repro.types import OpType

FLOAT = "float32"


def conv_out_hw(h: int, w: int, k: int, stride: int, pad: int) -> tuple[int, int]:
    """Spatial output dims of a conv/pool with square kernel."""
    oh = (h + 2 * pad - k) // stride + 1
    ow = (w + 2 * pad - k) // stride + 1
    if oh <= 0 or ow <= 0:
        raise ValueError(f"conv reduces {h}x{w} to {oh}x{ow} (k={k}, s={stride}, p={pad})")
    return oh, ow


@dataclass
class GraphBuilder:
    """Incremental constructor for a :class:`ModelGraph`.

    Most methods take an optional ``x`` tensor (defaults to the last produced
    tensor) and return the operator's output tensor, so sequential segments
    chain naturally while branches pass tensors explicitly.
    """

    name: str
    input_shape: tuple[int, ...]
    input_name: str = "input"
    input_dtype: str = FLOAT
    graph: ModelGraph = field(init=False)
    current: TensorSpec = field(init=False)
    _counter: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        inp = TensorSpec(self.input_name, self.input_shape, self.input_dtype)
        self.graph = ModelGraph(name=self.name, inputs=(inp,))
        self.current = inp

    # ------------------------------------------------------------------ utils
    def _fresh(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}_{self._counter}"

    def _x(self, x: TensorSpec | None) -> TensorSpec:
        return self.current if x is None else x

    def emit(
        self,
        op_type: OpType,
        inputs: tuple[TensorSpec, ...],
        out_shape: tuple[int, ...],
        flops: float,
        param_bytes: int = 0,
        name: str | None = None,
        out_dtype: str = FLOAT,
        **attributes,
    ) -> TensorSpec:
        """Append one operator and make its output the current tensor."""
        op_name = name or self._fresh(op_type.value.lower())
        out = TensorSpec(f"{op_name}_out", out_shape, out_dtype)
        self.graph.add(
            Operator(
                name=op_name,
                op_type=op_type,
                inputs=inputs,
                outputs=(out,),
                flops=flops,
                param_bytes=param_bytes,
                attributes=attributes,
            )
        )
        self.current = out
        return out

    # ------------------------------------------------------------ convolution
    def conv2d(
        self,
        out_channels: int,
        kernel: int,
        stride: int = 1,
        pad: int | None = None,
        groups: int = 1,
        bias: bool = True,
        x: TensorSpec | None = None,
        name: str | None = None,
    ) -> TensorSpec:
        """2D convolution on an NCHW tensor."""
        x = self._x(x)
        n, c, h, w = x.shape
        if pad is None:
            pad = kernel // 2  # "same" padding for odd kernels
        oh, ow = conv_out_hw(h, w, kernel, stride, pad)
        macs = (kernel * kernel * (c // groups) * out_channels * oh * ow) * n
        params = kernel * kernel * (c // groups) * out_channels + (
            out_channels if bias else 0
        )
        op_type = (
            OpType.DEPTHWISE_CONV if groups == c and groups > 1 else OpType.CONV
        )
        return self.emit(
            op_type,
            (x,),
            (n, out_channels, oh, ow),
            flops=2.0 * macs,
            param_bytes=params * 4,
            name=name,
            kernel=kernel,
            stride=stride,
            pad=pad,
            groups=groups,
        )

    # ------------------------------------------------------------- activations
    def _elementwise(
        self,
        op_type: OpType,
        flops_per_elem: float = 1.0,
        x: TensorSpec | None = None,
        name: str | None = None,
    ) -> TensorSpec:
        x = self._x(x)
        return self.emit(
            op_type, (x,), x.shape, flops=flops_per_elem * x.numel, name=name
        )

    def relu(self, x: TensorSpec | None = None, name: str | None = None) -> TensorSpec:
        return self._elementwise(OpType.RELU, 1.0, x, name)

    def leaky_relu(self, x: TensorSpec | None = None, name: str | None = None) -> TensorSpec:
        return self._elementwise(OpType.LEAKY_RELU, 2.0, x, name)

    def sigmoid(self, x: TensorSpec | None = None, name: str | None = None) -> TensorSpec:
        return self._elementwise(OpType.SIGMOID, 4.0, x, name)

    def tanh(self, x: TensorSpec | None = None, name: str | None = None) -> TensorSpec:
        return self._elementwise(OpType.TANH, 4.0, x, name)

    def swish(self, x: TensorSpec | None = None, name: str | None = None) -> TensorSpec:
        return self._elementwise(OpType.SWISH, 5.0, x, name)

    def gelu(self, x: TensorSpec | None = None, name: str | None = None) -> TensorSpec:
        return self._elementwise(OpType.GELU, 8.0, x, name)

    def batchnorm(self, x: TensorSpec | None = None, name: str | None = None) -> TensorSpec:
        x = self._x(x)
        channels = x.shape[1]
        return self.emit(
            OpType.BATCHNORM,
            (x,),
            x.shape,
            flops=2.0 * x.numel,
            param_bytes=4 * channels * 4,
            name=name,
        )

    def lrn(self, size: int = 5, x: TensorSpec | None = None, name: str | None = None) -> TensorSpec:
        x = self._x(x)
        return self.emit(OpType.LRN, (x,), x.shape, flops=size * 2.0 * x.numel, name=name)

    def softmax(self, x: TensorSpec | None = None, name: str | None = None) -> TensorSpec:
        return self._elementwise(OpType.SOFTMAX, 5.0, x, name)

    def dropout(self, x: TensorSpec | None = None, name: str | None = None) -> TensorSpec:
        # Inference-mode dropout is an identity pass-through (kept as a node
        # because exported ONNX graphs keep it, which affects operator counts).
        return self._elementwise(OpType.DROPOUT, 0.0, x, name)

    # -------------------------------------------------------------- arithmetic
    def scale(self, x: TensorSpec | None = None, name: str | None = None) -> TensorSpec:
        """Multiply by a scalar constant (e.g. 1/sqrt(d_k))."""
        return self._elementwise(OpType.MUL, 1.0, x, name)

    def div_const(self, x: TensorSpec | None = None, name: str | None = None) -> TensorSpec:
        return self._elementwise(OpType.DIV, 1.0, x, name)

    def pow_const(self, x: TensorSpec | None = None, name: str | None = None) -> TensorSpec:
        return self._elementwise(OpType.POW, 1.0, x, name)

    def sqrt(self, x: TensorSpec | None = None, name: str | None = None) -> TensorSpec:
        return self._elementwise(OpType.SQRT, 1.0, x, name)

    def exp(self, x: TensorSpec | None = None, name: str | None = None) -> TensorSpec:
        return self._elementwise(OpType.EXP, 2.0, x, name)

    def add_const(self, x: TensorSpec | None = None, name: str | None = None) -> TensorSpec:
        """Add a broadcast constant (bias, eps, mask)."""
        return self._elementwise(OpType.ADD, 1.0, x, name)

    def reduce_mean(
        self, axis: int = -1, x: TensorSpec | None = None, name: str | None = None
    ) -> TensorSpec:
        x = self._x(x)
        out = list(x.shape)
        out[axis] = 1
        return self.emit(
            OpType.REDUCE_MEAN, (x,), tuple(out), flops=float(x.numel), name=name
        )

    def sub(self, a: TensorSpec, b: TensorSpec, name: str | None = None) -> TensorSpec:
        """Broadcast subtract; output takes a's shape."""
        return self.emit(OpType.SUB, (a, b), a.shape, flops=float(a.numel), name=name)

    def div(self, a: TensorSpec, b: TensorSpec, name: str | None = None) -> TensorSpec:
        """Broadcast divide; output takes a's shape."""
        return self.emit(OpType.DIV, (a, b), a.shape, flops=float(a.numel), name=name)

    def scaffold(
        self, kinds: tuple[OpType, ...] = (OpType.SHAPE, OpType.CAST, OpType.UNSQUEEZE),
        count: int = 1,
        x: TensorSpec | None = None,
    ) -> TensorSpec:
        """Emit ``count`` zero-FLOP shape-scaffolding ops (Shape/Cast/Unsqueeze).

        Real ONNX exports of dynamic-shaped models (notably GPT-2) interleave
        many such metadata ops; they cost ~0 but do appear as graph nodes and
        therefore as splitting positions, so the zoo reproduces them.
        """
        x = self._x(x)
        for i in range(count):
            kind = kinds[i % len(kinds)]
            x = self.emit(kind, (x,), x.shape, flops=0.0)
        return x

    def add(self, a: TensorSpec, b: TensorSpec, name: str | None = None) -> TensorSpec:
        if a.shape != b.shape:
            raise ValueError(f"add shape mismatch: {a.shape} vs {b.shape}")
        return self.emit(OpType.ADD, (a, b), a.shape, flops=float(a.numel), name=name)

    def mul(self, a: TensorSpec, b: TensorSpec, name: str | None = None) -> TensorSpec:
        # Broadcast multiply (used by squeeze-excite); output takes a's shape.
        return self.emit(OpType.MUL, (a, b), a.shape, flops=float(a.numel), name=name)

    # ------------------------------------------------------------------ pooling
    def maxpool(
        self,
        kernel: int,
        stride: int | None = None,
        pad: int = 0,
        x: TensorSpec | None = None,
        name: str | None = None,
    ) -> TensorSpec:
        x = self._x(x)
        stride = stride or kernel
        n, c, h, w = x.shape
        oh, ow = conv_out_hw(h, w, kernel, stride, pad)
        return self.emit(
            OpType.MAXPOOL,
            (x,),
            (n, c, oh, ow),
            flops=float(kernel * kernel * n * c * oh * ow),
            name=name,
            kernel=kernel,
            stride=stride,
        )

    def avgpool(
        self,
        kernel: int,
        stride: int | None = None,
        pad: int = 0,
        x: TensorSpec | None = None,
        name: str | None = None,
    ) -> TensorSpec:
        x = self._x(x)
        stride = stride or kernel
        n, c, h, w = x.shape
        oh, ow = conv_out_hw(h, w, kernel, stride, pad)
        return self.emit(
            OpType.AVGPOOL,
            (x,),
            (n, c, oh, ow),
            flops=float(kernel * kernel * n * c * oh * ow),
            name=name,
        )

    def global_avgpool(self, x: TensorSpec | None = None, name: str | None = None) -> TensorSpec:
        x = self._x(x)
        n, c, h, w = x.shape
        return self.emit(
            OpType.GLOBAL_AVGPOOL, (x,), (n, c, 1, 1), flops=float(x.numel), name=name
        )

    # ------------------------------------------------------------------ shaping
    def flatten(self, x: TensorSpec | None = None, name: str | None = None) -> TensorSpec:
        x = self._x(x)
        n = x.shape[0]
        return self.emit(
            OpType.FLATTEN, (x,), (n, x.numel // n), flops=0.0, name=name
        )

    def reshape(
        self, shape: tuple[int, ...], x: TensorSpec | None = None, name: str | None = None
    ) -> TensorSpec:
        x = self._x(x)
        if math.prod(shape) != x.numel:
            raise ValueError(f"reshape {x.shape} -> {shape} changes element count")
        return self.emit(OpType.RESHAPE, (x,), shape, flops=0.0, name=name)

    def transpose(
        self, perm: tuple[int, ...], x: TensorSpec | None = None, name: str | None = None
    ) -> TensorSpec:
        x = self._x(x)
        out_shape = tuple(x.shape[p] for p in perm)
        return self.emit(
            OpType.TRANSPOSE, (x,), out_shape, flops=0.0, name=name, perm=perm
        )

    def concat(
        self, parts: list[TensorSpec], axis: int = 1, name: str | None = None
    ) -> TensorSpec:
        base = parts[0].shape
        for p in parts[1:]:
            if len(p.shape) != len(base):
                raise ValueError("concat rank mismatch")
        out = list(base)
        out[axis] = sum(p.shape[axis] for p in parts)
        total = sum(p.numel for p in parts)
        return self.emit(
            OpType.CONCAT, tuple(parts), tuple(out), flops=float(total), name=name
        )

    def slice_channels(
        self,
        start: int,
        stop: int,
        axis: int = 1,
        x: TensorSpec | None = None,
        name: str | None = None,
    ) -> TensorSpec:
        x = self._x(x)
        out = list(x.shape)
        out[axis] = stop - start
        return self.emit(
            OpType.SLICE,
            (x,),
            tuple(out),
            flops=float(math.prod(out)),
            name=name,
            start=start,
            stop=stop,
            axis=axis,
        )

    def channel_shuffle(
        self, groups: int, x: TensorSpec | None = None, name: str | None = None
    ) -> TensorSpec:
        x = self._x(x)
        return self.emit(
            OpType.SHUFFLE, (x,), x.shape, flops=float(x.numel), name=name, groups=groups
        )

    # --------------------------------------------------------------- dense / nlp
    def gemm(
        self,
        out_features: int,
        bias: bool = True,
        x: TensorSpec | None = None,
        name: str | None = None,
    ) -> TensorSpec:
        """Fully connected layer on ``(..., in_features)``."""
        x = self._x(x)
        in_features = x.shape[-1]
        rows = x.numel // in_features
        macs = rows * in_features * out_features
        params = in_features * out_features + (out_features if bias else 0)
        return self.emit(
            OpType.GEMM,
            (x,),
            (*x.shape[:-1], out_features),
            flops=2.0 * macs,
            param_bytes=params * 4,
            name=name,
        )

    def matmul(self, a: TensorSpec, b: TensorSpec, name: str | None = None) -> TensorSpec:
        """Batched matmul: a (..., m, k) @ b (..., k, n)."""
        *batch_a, m, k = a.shape
        *batch_b, k2, nn = b.shape
        if k != k2:
            raise ValueError(f"matmul inner-dim mismatch: {a.shape} @ {b.shape}")
        batch = batch_a if len(batch_a) >= len(batch_b) else batch_b
        out_shape = (*batch, m, nn)
        macs = math.prod(batch) * m * k * nn if batch else m * k * nn
        return self.emit(OpType.MATMUL, (a, b), out_shape, flops=2.0 * macs, name=name)

    def embedding(
        self,
        vocab: int,
        hidden: int,
        x: TensorSpec | None = None,
        name: str | None = None,
    ) -> TensorSpec:
        x = self._x(x)
        out_shape = (*x.shape, hidden)
        return self.emit(
            OpType.EMBEDDING,
            (x,),
            out_shape,
            flops=float(math.prod(out_shape)),
            param_bytes=vocab * hidden * 4,
            name=name,
        )

    def finish(self, **metadata) -> ModelGraph:
        """Attach metadata and return the built graph."""
        self.graph.metadata.update(metadata)
        return self.graph
