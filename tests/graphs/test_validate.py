"""Whole-graph validation invariants."""

import re
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graphs.graph import ModelGraph
from repro.graphs.operator import Operator
from repro.graphs.tensor import TensorSpec
from repro.graphs.validate import validate_graph
from repro.types import OpType
from repro.zoo.registry import get_model, model_names

from tests.graphs.test_graph import linear_graph, skip_graph


def test_valid_graphs_pass():
    validate_graph(linear_graph(4))
    validate_graph(skip_graph())


@pytest.mark.parametrize("name", model_names())
def test_all_zoo_models_validate(name):
    validate_graph(get_model(name, cached=True))


def test_empty_graph_rejected():
    g = ModelGraph(name="empty", inputs=(TensorSpec("input", (1,)),))
    with pytest.raises(GraphError, match="no operators"):
        validate_graph(g)


def test_no_inputs_rejected():
    g = ModelGraph(name="noin", inputs=())
    g.operators.append(
        Operator("x", OpType.RELU, (), (TensorSpec("o", (1,)),))
    )
    with pytest.raises(GraphError, match="no inputs"):
        validate_graph(g)


def test_non_topological_order_rejected():
    g = linear_graph(3)
    g.operators.reverse()  # break the invariant behind the builder's back
    g._producer = None
    g._consumers = None
    with pytest.raises(GraphError, match="not topological"):
        validate_graph(g)


def test_unreachable_island_rejected():
    g = linear_graph(2)
    # An operator consuming only its own island's tensor (appended raw).
    island_in = TensorSpec("island_src", (4,))
    g.operators.append(
        Operator("island", OpType.RELU, (), (island_in,))
    )
    g._producer = None
    g._consumers = None
    with pytest.raises(GraphError, match="unreachable"):
        validate_graph(g)


def _tensor(name):
    return TensorSpec(name, (4,))


@st.composite
def island_graphs(draw) -> ModelGraph:
    """Random graphs in topological order whose operator inputs are each a
    graph input, an earlier operator's output, or a fresh island tensor:
    the output of an input-less operator, which no graph input reaches.
    Operators may also consume earlier island outputs, so unreachability
    propagates."""
    inputs = tuple(_tensor(f"in{k}") for k in range(draw(st.integers(1, 2))))
    g = ModelGraph(name="rand", inputs=inputs)
    produced: list[str] = []
    for i in range(draw(st.integers(1, 10))):
        names: list[str] = []
        for k in range(draw(st.integers(1, 3))):
            kind = draw(st.sampled_from(("input", "earlier", "island")))
            if kind == "earlier" and produced:
                names.append(draw(st.sampled_from(produced)))
            elif kind == "island":
                island = f"island{i}_{k}"
                g.add(Operator(f"src_{island}", OpType.RELU, (), (_tensor(island),)))
                produced.append(island)
                names.append(island)
            else:
                names.append(draw(st.sampled_from(inputs)).name)
        g.add(
            Operator(
                f"op{i}",
                OpType.RELU,
                tuple(_tensor(n) for n in dict.fromkeys(names)),
                (_tensor(f"t{i}"),),
            )
        )
        produced.append(f"t{i}")
    return g


def _unreachable_by_bfs(graph: ModelGraph) -> list[str]:
    """Oracle: breadth-first search along tensor edges from the graph
    inputs; the names of the operators it never visits, in stored order."""
    consumers: dict[str, list[int]] = {}
    for j, op in enumerate(graph.operators):
        for t in op.inputs:
            consumers.setdefault(t.name, []).append(j)
    seen: set[int] = set()
    frontier = deque(t.name for t in graph.inputs)
    while frontier:
        for j in consumers.get(frontier.popleft(), ()):
            if j not in seen:
                seen.add(j)
                frontier.extend(t.name for t in graph.operators[j].outputs)
    return [op.name for j, op in enumerate(graph.operators) if j not in seen]


@given(island_graphs())
@settings(max_examples=200, deadline=None)
def test_unreachable_exactly_when_bfs_finds_an_unreached_operator(graph):
    unreachable = _unreachable_by_bfs(graph)
    if not unreachable:
        validate_graph(graph)
        return
    expected = (
        f"{len(unreachable)} operator(s) unreachable from graph inputs, "
        f"e.g. {unreachable[:5]}"
    )
    with pytest.raises(GraphError, match=re.escape(expected)):
        validate_graph(graph)
