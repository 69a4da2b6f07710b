"""Structural validation for model graphs.

Builders construct graphs incrementally with per-op checks; this module adds
whole-graph invariants (topological order of the stored list, reachability
from the graph inputs) that are cheap enough to run in tests and at
deserialisation time.
"""

from __future__ import annotations

from repro.errors import GraphError
from repro.graphs.graph import ModelGraph


def validate_graph(graph: ModelGraph) -> None:
    """Raise :class:`GraphError` unless ``graph`` satisfies all invariants.

    Invariants:

    * at least one operator and one graph input;
    * the stored operator order is topological: every operator input is a
      graph input or the output of an earlier operator (so the dependency
      graph is acyclic);
    * every operator is reachable from a graph input: one of its inputs
      is a graph input or the output of a reachable operator;
    * at least one graph output exists.

    The order and reachability checks share one forward pass over the
    stored order.
    """
    if not graph.operators:
        raise GraphError(f"{graph.name}: graph has no operators")
    if not graph.inputs:
        raise GraphError(f"{graph.name}: graph has no inputs")

    prod = graph.producer
    input_names = {t.name for t in graph.inputs}
    # Tensors a graph input reaches. The order is topological, so every
    # producer is settled before its consumers are visited.
    reached = set(input_names)
    unreachable = []
    for j, op in enumerate(graph.operators):
        for t in op.inputs:
            if t.name in prod:
                if prod[t.name] >= j:
                    raise GraphError(
                        f"{graph.name}: stored order is not topological — "
                        f"{op.name!r} (index {j}) consumes {t.name!r} produced "
                        f"at index {prod[t.name]}"
                    )
            elif t.name not in input_names:
                raise GraphError(
                    f"{graph.name}: {op.name!r} consumes undefined tensor {t.name!r}"
                )
        if any(t.name in reached for t in op.inputs):
            reached.update(t.name for t in op.outputs)
        else:
            unreachable.append(op.name)
    if unreachable:
        raise GraphError(
            f"{graph.name}: {len(unreachable)} operator(s) unreachable from "
            f"graph inputs, e.g. {unreachable[:5]}"
        )

    if not graph.output_tensors:
        raise GraphError(f"{graph.name}: graph has no outputs")
