"""Small construction helpers shared by the test modules."""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence

from ctproute.blockage import BlockageModel, EdgeState
from ctproute.network import Edge, RoadNetwork


def make_network(
    edge_specs: Sequence[tuple[str, str, str, float]],
    directed: bool = False,
    extra_nodes: Iterable[str] = (),
) -> RoadNetwork:
    """Build a network from (id, u, v, cost) tuples.

    Node order is first appearance in the edge list, then extra_nodes,
    which keeps constructions one-line while staying deterministic.
    """
    nodes: list[str] = []
    for _, u, v, _ in edge_specs:
        for n in (u, v):
            if n not in nodes:
                nodes.append(n)
    for n in extra_nodes:
        if n not in nodes:
            nodes.append(n)
    edges = tuple(
        Edge(id=i, u=u, v=v, cost=float(c)) for i, u, v, c in edge_specs
    )
    return RoadNetwork(nodes=tuple(nodes), edges=edges, directed=directed)


def make_model(**probabilities: float) -> BlockageModel:
    return BlockageModel(probabilities=dict(probabilities))


def pinned(
    model: BlockageModel, states: Optional[Mapping[str, EdgeState]]
) -> BlockageModel:
    """The model with each named edge pinned: blocked at probability 1.0,
    open at 0.0, every edge keeping its place; None pins nothing."""
    pins = {EdgeState.BLOCKED: 1.0, EdgeState.OPEN: 0.0}
    return BlockageModel(
        {**model.probabilities, **{e: pins[s] for e, s in (states or {}).items()}}
    )


def uncertain_edges(model: BlockageModel) -> tuple[str, ...]:
    """Edges whose state is genuinely random (0 < p < 1), in model order."""
    return tuple(e for e, p in model.probabilities.items() if 0.0 < p < 1.0)
