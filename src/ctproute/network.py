"""Road network model, JSON document IO, and shortest paths.

A network is a list of named nodes plus a list of edges with distinct
ids, strictly positive finite costs, and endpoints that must exist.
Parallel edges are allowed, self loops are not. Undirected by default;
a document level flag switches every edge to one way interpretation.

Edge b is bit b of an int mask (edge_bit numbers net.edges once), and the
graph searches take the set of passable edges as such a mask: edge b is
passable iff mask & (1 << b), so -1 passes every edge and ~blocked every
edge not in blocked. They walk the cached arcs table, which lists each
node's outgoing edges as (edge bit, far node, cost) in outgoing order.
incident_mask and outgoing_mask hold each node's touching and leaving
edges as one mask.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Optional

from .errors import ParseError, UnknownNode, ValidationError

_DOC_KEYS = {"directed", "nodes", "edges"}
_EDGE_KEYS = {"id", "u", "v", "cost", "p"}

# relative slack on every comparison against a lower bound: path sums
# add costs in different orders and reveal weights may sum to 1 - eps, so
# a computed value can fall a few ulps below its bound
PRUNE_MARGIN = 1e-9


@dataclass(frozen=True)
class Edge:
    id: str
    u: str
    v: str
    cost: float

    def other(self, node: str) -> str:
        return self.v if node == self.u else self.u


@dataclass(frozen=True)
class PathResult:
    """A concrete path: node sequence plus its total cost.

    examined masks edges such that any mask that agrees with the search's
    mask on them gives the same result; -1, the default for a hand-built
    result, stands for every edge. It depends on how the search was run:
    without a bound it holds every edge leaving a node settled before the
    target, what the search read; with one, only those leaving a settled
    node that a path as cheap as the one found can pass (shortest_path).
    """

    nodes: tuple[str, ...]
    cost: float
    examined: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class RoadNetwork:
    nodes: tuple[str, ...]
    edges: tuple[Edge, ...]
    directed: bool = False

    def __post_init__(self) -> None:
        seen_nodes = set()
        for n in self.nodes:
            if not isinstance(n, str) or not n:
                raise ValidationError(f"node id must be a nonempty string: {n!r}")
            if n in seen_nodes:
                raise ValidationError(f"duplicate node id: {n!r}")
            seen_nodes.add(n)
        seen_edges = set()
        for e in self.edges:
            if not isinstance(e.id, str) or not e.id:
                raise ValidationError(f"edge id must be a nonempty string: {e.id!r}")
            if e.id in seen_edges:
                raise ValidationError(f"duplicate edge id: {e.id!r}")
            seen_edges.add(e.id)
            for endpoint in (e.u, e.v):
                if not isinstance(endpoint, str) or endpoint not in seen_nodes:
                    raise ValidationError(
                        f"edge {e.id!r} references unknown endpoint {endpoint!r}"
                    )
            if e.u == e.v:
                raise ValidationError(f"edge {e.id!r} is a self loop at {e.u!r}")
            if not isinstance(e.cost, (int, float)) or isinstance(e.cost, bool):
                raise ValidationError(f"edge {e.id!r} has non numeric cost")
            if not math.isfinite(e.cost) or e.cost <= 0:
                raise ValidationError(
                    f"edge {e.id!r} has nonpositive or non finite cost {e.cost!r}"
                )

    @cached_property
    def node_set(self) -> frozenset[str]:
        return frozenset(self.nodes)

    @cached_property
    def edge_by_id(self) -> dict[str, Edge]:
        return {e.id: e for e in self.edges}

    @cached_property
    def edge_bit(self) -> dict[str, int]:
        """Edge id -> bit position; edge b is self.edges[b], so a set of
        edges is an int mask."""
        return {e.id: b for b, e in enumerate(self.edges)}

    @cached_property
    def edge_ids(self) -> tuple[str, ...]:
        """The edge ids in bit order."""
        return tuple(self.edge_bit)

    @cached_property
    def outgoing(self) -> dict[str, tuple[Edge, ...]]:
        """Edges traversable away from each node (both ways if undirected)."""
        adj: dict[str, list[Edge]] = {n: [] for n in self.nodes}
        for e in self.edges:
            adj[e.u].append(e)
            if not self.directed:
                adj[e.v].append(e)
        return {n: tuple(es) for n, es in adj.items()}

    @cached_property
    def arcs(self) -> dict[str, tuple[tuple[int, str, float], ...]]:
        """(1 << edge bit, far node, cost) of each outgoing edge, in
        outgoing order; what the graph searches walk."""
        bit = self.edge_bit
        return {
            n: tuple((1 << bit[e.id], e.other(n), e.cost) for e in es)
            for n, es in self.outgoing.items()
        }

    @cached_property
    def incident(self) -> dict[str, tuple[Edge, ...]]:
        """Edges touching each node, regardless of direction."""
        adj: dict[str, list[Edge]] = {n: [] for n in self.nodes}
        for e in self.edges:
            adj[e.u].append(e)
            adj[e.v].append(e)
        return {n: tuple(es) for n, es in adj.items()}

    @cached_property
    def incident_mask(self) -> dict[str, int]:
        """The edges touching each node, as one mask."""
        bit = self.edge_bit
        return {n: sum(1 << bit[e.id] for e in es) for n, es in self.incident.items()}

    @cached_property
    def outgoing_mask(self) -> dict[str, int]:
        """The edges leaving each node, as one mask."""
        return {n: sum(b for b, _, _ in arcs) for n, arcs in self.arcs.items()}

    @cached_property
    def reverse(self) -> "RoadNetwork":
        """The network with every edge turned around, same edge ids; the
        network itself when undirected."""
        if not self.directed:
            return self
        flipped = tuple(Edge(e.id, e.v, e.u, e.cost) for e in self.edges)
        return RoadNetwork(nodes=self.nodes, edges=flipped, directed=True)

    def require_node(self, node: str) -> None:
        if node not in self.node_set:
            raise UnknownNode(f"unknown node {node!r}")

    def total_cost(self) -> float:
        return sum(e.cost for e in self.edges)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValidationError(message)


def parse_graph_document(text: str) -> tuple[RoadNetwork, Optional[dict[str, float]]]:
    """Parse the JSON graph document.

    Returns the network and, when every edge carries one, the inline
    blockage probability map. Unknown keys anywhere are rejected so that
    typos fail loudly instead of being ignored.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"graph document is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ParseError("graph document is nested too deeply") from None
    _require(isinstance(doc, dict), "graph document must be a JSON object")
    extra = set(doc) - _DOC_KEYS
    _require(not extra, f"unknown graph document keys: {sorted(extra)}")
    _require("nodes" in doc and "edges" in doc, "graph document needs nodes and edges")
    directed = doc.get("directed", False)
    _require(isinstance(directed, bool), "directed flag must be a boolean")
    _require(isinstance(doc["nodes"], list), "nodes must be a list")
    _require(isinstance(doc["edges"], list), "edges must be a list")

    edges: list[Edge] = []
    probabilities: dict[str, float] = {}
    edges_with_p = 0
    for raw in doc["edges"]:
        _require(isinstance(raw, dict), "each edge must be a JSON object")
        extra = set(raw) - _EDGE_KEYS
        _require(not extra, f"unknown edge keys: {sorted(extra)}")
        for key in ("id", "u", "v", "cost"):
            _require(key in raw, f"edge missing required key {key!r}")
        for key in ("id", "u", "v"):
            _require(
                isinstance(raw[key], str) and raw[key] != "",
                f"edge {key} must be a nonempty string: {raw[key]!r}",
            )
        cost = raw["cost"]
        _require(
            isinstance(cost, (int, float)) and not isinstance(cost, bool),
            f"edge {raw.get('id')!r} cost must be a number",
        )
        edges.append(Edge(id=raw["id"], u=raw["u"], v=raw["v"], cost=float(cost)))
        if "p" in raw:
            p = raw["p"]
            _require(
                isinstance(p, (int, float)) and not isinstance(p, bool),
                f"edge {raw['id']!r} p must be a number",
            )
            _require(0.0 <= float(p) <= 1.0, f"edge {raw['id']!r} p outside [0, 1]")
            probabilities[raw["id"]] = float(p)
            edges_with_p += 1

    net = RoadNetwork(nodes=tuple(doc["nodes"]), edges=tuple(edges), directed=directed)
    if edges_with_p == 0:
        return net, None
    _require(
        edges_with_p == len(edges),
        "inline probabilities must cover every edge or none",
    )
    return net, probabilities


def load_network(text: str) -> RoadNetwork:
    """Parse a graph document, ignoring any inline probabilities."""
    net, _ = parse_graph_document(text)
    return net


def dump_network(
    net: RoadNetwork, probabilities: Optional[Mapping[str, float]] = None
) -> str:
    """Serialize back to the document format. Round trips exactly."""
    edges = []
    for e in net.edges:
        item: dict = {"id": e.id, "u": e.u, "v": e.v, "cost": e.cost}
        if probabilities is not None:
            if e.id not in probabilities:
                raise ValidationError(f"no probability for edge {e.id!r}")
            item["p"] = float(probabilities[e.id])
        edges.append(item)
    doc = {"directed": net.directed, "nodes": list(net.nodes), "edges": edges}
    return json.dumps(doc, indent=2) + "\n"


def dijkstra_distances(
    net: RoadNetwork, source: str, mask: int = -1
) -> dict[str, float]:
    """Cheapest travel cost from source to every node reachable over the
    edges in mask."""
    net.require_node(source)
    arcs = net.arcs
    heappop, heappush, inf = heapq.heappop, heapq.heappush, math.inf
    dist: dict[str, float] = {source: 0.0}
    heap: list[tuple[float, str]] = [(0.0, source)]
    while heap:
        d, node = heappop(heap)
        if d > dist[node]:
            continue  # stale: node was pushed again at a lower cost
        for bit, other, cost in arcs[node]:
            if not mask & bit:
                continue
            nd = d + cost
            if nd < dist.get(other, inf):
                dist[other] = nd
                heappush(heap, (nd, other))
    return dist


def shortest_path(
    net: RoadNetwork,
    source: str,
    target: str,
    mask: int = -1,
    bound: Optional[Mapping[str, float]] = None,
) -> Optional[PathResult]:
    """Cheapest path from source to target over the edges in mask, or None
    if unreachable.

    Ties between equal cost paths are broken toward the lexicographically
    smallest node id sequence, which makes the result deterministic. The
    heap key is (cost, node sequence); with strictly positive costs the
    key grows along every extension, so plain Dijkstra settles each node
    with its lexicographically minimal cheapest path first.

    bound, if given, maps each node to a lower bound on its cost to the
    target under every mask, such as dijkstra_distances(net.reverse,
    target); a node it lacks cannot reach the target. It changes only the
    result's examined mask: a settled node u keeps its leaving edges there
    only if g(u) + bound[u] <= cost * (1 + PRUNE_MARGIN), g(u) its settled
    cost. That is exact. Under any mask that agrees on the kept edges, a
    path that leaves the kept nodes does so over a kept edge, into either
    a dropped node u, so it costs at least g(u) + bound[u], or a node not
    settled before the target, which no search reaches below the cost
    found. Either way it loses to the path found, and a path over kept
    edges alone is open under the search's own mask too. PRUNE_MARGIN is
    far wider than the rounding of any path sum.
    """
    net.require_node(source)
    net.require_node(target)
    arcs, outgoing = net.arcs, net.outgoing_mask
    heap: list[tuple[float, tuple[str, ...]]] = [(0.0, (source,))]
    done: dict[str, float] = {}
    while heap:
        d, seq = heapq.heappop(heap)
        node = seq[-1]
        if node in done:
            continue
        if node == target:
            limit = d * (1 + PRUNE_MARGIN)
            examined = 0
            for u, g in done.items():
                if bound is None or g + bound.get(u, math.inf) <= limit:
                    examined |= outgoing[u]
            return PathResult(nodes=seq, cost=d, examined=examined)
        done[node] = d
        for bit, other, cost in arcs[node]:
            if not mask & bit or other in done:
                continue
            heapq.heappush(heap, (d + cost, seq + (other,)))
    return None


def cheapest_edge(net: RoadNetwork, u: str, v: str, mask: int = -1) -> Optional[Edge]:
    """Cheapest edge in mask from u to v; ties pick the smallest edge id."""
    best: Optional[Edge] = None
    for bit, other, cost in net.arcs[u]:
        if other == v and mask & bit:
            e = net.edges[bit.bit_length() - 1]  # bit is 1 << edge index
            if best is None or (cost, e.id) < (best.cost, best.id):
                best = e
    return best


def reachable_nodes(net: RoadNetwork, source: str, mask: int = -1) -> set[str]:
    """Nodes reachable from source over the edges in mask."""
    net.require_node(source)
    arcs = net.arcs
    seen = {source}
    stack = [source]
    while stack:
        node = stack.pop()
        for bit, other, _ in arcs[node]:
            if mask & bit and other not in seen:
                seen.add(other)
                stack.append(other)
    return seen
