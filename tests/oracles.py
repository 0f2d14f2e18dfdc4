"""Independent reference implementations used to cross-check the package.

Everything here recomputes results by the most literal method available
— Bellman-Ford relaxation instead of Dijkstra, explicit enumeration of
realizations and of simple paths instead of recursions over belief
states or Brandes accumulation — so agreement with the package is
evidence, not circularity. Apart from the graph searches (bf_distances,
simple_paths), only undirected networks are supported, which covers
every fixture and every default generated instance.

The exception is ReferencePlanner, the exact planner as it was written
before belief states became bitmasks. It reuses the package's graph
searches and keeps the planner's arithmetic order, so the package must
match it bit for bit, on directed networks too. Likewise reference_walk
walks a journey with this module's per-edge reveal() per arrival and
checks each chosen edge against the Edge tuples of net.outgoing, and
walk_policy, which reveals by masks, must match it exactly.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional

import numpy as np

from ctproute.blockage import BlockageModel, EdgeState, Realization
from ctproute.network import (
    Edge,
    RoadNetwork,
    dijkstra_distances,
    reachable_nodes,
)
from ctproute.errors import UnknownEdge, ValidationError
from ctproute import traveler
from ctproute.traveler import (
    KnowledgeState,
    ReplicateOutcome,
    walk_policy,
)

OPEN = "open"
BLOCKED = "blocked"


def reveal(
    net: RoadNetwork, k: KnowledgeState, node: str, world: Realization
) -> KnowledgeState:
    """k with node's undecided incident edges set from world, one edge at
    a time in incident order; decided edges are never rewritten. A world
    that lacks one of those edges raises UnknownEdge."""
    known, blocked = k.known, k.blocked
    for e in net.incident[node]:
        bit = 1 << net.edge_bit[e.id]
        if known & bit:
            continue
        state = world.states.get(e.id)
        if state is None:
            raise UnknownEdge(f"realization has no edge {e.id!r}")
        known |= bit
        if state is EdgeState.BLOCKED:
            blocked |= bit
    return KnowledgeState(k.current, known, blocked)


def edge_state(
    net: RoadNetwork, k: KnowledgeState, edge_id: str
) -> Optional[EdgeState]:
    """The state k has observed for edge_id, None while it is unknown."""
    bit = 1 << net.edge_bit[edge_id]
    if not k.known & bit:
        return None
    return EdgeState.BLOCKED if k.blocked & bit else EdgeState.OPEN


def edge_ways(net: RoadNetwork, e: Edge) -> tuple[tuple[str, str], ...]:
    """The (from, to) ways edge e can be travelled."""
    return ((e.u, e.v),) if net.directed else ((e.u, e.v), (e.v, e.u))


def bf_distances(net: RoadNetwork, passable_ids: set, source: str) -> dict:
    """Single-source distances by Bellman-Ford over a subset of edges,
    inf where unreachable."""
    dist = {n: math.inf for n in net.nodes}
    dist[source] = 0.0
    for _ in range(len(net.nodes)):
        changed = False
        for e in net.edges:
            if e.id not in passable_ids:
                continue
            for a, b in edge_ways(net, e):
                if dist[a] + e.cost < dist[b]:
                    dist[b] = dist[a] + e.cost
                    changed = True
        if not changed:
            break
    return dist


def simple_paths(net: RoadNetwork, passable_ids: set, source: str) -> list:
    """(cost, node sequence) of every simple path from source over a subset
    of edges, one entry per choice among parallel edges."""
    out = []

    def extend(nodes: tuple, cost: float) -> None:
        out.append((cost, nodes))
        for e in net.edges:
            if e.id not in passable_ids:
                continue
            for a, b in edge_ways(net, e):
                if a == nodes[-1] and b not in nodes:
                    extend(nodes + (b,), cost + e.cost)

    extend((source,), 0.0)
    return out


def oracle_expected_time(
    net: RoadNetwork,
    probabilities: dict,
    source: str,
    sink: str,
    failure_cost: float,
) -> float:
    """Optimal expected travel time by naive single-step expectimax.

    States are (node, assignment of decided edges). From a state the
    traveler either walks to the sink over decided-open edges, or walks
    to any node that still has undecided incident edges and reveals all
    of them jointly. If the sink is unreachable even with every
    undecided edge assumed open, the journey fails for failure_cost on
    top of whatever travel is already accumulated upstream.
    """
    base = {}
    for e in net.edges:
        p = probabilities[e.id]
        if p == 0.0:
            base[e.id] = OPEN
        elif p == 1.0:
            base[e.id] = BLOCKED
    memo: dict = {}

    def value(current: str, assignment: frozenset) -> float:
        if current == sink:
            return 0.0
        key = (current, assignment)
        if key in memo:
            return memo[key]
        amap = dict(assignment)
        optimistic = {e.id for e in net.edges if amap.get(e.id) != BLOCKED}
        if bf_distances(net, optimistic, current)[sink] == math.inf:
            memo[key] = failure_cost
            return failure_cost
        open_ids = {eid for eid, st in amap.items() if st == OPEN}
        dist = bf_distances(net, open_ids, current)
        best = dist[sink]
        for u in net.nodes:
            if u == sink or dist[u] == math.inf:
                continue
            undecided = [
                e for e in net.edges
                if (e.u == u or e.v == u) and e.id not in amap
            ]
            if not undecided:
                continue
            expect = 0.0
            for combo in itertools.product((OPEN, BLOCKED), repeat=len(undecided)):
                weight = 1.0
                nxt = dict(amap)
                for e, st in zip(undecided, combo):
                    p = probabilities[e.id]
                    weight *= p if st == BLOCKED else 1.0 - p
                    nxt[e.id] = st
                if weight == 0.0:
                    continue
                expect += weight * value(u, frozenset(nxt.items()))
            best = min(best, dist[u] + expect)
        memo[key] = best
        return best

    return value(source, frozenset(base.items()))


class ReferencePlanner:
    """Memoized expectimax over (current node, dict of decided edge states).

    Edges with probability exactly 0 or 1 are decided up front and
    observations outrank them. Options are the sink over known-open
    edges, then every reachable frontier node in network order; ties go
    to the smaller node id. A reveal enumerates its outcomes with open
    before blocked, in incident-edge order.
    """

    def __init__(
        self, net: RoadNetwork, model: BlockageModel, sink: str, failure_cost: float
    ):
        self.net = net
        self.model = model
        self.sink = sink
        self.failure_cost = float(failure_cost)
        self.predecided: dict[str, EdgeState] = {}
        for edge_id, p in model.probabilities.items():
            if p == 0.0:
                self.predecided[edge_id] = EdgeState.OPEN
            elif p == 1.0:
                self.predecided[edge_id] = EdgeState.BLOCKED
        self._memo: dict = {}

    def base_assignment(self, observed=None) -> dict[str, EdgeState]:
        assignment = dict(self.predecided)
        assignment.update(observed or {})
        return assignment

    def action(self, knowledge: KnowledgeState) -> Optional[str]:
        """Best target from a knowledge state of the planner's network."""
        observed = {}
        for e in self.net.edges:
            s = edge_state(self.net, knowledge, e.id)
            if s is not None:
                observed[e.id] = s
        return self.value(knowledge.current, self.base_assignment(observed))[2]

    def value(self, current: str, assignment: dict) -> tuple:
        key = (current, tuple(sorted((e, s.value) for e, s in assignment.items())))
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        result = self._compute(current, assignment)
        self._memo[key] = result
        return result

    def _compute(self, current: str, assignment: dict) -> tuple:
        if current == self.sink:
            return 0.0, 0.0, None
        bit = self.net.edge_bit
        blocked = open_ = 0
        for edge_id, s in assignment.items():
            if s is EdgeState.BLOCKED:
                blocked |= 1 << bit[edge_id]
            elif s is EdgeState.OPEN:
                open_ |= 1 << bit[edge_id]
        optimistic = reachable_nodes(self.net, current, ~blocked)
        if self.sink not in optimistic:
            return self.failure_cost, 1.0, None
        open_dist = dijkstra_distances(self.net, current, open_)
        options = []
        sink_dist = open_dist.get(self.sink)
        if sink_dist is not None:
            options.append((sink_dist, self.sink, 0.0))
        for node in self.net.nodes:
            if node == self.sink or node not in open_dist:
                continue
            undecided = [
                e for e in self.net.incident[node] if e.id not in assignment
            ]
            if not undecided:
                continue
            ev, ef = self._reveal_expectation(node, assignment, undecided)
            options.append((open_dist[node] + ev, node, ef))
        if not options:
            return self.failure_cost, 1.0, None
        value, target, fail = min(options, key=lambda o: (o[0], o[1]))
        return value, fail, target

    def _reveal_expectation(self, node: str, assignment: dict, undecided) -> tuple:
        ids = [e.id for e in undecided]
        probs = [self.model.probability(i) for i in ids]
        total_v = 0.0
        total_f = 0.0
        for outcome in itertools.product(
            (EdgeState.OPEN, EdgeState.BLOCKED), repeat=len(ids)
        ):
            weight = 1.0
            for p, s in zip(probs, outcome):
                weight *= p if s is EdgeState.BLOCKED else 1.0 - p
            child = dict(assignment)
            child.update(zip(ids, outcome))
            v, f, _ = self.value(node, child)
            total_v += weight * v
            total_f += weight * f
        return total_v, total_f


def reference_walk(
    net: RoadNetwork,
    world: Realization,
    policy,
    source: str,
    sink: str,
    failure_cost: float,
) -> ReplicateOutcome:
    """One journey through world, revealing each arrival's edges with
    reveal() and checking every chosen edge by Edge equality."""
    net.require_node(source)
    net.require_node(sink)
    k = reveal(net, KnowledgeState(source, 0, 0), source, world)
    time = 0.0
    path = [source]
    max_steps = 4 * (len(net.nodes) + 1) * (len(net.edges) + 1) + 16
    for _ in range(max_steps):
        if k.current == sink:
            return ReplicateOutcome(time, False, tuple(path))
        edge_id = policy.decide(k)
        if edge_id is None:
            return ReplicateOutcome(time + failure_cost, True, tuple(path))
        edge = net.edge_by_id.get(edge_id)
        if edge is None:
            raise UnknownEdge(f"policy chose unknown edge {edge_id!r}")
        if edge not in net.outgoing[k.current]:
            raise ValidationError(
                f"policy chose edge {edge_id!r} not leaving {k.current!r}"
            )
        if edge_state(net, k, edge_id) is not EdgeState.OPEN:
            raise ValidationError(
                f"policy tried to traverse edge {edge_id!r} not known open"
            )
        nxt = edge.other(k.current)
        time += edge.cost
        k = reveal(net, k._replace(current=nxt), nxt, world)
        path.append(nxt)
    raise RuntimeError("policy failed to terminate; this is a bug")


def enumerate_worlds(model: BlockageModel, overrides: dict | None = None):
    """Yield (probability, Realization) over every possible world.

    Overridden edges are pinned to the forced state with the whole
    probability mass; other deterministic edges follow their 0/1
    probability; genuinely uncertain edges branch.
    """
    overrides = overrides or {}
    edge_ids = list(model.probabilities)
    branches = []
    for eid in edge_ids:
        if eid in overrides:
            branches.append(((overrides[eid], 1.0),))
            continue
        p = model.probabilities[eid]
        if p == 0.0:
            branches.append(((EdgeState.OPEN, 1.0),))
        elif p == 1.0:
            branches.append(((EdgeState.BLOCKED, 1.0),))
        else:
            branches.append(
                ((EdgeState.OPEN, 1.0 - p), (EdgeState.BLOCKED, p))
            )
    for combo in itertools.product(*branches):
        weight = 1.0
        states = {}
        for eid, (st, w) in zip(edge_ids, combo):
            weight *= w
            states[eid] = st
        yield weight, Realization(states=states)


def policy_value_by_enumeration(
    net: RoadNetwork,
    model: BlockageModel,
    policy,
    source: str,
    sink: str,
    failure_cost: float,
    overrides: dict | None = None,
) -> tuple[float, float]:
    """(expected time, failure probability) of a policy by summing the
    walk outcome over every realization."""
    total = 0.0
    fail = 0.0
    for weight, world in enumerate_worlds(model, overrides):
        outcome = walk_policy(net, world, policy, source, sink, failure_cost)
        total += weight * outcome.travel_time
        if outcome.failed:
            fail += weight
    return total, fail


def recursive_policy_value(
    net: RoadNetwork,
    model: BlockageModel,
    policy,
    source: str,
    sink: str,
    failure_cost: float,
) -> tuple[float, float]:
    """evaluate_policy_exact as it was written before it followed moves
    that reveal one outcome in a loop: one recursion level per move, with
    the package's compile and reveal enumeration, so it keeps the float
    order and the package must match it bit for bit."""
    inst = traveler._compile(net, model, sink)
    memo: dict = {}

    def visit(node: str, known: int, blocked: int) -> tuple[float, float]:
        if node == sink:
            return 0.0, 0.0
        k = KnowledgeState(node, known, blocked)
        if k not in memo:
            edge_id = policy.decide(k)
            if edge_id is None:
                memo[k] = (failure_cost, 1.0)
            else:
                edge = net.edge_by_id[edge_id]
                nxt = edge.other(node)
                v, f = traveler._reveal_expectation(inst, nxt, known, blocked, visit)
                memo[k] = (edge.cost + v, f)
        return memo[k]

    return traveler._reveal_expectation(inst, source, 0, 0, visit)


def clairvoyant_value(
    net: RoadNetwork,
    model: BlockageModel,
    source: str,
    sink: str,
    failure_cost: float,
) -> float:
    """Expected cost for a traveler who sees each whole realization in
    advance: the realization's shortest path, or failure_cost when the
    sink is unreachable. A lower bound for every online policy."""
    total = 0.0
    for weight, world in enumerate_worlds(model):
        open_ids = {
            eid for eid, st in world.states.items() if st is EdgeState.OPEN
        }
        d = bf_distances(net, open_ids, source)[sink]
        total += weight * (failure_cost if d == math.inf else d)
    return total


def geodesic_by_enumeration(net: RoadNetwork) -> dict:
    """Edge betweenness by listing all simple paths of every unordered
    node pair as edge sequences, keeping the minimum-cost ones, and
    splitting each pair's unit of weight evenly across them."""
    assert not net.directed
    incident: dict = {n: [] for n in net.nodes}
    for e in net.edges:
        incident[e.u].append(e)
        incident[e.v].append(e)

    def all_paths(s: str, t: str):
        found = []

        def extend(node, visited, edges_so_far, cost):
            if node == t:
                found.append((cost, tuple(edges_so_far)))
                return
            for e in incident[node]:
                other = e.other(node)
                if other in visited:
                    continue
                extend(
                    other, visited | {other}, edges_so_far + [e.id], cost + e.cost
                )

        extend(s, {s}, [], 0.0)
        return found

    scores = {e.id: 0.0 for e in net.edges}
    nodes = list(net.nodes)
    for i, s in enumerate(nodes):
        for t in nodes[i + 1:]:
            paths = all_paths(s, t)
            if not paths:
                continue
            best = min(cost for cost, _ in paths)
            shortest = [eids for cost, eids in paths if cost == best]
            for eids in shortest:
                for eid in eids:
                    scores[eid] += 1.0 / len(shortest)
    return scores


def random_instance(
    seed: int,
    max_nodes: int = 6,
    max_uncertain: int = 8,
    certain_tree: bool = False,
    directed: bool = False,
    parallel: bool = False,
    certain_blocked: bool = False,
):
    """Small random instance: (net, model, source, sink).

    Costs are uniform in [1, 10]; a random subset of at most
    max_uncertain edges gets a uniform blockage probability in [0, 1],
    the rest stay certainly open. A random spanning tree makes most
    instances connected; occasional extra edges may be parallel.

    With certain_tree=True the spanning tree edges are forced to
    probability 0, so the sink stays reachable in every realization
    (and in every single-edge open conditioning). On that family,
    blocking an edge can never help an optimal traveler — the blocked
    world's continuations all exist in the open world at equal or lower
    cost, and the open world never hits the forced failure branch — so
    blockage centrality is provably nonnegative. On unrestricted
    instances it can be negative: an open edge can lure the traveler
    into paying more travel before near-certain failure, while the
    blocked twin reaches certain failure sooner and stops.

    The remaining flags are off by default and draw nothing from the
    generator when off, so default instances never change. directed=True
    reads every edge one way, u to v. parallel=True adds a twin with its
    own cost to a random nonempty subset of the edges. certain_blocked=True
    turns about a quarter of the certainly open edges into certainly
    blocked ones (p = 1.0).
    """
    gen = np.random.default_rng(seed)
    n = int(gen.integers(2, max_nodes + 1))
    nodes = tuple(f"n{i}" for i in range(n))
    edges = []

    def add_edge(u: str, v: str) -> None:
        edges.append(
            Edge(
                id=f"e{len(edges)}",
                u=u,
                v=v,
                cost=float(np.round(gen.uniform(1.0, 10.0), 3)),
            )
        )

    order = list(gen.permutation(n))
    for i in range(1, n):
        add_edge(nodes[order[i]], nodes[int(gen.choice(order[:i]))])
    extra = int(gen.integers(0, n + 1))
    for _ in range(extra):
        u, v = gen.choice(n, size=2, replace=False)
        add_edge(nodes[int(u)], nodes[int(v)])
    if parallel:
        twins = gen.choice(
            len(edges), size=int(gen.integers(1, len(edges) + 1)), replace=False
        )
        for i in twins:
            add_edge(edges[int(i)].u, edges[int(i)].v)
    net = RoadNetwork(nodes=nodes, edges=tuple(edges), directed=directed)

    candidates = [
        i for i in range(len(edges)) if not (certain_tree and i < n - 1)
    ]
    uncertain = min(max_uncertain, len(candidates))
    chosen = set(
        int(candidates[int(i)])
        for i in gen.choice(
            len(candidates),
            size=int(gen.integers(0, uncertain + 1)),
            replace=False,
        )
    ) if candidates else set()
    probs = {}
    for idx, e in enumerate(edges):
        probs[e.id] = float(np.round(gen.uniform(), 3)) if idx in chosen else 0.0
    if certain_blocked:
        for e in edges:
            if probs[e.id] == 0.0 and gen.uniform() < 0.25:
                probs[e.id] = 1.0
    model = BlockageModel(probabilities=probs)

    source, sink = (nodes[int(i)] for i in gen.choice(n, size=2, replace=False))
    return net, model, source, sink


def random_grid(
    seed: int,
    rows: int,
    cols: int,
    uncertain: int,
    directed: bool = False,
):
    """Random rows x cols grid full of ties: (net, model, source, sink).

    Every cost is 1 or 2 and each of `uncertain` random roads has blockage
    probability 0.25, 0.5 or 0.75, the rest are certainly open, so
    equal-cost paths and equal-value targets are common. With
    directed=True each road runs one way, in a random direction, and about
    half of them get a twin running back with its own cost.
    """
    gen = np.random.default_rng(seed)
    nodes = tuple(f"g{r}_{c}" for r in range(rows) for c in range(cols))
    pairs = [
        (f"g{r}_{c}", f"g{r + dr}_{c + dc}")
        for r in range(rows)
        for c in range(cols)
        for dr, dc in ((0, 1), (1, 0))
        if r + dr < rows and c + dc < cols
    ]
    edges = []
    for u, v in pairs:
        if directed and gen.uniform() < 0.5:
            u, v = v, u
        hops = [(u, v)]
        if directed and gen.uniform() < 0.5:
            hops.append((v, u))
        for a, b in hops:
            edges.append(Edge(f"e{len(edges)}", a, b, float(gen.integers(1, 3))))
    net = RoadNetwork(nodes=nodes, edges=tuple(edges), directed=directed)
    chosen = set(int(i) for i in gen.choice(len(edges), size=uncertain, replace=False))
    probs = {
        e.id: float(gen.choice((0.25, 0.5, 0.75))) if i in chosen else 0.0
        for i, e in enumerate(edges)
    }
    ends = gen.choice(len(nodes), size=2, replace=False)
    source, sink = (nodes[int(i)] for i in ends)
    return net, BlockageModel(probabilities=probs), source, sink
