"""Routing a traveler who discovers blockages on arrival.

An edge's true state becomes known the first time the traveler stands at
either of its endpoints, including every edge incident to the start node
before the first move. The traveler may only traverse edges known to be
open. If the sink becomes unreachable even with every undecided edge
assumed open, failure is certain: the journey ends and the failure cost
is added on top of the travel already spent. That convention is used
consistently by the exact recursion, the exact policy evaluator, and the
Monte Carlo simulator, so their expectations are directly comparable.

A belief, KnowledgeState, is the tuple (node name, known mask, blocked
mask): edge b is bit b of a mask (net.edge_bit), known holds the edges
observed so far and blocked those of them observed blocked. The planner,
the policies, the walk and the exact evaluator all key on it and read
graph structure from the network's cached tables; a walk takes its
world's blocked mask, read once into network bit order when the world
lists its edges in another order, and then carries masks only. The
knowledge holds observations only; the planner folds the edges of
probability 0 or 1 in when it plans, with observations winning, so
policies that do not plan never act on a model certainty.

From a belief the planner either travels to the sink over known open
edges or travels to a frontier node and takes the expectation over the
joint reveal of its undecided edges. That collapsed move set is value
equivalent to stepping one edge at a time, because optimal play only
changes direction where new information arrives. Its branch and bound
skips only options strictly worse than the best, so the choice and its
(value, name) tie-break are those of the full recursion; it also stops a
reveal's enumeration once its partial sum proves the target loses
(Star1). The README's "Exact planner" describes the bounds and the
search caches.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import rng
from .blockage import BlockageModel, Realization, sample_realization, sample_worlds
from .errors import (
    BadRoute,
    TooManyUncertainEdges,
    UnknownEdge,
    ValidationError,
)
from .network import (
    PRUNE_MARGIN,
    RoadNetwork,
    cheapest_edge,
    dijkstra_distances,
    reachable_nodes,
    shortest_path,
)

# most beliefs one planner or one exact evaluation may hold in its memo
BELIEF_BUDGET = 200_000


def default_failure_cost(net: RoadNetwork) -> float:
    """Twice the sum of all edge costs, above any cycle free traversal."""
    return 2.0 * net.total_cost()


def checked_failure_cost(net: RoadNetwork, failure_cost: Optional[float]) -> float:
    """failure_cost, or the network's default for None; it must be finite
    and not negative."""
    if failure_cost is None:
        return default_failure_cost(net)
    if not math.isfinite(failure_cost) or failure_cost < 0:
        raise ValidationError(f"failure cost must be finite and >= 0: {failure_cost!r}")
    return failure_cost


def checked_journey(
    net: RoadNetwork,
    model: BlockageModel,
    source: str,
    sink: str,
    failure_cost: Optional[float],
    replications: int = 1,
) -> float:
    """Validate a journey's inputs; returns its failure cost."""
    model.validate_for(net)
    net.require_node(source)
    net.require_node(sink)
    if source == sink:
        raise ValidationError("source and sink must differ")
    if replications < 1:
        raise ValidationError("replications must be at least 1")
    # replicate r draws stream r; a count past them is refused before
    # numpy is asked for an index past any address space
    if replications > 1 << rng._PURPOSE_SHIFT:
        raise ValidationError(
            f"replications must be at most 2**{rng._PURPOSE_SHIFT}, one "
            f"stream each: {replications}"
        )
    return checked_failure_cost(net, failure_cost)


class KnowledgeState(NamedTuple):
    """What the traveler has observed: its position and two edge masks.

    Edge b is bit b of net.edges (net.edge_bit). `known` holds the bits of
    the edges observed so far, `blocked` those of them observed blocked.
    It equals the plain (current, known, blocked) tuple, so a belief is its
    own memo key.
    """

    current: str
    known: int
    blocked: int


@dataclass(frozen=True)
class ExpectedTime:
    value: float
    failure_probability: float
    failure_cost: float


@dataclass(frozen=True)
class _Instance:
    """What the model and the sink add to a network for exact expectations.

    Edges with probability exactly 0 or 1 are folded into the initial
    `known` and `blocked` masks.
    """

    net: RoadNetwork
    # per edge bit, (blocked bits, weight) of each revealed state, open first
    outcomes: tuple[tuple[tuple[int, float], ...], ...]
    known: int
    blocked: int
    sink: str


def _compile(net: RoadNetwork, model: BlockageModel, sink: str) -> _Instance:
    """Compile for exact work; an edge of probability 0 or 1 is known.
    The caller has checked the model and the sink."""
    outcomes = []
    known = blocked = 0
    for b, e in enumerate(net.edges):
        p = model.probability(e.id)
        if 0.0 < p < 1.0:
            outcomes.append(((0, 1.0 - p), (1 << b, p)))
            continue
        known |= 1 << b
        if p == 1.0:
            blocked |= 1 << b
        outcomes.append(((blocked & 1 << b, 1.0),))
    return _Instance(
        net=net,
        outcomes=tuple(outcomes),
        known=known,
        blocked=blocked,
        sink=sink,
    )


def _reveal_expectation(
    inst: _Instance,
    node: str,
    known: int,
    blocked: int,
    value: Callable[[str, int, int], Sequence],
    cutoff: Optional[tuple[float, float, float]] = None,
) -> Optional[tuple[float, float]]:
    """Expected (value, failure) over the joint reveal of node's undecided
    edges, where value(node, known, blocked) gives both, first and second,
    for each child belief. Edges go in bit order, which is net.incident
    order, the last varying fastest, each open before blocked.

    cutoff=(offset, floor, best), with floor at most every child's value,
    stops the enumeration and returns None once offset plus the lower
    bound on the expectation exceeds best by more than the prune margin.
    """
    rest = inst.net.incident_mask[node] & ~known
    known |= rest
    undecided = []
    while rest:
        low = rest & -rest
        undecided.append(inst.outcomes[low.bit_length() - 1])
        rest ^= low
    if cutoff is not None:
        offset, floor, best = cutoff
        slack = PRUNE_MARGIN * abs(best)
    total_v = 0.0
    total_f = 0.0
    seen = 0.0
    for combo in itertools.product(*undecided):
        weight = 1.0
        child_blocked = blocked
        for bits, w in combo:
            weight *= w
            child_blocked |= bits
        child = value(node, known, child_blocked)
        total_v += weight * child[0]
        total_f += weight * child[1]
        if cutoff is not None:
            # the unseen weight costs at least floor per unit
            seen += weight
            if offset + total_v + (1.0 - seen) * floor - best > slack:
                return None
    return total_v, total_f


class _Planner:
    """Memoized expectimax over beliefs (node, known mask, blocked mask);
    each graph search is cached on its inputs. The caller has checked the
    model, the sink and the failure cost."""

    def __init__(
        self, net: RoadNetwork, model: BlockageModel, sink: str, failure_cost: float
    ):
        self.inst = _compile(net, model, sink)
        self.failure_cost = float(failure_cost)
        self._memo: dict[tuple[str, int, int], tuple[float, float, Optional[str]]] = {}
        # blocked mask -> the nodes that can reach the sink; equal sets are
        # one object, interned in _sets
        self._reach: dict[int, frozenset[str]] = {}
        self._sets: dict[frozenset[str], frozenset[str]] = {}
        self._dist: dict[tuple[str, int], dict[str, float]] = {}
        self._free: dict[int, dict[str, float]] = {}

    def belief(self, k: KnowledgeState) -> tuple[int, int]:
        """(known, blocked) of k's observations with the model's
        certainties filled in; observations win."""
        inst = self.inst
        return inst.known | k.known, inst.blocked & ~k.known | k.blocked

    def value(
        self, node: str, known: int, blocked: int
    ) -> tuple[float, float, Optional[str]]:
        """Expected remaining time, failure probability, best target.

        Target None means abort: failure is already certain here. A new
        belief past the memo's BELIEF_BUDGET is refused, and so is one
        that would recurse past Python's limit, one level per reveal.
        """
        key = (node, known, blocked)
        hit = self._memo.get(key)
        if hit is None:
            if len(self._memo) >= BELIEF_BUDGET:
                raise TooManyUncertainEdges(
                    f"the exact planner reached its budget of {BELIEF_BUDGET} beliefs"
                )
            try:
                hit = self._memo[key] = self._compute(node, known, blocked)
            except RecursionError:
                raise TooManyUncertainEdges(
                    "the exact planner reached Python's recursion limit"
                ) from None
        return hit

    def _compute(
        self, node: str, known: int, blocked: int
    ) -> tuple[float, float, Optional[str]]:
        inst = self.inst
        sink = inst.sink
        if node == sink:
            return 0.0, 0.0, None
        if not self._sink_reachable(node, blocked):
            # certain failure no matter which states the unknowns take
            return self.failure_cost, 1.0, None

        open_dist = self._open_distances(node, known & ~blocked)
        options: list[tuple[float, str, float]] = []
        if sink in open_dist:
            options.append((open_dist[sink], sink, 0.0))
        # (lower bound, node, distance, floor) per frontier target; a lone
        # option is never pruned or cut, so it keeps its distance as the
        # bound and no floor
        incident = inst.net.incident_mask
        frontier = [
            (dist, other, dist, 0.0)
            for other, dist in open_dist.items()
            if other != sink and incident[other] & ~known
        ]
        if len(options) + len(frontier) > 1:
            # branch and bound: from a frontier target every outcome costs
            # at least floor, its free-space distance to the sink or the
            # failure cost, so a target whose bound exceeds the best value
            # found cannot win and its reveal is never enumerated, and a
            # reveal stops once its partial sum shows the same (Star1)
            free, fc = self._free_distances(blocked), self.failure_cost
            ranked = []
            for _, other, dist, _ in frontier:
                floor = min(free.get(other, math.inf), fc)
                ranked.append((dist + floor, other, dist, floor))
            frontier = sorted(ranked)
        best = options[0][0] if options else math.inf
        for bound, other, dist, floor in frontier:
            if bound - best > PRUNE_MARGIN * abs(best):
                break
            cutoff = (dist, floor, best) if best < math.inf else None
            got = _reveal_expectation(inst, other, known, blocked, self.value, cutoff)
            if got is None:
                continue  # cannot beat best
            ev, ef = got
            options.append((dist + ev, other, ef))
            best = min(best, dist + ev)

        # never empty: lacking the sink option, the near end of the first
        # undecided road on a path to the sink is a target, and the first
        # target is never pruned or cut; node names are distinct, so tuple
        # order is (value, name)
        value, target, fail = min(options)
        return value, fail, target

    def _sink_reachable(self, node: str, blocked: int) -> bool:
        """Whether the sink is reachable with every unblocked edge open:
        one search back from the sink per blocked mask answers every node."""
        hit = self._reach.get(blocked)
        if hit is None:
            net, sink = self.inst.net, self.inst.sink
            reach = frozenset(reachable_nodes(net.reverse, sink, ~blocked))
            hit = self._reach[blocked] = self._sets.setdefault(reach, reach)
        return node in hit

    def _free_distances(self, blocked: int) -> dict[str, float]:
        """Distance to the sink over every edge not known blocked, for each
        node that can reach it."""
        hit = self._free.get(blocked)
        if hit is None:
            net, sink = self.inst.net, self.inst.sink
            hit = self._free[blocked] = dijkstra_distances(net.reverse, sink, ~blocked)
        return hit

    def _open_distances(self, node: str, open_mask: int) -> dict[str, float]:
        """Distance from node to each node reachable over open_mask."""
        key = (node, open_mask)
        hit = self._dist.get(key)
        if hit is None:
            hit = self._dist[key] = dijkstra_distances(self.inst.net, node, open_mask)
        return hit


def exact_expected_time(
    net: RoadNetwork,
    model: BlockageModel,
    source: str,
    sink: str,
    failure_cost: Optional[float] = None,
) -> ExpectedTime:
    """Expected travel time of an optimal traveler from source to sink.

    The expectation starts with the reveal of the source's incident
    edges. failure_probability is the chance the sink is unreachable in
    the realized world; those outcomes contribute the travel spent before
    failure became certain plus failure_cost.
    """
    failure_cost = checked_journey(net, model, source, sink, failure_cost)
    planner = _Planner(net, model, sink, failure_cost)
    value, fail, _ = planner.value(source, planner.inst.known, planner.inst.blocked)
    return ExpectedTime(
        value=value, failure_probability=fail, failure_cost=failure_cost
    )


def optimal_action(
    net: RoadNetwork,
    model: BlockageModel,
    knowledge: KnowledgeState,
    sink: str,
    failure_cost: Optional[float] = None,
) -> Optional[str]:
    """Best next target (a frontier node or the sink) from a knowledge state.

    Returns None to abort, which happens exactly when failure is already
    certain. Ties between equal value targets go to the lexicographically
    smallest node id. Observed states take precedence over the model, so
    observations that contradict a probability of 0 or 1 are respected.
    """
    model.validate_for(net)
    net.require_node(sink)
    net.require_node(knowledge.current)
    if knowledge.current == sink:
        raise ValidationError("traveler is already at the sink")
    failure_cost = checked_failure_cost(net, failure_cost)
    planner = _Planner(net, model, sink, failure_cost)
    _, _, target = planner.value(knowledge.current, *planner.belief(knowledge))
    return target


class Policy:
    """Decision rule: map a knowledge state to the next edge id, or None.

    None aborts the journey. Implementations must behave as pure
    functions of (current node, known mask, blocked mask); the exact policy
    evaluator and the simulator rely on that determinism. Their walks call
    decide once per distinct belief per policy and network, and reuse its
    checked move after that.
    """

    kind: str = "abstract"
    # (network, belief -> checked move) of the network walked last
    _table: tuple = (None, None)

    def decide(self, k: KnowledgeState) -> Optional[str]:
        raise NotImplementedError


def _known_open_step(net: RoadNetwork, k: KnowledgeState, nxt: str) -> str:
    """Edge id of the cheapest known open edge from k.current to nxt."""
    edge = cheapest_edge(net, k.current, nxt, k.known & ~k.blocked)
    if edge is None:
        raise ValidationError(
            f"no known open edge from {k.current!r} to {nxt!r}; "
            "knowledge state is inconsistent"
        )
    return edge.id


class OptimalPolicy(Policy):
    """Recompute the optimal action at every decision point."""

    kind = "optimal"

    def __init__(
        self, net: RoadNetwork, model: BlockageModel, sink: str, failure_cost: float
    ):
        model.validate_for(net)
        net.require_node(sink)
        self.net = net
        self.sink = sink
        fc = checked_failure_cost(net, failure_cost)
        self._planner = _Planner(net, model, sink, fc)

    def decide(self, k: KnowledgeState) -> Optional[str]:
        self.net.require_node(k.current)
        if k.current == self.sink:
            raise ValidationError("traveler is already at the sink")
        known, blocked = self._planner.belief(k)
        _, _, target = self._planner.value(k.current, known, blocked)
        if target is None:
            return None
        if target == k.current:
            raise ValidationError(
                "knowledge state leaves undecided edges at the current node"
            )
        path = shortest_path(self.net, k.current, target, known & ~blocked)
        if path is None:
            raise ValidationError("planner chose an unreachable target")
        return _known_open_step(self.net, k, path.nodes[1])


class ReplanGreedyPolicy(Policy):
    """Walk the cheapest path that treats undecided edges as open.

    The plan is recomputed from the current knowledge at every node, so
    discovering a blockage on the planned path replans automatically and
    discoveries elsewhere leave the plan unchanged.
    """

    kind = "replan"

    def __init__(self, net: RoadNetwork, sink: str):
        self.net = net
        self.sink = sink
        # free-space cost of each node to the sink, every search's bound
        self._to_sink = dijkstra_distances(net.reverse, sink)
        # node -> examined -> blocked & examined -> first hop of the search
        self._first_hops: dict[str, dict[int, dict[int, str]]] = {}

    def decide(self, k: KnowledgeState) -> Optional[str]:
        return self._greedy_step(k)

    def _greedy_step(self, k: KnowledgeState) -> Optional[str]:
        """The greedy decision. A search from k.current whose
        examined edges k.blocked agrees on would return the same path, so
        its first hop is reused; an abort is searched again. The searches
        pass the free-space distances to the sink as their bound, so
        examined leaves out the roads from settled nodes that no path as
        cheap as the one found can pass, and blocking one of those reuses
        the hop too (shortest_path)."""
        if k.current == self.sink:
            raise ValidationError("traveler is already at the sink")
        groups = self._first_hops.setdefault(k.current, {})
        for examined, hops in groups.items():
            nxt = hops.get(k.blocked & examined)
            if nxt is not None:
                break
        else:
            path = shortest_path(
                self.net, k.current, self.sink, ~k.blocked, self._to_sink
            )
            if path is None:
                return None
            nxt = path.nodes[1]
            groups.setdefault(path.examined, {})[k.blocked & path.examined] = nxt
        return _known_open_step(self.net, k, nxt)


class FixedRoutePolicy(ReplanGreedyPolicy):
    """Follow a committed route; fall back to greedy replanning once some
    remaining hop has every edge between its endpoints known blocked.

    The check is per hop, so where parallel edges exist the route stays
    committed as long as each hop is passable by some edge, even if the
    cheap one is gone. Only current knowledge is consulted: a traveler
    bumped off the route who later stands on a route node with a clean
    remaining suffix resumes the route."""

    kind = "route"

    def __init__(self, net: RoadNetwork, sink: str, route: Sequence[str]):
        route = tuple(route)
        if len(route) < 2:
            raise BadRoute("route needs at least two nodes")
        for node in route:
            if node not in net.node_set:
                raise BadRoute(f"route visits unknown node {node!r}")
        if len(set(route)) != len(route):
            raise BadRoute("route revisits a node")
        if route[-1] != sink:
            raise BadRoute(f"route must end at the sink {sink!r}")
        hops = []  # per hop, the mask of the edges from its start to its end
        for a, b in zip(route, route[1:]):
            hop = sum(bit for bit, far, _ in net.arcs[a] if far == b)
            if not hop:
                raise BadRoute(f"route hop {a!r} to {b!r} has no edge")
            hops.append(hop)
        super().__init__(net, sink)
        self.route = route
        self._hops = tuple(hops)
        self._index = {node: i for i, node in enumerate(route[:-1])}

    def decide(self, k: KnowledgeState) -> Optional[str]:
        i = self._index.get(k.current)
        if i is not None and all(hop & ~k.blocked for hop in self._hops[i:]):
            return _known_open_step(self.net, k, self.route[i + 1])
        return self._greedy_step(k)


def make_policy(
    kind: str,
    net: RoadNetwork,
    model: BlockageModel,
    sink: str,
    failure_cost: Optional[float] = None,
    route: Optional[Sequence[str]] = None,
) -> Policy:
    net.require_node(sink)
    failure_cost = checked_failure_cost(net, failure_cost)
    if kind == "optimal":
        return OptimalPolicy(net, model, sink, failure_cost)
    if kind == "replan":
        return ReplanGreedyPolicy(net, sink)
    if kind == "route":
        if route is None:
            raise BadRoute("fixed route policy needs a route")
        return FixedRoutePolicy(net, sink, route)
    raise ValidationError(f"unknown policy kind {kind!r}")


@dataclass(frozen=True)
class ReplicateOutcome:
    travel_time: float
    failed: bool
    path: tuple[str, ...]


def _moves(policy: Policy, net: RoadNetwork) -> dict:
    """policy's table of checked moves on net, keyed on the belief
    (current, known, blocked): (next node, edge cost), or () for an abort.
    A walk on another network starts a fresh table."""
    owner, moves = policy._table
    if owner is not net:
        moves = {}
        policy._table = (net, moves)
    return moves


def _checked_move(
    net: RoadNetwork, policy: Policy, moves: dict, belief: tuple[str, int, int]
) -> tuple:
    """Decide belief and store its move in moves. The edge chosen must
    leave the current node and be known open; a failed check raises and
    stores nothing."""
    k = KnowledgeState(*belief)
    edge_id = policy.decide(k)
    if edge_id is None:
        moves[belief] = ()
        return ()
    b = net.edge_bit.get(edge_id)
    if b is None:
        raise UnknownEdge(f"policy chose unknown edge {edge_id!r}")
    if not net.outgoing_mask[k.current] >> b & 1:
        raise ValidationError(
            f"policy chose edge {edge_id!r} not leaving {k.current!r}"
        )
    if (k.blocked | ~k.known) >> b & 1:
        raise ValidationError(
            f"policy tried to traverse edge {edge_id!r} not known open"
        )
    edge = net.edges[b]
    move = moves[belief] = (edge.other(k.current), edge.cost)
    return move


def walk_policy(
    net: RoadNetwork,
    world: Realization,
    policy: Policy,
    source: str,
    sink: str,
    failure_cost: float,
) -> ReplicateOutcome:
    """Run one deterministic journey through a fully realized world.

    Pure function of (world, policy): replicate r of a simulation can be
    reproduced in isolation by sampling world r and calling this, and a
    simulation calls it once per distinct world. Walks and the exact
    evaluator call policy.decide once per distinct belief per policy and
    network, and replay its checked move after that.

    The walk reads masks only. A world listed in the network's edge
    order is walked on its blocked mask as it is; any other is read once
    into closed, the mask of its blocked network edges, ignoring its
    edges outside the network. Every known edge was revealed from this
    world, so an arrival ORs the node's incident mask into known and the
    blocked mask is known & closed. A world that lacks a network edge
    raises UnknownEdge at the first arrival that reveals one, naming the
    lowest such bit, the first in incident order.
    """
    net.require_node(source)
    net.require_node(sink)
    closed, unseen = _world_masks(net, world)
    return _walk(net, closed, unseen, policy, source, sink, failure_cost)


def _world_masks(net: RoadNetwork, world: Realization) -> tuple[int, int]:
    """(closed, unseen): the masks of the world's blocked network edges
    and of the network edges the world lacks."""
    if world.edge_ids == net.edge_ids:
        return world.blocked, 0
    bit, blocked = net.edge_bit, world.blocked
    closed = seen = 0
    for i, edge_id in enumerate(world.edge_ids):
        b = bit.get(edge_id)
        if b is not None:
            seen |= 1 << b
            closed |= (blocked >> i & 1) << b
    return closed, ~seen


def _walk(
    net: RoadNetwork,
    closed: int,
    unseen: int,
    policy: Policy,
    source: str,
    sink: str,
    failure_cost: float,
) -> ReplicateOutcome:
    """Walk from source to the end of the journey in the world whose
    blocked edges are closed; the first arrival that reveals a bit of
    unseen, the edges the world lacks, raises UnknownEdge."""
    incident = net.incident_mask
    moves = _moves(policy, net)
    current, known, time, path = source, incident[source], 0.0, [source]
    # a terminating walk repeats no belief, and its known mask changes only
    # at a node's first arrival, so over the n nodes it reaches it takes at
    # most n * n steps; past this budget it has cycled
    for _ in range(4 * (len(net.nodes) + 1) * (len(net.edges) + 1) + 16):
        if known & unseen:
            lacking = known & unseen
            edge_id = net.edges[(lacking & -lacking).bit_length() - 1].id
            raise UnknownEdge(f"realization has no edge {edge_id!r}")
        if current == sink:
            return ReplicateOutcome(time, False, tuple(path))
        belief = (current, known, known & closed)
        move = moves.get(belief)
        if move is None:
            move = _checked_move(net, policy, moves, belief)
        if not move:
            return ReplicateOutcome(time + failure_cost, True, tuple(path))
        current, cost = move
        time += cost
        known |= incident[current]
        path.append(current)
    raise ValidationError("policy revisits a knowledge state without new information")


def standard_error(values: np.ndarray) -> float:
    """Standard error of the mean of values, 0 for a single value."""
    if values.size < 2:
        return 0.0
    return float(np.std(values, ddof=1) / math.sqrt(values.size))


@dataclass(frozen=True)
class TravelTimeDistribution:
    """Per replicate travel times with the failed flag per replicate.

    Failed replicates store travel spent plus the failure cost. Summary
    statistics are derived from the raw arrays on demand, so they are
    exactly recomputable.
    """

    times: np.ndarray
    failed: np.ndarray
    failure_cost: float
    seed: int
    policy_kind: str

    QUANTILES = (0.05, 0.25, 0.5, 0.75, 0.95)

    @property
    def replications(self) -> int:
        return int(self.times.size)

    @property
    def mean(self) -> float:
        return float(np.mean(self.times))

    @property
    def stderr(self) -> float:
        return standard_error(self.times)

    @property
    def failure_frequency(self) -> float:
        return float(np.mean(self.failed))

    def quantiles(self) -> dict[float, float]:
        values = np.quantile(self.times, self.QUANTILES)
        return {q: float(v) for q, v in zip(self.QUANTILES, values)}

    def summary(self) -> dict:
        return {
            "replications": self.replications,
            "mean": self.mean,
            "stderr": self.stderr,
            "quantiles": {f"{q:g}": v for q, v in self.quantiles().items()},
            "failure_frequency": self.failure_frequency,
            "failure_cost": self.failure_cost,
            "policy": self.policy_kind,
            "seed": self.seed,
        }


def simulate_policy(
    net: RoadNetwork,
    model: BlockageModel,
    policy: Policy,
    source: str,
    sink: str,
    replications: int,
    seed: int,
    failure_cost: Optional[float] = None,
) -> TravelTimeDistribution:
    """Monte Carlo policy evaluation over sampled worlds.

    Replicate r's world is sample_realization(model, seed, stream=r), a
    function of the substream (seed, r) alone, so output is independent
    of batching and worker count, and reruns are identical. The run is
    its distinct worlds plus one index of each replicate's world
    (blockage.sample_worlds): each distinct world is walked once, through
    walk_policy, in the order it first appears, and every replicate
    takes its world's outcome.
    """
    failure_cost = checked_journey(net, model, source, sink, failure_cost, replications)
    worlds, index = sample_worlds(model, seed, replications)
    times, failed = [], []
    for world in worlds:
        outcome = walk_policy(net, world, policy, source, sink, failure_cost)
        times.append(outcome.travel_time)
        failed.append(outcome.failed)
    return _distribution(times, failed, index, failure_cost, seed, policy.kind)


def simulate_blocked_and_open(
    net: RoadNetwork,
    model: BlockageModel,
    policy: Policy,
    source: str,
    sink: str,
    edge_id: str,
    replications: int,
    seed: int,
    failure_cost: Optional[float] = None,
) -> tuple[TravelTimeDistribution, TravelTimeDistribution]:
    """simulate_policy with edge_id forced blocked, and with it forced
    open, on common random numbers: equal to the two runs whose model
    pins edge_id at 1 and at 0.

    Worlds come from the model with edge_id pinned open, one
    sample_realization per replicate: the same worlds with its bit
    clear, and one world drawing no uniform where every other edge is
    certain. Like simulate_policy, the pair is its distinct worlds plus
    one index of each replicate's world. Each distinct world is walked
    from the source with the edge open, and again with it blocked only
    when that walk stood at an end of the edge: until the first such
    arrival both worlds give every belief the same masks, so a walk that
    never reveals the edge is both runs' walk.
    """
    failure_cost = checked_journey(net, model, source, sink, failure_cost, replications)
    if edge_id not in net.edge_bit:
        raise UnknownEdge(f"unknown edge {edge_id!r}")
    edge = net.edge_by_id[edge_id]
    bit, ends = 1 << net.edge_bit[edge_id], {edge.u, edge.v}
    worlds = BlockageModel({**model.probabilities, edge_id: 0.0})
    index = np.empty(replications, dtype=np.intp)
    first: dict[int, int] = {}
    b_times, b_failed, o_times, o_failed = [], [], [], []
    for r in range(replications):
        world = sample_realization(worlds, seed, stream=r)
        i = index[r] = first.setdefault(world.blocked, len(first))
        if i < len(o_times):
            continue
        # a world of a validated model holds every network edge
        closed = _world_masks(net, world)[0]
        opened = blocked = _walk(net, closed, 0, policy, source, sink, failure_cost)
        if not ends.isdisjoint(opened.path):
            blocked = _walk(net, closed | bit, 0, policy, source, sink, failure_cost)
        b_times.append(blocked.travel_time)
        b_failed.append(blocked.failed)
        o_times.append(opened.travel_time)
        o_failed.append(opened.failed)
    return (
        _distribution(b_times, b_failed, index, failure_cost, seed, policy.kind),
        _distribution(o_times, o_failed, index, failure_cost, seed, policy.kind),
    )


def _distribution(
    times: list, failed: list, index: np.ndarray, failure_cost: float, seed: int,
    kind: str,
) -> TravelTimeDistribution:
    """The run whose replicate r took the outcome of distinct world
    index[r], given each distinct world's time and failed flag."""
    times, failed = np.array(times, dtype=float), np.array(failed, dtype=bool)
    return TravelTimeDistribution(times[index], failed[index], failure_cost, seed, kind)


def evaluate_policy_exact(
    net: RoadNetwork,
    model: BlockageModel,
    policy: Policy,
    source: str,
    sink: str,
    failure_cost: Optional[float] = None,
) -> ExpectedTime:
    """Exact expectation of a policy by enumerating reveal outcomes.

    The policy decides from its knowledge alone, and the model drives the
    dynamics only: a model that pins an edge at 0 or 1 conditions the
    revealed state of that edge, whatever the policy was built from.
    Requires the policy to be a pure function of (current node, known
    mask, blocked mask).
    """
    failure_cost = checked_journey(net, model, source, sink, failure_cost)
    inst = _compile(net, model, sink)
    memo: dict[tuple[str, int, int], tuple[float, float]] = {}
    active: set[tuple[str, int, int]] = set()
    incident = net.incident_mask
    moves = _moves(policy, net)

    def visit(node: str, known: int, blocked: int) -> tuple[float, float]:
        # a move whose reveal has one outcome passes its child's value on
        # unchanged, so a stretch of such moves is followed in a loop, not
        # by recursion, and its costs are added back in the recursion's order
        stretch: list[tuple[tuple[str, int, int], float]] = []
        while True:
            if node == inst.sink:
                result = (0.0, 0.0)
                break
            k = (node, known, blocked)
            result = memo.get(k)
            if result is not None:
                break
            if k in active:
                raise ValidationError(
                    "policy revisits a knowledge state without new information"
                )
            if len(memo) >= BELIEF_BUDGET:
                raise TooManyUncertainEdges(
                    f"the exact policy evaluator reached its budget of "
                    f"{BELIEF_BUDGET} beliefs"
                )
            active.add(k)
            move = moves.get(k)
            if move is None:
                move = _checked_move(net, policy, moves, k)
            if not move:
                result = (failure_cost, 1.0)
            else:
                node, cost = move
                rest = incident[node] & ~known
                if rest & inst.known == rest:
                    stretch.append((k, cost))
                    known, blocked = known | rest, blocked | rest & inst.blocked
                    continue
                v, f = _reveal_expectation(inst, node, known, blocked, visit)
                result = (cost + v, f)
            active.discard(k)
            memo[k] = result
            break
        for k, cost in reversed(stretch):
            active.discard(k)
            result = memo[k] = (cost + result[0], result[1])
        return result

    try:
        value, fail = _reveal_expectation(inst, source, 0, 0, visit)
    except RecursionError:
        # one level per move that reveals an uncertain road
        raise TooManyUncertainEdges(
            "the exact policy evaluator reached Python's recursion limit"
        ) from None
    return ExpectedTime(
        value=value, failure_probability=fail, failure_cost=failure_cost
    )
