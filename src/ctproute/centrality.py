"""Edge importance under uncertainty.

The blockage centrality of an edge is the rise in the optimal traveler's
expected time caused by that edge being blocked rather than open:

    cbc(e) = E[T | e blocked] - E[T | e open]

The traveler's policy is always built from the nominal probabilities and
never pre knows e's state; conditioning enters only through the realized
world, so the policy discovers the forced state on arrival like any
other observation. Whether the other edges stay random or are forced
open is the analyst's choice (the mode).

Monte Carlo estimates both terms on common random numbers, one world
per replicate pair (see traveler.simulate_blocked_and_open); under
others_open that world is certain and draws no uniform.

A deterministic geodesic edge betweenness is included as a baseline:
over unordered node pairs, the fraction of minimum cost paths through
each edge, with equal splitting across ties and no normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import rng
from .blockage import BlockageModel
from .errors import (
    IncompatibleOptions,
    UnknownEdge,
    ValidationError,
)
from .network import RoadNetwork, dijkstra_distances
from .render import csv_text, fmt
from .traveler import (
    OptimalPolicy,
    checked_journey,
    evaluate_policy_exact,
    simulate_blocked_and_open,
    standard_error,
)

MODES = ("others_stochastic", "others_open")
METHODS = ("exact", "monte_carlo")
FAILURE_HANDLING = ("penalty", "conditional")


@dataclass(frozen=True)
class CbcResult:
    edge_id: str
    mode: str
    method: str
    e_t_blocked: float
    e_t_open: float
    cbc: float
    p_fail_blocked: float
    p_fail_open: float
    se_blocked: Optional[float] = None
    se_open: Optional[float] = None
    se_cbc: Optional[float] = None


@dataclass(frozen=True)
class CentralityTable:
    rows: tuple[CbcResult, ...]


def _conditioned_model(
    net: RoadNetwork, model: BlockageModel, edge_id: str, mode: str
) -> BlockageModel:
    """Model seen by both the policy and the dynamics under a mode."""
    if mode == "others_stochastic":
        return model
    return BlockageModel(
        probabilities={
            e.id: model.probability(e.id) if e.id == edge_id else 0.0
            for e in net.edges
        }
    )


def _validate_options(mode: str, method: str, failure_handling: str) -> None:
    if mode not in MODES:
        raise ValidationError(f"unknown mode {mode!r}")
    if method not in METHODS:
        raise ValidationError(f"unknown method {method!r}")
    if failure_handling not in FAILURE_HANDLING:
        raise ValidationError(f"unknown failure handling {failure_handling!r}")
    if failure_handling == "conditional" and method == "exact":
        raise IncompatibleOptions(
            "conditional failure handling requires the monte_carlo method"
        )


def _conditional_stats(dist) -> tuple[float, float]:
    ok = dist.times[~dist.failed]
    if ok.size == 0:
        return math.nan, 0.0
    return float(np.mean(ok)), standard_error(ok)


def canadian_betweenness(
    net: RoadNetwork,
    model: BlockageModel,
    source: str,
    sink: str,
    edge_id: str,
    mode: str = "others_stochastic",
    method: str = "exact",
    replications: int = 10000,
    seed: int = 0,
    failure_cost: Optional[float] = None,
    failure_handling: str = "penalty",
    _policy: Optional[OptimalPolicy] = None,
) -> CbcResult:
    """Blockage centrality of one edge between a source and sink."""
    _validate_options(mode, method, failure_handling)
    failure_cost = checked_journey(net, model, source, sink, failure_cost)
    if edge_id not in net.edge_by_id:
        raise UnknownEdge(f"unknown edge {edge_id!r}")
    cond = _conditioned_model(net, model, edge_id, mode)
    policy = _policy
    if policy is None or mode == "others_open":
        policy = OptimalPolicy(net, cond, sink, failure_cost)

    if method == "exact":
        blocked, opened = (
            evaluate_policy_exact(
                net, BlockageModel({**cond.probabilities, edge_id: p}),
                policy, source, sink, failure_cost,
            )
            for p in (1.0, 0.0)
        )
        return CbcResult(
            edge_id=edge_id,
            mode=mode,
            method=method,
            e_t_blocked=blocked.value,
            e_t_open=opened.value,
            cbc=blocked.value - opened.value,
            p_fail_blocked=blocked.failure_probability,
            p_fail_open=opened.failure_probability,
        )

    blocked, opened = simulate_blocked_and_open(
        net, cond, policy, source, sink, edge_id, replications,
        rng.derive_seed(seed, edge_id), failure_cost,
    )
    if failure_handling == "penalty":
        (bv, bse), (ov, ose) = ((d.mean, d.stderr) for d in (blocked, opened))
        se_cbc = standard_error(blocked.times - opened.times)
    else:
        (bv, bse), (ov, ose) = (_conditional_stats(d) for d in (blocked, opened))
        # the two means average different replicates: no paired error
        se_cbc = None
    return CbcResult(
        edge_id=edge_id,
        mode=mode,
        method=method,
        e_t_blocked=bv,
        e_t_open=ov,
        cbc=bv - ov,
        p_fail_blocked=blocked.failure_frequency,
        p_fail_open=opened.failure_frequency,
        se_blocked=bse,
        se_open=ose,
        se_cbc=se_cbc,
    )


def canadian_betweenness_all(
    net: RoadNetwork,
    model: BlockageModel,
    source: str,
    sink: str,
    mode: str = "others_stochastic",
    method: str = "exact",
    replications: int = 10000,
    seed: int = 0,
    failure_cost: Optional[float] = None,
    failure_handling: str = "penalty",
) -> CentralityTable:
    """Blockage centrality for every edge, rows in edge id order."""
    _validate_options(mode, method, failure_handling)
    failure_cost = checked_journey(net, model, source, sink, failure_cost)
    shared = None
    if mode == "others_stochastic":
        # one nominal policy serves every edge in this mode
        shared = OptimalPolicy(net, model, sink, failure_cost)
    rows = tuple(
        canadian_betweenness(
            net, model, source, sink, edge_id,
            mode=mode, method=method, replications=replications, seed=seed,
            failure_cost=failure_cost, failure_handling=failure_handling,
            _policy=shared,
        )
        for edge_id in sorted(net.edge_by_id)
    )
    return CentralityTable(rows=rows)


def geodesic_scores(net: RoadNetwork) -> dict[str, float]:
    """Raw geodesic betweenness per edge.

    Undirected networks count each unordered node pair once; directed
    networks count ordered pairs. Equal cost ties split the pair's unit
    of weight evenly across all minimum cost paths, counted as edge
    sequences so parallel edges are distinct paths. Disconnected pairs
    contribute nothing, which makes the score per component.
    """
    scores = {e.id: 0.0 for e in net.edges}
    into = net.reverse.arcs  # the roads into each node, in edge order
    for s in net.nodes:
        dist = dijkstra_distances(net, s)
        # path counts in increasing distance order; costs are positive so
        # equal distance nodes never feed each other. (distance, node) is
        # also the order in which Dijkstra settles them.
        order = sorted(dist, key=lambda n: (dist[n], n))
        sigma = {node: 0.0 for node in order}
        sigma[s] = 1.0
        preds: dict[str, list[tuple[str, str]]] = {node: [] for node in order}
        for node in order:
            if node == s:
                continue
            for bit, tail, cost in into[node]:
                if tail in dist and dist[tail] + cost == dist[node]:
                    preds[node].append((tail, net.edges[bit.bit_length() - 1].id))
                    sigma[node] += sigma[tail]

        delta = {node: 0.0 for node in order}
        for node in reversed(order):
            if node == s:
                continue
            for tail, edge_id in preds[node]:
                contribution = sigma[tail] / sigma[node] * (1.0 + delta[node])
                scores[edge_id] += contribution
                delta[tail] += contribution
    if not net.directed:
        scores = {e: v / 2.0 for e, v in scores.items()}
    return scores


CSV_HEADER = (
    "edge_id,mode,method,e_t_blocked,e_t_open,cbc,"
    "p_fail_blocked,p_fail_open,se_blocked,se_open,se_cbc"
)


def write_centrality_csv(
    table: CentralityTable, geodesic: Optional[dict[str, float]] = None
) -> str:
    """Render a CBC table as CSV, 12 significant digits, edge id order.

    Standard error columns are empty for the exact method, and se_cbc,
    the paired standard error of cbc, also under conditional failure
    handling. When a geodesic baseline map is supplied it is appended as a
    final column.
    """
    header = CSV_HEADER.split(",")
    if geodesic is not None:
        header.append("geodesic")
    records = []
    for row in table.rows:
        record = [
            row.edge_id,
            row.mode,
            row.method,
            fmt(row.e_t_blocked),
            fmt(row.e_t_open),
            fmt(row.cbc),
            fmt(row.p_fail_blocked),
            fmt(row.p_fail_open),
            "" if row.se_blocked is None else fmt(row.se_blocked),
            "" if row.se_open is None else fmt(row.se_open),
            "" if row.se_cbc is None else fmt(row.se_cbc),
        ]
        if geodesic is not None:
            if row.edge_id not in geodesic:
                raise UnknownEdge(f"no geodesic score for edge {row.edge_id!r}")
            record.append(fmt(geodesic[row.edge_id]))
        records.append(record)
    return csv_text(header, records)
