"""Network document parsing, validation, and shortest path behavior."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ctproute.errors import ParseError, UnknownNode, ValidationError
from ctproute.network import (
    Edge,
    PathResult,
    RoadNetwork,
    cheapest_edge,
    dijkstra_distances,
    dump_network,
    load_network,
    parse_graph_document,
    reachable_nodes,
    shortest_path,
)
from helpers import make_network

TRI_DOC = """
{
  "nodes": ["S", "M", "T"],
  "edges": [
    {"id": "d", "u": "S", "v": "T", "cost": 10.0, "p": 0.3},
    {"id": "a", "u": "S", "v": "M", "cost": 4.0, "p": 0.0},
    {"id": "b", "u": "M", "v": "T", "cost": 8.0, "p": 0.0}
  ]
}
"""


class TestParsing:
    def test_parses_nodes_edges_and_inline_probabilities(self):
        net, probs = parse_graph_document(TRI_DOC)
        assert net.nodes == ("S", "M", "T")
        assert [e.id for e in net.edges] == ["d", "a", "b"]
        assert net.edge_by_id["d"] == Edge(id="d", u="S", v="T", cost=10.0)
        assert probs == {"d": 0.3, "a": 0.0, "b": 0.0}
        assert not net.directed

    def test_load_network_ignores_probabilities(self):
        net = load_network(TRI_DOC)
        assert len(net.edges) == 3

    def test_omitting_every_p_gives_no_probability_map(self):
        doc = json.loads(TRI_DOC)
        for e in doc["edges"]:
            del e["p"]
        net, probs = parse_graph_document(json.dumps(doc))
        assert probs is None
        assert len(net.edges) == 3

    def test_partial_inline_probabilities_rejected(self):
        doc = json.loads(TRI_DOC)
        del doc["edges"][1]["p"]
        with pytest.raises(ValidationError, match="every edge or none"):
            parse_graph_document(json.dumps(doc))

    def test_invalid_json_rejected(self):
        with pytest.raises(ParseError, match="not valid JSON"):
            parse_graph_document("{nope")

    def test_deeply_nested_document_rejected(self):
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_graph_document("[" * 100_000)

    def test_non_object_document_rejected(self):
        with pytest.raises(ValidationError, match="JSON object"):
            parse_graph_document("[1, 2]")

    def test_unknown_document_key_rejected(self):
        doc = json.loads(TRI_DOC)
        doc["weights"] = []
        with pytest.raises(ValidationError, match="unknown graph document keys"):
            parse_graph_document(json.dumps(doc))

    def test_unknown_edge_key_rejected(self):
        doc = json.loads(TRI_DOC)
        doc["edges"][0]["speed"] = 3
        with pytest.raises(ValidationError, match="unknown edge keys"):
            parse_graph_document(json.dumps(doc))

    def test_missing_edge_field_rejected(self):
        doc = json.loads(TRI_DOC)
        del doc["edges"][0]["cost"]
        with pytest.raises(ValidationError, match="missing required key"):
            parse_graph_document(json.dumps(doc))

    def test_probability_outside_unit_interval_rejected(self):
        doc = json.loads(TRI_DOC)
        doc["edges"][0]["p"] = 1.5
        with pytest.raises(ValidationError, match="outside"):
            parse_graph_document(json.dumps(doc))

    def test_boolean_cost_rejected(self):
        doc = json.loads(TRI_DOC)
        doc["edges"][0]["cost"] = True
        with pytest.raises(ValidationError, match="cost must be a number"):
            parse_graph_document(json.dumps(doc))

    def test_non_boolean_directed_flag_rejected(self):
        doc = json.loads(TRI_DOC)
        doc["directed"] = "yes"
        with pytest.raises(ValidationError, match="directed flag"):
            parse_graph_document(json.dumps(doc))

    def test_directed_flag_parsed(self):
        doc = json.loads(TRI_DOC)
        doc["directed"] = True
        net, _ = parse_graph_document(json.dumps(doc))
        assert net.directed


class TestNetworkValidation:
    def test_duplicate_node_rejected(self):
        with pytest.raises(ValidationError, match="duplicate node"):
            RoadNetwork(nodes=("A", "A"), edges=())

    def test_empty_node_id_rejected(self):
        with pytest.raises(ValidationError, match="nonempty string"):
            RoadNetwork(nodes=("A", ""), edges=())

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValidationError, match="duplicate edge"):
            make_network([("e", "A", "B", 1.0), ("e", "B", "A", 2.0)])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(ValidationError, match="unknown endpoint"):
            RoadNetwork(
                nodes=("A",), edges=(Edge(id="e", u="A", v="B", cost=1.0),)
            )

    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError, match="self loop"):
            RoadNetwork(
                nodes=("A",), edges=(Edge(id="e", u="A", v="A", cost=1.0),)
            )

    @pytest.mark.parametrize("cost", [0.0, -1.0, math.inf, math.nan])
    def test_nonpositive_or_nonfinite_cost_rejected(self, cost):
        with pytest.raises(ValidationError, match="cost"):
            make_network([("e", "A", "B", cost)])

    def test_require_node(self):
        net = make_network([("e", "A", "B", 1.0)])
        net.require_node("A")
        with pytest.raises(UnknownNode):
            net.require_node("Z")

    def test_edge_other_endpoint(self):
        e = Edge(id="e", u="A", v="B", cost=1.0)
        assert e.other("A") == "B"
        assert e.other("B") == "A"

    def test_total_cost(self):
        net = make_network([("e1", "A", "B", 1.5), ("e2", "B", "C", 2.5)])
        assert net.total_cost() == 4.0

    def test_parallel_edges_allowed_and_incident_everywhere(self):
        net = make_network([("e1", "A", "B", 1.0), ("e2", "A", "B", 2.0)])
        assert {e.id for e in net.incident["A"]} == {"e1", "e2"}
        assert {e.id for e in net.outgoing["B"]} == {"e1", "e2"}

    def test_reverse_turns_directed_edges_and_is_built_once(self):
        net = make_network([("e", "A", "B", 2.0), ("f", "B", "C", 1.0)], directed=True)
        rev = net.reverse
        assert rev is net.reverse
        assert rev.directed and rev.nodes == net.nodes
        assert [(e.id, e.u, e.v, e.cost) for e in rev.edges] == [
            ("e", "B", "A", 2.0), ("f", "C", "B", 1.0)
        ]
        assert dijkstra_distances(rev, "C") == {"C": 0.0, "B": 1.0, "A": 3.0}
        undirected = make_network([("e", "A", "B", 2.0)])
        assert undirected.reverse is undirected

    def test_directed_outgoing_is_one_way_but_incident_is_not(self):
        net = make_network([("e", "A", "B", 1.0)], directed=True)
        assert [e.id for e in net.outgoing["A"]] == ["e"]
        assert net.outgoing["B"] == ()
        assert [e.id for e in net.incident["B"]] == ["e"]


class TestSerialization:
    def test_roundtrip_without_probabilities(self):
        net = load_network(TRI_DOC)
        again = load_network(dump_network(net))
        assert again == net

    def test_roundtrip_with_probabilities_is_exact(self):
        net = make_network([("e1", "A", "B", 0.1), ("e2", "B", "C", 1 / 3)])
        probs = {"e1": 0.1, "e2": 2 / 3}
        net2, probs2 = parse_graph_document(dump_network(net, probs))
        assert net2 == net
        assert probs2 == probs

    def test_dump_requires_probability_for_every_edge(self):
        net = make_network([("e1", "A", "B", 1.0), ("e2", "B", "C", 1.0)])
        with pytest.raises(ValidationError, match="no probability"):
            dump_network(net, {"e1": 0.5})


class TestShortestPaths:
    def test_dijkstra_distances_simple_chain(self):
        net = make_network(
            [("e1", "A", "B", 1.0), ("e2", "B", "C", 2.0), ("e3", "A", "C", 4.0)]
        )
        assert dijkstra_distances(net, "A") == {"A": 0.0, "B": 1.0, "C": 3.0}

    def test_dijkstra_respects_passability(self):
        net = make_network([("e1", "A", "B", 1.0), ("e2", "B", "C", 2.0)])
        dist = dijkstra_distances(net, "A", mask=~(1 << net.edge_bit["e2"]))
        assert dist == {"A": 0.0, "B": 1.0}

    def test_shortest_path_breaks_cost_ties_lexicographically(self):
        # two equal cost routes A-B-D and A-C-D; the node sequence tie
        # break must pick the one through B
        net = make_network(
            [
                ("e1", "A", "C", 1.0),
                ("e2", "C", "D", 1.0),
                ("e3", "A", "B", 1.0),
                ("e4", "B", "D", 1.0),
            ]
        )
        path = shortest_path(net, "A", "D")
        assert path.nodes == ("A", "B", "D")
        assert path.cost == 2.0

    def test_shortest_path_uses_cheaper_parallel_edge(self):
        net = make_network([("slow", "A", "B", 5.0), ("fast", "A", "B", 1.0)])
        path = shortest_path(net, "A", "B")
        assert path.cost == 1.0

    def test_shortest_path_unreachable_is_none(self):
        net = make_network([("e", "A", "B", 1.0)], extra_nodes=("Z",))
        assert shortest_path(net, "A", "Z") is None

    def test_shortest_path_to_self(self):
        net = make_network([("e", "A", "B", 1.0)])
        path = shortest_path(net, "A", "A")
        assert path.nodes == ("A",)
        assert path.cost == 0.0

    def test_directed_network_blocks_reverse_travel(self):
        net = make_network([("e", "A", "B", 1.0)], directed=True)
        assert shortest_path(net, "A", "B").cost == 1.0
        assert shortest_path(net, "B", "A") is None

    def test_cheapest_edge_prefers_cost_then_id(self):
        net = make_network(
            [("z", "A", "B", 1.0), ("a", "A", "B", 1.0), ("m", "A", "B", 0.5)]
        )
        assert cheapest_edge(net, "A", "B").id == "m"
        without_m = cheapest_edge(net, "A", "B", mask=~(1 << net.edge_bit["m"]))
        assert without_m.id == "a"
        assert cheapest_edge(net, "A", "B", mask=0) is None

    def test_reachable_nodes_respects_passability(self):
        net = make_network([("e1", "A", "B", 1.0), ("e2", "B", "C", 1.0)])
        assert reachable_nodes(net, "A") == {"A", "B", "C"}
        assert reachable_nodes(net, "A", ~(1 << net.edge_bit["e2"])) == {"A", "B"}

    def test_unknown_nodes_raise(self):
        net = make_network([("e", "A", "B", 1.0)])
        with pytest.raises(UnknownNode):
            dijkstra_distances(net, "Z")
        with pytest.raises(UnknownNode):
            shortest_path(net, "A", "Z")


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_dijkstra_agrees_with_bellman_ford_oracle(seed):
    net, _, source, _ = oracles.random_instance(seed)
    dist = dijkstra_distances(net, source)
    reference = oracles.bf_distances(net, {e.id for e in net.edges}, source)
    for node in net.nodes:
        assert dist.get(node, math.inf) == pytest.approx(
            reference[node], abs=1e-12
        )


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_document_roundtrip_on_random_networks(seed):
    net, model, _, _ = oracles.random_instance(seed)
    text = dump_network(net, model.probabilities)
    net2, probs2 = parse_graph_document(text)
    assert net2 == net
    assert probs2 == dict(model.probabilities)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_shortest_path_cost_matches_distance_map(seed):
    net, _, source, sink = oracles.random_instance(seed)
    dist = dijkstra_distances(net, source)
    path = shortest_path(net, source, sink)
    if sink not in dist:
        assert path is None
    else:
        assert path.cost == pytest.approx(dist[sink], abs=1e-12)
        assert path.nodes[0] == source and path.nodes[-1] == sink
        hops = zip(path.nodes, path.nodes[1:])
        hop_cost = sum(cheapest_edge(net, a, b).cost for a, b in hops)
        assert hop_cost == pytest.approx(path.cost, abs=1e-12)


def _multigraph(seed: int) -> RoadNetwork:
    """Five nodes, nine roads of integer cost, with parallel roads."""
    gen = np.random.default_rng(seed)
    nodes = ("a", "b", "c", "d", "e")
    edges = []
    for i in range(9):
        u, v = gen.choice(5, size=2, replace=False)
        if i % 3 == 2:  # a road beside the previous one
            u, v = nodes.index(edges[-1].u), nodes.index(edges[-1].v)
        edges.append(Edge(f"p{i}", nodes[u], nodes[v], float(gen.integers(1, 3))))
    return RoadNetwork(nodes=nodes, edges=tuple(edges), directed=bool(seed % 2))


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    graph=st.sampled_from(["grid", "directed_grid", "multigraph"]),
)
def test_mask_searches_agree_with_oracles(seed, graph):
    # integer costs make every path sum exact, so the checks are ==
    if graph == "multigraph":
        net = _multigraph(seed)
    else:
        net, *_ = oracles.random_grid(
            seed, rows=3, cols=3, uncertain=0, directed=graph == "directed_grid"
        )
    for n in net.nodes:
        # reveal enumeration takes a node's edges lowest bit first and
        # relies on that being net.incident order
        bits = [net.edge_bit[e.id] for e in net.incident[n]]
        assert all(a < b for a, b in zip(bits, bits[1:]))
        assert sum(1 << b for b in bits) == net.incident_mask[n]
    gen = np.random.default_rng(seed)
    blocked = sum(1 << b for b in range(len(net.edges)) if gen.uniform() < 0.3)
    picked = sum(1 << b for b in range(len(net.edges)) if gen.uniform() < 0.7)
    for mask in (~blocked, picked, 0, -1):
        ids = {e.id for b, e in enumerate(net.edges) if mask >> b & 1}
        for source in net.nodes:
            dist = dijkstra_distances(net, source, mask)
            reference = oracles.bf_distances(net, ids, source)
            assert dist == {n: d for n, d in reference.items() if d < math.inf}
            assert reachable_nodes(net, source, mask) == set(dist)
            paths = oracles.simple_paths(net, ids, source)
            for target in net.nodes:
                path = shortest_path(net, source, target, mask)
                if target not in dist:
                    assert path is None
                    continue
                assert path.cost == dist[target]
                assert (path.cost, path.nodes) == min(
                    p for p in paths if p[1][-1] == target
                )
                joining = sorted(
                    (e.cost, e.id)
                    for e in net.edges
                    if e.id in ids and (source, target) in oracles.edge_ways(net, e)
                )
                edge = cheapest_edge(net, source, target, mask)
                assert (edge and edge.id) == (joining[0][1] if joining else None)


def _search_network(seed: int, graph: str) -> RoadNetwork:
    if graph == "multigraph":
        return _multigraph(seed)
    net, *_ = oracles.random_grid(
        seed, rows=3, cols=4, uncertain=0, directed=graph == "directed_grid"
    )
    return net


def _decimal_costs(net: RoadNetwork, seed: int) -> RoadNetwork:
    """net with each cost drawn from {0.1, 0.2, 0.3, 0.7}, whose float sums
    nearly tie (0.1 + 0.2 against 0.3) and round differently by order."""
    gen = np.random.default_rng(seed)
    edges = tuple(
        Edge(e.id, e.u, e.v, float(gen.choice((0.1, 0.2, 0.3, 0.7))))
        for e in net.edges
    )
    return RoadNetwork(nodes=net.nodes, edges=edges, directed=net.directed)


def _check_agreeing_masks(net: RoadNetwork, seed: int) -> None:
    gen = np.random.default_rng(seed)
    every = (1 << len(net.edges)) - 1
    bounds = {t: dijkstra_distances(net.reverse, t) for t in net.nodes}

    def random_mask():
        return sum(1 << b for b in range(len(net.edges)) if gen.uniform() < 0.7)

    for source in net.nodes:
        for target in net.nodes:
            if source == target:
                continue
            mask = random_mask()
            path = shortest_path(net, source, target, mask)
            bounded = shortest_path(net, source, target, mask, bounds[target])
            if path is None:
                assert bounded is None
                continue
            examined = path.examined
            assert 0 <= examined <= every
            # the source's arcs are read before anything else is settled
            assert examined & net.outgoing_mask[source] == net.outgoing_mask[source]
            for _ in range(4):
                agreeing = mask & examined | random_mask() & ~examined
                again = shortest_path(net, source, target, agreeing)
                assert again == path
                assert again.examined == examined
            # the bound changes only examined, to a part of the unbounded one
            # that still holds the roads leaving the path's own nodes
            assert bounded == path
            kept = bounded.examined
            assert kept & ~examined == 0
            for node in path.nodes[:-1]:
                assert kept & net.outgoing_mask[node] == net.outgoing_mask[node]
            outside = [0, every] + [random_mask() for _ in range(4)]
            for rest in outside:
                agreeing = mask & kept | rest & ~kept
                for again in (
                    shortest_path(net, source, target, agreeing),
                    shortest_path(net, source, target, agreeing, bounds[target]),
                ):
                    assert again == path


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    graph=st.sampled_from(["grid", "directed_grid", "multigraph"]),
)
def test_a_mask_that_agrees_on_the_examined_edges_finds_the_same_path(seed, graph):
    _check_agreeing_masks(_search_network(seed, graph), seed)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    graph=st.sampled_from(["grid", "directed_grid", "multigraph"]),
)
def test_the_bound_stays_exact_when_decimal_path_sums_nearly_tie(seed, graph):
    _check_agreeing_masks(_decimal_costs(_search_network(seed, graph), seed), seed)


def test_path_equality_ignores_the_examined_edges():
    built = PathResult(nodes=("a", "b"), cost=1.0)
    assert built.examined == -1
    assert built == PathResult(nodes=("a", "b"), cost=1.0, examined=0b101)
