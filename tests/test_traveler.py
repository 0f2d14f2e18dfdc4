"""Knowledge dynamics, the exact recursion, policies, and simulation."""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ctproute import blockage, rng, traveler
from ctproute.blockage import (
    BlockageModel,
    EdgeState,
    Realization,
    sample_realization,
)
from ctproute.centrality import canadian_betweenness, canadian_betweenness_all
from ctproute.errors import (
    BadRoute,
    TooManyUncertainEdges,
    UnknownEdge,
    UnknownNode,
    ValidationError,
)
from ctproute.fixtures import tb_fixture, tri_fixture
from ctproute.network import dijkstra_distances, reachable_nodes, shortest_path
from ctproute.traveler import (
    FixedRoutePolicy,
    KnowledgeState,
    OptimalPolicy,
    Policy,
    ReplanGreedyPolicy,
    ReplicateOutcome,
    _Planner,
    default_failure_cost,
    evaluate_policy_exact,
    exact_expected_time,
    make_policy,
    optimal_action,
    simulate_policy,
    walk_policy,
)
from helpers import make_network, make_model, pinned, uncertain_edges

ALL_OPEN = {"d": EdgeState.OPEN, "a": EdgeState.OPEN, "b": EdgeState.OPEN}


def tri_world(**states):
    merged = dict(ALL_OPEN)
    merged.update(states)
    return oracles.Realization(states=merged)


class TestKnowledge:
    """The per-edge reveal of the oracles, which reference_walk runs and
    walk_policy must match exactly."""

    def test_fresh_knowledge_knows_nothing(self):
        net, _ = tri_fixture()
        k = KnowledgeState("S", 0, 0)
        assert k.current == "S"
        assert (k.known, k.blocked) == (0, 0)
        assert all(oracles.edge_state(net, k, e.id) is None for e in net.edges)

    def test_reveal_decides_exactly_the_incident_edges(self):
        net, _ = tri_fixture()
        world = tri_world(d=EdgeState.BLOCKED)
        k = oracles.reveal(net, KnowledgeState("S", 0, 0), "S", world)
        assert oracles.edge_state(net, k, "d") is EdgeState.BLOCKED
        assert oracles.edge_state(net, k, "a") is EdgeState.OPEN
        assert oracles.edge_state(net, k, "b") is None

    def test_arrival_at_next_node_reveals_its_edges(self):
        net, _ = tri_fixture()
        world = tri_world()
        k = oracles.reveal(net, KnowledgeState("S", 0, 0), "S", world)
        k = oracles.reveal(net, k._replace(current="M"), "M", world)
        assert k.current == "M"
        assert oracles.edge_state(net, k, "b") is EdgeState.OPEN

    def test_reveal_is_idempotent(self):
        net, _ = tri_fixture()
        world = tri_world(d=EdgeState.BLOCKED)
        once = oracles.reveal(net, KnowledgeState("S", 0, 0), "S", world)
        twice = oracles.reveal(net, once, "S", world)
        assert twice == once

    def test_reveal_never_rewrites_a_decided_edge(self):
        net, _ = tri_fixture()
        k = oracles.reveal(net, KnowledgeState("S", 0, 0), "S", tri_world())
        assert oracles.edge_state(net, k, "d") is EdgeState.OPEN
        contradicting = tri_world(d=EdgeState.BLOCKED)
        again = oracles.reveal(net, k, "S", contradicting)
        assert oracles.edge_state(net, again, "d") is EdgeState.OPEN


def _certain_road_beside_uncertain_chain(behind):
    """A certain road S-T of cost 1 and a chain of 21 uncertain roads that
    no traveler from S can reach: the chain is its own component, or it
    hangs off S behind a road certainly blocked."""
    chain = [f"A{i}" for i in range(22)]
    specs = [("st", "S", "T", 1.0)]
    specs += [(f"c{i}", u, v, 1.0) for i, (u, v) in enumerate(zip(chain, chain[1:]))]
    probabilities = {e: 0.5 for e, *_ in specs}
    probabilities["st"] = 0.0
    if behind == "blocked_road":
        specs.append(("sa", "S", "A0", 1.0))
        probabilities["sa"] = 1.0
    return make_network(specs), BlockageModel(probabilities=probabilities)


class TestExactExpectedTime:
    def test_tri_value(self):
        net, model = tri_fixture()
        result = exact_expected_time(net, model, "S", "T")
        assert result.value == pytest.approx(10.6, abs=1e-12)
        assert result.failure_probability == 0.0
        assert result.failure_cost == 44.0  # defaults to twice the total cost

    def test_tb_values_across_the_decision_flip(self):
        for q, expected in ((0.25, 3.0), (0.5, 4.0), (0.75, 4.0)):
            net, model = tb_fixture(q)
            result = exact_expected_time(net, model, "S", "T")
            assert result.value == pytest.approx(expected, abs=1e-12), q
            assert result.failure_probability == 0.0

    def test_single_certain_edge_costs_its_length(self):
        net = make_network([("st", "S", "T", 6.0)])
        result = exact_expected_time(net, make_model(st=0.0), "S", "T")
        assert result.value == 6.0
        assert result.failure_probability == 0.0

    def test_single_uncertain_edge_mixes_cost_and_failure(self):
        net = make_network([("st", "S", "T", 6.0)])
        result = exact_expected_time(net, make_model(st=0.4), "S", "T")
        # default failure cost 12; 0.6 * 6 + 0.4 * 12
        assert result.value == pytest.approx(8.4, abs=1e-12)
        assert result.failure_probability == pytest.approx(0.4, abs=1e-15)

    def test_travel_spent_before_failure_is_charged(self):
        net = make_network([("sa", "S", "A", 2.0), ("at", "A", "T", 3.0)])
        model = make_model(sa=0.0, at=0.5)
        result = exact_expected_time(net, model, "S", "T")
        # walk to A (2), then either finish (3) or fail there having
        # already paid 2: 2 + 0.5 * 3 + 0.5 * 10
        assert result.failure_cost == 10.0
        assert result.value == pytest.approx(8.5, abs=1e-12)
        assert result.failure_probability == pytest.approx(0.5, abs=1e-15)

    def test_degenerate_probabilities_reduce_to_shortest_path(self):
        net = make_network(
            [
                ("e1", "S", "A", 1.0),
                ("e2", "A", "T", 2.0),
                ("e3", "S", "T", 2.5),
                ("e4", "S", "T", 9.0),
            ]
        )
        model = make_model(e1=0.0, e2=0.0, e3=1.0, e4=0.0)
        result = exact_expected_time(net, model, "S", "T")
        open_dist = dijkstra_distances(net, "S", ~(1 << net.edge_bit["e3"]))
        assert result.value == open_dist["T"]  # exact equality
        assert result.failure_probability == 0.0

    def test_certain_disconnection_costs_exactly_failure_cost(self):
        net = make_network([("st", "S", "T", 5.0)])
        result = exact_expected_time(net, make_model(st=1.0), "S", "T")
        assert result.value == result.failure_cost == 10.0
        assert result.failure_probability == 1.0

    def test_source_equal_sink_rejected(self):
        net, model = tri_fixture()
        with pytest.raises(ValidationError, match="must differ"):
            exact_expected_time(net, model, "S", "S")

    def test_uncertain_edge_cap(self, monkeypatch):
        # a small budget refuses as the real one does, in milliseconds
        monkeypatch.setattr(traveler, "BELIEF_BUDGET", 2_000)
        specs = [(f"e{i}", "S", "T", float(i + 1)) for i in range(21)]
        net = make_network(specs)
        model = BlockageModel(probabilities={e.id: 0.5 for e in net.edges})
        with pytest.raises(TooManyUncertainEdges):
            exact_expected_time(net, model, "S", "T")

    @pytest.mark.parametrize("behind", ["nothing", "blocked_road"])
    def test_cap_ignores_roads_no_reveal_can_reach(self, behind):
        net, model = _certain_road_beside_uncertain_chain(behind)
        result = exact_expected_time(net, model, "S", "T")
        assert (result.value, result.failure_probability) == (1.0, 0.0)

    def test_default_failure_cost_is_twice_total_cost(self):
        net, _ = tri_fixture()
        assert default_failure_cost(net) == 44.0


class TestOptimalAction:
    def test_tb_initial_move_targets_the_gamble(self):
        net, model = tb_fixture(0.25)
        # every road at S revealed open
        k = KnowledgeState("S", net.incident_mask["S"], 0)
        assert optimal_action(net, model, k, "T") == "A"

    def test_tb_turn_back_after_bad_news(self):
        net, model = tb_fixture(0.25)
        # roads at S and at A revealed, only A-T blocked
        known = net.incident_mask["S"] | net.incident_mask["A"]
        k = KnowledgeState("A", known, 1 << net.edge_bit["at"])
        assert optimal_action(net, model, k, "T") == "T"

    def test_tie_breaks_toward_lexicographically_smaller_target(self):
        net, model = tb_fixture(0.5)
        k = KnowledgeState("S", net.incident_mask["S"], 0)
        # gamble through A and direct route both cost 4.0 in expectation
        assert optimal_action(net, model, k, "T") == "A"

    def test_certain_failure_aborts(self):
        net = make_network([("st", "S", "T", 5.0)])
        k = KnowledgeState("S", 0, 0)
        assert optimal_action(net, make_model(st=1.0), k, "T") is None

    def test_observation_outranks_a_certain_probability(self):
        # nominal p=0 for the direct edge, but the traveler has seen it
        # blocked; the action must respect the observation
        net, model = tri_fixture()
        override_model = make_model(d=0.0, a=0.0, b=0.0)
        bit = {e: 1 << b for e, b in net.edge_bit.items()}
        k = KnowledgeState("S", net.incident_mask["S"], bit["d"])
        assert optimal_action(net, override_model, k, "T") == "T"
        # with the detour also observed blocked, failure is certain
        k2 = KnowledgeState("S", net.incident_mask["S"], bit["d"] | bit["a"])
        assert optimal_action(net, override_model, k2, "T") is None

    def test_at_sink_rejected(self):
        net, model = tri_fixture()
        k = KnowledgeState("T", 0, 0)
        with pytest.raises(ValidationError, match="already at the sink"):
            optimal_action(net, model, k, "T")


class _ConstantPolicy(Policy):
    kind = "stub"

    def __init__(self, edge_id):
        self.edge_id = edge_id

    def decide(self, k):
        return self.edge_id


class _PingPongPolicy(Policy):
    kind = "stub"

    def decide(self, k):
        return "e"


class TestWalkPolicy:
    def test_records_path_travel_and_success(self):
        net, model = tri_fixture()
        policy = OptimalPolicy(net, model, "T", default_failure_cost(net))
        outcome = walk_policy(
            net, tri_world(d=EdgeState.BLOCKED), policy, "S", "T", 44.0
        )
        assert outcome.path == ("S", "M", "T")
        assert outcome.travel_time == 12.0
        assert not outcome.failed
        outcome = walk_policy(net, tri_world(), policy, "S", "T", 44.0)
        assert outcome.path == ("S", "T")
        assert outcome.travel_time == 10.0

    def test_abort_charges_failure_cost_on_top_of_travel(self):
        net = make_network([("sa", "S", "A", 2.0), ("at", "A", "T", 3.0)])
        model = make_model(sa=0.0, at=0.5)
        policy = OptimalPolicy(net, model, "T", 10.0)
        world = oracles.Realization(
            states={"sa": EdgeState.OPEN, "at": EdgeState.BLOCKED}
        )
        outcome = walk_policy(net, world, policy, "S", "T", 10.0)
        assert outcome.failed
        assert outcome.path == ("S", "A")
        assert outcome.travel_time == 12.0  # 2 travelled + 10 penalty

    def test_immediate_certain_failure_travels_nothing(self):
        net = make_network([("st", "S", "T", 5.0)])
        model = make_model(st=1.0)
        policy = OptimalPolicy(net, model, "T", 10.0)
        world = oracles.Realization(states={"st": EdgeState.BLOCKED})
        outcome = walk_policy(net, world, policy, "S", "T", 10.0)
        assert outcome.failed
        assert outcome.path == ("S",)
        assert outcome.travel_time == 10.0

    def test_rejects_unknown_edge_choice(self):
        net, _ = tri_fixture()
        with pytest.raises(UnknownEdge):
            walk_policy(net, tri_world(), _ConstantPolicy("ghost"), "S", "T", 44.0)

    def test_rejects_edge_not_leaving_current_node(self):
        net, _ = tri_fixture()
        with pytest.raises(ValidationError, match="not leaving"):
            walk_policy(net, tri_world(), _ConstantPolicy("b"), "S", "T", 44.0)

    @pytest.mark.parametrize("twin", [False, True])
    def test_rejects_edge_touching_but_not_leaving_current_node(self, twin):
        # "back" runs T to S, so at S it touches the node without leaving
        # it; with twin, a parallel "fwd" does leave S toward T
        specs = [("back", "T", "S", 1.0)]
        if twin:
            specs.append(("fwd", "S", "T", 1.0))
        net = make_network(specs, directed=True)
        world = oracles.Realization(states={e.id: EdgeState.OPEN for e in net.edges})
        for walk in (walk_policy, oracles.reference_walk):
            with pytest.raises(ValidationError, match="'back' not leaving 'S'"):
                walk(net, world, _ConstantPolicy("back"), "S", "T", 4.0)
        model = make_model(**{e.id: 0.0 for e in net.edges})
        with pytest.raises(ValidationError, match="'back' not leaving 'S'"):
            evaluate_policy_exact(net, model, _ConstantPolicy("back"), "S", "T", 4.0)
        if twin:
            outcome = walk_policy(net, world, _ConstantPolicy("fwd"), "S", "T", 4.0)
            assert outcome == ReplicateOutcome(1.0, False, ("S", "T"))

    def test_rejects_traversal_of_blocked_edge(self):
        net, _ = tri_fixture()
        world = tri_world(d=EdgeState.BLOCKED)
        with pytest.raises(ValidationError, match="not known open"):
            walk_policy(net, world, _ConstantPolicy("d"), "S", "T", 44.0)

    def test_a_failed_check_is_not_stored(self):
        net, _ = tri_fixture()
        world = tri_world(d=EdgeState.BLOCKED)
        policy = _ConstantPolicy("d")
        for _ in range(2):
            with pytest.raises(ValidationError, match="not known open"):
                walk_policy(net, world, policy, "S", "T", 44.0)

    def test_one_policy_walks_each_network_at_its_own_costs(self):
        # the same roads at twice the cost: the policy's moves on one
        # network must not be replayed on the other
        net, model = tri_fixture()
        slow = make_network(
            [("d", "S", "T", 20.0), ("a", "S", "M", 8.0), ("b", "M", "T", 16.0)]
        )
        policy = FixedRoutePolicy(net, "T", ("S", "M", "T"))
        for walked, time in ((net, 12.0), (slow, 24.0), (net, 12.0)):
            dist = simulate_policy(walked, model, policy, "S", "T", 5, seed=1)
            assert np.all(dist.times == time)

    def test_nonterminating_policy_is_detected(self):
        # a walk, a simulation and the exact evaluator all refuse a cycling
        # policy with the same error
        net = make_network([("e", "S", "A", 1.0)], extra_nodes=("T",))
        world = oracles.Realization(states={"e": EdgeState.OPEN})
        model = make_model(e=0.0)
        cycling = "policy revisits a knowledge state without new information"
        with pytest.raises(ValidationError, match=cycling):
            walk_policy(net, world, _PingPongPolicy(), "S", "T", 4.0)
        with pytest.raises(ValidationError, match=cycling):
            simulate_policy(net, model, _PingPongPolicy(), "S", "T", 3, 0, 4.0)
        with pytest.raises(ValidationError, match=cycling):
            evaluate_policy_exact(net, model, _PingPongPolicy(), "S", "T", 4.0)


class TestPolicies:
    def test_optimal_policy_achieves_the_exact_value(self):
        for net, model in (tri_fixture(), tb_fixture(0.25), tb_fixture(0.75)):
            fc = default_failure_cost(net)
            policy = OptimalPolicy(net, model, "T", fc)
            evaluated = evaluate_policy_exact(net, model, policy, "S", "T", fc)
            exact = exact_expected_time(net, model, "S", "T", fc)
            assert evaluated.value == pytest.approx(exact.value, abs=1e-12)
            assert evaluated.failure_probability == pytest.approx(
                exact.failure_probability, abs=1e-15
            )

    def test_greedy_matches_optimal_on_tb_gamble(self):
        net, model = tb_fixture(0.25)
        greedy = ReplanGreedyPolicy(net, "T")
        result = evaluate_policy_exact(net, model, greedy, "S", "T")
        assert result.value == pytest.approx(3.0, abs=1e-12)

    def test_policy_knowledge_holds_observations_only(self):
        # at q=1 the road A-T is certainly blocked, but a policy knows only
        # what it has seen: greedy still walks to A, discovers the blockage
        # there and turns back, 1 + 1 + 4
        net, model = tb_fixture(1.0)
        greedy = ReplanGreedyPolicy(net, "T")
        result = evaluate_policy_exact(net, model, greedy, "S", "T")
        assert result.value == 6.0
        assert result.failure_probability == 0.0
        dist = simulate_policy(net, model, greedy, "S", "T", 50, seed=3)
        assert np.all(dist.times == 6.0)

    def test_greedy_can_lose_to_a_cautious_fixed_route(self):
        # at q=0.75 the optimistic gamble is a mistake: greedy pays
        # 0.25*2 + 0.75*6 = 5.0 while committing to the direct road pays
        # 4.0, so "greedy beats every fixed route" is not a theorem
        net, model = tb_fixture(0.75)
        greedy = ReplanGreedyPolicy(net, "T")
        assert evaluate_policy_exact(
            net, model, greedy, "S", "T"
        ).value == pytest.approx(5.0, abs=1e-12)
        direct = FixedRoutePolicy(net, "T", ("S", "T"))
        assert evaluate_policy_exact(
            net, model, direct, "S", "T"
        ).value == pytest.approx(4.0, abs=1e-12)

    def test_fixed_route_through_gamble_falls_back_like_greedy(self):
        net, model = tb_fixture(0.75)
        routed = FixedRoutePolicy(net, "T", ("S", "A", "T"))
        assert evaluate_policy_exact(
            net, model, routed, "S", "T"
        ).value == pytest.approx(5.0, abs=1e-12)

    def test_fixed_route_stays_committed_over_parallel_edges(self):
        # the route hop S-T survives on the expensive parallel edge, so
        # the committed traveler pays 5 where the greedy one reroutes
        # through M for 2
        net = make_network(
            [
                ("e1", "S", "T", 1.5),
                ("e2", "S", "T", 5.0),
                ("m1", "S", "M", 1.0),
                ("m2", "M", "T", 1.0),
            ]
        )
        model = make_model(e1=0.5, e2=0.0, m1=0.0, m2=0.0)
        fixed = FixedRoutePolicy(net, "T", ("S", "T"))
        greedy = ReplanGreedyPolicy(net, "T")
        assert evaluate_policy_exact(
            net, model, fixed, "S", "T"
        ).value == pytest.approx(3.25, abs=1e-12)
        assert evaluate_policy_exact(
            net, model, greedy, "S", "T"
        ).value == pytest.approx(1.75, abs=1e-12)

    def test_fixed_route_validation(self):
        net, _ = tri_fixture()
        with pytest.raises(BadRoute, match="two nodes"):
            FixedRoutePolicy(net, "T", ("T",))
        with pytest.raises(BadRoute, match="unknown node"):
            FixedRoutePolicy(net, "T", ("S", "X", "T"))
        with pytest.raises(BadRoute, match="revisits"):
            FixedRoutePolicy(net, "T", ("S", "M", "S", "T"))
        with pytest.raises(BadRoute, match="end at the sink"):
            FixedRoutePolicy(net, "T", ("S", "M"))
        with pytest.raises(BadRoute, match="no edge"):
            FixedRoutePolicy(
                make_network([("e1", "S", "A", 1.0), ("e2", "A", "T", 1.0)]),
                "T",
                ("S", "T"),
            )

    @pytest.mark.parametrize("kind", ["optimal", "replan", "route"])
    def test_every_policy_refuses_a_traveler_at_the_sink(self, kind):
        net, model = tri_fixture()
        policy = make_policy(kind, net, model, "T", route=("S", "T"))
        with pytest.raises(ValidationError, match="traveler is already at the sink"):
            policy.decide(KnowledgeState("T", 0, 0))

    @pytest.mark.parametrize("kind", ["optimal", "replan", "route", "optimal_action"])
    def test_every_decision_refuses_a_traveler_off_the_network(self, kind):
        net, model = tri_fixture()
        k = KnowledgeState("Z", 0, 0)
        with pytest.raises(UnknownNode, match="'Z'"):
            if kind == "optimal_action":
                optimal_action(net, model, k, "T")
            else:
                make_policy(kind, net, model, "T", route=("S", "T")).decide(k)

    def test_memoized_abort_is_not_recomputed(self, monkeypatch):
        # T is cut off, so greedy's one search finds no path and aborts;
        # the abort is a stored move, so the second walk searches nothing
        net = make_network([("sa", "S", "A", 1.0)], extra_nodes=("T",))
        world = oracles.Realization(states={"sa": EdgeState.OPEN})
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return shortest_path(*args, **kwargs)

        monkeypatch.setattr(traveler, "shortest_path", counting)
        policy = ReplanGreedyPolicy(net, "T")
        for _ in range(2):
            outcome = walk_policy(net, world, policy, "S", "T", 5.0)
            assert outcome == ReplicateOutcome(5.0, True, ("S",))
        assert len(calls) == 1

    def test_make_policy_dispatch(self):
        net, model = tri_fixture()
        assert make_policy("optimal", net, model, "T").kind == "optimal"
        assert make_policy("replan", net, model, "T").kind == "replan"
        routed = make_policy("route", net, model, "T", route=("S", "M", "T"))
        assert routed.kind == "route"
        with pytest.raises(BadRoute, match="needs a route"):
            make_policy("route", net, model, "T")
        with pytest.raises(ValidationError, match="unknown policy"):
            make_policy("wander", net, model, "T")


class TestExactPolicyEvaluation:
    def test_matches_world_enumeration_on_random_instances(self):
        for seed in range(12):
            net, model, source, sink = oracles.random_instance(seed)
            fc = default_failure_cost(net)
            route = shortest_path(net, source, sink).nodes
            policies = [
                OptimalPolicy(net, model, sink, fc),
                ReplanGreedyPolicy(net, sink),
                FixedRoutePolicy(net, sink, route),
            ]
            for policy in policies:
                got = evaluate_policy_exact(
                    net, model, policy, source, sink, fc
                )
                want_v, want_f = oracles.policy_value_by_enumeration(
                    net, model, policy, source, sink, fc
                )
                assert got.value == pytest.approx(want_v, abs=1e-9)
                assert got.failure_probability == pytest.approx(
                    want_f, abs=1e-9
                )

    def test_overrides_condition_the_dynamics_not_the_policy(self):
        net, model = tb_fixture(0.25)
        greedy = ReplanGreedyPolicy(net, "T")
        result = evaluate_policy_exact(
            net, pinned(model, {"at": EdgeState.BLOCKED}), greedy, "S", "T"
        )
        # greedy still tries the gamble (it plans from nominal optimism),
        # discovers the forced blockage at A, and turns back: 1 + 1 + 4
        assert result.value == pytest.approx(6.0, abs=1e-12)
        assert result.failure_probability == 0.0

    def test_overrides_match_enumeration_on_random_instances(self):
        checked = 0
        for seed in range(20):
            net, model, source, sink = oracles.random_instance(seed)
            uncertain = uncertain_edges(model)
            if not uncertain:
                continue
            overrides = {uncertain[0]: EdgeState.BLOCKED}
            fc = default_failure_cost(net)
            policy = OptimalPolicy(net, model, sink, fc)
            got = evaluate_policy_exact(
                net, pinned(model, overrides), policy, source, sink, fc
            )
            want_v, want_f = oracles.policy_value_by_enumeration(
                net, model, policy, source, sink, fc, overrides=overrides
            )
            assert got.value == pytest.approx(want_v, abs=1e-9)
            assert got.failure_probability == pytest.approx(want_f, abs=1e-9)
            checked += 1
        assert checked >= 5

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_the_recursive_evaluator_bit_for_bit(self, seed):
        # few uncertain roads among many certain ones, with fractional
        # costs: long stretches of moves that reveal one outcome, whose
        # costs the loop must add in the recursion's order
        net, model, source, sink = oracles.random_instance(
            seed, max_nodes=10, max_uncertain=3
        )
        fc = default_failure_cost(net)
        policies = [OptimalPolicy(net, model, sink, fc), ReplanGreedyPolicy(net, sink)]
        path = shortest_path(net, source, sink)
        if path is not None:
            policies.append(FixedRoutePolicy(net, sink, path.nodes))
        conditions = [None] + [
            {edge: state}
            for edge in uncertain_edges(model)[:1]
            for state in (EdgeState.BLOCKED, EdgeState.OPEN)
        ]
        for policy in policies:
            for overrides in conditions:
                conditioned = pinned(model, overrides)
                got = evaluate_policy_exact(
                    net, conditioned, policy, source, sink, fc
                )
                want = oracles.recursive_policy_value(
                    net, conditioned, policy, source, sink, fc
                )
                assert (got.value, got.failure_probability) == want

    def test_a_walk_longer_than_the_recursion_limit(self):
        # a 2,000-node path whose one uncertain road leaves the source:
        # each later move reveals one certain road, far more moves than
        # the recursion limit allows frames
        n = 2000
        nodes = [f"n{i}" for i in range(n)]
        net = make_network(
            [(f"e{i}", u, v, 1.0) for i, (u, v) in enumerate(zip(nodes, nodes[1:]))]
        )
        model = BlockageModel({e.id: 0.5 if e.id == "e0" else 0.0 for e in net.edges})
        policy = FixedRoutePolicy(net, nodes[-1], nodes)
        blocked, opened = (
            evaluate_policy_exact(
                net, pinned(model, {"e0": state}), policy, "n0", nodes[-1]
            )
            for state in (EdgeState.BLOCKED, EdgeState.OPEN)
        )
        # blocked, the traveler aborts at the source and pays the default
        # failure cost, twice the n - 1 road costs, so cbc is n - 1
        assert (blocked.value, opened.value) == (2.0 * (n - 1), n - 1.0)
        assert blocked.value - opened.value == n - 1

    def test_a_policy_that_loops_without_news_is_refused(self):
        # all roads certain: S -> M reveals b, then S and M repeat
        net, _ = tri_fixture()
        model = make_model(d=0.0, a=0.0, b=0.0)

        class PingPong(Policy):
            def decide(self, k):
                return "a"

        with pytest.raises(ValidationError, match="revisits a knowledge state"):
            evaluate_policy_exact(net, model, PingPong(), "S", "T")

    def test_source_equal_sink_rejected(self):
        net, model = tri_fixture()
        policy = ReplanGreedyPolicy(net, "T")
        with pytest.raises(ValidationError, match="must differ"):
            evaluate_policy_exact(net, model, policy, "T", "T")

    def test_override_for_unknown_edge_rejected(self):
        net, model = tri_fixture()
        policy = ReplanGreedyPolicy(net, "T")
        with pytest.raises(UnknownEdge):
            evaluate_policy_exact(
                net, pinned(model, {"ghost": EdgeState.OPEN}), policy, "S", "T"
            )

    def test_a_21_road_chain_is_answered(self):
        # each move reveals one road, so the exact work grows with the
        # roads, not with the outcomes of all 21 at once
        nodes = ["S", *(f"N{i}" for i in range(1, 21)), "T"]
        net = make_network(
            [(f"e{i}", u, v, 1.0) for i, (u, v) in enumerate(zip(nodes, nodes[1:]))]
        )
        model = BlockageModel(probabilities={e.id: 0.5 for e in net.edges})
        fc = default_failure_cost(net)
        # a traveler k roads out finds road k blocked with probability
        # 0.5 ** (k + 1) and stops there, paying k + fc; the sink, 21
        # roads out, is reached with probability 0.5 ** 21
        want = sum(0.5 ** (k + 1) * (k + fc) for k in range(21)) + 0.5**21 * 21
        greedy = ReplanGreedyPolicy(net, "T")
        result = evaluate_policy_exact(net, model, greedy, "S", "T")
        assert result.value == pytest.approx(want, rel=1e-12)
        assert result.failure_probability == pytest.approx(1.0 - 0.5**21)
        # on a chain no traveler can do other than go on while it can
        assert exact_expected_time(net, model, "S", "T").value == pytest.approx(
            want, rel=1e-12
        )
        result = evaluate_policy_exact(
            net, pinned(model, {"e0": EdgeState.OPEN}), greedy, "S", "T"
        )
        # the walk reaches T only if the 20 free roads are all open
        assert result.failure_probability == pytest.approx(1.0 - 0.5**20)

    def test_a_chain_deeper_than_the_recursion_limit_is_refused(self):
        # 700 uncertain roads in a row take few beliefs, but exact work
        # recurses one level per reveal, past Python's limit
        nodes = ["S", *(f"N{i}" for i in range(1, 700)), "T"]
        net = make_network(
            [(f"e{i}", u, v, 1.0) for i, (u, v) in enumerate(zip(nodes, nodes[1:]))]
        )
        model = BlockageModel(probabilities={e.id: 0.5 for e in net.edges})
        with pytest.raises(
            TooManyUncertainEdges, match="planner reached Python's recursion limit"
        ):
            exact_expected_time(net, model, "S", "T")
        with pytest.raises(
            TooManyUncertainEdges, match="evaluator reached Python's recursion limit"
        ):
            evaluate_policy_exact(net, model, ReplanGreedyPolicy(net, "T"), "S", "T")

    def test_evaluator_refuses_past_its_belief_budget(self):
        # 21 parallel roads reveal 2 ** 21 outcomes at the source, one
        # belief each, so the evaluator stops at its own budget
        net = make_network([(f"e{i:02d}", "S", "T", 1.0 + i) for i in range(21)])
        model = BlockageModel(probabilities={e.id: 0.5 for e in net.edges})
        with pytest.raises(
            TooManyUncertainEdges, match="exact policy evaluator reached its budget"
        ):
            evaluate_policy_exact(net, model, ReplanGreedyPolicy(net, "T"), "S", "T")

    @pytest.mark.parametrize("behind", ["nothing", "blocked_road"])
    @pytest.mark.parametrize("kind", ["optimal", "replan"])
    def test_cap_ignores_roads_no_reveal_can_reach(self, behind, kind):
        net, model = _certain_road_beside_uncertain_chain(behind)
        policy = make_policy(kind, net, model, "T")
        result = evaluate_policy_exact(net, model, policy, "S", "T")
        assert (result.value, result.failure_probability) == (1.0, 0.0)


class TestSimulation:
    def test_source_equal_sink_rejected(self):
        net, model = tri_fixture()
        policy = ReplanGreedyPolicy(net, "T")
        with pytest.raises(ValidationError, match="must differ"):
            simulate_policy(net, model, policy, "T", "T", 10, seed=0)

    def test_deterministic_worlds_are_walked_exactly(self):
        net, model = tb_fixture(0.0)
        policy = OptimalPolicy(net, model, "T", default_failure_cost(net))
        dist = simulate_policy(net, model, policy, "S", "T", 64, seed=5)
        assert np.all(dist.times == 2.0)
        assert dist.failure_frequency == 0.0

    def test_an_edgeless_network_fails_every_replicate_drawing_nothing(
        self, monkeypatch
    ):
        # an empty model is a certain one: its one world is drawn from no
        # uniform, and no road leaves the source
        monkeypatch.setattr(rng, "_uniform_blocks", None)
        net = make_network([], extra_nodes=("S", "T"))
        for policy in (
            ReplanGreedyPolicy(net, "T"),
            OptimalPolicy(net, BlockageModel({}), "T", 0.0),
        ):
            dist = simulate_policy(net, BlockageModel({}), policy, "S", "T", 5, seed=1)
            assert dist.times.tolist() == [0.0] * 5
            assert dist.failed.tolist() == [True] * 5

    def test_bit_identical_reruns(self):
        net, model = tri_fixture()
        policy = OptimalPolicy(net, model, "T", 44.0)
        a = simulate_policy(net, model, policy, "S", "T", 200, seed=9)
        b = simulate_policy(net, model, policy, "S", "T", 200, seed=9)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.failed, b.failed)

    def test_each_replicate_is_reproducible_in_isolation(self):
        net, model = tri_fixture()
        policy = OptimalPolicy(net, model, "T", 44.0)
        dist = simulate_policy(net, model, policy, "S", "T", 12, seed=17)
        for r in range(12):
            world = sample_realization(model, 17, stream=r)
            outcome = walk_policy(net, world, policy, "S", "T", 44.0)
            assert outcome.travel_time == dist.times[r]
            assert outcome.failed == dist.failed[r]

    def test_replicate_streams_do_not_depend_on_batch_size(self):
        net, model = tri_fixture()
        policy = OptimalPolicy(net, model, "T", 44.0)
        short = simulate_policy(net, model, policy, "S", "T", 8, seed=3)
        long = simulate_policy(net, model, policy, "S", "T", 16, seed=3)
        assert np.array_equal(short.times, long.times[:8])
        # and on either side of batch boundaries, on a grid whose uncertain
        # roads lie in several Philox blocks
        net, model, source, sink = oracles.random_grid(5, rows=4, cols=4, uncertain=12)
        batch = _batch_size(model)
        assert batch < blockage.SAMPLE_BLOCK // 2
        policy = ReplanGreedyPolicy(net, sink)
        long = simulate_policy(net, model, policy, source, sink, 2 * batch + 1, 3)
        for reps in (batch - 1, batch, batch + 1, 2 * batch):
            short = simulate_policy(net, model, policy, source, sink, reps, 3)
            assert np.array_equal(short.times, long.times[:reps])
            assert np.array_equal(short.failed, long.failed[:reps])

    def test_a_count_past_memory_fails_before_any_draw(self, monkeypatch):
        # the batches are drawn lazily, so the per-replicate index must be
        # allocated first: else 2**55 replicates walk batch after batch
        # until the process runs out of memory
        monkeypatch.setattr(rng, "_uniform_blocks", None)
        net, model = tri_fixture()
        policy = OptimalPolicy(net, model, "T", 44.0)
        with pytest.raises(MemoryError):
            simulate_policy(net, model, policy, "S", "T", 2**55, seed=3)

    def test_mean_tracks_exact_value(self):
        net, model = tri_fixture()
        policy = OptimalPolicy(net, model, "T", 44.0)
        dist = simulate_policy(net, model, policy, "S", "T", 5000, seed=1)
        assert abs(dist.mean - 10.6) <= 4 * dist.stderr

    def test_failed_replicates_carry_the_penalty(self):
        net = make_network([("st", "S", "T", 6.0)])
        model = make_model(st=0.4)
        policy = OptimalPolicy(net, model, "T", 12.0)
        dist = simulate_policy(
            net, model, policy, "S", "T", 500, seed=2, failure_cost=12.0
        )
        assert np.all(dist.times[dist.failed] == 12.0)
        assert np.all(dist.times[~dist.failed] == 6.0)

    def test_summary_is_recomputable_from_the_raw_replicates(self):
        net, model = tri_fixture()
        policy = OptimalPolicy(net, model, "T", 44.0)
        dist = simulate_policy(net, model, policy, "S", "T", 100, seed=4)
        summary = dist.summary()
        assert summary["replications"] == 100
        assert summary["mean"] == float(np.mean(dist.times))
        assert summary["failure_frequency"] == float(np.mean(dist.failed))
        assert summary["policy"] == "optimal"
        assert summary["seed"] == 4
        assert set(summary["quantiles"]) == {
            "0.05", "0.25", "0.5", "0.75", "0.95"
        }

    def test_single_replicate_has_zero_stderr(self):
        net, model = tb_fixture(0.0)
        policy = OptimalPolicy(net, model, "T", 12.0)
        dist = simulate_policy(net, model, policy, "S", "T", 1, seed=0)
        assert dist.stderr == 0.0

    def test_replications_must_be_positive(self):
        net, model = tri_fixture()
        policy = OptimalPolicy(net, model, "T", 44.0)
        with pytest.raises(ValidationError, match="at least 1"):
            simulate_policy(net, model, policy, "S", "T", 0, seed=0)


class _RecordingPolicy(Policy):
    kind = "recorder"

    def __init__(self, inner):
        self.inner = inner
        self.snapshots = []

    def decide(self, k):
        self.snapshots.append(k)
        return self.inner.decide(k)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=5_000),
    world_stream=st.integers(min_value=0, max_value=50),
)
def test_knowledge_grows_monotonically_and_matches_the_world(
    seed, world_stream
):
    net, model, source, sink = oracles.random_instance(seed)
    fc = default_failure_cost(net)
    world = sample_realization(model, seed, stream=world_stream)
    recorder = _RecordingPolicy(OptimalPolicy(net, model, sink, fc))
    walk_policy(net, world, recorder, source, sink, fc)
    previous = {}
    for k in recorder.snapshots:
        # every visited node is the current node of some snapshot
        for e in net.incident[k.current]:
            assert oracles.edge_state(net, k, e.id) is not None
        for edge_id, state in previous.items():
            # never reverts or flips
            assert oracles.edge_state(net, k, edge_id) is state
        for e in net.edges:
            s = oracles.edge_state(net, k, e.id)
            if s is not None:
                assert s is world.states[e.id]
        previous = {
            e.id: oracles.edge_state(net, k, e.id)
            for e in net.edges
            if oracles.edge_state(net, k, e.id) is not None
        }


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=5_000))
def test_value_dominates_all_open_shortest_path(seed):
    net, model, source, sink = oracles.random_instance(seed)
    result = exact_expected_time(net, model, source, sink)
    baseline = dijkstra_distances(net, source)[sink]
    assert result.value >= baseline - 1e-9


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=5_000))
def test_optimal_never_exceeds_greedy(seed):
    net, model, source, sink = oracles.random_instance(seed)
    fc = default_failure_cost(net)
    optimal = evaluate_policy_exact(
        net, model, OptimalPolicy(net, model, sink, fc), source, sink, fc
    )
    greedy = evaluate_policy_exact(
        net, model, ReplanGreedyPolicy(net, sink), source, sink, fc
    )
    assert optimal.value <= greedy.value + 1e-9


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=5_000),
    directed=st.booleans(),
)
def test_fixed_route_follows_the_route_until_a_hop_is_known_blocked(
    seed, directed
):
    # integer-cost grids tie everywhere, so a fallback that is not exactly
    # the greedy policy's decision shows up as a different edge
    net, model, source, sink = oracles.random_grid(
        seed, rows=3, cols=4, uncertain=8, directed=directed
    )
    gen = np.random.default_rng(seed)
    avoided = {e.id for e in net.edges if gen.uniform() < 0.3}
    path = shortest_path(
        net, source, sink, ~sum(1 << net.edge_bit[i] for i in avoided)
    )
    if path is None:
        return
    route = path.nodes
    fixed = FixedRoutePolicy(net, sink, route)

    def hop_known_blocked(k, a, b):
        joining = [e for e in net.outgoing[a] if e.other(a) == b]
        return all(
            oracles.edge_state(net, k, e.id) is EdgeState.BLOCKED for e in joining
        )

    for stream in range(10):
        world = sample_realization(model, seed, stream=stream)
        k = oracles.reveal(net, KnowledgeState(source, 0, 0), source, world)
        while k.current != sink:
            step = fixed.decide(k)
            on_route = k.current in route
            i = route.index(k.current) if on_route else None
            if on_route and not any(
                hop_known_blocked(k, a, b) for a, b in zip(route[i:], route[i + 1 :])
            ):
                assert net.edge_by_id[step].other(k.current) == route[i + 1]
            else:
                assert step == ReplanGreedyPolicy(net, sink).decide(k)
            if step is None:
                break
            nxt = net.edge_by_id[step].other(k.current)
            k = oracles.reveal(net, k._replace(current=nxt), nxt, world)


PLANNER_VARIANTS = {
    "default": oracles.random_instance,
    "directed": partial(oracles.random_instance, directed=True),
    "certain_blocked": partial(oracles.random_instance, certain_blocked=True),
    "parallel": partial(oracles.random_instance, parallel=True),
    "all": partial(
        oracles.random_instance, directed=True, parallel=True, certain_blocked=True
    ),
    # integer costs and three probabilities: equal-cost paths and tied
    # targets everywhere
    "int_grid": partial(oracles.random_grid, rows=3, cols=3, uncertain=4),
    "int_grid_directed": partial(
        oracles.random_grid, rows=3, cols=3, uncertain=4, directed=True
    ),
}


def _contradicting(model, world):
    """The world with every p = 0 or 1 edge in the opposite state."""
    states = dict(world.states)
    for edge_id, p in model.probabilities.items():
        if p == 0.0:
            states[edge_id] = EdgeState.BLOCKED
        elif p == 1.0:
            states[edge_id] = EdgeState.OPEN
    return oracles.Realization(states=states)


@pytest.mark.parametrize("variant", PLANNER_VARIANTS)
def test_planner_matches_reference_bit_for_bit(variant):
    # failure costs below every path make min(h, failure cost) the binding
    # lower bound of the planner's pruning
    for seed in range(40):
        net, model, source, sink = PLANNER_VARIANTS[variant](seed)
        for fc in (default_failure_cost(net), 0.5, 1.0):
            reference = oracles.ReferencePlanner(net, model, sink, fc)
            got = exact_expected_time(net, model, source, sink, fc)
            want = reference.value(source, reference.base_assignment())
            assert (got.value, got.failure_probability) == want[:2]
            for stream in range(2):
                world = sample_realization(model, seed, stream=stream)
                for w in (world, _contradicting(model, world)):
                    recorder = _RecordingPolicy(OptimalPolicy(net, model, sink, fc))
                    walk_policy(net, w, recorder, source, sink, fc)
                    for k in recorder.snapshots:
                        assert optimal_action(
                            net, model, k, sink, fc
                        ) == reference.action(k)


def test_planner_prunes_targets_that_cannot_win():
    # a fixed 3x4 grid with 10 uncertain roads, corner to corner: the
    # unpruned recursion expands every belief the reference expands
    net, model, _, _ = oracles.random_grid(16, rows=3, cols=4, uncertain=10)
    source, sink = net.nodes[0], net.nodes[-1]
    fc = default_failure_cost(net)
    planner = _Planner(net, model, sink, fc)
    got = planner.value(source, planner.inst.known, planner.inst.blocked)
    reference = oracles.ReferencePlanner(net, model, sink, fc)
    want = reference.value(source, reference.base_assignment())
    assert got == want
    assert 2 * len(planner._memo) <= len(reference._memo)


def _assignment(net, known, blocked):
    """A planner belief's masks as the reference's per-road assignment."""
    return {
        e.id: EdgeState.BLOCKED if blocked >> b & 1 else EdgeState.OPEN
        for b, e in enumerate(net.edges)
        if known >> b & 1
    }


@pytest.mark.parametrize("variant", PLANNER_VARIANTS)
def test_every_planner_memo_entry_is_exact(variant):
    # pruning and the reveal cutoff drop options that cannot win, never a
    # belief's own result: every belief the planner expanded holds the
    # full recursion's value, failure probability and target
    for seed in range(10):
        net, model, source, sink = PLANNER_VARIANTS[variant](seed)
        for fc in (default_failure_cost(net), 0.5, 1.0):
            planner = _Planner(net, model, sink, fc)
            planner.value(source, planner.inst.known, planner.inst.blocked)
            reference = oracles.ReferencePlanner(net, model, sink, fc)
            for (node, known, blocked), got in planner._memo.items():
                want = reference.value(node, _assignment(net, known, blocked))
                assert got == want, (seed, fc, node, known, blocked)


@pytest.mark.parametrize("seed", [7, 10])
def test_planner_searches_reachability_once_per_blocked_mask(seed, monkeypatch):
    # whether the sink can be reached depends on the node only through the
    # set of nodes that reach it, so one search back from the sink per
    # blocked mask answers every belief with that mask. On a directed grid
    # reaching the sink from a node and reaching the node from the sink
    # differ, and the memo, aborts included, still matches the reference
    net, model, source, sink = oracles.random_grid(
        seed, rows=3, cols=4, uncertain=8, directed=True
    )
    searches = []

    def counting(*args, **kwargs):
        searches.append(args)
        return reachable_nodes(*args, **kwargs)

    monkeypatch.setattr(traveler, "reachable_nodes", counting)
    fc = default_failure_cost(net)
    planner = _Planner(net, model, sink, fc)
    planner.value(source, planner.inst.known, planner.inst.blocked)
    masks = {blocked for node, _, blocked in planner._memo if node != sink}
    assert len(searches) == len(masks) < len(planner._memo)
    assert any(target is None for _, _, target in planner._memo.values())
    reference = oracles.ReferencePlanner(net, model, sink, fc)
    for (node, known, blocked), got in planner._memo.items():
        want = reference.value(node, _assignment(net, known, blocked))
        assert got == want, (node, known, blocked)


def test_planner_cuts_a_reveal_that_cannot_win():
    # S reaches T directly at 10. X, one road away, reaches T at 1, or at
    # 101 through Y, and each of its two roads is blocked with p = 0.5.
    # X's bound 1 + 1 admits it, but its second outcome (xy open, xt
    # blocked) lifts the partial expectation to 1 + 25.5 + 0.5 * 1 > 10,
    # so the two outcomes with xy blocked are never planned
    net = make_network(
        [
            ("st", "S", "T", 10.0),
            ("sx", "S", "X", 1.0),
            ("xy", "X", "Y", 1.0),
            ("xt", "X", "T", 1.0),
            ("yt", "Y", "T", 100.0),
        ],
        directed=True,
    )
    model = make_model(st=0.0, sx=0.0, xy=0.5, xt=0.5, yt=0.0)
    fc = default_failure_cost(net)
    planner = _Planner(net, model, "T", fc)
    got = planner.value("S", planner.inst.known, planner.inst.blocked)
    reference = oracles.ReferencePlanner(net, model, "T", fc)
    assert got == reference.value("S", reference.base_assignment())
    assert got == (10.0, 0.0, "T")
    every, xy, xt = 0b11111, 0b00100, 0b01000
    assert ("X", every, 0) in planner._memo
    assert ("X", every, xt) in planner._memo
    assert ("X", every, xy) not in planner._memo
    assert ("X", every, xy | xt) not in planner._memo
    k = KnowledgeState("S", net.incident_mask["S"], 0)  # every road at S open
    assert optimal_action(net, model, k, "T", fc) == reference.action(k) == "T"


WALK_VARIANTS = {
    "default": oracles.random_instance,
    "directed": partial(oracles.random_instance, directed=True),
    "parallel": partial(oracles.random_instance, parallel=True),
    "certain_blocked": partial(oracles.random_instance, certain_blocked=True),
    "grid": partial(oracles.random_grid, rows=3, cols=4, uncertain=6),
}


def _walk_policies(net, model, source, sink, fc):
    """A fresh policy of every kind; the fixed route is the all-open
    shortest path, left out where there is none."""
    kinds = {
        "optimal": lambda: OptimalPolicy(net, model, sink, fc),
        "replan": lambda: ReplanGreedyPolicy(net, sink),
    }
    path = shortest_path(net, source, sink)
    if path is not None:
        kinds["route"] = lambda: FixedRoutePolicy(net, sink, path.nodes)
    return kinds


def _batch_size(model):
    """Replicates per batch of blockage.sample_worlds: SAMPLE_BLOCK over
    the Philox blocks, of 4 roads each in model order, that hold an
    uncertain road."""
    p = np.array(list(model.probabilities.values()))
    blocks = {i // 4 for i in np.flatnonzero((p > 0) & (p < 1))}
    return blockage.SAMPLE_BLOCK // len(blocks)


@pytest.mark.parametrize("directed", [False, True])
def test_batched_simulation_equals_per_replicate_runs(directed, monkeypatch):
    # one batch less one, one batch and one, and two batches and one
    # replicate, each against sample_realization and walk_policy run
    # replicate by replicate; a certain model draws no batch at all
    net, model, source, sink = oracles.random_grid(
        2, rows=3, cols=4, uncertain=10, directed=directed
    )
    fc = default_failure_cost(net)
    roads = uncertain_edges(model)
    ids = list(model.probabilities)
    order = np.random.default_rng(2).permutation(len(ids))
    models = {
        "nominal": model,
        "pinned": pinned(
            model, {roads[0]: EdgeState.BLOCKED, roads[1]: EdgeState.OPEN}
        ),
        "shuffled": BlockageModel({ids[i]: model.probabilities[ids[i]] for i in order}),
        "certain": BlockageModel(
            {e: float(p >= 0.5) for e, p in model.probabilities.items()}
        ),
    }
    for name, m in models.items():
        batch = _batch_size(model if name == "certain" else m)
        reference = ReplanGreedyPolicy(net, sink)
        outcomes = [
            walk_policy(
                net, sample_realization(m, 7, stream=r), reference, source, sink, fc
            )
            for r in range(2 * batch + 1)
        ]
        if name == "certain":
            monkeypatch.setattr(rng, "_uniform_blocks", None)
        for reps in (batch - 1, batch + 1, 2 * batch + 1):
            policy = ReplanGreedyPolicy(net, sink)
            dist = simulate_policy(net, m, policy, source, sink, reps, 7, fc)
            assert dist.times.tolist() == [o.travel_time for o in outcomes[:reps]]
            assert dist.failed.tolist() == [o.failed for o in outcomes[:reps]]


@pytest.mark.parametrize("variant", WALK_VARIANTS)
def test_walk_matches_the_reveal_walk_exactly(variant):
    kinds_seen = set()
    for seed in range(25):
        net, model, source, sink = WALK_VARIANTS[variant](seed)
        fc = default_failure_cost(net)
        gen = np.random.default_rng(seed)
        forced = {
            e.id: (EdgeState.OPEN, EdgeState.BLOCKED)[int(gen.integers(2))]
            for e in net.edges
            if gen.uniform() < 0.3
        }
        worlds = [
            sample_realization(pinned(model, overrides), seed, stream=r)
            for overrides in (None, forced)
            for r in range(4)
        ]
        for kind, make in _walk_policies(net, model, source, sink, fc).items():
            kinds_seen.add(kind)
            fast, reference = make(), make()
            for world in worlds:
                got = walk_policy(net, world, fast, source, sink, fc)
                want = oracles.reference_walk(
                    net, world, reference, source, sink, fc
                )
                assert (got.travel_time, got.failed, got.path) == (
                    want.travel_time,
                    want.failed,
                    want.path,
                )
    assert kinds_seen == {"optimal", "replan", "route"}


def test_world_missing_an_edge_raises_only_when_a_reveal_reaches_it():
    # S-A-T with a spur A-X; X is never visited but the spur is revealed
    # at A, and the road Y-Z lies where no reveal reaches
    net = make_network(
        [
            ("sa", "S", "A", 1.0),
            ("at", "A", "T", 1.0),
            ("ax", "A", "X", 1.0),
            ("yz", "Y", "Z", 1.0),
        ]
    )
    everything = {e.id: EdgeState.OPEN for e in net.edges}
    policy = ReplanGreedyPolicy(net, "T")
    for walk in (walk_policy, oracles.reference_walk):
        without_yz = {e: s for e, s in everything.items() if e != "yz"}
        outcome = walk(net, oracles.Realization(without_yz), policy, "S", "T", 9.0)
        assert outcome == ReplicateOutcome(2.0, False, ("S", "A", "T"))
        # the first lacking edge in the arrival node's incident order
        cases = ((("sa",), "sa"), (("ax",), "ax"), (("at",), "at"), (("ax", "at"), "at"))
        for lacking, named in cases:
            world = {e: s for e, s in everything.items() if e not in lacking}
            with pytest.raises(UnknownEdge, match=f"realization has no edge '{named}'"):
                walk(net, oracles.Realization(world), policy, "S", "T", 9.0)


@pytest.mark.parametrize("variant", WALK_VARIANTS)
def test_world_edges_outside_the_network_change_no_walk(variant):
    # each world gets two foreign roads ahead of its own, one blocked and
    # one open; the walk must read only the network's roads
    for seed in range(10):
        net, model, source, sink = WALK_VARIANTS[variant](seed)
        fc = default_failure_cost(net)
        for kind, make in _walk_policies(net, model, source, sink, fc).items():
            policy = make()
            for r in range(4):
                world = sample_realization(model, seed, stream=r)
                foreign = {"zz_blocked": EdgeState.BLOCKED, "zz_open": EdgeState.OPEN}
                wider = oracles.Realization({**foreign, **world.states})
                got = walk_policy(net, wider, policy, source, sink, fc)
                assert got == walk_policy(net, world, policy, source, sink, fc), kind


@pytest.mark.parametrize("variant", WALK_VARIANTS)
def test_a_world_walks_alike_in_any_edge_order(variant):
    # worlds sampled from the model and from a copy listing its roads in
    # another order, each walked as sampled, rebuilt from its states,
    # and listed backwards, against the reveal walk of the same states
    for seed in range(8):
        net, model, source, sink = WALK_VARIANTS[variant](seed)
        fc = default_failure_cost(net)
        ids = list(model.probabilities)
        order = np.random.default_rng(seed).permutation(len(ids))
        shuffled = BlockageModel({ids[i]: model.probabilities[ids[i]] for i in order})
        for kind, make in _walk_policies(net, model, source, sink, fc).items():
            policy = make()
            for r in range(4):
                for m in (model, shuffled):
                    world = sample_realization(m, seed, stream=r)
                    states = world.states
                    backwards = dict(reversed(states.items()))
                    want = oracles.reference_walk(net, world, make(), source, sink, fc)
                    for w in (world, Realization(states), Realization(backwards)):
                        got = walk_policy(net, w, policy, source, sink, fc)
                        assert got == want, kind


@pytest.mark.parametrize("variant", WALK_VARIANTS)
def test_simulation_decides_each_belief_once(variant):
    # one policy serves every replicate and decides each belief once; a
    # fresh policy per replicate walks the same journeys
    reps = 30
    for seed in range(6):
        net, model, source, sink = WALK_VARIANTS[variant](seed)
        fc = default_failure_cost(net)
        for kind, make in _walk_policies(net, model, source, sink, fc).items():
            shared = _RecordingPolicy(make())
            dist = simulate_policy(net, model, shared, source, sink, reps, seed, fc)
            times, failed = np.empty(reps), np.empty(reps, dtype=bool)
            walked = set()
            for r in range(reps):
                fresh = _RecordingPolicy(make())
                world = sample_realization(model, seed, stream=r)
                outcome = walk_policy(net, world, fresh, source, sink, fc)
                times[r], failed[r] = outcome.travel_time, outcome.failed
                walked.update(fresh.snapshots)
            assert np.array_equal(dist.times, times), kind
            assert np.array_equal(dist.failed, failed), kind
            assert len(shared.snapshots) == len(walked), kind
            assert set(shared.snapshots) == walked, kind


@pytest.mark.parametrize("directed", [False, True])
def test_simulation_walks_each_distinct_world_once(directed, monkeypatch):
    # 4 uncertain roads give at most 16 worlds, so 40 replicates repeat
    # some; a repeat must copy the first outcome without a walk, and a
    # world that differs on any road must get its own walk. The centrality
    # pair walks each distinct world open, and again blocked only when the
    # open walk stood at an end of its road
    reps = 40
    walked, pair_walks = [], []
    walk, step = traveler.walk_policy, traveler._walk

    def recording_walk(net, world, *args):
        walked.append(world.blocked)
        return walk(net, world, *args)

    def recording_step(net, closed, *args):
        pair_walks.append(closed)
        return step(net, closed, *args)

    monkeypatch.setattr(traveler, "walk_policy", recording_walk)
    monkeypatch.setattr(traveler, "_walk", recording_step)
    kinds_seen, sides_seen = set(), set()
    for seed in range(6):
        net, model, source, sink = oracles.random_grid(
            seed, rows=3, cols=3, uncertain=4, directed=directed
        )
        fc = default_failure_cost(net)
        roads = uncertain_edges(model)
        ids = list(model.probabilities)
        order = np.random.default_rng(seed).permutation(len(ids))
        models = {
            "nominal": model,
            "pinned": pinned(
                model, {roads[0]: EdgeState.BLOCKED, roads[1]: EdgeState.OPEN}
            ),
            "shuffled": BlockageModel(
                {ids[i]: model.probabilities[ids[i]] for i in order}
            ),
        }
        for kind, make in _walk_policies(net, model, source, sink, fc).items():
            kinds_seen.add(kind)
            for name, m in models.items():
                worlds = [sample_realization(m, seed, stream=r) for r in range(reps)]
                distinct = list(dict.fromkeys(w.blocked for w in worlds))
                assert len(distinct) < reps
                walked.clear()
                dist = simulate_policy(net, m, make(), source, sink, reps, seed, fc)
                assert walked == distinct, (kind, name)
                reference = make()
                outcomes = [walk(net, w, reference, source, sink, fc) for w in worlds]
                assert dist.times.tolist() == [o.travel_time for o in outcomes]
                assert dist.failed.tolist() == [o.failed for o in outcomes]
            m = models["shuffled"]
            for road in roads:
                bit = 1 << net.edge_bit[road]
                ends = {net.edge_by_id[road].u, net.edge_by_id[road].v}
                reference = make()
                want_walks = []
                for closed in dict.fromkeys(
                    traveler._world_masks(net, sample_realization(m, seed, stream=r))[0]
                    & ~bit
                    for r in range(reps)
                ):
                    want_walks.append(closed)
                    opened = step(net, closed, 0, reference, source, sink, fc)
                    if ends & set(opened.path):
                        want_walks.append(closed | bit)
                        sides_seen.add("blocked walk")
                    else:
                        sides_seen.add("open walk only")
                pair_walks.clear()
                runs = traveler.simulate_blocked_and_open(
                    net, m, make(), source, sink, road, reps, seed, fc
                )
                assert pair_walks == want_walks, (kind, road)
                for state, got in zip((EdgeState.BLOCKED, EdgeState.OPEN), runs):
                    want = simulate_policy(
                        net, pinned(m, {road: state}), make(), source, sink,
                        reps, seed, fc,
                    )
                    assert got.times.tolist() == want.times.tolist()
                    assert got.failed.tolist() == want.failed.tolist()
    assert kinds_seen == {"optimal", "replan", "route"}
    assert sides_seen == {"blocked walk", "open walk only"}


def _uncached_greedy(net, sink, k):
    """The greedy decision by one fresh search."""
    path = shortest_path(net, k.current, sink, ~k.blocked)
    return None if path is None else traveler._known_open_step(net, k, path.nodes[1])


def _counting_searches(monkeypatch):
    """Count the policies' shortest_path calls."""
    calls = []
    search = traveler.shortest_path

    def counting(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(traveler, "shortest_path", counting)
    return calls


@pytest.mark.parametrize("directed", [False, True])
def test_greedy_policies_decide_like_an_uncached_search(directed, monkeypatch):
    # beliefs come from a few nodes and block roads from a small pool, so
    # the first-hop cache is hit within a sequence; ties are everywhere
    calls = _counting_searches(monkeypatch)
    searches = beliefs = 0
    for seed in range(30):
        distinct = set()
        net, _, source, sink = oracles.random_grid(
            seed, rows=3 + seed % 3, cols=4, uncertain=0, directed=directed
        )
        gen = np.random.default_rng(seed)
        replan = ReplanGreedyPolicy(net, sink)
        path = shortest_path(net, source, sink)
        fixed = FixedRoutePolicy(net, sink, path.nodes) if path else None
        nodes = [n for n in net.nodes if n != sink]
        starts = [nodes[int(i)] for i in gen.choice(len(nodes), size=3, replace=False)]
        pool = [int(b) for b in gen.choice(len(net.edges), size=6, replace=False)]
        for _ in range(60):
            current = starts[int(gen.integers(3))]
            blocked = sum(1 << b for b in pool if gen.uniform() < 0.4)
            known = net.incident_mask[current] | blocked
            k = KnowledgeState(current, known, blocked)
            distinct.add(k)
            want = _uncached_greedy(net, sink, k)
            before = len(calls)
            assert replan.decide(k) == want
            searches += len(calls) - before
            if fixed:
                i = fixed._index.get(current)
                if i is not None and all(h & ~blocked for h in fixed._hops[i:]):
                    want = traveler._known_open_step(net, k, fixed.route[i + 1])
                assert fixed.decide(k) == want
        beliefs += len(distinct)
    # without the cache each distinct belief would make one search
    assert searches < beliefs


def test_greedy_searches_again_only_when_an_examined_road_changes(monkeypatch):
    # from S the search settles S, B, A and C and pops T, so it reads sa,
    # sx, sb, bc and at, never xy or yt
    net = make_network(
        [
            ("sa", "S", "A", 1.0),
            ("at", "A", "T", 1.0),
            ("sx", "S", "X", 5.0),
            ("xy", "X", "Y", 1.0),
            ("yt", "Y", "T", 1.0),
            ("sb", "S", "B", 0.5),
            ("bc", "B", "C", 1.0),
        ]
    )
    bit = {e: 1 << net.edge_bit[e] for e in net.edge_by_id}
    path = shortest_path(net, "S", "T")
    assert path.examined == bit["sa"] | bit["sx"] | bit["at"] | bit["sb"] | bit["bc"]
    # B and C lie 2.5 and 3.5 from T, so no path through them costs 2:
    # with that bound the search keeps only S's and A's roads
    to_t = dijkstra_distances(net, "T")
    bounded = shortest_path(net, "S", "T", -1, to_t)
    assert bounded == path
    assert bounded.examined == bit["sa"] | bit["sx"] | bit["at"] | bit["sb"]
    calls = _counting_searches(monkeypatch)
    policy = ReplanGreedyPolicy(net, "T")
    at_s = net.incident_mask["S"]
    assert policy.decide(KnowledgeState("S", at_s, 0)) == "sa"
    assert len(calls) == 1
    # xy blocked lies outside what the search read: no new search
    known = at_s | bit["xy"]
    assert policy.decide(KnowledgeState("S", known, bit["xy"])) == "sa"
    assert len(calls) == 1
    # bc blocked was read, but only from nodes the bound rules out: no new
    # search either
    known = at_s | bit["bc"]
    assert policy.decide(KnowledgeState("S", known, bit["bc"])) == "sa"
    assert len(calls) == 1
    # at blocked lies inside it: a new search, which detours through X
    known = at_s | bit["at"]
    assert policy.decide(KnowledgeState("S", known, bit["at"])) == "sx"
    assert len(calls) == 2
    # an abort is not cached: each new belief that aborts searches again
    blocked = bit["at"] | bit["xy"]
    assert policy.decide(KnowledgeState("S", at_s | blocked, blocked)) is None
    assert len(calls) == 3
    known = at_s | blocked | bit["yt"]
    assert policy.decide(KnowledgeState("S", known, blocked)) is None
    assert len(calls) == 4


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -5.0])
def test_every_entry_point_refuses_a_bad_failure_cost(bad):
    net, model = tri_fixture()
    policy = ReplanGreedyPolicy(net, "T")
    k = KnowledgeState("S", 0, 0)
    calls = [
        lambda: exact_expected_time(net, model, "S", "T", bad),
        lambda: optimal_action(net, model, k, "T", bad),
        lambda: make_policy("replan", net, model, "T", bad),
        lambda: OptimalPolicy(net, model, "T", bad),
        lambda: simulate_policy(net, model, policy, "S", "T", 10, 0, bad),
        lambda: evaluate_policy_exact(net, model, policy, "S", "T", bad),
        lambda: canadian_betweenness(net, model, "S", "T", "d", failure_cost=bad),
        lambda: canadian_betweenness_all(net, model, "S", "T", failure_cost=bad),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match="failure cost must be finite"):
            call()


# each entry point that checks a journey, as a call of (net, model, source,
# sink) on the tri fixture; the policies are built for the fixture's sink T
JOURNEY_CALLS = {
    "exact_expected_time": lambda net, m, s, t: exact_expected_time(net, m, s, t),
    "evaluate_policy_exact": lambda net, m, s, t: evaluate_policy_exact(
        net, m, ReplanGreedyPolicy(net, "T"), s, t
    ),
    "simulate_policy": lambda net, m, s, t: simulate_policy(
        net, m, ReplanGreedyPolicy(net, "T"), s, t, 5, 0
    ),
    "simulate_blocked_and_open": lambda net, m, s, t: (
        traveler.simulate_blocked_and_open(
            net, m, ReplanGreedyPolicy(net, "T"), s, t, "d", 5, 0
        )
    ),
    "canadian_betweenness": lambda net, m, s, t: canadian_betweenness(
        net, m, s, t, "d"
    ),
    "canadian_betweenness_all": lambda net, m, s, t: canadian_betweenness_all(
        net, m, s, t
    ),
    # the source is the knowledge state's node
    "optimal_action": lambda net, m, s, t: optimal_action(
        net, m, KnowledgeState(s, 0, 0), t
    ),
    # these two take no source
    "OptimalPolicy": lambda net, m, s, t: OptimalPolicy(net, m, t, None),
    "make_policy": lambda net, m, s, t: make_policy("optimal", net, m, t),
}

# fault -> (source, sink, drop road b from the model, exception type, message)
JOURNEY_FAULTS = {
    "unknown source": ("X", "T", False, UnknownNode, "unknown node 'X'"),
    "unknown sink": ("S", "X", False, UnknownNode, "unknown node 'X'"),
    "source is sink": ("T", "T", False, ValidationError, "must differ|at the sink"),
    "model lacks a road": ("S", "T", True, ValidationError, "without probability"),
}


@pytest.mark.parametrize(
    "entry, fault",
    [
        (entry, fault)
        for entry in JOURNEY_CALLS
        for fault in JOURNEY_FAULTS
        if entry not in ("OptimalPolicy", "make_policy")
        or fault in ("unknown sink", "model lacks a road")
    ],
)
def test_every_entry_point_refuses_a_bad_journey(entry, fault):
    net, model = tri_fixture()
    source, sink, drop, error, message = JOURNEY_FAULTS[fault]
    if drop:
        model = BlockageModel({e: p for e, p in model.probabilities.items() if e != "b"})
    with pytest.raises(error, match=message) as raised:
        JOURNEY_CALLS[entry](net, model, source, sink)
    assert type(raised.value) is error


def test_failure_cost_defaults_and_accepts_zero():
    net, _ = tri_fixture()
    assert traveler.checked_failure_cost(net, None) == default_failure_cost(net)
    assert traveler.checked_failure_cost(net, 0.0) == 0.0
    assert traveler.checked_failure_cost(net, 7.5) == 7.5
