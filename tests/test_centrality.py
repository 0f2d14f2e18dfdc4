"""Blockage centrality and the geodesic betweenness baseline."""

from __future__ import annotations

import math

import numpy as np
import pytest

import oracles
from ctproute import rng, traveler
from ctproute.blockage import BlockageModel, EdgeState
from ctproute.centrality import (
    CSV_HEADER,
    FAILURE_HANDLING,
    MODES,
    CbcResult,
    _conditional_stats,
    _conditioned_model,
    canadian_betweenness,
    canadian_betweenness_all,
    geodesic_scores,
    write_centrality_csv,
)
from ctproute.errors import (
    IncompatibleOptions,
    UnknownEdge,
    ValidationError,
)
from ctproute.fixtures import tb_fixture, tri_fixture
from ctproute.traveler import (
    OptimalPolicy,
    Policy,
    ReplanGreedyPolicy,
    default_failure_cost,
    exact_expected_time,
    simulate_blocked_and_open,
    simulate_policy,
)
from helpers import make_network, make_model, pinned


class _CountingPolicy(Policy):
    """Passes each decision to inner, counting the calls and recording
    the nodes decided at."""

    def __init__(self, inner):
        self.inner = inner
        self.kind = inner.kind
        self.calls = 0
        self.nodes = set()

    def decide(self, k):
        self.calls += 1
        self.nodes.add(k.current)
        return self.inner.decide(k)


class TestExactCentrality:
    def test_tri_direct_road_under_others_open(self):
        net, model = tri_fixture()
        row = canadian_betweenness(
            net, model, "S", "T", "d", mode="others_open"
        )
        assert row.e_t_blocked == pytest.approx(12.0, abs=1e-12)
        assert row.e_t_open == pytest.approx(10.0, abs=1e-12)
        assert row.cbc == pytest.approx(2.0, abs=1e-12)
        assert row.p_fail_blocked == 0.0 and row.p_fail_open == 0.0
        assert row.se_blocked is None and row.se_open is None
        assert row.se_cbc is None

    def test_tri_detour_edges_are_neutral_under_others_open(self):
        net, model = tri_fixture()
        for edge_id in ("a", "b"):
            row = canadian_betweenness(
                net, model, "S", "T", edge_id, mode="others_open"
            )
            assert row.e_t_blocked == pytest.approx(10.0, abs=1e-12)
            assert row.e_t_open == pytest.approx(10.0, abs=1e-12)
            assert row.cbc == pytest.approx(0.0, abs=1e-12)

    def test_tb_gamble_edge(self):
        net, model = tb_fixture(0.25)
        for mode in ("others_stochastic", "others_open"):
            row = canadian_betweenness(net, model, "S", "T", "at", mode=mode)
            assert row.e_t_blocked == pytest.approx(6.0, abs=1e-12)
            assert row.e_t_open == pytest.approx(2.0, abs=1e-12)
            assert row.cbc == pytest.approx(4.0, abs=1e-12)

    def test_tri_detour_blockage_exposes_failure_risk(self):
        # blocking the certain detour edge leaves only the risky direct
        # road: the traveler fails whenever it is blocked too
        net, model = tri_fixture()
        row = canadian_betweenness(
            net, model, "S", "T", "a",
            mode="others_stochastic", failure_cost=100.0,
        )
        assert row.e_t_blocked == pytest.approx(37.0, abs=1e-12)
        assert row.e_t_open == pytest.approx(10.6, abs=1e-12)
        assert row.cbc == pytest.approx(26.4, abs=1e-12)
        assert row.p_fail_blocked == pytest.approx(0.3, abs=1e-15)
        assert row.p_fail_open == 0.0

    def test_edge_the_traveler_never_needs_scores_zero(self):
        net = make_network(
            [
                ("d", "S", "T", 10.0),
                ("a", "S", "M", 4.0),
                ("b", "M", "T", 8.0),
                ("spur", "M", "P", 5.0),
            ]
        )
        model = make_model(d=0.3, a=0.0, b=0.0, spur=0.5)
        row = canadian_betweenness(net, model, "S", "T", "spur")
        assert row.cbc == 0.0
        assert row.e_t_blocked == row.e_t_open

    def test_blocking_an_edge_can_reduce_expected_time(self):
        # with a finite failure penalty, an open edge can lure the
        # traveler into paying more travel before near-certain failure,
        # while its blocked twin fails sooner and cheaper; nonnegativity
        # of the score is a property of instance families where the sink
        # stays reachable, not of the recursion itself
        net, model, source, sink = oracles.random_instance(9)
        table = canadian_betweenness_all(
            net, model, source, sink, mode="others_stochastic"
        )
        by_edge = {row.edge_id: row for row in table.rows}
        row = by_edge["e1"]
        assert row.cbc == pytest.approx(-1.9841523604617706, abs=1e-9)
        assert row.p_fail_blocked > row.p_fail_open
        # the surprising sign is real: both conditioned values agree
        # with a full enumeration over worlds
        from ctproute.traveler import OptimalPolicy
        from ctproute.blockage import EdgeState

        fc = default_failure_cost(net)
        policy = OptimalPolicy(net, model, sink, fc)
        for state, want in (
            (EdgeState.BLOCKED, row.e_t_blocked),
            (EdgeState.OPEN, row.e_t_open),
        ):
            value, _ = oracles.policy_value_by_enumeration(
                net, model, policy, source, sink, fc,
                overrides={"e1": state},
            )
            assert want == pytest.approx(value, abs=1e-9)

    def test_nonnegative_on_instances_that_cannot_fail(self):
        for seed in range(10):
            net, model, source, sink = oracles.random_instance(
                seed, certain_tree=True
            )
            for mode in ("others_stochastic", "others_open"):
                table = canadian_betweenness_all(
                    net, model, source, sink, mode=mode
                )
                for row in table.rows:
                    assert row.cbc >= -1e-9, (seed, mode, row)

    def test_cost_scaling_equivariance(self):
        net, model, source, sink = oracles.random_instance(3)
        fc = default_failure_cost(net)
        base = canadian_betweenness_all(
            net, model, source, sink, failure_cost=fc
        )
        lam = 2.5
        scaled_net = make_network(
            [(e.id, e.u, e.v, e.cost * lam) for e in net.edges]
        )
        scaled = canadian_betweenness_all(
            scaled_net, model, source, sink, failure_cost=lam * fc
        )
        for a, b in zip(base.rows, scaled.rows):
            assert b.cbc == pytest.approx(lam * a.cbc, abs=1e-9)

    @pytest.mark.parametrize("directed", [False, True])
    def test_cbc_is_the_slope_of_the_optimal_value(self, directed):
        # g(q), the optimal value with road e's probability set to q, is
        # the minimum of the policies' values, each linear in q; the
        # nominal policy's line touches g at p and has slope cbc(e), so
        # g's forward difference quotient is at most cbc and its backward
        # one at least cbc, kinks included; a road at 0 has one side
        for seed in range(20):
            net, model, source, sink = oracles.random_grid(
                seed, rows=3, cols=3, uncertain=4, directed=directed
            )
            fc = default_failure_cost(net)
            probs = model.probabilities

            def g(edge_id, q):
                m = BlockageModel({**probs, edge_id: q})
                return exact_expected_time(net, m, source, sink, fc).value

            table = canadian_betweenness_all(net, model, source, sink, failure_cost=fc)
            for row in table.rows:
                p = probs[row.edge_id]
                at_p = g(row.edge_id, p)
                for h in (1e-3, 0.2):
                    for side in (1, -1):
                        q = p + side * h
                        if not 0.0 <= q <= 1.0:
                            continue
                        at_q = g(row.edge_id, q)
                        # the quotient's rounding error, a few ulps of g over h
                        tol = 4 * math.ulp(max(abs(at_p), abs(at_q))) / h
                        slope = side * (at_q - at_p) / h
                        assert side * (slope - row.cbc) <= tol, (seed, row, h)


class TestMonteCarloCentrality:
    def test_matches_exact_within_three_standard_errors(self):
        # a second uncertain edge keeps the conditioned runs stochastic
        net = make_network(
            [("d", "S", "T", 10.0), ("a", "S", "M", 4.0), ("b", "M", "T", 8.0)]
        )
        model = make_model(d=0.3, a=0.2, b=0.0)
        exact = canadian_betweenness(net, model, "S", "T", "d")
        mc = canadian_betweenness(
            net, model, "S", "T", "d",
            method="monte_carlo", replications=4000, seed=0,
        )
        assert mc.se_blocked > 0.0
        assert abs(mc.e_t_blocked - exact.e_t_blocked) <= 3 * mc.se_blocked
        assert abs(mc.e_t_open - exact.e_t_open) <= 3 * mc.se_open

    def test_table_matches_exact_on_the_kite(self):
        # the benchmark's kite: three uncertain roads, so each conditioned
        # road leaves the others random; at 100k replicates every column
        # of every road must sit within 4 standard errors of the exact
        # table, the failure frequencies within 4 binomial ones
        net = make_network(
            [
                ("sa", "S", "A", 2.0),
                ("sb", "S", "B", 3.0),
                ("ab", "A", "B", 1.5),
                ("at", "A", "T", 6.0),
                ("bt", "B", "T", 4.0),
                ("st", "S", "T", 11.0),
            ]
        )
        model = make_model(sa=0.0, sb=0.0, ab=0.2, at=0.35, bt=0.45, st=0.0)
        reps = 100_000
        exact = canadian_betweenness_all(net, model, "S", "T")
        mc = canadian_betweenness_all(
            net, model, "S", "T", method="monte_carlo", replications=reps, seed=0
        )
        for want, got in zip(exact.rows, mc.rows):
            assert got.se_cbc > 0.0, got
            for column in ("e_t_blocked", "e_t_open", "cbc"):
                se = getattr(got, "se_" + column.removeprefix("e_t_"))
                error = getattr(got, column) - getattr(want, column)
                assert abs(error) <= 4 * se + 1e-9, (column, want, got)
            for column in ("p_fail_blocked", "p_fail_open"):
                p = getattr(want, column)
                se = math.sqrt(p * (1 - p) / reps)
                assert abs(getattr(got, column) - p) <= 4 * se + 1e-12, (column, got)

    def test_others_open_draws_no_uniform(self, monkeypatch):
        # every road but the conditioned one is at 0 in this mode and the
        # pair pins that one, so each replicate is the one certain world
        calls = []
        uniforms = rng.uniforms
        monkeypatch.setattr(
            rng, "uniforms", lambda *args: calls.append(args) or uniforms(*args)
        )
        net, model = tb_fixture(0.25)
        table = canadian_betweenness_all(
            net, model, "S", "T", mode="others_open", method="monte_carlo",
            replications=50, seed=3,
        )
        assert calls == [] and len(table.rows) == len(net.edges)
        canadian_betweenness_all(
            net, model, "S", "T", method="monte_carlo", replications=50, seed=3
        )
        # under others_stochastic the pairs of sa and st draw; the pair of
        # at, the one uncertain road, draws from a certain model
        assert len(calls) == 2 * 50

    def test_reruns_are_identical(self):
        net, model = tri_fixture()
        a = canadian_betweenness(
            net, model, "S", "T", "d",
            method="monte_carlo", replications=300, seed=11,
        )
        b = canadian_betweenness(
            net, model, "S", "T", "d",
            method="monte_carlo", replications=300, seed=11,
        )
        assert a == b

    def test_blocked_and_open_runs_use_common_random_numbers(self):
        # TRI plus a dead-end road x that no journey uses: replicate r of
        # the blocked and the open run sees the same state of the gamble d,
        # so the two walks coincide and x's centrality is exactly zero;
        # independent streams would leave sampling noise in it
        net = make_network(
            [
                ("d", "S", "T", 10.0),
                ("a", "S", "M", 4.0),
                ("b", "M", "T", 8.0),
                ("x", "S", "X", 1.0),
            ]
        )
        model = make_model(d=0.3, a=0.0, b=0.0, x=0.5)
        for seed in (0, 7, 11):
            row = canadian_betweenness(
                net, model, "S", "T", "x",
                method="monte_carlo", replications=500, seed=seed,
            )
            assert row.e_t_blocked == row.e_t_open
            assert row.cbc == 0.0

    def test_conditional_failure_handling_drops_failed_walks(self):
        net, model = tri_fixture()
        row = canadian_betweenness(
            net, model, "S", "T", "a",
            method="monte_carlo", replications=2000, seed=1,
            failure_cost=100.0, failure_handling="conditional",
        )
        # surviving blocked-detour walks all ride the open direct road
        assert row.e_t_blocked == pytest.approx(10.0, abs=1e-12)
        assert abs(row.p_fail_blocked - 0.3) < 4 * math.sqrt(0.3 * 0.7 / 2000)
        assert 10.0 < row.e_t_open < 12.0

    def test_conditional_mean_is_nan_when_every_walk_fails(self):
        net = make_network([("st", "S", "T", 5.0)])
        row = canadian_betweenness(
            net, make_model(st=0.5), "S", "T", "st",
            method="monte_carlo", replications=50, seed=0,
            failure_handling="conditional",
        )
        assert math.isnan(row.e_t_blocked)
        assert row.p_fail_blocked == 1.0

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("directed", [False, True])
    def test_pair_equals_two_pinned_runs(self, directed, mode):
        # the pair draws each replicate's world once for both its runs;
        # they must be the two separate simulate_policy runs with the road
        # pinned blocked and pinned open, and each row what they give
        # under either failure handling
        seen = set()
        for seed in range(5):
            net, model, source, sink = oracles.random_grid(
                seed, rows=3, cols=3, uncertain=4, directed=directed
            )
            fc = default_failure_cost(net)
            for i, edge in enumerate(net.edges):
                reps = 1 if i % 4 == 0 else 12
                cond = _conditioned_model(net, model, edge.id, mode)
                policy = _CountingPolicy(OptimalPolicy(net, cond, sink, fc))
                run_seed = rng.derive_seed(seed, edge.id)
                runs = [
                    simulate_policy(
                        net, pinned(cond, {edge.id: state}), policy, source, sink,
                        reps, run_seed, fc,
                    )
                    for state in (EdgeState.BLOCKED, EdgeState.OPEN)
                ]
                pair = simulate_blocked_and_open(
                    net, cond, policy, source, sink, edge.id, reps, run_seed, fc
                )
                for got, want in zip(pair, runs):
                    assert np.array_equal(got.times, want.times)
                    assert np.array_equal(got.failed, want.failed)
                    assert (got.failure_cost, got.seed, got.policy_kind) == (
                        want.failure_cost, want.seed, want.policy_kind
                    )
                for handling in FAILURE_HANDLING:
                    row = canadian_betweenness(
                        net, model, source, sink, edge.id, mode=mode,
                        method="monte_carlo", replications=reps, seed=seed,
                        failure_cost=fc, failure_handling=handling,
                    )
                    if handling == "penalty":
                        want = [(d.mean, d.stderr) for d in runs]
                        diff = runs[0].times - runs[1].times
                        se_cbc = 0.0
                        if reps > 1:
                            se_cbc = float(np.std(diff, ddof=1) / math.sqrt(reps))
                        assert row.se_cbc == se_cbc
                    else:
                        want = [_conditional_stats(d) for d in runs]
                        assert row.se_cbc is None
                    got = [
                        (row.e_t_blocked, row.se_blocked),
                        (row.e_t_open, row.se_open),
                    ]
                    # equal, NaN included
                    np.testing.assert_equal(got, want)
                    assert (row.p_fail_blocked, row.p_fail_open) == tuple(
                        d.failure_frequency for d in runs
                    )
                ends = {edge.u, edge.v}
                if source in ends:
                    seen.add("road at the source")
                elif not ends & (policy.nodes | {sink}):
                    seen.add("road no walk reaches")
                if reps == 1:
                    seen.add("one replicate")
        assert seen == {"road at the source", "road no walk reaches", "one replicate"}

    def test_pair_walks_once_while_the_road_stays_unseen(self, monkeypatch):
        # the direct road d never fails, so no walk reaches M and its road
        # x: each world is one walk of one step, shared by both runs, and
        # the uncertain roads a and b other than x give four worlds
        net = make_network(
            [
                ("d", "S", "T", 10.0),
                ("a", "S", "M", 4.0),
                ("b", "M", "T", 8.0),
                ("x", "M", "X", 1.0),
            ]
        )
        model = make_model(d=0.0, a=0.3, b=0.3, x=0.5)
        walks = []
        walk = traveler._walk

        def counting(*args):
            walks.append(args)
            return walk(*args)

        monkeypatch.setattr(traveler, "_walk", counting)
        policy = _CountingPolicy(OptimalPolicy(net, model, "T", 20.0))
        blocked, opened = simulate_blocked_and_open(
            net, model, policy, "S", "T", "x", 50, 3, 20.0
        )
        assert len(walks) == 4 and policy.nodes == {"S"}
        assert np.all(blocked.times == 10.0) and np.all(opened.times == 10.0)


class TestOptionValidation:
    def test_conditional_requires_monte_carlo(self):
        net, model = tri_fixture()
        with pytest.raises(IncompatibleOptions):
            canadian_betweenness(
                net, model, "S", "T", "d", failure_handling="conditional"
            )

    def test_unknown_options_rejected(self):
        net, model = tri_fixture()
        with pytest.raises(ValidationError, match="unknown mode"):
            canadian_betweenness(net, model, "S", "T", "d", mode="bogus")
        with pytest.raises(ValidationError, match="unknown method"):
            canadian_betweenness(net, model, "S", "T", "d", method="bogus")
        with pytest.raises(ValidationError, match="failure handling"):
            canadian_betweenness(
                net, model, "S", "T", "d", failure_handling="bogus"
            )

    def test_unknown_edge_and_bad_endpoints_rejected(self):
        net, model = tri_fixture()
        with pytest.raises(UnknownEdge):
            canadian_betweenness(net, model, "S", "T", "ghost")
        with pytest.raises(UnknownEdge):
            simulate_blocked_and_open(
                net, model, ReplanGreedyPolicy(net, "T"), "S", "T", "ghost", 5, 0
            )
        with pytest.raises(ValidationError, match="must differ"):
            canadian_betweenness(net, model, "S", "S", "d")


class TestWholeTable:
    def test_rows_cover_every_edge_in_id_order(self):
        net, model = tri_fixture()
        table = canadian_betweenness_all(net, model, "S", "T")
        assert [row.edge_id for row in table.rows] == ["a", "b", "d"]
        assert all(isinstance(row, CbcResult) for row in table.rows)

    def test_table_rows_match_single_edge_queries(self):
        # the whole-table call reuses one nominal policy across edges;
        # that optimization must not change any number
        net, model = tri_fixture()
        for mode in MODES:
            for method in ("exact", "monte_carlo"):
                options = dict(mode=mode, method=method, replications=300, seed=4)
                table = canadian_betweenness_all(net, model, "S", "T", **options)
                for row in table.rows:
                    single = canadian_betweenness(
                        net, model, "S", "T", row.edge_id, **options
                    )
                    assert single == row, (mode, method)


PATH_GRAPH = make_network([("ab", "A", "B", 1.0), ("bc", "B", "C", 1.0)])
FOUR_CYCLE = make_network(
    [
        ("ab", "A", "B", 1.0),
        ("bc", "B", "C", 1.0),
        ("cd", "C", "D", 1.0),
        ("da", "D", "A", 1.0),
    ]
)


class TestGeodesicBaseline:
    def test_path_graph_scores(self):
        assert geodesic_scores(PATH_GRAPH) == {"ab": 2.0, "bc": 2.0}

    def test_four_cycle_scores(self):
        # each edge serves its own endpoint pair once and carries half
        # of each diagonal pair's two tied shortest paths: 1 + 0.5 + 0.5
        scores = geodesic_scores(FOUR_CYCLE)
        assert scores == {"ab": 2.0, "bc": 2.0, "cd": 2.0, "da": 2.0}

    def test_single_edge(self):
        net = make_network([("e", "A", "B", 1.0)])
        assert geodesic_scores(net) == {"e": 1.0}

    def test_parallel_edges_split_their_pair(self):
        net = make_network([("e1", "A", "B", 1.0), ("e2", "A", "B", 1.0)])
        assert geodesic_scores(net) == {"e1": 0.5, "e2": 0.5}

    def test_three_way_tie_splits_into_thirds(self):
        net = make_network(
            [("e1", "A", "B", 1.0), ("e2", "A", "B", 1.0), ("e3", "A", "B", 1.0)]
        )
        scores = geodesic_scores(net)
        assert scores["e1"] == scores["e2"] == scores["e3"]
        assert scores["e1"] == pytest.approx(1 / 3, abs=1e-15)

    def test_tri_fixture_scores(self):
        net, _ = tri_fixture()
        assert geodesic_scores(net) == {"a": 1.0, "b": 1.0, "d": 1.0}

    def test_directed_network_counts_ordered_pairs_without_halving(self):
        net = make_network(
            [("ab", "A", "B", 1.0), ("bc", "B", "C", 1.0), ("ac", "A", "C", 3.0)],
            directed=True,
        )
        assert geodesic_scores(net) == {"ab": 2.0, "bc": 2.0, "ac": 0.0}

    def test_disconnected_pairs_contribute_nothing(self):
        net = make_network(
            [("e", "A", "B", 1.0)], extra_nodes=("Z",)
        )
        assert geodesic_scores(net) == {"e": 1.0}

    def test_matches_path_enumeration_exactly_on_random_networks(self):
        for seed in range(20):
            net, _, _, _ = oracles.random_instance(seed)
            assert geodesic_scores(net) == oracles.geodesic_by_enumeration(net)

    def test_cube_many_way_ties_agree_to_float_rounding(self):
        # opposite corners of the 3-cube tie across six shortest paths;
        # 1/6 is not a binary fraction, so any two correct float
        # implementations can disagree in the last bit depending on
        # summation order (the enumeration oracle itself does). Exact
        # equality is asserted only where the splits are exact (unique
        # paths and power-of-two ties, as in the tests above).
        specs = []
        verts = [f"{a}{b}{c}" for a in "01" for b in "01" for c in "01"]
        for u in verts:
            for j in range(3):
                flipped = u[:j] + ("1" if u[j] == "0" else "0") + u[j + 1:]
                if u < flipped:
                    specs.append((f"c{u}{flipped}", u, flipped, 1.0))
        net = make_network(specs)
        got = geodesic_scores(net)
        want = oracles.geodesic_by_enumeration(net)
        for eid in want:
            assert got[eid] == pytest.approx(want[eid], rel=1e-12)


class TestCsvRendering:
    def test_exact_table_golden(self):
        net, model = tri_fixture()
        table = canadian_betweenness_all(net, model, "S", "T", mode="others_open")
        expected = (
            "edge_id,mode,method,e_t_blocked,e_t_open,cbc,"
            "p_fail_blocked,p_fail_open,se_blocked,se_open,se_cbc\n"
            "a,others_open,exact,10,10,0,0,0,,,\n"
            "b,others_open,exact,10,10,0,0,0,,,\n"
            "d,others_open,exact,12,10,2,0,0,,,\n"
        )
        assert write_centrality_csv(table) == expected

    def test_geodesic_column_appended(self):
        net, model = tri_fixture()
        table = canadian_betweenness_all(net, model, "S", "T", mode="others_open")
        text = write_centrality_csv(table, geodesic=geodesic_scores(net))
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER + ",geodesic"
        assert lines[1].endswith(",1")

    def test_monte_carlo_rows_fill_the_error_columns(self):
        net, model = tri_fixture()
        table = canadian_betweenness_all(
            net, model, "S", "T", method="monte_carlo", replications=50, seed=0
        )
        for line in write_centrality_csv(table).splitlines()[1:]:
            fields = line.split(",")
            assert fields[8] != "" and fields[9] != "" and fields[10] != ""
        # conditional means average different replicates: no paired error
        table = canadian_betweenness_all(
            net, model, "S", "T", method="monte_carlo", replications=50, seed=0,
            failure_handling="conditional",
        )
        for line in write_centrality_csv(table).splitlines()[1:]:
            fields = line.split(",")
            assert fields[8] != "" and fields[9] != "" and fields[10] == ""

    def test_missing_geodesic_score_rejected(self):
        net, model = tri_fixture()
        table = canadian_betweenness_all(net, model, "S", "T")
        with pytest.raises(UnknownEdge):
            write_centrality_csv(table, geodesic={"a": 1.0})
