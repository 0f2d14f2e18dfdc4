"""Acceptance gate: one test per shipping requirement, in order.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail
line per requirement. Each test asserts at its stated tolerance and
prints the measured slack for the record.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

import oracles
from ctproute.blockage import CovariateMatrix, sample_realization
from ctproute.centrality import (
    MODES,
    canadian_betweenness,
    canadian_betweenness_all,
    geodesic_scores,
)
from ctproute.cli import main
from ctproute.elicit import (
    LogitVector,
    fit_prior,
    pushforward_probabilities,
    sample_beta,
)
from ctproute.fixtures import tb_fixture, tri_fixture
from ctproute.network import Edge, RoadNetwork, shortest_path
from ctproute.traveler import (
    KnowledgeState,
    OptimalPolicy,
    default_failure_cost,
    evaluate_policy_exact,
    exact_expected_time,
    make_policy,
    optimal_action,
    simulate_policy,
    walk_policy,
)


def test_oracle_equivalence_on_random_instances():
    """Exact expected time agrees with a naive expectimax oracle, 1e-9."""
    start = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        net, model, source, sink = oracles.random_instance(seed)
        fc = default_failure_cost(net)
        got = exact_expected_time(net, model, source, sink, failure_cost=fc)
        want = oracles.oracle_expected_time(
            net, model.probabilities, source, sink, fc
        )
        worst = max(worst, abs(got.value - want))
        assert got.value == pytest.approx(want, abs=1e-9), seed
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"PASS oracle equivalence: 100 instances, worst |diff| = {worst:.3g}, "
        f"{elapsed:.2f}s (< 60s)"
    )


def test_fixture_values_exact():
    """Triangle and turn-back fixtures hit their closed-form values, 1e-12."""
    net, model = tri_fixture()
    tri = exact_expected_time(net, model, "S", "T")
    assert tri.value == pytest.approx(10.6, abs=1e-12)
    assert tri.failure_probability == 0.0

    for q, want in ((0.25, 3.0), (0.75, 4.0), (0.5, 4.0)):
        net, model = tb_fixture(q)
        got = exact_expected_time(net, model, "S", "T")
        assert got.value == pytest.approx(want, abs=1e-12), q
        assert got.failure_probability == 0.0

    # at q = 0.5 the gamble through A and the direct road both cost 4.0;
    # documented tie-break: equal-value targets go to the smaller node id
    net, model = tb_fixture(0.5)
    k = KnowledgeState("S", net.incident_mask["S"], 0)  # every road at S open
    assert optimal_action(net, model, k, "T") == "A"
    print(
        "PASS fixture exactness: TRI 10.6, TB(0.25) 3.0, TB(0.75) 4.0, "
        "TB(0.5) 4.0 with tie toward A"
    )


def test_monte_carlo_matches_exact_values():
    """100k-replicate means sit within 3 standard errors of exact, <10s."""
    lines = []
    for name, (net, model) in (
        ("triangle", tri_fixture()),
        ("turn-back", tb_fixture(0.25)),
    ):
        fc = default_failure_cost(net)
        exact = exact_expected_time(net, model, "S", "T", failure_cost=fc)
        policy = OptimalPolicy(net, model, "T", fc)
        start = time.perf_counter()
        dist = simulate_policy(
            net, model, policy, "S", "T",
            replications=100_000, seed=0, failure_cost=fc,
        )
        elapsed = time.perf_counter() - start
        diff = abs(dist.mean - exact.value)
        assert dist.stderr > 0.0
        assert diff <= 3.0 * dist.stderr, name
        assert elapsed < 10.0, name
        lines.append(
            f"{name}: |mean-exact| = {diff:.5f} <= 3se = {3 * dist.stderr:.5f}, "
            f"{elapsed:.2f}s"
        )
    print("PASS Monte Carlo consistency: " + "; ".join(lines))


def _scaled_costs(net: RoadNetwork, lam: float) -> RoadNetwork:
    return RoadNetwork(
        nodes=net.nodes,
        edges=tuple(
            Edge(id=e.id, u=e.u, v=e.v, cost=e.cost * lam) for e in net.edges
        ),
        directed=net.directed,
    )


def test_blockage_centrality_values_and_invariants():
    """Fixture centralities, nonnegativity on safe instances, λ-scaling."""
    net, model = tri_fixture()
    row = canadian_betweenness(net, model, "S", "T", "d", mode="others_open")
    assert row.e_t_blocked == pytest.approx(12.0, abs=1e-9)
    assert row.e_t_open == pytest.approx(10.0, abs=1e-9)
    assert row.cbc == pytest.approx(2.0, abs=1e-9)

    net, model = tb_fixture(0.25)
    for mode in MODES:
        row = canadian_betweenness(net, model, "S", "T", "at", mode=mode)
        assert row.cbc == pytest.approx(4.0, abs=1e-9), mode

    # nonnegativity across 50 instances whose spanning tree is certainly
    # open, so failure never enters and blocking can only ever hurt
    low = 0.0
    for seed in range(50):
        net, model, source, sink = oracles.random_instance(
            seed, certain_tree=True
        )
        for mode in MODES:
            table = canadian_betweenness_all(
                net, model, source, sink, mode=mode
            )
            for r in table.rows:
                low = min(low, r.cbc)
                assert r.cbc >= -1e-9, (seed, mode, r.edge_id)

    # multiplying every cost and the failure cost by λ multiplies every
    # centrality by λ
    worst = 0.0
    cases = [(tri_fixture()[0], tri_fixture()[1], "S", "T")]
    for seed in range(5):
        n, m, s, t = oracles.random_instance(seed)
        cases.append((n, m, s, t))
    for lam in (2.0, 3.0):
        for net, model, source, sink in cases:
            fc = default_failure_cost(net)
            base = canadian_betweenness_all(
                net, model, source, sink, failure_cost=fc
            )
            scaled = canadian_betweenness_all(
                _scaled_costs(net, lam), model, source, sink,
                failure_cost=fc * lam,
            )
            for b, s_ in zip(base.rows, scaled.rows):
                worst = max(worst, abs(s_.cbc - lam * b.cbc))
                assert s_.cbc == pytest.approx(lam * b.cbc, abs=1e-9)
    print(
        f"PASS centrality properties: fixture values exact, min cbc = {low:.3g} "
        f">= -1e-9 over 50 safe instances x {len(MODES)} modes, "
        f"scaling residual = {worst:.3g}"
    )


def test_policy_dominance_and_clairvoyant_bound():
    """Clairvoyant <= Optimal <= ReplanGreedy <= FixedRoute, each 1e-9."""
    worst = 0.0
    for seed in range(50):
        net, model, source, sink = oracles.random_instance(seed)
        fc = default_failure_cost(net)
        opt = exact_expected_time(
            net, model, source, sink, failure_cost=fc
        ).value
        clairvoyant = oracles.clairvoyant_value(net, model, source, sink, fc)
        greedy = evaluate_policy_exact(
            net, model,
            make_policy("replan", net, model, sink, failure_cost=fc),
            source, sink, failure_cost=fc,
        ).value
        # the tested fixed route: the all-open shortest node sequence
        route = shortest_path(net, source, sink)
        assert route is not None
        fixed = evaluate_policy_exact(
            net, model,
            make_policy(
                "route", net, model, sink, failure_cost=fc,
                route=list(route.nodes),
            ),
            source, sink, failure_cost=fc,
        ).value
        assert clairvoyant <= opt + 1e-9, seed
        assert opt <= greedy + 1e-9, seed
        assert greedy <= fixed + 1e-9, seed
        worst = max(worst, clairvoyant - opt, opt - greedy, greedy - fixed)
    print(
        f"PASS policy dominance: all 50 chains ordered, worst violation = "
        f"{worst:.3g} (tolerance 1e-9)"
    )


def test_elicitation_recovery_and_calibration():
    """Recovery to 1e-9, hand OLS to 1e-12, <=3% 3-sigma exceedances."""
    # noiseless recovery
    gen = np.random.default_rng(10)
    Z = CovariateMatrix(
        values=gen.normal(size=(12, 3)),
        columns=("x0", "x1", "x2"),
        edge_ids=tuple(f"e{i}" for i in range(12)),
    )
    beta0 = np.array([0.4, -1.2, 0.7])
    prior = fit_prior(Z, LogitVector(values=Z.values @ beta0))
    recovery = float(np.max(np.abs(prior.mean - beta0)))
    assert recovery <= 1e-9
    assert prior.sigma2 <= 1e-18

    # hand OLS: unit column, responses 0 and 2
    hand = fit_prior(
        CovariateMatrix(
            values=np.array([[1.0], [1.0]]),
            columns=("bias",),
            edge_ids=("e0", "e1"),
        ),
        LogitVector(values=[0.0, 2.0]),
    )
    assert hand.mean[0] == pytest.approx(1.0, abs=1e-12)
    assert hand.sigma2 == pytest.approx(2.0, abs=1e-12)
    assert hand.covariance[0, 0] == pytest.approx(1.0, abs=1e-12)

    # calibration: 500 noisy refits, per-coordinate 3-sigma exceedances
    gen = np.random.default_rng(2026)
    Zc = CovariateMatrix(
        values=gen.normal(size=(30, 3)),
        columns=("x0", "x1", "x2"),
        edge_ids=tuple(f"e{i}" for i in range(30)),
    )
    exceed = 0
    trials = 0
    for _ in range(500):
        noisy = fit_prior(
            Zc, LogitVector(values=Zc.values @ beta0 + gen.normal(size=30))
        )
        for j in range(3):
            trials += 1
            if abs(noisy.mean[j] - beta0[j]) > 3.0 * math.sqrt(
                noisy.covariance[j, j]
            ):
                exceed += 1
    rate = exceed / trials
    assert rate <= 0.03

    # zero-residual pushforward round trip
    sample = sample_beta(prior, 200, seed=3)
    roundtrip = 0.0
    for i, s in enumerate(pushforward_probabilities(Z, sample)):
        target = 1.0 / (1.0 + math.exp(-float(Z.values[i] @ beta0)))
        roundtrip = max(roundtrip, abs(s.mean - target), abs(s.q95 - target))
        assert s.mean == pytest.approx(target, abs=1e-9)
        assert s.q05 == pytest.approx(target, abs=1e-9)
        assert s.q95 == pytest.approx(target, abs=1e-9)
    print(
        f"PASS elicitation: recovery {recovery:.2g}, hand OLS exact, "
        f"exceedance rate {rate:.3%} <= 3%, round trip {roundtrip:.2g}"
    )


TRI_DOC = json.dumps(
    {
        "nodes": ["S", "M", "T"],
        "edges": [
            {"id": "d", "u": "S", "v": "T", "cost": 10, "p": 0.3},
            {"id": "a", "u": "S", "v": "M", "cost": 4, "p": 0},
            {"id": "b", "u": "M", "v": "T", "cost": 8, "p": 0},
        ],
    }
)


def test_cli_byte_determinism_and_replicate_isolation(tmp_path, capsys):
    """Identical reruns are byte identical; replicates are index-pure."""
    graph = tmp_path / "tri.json"
    graph.write_text(TRI_DOC, encoding="utf-8")
    cov = tmp_path / "z.csv"
    cov.write_text("edge_id,bias\nd,1\na,1\nb,1\n", encoding="utf-8")
    expert_point = tmp_path / "point.csv"
    expert_point.write_text(
        "edge_id,p\nd,0.3\na,0.1\nb,0.2\n", encoding="utf-8"
    )
    expert_draws = tmp_path / "draws.csv"
    expert_draws.write_text(
        "draw_id,edge_id,p\n"
        "d1,d,0.3\nd1,a,0.1\nd1,b,0.2\n"
        "d2,d,0.5\nd2,a,0.2\nd2,b,0.4\n",
        encoding="utf-8",
    )
    g = str(graph)
    cent_csv = tmp_path / "cbc.csv"
    sim_csv = tmp_path / "sim.csv"
    push_csv = tmp_path / "push.csv"
    invocations = [
        ["route", "--graph", g, "--source", "S", "--sink", "T"],
        [
            "route", "--graph", g, "--source", "S", "--sink", "T",
            "--method", "mc", "--reps", "400", "--seed", "5",
        ],
        [
            "centrality", "--graph", g, "--source", "S", "--sink", "T",
            "--baseline", "geodesic", "--output", str(cent_csv),
        ],
        [
            "centrality", "--graph", g, "--source", "S", "--sink", "T",
            "--method", "mc", "--reps", "300", "--seed", "9",
            "--output", str(cent_csv),
        ],
        [
            "simulate", "--graph", g, "--source", "S", "--sink", "T",
            "--reps", "300", "--seed", "2", "--output", str(sim_csv),
        ],
        [
            "elicit", "--covariates", str(cov), "--expert", str(expert_point),
            "--reps", "60", "--seed", "4", "--pushforward", str(push_csv),
        ],
        [
            "elicit", "--covariates", str(cov), "--expert", str(expert_draws),
            "--reps", "60", "--seed", "4", "--pushforward", str(push_csv),
        ],
    ]
    for argv in invocations:
        outputs = []
        for _ in range(2):
            rc = main(argv)
            captured = capsys.readouterr()
            assert rc == 0, (argv, captured.err)
            files = tuple(
                tmp_path.joinpath(name).read_bytes()
                for name in ("cbc.csv", "sim.csv", "push.csv")
                if tmp_path.joinpath(name).exists()
            )
            outputs.append((captured.out, files))
        assert outputs[0] == outputs[1], argv

    # replicate isolation: each replicate is a pure function of (seed,
    # index), so any split of the index range across workers or batch
    # sizes reproduces the same numbers
    net, model = tri_fixture()
    fc = default_failure_cost(net)
    policy = OptimalPolicy(net, model, "T", fc)
    full = simulate_policy(
        net, model, policy, "S", "T",
        replications=32, seed=123, failure_cost=fc,
    )
    prefix = simulate_policy(
        net, model, policy, "S", "T",
        replications=8, seed=123, failure_cost=fc,
    )
    assert tuple(prefix.times) == tuple(full.times[:8])
    for r in (0, 5, 31):
        world = sample_realization(model, 123, stream=r)
        outcome = walk_policy(
            net, world, OptimalPolicy(net, model, "T", fc), "S", "T", fc
        )
        assert outcome.travel_time == full.times[r]
    print(
        "PASS determinism: 7 CLI invocations byte-identical on rerun; "
        "replicates reproducible one index at a time"
    )


def test_geodesic_baseline_matches_enumeration():
    """Brandes scores equal all-pairs path enumeration on small graphs."""

    def build(specs):
        seen: list[str] = []
        for _, u, v, _ in specs:
            for x in (u, v):
                if x not in seen:
                    seen.append(x)
        return RoadNetwork(
            nodes=tuple(seen),
            edges=tuple(
                Edge(id=i, u=u, v=v, cost=c) for i, u, v, c in specs
            ),
        )

    path = build([("ab", "A", "B", 1.0), ("bc", "B", "C", 1.0)])
    assert geodesic_scores(path) == {"ab": 2.0, "bc": 2.0}
    assert geodesic_scores(path) == oracles.geodesic_by_enumeration(path)

    cycle = build(
        [
            ("e1", "n1", "n2", 1.0),
            ("e2", "n2", "n3", 1.0),
            ("e3", "n3", "n4", 1.0),
            ("e4", "n4", "n1", 1.0),
        ]
    )
    # each edge carries its two endpoints' pair plus half of both
    # diagonal pairs: 1 + 0.5 + 0.5 = 2.0
    assert geodesic_scores(cycle) == {e.id: 2.0 for e in cycle.edges}
    assert geodesic_scores(cycle) == oracles.geodesic_by_enumeration(cycle)

    checked = 0
    for seed in range(20):
        net, _, _, _ = oracles.random_instance(seed, max_nodes=8)
        got = geodesic_scores(net)
        want = oracles.geodesic_by_enumeration(net)
        assert set(got) == set(want)
        for eid in want:
            assert got[eid] == want[eid], (seed, eid)
            checked += 1
    print(
        f"PASS geodesic baseline: path and 4-cycle all 2.0, enumeration "
        f"equality on {checked} edges over 20 graphs up to 8 nodes"
    )
