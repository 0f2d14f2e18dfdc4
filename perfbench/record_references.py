"""Record the reference values the benchmark checks outputs against.

Run from the repository root, on the commit whose answers are trusted:

    python3 perfbench/record_references.py

It writes ``perfbench/references.json``. Exact route and centrality values
come from the library. Monte Carlo checks need the mean and the standard
deviation of one replicate's travel time; where the uncertain roads are
few, both come from enumerating every world, so a check is exact up to
sampling error in the run itself. The 6x6 grid has too many worlds, so
its references are long Monte Carlo runs on their own seed.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import inputs  # noqa: E402
from ctproute.blockage import BlockageModel, EdgeState, Realization  # noqa: E402
from ctproute.centrality import MODES, canadian_betweenness_all  # noqa: E402
from ctproute.network import parse_graph_document  # noqa: E402
from ctproute.traveler import (  # noqa: E402
    OptimalPolicy,
    default_failure_cost,
    exact_expected_time,
    make_policy,
    simulate_policy,
    walk_policy,
)

EXACT = ("tri", "tb0.25", "kite", "g3x3u6", "g3x3u8", "g3x4u10")
# (instance, policy) pairs whose one-replicate distribution is enumerated
ENUMERATED = (
    ("tri", "optimal"),
    ("tri", "replan"),
    ("tri", "route"),
    ("tb0.25", "optimal"),
    ("tb0.25", "replan"),
    ("tb0.25", "route"),
    ("g3x3u6", "optimal"),
    ("g3x3u6", "replan"),
    ("g3x3u6", "route"),
    ("g3x4u10", "optimal"),
)
CENTRALITY_MC = ("kite", "g3x3u6")
SAMPLED = (("g6x6u30", "replan"), ("g6x6u30", "route"))
SAMPLED_REPS = 40000
SAMPLED_SEED = 20260101


def load(name: str):
    inst = inputs.instance(name)
    net, probs = parse_graph_document(inst.text())
    return inst, net, BlockageModel(probabilities=probs)


def policy_for(kind: str, inst, net, model):
    route = inputs.committed_route(inst.name) if kind == "route" else None
    return make_policy(kind, net, model, inst.sink, route=route)


def enumerate_moments(net, model, policy, source, sink, overrides=None):
    """Exact mean and standard deviation of one replicate's travel time."""
    overrides = overrides or {}
    fixed = {}
    free = []
    for e, p in model.probabilities.items():
        if e in overrides:
            fixed[e] = overrides[e]
        elif p == 0.0:
            fixed[e] = EdgeState.OPEN
        elif p == 1.0:
            fixed[e] = EdgeState.BLOCKED
        else:
            free.append(e)
    fc = default_failure_cost(net)
    outcomes = []
    for combo in itertools.product((EdgeState.OPEN, EdgeState.BLOCKED), repeat=len(free)):
        weight = 1.0
        for e, s in zip(free, combo):
            p = model.probabilities[e]
            weight *= p if s is EdgeState.BLOCKED else 1.0 - p
        world = Realization(states={**fixed, **dict(zip(free, combo))})
        outcomes.append((weight, walk_policy(net, world, policy, source, sink, fc).travel_time))
    mean = math.fsum(w * t for w, t in outcomes)
    var = math.fsum(w * (t - mean) ** 2 for w, t in outcomes)
    return {"mean": mean, "sd": math.sqrt(max(var, 0.0))}


def centrality_moments(net, model, source, sink, mode):
    fc = default_failure_cost(net)
    rows = {}
    nominal = OptimalPolicy(net, model, sink, fc)
    for e in sorted(net.edge_by_id):
        if mode == "others_open":
            cond = BlockageModel(
                probabilities={x.id: model.probability(x.id) if x.id == e else 0.0 for x in net.edges}
            )
            policy = OptimalPolicy(net, cond, sink, fc)
        else:
            cond, policy = model, nominal
        rows[e] = {
            label: enumerate_moments(net, cond, policy, source, sink, {e: state})
            for label, state in (("blocked", EdgeState.BLOCKED), ("open", EdgeState.OPEN))
        }
    return rows


def main() -> None:
    refs: dict = {"instances": {}}
    for name in sorted({n for n in EXACT} | {n for n, _ in ENUMERATED} | set(CENTRALITY_MC) | {n for n, _ in SAMPLED}):
        inst = inputs.instance(name)
        refs["instances"][name] = {"digest": inst.digest()}
    for name in EXACT:
        inst, net, model = load(name)
        entry = refs["instances"][name]
        result = exact_expected_time(net, model, inst.source, inst.sink)
        entry["route"] = {"value": result.value, "failure_probability": result.failure_probability}
        entry["centrality"] = {}
        for mode in MODES:
            table = canadian_betweenness_all(net, model, inst.source, inst.sink, mode=mode)
            entry["centrality"][mode] = {
                r.edge_id: {
                    "e_t_blocked": r.e_t_blocked,
                    "e_t_open": r.e_t_open,
                    "cbc": r.cbc,
                    "p_fail_blocked": r.p_fail_blocked,
                    "p_fail_open": r.p_fail_open,
                }
                for r in table.rows
            }
        print("exact", name, result.value, flush=True)
    for name, kind in ENUMERATED:
        inst, net, model = load(name)
        policy = policy_for(kind, inst, net, model)
        moments = enumerate_moments(net, model, policy, inst.source, inst.sink)
        refs["instances"][name].setdefault("simulate", {})[kind] = moments
        print("enumerated", name, kind, moments, flush=True)
    for name in CENTRALITY_MC:
        inst, net, model = load(name)
        refs["instances"][name]["centrality_moments"] = {
            mode: centrality_moments(net, model, inst.source, inst.sink, mode) for mode in MODES
        }
        print("centrality moments", name, flush=True)
    for name, kind in SAMPLED:
        inst, net, model = load(name)
        policy = policy_for(kind, inst, net, model)
        dist = simulate_policy(net, model, policy, inst.source, inst.sink, SAMPLED_REPS, SAMPLED_SEED)
        refs["instances"][name].setdefault("simulate", {})[kind] = {
            "mean": dist.mean,
            "sd": float(np.std(dist.times, ddof=1)),
            "reps": SAMPLED_REPS,
        }
        print("sampled", name, kind, dist.mean, flush=True)
    (HERE / "references.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
