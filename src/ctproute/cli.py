"""Command line front door.

Four subcommands: ``route`` (expected travel time from source to sink),
``centrality`` (per edge blockage centrality table), ``simulate`` (per
replicate Monte Carlo records), and ``elicit`` (expert probabilities to
a coefficient prior). Every subcommand echoes its fully resolved
configuration, defaults included, so a run can be reproduced from its
own output. All outputs are byte deterministic functions of the inputs,
flags, and seed; numbers are rendered with 12 significant digits.

Exit status: 0 success, 2 validation or parse failure (message on
stderr), 3 exact work refused at its belief budget or recursion limit.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

from . import centrality as centrality_mod
from . import elicit as elicit_mod
from .blockage import (
    BetaVector,
    BlockageModel,
    blockage_probabilities,
    read_covariates_csv,
    read_probabilities_csv,
)
from .errors import CtprouteError, ParseError, TooManyUncertainEdges, ValidationError
from .network import RoadNetwork, parse_graph_document
from .render import csv_text, fmt, render_json
from .traveler import (
    OptimalPolicy,
    checked_failure_cost,
    exact_expected_time,
    make_policy,
    simulate_policy,
)

DEFAULT_REPS = 10000
# advice, per subcommand that runs the exact planner, when it refuses:
# Monte Carlo of the optimal policy still plans at every decision, so
# only a policy that does not plan stays within the belief budget
CAP_HINTS = {
    "route": "use simulate --policy replan",
    "centrality": "no centrality method runs past the belief budget, since "
    "centrality always plans the optimal policy",
    "simulate": "use --policy replan",
}


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: byte {exc.start} is invalid") from None


def _write_text(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def _emit(text: str, output: Optional[str]) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        _write_text(output, text)


def _parse_beta(spec: str) -> BetaVector:
    try:
        values = [float(part) for part in spec.split(",")]
    except ValueError:
        raise ValidationError(
            f"--beta must be comma separated numbers, got {spec!r}"
        )
    return BetaVector(values=values)


def _load_model(args: argparse.Namespace) -> tuple[RoadNetwork, BlockageModel, str]:
    """Load the graph and resolve exactly one blockage probability source."""
    net, inline = parse_graph_document(_read_text(args.graph))
    sources = []
    if inline is not None:
        sources.append("inline p")
    if args.probabilities is not None:
        sources.append("--probabilities")
    if args.covariates is not None or args.beta is not None:
        if args.covariates is None or args.beta is None:
            raise ValidationError("--covariates and --beta must be given together")
        sources.append("--covariates/--beta")
    if len(sources) != 1:
        raise ValidationError(
            "need exactly one blockage probability source (inline p in the "
            "graph, --probabilities, or --covariates with --beta); got "
            + (", ".join(sources) if sources else "none")
        )
    label = sources[0]
    if label == "inline p":
        model = BlockageModel(probabilities=inline)
    elif label == "--probabilities":
        probs = read_probabilities_csv(_read_text(args.probabilities))
        model = BlockageModel(probabilities=probs)
    else:
        Z = read_covariates_csv(_read_text(args.covariates))
        model = blockage_probabilities(Z, _parse_beta(args.beta))
    model.validate_for(net)
    return net, model, label


def _graph_config(args: argparse.Namespace, net: RoadNetwork, source_label: str) -> dict:
    return {
        "subcommand": args.subcommand,
        "graph": args.graph,
        "probabilities_source": source_label,
        "source": args.source,
        "sink": args.sink,
        "seed": args.seed,
        "reps": args.reps,
        "failure_cost": checked_failure_cost(net, args.failure_cost),
        "output": args.output,
    }


def _run_route(args: argparse.Namespace) -> int:
    net, model, source_label = _load_model(args)
    config = _graph_config(args, net, source_label)
    config["method"] = args.method
    failure_cost = config["failure_cost"]
    if args.method == "exact":
        result = exact_expected_time(
            net, model, args.source, args.sink, failure_cost=failure_cost
        )
        report = {
            "value": result.value,
            "failure_probability": result.failure_probability,
            "method": "exact",
            "config": config,
        }
    else:
        policy = OptimalPolicy(net, model, args.sink, failure_cost)
        dist = simulate_policy(
            net,
            model,
            policy,
            args.source,
            args.sink,
            replications=args.reps,
            seed=args.seed,
            failure_cost=failure_cost,
        )
        report = {
            "value": dist.mean,
            "failure_probability": dist.failure_frequency,
            "method": "mc",
            "stderr": dist.stderr,
            "replications": dist.replications,
            "quantiles": {f"{q:g}": v for q, v in dist.quantiles().items()},
            "config": config,
        }
    _emit(render_json(report), args.output)
    return 0


def _run_centrality(args: argparse.Namespace) -> int:
    if args.output is None:
        raise ValidationError("centrality requires --output (CSV destination)")
    net, model, source_label = _load_model(args)
    config = _graph_config(args, net, source_label)
    method = "exact" if args.method == "exact" else "monte_carlo"
    table = centrality_mod.canadian_betweenness_all(
        net,
        model,
        args.source,
        args.sink,
        mode=args.mode,
        method=method,
        replications=args.reps,
        seed=args.seed,
        failure_cost=config["failure_cost"],
        failure_handling=args.failure_handling,
    )
    geodesic = None
    if args.baseline == "geodesic":
        geodesic = centrality_mod.geodesic_scores(net)
    _write_text(args.output, centrality_mod.write_centrality_csv(table, geodesic))
    config.update(
        {
            "method": args.method,
            "mode": args.mode,
            "failure_handling": args.failure_handling,
            "baseline": args.baseline,
        }
    )
    sys.stdout.write(render_json({"rows": len(table.rows), "config": config}))
    return 0


def _parse_policy(spec: str) -> tuple[str, Optional[list[str]]]:
    if spec in ("optimal", "replan"):
        return spec, None
    if spec.startswith("route:"):
        nodes = [part for part in spec[len("route:"):].split(",") if part]
        return "route", nodes
    raise ValidationError(
        f"--policy must be optimal, replan, or route:<n1,n2,...>, got {spec!r}"
    )


def _run_simulate(args: argparse.Namespace) -> int:
    if args.output is None:
        raise ValidationError("simulate requires --output (CSV destination)")
    net, model, source_label = _load_model(args)
    config = _graph_config(args, net, source_label)
    kind, route = _parse_policy(args.policy)
    policy = make_policy(
        kind, net, model, args.sink,
        failure_cost=config["failure_cost"], route=route,
    )
    dist = simulate_policy(
        net,
        model,
        policy,
        args.source,
        args.sink,
        replications=args.reps,
        seed=args.seed,
        failure_cost=config["failure_cost"],
    )
    rows = (
        [r, fmt(t), "true" if f else "false"]
        for r, (t, f) in enumerate(zip(dist.times.tolist(), dist.failed.tolist()))
    )
    _write_text(args.output, csv_text(["replicate", "travel_time", "failed"], rows))
    config["policy"] = args.policy
    sys.stdout.write(render_json({"summary": dist.summary(), "config": config}))
    return 0


def _expert_logits(
    Z, expert_text: str, eps: float
) -> tuple[list, tuple[str, ...], str]:
    """Logit vectors in covariate row order, clamped edges, and the form."""
    form = elicit_mod.expert_csv_form(expert_text)
    if form == "point":
        prob_maps = [read_probabilities_csv(expert_text)]
    else:
        prob_maps = list(elicit_mod.read_expert_draws_csv(expert_text).values())
    edge_ids = list(Z.edge_ids)
    vectors = []
    clamped: list[str] = []
    for probs in prob_maps:
        missing = [e for e in edge_ids if e not in probs]
        extra = sorted(set(probs) - set(edge_ids))
        if missing or extra:
            raise ValidationError(
                f"expert rows must match covariate rows exactly; "
                f"missing {missing}, extra {extra}"
            )
        P, idx = elicit_mod.logits_from_probabilities(
            [probs[e] for e in edge_ids], eps
        )
        vectors.append(P)
        for i in idx:
            if edge_ids[i] not in clamped:
                clamped.append(edge_ids[i])
    return vectors, tuple(clamped), form


def _run_elicit(args: argparse.Namespace) -> int:
    Z = read_covariates_csv(_read_text(args.covariates))
    expert_text = _read_text(args.expert)
    vectors, clamped, form = _expert_logits(Z, expert_text, args.eps)
    if form == "point":
        prior = elicit_mod.fit_prior(Z, vectors[0])
    else:
        prior = elicit_mod.mixture_moments(Z, vectors)
    config = {
        "subcommand": "elicit",
        "covariates": args.covariates,
        "expert": args.expert,
        "expert_form": form,
        "eps": args.eps,
        "seed": args.seed,
        "reps": args.reps,
        "pushforward": args.pushforward,
        "output": args.output,
    }
    report = elicit_mod.prior_to_jsonable(prior, clamped)
    report["config"] = config
    if args.pushforward is not None:
        if form == "point":
            sample = elicit_mod.sample_beta(prior, args.reps, args.seed)
        else:
            sample = elicit_mod.mix_experts(Z, vectors, args.reps, args.seed)
        summaries = elicit_mod.pushforward_probabilities(Z, sample)
        rows = (
            [s.edge_id, fmt(s.mean), fmt(s.q05), fmt(s.median), fmt(s.q95)]
            for s in summaries
        )
        header = ["edge_id", "mean", "q05", "median", "q95"]
        _write_text(args.pushforward, csv_text(header, rows))
    _emit(render_json(report), args.output)
    return 0


def _add_graph_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", required=True, help="graph document (JSON)")
    p.add_argument(
        "--probabilities", help="blockage probabilities CSV (edge_id,p)"
    )
    p.add_argument(
        "--covariates", help="covariates CSV (edge_id,<name1>,...,<namek>)"
    )
    p.add_argument(
        "--beta",
        help="comma separated logistic coefficients, used with --covariates "
        "(write --beta=-1.5,... when the first one is negative)",
    )
    p.add_argument("--source", required=True, help="start node id")
    p.add_argument("--sink", required=True, help="destination node id")
    p.add_argument("--seed", type=int, default=0, help="master RNG seed")
    p.add_argument(
        "--reps", type=int, default=DEFAULT_REPS, help="Monte Carlo replicates"
    )
    p.add_argument(
        "--failure-cost",
        dest="failure_cost",
        type=float,
        default=None,
        help="cost charged when the sink is unreachable, finite and >= 0 "
        "(default: 2 x total edge cost)",
    )
    p.add_argument("--output", help="write the result here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctproute",
        description="Routing and road importance under probabilistic blockage.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    route_p = sub.add_parser(
        "route", help="expected source to sink travel time"
    )
    _add_graph_flags(route_p)
    route_p.add_argument(
        "--method", choices=("exact", "mc"), default="exact",
        help="exact belief state recursion or Monte Carlo",
    )

    cent_p = sub.add_parser(
        "centrality", help="per edge blockage centrality table (CSV)"
    )
    _add_graph_flags(cent_p)
    cent_p.add_argument(
        "--method", choices=("exact", "mc"), default="exact",
        help="exact policy evaluation or Monte Carlo",
    )
    cent_p.add_argument(
        "--mode", choices=centrality_mod.MODES, default="others_stochastic",
        help="whether non conditioned edges stay random or are forced open",
    )
    cent_p.add_argument(
        "--failure-handling",
        dest="failure_handling",
        choices=centrality_mod.FAILURE_HANDLING,
        default="penalty",
        help="penalty: failures cost failure_cost; conditional: drop them "
        "from the means (Monte Carlo only)",
    )
    cent_p.add_argument(
        "--baseline", choices=("geodesic",), default=None,
        help="append a geodesic betweenness column",
    )

    sim_p = sub.add_parser(
        "simulate", help="per replicate Monte Carlo journey records (CSV)"
    )
    _add_graph_flags(sim_p)
    sim_p.add_argument(
        "--policy", default="optimal",
        help="optimal | replan | route:<n1,n2,...>",
    )

    el_p = sub.add_parser(
        "elicit", help="expert probabilities to a coefficient prior (JSON)"
    )
    el_p.add_argument(
        "--covariates", required=True,
        help="covariates CSV (edge_id,<name1>,...,<namek>)",
    )
    el_p.add_argument(
        "--expert", required=True,
        help="expert CSV: edge_id,p or draw_id,edge_id,p",
    )
    el_p.add_argument(
        "--eps", type=float, default=elicit_mod.DEFAULT_EPS,
        help="clamp bound for probabilities of exactly 0 or 1",
    )
    el_p.add_argument("--seed", type=int, default=0, help="master RNG seed")
    el_p.add_argument(
        "--reps", type=int, default=DEFAULT_REPS,
        help="coefficient draws for --pushforward",
    )
    el_p.add_argument(
        "--pushforward",
        help="also write a per road probability summary CSV here",
    )
    el_p.add_argument("--output", help="write the prior JSON here instead of stdout")
    return parser


_HANDLERS = {
    "route": _run_route,
    "centrality": _run_centrality,
    "simulate": _run_simulate,
    "elicit": _run_elicit,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.subcommand](args)
    except TooManyUncertainEdges as exc:
        print(f"error: {exc} ({CAP_HINTS[args.subcommand]})", file=sys.stderr)
        return 3
    except CtprouteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
