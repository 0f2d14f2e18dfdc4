"""The benchmark's workloads: CLI operations with their output checks.

Every workload runs every kind of operation, so that every end-to-end
metric is measured on each of them, but each one puts nearly all its time
into different layers:

* grid-exact: exact ``route`` and ``centrality`` on the grid ladder. The
  belief-state planner and the exact policy evaluator do nearly all the
  work; a few small Monte Carlo cross-checks on the smallest grid keep
  random-stream and sampling work to a small share.
* fixture-mc: Monte Carlo on fixture-sized graphs, where the planner memo
  is warm after a few replicates and time goes to per-replicate stream
  construction, world sampling, the policy walk and CSV rendering.
* grid-mc: Monte Carlo through many distinct beliefs: optimal routing with
  a cold planner, replanning and committed-route simulation past the exact
  cap, Monte Carlo centrality on a grid, and a large elicitation.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import inputs

MODES = ("others_stochastic", "others_open")
REFERENCES = Path(__file__).resolve().parent / "references.json"
# closed-form answers on the README fixtures (the cbc is the triangle's road d)
ANALYTIC_ROUTE = {"tri": 10.6, "tb0.25": 3.0}
ANALYTIC_TRI_CBC_D = 2.0


@dataclass
class Op:
    kind: str
    argv: list[str]
    reps: int  # replicates counted toward the kind's throughput
    check: Callable[[str], list[str]]  # stdout -> problems
    outputs: tuple[str, ...] = ()  # files the op writes


class Builder:
    """Writes one workload's input files and builds its operations."""

    def __init__(self, workdir: Path, workload: str, seed: int, references: dict):
        self.dir = workdir
        self.label = f"{workload}:{seed}"
        self.refs = references["instances"]
        self._mc_seeds = random.Random(f"mc:{self.label}")
        self._graphs: dict[str, tuple[inputs.Relabelled, str]] = {}
        self.ops: list[Op] = []

    def _file(self, name: str, text: str) -> str:
        path = self.dir / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def graph(self, name: str) -> tuple[inputs.Relabelled, list[str]]:
        """The relabelled instance and its CLI graph flags."""
        if name not in self._graphs:
            base = inputs.instance(name)
            if base.digest() != self.refs[name]["digest"]:
                raise RuntimeError(f"generator output for {name} no longer matches references.json")
            rel = inputs.relabel(base, self.label)
            self._graphs[name] = (rel, self._file(f"{name}.json", rel.text))
        rel, path = self._graphs[name]
        return rel, ["--graph", path, "--source", rel.source, "--sink", rel.sink]

    def _seed(self) -> list[str]:
        return ["--seed", str(self._mc_seeds.randrange(2**31))]

    def route_exact(self, name: str) -> None:
        _, flags = self.graph(name)
        ref = self.refs[name]["route"]
        if name in ANALYTIC_ROUTE:
            ref = {"value": ANALYTIC_ROUTE[name], "failure_probability": 0.0}
        self.ops.append(Op("route_exact", ["route", *flags], 0, lambda out: checks.route_exact(out, ref)))

    def route_mc(self, name: str, reps: int) -> None:
        _, flags = self.graph(name)
        ref = self.refs[name]["simulate"]["optimal"]
        argv = ["route", *flags, "--method", "mc", "--reps", str(reps), *self._seed()]
        self.ops.append(Op("route_mc", argv, reps, lambda out: checks.route_mc(out, reps, ref)))

    def centrality(self, name: str, method: str, mode: str, reps: int = 0) -> None:
        rel, flags = self.graph(name)
        path = str(self.dir / f"{name}.{method}.{mode}.csv")
        argv = ["centrality", *flags, "--method", method, "--mode", mode, "--output", path]
        edges = rel.base_edge
        if method == "exact":
            ref = self.refs[name]["centrality"][mode]
            if name == "tri":
                ref = {**ref, "d": {**ref["d"], "cbc": ANALYTIC_TRI_CBC_D}}
            check = lambda out: checks.centrality_exact(_read(path), edges, mode, ref)  # noqa: E731
            self.ops.append(Op("centrality_exact", argv, 0, check, (path,)))
        else:
            ref = self.refs[name]["centrality_moments"][mode]
            argv += ["--reps", str(reps), *self._seed()]
            check = lambda out: checks.centrality_mc(_read(path), edges, mode, reps, ref)  # noqa: E731
            # every edge runs a blocked and an open conditioned simulation
            self.ops.append(Op("centrality_mc", argv, 2 * len(edges) * reps, check, (path,)))

    def simulate(self, name: str, policy: str, reps: int) -> None:
        rel, flags = self.graph(name)
        spec = policy
        if policy == "route":
            spec = "route:" + ",".join(rel.node_name[n] for n in inputs.committed_route(name))
        ref = self.refs[name]["simulate"][policy]
        path = str(self.dir / f"{name}.{policy}.csv")
        argv = ["simulate", *flags, "--policy", spec, "--reps", str(reps), "--output", path, *self._seed()]
        check = lambda out: checks.simulate(out, _read(path), reps, ref)  # noqa: E731
        self.ops.append(Op("simulate", argv, reps, check, (path,)))

    def elicit(self, shape: str, form: str, reps: int) -> None:
        cov, point, draws = inputs.elicit_inputs(shape, self.label)
        expert = point if form == "point" else draws
        cov_path = self._file(f"elicit.{shape}.cov.csv", cov)
        expert_path = self._file(f"elicit.{shape}.{form}.csv", expert)
        out_path = str(self.dir / f"elicit.{shape}.{form}.push.csv")
        ref = checks.reference_prior(cov, expert)
        argv = [
            "elicit", "--covariates", cov_path, "--expert", expert_path,
            "--pushforward", out_path, "--reps", str(reps), *self._seed(),
        ]
        check = lambda out: checks.elicit(out, _read(out_path), ref)  # noqa: E731
        self.ops.append(Op("elicit", argv, 0, check, (out_path,)))


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def grid_exact(b: Builder) -> None:
    # largest first: a run's last, partial pass then adds to the ops that
    # get the fewest samples
    for rung in ("g3x4u10", "g3x3u8", "g3x3u6"):
        b.route_exact(rung)
        for mode in MODES:
            b.centrality(rung, "exact", mode)
    b.route_mc("g3x3u6", 1000)
    b.simulate("g3x3u6", "replan", 1000)
    b.simulate("g3x3u6", "route", 1000)
    b.centrality("g3x3u6", "mc", "others_open", 200)
    b.elicit("small", "point", 2000)
    b.elicit("small", "draws", 500)


def fixture_mc(b: Builder) -> None:
    for name in ("tri", "tb0.25"):
        b.route_exact(name)
        b.route_mc(name, 4000)
        for policy in ("optimal", "replan", "route"):
            b.simulate(name, policy, 4000)
    b.route_exact("kite")
    b.centrality("tri", "exact", "others_open")
    for mode in MODES:
        b.centrality("kite", "exact", mode)
        b.centrality("kite", "mc", mode, 300)
    b.elicit("small", "point", 2000)
    b.elicit("small", "draws", 500)


def grid_mc(b: Builder) -> None:
    b.route_mc("g3x4u10", 600)
    b.simulate("g6x6u30", "replan", 1500)
    b.simulate("g6x6u30", "route", 1500)
    for mode in MODES:
        b.centrality("g3x3u6", "mc", mode, 150)
    b.elicit("large", "draws", 2000)
    b.elicit("small", "point", 2000)
    b.route_exact("g3x3u6")
    for mode in MODES:
        b.centrality("g3x3u6", "exact", mode)


WORKLOADS: dict[str, Callable[[Builder], None]] = {
    "grid-exact": grid_exact,
    "fixture-mc": fixture_mc,
    "grid-mc": grid_mc,
}


def build(workload: str, seed: int, workdir: Path) -> list[Op]:
    """Write the workload's inputs under workdir and return its operations."""
    references = json.loads(REFERENCES.read_text(encoding="utf-8"))
    b = Builder(workdir, workload, seed, references)
    WORKLOADS[workload](b)
    return b.ops
