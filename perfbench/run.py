"""ctproute benchmark: seeded workloads through the CLI, in one process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid-exact --seed 1 --seconds 40 --trace 0

The workload's inputs are generated from --seed and written under
``.perfbench/`` in the checkout; the program receives only those files.
Each pass runs the workload's operation list once through
``ctproute.cli.main`` with stdout captured, and checks every output.
Passes repeat for --seconds; the last one stops before an op that would
overrun.

Every timing is scaled to a reference speed of the machine. On a shared
2-CPU machine other tenants slow everything by up to 1.7x for minutes at
a time, which no amount of work in one run can average away. So a fixed
pure-Python kernel (Dijkstra on a 40x40 grid, the program's own kind of
work) is timed five times before and five times after each operation,
and every PROBE_EVERY_S during it from a timer signal (its time there is
taken out of the operation's), and the operation's seconds are
multiplied by KERNEL_REF_S over the kernel's mean time. KERNEL_REF_S is
the kernel's time on an uncontended machine, so on a quiet machine the
scaling is close to 1. Measured over 60 s of repeated exact routes on a
3x3 grid, scaling by the kernel before and after cut the spread of
6-sample medians from 0.21 to 0.044. Each metric is then the median over
passes; a short op repeats within a pass until it has taken SHORT_OP_S,
and counts the median of its repeats. Set-up is scaled the same way and
sampled once before each untraced pass.

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics. With --trace 1 whole untraced and traced passes
alternate, the line carries the per-layer metrics (medians over traced
passes, unscaled), and the spans are written to
``.perfbench/<workload>/spans.npz``.
"""

from __future__ import annotations

import os

# one thread everywhere: numpy's BLAS reads these when it loads
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import heapq  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

OUT_DIR = ".perfbench"
SHORT_OP_S = 0.2
SHORT_OP_REPEATS = 10
KERNEL_REF_S = 0.0025
PROBE_EVERY_S = 0.25
KERNEL_SIDE = 40
KERNEL_GRAPH = {
    (r, c): [
        ((r + dr, c + dc), 1.0 + (7 * r + 13 * c + 5 * dr + 3 * dc) % 10 / 3.0)
        for dr, dc in ((0, 1), (1, 0), (0, -1), (-1, 0))
        if 0 <= r + dr < KERNEL_SIDE and 0 <= c + dc < KERNEL_SIDE
    ]
    for r in range(KERNEL_SIDE)
    for c in range(KERNEL_SIDE)
}


def kernel_seconds() -> float:
    """One timing of the calibration kernel: Dijkstra over KERNEL_GRAPH."""
    start = time.perf_counter()
    dist = {(0, 0): 0.0}
    heap = [(0.0, (0, 0))]
    done = set()
    while heap:
        d, node = heapq.heappop(heap)
        if node in done:
            continue
        done.add(node)
        for other, cost in KERNEL_GRAPH[node]:
            if d + cost < dist.get(other, float("inf")):
                dist[other] = d + cost
                heapq.heappush(heap, (d + cost, other))
    return time.perf_counter() - start


class SpeedProbe:
    """Kernel timings around a piece of work and, when `during` is set,
    inside it: a timer signal runs the kernel every PROBE_EVERY_S, and the
    time its handler takes is kept in `stolen` for the caller to subtract."""

    def __init__(self, during: bool):
        self.during = during
        self.kernel: list[float] = []
        self.stolen = 0.0

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.kernel.append(kernel_seconds())
        self.stolen += time.perf_counter() - start

    def __enter__(self) -> "SpeedProbe":
        self.kernel += [kernel_seconds() for _ in range(5)]
        if self.during:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.during:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.kernel += [kernel_seconds() for _ in range(5)]

    def scale(self) -> float:
        """Factor taking the probed seconds to reference-speed seconds."""
        return KERNEL_REF_S / statistics.mean(self.kernel)


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


IMPORT_TIMER = (
    "import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
    "import ctproute.cli; print(time.perf_counter() - t)"
)


def import_seconds(root: Path) -> float:
    """A user's import cost: the program imported into a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_TIMER], cwd=root, capture_output=True, text=True, check=True, timeout=120
    )
    return float(out.stdout)


def import_program(root: Path):
    """Import ctproute from the checkout's src/, and only from there."""
    src = root / "src"
    if not (src / "ctproute" / "__init__.py").is_file():
        raise SystemExit(f"error: no ctproute package under {src}; run from a checkout root")
    sys.path.insert(0, str(src))
    import ctproute.cli

    if Path(ctproute.__file__).resolve().parent != (src / "ctproute").resolve():
        raise SystemExit(f"error: imported ctproute from {ctproute.__file__}, not {src}")
    return ctproute.cli


def run_op(cli, op, known: str | None = None) -> tuple[float, list[str], str | None]:
    """Time one CLI invocation and check its output.

    Returns the seconds, the problems found and a digest of everything the
    op wrote. An output whose digest equals `known`, that of an earlier
    output which passed, passes without being parsed again; any other
    output then fails, since the same inputs and seed must give the same
    bytes.
    """
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op.argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        elapsed = time.perf_counter() - start
        return elapsed, ["raised " + traceback.format_exc(limit=-3)], None
    elapsed = time.perf_counter() - start
    if code != 0:
        return elapsed, [f"exit {code}: {err.getvalue().strip()}"], None
    digest = hashlib.sha256(out.getvalue().encode())
    for path in op.outputs:
        digest.update(Path(path).read_bytes())
    digest = digest.hexdigest()
    if known is not None:
        return elapsed, [] if digest == known else ["output differs from an earlier pass"], digest
    try:
        return elapsed, op.check(out.getvalue()), digest
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return elapsed, [f"unreadable output: {exc!r}"], digest


class Runner:
    def __init__(self, cli, ops):
        self.cli = cli
        self.ops = ops
        self.passed: dict[int, str] = {}  # op index -> digest of its checked output
        self.cost: dict[int, float] = {}  # op index -> its wall seconds last pass
        self.attempted = 0
        self.failed = 0

    def samples(self, i: int, measure: bool, probe: SpeedProbe) -> list[float]:
        """Run op i once, or when measuring until it has taken SHORT_OP_S:
        its seconds, less the time the probe took inside it."""
        op = self.ops[i]
        samples: list[float] = []
        while not samples or (measure and len(samples) < SHORT_OP_REPEATS and sum(samples) < SHORT_OP_S):
            stolen = probe.stolen
            elapsed, problems, digest = run_op(self.cli, op, self.passed.get(i))
            samples.append(elapsed - (probe.stolen - stolen))
            self.attempted += 1
            if problems:
                self.failed += 1
                print(f"FAILED {op.argv}: {problems[:3]}", file=sys.stderr)
                break
            self.passed.setdefault(i, digest)
        return samples

    def run_pass(self, deadline: float | None = None, measure: bool = True) -> dict:
        """One pass over the operation list: its wall time and each op's
        median seconds at reference speed. With a deadline the pass stops
        before an op that took longer last pass than the time left.

        Passes of a traced run do not measure: each op runs once, so that
        counts repeat exactly, and no probe runs inside traced spans."""
        times = []
        unscaled = 0.0
        start = time.perf_counter()
        for i in range(len(self.ops)):
            begun = time.perf_counter()
            if deadline is not None and begun + self.cost[i] > deadline:
                break
            with SpeedProbe(during=measure) as probe:
                seconds = self.samples(i, measure, probe)
            times.append(statistics.median(seconds) * probe.scale())
            unscaled += sum(seconds)
            self.cost[i] = time.perf_counter() - begun
        return {"wall": time.perf_counter() - start, "times": times, "unscaled": unscaled}


def end_to_end(ops, passes: list[dict]) -> dict[str, float]:
    """Seconds and replicates per kind of operation, each op's seconds the
    median over passes."""
    typical = [statistics.median(p["times"][i] for p in passes if i < len(p["times"])) for i in range(len(ops))]
    seconds: dict[str, float] = {}
    reps: dict[str, int] = {}
    for op, t in zip(ops, typical):
        seconds[op.kind] = seconds.get(op.kind, 0.0) + t
        reps[op.kind] = reps.get(op.kind, 0) + op.reps
    return {
        "wall_s": sum(typical),
        "route_exact_s": seconds["route_exact"],
        "centrality_exact_s": seconds["centrality_exact"],
        "route_mc_reps_per_s": reps["route_mc"] / seconds["route_mc"],
        "simulate_reps_per_s": reps["simulate"] / seconds["simulate"],
        "centrality_mc_reps_per_s": reps["centrality_mc"] / seconds["centrality_mc"],
        "elicit_s": seconds["elicit"],
    }


UNITS_E2E = {
    "setup_s": "s",
    "wall_s": "s",
    "route_exact_s": "s",
    "centrality_exact_s": "s",
    "route_mc_reps_per_s": "1/s",
    "simulate_reps_per_s": "1/s",
    "centrality_mc_reps_per_s": "1/s",
    "elicit_s": "s",
    "peak_rss_mib": "MiB",
}

# per-layer metric -> (span name, statistic)
PER_LAYER = {
    "rng.substream.calls": ("rng.substream", "calls"),
    "rng.substream.s": ("rng.substream", "s"),
    "blockage.sample_realization.calls": ("blockage.sample_realization", "calls"),
    "blockage.sample_realization.self_s": ("blockage.sample_realization", "self_s"),
    "traveler.walk_policy.calls": ("traveler.walk_policy", "calls"),
    "traveler.walk_policy.self_s": ("traveler.walk_policy", "self_s"),
    "traveler.decide.calls": ("traveler.decide", "calls"),
    "traveler.decide.self_s": ("traveler.decide", "self_s"),
    "traveler.decide.miss_share": ("traveler.decide", "miss_share"),
    "network.reachable_nodes.calls": ("network.reachable_nodes", "calls"),
    "network.reachable_nodes.s": ("network.reachable_nodes", "s"),
    "network.dijkstra_distances.calls": ("network.dijkstra_distances", "calls"),
    "network.dijkstra_distances.s": ("network.dijkstra_distances", "s"),
    "traveler.exact_expected_time.self_s": ("traveler.exact_expected_time", "self_s"),
    "traveler.planner.states_expanded": ("traveler.planner", "states_expanded"),
    "traveler.evaluate_policy_exact.calls": ("traveler.evaluate_policy_exact", "calls"),
    "traveler.evaluate_policy_exact.self_s": ("traveler.evaluate_policy_exact", "self_s"),
    "centrality.canadian_betweenness.calls": ("centrality.canadian_betweenness", "calls"),
    "centrality.canadian_betweenness.self_s": ("centrality.canadian_betweenness", "self_s"),
    "network.shortest_path.calls": ("network.shortest_path", "calls"),
    "network.shortest_path.s": ("network.shortest_path", "s"),
    "network.cheapest_edge.calls": ("network.cheapest_edge", "calls"),
    "network.cheapest_edge.s": ("network.cheapest_edge", "s"),
    "elicit.fit_prior.s": ("elicit.fit_prior", "s"),
    "elicit.mixture_moments.s": ("elicit.mixture_moments", "s"),
    "elicit.mix_experts.s": ("elicit.mix_experts", "s"),
    "elicit.sample_beta.s": ("elicit.sample_beta", "s"),
    "elicit.pushforward_probabilities.s": ("elicit.pushforward_probabilities", "s"),
    "network.parse_graph_document.s": ("network.parse_graph_document", "s"),
    "render.render_json.s": ("render.render_json", "s"),
    "render.fmt.calls": ("render.fmt", "calls"),
    "render.fmt.s": ("render.fmt", "s"),
    "cli.self_s": ("cli.main", "self_s"),
}
UNITS = {"calls": "count", "s": "s", "self_s": "s", "miss_share": "ratio", "states_expanded": "count"}


def per_layer(summaries: list[dict]) -> dict[str, tuple[float, str]]:
    """Median over traced passes of each per-layer metric."""
    out = {}
    for metric, (span, stat) in PER_LAYER.items():
        values = [s.get(span, {}).get(stat, 0) for s in summaries]
        out[metric] = (statistics.median(values), UNITS[stat])
    return out


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    cli = import_program(root)
    import tracer
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}")
    workdir = root / OUT_DIR / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    setups: list[float] = []

    def set_up() -> list:
        """Import the program afresh, then generate and write the inputs.

        It runs again before every untraced pass, so that its samples
        spread over the whole run."""

        with SpeedProbe(during=False) as probe:
            imported = import_seconds(root)
            start = time.perf_counter()
            workdir.mkdir(parents=True, exist_ok=True)
            ops = workloads.build(args.workload, args.seed, workdir)
            seconds = imported + time.perf_counter() - start
        setups.append(seconds * probe.scale())
        return ops

    ops = set_up()
    runner = Runner(cli, ops)

    trace = tracer.Tracer() if args.trace else None
    deadline = time.perf_counter() + args.seconds
    plain = [runner.run_pass(measure=trace is None)]
    traced: list[dict] = []
    summaries: list[dict] = []
    if trace is None:
        # whole passes, then as much of one more as the time allows
        while len(plain[-1]["times"]) == len(ops):
            set_up()
            plain.append(runner.run_pass(deadline))
    else:
        # traced and untraced whole passes alternate while the next fits
        while True:
            lo = len(trace)
            trace.install()
            try:
                traced.append(runner.run_pass(measure=False))
            finally:
                trace.uninstall()
            summaries.append(tracer.summarize(trace.arrays(lo), trace.names))
            if time.perf_counter() + plain[-1]["wall"] + traced[-1]["wall"] > deadline:
                break
            plain.append(runner.run_pass(measure=False))

    if trace is not None:
        trace.save(workdir / "spans.npz")
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in per_layer(summaries).items()}
        # both sorts of pass run each op once, so their op seconds compare
        ratio = statistics.median(p["unscaled"] for p in traced) / statistics.median(p["unscaled"] for p in plain)
        metrics["trace_overhead_ratio"] = {"value": ratio, "unit": "ratio"}
    else:
        values = {"setup_s": statistics.median(setups), **end_to_end(ops, plain)}
        values["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {name: {"value": v, "unit": UNITS_E2E[name]} for name, v in values.items()}
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
