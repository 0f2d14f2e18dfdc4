"""Self-checks of the benchmark. Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import ctproute.cli as cli  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def files(workload: str, seed: int, where: Path) -> dict[str, bytes]:
    where.mkdir()
    workloads.build(workload, seed, where)
    return {p.name: p.read_bytes() for p in sorted(where.iterdir())}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_inputs_are_a_function_of_the_seed(workload, tmp_path):
    first = files(workload, 7, tmp_path / "a")
    assert first == files(workload, 7, tmp_path / "b")
    other = files(workload, 8, tmp_path / "c")
    assert first.keys() == other.keys()
    assert all(first[name] != other[name] for name in first)


def kite_ops(tmp_path: Path, refs: dict) -> dict[str, workloads.Op]:
    b = workloads.Builder(tmp_path, "fixture-mc", 3, refs)
    b.route_exact("kite")
    b.centrality("kite", "exact", "others_stochastic")
    b.centrality("kite", "mc", "others_stochastic", 400)
    return {op.kind: op for op in b.ops}


def test_checks_fail_when_a_reference_is_perturbed(tmp_path):
    refs = json.loads(workloads.REFERENCES.read_text())
    for op in kite_ops(tmp_path, refs).values():
        assert run.run_op(cli, op)[1] == []
        assert run.run_op(cli, op, run.run_op(cli, op)[2])[1] == []
        assert run.run_op(cli, op, "0" * 64)[1]

    kite = refs["instances"]["kite"]
    kite["route"]["value"] *= 1 + 1e-8
    kite["centrality"]["others_stochastic"]["ab"]["e_t_open"] *= 1 + 1e-8
    moments = kite["centrality_moments"]["others_stochastic"]["at"]["blocked"]
    moments["mean"] += 5 * moments["sd"] / 400**0.5
    for kind, op in kite_ops(tmp_path, refs).items():
        assert run.run_op(cli, op)[1], kind


def test_a_failing_exit_counts_as_failed(tmp_path):
    refs = json.loads(workloads.REFERENCES.read_text())
    op = copy.copy(kite_ops(tmp_path, refs)["route_exact"])
    op.argv = op.argv + ["--method", "nonsense"]
    assert run.run_op(cli, op)[1]


def test_self_time_subtracts_children():
    # root [0, 10) with children [1, 3) and [4, 8); the second has a child [5, 6)
    spans = {
        "name_id": np.array([0, 1, 1, 2], dtype=np.int32),
        "parent": np.array([-1, 0, 0, 2], dtype=np.int32),
        "start": np.array([0.0, 1.0, 4.0, 5.0]),
        "end": np.array([10.0, 3.0, 8.0, 6.0]),
    }
    out = tracer.summarize(spans, ["cli.main", "traveler.decide", "network.shortest_path"])
    assert out["cli.main"]["self_s"] == pytest.approx(4.0)
    assert out["traveler.decide"] == {"calls": 2, "s": 6.0, "self_s": 5.0, "miss_share": 0.5}
    assert out["traveler.planner"]["states_expanded"] == 0


def test_tracing_restores_the_program():
    before = {name: dict(vars(mod)) for name, mod in sys.modules.items() if name.startswith("ctproute")}
    t = tracer.Tracer()
    t.install()
    assert cli.fmt is not before["ctproute.cli"]["fmt"]
    t.uninstall()
    after = {name: dict(vars(mod)) for name, mod in sys.modules.items() if name.startswith("ctproute")}
    assert after == before


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_reports_every_layer(workload):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in bench["per_layer"]}
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(workload, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "2", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["attempted"] >= len(workloads.build(workload, 2, tmp_path))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in bench["end_to_end"]
    }
