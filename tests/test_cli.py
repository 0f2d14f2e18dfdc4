"""Command line behavior: flags, outputs, exit codes, determinism."""

from __future__ import annotations

import csv
import json
import math
import shutil
import subprocess
import sys

import pytest

from ctproute import traveler
from ctproute.blockage import BetaVector, blockage_probabilities, read_covariates_csv
from ctproute.cli import CAP_HINTS, build_parser, main
from ctproute.traveler import exact_expected_time

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

TRI_DOC_NO_P = json.dumps(
    {
        "nodes": ["S", "M", "T"],
        "edges": [
            {"id": "d", "u": "S", "v": "T", "cost": 10},
            {"id": "a", "u": "S", "v": "M", "cost": 4},
            {"id": "b", "u": "M", "v": "T", "cost": 8},
        ],
    }
)

ONE_ROAD_DOC = json.dumps(
    {
        "nodes": ["S", "T"],
        "edges": [{"id": "st", "u": "S", "v": "T", "cost": 10, "p": 0.3}],
    }
)

TRI_PROBS_CSV = "edge_id,p\nd,0.3\na,0\nb,0\n"


def tb_doc(q: float) -> str:
    return json.dumps(
        {
            "nodes": ["S", "A", "T"],
            "edges": [
                {"id": "sa", "u": "S", "v": "A", "cost": 1, "p": 0},
                {"id": "at", "u": "A", "v": "T", "cost": 1, "p": q},
                {"id": "st", "u": "S", "v": "T", "cost": 4, "p": 0},
            ],
        }
    )

WIDE_DOC = json.dumps(
    {
        "nodes": ["S", "T"],
        "edges": [
            {"id": f"e{i:02d}", "u": "S", "v": "T", "cost": 1.0 + i, "p": 0.5}
            for i in range(21)
        ],
    }
)

# S reaches 22 uncertain M-T roads only after a certain first hop, so the
# optimal policy meets the belief budget at its first decision, and exact
# centrality still has 21 free roads, 2 ** 21 outcomes, once it
# conditions one of them
DEEP_DOC = json.dumps(
    {
        "nodes": ["S", "M", "T"],
        "edges": [{"id": "sm", "u": "S", "v": "M", "cost": 1.0, "p": 0.0}]
        + [
            {"id": f"e{i:02d}", "u": "M", "v": "T", "cost": 1.0 + i, "p": 0.5}
            for i in range(22)
        ],
    }
)

# a 12-node ring, roads n_i-n_{i+1} of cost 1 + (i mod 3), with chords
# n_i-n_{i+5} of cost 2.5 for i = 0..10: 23 roads, all at p = 0.3
RING_DOC = json.dumps(
    {
        "nodes": [f"n{i}" for i in range(12)],
        "edges": [
            {"id": f"r{i}", "u": f"n{i}", "v": f"n{(i + 1) % 12}",
             "cost": 1.0 + i % 3, "p": 0.3}
            for i in range(12)
        ]
        + [
            {"id": f"c{i}", "u": f"n{i}", "v": f"n{(i + 5) % 12}",
             "cost": 2.5, "p": 0.3}
            for i in range(11)
        ],
    }
)


# a belief budget the refusal tests reach in milliseconds; the hints and
# exit codes do not depend on its size
SMALL_BUDGET = 2_000


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.fixture
def tri_graph(tmp_path):
    path = tmp_path / "tri.json"
    path.write_text(TRI_DOC, encoding="utf-8")
    return str(path)


class TestRoute:
    def test_exact_report_and_config_echo(self, capsys, tri_graph):
        rc, out, err = run(
            capsys,
            ["route", "--graph", tri_graph, "--source", "S", "--sink", "T"],
        )
        assert rc == 0 and err == ""
        report = json.loads(out)
        assert report["value"] == pytest.approx(10.6, abs=1e-12)
        assert report["failure_probability"] == 0.0
        assert report["method"] == "exact"
        config = report["config"]
        assert config["subcommand"] == "route"
        assert config["graph"] == tri_graph
        assert config["probabilities_source"] == "inline p"
        assert config["source"] == "S"
        assert config["sink"] == "T"
        assert config["seed"] == 0
        assert config["reps"] == 10000
        assert config["failure_cost"] == 44.0  # resolved default, echoed
        assert config["output"] is None
        assert config["method"] == "exact"

    def test_output_flag_writes_the_stdout_bytes(self, capsys, tri_graph, tmp_path):
        rc, out, _ = run(
            capsys,
            ["route", "--graph", tri_graph, "--source", "S", "--sink", "T"],
        )
        assert rc == 0
        dest = tmp_path / "route.json"
        rc, out2, _ = run(
            capsys,
            [
                "route", "--graph", tri_graph, "--source", "S", "--sink", "T",
                "--output", str(dest),
            ],
        )
        assert rc == 0 and out2 == ""
        written = dest.read_text(encoding="utf-8")
        # identical apart from the echoed output path
        assert json.loads(written)["value"] == json.loads(out)["value"]
        assert written.endswith("\n")

    def test_probabilities_csv_source(self, capsys, tmp_path):
        graph = tmp_path / "tri.json"
        graph.write_text(TRI_DOC_NO_P, encoding="utf-8")
        probs = tmp_path / "p.csv"
        probs.write_text(TRI_PROBS_CSV, encoding="utf-8")
        rc, out, _ = run(
            capsys,
            [
                "route", "--graph", str(graph), "--source", "S", "--sink", "T",
                "--probabilities", str(probs),
            ],
        )
        assert rc == 0
        report = json.loads(out)
        assert report["value"] == pytest.approx(10.6, abs=1e-12)
        assert report["config"]["probabilities_source"] == "--probabilities"

    def test_covariate_source_matches_library_computation(self, capsys, tmp_path):
        graph = tmp_path / "tri.json"
        graph.write_text(TRI_DOC_NO_P, encoding="utf-8")
        cov_text = "edge_id,bias,grade\nd,1,0.5\na,1,-2\nb,1,-3\n"
        cov = tmp_path / "z.csv"
        cov.write_text(cov_text, encoding="utf-8")
        rc, out, _ = run(
            capsys,
            [
                "route", "--graph", str(graph), "--source", "S", "--sink", "T",
                "--covariates", str(cov), "--beta=-1.0,2.0",
            ],
        )
        assert rc == 0
        report = json.loads(out)
        from ctproute.network import parse_graph_document

        net, _ = parse_graph_document(TRI_DOC_NO_P)
        model = blockage_probabilities(
            read_covariates_csv(cov_text), BetaVector(values=[-1.0, 2.0])
        )
        expected = exact_expected_time(net, model, "S", "T")
        assert report["value"] == pytest.approx(expected.value, abs=1e-9)
        assert report["config"]["probabilities_source"] == "--covariates/--beta"

    def test_two_sources_rejected(self, capsys, tri_graph, tmp_path):
        probs = tmp_path / "p.csv"
        probs.write_text(TRI_PROBS_CSV, encoding="utf-8")
        rc, _, err = run(
            capsys,
            [
                "route", "--graph", tri_graph, "--source", "S", "--sink", "T",
                "--probabilities", str(probs),
            ],
        )
        assert rc == 2
        assert "exactly one blockage probability source" in err
        assert "inline p" in err and "--probabilities" in err

    def test_covariates_without_beta_rejected(self, capsys, tmp_path):
        graph = tmp_path / "tri.json"
        graph.write_text(TRI_DOC_NO_P, encoding="utf-8")
        cov = tmp_path / "z.csv"
        cov.write_text("edge_id,bias\nd,1\na,1\nb,1\n", encoding="utf-8")
        rc, _, err = run(
            capsys,
            [
                "route", "--graph", str(graph), "--source", "S", "--sink", "T",
                "--covariates", str(cov),
            ],
        )
        assert rc == 2
        assert "must be given together" in err

    def test_no_source_rejected(self, capsys, tmp_path):
        graph = tmp_path / "tri.json"
        graph.write_text(TRI_DOC_NO_P, encoding="utf-8")
        rc, _, err = run(
            capsys,
            ["route", "--graph", str(graph), "--source", "S", "--sink", "T"],
        )
        assert rc == 2
        assert "got none" in err

    def test_mc_reruns_are_byte_identical(self, capsys, tri_graph):
        argv = [
            "route", "--graph", tri_graph, "--source", "S", "--sink", "T",
            "--method", "mc", "--reps", "500", "--seed", "7",
        ]
        rc1, out1, _ = run(capsys, argv)
        rc2, out2, _ = run(capsys, argv)
        assert rc1 == rc2 == 0
        assert out1 == out2
        report = json.loads(out1)
        assert report["method"] == "mc"
        assert report["replications"] == 500
        assert list(report["quantiles"]) == ["0.05", "0.25", "0.5", "0.75", "0.95"]
        assert report["value"] == pytest.approx(10.6, abs=0.5)

    def test_exact_refuses_many_uncertain_edges_with_hint(self, capsys, tmp_path):
        graph = tmp_path / "wide.json"
        graph.write_text(WIDE_DOC, encoding="utf-8")
        rc, _, err = run(
            capsys,
            ["route", "--graph", str(graph), "--source", "S", "--sink", "T"],
        )
        assert rc == 3
        assert "the exact planner reached its budget of 200000 beliefs" in err
        assert "use simulate --policy replan" in err
        assert "--method mc" not in err

    @pytest.mark.parametrize("subcommand", sorted(CAP_HINTS))
    def test_cap_hint_names_the_subcommands_own_flags(
        self, capsys, tmp_path, subcommand, monkeypatch
    ):
        monkeypatch.setattr(traveler, "BELIEF_BUDGET", SMALL_BUDGET)
        graph = tmp_path / "g.json"
        graph.write_text(DEEP_DOC, encoding="utf-8")
        rc, out, err = run(
            capsys,
            [
                subcommand, "--graph", str(graph), "--source", "S",
                "--sink", "T", "--output", str(tmp_path / "out"),
            ],
        )
        assert rc == 3 and out == ""
        assert err.rstrip().endswith(f"({CAP_HINTS[subcommand]})")
        assert "--method mc" not in err

    @pytest.mark.parametrize("subcommand", ["route", "centrality"])
    def test_mc_cap_refusal_does_not_repeat_its_own_flag(
        self, capsys, tmp_path, subcommand, monkeypatch
    ):
        monkeypatch.setattr(traveler, "BELIEF_BUDGET", SMALL_BUDGET)
        graph = tmp_path / "g.json"
        graph.write_text(DEEP_DOC, encoding="utf-8")
        graph_flags = ["--graph", str(graph), "--source", "S", "--sink", "T"]
        rc, out, err = run(
            capsys,
            [
                subcommand, *graph_flags, "--method", "mc", "--reps", "10",
                "--output", str(tmp_path / "out"),
            ],
        )
        assert rc == 3 and out == ""
        assert "--method mc" not in err
        if subcommand == "centrality":
            assert "no centrality method runs past the belief budget" in err
            return
        # the hinted command runs on the same graph
        hint = err.rstrip().rsplit("(use ", 1)[1].rstrip(")").split()
        assert hint[0] == "simulate"
        rc, out, err = run(
            capsys,
            [*hint, *graph_flags, "--reps", "50", "--output", str(tmp_path / "sim")],
        )
        assert rc == 0 and err == ""
        assert json.loads(out)["summary"]["replications"] == 50

    @pytest.mark.parametrize("subcommand", sorted(CAP_HINTS))
    def test_every_cap_hint_flag_is_accepted(self, subcommand):
        hint = CAP_HINTS[subcommand]
        if not hint.startswith("use "):
            # a hint that names no command names no flag either
            assert "--" not in hint
            return
        words = hint.split()[1:]
        if words[0].startswith("--"):
            words.insert(0, subcommand)
        command, flag, value = words
        graph_flags = ["--graph", "g.json", "--source", "S", "--sink", "T"]
        args = build_parser().parse_args([command, *graph_flags, flag, value])
        assert args.subcommand == command
        assert getattr(args, flag[2:]) == value

    def test_ring_refusals_hint_at_a_command_that_finishes(
        self, capsys, tmp_path, monkeypatch
    ):
        # on this ring of 23 uncertain roads the exact planner refuses,
        # and so does Monte Carlo of the optimal policy, whose first
        # decision plans 19 undecided roads past the belief budget; the
        # subprocess tests below meet the real budget
        monkeypatch.setattr(traveler, "BELIEF_BUDGET", SMALL_BUDGET)
        graph = tmp_path / "ring.json"
        graph.write_text(RING_DOC, encoding="utf-8")
        graph_flags = ["--graph", str(graph), "--source", "n0", "--sink", "n6"]
        hints = {}
        for subcommand in ("route", "centrality"):
            rc, out, err = run(
                capsys,
                [subcommand, *graph_flags, "--output", str(tmp_path / "out")],
            )
            assert rc == 3 and out == ""
            assert "--method mc" not in err
            hints[subcommand] = err.rstrip().rsplit("(", 1)[1].rstrip(")")
        assert hints["centrality"].startswith("no centrality method runs past the belief budget")
        assert hints["route"] == "use simulate --policy replan"
        proc = subprocess.run(
            [
                sys.executable, "-m", "ctproute.cli", *hints["route"].split()[1:],
                *graph_flags, "--reps", "1000", "--output", str(tmp_path / "sim"),
            ],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["summary"]["replications"] == 1000

    @pytest.mark.parametrize(
        "argv",
        [
            ["route", "--method", "mc", "--reps", "10"],
            ["centrality", "--mode", "others_stochastic", "--method", "mc",
             "--reps", "10"],
        ],
    )
    def test_ring_monte_carlo_is_refused_not_left_running(self, tmp_path, argv):
        # every decision plans afresh, so the budget must stop the first
        # one here; a process that runs on fails by timing out
        graph = tmp_path / "ring.json"
        graph.write_text(RING_DOC, encoding="utf-8")
        proc = subprocess.run(
            [
                sys.executable, "-m", "ctproute.cli", *argv, "--graph", str(graph),
                "--source", "n0", "--sink", "n6", "--output", str(tmp_path / "out"),
            ],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 3, proc.stderr
        assert proc.stdout == ""
        assert "reached its budget" in proc.stderr

    def test_mc_handles_many_uncertain_edges(self, capsys, tmp_path):
        graph = tmp_path / "wide.json"
        graph.write_text(WIDE_DOC, encoding="utf-8")
        rc, out, err = run(
            capsys,
            [
                "route", "--graph", str(graph), "--source", "S", "--sink", "T",
                "--method", "mc", "--reps", "300",
            ],
        )
        assert rc == 0 and err == ""
        report = json.loads(out)
        # every edge is revealed at the start, so each journey takes the
        # cheapest open crossing; the mean sits near 2 for 21 coin flips
        assert 1.0 <= report["value"] <= 4.0

    def test_mc_mean_tracks_the_gamble_fixture(self, capsys, tmp_path):
        graph = tmp_path / "tb.json"
        graph.write_text(tb_doc(0.25), encoding="utf-8")
        rc, out, _ = run(
            capsys,
            [
                "route", "--graph", str(graph), "--source", "S", "--sink", "T",
                "--method", "mc", "--reps", "100000", "--seed", "7",
            ],
        )
        assert rc == 0
        report = json.loads(out)
        assert abs(report["value"] - 3.0) <= 3.0 * report["stderr"]

    def test_missing_required_flag_names_it(self, capsys, tri_graph):
        with pytest.raises(SystemExit) as excinfo:
            main(["route", "--graph", tri_graph, "--source", "S"])
        assert excinfo.value.code == 2
        assert "--sink" in capsys.readouterr().err

    def test_unknown_node_rejected(self, capsys, tri_graph):
        rc, _, err = run(
            capsys,
            ["route", "--graph", tri_graph, "--source", "X", "--sink", "T"],
        )
        assert rc == 2
        assert "X" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["route"],
            ["route", "--method", "mc"],
            ["centrality", "--output", "c.csv"],
            ["simulate", "--output", "s.csv"],
        ],
        ids=["route", "route-mc", "centrality", "simulate"],
    )
    def test_source_equal_sink_rejected_by_every_subcommand(
        self, capsys, tri_graph, argv, monkeypatch, tmp_path
    ):
        monkeypatch.chdir(tmp_path)
        rc, out, err = run(
            capsys, argv + ["--graph", tri_graph, "--source", "T", "--sink", "T"]
        )
        assert (rc, out) == (2, "")
        assert "source and sink must differ" in err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-5"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["route"],
            ["route", "--method", "mc"],
            ["centrality", "--output", "c.csv"],
            ["simulate", "--output", "s.csv"],
        ],
        ids=["route", "route-mc", "centrality", "simulate"],
    )
    def test_bad_failure_cost_rejected_by_every_subcommand(
        self, capsys, argv, bad, monkeypatch, tmp_path
    ):
        # one road, so every finished journey costs 10: a negative failure
        # cost would report an expectation below it and NaN a null value
        monkeypatch.chdir(tmp_path)
        (tmp_path / "one.json").write_text(ONE_ROAD_DOC, encoding="utf-8")
        rc, out, err = run(
            capsys,
            argv + ["--graph", "one.json", "--source", "S", "--sink", "T",
                    f"--failure-cost={bad}"],
        )
        assert (rc, out) == (2, "")
        assert "failure cost must be finite and >= 0" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["one.json"]

    def test_zero_failure_cost_accepted(self, capsys, tmp_path):
        (tmp_path / "one.json").write_text(ONE_ROAD_DOC, encoding="utf-8")
        rc, out, _ = run(
            capsys,
            ["route", "--graph", str(tmp_path / "one.json"), "--source", "S",
             "--sink", "T", "--failure-cost=0"],
        )
        assert rc == 0
        assert json.loads(out)["value"] == pytest.approx(7.0, abs=1e-12)

    @pytest.mark.parametrize(
        "nodes, edge, field",
        [
            ([["a"], "b"], {"id": "x", "u": "a", "v": "b"}, "node id"),
            (["a", "b"], {"id": ["x"], "u": "a", "v": "b"}, "edge id"),
            (["a", "b"], {"id": "x", "u": ["a"], "v": "b"}, "edge u"),
            (["a", "b"], {"id": "x", "u": "a", "v": {"b": 1}}, "edge v"),
        ],
        ids=["node", "edge-id", "edge-u", "edge-v"],
    )
    def test_non_string_ids_exit_2_with_one_error_line(
        self, capsys, tmp_path, nodes, edge, field
    ):
        doc = {"nodes": nodes, "edges": [{**edge, "cost": 1, "p": 0.5}]}
        graph = tmp_path / "bad.json"
        graph.write_text(json.dumps(doc), encoding="utf-8")
        rc, out, err = run(
            capsys, ["route", "--graph", str(graph), "--source", "a", "--sink", "b"]
        )
        assert (rc, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{field} must be a nonempty string" in err
        assert "Traceback" not in err

    def test_missing_graph_file_rejected(self, capsys, tmp_path):
        rc, _, err = run(
            capsys,
            [
                "route", "--graph", str(tmp_path / "absent.json"),
                "--source", "S", "--sink", "T",
            ],
        )
        assert rc == 2
        assert "absent.json" in err

    @pytest.mark.parametrize("flag", ["--graph", "--probabilities"])
    def test_input_file_that_is_not_utf8_rejected(self, capsys, tmp_path, flag):
        files = {
            "--graph": tmp_path / "g.json",
            "--probabilities": tmp_path / "p.csv",
        }
        files["--graph"].write_text(TRI_DOC_NO_P, encoding="utf-8")
        files["--probabilities"].write_text(TRI_PROBS_CSV, encoding="utf-8")
        # a UTF-16 byte-order mark, or a Latin-1 e-acute in a road name
        bad = {
            "--graph": b"\xff\xfe" + TRI_DOC_NO_P.encode("utf-16-le"),
            "--probabilities": (TRI_PROBS_CSV + "caf\xe9,0\n").encode("latin-1"),
        }
        files[flag].write_bytes(bad[flag])
        argv = ["route", "--source", "S", "--sink", "T"]
        for name, path in files.items():
            argv += [name, str(path)]
        rc, out, err = run(capsys, argv)
        assert (rc, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{files[flag]} is not UTF-8 text" in err

    @pytest.mark.parametrize("flag", ["--probabilities", "--covariates", "--expert"])
    def test_csv_field_above_the_csv_field_limit_rejected(
        self, capsys, tmp_path, flag
    ):
        # one quoted field of 200,000 characters; the csv module refuses
        # fields over 131,072 by default
        big, graph, cov = tmp_path / "big.csv", tmp_path / "g.json", tmp_path / "z.csv"
        big.write_text(f'edge_id,p\n"{"x" * 200_000}",0.5\n', encoding="utf-8")
        graph.write_text(TRI_DOC_NO_P, encoding="utf-8")
        cov.write_text("edge_id,bias\nd,1\na,1\nb,1\n", encoding="utf-8")
        route = ["route", "--graph", str(graph), "--source", "S", "--sink", "T"]
        argv = {
            "--probabilities": route + ["--probabilities", str(big)],
            "--covariates": route + ["--covariates", str(big), "--beta", "1"],
            "--expert": ["elicit", "--covariates", str(cov), "--expert", str(big)],
        }[flag]
        rc, out, err = run(capsys, argv)
        assert (rc, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "field larger than field limit" in err


GOLDEN_CENTRALITY = (
    "edge_id,mode,method,e_t_blocked,e_t_open,cbc,"
    "p_fail_blocked,p_fail_open,se_blocked,se_open,se_cbc\n"
    "a,others_open,exact,10,10,0,0,0,,,\n"
    "b,others_open,exact,10,10,0,0,0,,,\n"
    "d,others_open,exact,12,10,2,0,0,,,\n"
)


class TestCentrality:
    def test_exact_on_a_path_longer_than_the_recursion_limit(self, capsys, tmp_path):
        # the exact evaluator once took two stack frames per move, and a
        # walk of 599 moves exceeded Python's recursion limit
        n = 600
        doc = {
            "nodes": [f"n{i}" for i in range(n)],
            "edges": [
                {"id": f"e{i}", "u": f"n{i}", "v": f"n{i + 1}", "cost": 1.0,
                 "p": 0.5 if i == 0 else 0.0}
                for i in range(n - 1)
            ],
        }
        graph, dest = tmp_path / "path.json", tmp_path / "cbc.csv"
        graph.write_text(json.dumps(doc), encoding="utf-8")
        rc, _, err = run(
            capsys,
            [
                "centrality", "--graph", str(graph), "--source", "n0",
                "--sink", f"n{n - 1}", "--output", str(dest),
            ],
        )
        assert rc == 0, err
        first = next(csv.DictReader(dest.read_text(encoding="utf-8").splitlines()))
        assert (first["edge_id"], float(first["cbc"])) == ("e0", n - 1)

    def test_exact_golden_csv(self, capsys, tri_graph, tmp_path):
        dest = tmp_path / "cbc.csv"
        rc, out, _ = run(
            capsys,
            [
                "centrality", "--graph", tri_graph, "--source", "S",
                "--sink", "T", "--mode", "others_open", "--output", str(dest),
            ],
        )
        assert rc == 0
        assert dest.read_text(encoding="utf-8") == GOLDEN_CENTRALITY
        report = json.loads(out)
        assert report["rows"] == 3
        config = report["config"]
        assert config["mode"] == "others_open"
        assert config["method"] == "exact"
        assert config["failure_handling"] == "penalty"
        assert config["baseline"] is None

    def test_geodesic_baseline_column(self, capsys, tri_graph, tmp_path):
        dest = tmp_path / "cbc.csv"
        rc, _, _ = run(
            capsys,
            [
                "centrality", "--graph", tri_graph, "--source", "S",
                "--sink", "T", "--mode", "others_open",
                "--baseline", "geodesic", "--output", str(dest),
            ],
        )
        assert rc == 0
        lines = dest.read_text(encoding="utf-8").splitlines()
        assert lines[0].endswith(",geodesic")
        assert lines[1] == "a,others_open,exact,10,10,0,0,0,,,,1"
        assert lines[3] == "d,others_open,exact,12,10,2,0,0,,,,1"

    def test_requires_output(self, capsys, tri_graph):
        rc, _, err = run(
            capsys,
            [
                "centrality", "--graph", tri_graph,
                "--source", "S", "--sink", "T",
            ],
        )
        assert rc == 2
        assert "requires --output" in err

    def test_conditional_exact_rejected(self, capsys, tri_graph, tmp_path):
        rc, _, err = run(
            capsys,
            [
                "centrality", "--graph", tri_graph, "--source", "S",
                "--sink", "T", "--failure-handling", "conditional",
                "--output", str(tmp_path / "x.csv"),
            ],
        )
        assert rc == 2
        assert "conditional" in err

    def test_mc_reruns_are_byte_identical(self, capsys, tri_graph, tmp_path):
        dest1 = tmp_path / "one.csv"
        dest2 = tmp_path / "two.csv"

        def go(dest):
            return run(
                capsys,
                [
                    "centrality", "--graph", tri_graph, "--source", "S",
                    "--sink", "T", "--method", "mc", "--reps", "400",
                    "--seed", "11", "--output", str(dest),
                ],
            )

        rc1, out1, _ = go(dest1)
        rc2, out2, _ = go(dest2)
        assert rc1 == rc2 == 0
        assert dest1.read_bytes() == dest2.read_bytes()
        rows = list(csv.DictReader(dest1.read_text(encoding="utf-8").splitlines()))
        assert [r["edge_id"] for r in rows] == ["a", "b", "d"]
        assert all(r["method"] == "monte_carlo" for r in rows)
        assert all(r["se_blocked"] != "" for r in rows)

    def test_mc_others_open_csv_is_pinned(self, capsys, tri_graph, tmp_path):
        # every other road open leaves one world per road, drawn with no
        # uniform; the bytes are those recorded while every replicate
        # still drew its world
        dest = tmp_path / "cbc.csv"
        rc, _, err = run(
            capsys,
            [
                "centrality", "--graph", tri_graph, "--source", "S",
                "--sink", "T", "--method", "mc", "--mode", "others_open",
                "--reps", "400", "--seed", "11", "--output", str(dest),
            ],
        )
        assert rc == 0, err
        assert dest.read_text(encoding="utf-8") == (
            "edge_id,mode,method,e_t_blocked,e_t_open,cbc,"
            "p_fail_blocked,p_fail_open,se_blocked,se_open,se_cbc\n"
            "a,others_open,monte_carlo,10,10,0,0,0,0,0,0\n"
            "b,others_open,monte_carlo,10,10,0,0,0,0,0,0\n"
            "d,others_open,monte_carlo,12,10,2,0,0,0,0,0\n"
        )

    @pytest.mark.parametrize("mode", ["others_stochastic", "others_open"])
    def test_mc_needs_a_replicate(self, capsys, tri_graph, tmp_path, mode):
        dest = tmp_path / "cbc.csv"
        rc, _, err = run(
            capsys,
            [
                "centrality", "--graph", tri_graph, "--source", "S",
                "--sink", "T", "--method", "mc", "--mode", mode,
                "--reps", "0", "--output", str(dest),
            ],
        )
        assert rc == 2
        assert "replications must be at least 1" in err
        assert not dest.exists()


class TestSimulate:
    def test_fixed_route_records(self, capsys, tri_graph, tmp_path):
        dest = tmp_path / "reps.csv"
        rc, out, _ = run(
            capsys,
            [
                "simulate", "--graph", tri_graph, "--source", "S",
                "--sink", "T", "--policy", "route:S,M,T", "--reps", "12",
                "--output", str(dest),
            ],
        )
        assert rc == 0
        lines = dest.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "replicate,travel_time,failed"
        assert len(lines) == 13
        for r, line in enumerate(lines[1:]):
            assert line == f"{r},12,false"
        report = json.loads(out)
        assert report["summary"]["mean"] == 12.0
        assert report["summary"]["replications"] == 12
        assert report["summary"]["failure_frequency"] == 0.0
        assert report["config"]["policy"] == "route:S,M,T"

    def test_optimal_reruns_are_byte_identical(self, capsys, tri_graph, tmp_path):
        dest1 = tmp_path / "one.csv"
        dest2 = tmp_path / "two.csv"

        def go(dest):
            return run(
                capsys,
                [
                    "simulate", "--graph", tri_graph, "--source", "S",
                    "--sink", "T", "--reps", "200", "--seed", "3",
                    "--output", str(dest),
                ],
            )

        rc1, out1, _ = go(dest1)
        rc2, out2, _ = go(dest2)
        assert rc1 == rc2 == 0
        assert dest1.read_bytes() == dest2.read_bytes()
        # travel times on the triangle are 12 when the direct road is
        # blocked and 10 otherwise
        rows = list(csv.DictReader(dest1.read_text(encoding="utf-8").splitlines()))
        assert {r["travel_time"] for r in rows} == {"10", "12"}
        assert {r["failed"] for r in rows} == {"false"}

    def test_certain_world_walks_are_all_identical(self, capsys, tmp_path):
        graph = tmp_path / "tb.json"
        graph.write_text(tb_doc(0.0), encoding="utf-8")
        for policy, time_field in (("optimal", "2"), ("route:S,T", "4")):
            dest = tmp_path / "reps.csv"
            rc, _, _ = run(
                capsys,
                [
                    "simulate", "--graph", str(graph), "--source", "S",
                    "--sink", "T", "--policy", policy, "--reps", "25",
                    "--output", str(dest),
                ],
            )
            assert rc == 0
            rows = list(
                csv.DictReader(dest.read_text(encoding="utf-8").splitlines())
            )
            assert {r["travel_time"] for r in rows} == {time_field}, policy
            assert {r["failed"] for r in rows} == {"false"}

    @pytest.mark.parametrize(
        "doc, route, times",
        [
            (
                TRI_DOC, "route:S,T",
                "12 10 10 10 10 10 10 10 10 12 10 12 10 12 10 10 10 10 10 10 10 10 10 10",
            ),
            (
                tb_doc(0.25), "route:S,A,T",
                "2 2 6 2 2 2 2 2 6 6 6 6 6 6 2 6 6 2 6 2 2 2 2 2",
            ),
        ],
        ids=["tri", "tb"],
    )
    def test_replicate_records_are_pinned(self, capsys, tmp_path, doc, route, times):
        # the travel times were recorded from this command; on these
        # fixtures the three policies make the same moves in every world
        graph = tmp_path / "graph.json"
        graph.write_text(doc, encoding="utf-8")
        want = "replicate,travel_time,failed\n" + "".join(
            f"{r},{t},false\n" for r, t in enumerate(times.split())
        )
        for policy in ("optimal", "replan", route):
            dest = tmp_path / "reps.csv"
            rc, _, _ = run(
                capsys,
                [
                    "simulate", "--graph", str(graph), "--source", "S",
                    "--sink", "T", "--policy", policy, "--reps", "24",
                    "--seed", "11", "--output", str(dest),
                ],
            )
            assert rc == 0
            assert dest.read_text(encoding="utf-8") == want, policy

    def test_requires_output(self, capsys, tri_graph):
        rc, _, err = run(
            capsys,
            ["simulate", "--graph", tri_graph, "--source", "S", "--sink", "T"],
        )
        assert rc == 2
        assert "requires --output" in err

    def test_bad_policy_spec(self, capsys, tri_graph, tmp_path):
        rc, _, err = run(
            capsys,
            [
                "simulate", "--graph", tri_graph, "--source", "S",
                "--sink", "T", "--policy", "detour",
                "--output", str(tmp_path / "x.csv"),
            ],
        )
        assert rc == 2
        assert "--policy must be" in err


ELICIT_COV = "edge_id,bias\ne1,1\ne2,1\n"
# log odds 0 and 2 on a unit column: coefficient 1, residual variance 2
ELICIT_POINT = f"edge_id,p\ne1,0.5\ne2,{1.0 / (1.0 + math.exp(-2.0)):.17g}\n"
ELICIT_DRAWS = (
    "draw_id,edge_id,p\n"
    "d1,e1,0.3\nd1,e2,0.5\n"
    "d2,e1,0.4\nd2,e2,0.7\n"
)


class TestElicit:
    def write(self, tmp_path, cov=ELICIT_COV, expert=ELICIT_POINT):
        cov_path = tmp_path / "z.csv"
        cov_path.write_text(cov, encoding="utf-8")
        exp_path = tmp_path / "expert.csv"
        exp_path.write_text(expert, encoding="utf-8")
        return str(cov_path), str(exp_path)

    def test_point_prior_report(self, capsys, tmp_path):
        cov, exp = self.write(tmp_path)
        rc, out, _ = run(capsys, ["elicit", "--covariates", cov, "--expert", exp])
        assert rc == 0
        report = json.loads(out)
        assert report["mean"][0] == pytest.approx(1.0, abs=1e-9)
        assert report["sigma2"] == pytest.approx(2.0, abs=1e-9)
        assert report["covariance"][0][0] == pytest.approx(1.0, abs=1e-9)
        assert report["df"] == 1
        assert report["clamped_edges"] == []
        assert report["degenerate_fit"] is False
        config = report["config"]
        assert config["expert_form"] == "point"
        assert config["eps"] == 1e-6
        assert config["seed"] == 0

    def test_clamped_edges_reported(self, capsys, tmp_path):
        cov, exp = self.write(
            tmp_path, expert="edge_id,p\ne1,0\ne2,0.8\n"
        )
        rc, out, _ = run(capsys, ["elicit", "--covariates", cov, "--expert", exp])
        assert rc == 0
        assert json.loads(out)["clamped_edges"] == ["e1"]

    def test_rank_deficiency_names_columns(self, capsys, tmp_path):
        cov, exp = self.write(
            tmp_path,
            cov="edge_id,bias,bias_copy\ne1,1,1\ne2,1,1\ne3,1,1\n",
            expert="edge_id,p\ne1,0.2\ne2,0.5\ne3,0.7\n",
        )
        rc, _, err = run(capsys, ["elicit", "--covariates", cov, "--expert", exp])
        assert rc == 2
        assert "bias" in err and "bias_copy" in err

    def test_expert_edge_mismatch(self, capsys, tmp_path):
        cov, exp = self.write(tmp_path, expert="edge_id,p\ne1,0.5\n")
        rc, _, err = run(capsys, ["elicit", "--covariates", cov, "--expert", exp])
        assert rc == 2
        assert "must match covariate rows exactly" in err
        assert "e2" in err

    def test_draws_pushforward_csv_deterministic(self, capsys, tmp_path):
        cov, exp = self.write(tmp_path, expert=ELICIT_DRAWS)
        push1 = tmp_path / "push1.csv"
        push2 = tmp_path / "push2.csv"

        def go(push):
            return run(
                capsys,
                [
                    "elicit", "--covariates", cov, "--expert", exp,
                    "--reps", "50", "--seed", "5", "--pushforward", str(push),
                ],
            )

        rc1, out1, _ = go(push1)
        rc2, out2, _ = go(push2)
        assert rc1 == rc2 == 0
        assert push1.read_bytes() == push2.read_bytes()
        report = json.loads(out1)
        assert report["config"]["expert_form"] == "draws"
        assert report["df"] == 1
        lines = push1.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "edge_id,mean,q05,median,q95"
        rows = list(csv.DictReader(lines))
        assert [r["edge_id"] for r in rows] == ["e1", "e2"]
        for row in rows:
            values = [float(row[k]) for k in ("mean", "q05", "median", "q95")]
            assert all(0.0 <= v <= 1.0 for v in values)
            assert values[1] <= values[2] <= values[3]

    def test_single_draw_reduces_to_the_point_form(self, capsys, tmp_path):
        cov, point = self.write(
            tmp_path, expert="edge_id,p\ne1,0.3\ne2,0.6\n"
        )
        draws = tmp_path / "one_draw.csv"
        draws.write_text(
            "draw_id,edge_id,p\nd1,e1,0.3\nd1,e2,0.6\n", encoding="utf-8"
        )
        rc1, out1, _ = run(
            capsys, ["elicit", "--covariates", cov, "--expert", point]
        )
        rc2, out2, _ = run(
            capsys, ["elicit", "--covariates", cov, "--expert", str(draws)]
        )
        assert rc1 == rc2 == 0
        a, b = json.loads(out1), json.loads(out2)
        for key in ("mean", "covariance", "sigma2", "df", "degenerate_fit"):
            assert a[key] == b[key], key
        assert a["config"]["expert_form"] == "point"
        assert b["config"]["expert_form"] == "draws"

    @pytest.mark.parametrize(
        "header", ['"edge_id","p"', '"draw_id","edge_id","p"']
    )
    def test_quoted_header_gives_the_prior_of_the_plain_one(
        self, capsys, tmp_path, header
    ):
        draw = "d1," if header.startswith('"draw_id"') else ""
        body = f"{draw}e1,0.3\n{draw}e2,0.6\n"
        outs = []
        for first in (header, header.replace('"', "")):
            cov, exp = self.write(tmp_path, expert=f"{first}\n{body}")
            rc, out, err = run(capsys, ["elicit", "--covariates", cov, "--expert", exp])
            assert rc == 0, err
            outs.append(out)
        assert outs[0] == outs[1]

    def test_point_pushforward_roundtrips_noiseless_fit(self, capsys, tmp_path):
        # a saturated one column fit reproduces the stated probability
        cov, exp = self.write(
            tmp_path,
            cov="edge_id,bias\ne1,1\ne2,1\n",
            expert="edge_id,p\ne1,0.3\ne2,0.3\n",
        )
        push = tmp_path / "push.csv"
        rc, _, _ = run(
            capsys,
            [
                "elicit", "--covariates", cov, "--expert", exp,
                "--reps", "20", "--pushforward", str(push),
            ],
        )
        assert rc == 0
        rows = list(
            csv.DictReader(push.read_text(encoding="utf-8").splitlines())
        )
        for row in rows:
            assert float(row["mean"]) == pytest.approx(0.3, abs=1e-9)
            assert float(row["q95"]) == pytest.approx(0.3, abs=1e-9)


def test_inputs_with_a_byte_order_mark_read_as_plain(capsys, tmp_path):
    # Excel's "CSV UTF-8" and PowerShell start a file with a UTF-8 BOM
    files = {
        "g.json": TRI_DOC_NO_P,
        "p.csv": TRI_PROBS_CSV,
        "z.csv": "edge_id,bias,grade\nd,1,0.5\na,1,-2\nb,1,-3\n",
        "ez.csv": ELICIT_COV,
        "expert.csv": ELICIT_POINT,
    }
    runs = [
        ["route", "--graph", "g.json", "--source", "S", "--sink", "T",
         "--probabilities", "p.csv"],
        ["route", "--graph", "g.json", "--source", "S", "--sink", "T",
         "--covariates", "z.csv", "--beta=-1.0,2.0"],
        ["elicit", "--covariates", "ez.csv", "--expert", "expert.csv"],
    ]
    outs: dict[str, list[str]] = {}
    for encoding in ("utf-8", "utf-8-sig"):
        folder = tmp_path / encoding
        folder.mkdir()
        for name, text in files.items():
            (folder / name).write_text(text, encoding=encoding)
        outs[encoding] = []
        for argv in runs:
            rc, out, err = run(
                capsys, [str(folder / a) if a in files else a for a in argv]
            )
            assert rc == 0, err
            # the echoed paths differ by their folder only
            outs[encoding].append(out.replace(str(folder), ""))
    assert outs["utf-8-sig"] == outs["utf-8"]


@pytest.mark.parametrize(
    "command",
    ["simulate", "route --method mc", "centrality --method mc", "elicit --pushforward"],
)
def test_unallocatable_reps_exit_2_with_one_line(capsys, tmp_path, command):
    # 2**55 replicates is a valid stream index, but its per-replicate
    # arrays are past any 64-bit address space, so allocation fails at once
    graph, cov, expert = tmp_path / "g.json", tmp_path / "z.csv", tmp_path / "x.csv"
    out_file, push = tmp_path / "out", tmp_path / "push.csv"
    graph.write_text(TRI_DOC, encoding="utf-8")
    cov.write_text(ELICIT_COV, encoding="utf-8")
    expert.write_text(ELICIT_POINT, encoding="utf-8")
    if command == "elicit --pushforward":
        argv = ["elicit", "--covariates", str(cov), "--expert", str(expert),
                "--pushforward", str(push)]
    else:
        argv = [*command.split(), "--graph", str(graph), "--source", "S",
                "--sink", "T", "--output", str(out_file)]
    rc, out, err = run(capsys, [*argv, "--reps", str(2**55)])
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "allocate" in err
    assert not out_file.exists() and not push.exists()


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        exe = shutil.which("ctproute")
        if exe is None:
            pytest.skip("console script not on PATH")
        graph = tmp_path / "tri.json"
        graph.write_text(TRI_DOC, encoding="utf-8")
        proc = subprocess.run(
            [exe, "route", "--graph", str(graph), "--source", "S", "--sink", "T"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["value"] == pytest.approx(10.6, abs=1e-12)

    def test_module_invocation(self, tmp_path):
        graph = tmp_path / "tri.json"
        graph.write_text(TRI_DOC, encoding="utf-8")
        proc = subprocess.run(
            [
                sys.executable, "-m", "ctproute.cli", "route",
                "--graph", str(graph), "--source", "S", "--sink", "T",
            ],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["value"] == pytest.approx(10.6, abs=1e-12)
