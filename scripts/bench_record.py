#!/usr/bin/env python3
"""Record benchmark runs as committed BENCH_<label>.json rows.

Runs ``perfbench/run.py`` for one or more workloads over fixed seeds, in
one checkout or in a pair of them, and writes all of each checkout's JSON
result lines to one ``BENCH_<label>.json``: one JSON object per line, the
benchmark's result line plus the label, workload, seed and seconds it
ran with. Each run lasts ``run_seconds`` of the ``BENCHMARK.json`` next
to this script, the benchmark's own run length. Each seed runs every
workload; with two checkouts every run happens in both, and which one
goes first alternates from seed to seed, so a slow spell of a shared
machine falls on both sides alike. After the runs it prints, per
workload, each end-to-end metric's median and interquartile range per
checkout and, with two checkouts, how many seeds the first one won, by
the metric's direction in ``BENCHMARK.json``. Exits 1 at once when a run exits non-zero, and
after writing every row when any run was not correct or had failed
operations.

Usage (from a checkout root; LABEL=DIR names a checkout to run):
    python3 scripts/bench_record.py new=. old=../parent \\
        --workload grid-exact fixture-mc grid-mc --seeds 901 902 903
"""

from __future__ import annotations

import argparse
import contextlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", nargs="+", metavar="LABEL=DIR")
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--out", type=Path, default=Path("."))
    args = parser.parse_args()
    if len(args.checkouts) > 2:
        parser.error("give one checkout, or two to compare")
    benchmark = json.loads(BENCHMARK.read_text())
    seconds = benchmark["run_seconds"]

    sides = []
    for spec in args.checkouts:
        label, sep, root = spec.partition("=")
        if not sep or not label:
            parser.error(f"expected LABEL=DIR, got {spec!r}")
        sides.append((label, Path(root).resolve()))
    if len({label for label, _ in sides}) < len(sides):
        parser.error("the two checkouts need different labels")

    bad = 0
    rows: dict[str, list[dict]] = {label: [] for label, _ in sides}
    with contextlib.ExitStack() as stack:
        files = {
            label: stack.enter_context(open(args.out / f"BENCH_{label}.json", "w"))
            for label, _ in sides
        }
        for i, seed in enumerate(args.seeds):
            for workload in args.workload:
                for label, root in sides if i % 2 == 0 else sides[::-1]:
                    command = [
                        sys.executable, "perfbench/run.py", "--workload", workload,
                        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
                    ]
                    done = subprocess.run(
                        command, cwd=root, capture_output=True, text=True
                    )
                    if done.returncode != 0:
                        print(f"{label} {workload} seed {seed} exited "
                              f"{done.returncode}:", done.stderr, file=sys.stderr)
                        return 1
                    row = {
                        "label": label,
                        "workload": workload,
                        "seed": seed,
                        "seconds": seconds,
                        **json.loads(done.stdout.splitlines()[-1]),
                    }
                    files[label].write(json.dumps(row) + "\n")
                    files[label].flush()
                    rows[label].append(row)
                    bad += not row["correct"] or row["failed"] > 0
                    print(f"{label} {workload} seed {seed}: correct {row['correct']}, "
                          f"{row['failed']} of {row['attempted']} ops failed")
    for line in summary(benchmark["end_to_end"], rows):
        print(line)
    if bad:
        print(f"{bad} runs were not correct or had failed ops", file=sys.stderr)
    return 1 if bad else 0


def summary(end_to_end: list[dict], rows: dict[str, list[dict]]) -> list[str]:
    """One line per workload and end-to-end metric: each label's median
    and interquartile range (quartiles interpolated between the sorted
    values, as numpy's percentile does) and, for two labels, how many
    seeds the first one did better on (a tie counts for neither)."""
    labels = list(rows)
    lines = []
    for workload in dict.fromkeys(r["workload"] for r in rows[labels[0]]):
        for metric in end_to_end:
            name = metric["name"]
            values = [
                [r["metrics"][name]["value"] for r in rows[label]
                 if r["workload"] == workload]
                for label in labels
            ]
            parts = [f"{label} {statistics.median(v):.6g} (IQR {iqr(v):.3g})"
                     for label, v in zip(labels, values)]
            if len(labels) == 2:
                sign = 1 if metric["better"] == "higher" else -1
                won = sum(sign * (a - b) > 0 for a, b in zip(*values))
                parts.append(f"{labels[0]} won {won} of {len(values[0])}")
            lines.append(f"{workload} {name} ({metric['unit']}): " + ", ".join(parts))
    return lines


def iqr(values: list[float]) -> float:
    """The distance between the first and third quartiles of values."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


if __name__ == "__main__":
    sys.exit(main())
