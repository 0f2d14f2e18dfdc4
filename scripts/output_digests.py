#!/usr/bin/env python3
"""Print the sha256 of every benchmark operation's output, as JSON.

Builds one workload's operations with the benchmark's generator, runs each
through its CLI runner and prints one JSON (kind, sha256, argv, problems)
line per operation, the argv with the paths of its files cut to their
names, so that a changed digest names the operation it belongs to. Two
checkouts that give the same rows print the same bytes for every
operation, wherever they sit: some outputs name the files they
wrote, so the default --workdir is one fixed absolute directory,
ctproute-digests under the system temporary directory, and a --workdir
given to compare two checkouts must be the same absolute path for both.
Exits 1 when any operation reports problems, after printing every line.

Usage (from a checkout root):
    python3 scripts/output_digests.py grid-exact [--seed 7] [--workdir DIR]
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
parser.add_argument("workload")
parser.add_argument("--seed", type=int, default=7)
parser.add_argument(
    "--workdir", type=Path, default=Path(tempfile.gettempdir()) / "ctproute-digests"
)
args = parser.parse_args()

sys.path.insert(0, str(Path.cwd() / "perfbench"))
import run  # noqa: E402
import workloads  # noqa: E402

cli = run.import_program(Path.cwd())
workdir = args.workdir / args.workload
workdir.mkdir(parents=True, exist_ok=True)
workdir = workdir.resolve()
failed = 0
for op in workloads.build(args.workload, args.seed, workdir):
    _, problems, digest = run.run_op(cli, op)
    argv = [Path(a).name if a.startswith(str(workdir)) else a for a in op.argv]
    print(json.dumps((op.kind, digest, argv, problems)))
    failed += bool(problems)
if failed:
    print(f"{failed} operations reported problems", file=sys.stderr)
sys.exit(1 if failed else 0)
