"""The summary that scripts/bench_record.py prints after its runs."""

from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)

END_TO_END = [
    {"name": "wall_s", "unit": "s", "better": "lower"},
    {"name": "simulate_reps_per_s", "unit": "1/s", "better": "higher"},
]


def rows(label, per_workload):
    """Rows as bench_record writes them, every workload of a seed before
    the next seed, from {workload: [(wall_s, simulate_reps_per_s) per
    seed]}."""
    return [
        {
            "label": label,
            "workload": workload,
            "seed": seed,
            "metrics": {
                "wall_s": {"value": wall, "unit": "s"},
                "simulate_reps_per_s": {"value": reps, "unit": "1/s"},
            },
        }
        for seed in range(len(next(iter(per_workload.values()))))
        for workload, values in per_workload.items()
        for wall, reps in [values[seed]]
    ]


def test_summary_gives_medians_and_wins_per_workload():
    new = rows("new", {
        "grid-mc": [(1.0, 10.0), (2.0, 20.0), (3.0, 30.0)],
        "fixture-mc": [(0.5, 7.0), (0.4, 9.0), (0.9, 8.0)],
    })
    old = rows("old", {
        "grid-mc": [(1.5, 10.0), (2.0, 25.0), (2.5, 20.0)],
        "fixture-mc": [(0.6, 5.0), (0.6, 6.0), (0.6, 7.0)],
    })
    lines = bench_record.summary(END_TO_END, {"new": new, "old": old})
    assert lines == [
        # lower is better: seed 0 won, seed 1 a tie, seed 2 lost
        "grid-mc wall_s (s): new 2, old 2, new won 1 of 3",
        # higher is better: seed 0 a tie, seed 1 lost, seed 2 won
        "grid-mc simulate_reps_per_s (1/s): new 20, old 20, new won 1 of 3",
        "fixture-mc wall_s (s): new 0.5, old 0.6, new won 2 of 3",
        "fixture-mc simulate_reps_per_s (1/s): new 8, old 6, new won 3 of 3",
    ]


def test_summary_of_one_checkout_has_no_wins():
    lines = bench_record.summary(
        END_TO_END, {"only": rows("only", {"grid-exact": [(1.0, 4.0), (3.0, 2.0)]})}
    )
    assert lines == [
        "grid-exact wall_s (s): only 2",
        "grid-exact simulate_reps_per_s (1/s): only 3",
    ]
