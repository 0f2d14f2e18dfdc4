"""Output checks. Each returns a list of problems; an empty list passes.

Exact values must match references to 1e-9 relative. Monte Carlo means
must lie within 4 standard errors of the reference, where the standard
error comes from the reference's own standard deviation of one replicate
(exact where the worlds were enumerated), not from the run: a run that
misses a rare, costly outcome reports too small a spread of its own. The
checks are statistical on purpose, so that a deliberate change of random
streams is not a failure; they still repeat exactly for the same code,
because every stream is seeded.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

REL = 1e-9
Z = 4.0

SIMULATE_HEADER = ["replicate", "travel_time", "failed"]
CENTRALITY_COLUMNS = (
    "edge_id",
    "mode",
    "method",
    "e_t_blocked",
    "e_t_open",
    "cbc",
    "p_fail_blocked",
    "p_fail_open",
    "se_blocked",
    "se_open",
)
CENTRALITY_EXACT_FIELDS = ("e_t_blocked", "e_t_open", "cbc", "p_fail_blocked", "p_fail_open")
PUSHFORWARD_HEADER = ["edge_id", "mean", "q05", "median", "q95"]


def close(got: float, want: float) -> bool:
    """Equal to 1e-9 relative to max(1, |want|)."""
    return abs(got - want) <= REL * max(1.0, abs(want))


def within_stderr(mean: float, reps: int, ref: dict) -> bool:
    """A Monte Carlo mean within Z reference standard errors of the mean.

    A sampled reference adds its own standard error."""
    var = ref["sd"] ** 2 / reps
    if "reps" in ref:
        var += ref["sd"] ** 2 / ref["reps"]
    return abs(mean - ref["mean"]) <= Z * math.sqrt(var) + REL * max(1.0, abs(ref["mean"]))


def route_exact(stdout: str, ref: dict) -> list[str]:
    out = json.loads(stdout)
    problems = []
    if out.get("method") != "exact":
        problems.append(f"method {out.get('method')!r}")
    if not close(out["value"], ref["value"]):
        problems.append(f"value {out['value']!r} != reference {ref['value']!r}")
    if not close(out["failure_probability"], ref["failure_probability"]):
        problems.append(
            f"failure_probability {out['failure_probability']!r} != {ref['failure_probability']!r}"
        )
    return problems


def route_mc(stdout: str, reps: int, ref: dict) -> list[str]:
    out = json.loads(stdout)
    problems = []
    if out.get("replications") != reps:
        problems.append(f"replications {out.get('replications')!r} != {reps}")
    if not within_stderr(out["value"], reps, ref):
        problems.append(f"mean {out['value']!r} not within {Z} stderr of {ref['mean']!r}")
    return problems


def _centrality_rows(text: str, edges: dict[str, str]) -> tuple[dict, list[str]]:
    reader = csv.DictReader(io.StringIO(text))
    missing = [c for c in CENTRALITY_COLUMNS if c not in (reader.fieldnames or [])]
    if missing:
        return {}, [f"centrality CSV lacks columns {missing}"]
    rows = {}
    for row in reader:
        base = edges.get(row["edge_id"])
        if base is None:
            return {}, [f"centrality row for unknown edge {row['edge_id']!r}"]
        rows[base] = row
    if len(rows) != len(edges):
        return {}, [f"centrality CSV has {len(rows)} rows, want {len(edges)}"]
    return rows, []


def centrality_exact(text: str, edges: dict[str, str], mode: str, ref: dict) -> list[str]:
    """`edges` maps each output edge id to its reference edge id."""
    rows, problems = _centrality_rows(text, edges)
    for base, row in rows.items():
        if row["mode"] != mode or row["method"] != "exact":
            problems.append(f"{base}: mode/method {row['mode']}/{row['method']}")
        for field in CENTRALITY_EXACT_FIELDS:
            if not close(float(row[field]), ref[base][field]):
                problems.append(f"{base}.{field} {row[field]} != reference {ref[base][field]!r}")
    return problems


def centrality_mc(text: str, edges: dict[str, str], mode: str, reps: int, ref: dict) -> list[str]:
    rows, problems = _centrality_rows(text, edges)
    for base, row in rows.items():
        if row["mode"] != mode or row["method"] != "monte_carlo":
            problems.append(f"{base}: mode/method {row['mode']}/{row['method']}")
        for label in ("blocked", "open"):
            if not within_stderr(float(row[f"e_t_{label}"]), reps, ref[base][label]):
                problems.append(
                    f"{base}.e_t_{label} {row[f'e_t_{label}']} not within {Z} stderr of "
                    f"{ref[base][label]['mean']!r}"
                )
    return problems


def simulate(stdout: str, csv_text: str, reps: int, ref: dict) -> list[str]:
    rows = list(csv.reader(io.StringIO(csv_text)))
    if not rows or rows[0] != SIMULATE_HEADER:
        return [f"simulate CSV header {rows[:1]!r}"]
    body = rows[1:]
    if len(body) != reps:
        return [f"simulate CSV has {len(body)} rows, want {reps}"]
    problems = []
    if any(int(r[0]) != i for i, r in enumerate(body)):
        problems.append("simulate CSV replicate column is not 0..reps-1")
    if any(r[2] not in ("true", "false") for r in body):
        problems.append("simulate CSV failed column is not true/false")
    mean = math.fsum(float(r[1]) for r in body) / reps
    summary = json.loads(stdout)["summary"]
    if summary["replications"] != reps or not close(summary["mean"], mean):
        problems.append(f"summary mean {summary['mean']!r} disagrees with CSV mean {mean!r}")
    if not within_stderr(mean, reps, ref):
        problems.append(f"mean {mean!r} not within {Z} stderr of {ref['mean']!r}")
    return problems


def _csv_matrix(text: str) -> tuple[list[str], np.ndarray]:
    rows = [r for r in csv.reader(io.StringIO(text)) if r]
    return [r[0] for r in rows[1:]], np.array([[float(x) for x in r[1:]] for r in rows[1:]])


def _fit(Z: np.ndarray, P: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Least squares prior: mean, covariance, sigma^2 (independent of the
    program, through numpy's SVD based lstsq and an explicit inverse)."""
    n, k = Z.shape
    mean = np.linalg.lstsq(Z, P, rcond=None)[0]
    resid = P - Z @ mean
    sigma2 = float(resid @ resid) / (n - k)
    return mean, np.linalg.inv(Z.T @ Z) * sigma2, sigma2


def reference_prior(cov_text: str, expert_text: str) -> dict:
    """Prior mean and covariance an elicit run must report."""
    ids, Zm = _csv_matrix(cov_text)
    rows = [r for r in csv.reader(io.StringIO(expert_text)) if r]
    draws: dict[str, dict[str, float]] = {}
    for r in rows[1:]:
        if len(r) == 2:
            draws.setdefault("", {})[r[0]] = float(r[1])
        else:
            draws.setdefault(r[0], {})[r[1]] = float(r[2])
    fits = []
    for probs in draws.values():
        p = np.array([probs[e] for e in ids])
        fits.append(_fit(Zm, np.log(p / (1.0 - p))))
    means = np.array([m for m, _, _ in fits])
    mean = means.mean(axis=0)
    centered = means - mean
    cov = np.mean([c for _, c, _ in fits], axis=0) + centered.T @ centered / len(fits)
    return {"mean": mean, "covariance": cov, "roads": ids}


def elicit(stdout: str, pushforward_text: str, ref: dict) -> list[str]:
    out = json.loads(stdout)
    problems = []
    for key in ("mean", "covariance"):
        got = np.array(out[key], dtype=float)
        want = ref[key]
        # relative to the largest entry: covariances are small, and each
        # entry is printed to 12 significant digits
        if got.shape != want.shape or not np.all(np.abs(got - want) <= REL * np.max(np.abs(want))):
            problems.append(f"prior {key} differs from the reference by more than {REL} relative")
    if out.get("clamped_edges"):
        problems.append(f"unexpected clamped edges {out['clamped_edges']}")
    rows = list(csv.reader(io.StringIO(pushforward_text)))
    if not rows or rows[0] != PUSHFORWARD_HEADER:
        return problems + [f"pushforward CSV header {rows[:1]!r}"]
    if [r[0] for r in rows[1:]] != ref["roads"]:
        problems.append("pushforward rows do not follow the covariate rows")
    for r in rows[1:]:
        mean, q05, median, q95 = (float(x) for x in r[1:])
        if not (0.0 <= q05 <= median <= q95 <= 1.0 and 0.0 <= mean <= 1.0):
            problems.append(f"pushforward row {r} is not ordered inside [0, 1]")
            break
    return problems
