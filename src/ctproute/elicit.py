"""Turning expert blockage probabilities into a coefficient prior.

Experts state a probability p_l per road. On the log odds scale the
logistic blockage model is linear, so stacking the stated log odds P
against the covariates Z gives the ordinary least squares system

    P = Z beta + eps,    eps ~ N(0, sigma^2)

whose solution supplies a conjugate style normal prior for beta:

    beta ~ N( (Z'Z)^-1 Z'P,  (Z'Z)^-1 sigma_hat^2 )

with sigma_hat^2 = RSS / (n - k). The solve goes through a QR
factorization rather than forming (Z'Z)^-1 directly. Disagreement
between experts can be represented by feeding several probability
vectors: each is fitted separately and the draws are pooled with equal
weight, which mixes the experts instead of averaging them away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import rng
from .blockage import CovariateMatrix, csv_table, expit
from .errors import (
    DimensionMismatch,
    DomainError,
    NotPSD,
    ParseError,
    RankDeficient,
    ValidationError,
)

DEFAULT_EPS = 1e-6
PSD_TOLERANCE = 1e-10

# probabilities the pushforward summarises at once (64 KiB of float64),
# or one whole row when a row holds more: at 16,000 draws a block is 125
# KiB. Its temporaries stay small however many roads there are
PUSHFORWARD_BLOCK = 8192
# the quantiles the pushforward reports per road
_QUANTILES = (0.05, 0.5, 0.95)


@dataclass(frozen=True)
class LogitVector:
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or values.size == 0:
            raise DimensionMismatch("log odds must form a non empty vector")
        if not np.all(np.isfinite(values)):
            raise ValidationError("log odds entries must be finite")


@dataclass(frozen=True)
class BetaPrior:
    mean: np.ndarray
    covariance: np.ndarray
    sigma2: float
    degrees_of_freedom: int
    degenerate: bool = False


@dataclass(frozen=True)
class BetaSample:
    draws: np.ndarray


@dataclass(frozen=True)
class RoadProbabilitySummary:
    edge_id: str
    mean: float
    q05: float
    median: float
    q95: float


def logit(p: float, eps: float = DEFAULT_EPS) -> float:
    """Log odds of p, clamping p into [eps, 1 - eps] first."""
    if not (0.0 < eps < 0.5):
        raise DomainError(f"eps must lie in (0, 0.5): {eps!r}")
    if not isinstance(p, (int, float)) or isinstance(p, bool) or not math.isfinite(p):
        raise DomainError(f"probability must be a finite number: {p!r}")
    if p < 0.0 or p > 1.0:
        raise DomainError(f"probability outside [0, 1]: {p!r}")
    clamped = min(max(p, eps), 1.0 - eps)
    return math.log(clamped / (1.0 - clamped))


def inverse_logit(x: float) -> float:
    return float(expit(x))


def logits_from_probabilities(
    probabilities: Sequence[float], eps: float = DEFAULT_EPS
) -> tuple[LogitVector, tuple[int, ...]]:
    """Vector logit transform, reporting which entries needed clamping."""
    values = []
    clamped = []
    for i, p in enumerate(probabilities):
        values.append(logit(p, eps))
        if p < eps or p > 1.0 - eps:
            clamped.append(i)
    return LogitVector(np.array(values)), tuple(clamped)


def _redundant_columns(Z: CovariateMatrix) -> tuple[str, ...]:
    """Columns lying in the span of the others, by leave one out rank."""
    values = Z.values
    full_rank = np.linalg.matrix_rank(values)
    offenders = []
    if Z.k == 1:
        return tuple(Z.columns)
    for j in range(Z.k):
        reduced = np.delete(values, j, axis=1)
        if np.linalg.matrix_rank(reduced) == full_rank:
            offenders.append(Z.columns[j])
    return tuple(offenders)


def fit_prior(Z: CovariateMatrix, P: LogitVector) -> BetaPrior:
    """Normal prior for beta from the least squares fit of P on Z.

    Exact interpolation (n = k or zero residual) gives sigma2 = 0 and a
    zero covariance; n = k additionally sets the degenerate flag since
    no degrees of freedom remain to estimate the noise.
    """
    n, k = Z.n, Z.k
    if P.values.size != n:
        raise DimensionMismatch(
            f"{n} covariate rows but {P.values.size} log odds entries"
        )
    if n < k:
        raise ValidationError(
            f"need at least as many edges ({n}) as covariates ({k})"
        )
    if np.linalg.matrix_rank(Z.values) < k:
        offenders = _redundant_columns(Z)
        raise RankDeficient(
            f"covariate columns are linearly dependent: {list(offenders)}",
            columns=offenders,
        )
    q, r = np.linalg.qr(Z.values)
    mean = np.linalg.solve(r, q.T @ P.values)
    residuals = P.values - Z.values @ mean
    rss = float(residuals @ residuals)
    df = n - k
    degenerate = df == 0
    sigma2 = 0.0 if degenerate else rss / df
    r_inv = np.linalg.solve(r, np.eye(k))
    ztz_inv = r_inv @ r_inv.T
    covariance = ztz_inv * sigma2
    return BetaPrior(
        mean=mean,
        covariance=covariance,
        sigma2=sigma2,
        degrees_of_freedom=df,
        degenerate=degenerate,
    )


def _covariance_factor(covariance: np.ndarray) -> np.ndarray:
    """Matrix A with A A' = covariance, rejecting indefinite inputs."""
    covariance = np.asarray(covariance, dtype=float)
    if covariance.ndim != 2 or covariance.shape[0] != covariance.shape[1]:
        raise DimensionMismatch("covariance must be square")
    asym = float(np.max(np.abs(covariance - covariance.T), initial=0.0))
    if asym > PSD_TOLERANCE:
        raise NotPSD(f"covariance is asymmetric by {asym:g}")
    sym = (covariance + covariance.T) / 2.0
    eigenvalues, vectors = np.linalg.eigh(sym)
    if float(eigenvalues.min(initial=0.0)) < -PSD_TOLERANCE:
        raise NotPSD(
            f"covariance has eigenvalue {eigenvalues.min():g} below tolerance"
        )
    return vectors * np.sqrt(np.clip(eigenvalues, 0.0, None))


def _normal_draws(
    prior: BetaPrior, count: int, gen: np.random.Generator
) -> np.ndarray:
    factor = _covariance_factor(prior.covariance)
    k = prior.mean.size
    if factor.shape[0] != k:
        raise DimensionMismatch("covariance size does not match the mean")
    # numpy refuses a shape past any address space with a ValueError
    # before it tries to allocate; it is the same failure
    if count * k * 8 > np.iinfo(np.intp).max:
        raise MemoryError(f"cannot allocate {count} draws of {k} coefficients")
    noise = gen.standard_normal((count, k))
    return prior.mean + noise @ factor.T


def sample_beta(prior: BetaPrior, m: int, seed: int) -> BetaSample:
    """m independent draws from the prior; exact mean when covariance is 0."""
    if m < 1:
        raise ValidationError("need at least one draw")
    gen = rng.substream(seed, rng.BETA_DRAWS, 0)
    return BetaSample(draws=_normal_draws(prior, m, gen))


def mix_experts(
    Z: CovariateMatrix,
    expert_logits: Sequence[LogitVector],
    per_draw_samples: int,
    seed: int,
) -> BetaSample:
    """Fit each expert vector separately and pool the draws evenly.

    Expert draw j samples from substream (seed, j), so the pooled sample
    does not depend on evaluation order.
    """
    if not expert_logits:
        raise ValidationError("need at least one expert probability vector")
    if per_draw_samples < 1:
        raise ValidationError("need at least one sample per expert draw")
    blocks = []
    for j, P in enumerate(expert_logits):
        prior = fit_prior(Z, P)
        gen = rng.substream(seed, rng.EXPERT_MIX, j)
        blocks.append(_normal_draws(prior, per_draw_samples, gen))
    return BetaSample(draws=np.vstack(blocks))


def mixture_moments(
    Z: CovariateMatrix, expert_logits: Sequence[LogitVector]
) -> BetaPrior:
    """Exact first two moments of the equal weight expert mixture.

    The mixture mean averages the per expert fitted means; the mixture
    covariance adds the average within expert covariance to the spread
    of the means (law of total covariance). Deterministic, no sampling.
    """
    if not expert_logits:
        raise ValidationError("need at least one expert probability vector")
    priors = [fit_prior(Z, P) for P in expert_logits]
    means = np.array([p.mean for p in priors])
    mean = means.mean(axis=0)
    within = np.mean([p.covariance for p in priors], axis=0)
    centered = means - mean
    between = centered.T @ centered / len(priors)
    return BetaPrior(
        mean=mean,
        covariance=within + between,
        sigma2=float(np.mean([p.sigma2 for p in priors])),
        degrees_of_freedom=priors[0].degrees_of_freedom,
        degenerate=any(p.degenerate for p in priors),
    )


def pushforward_probabilities(
    Z: CovariateMatrix, sample: BetaSample
) -> tuple[RoadProbabilitySummary, ...]:
    """Per road blockage probability summaries implied by a beta sample:
    the mean, and np.quantile's default linear quantiles, over the draws."""
    draws = np.asarray(sample.draws, dtype=float)
    if draws.ndim != 2 or draws.shape[1] != Z.k:
        raise DimensionMismatch(
            f"draws have shape {draws.shape}, want (m, {Z.k})"
        )
    if draws.shape[0] < 1:
        raise ValidationError("need at least one draw")
    # one product for all roads (a product per block of rows would not
    # give the same bits), then whole rows of it a block at a time
    logits = Z.values @ draws.T
    rows = max(1, PUSHFORWARD_BLOCK // logits.shape[1])
    summaries = []
    for start in range(0, Z.n, rows):
        probs = expit(logits[start : start + rows])
        # the means first: pairwise summation depends on the order that
        # the selection below leaves the rows in. A row's mean is NaN
        # exactly when the row holds a NaN, since every other entry lies
        # in [0, 1]
        means = probs.mean(axis=1)
        if probs.shape[1] < 3 or np.isnan(means).any():
            q05, q50, q95 = np.quantile(probs, _QUANTILES, axis=1)
        else:
            q05, q50, q95 = _staged_quantiles(probs)
        columns = (c.tolist() for c in (means, q05, q50, q95))
        summaries.extend(map(RoadProbabilitySummary, Z.edge_ids[start:], *columns))
    return tuple(summaries)


def _staged_quantiles(probs: np.ndarray) -> list[np.ndarray]:
    """np.quantile(probs, _QUANTILES, axis=1) bit for bit, for rows of at
    least 3 values and no NaN, reordering each row of probs in place.

    numpy's default linear method (Hyndman & Fan's type 7) interpolates
    between the order statistics floor(v) and floor(v) + 1 at v = (n - 1)q.
    numpy partitions at all six and at the row's ends at once; here each
    row is partitioned at the median's floor, then its lower part at the
    5% floor and its upper part at the 95% floor, three single pivot
    selections. Between two pivots lie the values of the ranks between
    them, so a floor's upper neighbour is the least value after it up to
    the next pivot, that pivot included, or up to the end of the row.
    With n >= 3 every floor is below n - 1.
    """
    n = probs.shape[1]
    virtual = (n - 1) * np.array(_QUANTILES)
    floors = np.floor(virtual)
    l05, l50, l95 = (int(f) for f in floors)
    probs.partition(l50, axis=1)
    probs[:, :l50].partition(l05, axis=1)
    if l95 > l50:  # equal only at n = 3
        probs[:, l50 + 1 :].partition(l95 - l50 - 1, axis=1)
    ends = (l50, l95 if l95 > l50 else n - 1, n - 1)
    out = []
    for low, end, t in zip((l05, l50, l95), ends, virtual - floors):
        a = probs[:, low]
        b = probs[:, low + 1 : end + 1].min(axis=1)
        # numpy's _lerp, the form chosen by t
        diff = b - a
        out.append(b - diff * (1 - t) if t >= 0.5 else a + diff * t)
    return out


def read_expert_draws_csv(text: str) -> dict[str, dict[str, float]]:
    """Parse `draw_id,edge_id,p` rows, grouped by draw in file order."""
    header, rows = csv_table(text)
    if header != ["draw_id", "edge_id", "p"]:
        raise ParseError("expert draws CSV must have header draw_id,edge_id,p")
    out: dict[str, dict[str, float]] = {}
    for row in rows:
        if len(row) != 3:
            raise ParseError(f"bad expert draws row: {row}")
        draw_id, edge_id = row[0].strip(), row[1].strip()
        try:
            p = float(row[2])
        except ValueError:
            raise ParseError(
                f"expert probability for draw {draw_id!r} edge {edge_id!r} "
                "is not a number"
            )
        bucket = out.setdefault(draw_id, {})
        if edge_id in bucket:
            raise ValidationError(
                f"duplicate row for draw {draw_id!r} edge {edge_id!r}"
            )
        bucket[edge_id] = p
    if not out:
        raise ValidationError("expert draws CSV has no data rows")
    return out


def expert_csv_form(text: str) -> str:
    """Detect whether an expert CSV is point or draws form by header,
    read as the readers of both forms read it."""
    header, _ = csv_table(text)
    if header == ["edge_id", "p"]:
        return "point"
    if header == ["draw_id", "edge_id", "p"]:
        return "draws"
    raise ParseError(
        "expert CSV header must be edge_id,p or draw_id,edge_id,p"
    )


def prior_to_jsonable(
    prior: BetaPrior, clamped_edges: Sequence[str] = ()
) -> dict:
    """BetaPrior as a JSON ready dict, covariance in row major order."""
    return {
        "mean": [float(x) for x in prior.mean],
        "covariance": [[float(x) for x in row] for row in prior.covariance],
        "sigma2": float(prior.sigma2),
        "df": int(prior.degrees_of_freedom),
        "clamped_edges": list(clamped_edges),
        "degenerate_fit": bool(prior.degenerate),
    }
