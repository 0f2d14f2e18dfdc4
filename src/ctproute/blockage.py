"""Per edge blockage probabilities and world sampling.

Each edge l is blocked independently with probability p_l. Probabilities
come from direct input or from a logistic model on edge covariates:

    log(p_l / (1 - p_l)) = sum_i Z_li * beta_i

A Realization fixes the true open or blocked state of every edge for one
draw of the world, as its edge ids in order and the int mask of the
blocked ones. Replicate r draws the first uniforms u in [0, 1) of its
stream, one per edge in model order, and blocks edge l iff u < p_l: one
float64 compare, then numpy packs the flags into the mask. So p_l = 1
blocks the edge in every world and p_l = 0 opens it, and a model pinned
as {**model.probabilities, edge_id: 1.0} keeps the edge's place and,
under one seed, every other edge's state. sample_realization draws one
world with rng.uniforms. sample_worlds draws a whole simulation, a batch
of replicates at a time with rng's numpy Philox, and returns its
distinct worlds and one index of each replicate's world: the same
worlds bit for bit.
"""

from __future__ import annotations

import csv
import enum
import io
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from . import rng
from .errors import (
    DimensionMismatch,
    ParseError,
    UnknownEdge,
    ValidationError,
)
from .network import RoadNetwork

# Philox blocks sample_worlds draws at once (128 KiB per uint64 lane): its
# temporaries stay a few MiB however many replicates and edges there are
SAMPLE_BLOCK = 16384


class EdgeState(enum.Enum):
    OPEN = "open"
    BLOCKED = "blocked"


@dataclass(frozen=True)
class CovariateMatrix:
    """Design matrix with one row per edge, in a fixed edge order."""

    values: np.ndarray
    columns: tuple[str, ...]
    edge_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 2:
            raise DimensionMismatch("covariate matrix must be two dimensional")
        n, k = values.shape
        if n == 0 or k == 0:
            raise ValidationError("covariate matrix must be non empty")
        if len(self.columns) != k:
            raise DimensionMismatch(
                f"{k} columns but {len(self.columns)} column names"
            )
        if len(self.edge_ids) != n:
            raise DimensionMismatch(f"{n} rows but {len(self.edge_ids)} edge ids")
        if len(set(self.edge_ids)) != n:
            raise ValidationError("duplicate edge id in covariate matrix")
        if not np.all(np.isfinite(values)):
            raise ValidationError("covariate matrix entries must be finite")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def k(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class BetaVector:
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or values.size == 0:
            raise DimensionMismatch("beta must be a non empty vector")
        if not np.all(np.isfinite(values)):
            raise ValidationError("beta entries must be finite")


@dataclass(frozen=True)
class BlockageModel:
    """Blockage probability per edge id."""

    probabilities: Mapping[str, float]

    def __post_init__(self) -> None:
        probs = dict(self.probabilities)
        for edge_id, p in probs.items():
            if not isinstance(p, (int, float)) or isinstance(p, bool):
                raise ValidationError(f"probability for {edge_id!r} is not a number")
            if not math.isfinite(p) or p < 0.0 or p > 1.0:
                raise ValidationError(
                    f"probability for {edge_id!r} outside [0, 1]: {p!r}"
                )
        object.__setattr__(self, "probabilities", probs)

    @cached_property
    def _draw(self) -> tuple:
        """(edge ids, probabilities, the one world if every edge is at 0
        or 1, as u in [0, 1) makes u < 0 false and u < 1 true): what the
        draws read, built at the first, as a model is not changed."""
        probs = self.probabilities
        p = np.fromiter(probs.values(), float, len(probs))
        fixed = None
        if set(probs.values()) <= {0, 1}:
            packed = np.packbits(p == 1, bitorder="little")
            fixed = _world(tuple(probs), int.from_bytes(packed, "little"))
        return tuple(probs), p, fixed

    def probability(self, edge_id: str) -> float:
        try:
            return self.probabilities[edge_id]
        except KeyError:
            raise UnknownEdge(f"no blockage probability for edge {edge_id!r}")

    def validate_for(self, net: RoadNetwork) -> None:
        """Require exactly one probability for every edge of the network."""
        missing = [e.id for e in net.edges if e.id not in self.probabilities]
        if missing:
            raise ValidationError(f"edges without probability: {missing}")
        extra = sorted(set(self.probabilities) - set(net.edge_by_id))
        if extra:
            raise UnknownEdge(f"probabilities for unknown edges: {extra}")


@dataclass(frozen=True, init=False, eq=False)
class Realization:
    """True state of every edge for one sampled world: edge_ids, the
    world's edges in order, and the int mask blocked, whose bit i is set
    iff edge_ids[i] is blocked. Two worlds are equal when their states
    are, in whatever order they list the edges."""

    edge_ids: tuple[str, ...]
    blocked: int

    def __init__(self, states: Mapping[str, EdgeState] = {}) -> None:
        states = dict(states)
        blocked = 0
        for i, (edge_id, s) in enumerate(states.items()):
            if s not in (EdgeState.OPEN, EdgeState.BLOCKED):
                raise ValidationError(
                    f"realization state for {edge_id!r} must be open or blocked"
                )
            blocked |= (s is EdgeState.BLOCKED) << i
        object.__setattr__(self, "edge_ids", tuple(states))
        object.__setattr__(self, "blocked", blocked)

    @property
    def states(self) -> dict[str, EdgeState]:
        """A fresh dict of each edge's state, in the world's edge order."""
        blocked, states = self.blocked, (EdgeState.OPEN, EdgeState.BLOCKED)
        return {e: states[blocked >> i & 1] for i, e in enumerate(self.edge_ids)}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Realization):
            return NotImplemented
        return self.states == other.states


def expit(logits: "np.ndarray | float") -> np.ndarray:
    """Elementwise logistic function, exact at extreme logits instead of
    overflowing."""
    e = np.exp(-np.abs(logits))
    # 1/(1+e) or e/(1+e), divided in place: a large logit matrix then
    # holds three arrays of its size at the peak, not four
    p = np.where(logits >= 0, 1.0, e)
    p /= 1.0 + e
    return p


def blockage_probabilities(Z: CovariateMatrix, beta: BetaVector) -> BlockageModel:
    """Logistic model probabilities, keyed by the matrix row edge ids."""
    if Z.k != beta.values.size:
        raise DimensionMismatch(
            f"covariates have {Z.k} columns but beta has {beta.values.size} entries"
        )
    probs = expit(Z.values @ beta.values)
    return BlockageModel({e: float(p) for e, p in zip(Z.edge_ids, probs)})


def sample_realization(
    model: BlockageModel, seed: int, *, stream: int = 0
) -> Realization:
    """Draw one world. Same (model, seed, stream) gives the same
    Realization bit for bit.

    One uniform is drawn per edge in model order, so two models that
    list the same edges in the same order, such as a model and a copy
    that pins one edge at 0 or 1, share every other edge's state under
    one seed. `stream` selects the replicate substream, see the rng
    module for the split rule. The world lists its edges in model order
    and holds the packed u < p flags as its blocked mask; no per-edge
    dict is built until world.states is read. A model with every edge at
    0 or 1 returns its one world, built at its first draw, drawing nothing.
    """
    edge_ids, p, fixed = model._draw
    if fixed is not None:
        return fixed
    uniforms = rng.uniforms(seed, rng.REALIZATIONS, stream, len(edge_ids))
    packed = np.packbits(uniforms < p, bitorder="little")
    return _world(edge_ids, int.from_bytes(packed, "little"))


def sample_worlds(
    model: BlockageModel, seed: int, replications: int
) -> tuple[list[Realization], np.ndarray]:
    """The worlds of replicates 0 to replications - 1: the distinct
    worlds, in the order they first appear, and an intp index holding
    each replicate's world among them. Replicate r's world is
    sample_realization(model, seed, stream=r), bit for bit.

    The index is allocated before any draw, so a count past memory fails
    at once. The uniforms come from numpy Philox passes
    (rng._uniform_blocks) of about SAMPLE_BLOCK blocks each, holding only
    the blocks with an uncertain edge: an edge at 0 or 1 is blocked or
    open whatever its uniform. Each batch's u < p flags are packed into
    model-order masks, numbered in the order they first appear, and each
    distinct mask is made a world once. A model with every edge at 0 or 1 returns its one world and
    draws nothing.
    """
    index = np.zeros(replications, dtype=np.intp)
    edge_ids, p, fixed = model._draw
    if fixed is not None:
        return [fixed], index
    uncertain = np.flatnonzero((p > 0) & (p < 1))
    blocks = np.unique(uncertain >> 2)
    # uncertain edge i's uniform is lane i % 4 of block i // 4
    columns = np.searchsorted(blocks, uncertain >> 2) * 4 + (uncertain & 3)
    chunk = max(1, SAMPLE_BLOCK // blocks.size)
    flags = np.tile(p == 1, (min(chunk, replications), 1))
    mask_bytes = np.dtype((np.void, -(-p.size // 8)))
    seen: dict[bytes, int] = {}
    for start in range(0, replications, chunk):
        count = min(chunk, replications - start)
        u = rng._uniform_blocks(seed, rng.REALIZATIONS, start, count, blocks)
        flags[:count, uncertain] = u[:, columns] < p[uncertain]
        packed = np.packbits(flags[:count], axis=1, bitorder="little")
        masks, at, inverse = np.unique(
            packed.view(mask_bytes).ravel(), return_index=True, return_inverse=True
        )
        order = np.argsort(at)
        slots = np.empty(masks.size, dtype=np.intp)
        slots[order] = [seen.setdefault(m, len(seen)) for m in masks[order].tolist()]
        index[start : start + count] = slots[inverse]
    return [_world(edge_ids, int.from_bytes(m, "little")) for m in seen], index


def _world(edge_ids: tuple[str, ...], blocked: int) -> Realization:
    """The world of edge_ids with the blocked mask blocked: the states are
    valid by construction, so it skips Realization's check."""
    world = object.__new__(Realization)
    object.__setattr__(world, "edge_ids", edge_ids)
    object.__setattr__(world, "blocked", blocked)
    return world


def csv_table(text: str) -> tuple[list[str], list[list[str]]]:
    """(header, rows) of a CSV text: the first non-empty row with its
    cells stripped, then the non-empty rows after it."""
    try:
        rows = [row for row in csv.reader(io.StringIO(text)) if row]
    except csv.Error as exc:
        raise ParseError(f"bad CSV: {exc}") from None
    if not rows:
        return [], []
    return [c.strip() for c in rows[0]], rows[1:]


def read_probabilities_csv(text: str) -> dict[str, float]:
    """Parse `edge_id,p` rows into an ordered probability map."""
    header, rows = csv_table(text)
    if header != ["edge_id", "p"]:
        raise ParseError("probabilities CSV must have header edge_id,p")
    out: dict[str, float] = {}
    for row in rows:
        if len(row) != 2:
            raise ParseError(f"bad probabilities row: {row}")
        edge_id, raw = row[0].strip(), row[1].strip()
        try:
            p = float(raw)
        except ValueError:
            raise ParseError(f"probability for {edge_id!r} is not a number: {raw!r}")
        if edge_id in out:
            raise ValidationError(f"duplicate probability row for {edge_id!r}")
        out[edge_id] = p
    return out


def read_covariates_csv(text: str) -> CovariateMatrix:
    """Parse `edge_id,<name1>,...,<namek>` rows into a CovariateMatrix."""
    header, rows = csv_table(text)
    if not header:
        raise ParseError("covariates CSV is empty")
    if header[0] != "edge_id" or len(header) < 2:
        raise ParseError("covariates CSV must have header edge_id,<name1>,...")
    columns = tuple(header[1:])
    edge_ids: list[str] = []
    values: list[list[float]] = []
    for row in rows:
        if len(row) != len(header):
            raise ParseError(f"covariates row has {len(row)} fields, want {len(header)}")
        edge_ids.append(row[0].strip())
        try:
            values.append([float(x) for x in row[1:]])
        except ValueError:
            raise ParseError(f"non numeric covariate in row for {row[0]!r}")
    return CovariateMatrix(
        values=np.array(values, dtype=float),
        columns=columns,
        edge_ids=tuple(edge_ids),
    )
