"""Deterministic random streams.

Every stochastic routine in the package draws from a Philox counter-based
generator keyed by (master seed, stream index). Streams with distinct
indices are statistically independent, and a stream depends only on the
pair of integers, never on call order. The split rule:

* realization sampling for replicate r uses purpose REALIZATIONS, index r,
* coefficient draws use purpose BETA_DRAWS, index 0,
* expert mixing uses purpose EXPERT_MIX, index j for expert draw j.

Because a replicate's stream is a pure function of (seed, r), Monte Carlo
output is identical no matter how replicates are batched or distributed
across workers.

A Philox stream is a function of its key and counter alone, so uniforms()
draws a stream's first n uniforms without building a generator: it sets
one reused Philox to the stream's key and a zero counter, under a lock,
and draws. World sampling takes its uniforms that way, once per
replicate of a model with an uncertain edge; the elicitation's normal
draws build their generator with substream().
"""

from __future__ import annotations

import hashlib
import threading

import numpy as np

_MASK64 = (1 << 64) - 1

REALIZATIONS = 0
BETA_DRAWS = 1
EXPERT_MIX = 2

_PURPOSE_SHIFT = 56

_ZERO4 = (0, 0, 0, 0)
_lock = threading.Lock()
_reused = None  # (Philox, Generator over it), made on the first uniforms()


def substream(seed: int, purpose: int, index: int = 0) -> np.random.Generator:
    """Generator for the (purpose, index) stream under a master seed."""
    if index < 0 or index >= (1 << _PURPOSE_SHIFT):
        raise ValueError(f"stream index out of range: {index}")
    key = np.array(
        [np.uint64(seed & _MASK64), np.uint64((purpose << _PURPOSE_SHIFT) | index)],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))


def uniforms(seed: int, purpose: int, index: int, n: int) -> np.ndarray:
    """substream(seed, purpose, index).random(n), without a new generator.

    The reused Philox gets the fresh state of that stream, the key with a
    zero counter and an empty buffer, before the draw; the lock keeps the
    set and the draw of one call together across threads.
    """
    global _reused
    if index < 0 or index >= (1 << _PURPOSE_SHIFT):
        raise ValueError(f"stream index out of range: {index}")
    key = (seed & _MASK64, (purpose << _PURPOSE_SHIFT) | index)
    with _lock:
        if _reused is None:
            bits = np.random.Philox(key=0)
            _reused = bits, np.random.Generator(bits)
        bits, gen = _reused
        bits.state = {
            "bit_generator": "Philox",
            "state": {"counter": _ZERO4, "key": key},
            "buffer": _ZERO4,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return gen.random(n)


def derive_seed(seed: int, *labels: str) -> int:
    """Derive a child master seed from string labels, stably across runs."""
    text = "|".join([str(seed & _MASK64), *labels])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")
