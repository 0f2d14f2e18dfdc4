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
and draws. _uniform_blocks() goes further and computes Philox4x64-10
itself in numpy (Salmon, Moraes, Dror & Shaw, SC'11), its ten rounds
broadcast over many streams and counter blocks in one pass, bit for bit
what uniforms() draws. A simulation takes its worlds' uniforms that way,
a batch of replicates at a time; sample_realization, one world, takes
them from uniforms(); the elicitation's normal draws build their
generator with substream().
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

# Philox4x64-10's round multipliers and key increments, as numpy's
# Philox uses them. Every constant mixed with a uint64 is a uint64: under
# numpy 1.x's value-based casting a Python int and a uint64 scalar give
# a float64
_ROUND_MULTIPLIERS = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_KEY_BUMPS = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_ONE, _11, _32 = np.uint64(1), np.uint64(11), np.uint64(32)
_LOW32 = np.uint64(0xFFFFFFFF)
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


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The high and low 64-bit words of m * x, for a constant m below
    2**64, from 32-bit halves: no partial sum below can pass 2**64."""
    m_hi, m_lo = np.uint64(m >> 32), np.uint64(m & 0xFFFFFFFF)
    x_hi, x_lo = x >> _32, x & _LOW32
    lh = m_lo * x_hi
    mid = (m_lo * x_lo >> _32) + (lh & _LOW32) + m_hi * x_lo
    return m_hi * x_hi + (mid >> _32) + (lh >> _32), np.uint64(m) * x


def _uniform_blocks(
    seed: int, purpose: int, start: int, count: int, blocks: np.ndarray
) -> np.ndarray:
    """The uniforms of the 4-lane Philox blocks `blocks` (sorted block
    numbers) of streams start to start + count - 1: row i, columns
    4j to 4j + 3 hold uniforms(seed, purpose, start + i, n)[4b:4b + 4]
    for b = blocks[j], bit for bit.

    numpy's Philox increments its zero counter before each block, so
    block b is the ten rounds of Philox4x64-10 on the counter (b + 1, 0,
    0, 0) under the stream's key, computed here for every row and block
    at once. Lanes x1 to x3 start one element wide and x0 one row wide,
    and numpy broadcasting widens each to every row only once it mixes
    in the stream's key word k1.
    """
    if start < 0 or start + count > 1 << _PURPOSE_SHIFT:
        bad = start if start < 0 else start + count - 1
        raise ValueError(f"stream index out of range: {bad}")
    m0, m1 = _ROUND_MULTIPLIERS
    w0, w1 = _KEY_BUMPS
    k0 = seed & _MASK64
    k1 = np.arange(start, start + count, dtype=np.uint64)[:, None]
    k1 |= np.uint64(purpose << _PURPOSE_SHIFT)
    # arrays, not numpy scalars: a uint64 scalar product that wraps warns
    x0 = np.asarray(blocks, dtype=np.uint64) + _ONE
    x1 = x2 = x3 = np.zeros(1, dtype=np.uint64)
    for r in range(10):
        hi0, lo0 = _mulhilo(m0, x0)
        hi1, lo1 = _mulhilo(m1, x2)
        x0 = hi1 ^ x1 ^ np.uint64(k0 + r * w0 & _MASK64)
        x1 = lo1
        x2 = hi0 ^ x3 ^ (k1 + np.uint64(r * w1 & _MASK64))
        x3 = lo0
    lanes = np.stack((x0, x1, x2, x3), axis=-1)
    # Generator.random's double: the top 53 bits over 2**53
    return (lanes.reshape(count, -1) >> _11) * (1.0 / 9007199254740992.0)


def derive_seed(seed: int, *labels: str) -> int:
    """Derive a child master seed from string labels, stably across runs."""
    text = "|".join([str(seed & _MASK64), *labels])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")
