"""Seeded substreams: the split rule, the reused-generator draw, the
batch draw, threads."""

from __future__ import annotations

import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from ctproute import rng

MASK64 = (1 << 64) - 1
TOP_INDEX = (1 << 56) - 1
PURPOSES = (rng.REALIZATIONS, rng.BETA_DRAWS, rng.EXPERT_MIX)
SEEDS = (0, 7, -1, -(1 << 70) + 3, 1 << 64, (1 << 64) + 5, (1 << 80) + 12345)


def literal_stream(seed: int, purpose: int, index: int) -> np.random.Generator:
    """The split rule written out: key (seed mod 2**64, purpose << 56 | index)."""
    key = np.array([seed & MASK64, purpose << 56 | index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@pytest.mark.parametrize("purpose", PURPOSES)
@pytest.mark.parametrize("index", (0, 1, 9, TOP_INDEX))
def test_substream_follows_the_split_rule(purpose, index):
    for seed in SEEDS:
        got = rng.substream(seed, purpose, index).random(9)
        assert np.array_equal(got, literal_stream(seed, purpose, index).random(9))


def test_streams_with_distinct_keys_differ():
    draws = {
        (p, i): tuple(rng.substream(3, p, i).random(2))
        for p in PURPOSES
        for i in (0, 1)
    }
    assert len(set(draws.values())) == len(draws)


def test_derive_seed_is_stable():
    assert rng.derive_seed(12345, "a", "b") == 7671757665036666293
    assert rng.derive_seed(-1, "x") == 10437111857009680579
    assert rng.derive_seed((1 << 64) - 1, "x") == rng.derive_seed(-1, "x")


@pytest.mark.parametrize("index", (-1, 1 << 56, (1 << 56) + 1))
def test_both_draws_refuse_an_index_out_of_range(index):
    with pytest.raises(ValueError, match="stream index out of range"):
        rng.substream(1, rng.REALIZATIONS, index)
    with pytest.raises(ValueError, match="stream index out of range"):
        rng.uniforms(1, rng.REALIZATIONS, index, 3)


@pytest.mark.parametrize("purpose", PURPOSES)
@pytest.mark.parametrize("index", (0, TOP_INDEX))
def test_uniforms_equal_the_first_draws_of_the_substream(purpose, index):
    # 0 to 61 uniforms: empty, inside one four-word Philox block, at and
    # across block edges
    for seed in SEEDS:
        for n in (0, 1, 3, 4, 5, 8, 60, 61):
            want = rng.substream(seed, purpose, index).random(n)
            got = rng.uniforms(seed, purpose, index, n)
            assert got.dtype == want.dtype and got.shape == (n,)
            assert np.array_equal(got, want)


def batch_rows(seed: int, purpose: int, start: int, count: int, n: int) -> np.ndarray:
    """The batch draw's rows of streams start to start + count - 1, cut to
    each stream's first n uniforms."""
    blocks = np.arange(-(-n // 4))
    return rng._uniform_blocks(seed, purpose, start, count, blocks)[:, :n]


@pytest.mark.parametrize("purpose", PURPOSES)
@pytest.mark.parametrize("start", (0, TOP_INDEX - 2))
def test_the_batch_draw_equals_uniforms_bit_for_bit(purpose, start):
    # three streams from index 0, or up to TOP_INDEX; widths inside one
    # four-word block, at and across block edges, and wide. A uint64
    # scalar that overflows warns, and pytest fails on a warning; a
    # constant cast to float64 gives other bits
    for seed in SEEDS:
        for n in (1, 3, 4, 5, 60, 401):
            got = batch_rows(seed, purpose, start, 3, n)
            want = [rng.uniforms(seed, purpose, start + i, n) for i in range(3)]
            assert got.dtype == np.float64 and got.shape == (3, n)
            assert np.array_equal(got, want)


def test_the_batch_draw_computes_the_blocks_asked_for():
    blocks = np.array([0, 3, 4, 20])
    got = rng._uniform_blocks(11, rng.REALIZATIONS, 5, 7, blocks)
    full = batch_rows(11, rng.REALIZATIONS, 5, 7, 84).reshape(7, 21, 4)
    assert np.array_equal(got, full[:, blocks].reshape(7, 16))


@pytest.mark.parametrize(
    "start, count", ((-1, 2), (TOP_INDEX, 2), (1 << 56, 1), ((1 << 56) + 1, 3))
)
def test_the_batch_draw_refuses_an_index_out_of_range(start, count):
    with pytest.raises(ValueError, match="stream index out of range"):
        rng._uniform_blocks(1, rng.REALIZATIONS, start, count, np.arange(1))


def test_uniforms_do_not_touch_a_live_substream():
    live = rng.substream(5, rng.EXPERT_MIX, 2)
    want = rng.substream(5, rng.EXPERT_MIX, 2).random(12)
    got = [live.random(3)]
    for r in range(3):
        # each call resets the one reused generator to another stream
        assert np.array_equal(
            rng.uniforms(5, rng.EXPERT_MIX, 2, 5),
            rng.substream(5, rng.EXPERT_MIX, 2).random(5),
        )
        assert np.array_equal(
            rng.uniforms(9, rng.REALIZATIONS, r, 1),
            rng.substream(9, rng.REALIZATIONS, r).random(1),
        )
        got.append(live.random(3))
    assert np.array_equal(np.concatenate(got), want)


def test_uniforms_from_four_threads_equal_the_single_threaded_draws():
    calls = [(t, 500) for t in range(4)]

    def draws(thread: int, count: int) -> list[tuple[float, ...]]:
        return [
            tuple(rng.uniforms(thread, rng.REALIZATIONS, r, 1 + (r + thread) % 9))
            for r in range(count)
        ]

    want = [draws(t, count) for t, count in calls]
    # a short switch interval makes threads swap between the state reset
    # and the draw of an unguarded call
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(draws, *call) for call in calls]
            got = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == want


def test_importing_the_cli_does_not_load_numpy_random():
    # the reused generator is made on the first draw, not at import
    code = (
        "import json, sys\n"
        "import numpy\n"
        "eager = 'numpy.random' in sys.modules\n"
        "import ctproute.cli\n"
        "print(json.dumps([eager, 'numpy.random' in sys.modules]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    eager, loaded = json.loads(proc.stdout)
    if eager:
        pytest.skip("this numpy loads numpy.random with numpy itself")
    assert not loaded
