"""Vectorized PCG64 streams against numpy's own default_rng((seed, a, b))."""

import tracemalloc

import numpy as np
import pytest

from walkrec.graph import build_graph
from walkrec.pcg64 import Pcg64Streams
from walkrec.walks import WalkConfig, generate_walks

from conftest import oracle_walk

MAX_WORD = 2**32 - 1


def draws(streams, k):
    "k draws of every stream, one row per stream."
    return np.stack([streams.random() for _ in range(k)], axis=1)


def expected(seed, a, b, k):
    return np.stack([np.random.default_rng((seed, int(x), int(y))).random(k)
                     for x, y in zip(a, b)])


# 2**32 is a two-word seed; 2**64 + 3 has three, so (seed, a, b) has five
# entropy words and exercises the mixing of words past the 4-word pool
@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 3])
def test_draws_match_default_rng(seed):
    beta = 10
    a = np.array([0, 0, 1, 4_000, 7_999, MAX_WORD])  # code 0 ... the largest code
    b = np.array([0, beta - 1, 3, beta - 1, 0, MAX_WORD])
    assert np.array_equal(draws(Pcg64Streams(seed, a, b), 25), expected(seed, a, b, 25))


def test_raw_outputs_match_bit_generator():
    streams = Pcg64Streams(9, np.array([5, 6]), np.array([0, 1]))
    got = np.stack([streams.next_uint64() for _ in range(5)], axis=1)
    want = np.stack([np.random.default_rng((9, x, y)).bit_generator.random_raw(5)
                     for x, y in ((5, 0), (6, 1))])
    assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [0, 1, 3, 70_000])
def test_draws_into_one_reused_buffer_match_default_rng(n):
    """100 draws of n streams, each written into the same output array, equal
    default_rng((seed, a, b)).random() bit for bit; 70,000 streams are more than
    one walk block holds."""
    rng = np.random.default_rng(n)
    a, b = rng.integers(0, MAX_WORD + 1, n), rng.integers(0, MAX_WORD + 1, n)
    streams = Pcg64Streams(11, a, b)
    out = np.full(n, np.nan)
    got = np.empty((n, 100))
    for t in range(100):
        assert streams.random(out=out) is out
        got[:, t] = out
    for lo in range(0, n, 5_000):
        want = expected(11, a[lo:lo + 5_000], b[lo:lo + 5_000], 100)
        assert got[lo:lo + 5_000].tobytes() == want.tobytes()


def test_seeding_holds_about_the_streams_own_words():
    """Seeding hashes the state words in pairs straight into the four state
    arrays: 100,000 streams traced 66 bytes a stream at their peak, their 65
    live bytes (state, increment, four scratch words and a carry flag), against
    about 178 while eight hashed words were alive at once."""
    n = 100_000
    a, b = np.arange(n), np.arange(n) % 10
    tracemalloc.start()
    try:
        streams = Pcg64Streams(2**32 + 5, a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 120 * n
    assert np.array_equal(draws(streams, 3)[:5], expected(2**32 + 5, a[:5], b[:5], 3))


def test_scratch_is_free_between_draws():
    """Draws that write into a scratch word, with every scratch word overwritten
    between draws, still equal default_rng((seed, a, b)).random()."""
    a, b = np.arange(40), np.arange(40) % 3
    streams = Pcg64Streams(5, a, b)
    got = []
    for _ in range(6):
        got.append(streams.random(out=streams.scratch[2].view(np.float64)).copy())
        for word in streams.scratch:
            word.fill(0xDEADBEEF)
    assert np.array_equal(np.stack(got, axis=1), expected(5, a, b, 6))


def test_no_streams():
    streams = Pcg64Streams(3, np.empty(0, np.int64), np.empty(0, np.int64))
    assert streams.random().shape == (0,)


@pytest.mark.parametrize("a,b", [([2**32], [0]), ([0], [-1])])
def test_words_past_32_bits_rejected(a, b):
    with pytest.raises(ValueError):
        Pcg64Streams(0, np.array(a), np.array(b))


def test_walks_with_a_wide_seed_match_scalar_oracle():
    rng = np.random.default_rng(4)
    m, n = 8, 6
    edges = {(int(rng.integers(m)), int(rng.integers(n))) for _ in range(20)}
    g = build_graph(edges, m, n)
    cfg = WalkConfig(beta=3, gamma=12, seed=2**40 + 1)
    corpus = generate_walks(g, cfg)
    starts = np.flatnonzero(np.diff(g.indptr)).tolist()  # codes with a neighbour
    for row in range(len(corpus.walks)):
        code, b = starts[row // cfg.beta], row % cfg.beta
        assert corpus.walks[row].tolist() == oracle_walk(g, cfg.seed, code, b, cfg.gamma)
