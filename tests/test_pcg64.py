"""Vectorized PCG64 streams against numpy's own default_rng((seed, a, b))."""

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
    starts = [u for u in range(m) if len(g.user_adj[u])]
    starts += [m + i for i in range(n) if len(g.item_adj[i])]
    for row in range(len(corpus.walks)):
        code, b = starts[row // cfg.beta], row % cfg.beta
        assert corpus.walks[row].tolist() == oracle_walk(g, cfg.seed, code, b, cfg.gamma)
