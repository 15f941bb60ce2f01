"""Shared test fixtures and independent oracle implementations.

The oracles here deliberately re-derive expected values by brute force
(loop enumeration, dense evaluation, direct formulas) so the library
paths they check are never used to produce their own expected output.
"""

import math
from collections import Counter

import numpy as np
import scipy.sparse as sp

from walkrec.pairs import PairCorpusStats
from walkrec.walks import WalkCorpus


def corpus_from_tokens(token_lines, n_users, n_items):
    """Build a WalkCorpus from equal-length lines like 'u0 i1 u2 i1'."""
    walks = []
    for line in token_lines:
        seq = []
        for tok in line.split():
            idx = int(tok[1:])
            seq.append(idx if tok[0] == "u" else n_users + idx)
        walks.append(np.asarray(seq, dtype=np.int64))
    return WalkCorpus(walks, n_users, n_items)


def oracle_walk(g, seed, code, b, gamma):
    """Walk b from global code `code` by the scalar loop: one stream keyed by
    (seed, code, b), successor row[int(r[t] * len(row))] at every step."""
    r = np.random.default_rng((seed, code, b)).random(gamma - 1)
    walk = [code]
    cur = code
    for t in range(gamma - 1):
        row = g.indices[g.indptr[cur]:g.indptr[cur + 1]]
        cur = int(row[int(r[t] * len(row))])
        walk.append(cur)
    return walk


def oracle_expected_pairs(edges, n_users, n_items, beta, gamma, sigma):
    """Expected pair counts of sample_pairs(generate_walks(...), sigma), with no
    walk sampled: a dense (n_users, n_items) array.

    P is the row-normalised transition matrix of the bipartite graph and
    p_j = p_0 P^j the expected number of walks at each vertex at step j,
    starting from beta walks at every non-isolated vertex.  A vertex pair
    at positions j and j + d contributes (p_j)_x (P^d)_{x,y}, so
    E[count(u, i)] = sum over j and odd d <= sigma with j + d < gamma of
    (p_j)_u (P^d)_{u,i} + (p_j)_i (P^d)_{i,u}.
    """
    m, v = n_users, n_users + n_items
    adj = np.zeros((v, v))
    for u, i in edges:
        adj[u, m + i] = adj[m + i, u] = 1.0
    deg = adj.sum(axis=1)
    step = np.divide(adj, deg[:, None], out=np.zeros_like(adj), where=deg[:, None] > 0)
    powers = {d: np.linalg.matrix_power(step, d) for d in range(1, sigma + 1, 2)}
    occupancy = beta * (deg > 0).astype(float)
    expected = np.zeros((v, v))  # [x, y]: walks at x at step j and at y at step j + d
    for j in range(gamma):
        for d, reach in powers.items():
            if j + d < gamma:
                expected += occupancy[:, None] * reach
        occupancy = occupancy @ step
    return expected[:m, m:] + expected[m:, :m].T


def oracle_top_k(scores, k_items, mask=()):
    """The k_items best unmasked (item, score) pairs of one score row, by
    Python's sorted() keyed by (NaN last, -score, item)."""
    masked = set(mask)
    valid = [i for i in range(len(scores)) if i not in masked]
    order = sorted(valid, key=lambda i: (math.isnan(scores[i]),
                                         0.0 if math.isnan(scores[i]) else -scores[i], i))
    return [(i, float(scores[i])) for i in order[:k_items]]


def oracle_pair_multiset(corpus, sigma):
    """Brute-force pair enumeration: loop every walk, every user position,
    every stride-2 offset in [j - sigma, j + sigma] except j itself."""
    m = corpus.n_users
    pairs = Counter()
    for walk in corpus.walks:
        length = len(walk)
        for j in range(length):
            if walk[j] >= m:
                continue
            for k in range(j - sigma, j + sigma + 1, 2):
                if k == j or k < 0 or k >= length:
                    continue
                pairs[(int(walk[j]), int(walk[k]) - m)] += 1
    return pairs


def stats_from_multiset(multiset, n_users, n_items):
    """PairCorpusStats built directly from a raw (u, i) -> count multiset."""
    rows = np.asarray([u for u, _ in multiset], dtype=np.int64)
    cols = np.asarray([i for _, i in multiset], dtype=np.int64)
    data = np.asarray([multiset[k] for k in multiset], dtype=np.int64)
    pair = sp.coo_matrix((data, (rows, cols)), shape=(n_users, n_items)).tocsr()
    user_count = np.zeros(n_users, dtype=np.int64)
    item_count = np.zeros(n_items, dtype=np.int64)
    for (u, i), c in multiset.items():
        user_count[u] += c
        item_count[i] += c
    return PairCorpusStats(pair, user_count, item_count, int(sum(multiset.values())))


def oracle_sppmi(multiset, shift_k=1.0):
    """Direct shifted-positive-PMI recomputation from the raw multiset."""
    total = sum(multiset.values())
    cnt_u = Counter()
    cnt_i = Counter()
    for (u, i), c in multiset.items():
        cnt_u[u] += c
        cnt_i[i] += c
    out = {}
    for (u, i), c in multiset.items():
        val = math.log(c * total / (cnt_u[u] * cnt_i[i])) - math.log(shift_k)
        if val > 0:
            out[(u, i)] = val
    return out


def oracle_dense_loss(s_dense, x, y, lam):
    """Objective by the naive double loop over every (u, i) cell."""
    m, n = s_dense.shape
    total = 0.0
    for u in range(m):
        for i in range(n):
            total += (s_dense[u, i] - float(x[u] @ y[i])) ** 2
    total += lam * (float(np.sum(x * x)) + float(np.sum(y * y)))
    return total


def random_multiset(rng, max_users=50, max_items=50, max_total=10_000):
    """A random sparse pair multiset within the given bounds."""
    m = int(rng.integers(2, max_users + 1))
    n = int(rng.integers(2, max_items + 1))
    n_pairs = int(rng.integers(1, min(m * n, 200) + 1))
    flat = rng.choice(m * n, size=n_pairs, replace=False)
    multiset = Counter()
    budget = max_total
    for f in flat:
        c = int(rng.integers(1, 50))
        c = min(c, budget)
        if c <= 0:
            break
        multiset[(int(f) // n, int(f) % n)] = c
        budget -= c
    if not multiset:
        multiset[(0, 0)] = 1
    return multiset, m, n
