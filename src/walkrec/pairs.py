"""Windowed user-item pair extraction from walk corpora, with count statistics.

Every user position j in a walk is paired with the item vertices at
offsets j-sigma, j-sigma+2, ..., j+sigma that fall inside the walk.  With
an odd window the stride-2 offsets land exactly on item positions (kinds
alternate), so each sampled pair is user-item by construction.

The pairs are counted per odd distance d rather than per offset: of the
two vertices at positions p and p+d exactly one is a user, the smaller
code, so (min, max - n_users) is the pair whichever end is the centre.
Each pair is packed into one integer, u * n_items + i, so sorting the
codes of a chunk of walks orders them as the rows of a CSR matrix; the
chunk's runs of equal codes are its distinct pairs and their counts, and
merging them into the running sorted (code, count) table bounds memory
by one chunk's codes plus the distinct pairs.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .parallel import map_blocks, spans, threads
from .tables import read_matrix, write_matrix
from .walks import WalkCorpus

__all__ = ["PairCorpusStats", "sample_pairs", "merge", "save_stats", "load_stats"]

# walks counted per sort; bounds the codes held at once (fixed, not a setting)
_CHUNK_ROWS = 16384


@dataclass
class PairCorpusStats:
    """Multiset statistics of sampled (u, i) pairs.

    pair_count[u, i] is the multiplicity of (u, i); user_count[u] and
    item_count[i] are occurrence counts of u and i across all pairs;
    total is the multiset size.
    """

    pair_count: sp.csr_matrix  # int64, n_users x n_items
    user_count: np.ndarray  # int64, (n_users,)
    item_count: np.ndarray  # int64, (n_items,)
    total: int

    @property
    def n_users(self):
        return self.pair_count.shape[0]

    @property
    def n_items(self):
        return self.pair_count.shape[1]

    @classmethod
    def from_pair_count(cls, pair):
        "The statistics of a pair count matrix: its row sums, column sums and sum."
        user_count = np.asarray(pair.sum(axis=1)).ravel()
        return cls(pair, user_count, np.asarray(pair.sum(axis=0)).ravel(), int(user_count.sum()))

    @classmethod
    def empty(cls, n_users, n_items):
        return cls.from_pair_count(sp.csr_matrix((n_users, n_items), dtype=np.int64))

    def validate(self):
        """Check the marginal identities; raises ValueError if they fail."""
        row_sums = np.asarray(self.pair_count.sum(axis=1)).ravel()
        col_sums = np.asarray(self.pair_count.sum(axis=0)).ravel()
        if not np.array_equal(row_sums, self.user_count):
            raise ValueError("user_count does not match pair_count row sums")
        if not np.array_equal(col_sums, self.item_count):
            raise ValueError("item_count does not match pair_count column sums")
        if int(self.user_count.sum()) != self.total:
            raise ValueError("sum of user_count does not equal total")
        if int(self.item_count.sum()) != self.total:
            raise ValueError("sum of item_count does not equal total")
        if self.pair_count.nnz and self.pair_count.data.min() < 0:
            raise ValueError("negative pair count")


def sample_pairs(corpus: WalkCorpus, sigma: int) -> PairCorpusStats:
    """Extract the windowed (u, i) pair multiset and aggregate its counts.

    Each odd distance d <= sigma is one pass over the positions p and p+d
    of every walk: as kinds alternate, exactly one end is the user, so
    u = min and i = max - n_users, and the offsets +d and -d around a user
    centre are both counted by it.  Pairs are packed as u * n_items + i
    (int32 when every code fits, else int64) and counted _CHUNK_ROWS walks
    at a time: each chunk's codes are sorted in place, run-length counted
    and merged into the running sorted (code, count) arrays, which are the
    CSR matrix's rows in order, so the matrix is built without a sparse
    conversion or sum.

    Args:
        corpus: walk corpus; corpus.validate() checks it first.
        sigma: window size; must be an odd integer >= 1 (even offsets would
            pair users with users).
    """
    sigma = int(sigma)
    if sigma < 1:
        raise ValueError("sigma must be >= 1")
    if sigma % 2 == 0:
        raise ValueError("sigma must be odd: even offsets land on same-kind vertices")

    corpus.validate()
    m, n, walks = corpus.n_users, corpus.n_items, corpus.walks
    dtype = np.int32 if m * n < 2**31 else np.int64
    keys, counts = np.empty(0, dtype=dtype), np.empty(0, dtype=np.int64)
    distances = range(1, min(sigma, walks.shape[1] - 1) + 1, 2)
    for lo in range(0, len(walks) if distances else 0, _CHUNK_ROWS):
        # a chunk's codes live only inside _count_chunk: one chunk's at a time
        runs = _count_chunk(walks[lo:lo + _CHUNK_ROWS], distances, m, n, dtype)
        keys, counts = _merge_runs(keys, counts, *runs)
    indptr = np.searchsorted(keys, np.arange(m + 1, dtype=np.int64) * n)
    pair = sp.csr_matrix((counts, keys % n, indptr), shape=(m, n))
    return PairCorpusStats.from_pair_count(pair)


def _pair_codes(walks, distances, m, n, codes):
    "Fill codes with u * n + i for the vertices at positions p and p + d of every walk, each d in turn."
    walks = walks.astype(codes.dtype)  # codes below m + n <= m * n + 1 fit the packed dtype too
    user = np.empty_like(walks[:, 1:])
    lo = 0
    for d in distances:
        a, b = walks[:, :-d], walks[:, d:]
        code, u = codes[lo:lo + a.size].reshape(a.shape), user[:, :a.shape[1]]
        lo += a.size
        np.maximum(a, b, out=code)
        code -= m
        np.minimum(a, b, out=u)
        u *= n
        code += u  # no partial sum exceeds the final code


def _runs(codes):
    "The distinct values of sorted codes and their multiplicities."
    first = np.empty(len(codes), dtype=bool)  # where a run of equal codes starts
    first[:1] = True
    np.not_equal(codes[1:], codes[:-1], out=first[1:])
    return codes[first], np.diff(np.flatnonzero(first), append=len(first))


def _count_chunk(walks, distances, m, n, dtype):
    """The distinct pair codes of a chunk of walks, sorted, and their multiplicities.

    The chunk is cut into one piece per CPU, and each piece fills and sorts
    its own slice of the chunk's codes in parallel.  The slices' runs are
    counted and merged on the calling thread: worker threads allocate
    little, as memory one thread frees is kept apart from the others'.
    """
    pieces = spans(len(walks), threads())
    ends = np.cumsum([sum((hi - lo) * (walks.shape[1] - d) for d in distances)
                      for lo, hi in pieces])
    codes = np.empty(ends[-1], dtype=dtype)
    slices = np.split(codes, ends[:-1])

    def fill(j):
        _pair_codes(walks[slice(*pieces[j])], distances, m, n, slices[j])
        slices[j].sort()

    map_blocks(fill, range(len(pieces)))
    runs = [_runs(s) for s in slices]
    del codes, slices  # the largest array here: freed before the merges
    keys, counts = runs.pop()
    while runs:
        keys, counts = _merge_runs(keys, counts, *runs.pop())
    return keys, counts


def _merge_runs(keys, counts, new_keys, new_counts):
    "Add a sorted, duplicate-free (key, count) table to another; adds to counts in place."
    pos = np.searchsorted(keys, new_keys)
    seen = pos < len(keys)
    seen[seen] = keys[pos[seen]] == new_keys[seen]
    counts[pos[seen]] += new_counts[seen]
    fresh = ~seen
    at = pos[fresh]
    del pos  # not alive with the merged table, which sets the peak on wide windows
    at += np.arange(len(at))  # the fresh keys' slots in the merged table
    old = np.ones(len(keys) + len(at), dtype=bool)
    old[at] = False
    merged = []
    for a, b in ((keys, new_keys), (counts, new_counts)):
        out = np.empty(len(old), dtype=a.dtype)
        out[old], out[at] = a, b[fresh]
        merged.append(out)
    return merged


def merge(a: PairCorpusStats, b: PairCorpusStats) -> PairCorpusStats:
    """Elementwise sum of two count statistics over the same dimensions."""
    if a.pair_count.shape != b.pair_count.shape:
        raise ValueError(
            f"dimension mismatch: {a.pair_count.shape} vs {b.pair_count.shape}"
        )
    pair = (a.pair_count + b.pair_count).tocsr()
    return PairCorpusStats(
        pair_count=pair,
        user_count=a.user_count + b.user_count,
        item_count=a.item_count + b.item_count,
        total=a.total + b.total,
    )


def save_stats(stats: PairCorpusStats, path):
    """Write 'u<TAB>i<TAB>count' lines under a header carrying the totals."""
    write_matrix(path, stats.pair_count, "%d", {"total": stats.total})


def load_stats(path) -> PairCorpusStats:
    """Read statistics written by save_stats; marginals are recomputed."""
    header, pair = read_matrix(path, np.int64, {"total": int})
    stats = PairCorpusStats.from_pair_count(pair)
    if stats.total != header["total"]:
        raise ValueError(f"{path}: line 1: header total {header['total']} != {stats.total}")
    stats.validate()
    return stats
