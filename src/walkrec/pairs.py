"""Windowed user-item pair extraction from walk corpora, with count statistics.

Every user position j in a walk is paired with the item vertices at
offsets j-sigma, j-sigma+2, ..., j+sigma that fall inside the walk.  With
an odd window the stride-2 offsets land exactly on item positions (kinds
alternate), so each sampled pair is user-item by construction.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .walks import WalkCorpus

__all__ = ["PairCorpusStats", "sample_pairs", "merge", "save_stats", "load_stats"]


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
    def empty(cls, n_users, n_items):
        return cls(
            pair_count=sp.csr_matrix((n_users, n_items), dtype=np.int64),
            user_count=np.zeros(n_users, dtype=np.int64),
            item_count=np.zeros(n_items, dtype=np.int64),
            total=0,
        )

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

    For each offset delta the user centres are one strided slice of the
    (walks, positions) array and their partners the same slice shifted by
    delta; each offset adds one sparse count matrix, so the pairs of all
    offsets are never held at once.

    Args:
        corpus: alternating walk corpus.
        sigma: window size; must be an odd integer >= 1 (even offsets would
            pair users with users).
    """
    sigma = int(sigma)
    if sigma < 1:
        raise ValueError("sigma must be >= 1")
    if sigma % 2 == 0:
        raise ValueError("sigma must be odd: even offsets land on same-kind vertices")

    m, n = corpus.n_users, corpus.n_items
    pair = sp.csr_matrix((m, n), dtype=np.int64)
    for walks in corpus.blocks():
        is_user = walks < m
        if not np.all(is_user[:, 1:] != is_user[:, :-1]):
            raise ValueError("corpus violates user/item alternation")
        length = walks.shape[1]
        for delta in range(-sigma, sigma + 1, 2):
            lo, hi = max(0, -delta), length - max(0, delta)
            if lo >= hi:
                continue
            centre = is_user[:, lo:hi]
            u = walks[:, lo:hi][centre]
            i = walks[:, lo + delta:hi + delta][centre] - m
            pair += sp.csr_matrix((np.ones(len(u), dtype=np.int64), (u, i)), shape=(m, n))
    pair.sum_duplicates()
    user_count = np.asarray(pair.sum(axis=1)).ravel()
    return PairCorpusStats(
        pair_count=pair,
        user_count=user_count,
        item_count=np.asarray(pair.sum(axis=0)).ravel(),
        total=int(user_count.sum()),
    )


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
    coo = stats.pair_count.tocoo()
    order = np.lexsort((coo.col, coo.row))
    with Path(path).open("w", encoding="utf-8", newline="\n") as f:
        f.write(f"# users={stats.n_users} items={stats.n_items} total={stats.total}\n")
        for j in order:
            f.write(f"{coo.row[j]}\t{coo.col[j]}\t{coo.data[j]}\n")


def load_stats(path) -> PairCorpusStats:
    """Read statistics written by save_stats; marginals are recomputed."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as f:
        header = f.readline().strip()
        if not header.startswith("# users="):
            raise ValueError(f"{path}: missing stats header")
        fields = dict(part.split("=") for part in header[2:].split())
        m, n, total = int(fields["users"]), int(fields["items"]), int(fields["total"])
        rows, cols, counts = [], [], []
        for lineno, line in enumerate(f, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            u, i, c = line.split("\t")
            rows.append(int(u))
            cols.append(int(i))
            counts.append(int(c))
    pair = sp.coo_matrix(
        (np.asarray(counts, dtype=np.int64), (rows, cols)), shape=(m, n)
    ).tocsr()
    stats = PairCorpusStats(
        pair_count=pair,
        user_count=np.asarray(pair.sum(axis=1)).ravel().astype(np.int64),
        item_count=np.asarray(pair.sum(axis=0)).ravel().astype(np.int64),
        total=int(pair.data.sum()) if pair.nnz else 0,
    )
    if stats.total != total:
        raise ValueError(f"{path}: header total {total} != sum of counts {stats.total}")
    return stats
