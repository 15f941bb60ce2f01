"""Top-K ranking from score vectors, with train masking and the popularity baseline."""

from dataclasses import dataclass

import numpy as np

from .blas import one_thread
from .datasets import as_pairs
from .factorization import FactorModel
from .knobs import conform
from .parallel import map_blocks
from .tables import check_rows, read_table, write_table

__all__ = ["RankedList", "Rankings", "item_pop_scores", "recommend_topk", "save_recommendations",
           "load_recommendations"]

_RANK_ROWS = 512  # most users scored and ranked per block: smaller blocks move scores' last bits
_RANK_BYTES = 4 << 20  # most bytes of scores per block, past 1,024 items
_PARTITION_ROWS = 16  # rows per partitioned copy: a row's k-th score does not depend on it


@dataclass
class RankedList:
    """One user's ranked (item, score) pairs, best first: a view rankings[u].

    Scores are non-increasing, NaN last; ties are broken by ascending item
    index, so the list is deterministic across runs and platforms.
    """

    user: int
    items: list  # [(item_index, score), ...], length <= requested K

    def item_indices(self):
        return [i for i, _ in self.items]


@dataclass(frozen=True, eq=False)
class Rankings:
    """The ranked lists of users 0..M-1 as flat arrays in user-then-rank order.

    User u's items and scores, best first, are items[indptr[u]:indptr[u + 1]]
    and the same slice of scores; rankings[u] is that list as a RankedList,
    and iterating yields every user's in order.
    """

    indptr: np.ndarray  # (M + 1,) int64 list offsets
    items: np.ndarray  # int64 item indices
    scores: np.ndarray  # float64

    @classmethod
    def of(cls, recs):
        """A Rankings, or one RankedList per user 0..M-1 in order, as Rankings.

        Raises ValueError on a missing or misordered list, or a negative item.
        """
        if not isinstance(recs, Rankings):
            for u, rl in enumerate(recs):
                if rl is None or rl.user != u:
                    raise ValueError(f"missing or misordered ranked list for user {u}")
            flat = [pair for rl in recs for pair in rl.items]
            recs = cls(_offsets([len(rl.items) for rl in recs]),
                       np.array([i for i, _ in flat], dtype=np.int64),
                       np.array([s for _, s in flat], dtype=np.float64))
        bad = np.flatnonzero(recs.items < 0)
        if bad.size:
            j = bad[0]
            raise ValueError(f"ranked list of user {recs.users()[j]}: "
                             f"item {recs.items[j]} is negative")
        return recs

    def __len__(self):
        return len(self.indptr) - 1

    def __getitem__(self, u):
        u = range(len(self))[u]
        a, b = self.indptr[u], self.indptr[u + 1]
        return RankedList(u, list(zip(self.items[a:b].tolist(), self.scores[a:b].tolist())))

    def users(self):
        "The user of each entry."
        return np.repeat(np.arange(len(self)), np.diff(self.indptr))

    def ranks(self):
        "The 1-based rank of each entry within its user's list."
        return np.arange(len(self.items)) - np.repeat(self.indptr[:-1], np.diff(self.indptr)) + 1


def _offsets(lengths):
    "The (len(lengths) + 1,) int64 offsets of consecutive lists of the given lengths."
    return np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))


def item_pop_scores(train, n_items):
    """Training popularity per item: score(i) = number of users who bought i."""
    items = as_pairs(train)[:, 1]
    if np.any((items < 0) | (items >= n_items)):
        raise ValueError(f"a training item is not in [0, {n_items})")
    return np.bincount(items, minlength=n_items).astype(np.float64)


def _rank_rows(first_user, scores, k_items, mask):
    """(lengths, items, scores) of the top k_items of users first_user + r from
    their score rows scores[r], rows and then ranks in order.

    mask is a sorted (n, 2) pair array; a masked item of these users outside
    [0, n_items) raises ValueError naming both.  scores is overwritten.
    Negated scores of masked items become NaN, so a row-wise partition puts
    them last with the real NaNs.  A row's candidates are its items at or
    above its k-th best score, or all its unmasked items when that k-th best
    is NaN.  One lexsort orders every candidate by (row, -score with NaN
    last, item), and each row keeps its first k.
    """
    k_items = conform("k_items", k_items, int, min=1)
    neg = np.negative(scores, out=scores)
    lo, hi = np.searchsorted(mask[:, 0], [first_user, first_user + len(neg)])
    rows, cols = (mask[lo:hi] - (first_user, 0)).T
    bad = np.flatnonzero((cols < 0) | (cols >= neg.shape[1]))
    if bad.size:
        j = bad[0]
        raise ValueError(f"mask of user {first_user + rows[j]}: "
                         f"item {cols[j]} not in [0, {neg.shape[1]})")
    k = min(k_items, neg.shape[1])
    if k == 0:
        return np.zeros(len(neg), dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0)
    neg[rows, cols] = np.nan
    kth = np.empty((len(neg), 1))
    step = _PARTITION_ROWS
    for a in range(0, len(neg), step):  # partitioned copies of a few rows, not of the block
        kth[a:a + step] = np.partition(neg[a:a + step], k - 1, axis=1)[:, k - 1:k]
    cand = neg <= kth
    cand[np.isnan(kth[:, 0])] = True
    cand[rows, cols] = False
    r, c = np.divmod(np.flatnonzero(cand), neg.shape[1])
    v = neg[r, c]
    order = np.lexsort((c, v, r))
    r, c, v = r[order], c[order], v[order]
    counts = np.bincount(r, minlength=len(neg))
    starts = np.cumsum(counts) - counts
    keep = np.arange(len(r)) < (starts + k)[r]
    return np.minimum(counts, k), c[keep], np.negative(v[keep])


def recommend_topk(model: FactorModel, k_items, mask=None):
    """Ranked lists for every user from a factor model.

    Each block of users is scored with one product and ranked in one pass,
    blocks in parallel.  A block is _RANK_ROWS users or, when their scores
    would pass _RANK_BYTES (past 1,024 items), the most users whose scores
    fit, rounded down to a multiple of 64 and at least 64.  The whole call
    runs on one BLAS thread, pinned once here (the count is process-wide),
    so the scores do not depend on the caller's thread count.

    Args:
        model: fitted factors.
        k_items: per-user list length, an integer >= 1.
        mask: optional (u, i) pairs to exclude, such as the training
            pairs, as an array or any iterable.  Each user must be in
            [0, n_users) and each item in [0, n_items), or ValueError
            names the user and item.
    Returns:
        Rankings of users 0..n_users-1.
    """
    mask = as_pairs(() if mask is None else mask)
    X, Y = model.X, model.Y
    for u, i in mask[(mask[:, 0] < 0) | (mask[:, 0] >= len(X))][:1]:
        raise ValueError(f"mask pair ({u}, {i}): user {u} not in [0, {len(X)})")

    rows = min(_RANK_ROWS, max(64, _RANK_BYTES // (8 * max(len(Y), 1)) // 64 * 64))

    def rank_block(lo):
        hi = min(lo + rows, len(X))
        return _rank_rows(lo, np.matmul(X[lo:hi], Y.T, out=np.empty((hi - lo, len(Y)))),
                          k_items, mask)

    with one_thread():
        blocks = map_blocks(rank_block, range(0, max(len(X), 1), rows))  # one if no users
    lengths, items, scores = map(np.concatenate, zip(*blocks))
    return Rankings(_offsets(lengths), items, scores)


def save_recommendations(recs, path):
    """Write 'u<TAB>rank<TAB>i<TAB>score' lines; rank is 1-based.

    recs is a Rankings, or one RankedList per user 0..M-1 in order.
    """
    recs = Rankings.of(recs)
    write_table(path, ("%d", "%d", "%d", "%.17g"),
                (recs.users(), recs.ranks(), recs.items, recs.scores))


def load_recommendations(path, n_users):
    """Read the Rankings of users 0..n_users-1 written by save_recommendations.

    Users with no lines get empty lists.  Each user's ranks must run
    1, 2, ... in file order, and items must not be negative.
    """
    users, ranks, items, scores = read_table(path, (np.int64,) * 3 + (np.float64,))
    check_rows(path, (users < 0) | (users >= n_users), "user {} out of range", users)
    check_rows(path, items < 0, "item {} is negative", items)
    order = np.argsort(users, kind="stable")
    recs = Rankings(_offsets(np.bincount(users, minlength=n_users)), items[order], scores[order])
    expected = np.empty_like(ranks)
    expected[order] = recs.ranks()
    check_rows(path, ranks != expected, "ranks out of order")
    return recs
