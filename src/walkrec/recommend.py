"""Top-K ranking from score vectors, with train masking and the popularity baseline."""

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .blas import one_thread
from .factorization import FactorModel
from .tables import check_rows, read_table, write_table

__all__ = ["RankedList", "top_k", "item_pop_scores", "train_masks", "recommend_topk",
           "save_recommendations", "load_recommendations"]


@dataclass
class RankedList:
    """Ranked (item, score) pairs for one user, best first.

    Scores are non-increasing; ties are broken by ascending item index, so
    the list is deterministic across runs and platforms.
    """

    user: int
    items: list  # [(item_index, score), ...], length <= requested K

    def item_indices(self):
        return [i for i, _ in self.items]


def top_k(user, scores, k_items, mask=frozenset()) -> RankedList:
    """The k_items highest-scoring unmasked items for one user.

    Args:
        user: user index, recorded on the result.
        scores: array of per-item scores, length n_items.
        k_items: list length cap, >= 1; shorter if the catalog runs out.
        mask: item indices excluded from ranking (e.g. training items);
            each must be in [0, n_items), or ValueError names it.
    """
    if k_items < 1:
        raise ValueError("k_items must be >= 1")
    scores = np.asarray(scores, dtype=np.float64)
    if mask:
        cols = np.fromiter(mask, np.int64, len(mask))
        _check_mask(user, cols, len(scores))
        keep = np.ones(len(scores), dtype=bool)
        keep[cols] = False
        valid = np.flatnonzero(keep)
    else:
        valid = np.arange(len(scores))
    neg = -scores[valid]
    k = min(int(k_items), len(neg))
    if k == 0:
        return RankedList(user, [])
    # candidates: every item not below the k-th best score (NaNs too, which
    # the sort puts last); the stable sort keeps ties in ascending item order
    kth = np.partition(neg, k - 1)[k - 1]
    cand = np.flatnonzero(~(neg > kth))
    chosen = valid[cand[np.argsort(neg[cand], kind="stable")[:k]]]
    return RankedList(user, [(int(i), float(scores[i])) for i in chosen])


def item_pop_scores(train, n_items):
    """Training popularity per item: score(i) = number of users who bought i."""
    counts = np.zeros(n_items, dtype=np.float64)
    for _, i in train:
        counts[i] += 1.0
    return counts


def train_masks(train):
    """Per-user sets of training items, keyed by user: the masks recommend_topk takes."""
    masks = {}
    for u, i in train:
        masks.setdefault(u, set()).add(i)
    return masks


def _check_mask(users, cols, n_items):
    """Raise ValueError naming the first entry of cols outside [0, n_items).

    users is the one user of every entry, or each entry's user.
    """
    bad = np.flatnonzero((cols < 0) | (cols >= n_items))
    if bad.size:
        j = bad[0]
        raise ValueError(f"mask of user {np.broadcast_to(users, cols.shape)[j]}: "
                         f"item {cols[j]} not in [0, {n_items})")


def _rank_rows(first_user, scores, k, masks):
    """top_k(first_user + r, scores[r], k, masks[r]) for every row r of a block.

    scores is overwritten.  Negated scores of masked items become NaN, so a
    row-wise partition puts them last with the real NaNs.  A row's
    candidates are its items at or above its k-th best score, or all its
    unmasked items when that k-th best is NaN.  One lexsort orders every
    candidate by (row, -score with NaN last, item), as top_k's stable sort
    orders one row, and each row keeps its first k.
    """
    neg = np.asarray(scores, dtype=np.float64)
    np.negative(neg, out=neg)
    rows = np.repeat(np.arange(len(masks)), [len(mk) for mk in masks])
    cols = np.fromiter(chain.from_iterable(masks), np.int64, len(rows))
    _check_mask(first_user + rows, cols, neg.shape[1])
    neg[rows, cols] = np.nan
    kth = np.partition(neg, k - 1, axis=1)[:, k - 1:k]
    cand = neg <= kth
    for u in np.flatnonzero(np.isnan(kth[:, 0])).tolist():
        cand[u] = True
        cand[u, list(masks[u])] = False
    r, c = np.divmod(np.flatnonzero(cand), neg.shape[1])
    v = neg[r, c]
    order = np.lexsort((c, v, r))
    r, c, v = r[order], c[order], v[order]
    counts = np.bincount(r, minlength=len(masks))
    starts = np.cumsum(counts) - counts
    keep = np.arange(len(r)) < (starts + k)[r]
    items = list(zip(c[keep].tolist(), np.negative(v[keep]).tolist()))
    ends = np.cumsum(np.minimum(counts, k)).tolist()
    return [RankedList(first_user + u, items[a:b])
            for u, (a, b) in enumerate(zip([0, *ends], ends))]


def recommend_topk(model: FactorModel, k_items, masks=None, chunk=1024):
    """Ranked lists for every user from a factor model.

    Each block of chunk users is scored with one product on one BLAS
    thread, so the scores do not depend on the caller's thread count, and
    ranked in one pass; the lists equal top_k's on each user's score row.

    Args:
        model: fitted factors.
        k_items: per-user list length, >= 1.
        masks: optional dict of per-user sets of item indices to exclude,
            keyed by user; missing entries mean no mask.  Each index must
            be in [0, n_items), or ValueError names the user and index.
    Returns:
        List of RankedList, one per user in index order.
    """
    if k_items < 1:
        raise ValueError("k_items must be >= 1")
    m, n = model.n_users, model.n_items
    k = min(int(k_items), n)
    if k == 0:
        return [RankedList(u, []) for u in range(m)]
    masks = masks or {}
    out = []
    for lo in range(0, m, chunk):
        hi = min(lo + chunk, m)
        with one_thread():
            scores = model.X[lo:hi] @ model.Y.T
        out += _rank_rows(lo, scores, k, [masks.get(u, ()) for u in range(lo, hi)])
    return out


def save_recommendations(recs, path):
    """Write 'u<TAB>rank<TAB>i<TAB>score' lines; rank is 1-based."""
    lengths = np.array([len(rl.items) for rl in recs], dtype=np.int64)
    users = np.repeat([rl.user for rl in recs], lengths)
    ranks = np.arange(len(users)) - np.repeat(np.cumsum(lengths) - lengths, lengths) + 1
    items = [i for rl in recs for i, _ in rl.items]
    scores = [s for rl in recs for _, s in rl.items]
    write_table(path, ("%d", "%d", "%d", "%.17g"), (users, ranks, items, scores))


def load_recommendations(path, n_users):
    """Read ranked lists written by save_recommendations.

    Users with no lines come back as empty RankedLists, so the result
    always covers users 0..n_users-1.  Each user's ranks run 1, 2, ...
    in file order.
    """
    _, (users, ranks, items, scores) = read_table(path, (np.int64,) * 3 + (np.float64,))
    check_rows(path, (users < 0) | (users >= n_users), "user {} out of range", users)
    order = np.argsort(users, kind="stable")
    counts = np.bincount(users, minlength=n_users)
    expected = np.empty_like(ranks)
    expected[order] = np.arange(len(users)) - np.repeat(np.cumsum(counts) - counts, counts) + 1
    check_rows(path, ranks != expected, "ranks out of order")
    pairs = list(zip(items[order].tolist(), scores[order].tolist()))
    ends = np.cumsum(counts).tolist()
    return [RankedList(u, pairs[a:b]) for u, (a, b) in enumerate(zip([0, *ends], ends))]
