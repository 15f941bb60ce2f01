"""Top-K ranking from score vectors, with train masking and the popularity baseline."""

from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .factorization import FactorModel

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
        mask: item indices excluded from ranking (e.g. training items).
    """
    if k_items < 1:
        raise ValueError("k_items must be >= 1")
    scores = np.asarray(scores, dtype=np.float64)
    if mask:
        keep = np.ones(len(scores), dtype=bool)
        keep[list(mask)] = False
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
    neg[rows, np.fromiter(chain.from_iterable(masks), np.int64, len(rows))] = np.nan
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

    Each block of chunk users is scored with one product and ranked in one
    pass; the lists equal top_k's on each user's score row.

    Args:
        model: fitted factors.
        k_items: per-user list length, >= 1.
        masks: optional dict of per-user sets of item indices to exclude,
            keyed by user; missing entries mean no mask.
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
        out += _rank_rows(lo, model.X[lo:hi] @ model.Y.T, k,
                          [masks.get(u, ()) for u in range(lo, hi)])
    return out


def save_recommendations(recs, path):
    """Write 'u<TAB>rank<TAB>i<TAB>score' lines; rank is 1-based."""
    with Path(path).open("w", encoding="utf-8", newline="\n") as f:
        for rl in recs:
            for rank, (i, score) in enumerate(rl.items, start=1):
                f.write(f"{rl.user}\t{rank}\t{i}\t{score:.17g}\n")


def load_recommendations(path, n_users):
    """Read ranked lists written by save_recommendations.

    Users with no lines come back as empty RankedLists, so the result
    always covers users 0..n_users-1.
    """
    lists = [RankedList(u, []) for u in range(n_users)]
    with Path(path).open("r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            u, rank, i, score = line.split("\t")
            u = int(u)
            if not 0 <= u < n_users:
                raise ValueError(f"{path}: line {lineno}: user {u} out of range")
            if int(rank) != len(lists[u].items) + 1:
                raise ValueError(f"{path}: line {lineno}: ranks out of order")
            lists[u].items.append((int(i), float(score)))
    return lists
