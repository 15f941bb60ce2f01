"""Top-K ranking from score vectors, with train masking and the popularity baseline."""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .factorization import FactorModel

__all__ = ["RankedList", "top_k", "item_pop_scores", "recommend_topk",
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


def recommend_topk(model: FactorModel, k_items, masks=None, chunk=1024):
    """Ranked lists for every user from a factor model.

    Args:
        model: fitted factors.
        k_items: per-user list length.
        masks: optional per-user sets of item indices to exclude, indexed
            by user (dict or list); missing entries mean no mask.
    Returns:
        List of RankedList, one per user in index order.
    """
    m = model.n_users
    out = []
    for lo in range(0, m, chunk):
        hi = min(lo + chunk, m)
        block = model.X[lo:hi] @ model.Y.T
        for u in range(lo, hi):
            out.append(top_k(u, block[u - lo], k_items, _mask_for(masks, u)))
    return out


def _mask_for(masks, u):
    if masks is None:
        return frozenset()
    if isinstance(masks, dict):
        return masks.get(u, frozenset())
    return masks[u]


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
