"""O(edges) generator for the cell-scaled workload's interaction set.

It reproduces the shape of the bundled synthetic dataset at a larger
size: aligned groups of users and items, per-user degree 4 (or 12 with
probability 0.125, about 5 on average) and about 90% of each user's
edges inside the user's own group.  Unlike ``walkrec.generate_synthetic``
it never draws a dense users x items matrix: it draws each user's degree
and in-group count, then samples the items without replacement by
redrawing the few duplicate picks.  The output is a pure function of the
seed.
"""

import numpy as np

N_GROUPS = 80
GROUP_SIZE = 50
BULK_DEGREE = 4
HEAVY_DEGREE = 12
HEAVY_FRACTION = 0.125
IN_GROUP = 0.9


def generate_pairs(seed):
    """Return the interactions as a set of ("u<idx>", "i<idx>") key pairs.

    Users and items are both N_GROUPS * GROUP_SIZE, and user u and item i
    belong to groups u // GROUP_SIZE and i // GROUP_SIZE.  Keys are
    zero-padded so lexicographic order matches index order.
    """
    rng = np.random.default_rng(seed)
    n = N_GROUPS * GROUP_SIZE
    degree = np.where(rng.random(n) < HEAVY_FRACTION, HEAVY_DEGREE, BULK_DEGREE)
    n_in = rng.binomial(degree, IN_GROUP)
    user = np.repeat(np.arange(n), degree)
    # edge j is the k-th edge of its user; the first n_in[u] stay in-group
    k = np.arange(len(user)) - np.repeat(np.cumsum(degree) - degree, degree)
    inside = k < n_in[user]
    start = user // GROUP_SIZE * GROUP_SIZE

    def draw(idx):
        "Fresh item draws for edge positions idx, in-group or out-of-group."
        out = np.empty(len(idx), dtype=np.int64)
        ins = inside[idx]
        out[ins] = start[idx[ins]] + rng.integers(GROUP_SIZE, size=int(ins.sum()))
        j = rng.integers(n - GROUP_SIZE, size=int((~ins).sum()))
        st = start[idx[~ins]]
        out[~ins] = np.where(j < st, j, j + GROUP_SIZE)
        return out

    item = draw(np.arange(len(user)))
    while True:
        _, first = np.unique(user * n + item, return_index=True)
        dup = np.setdiff1d(np.arange(len(user)), first)
        if not len(dup):
            break
        item[dup] = draw(dup)

    width = len(str(n - 1))
    return {(f"u{u:0{width}d}", f"i{i:0{width}d}") for u, i in zip(user.tolist(), item.tolist())}
