"""Output checks run on the calls captured during one benchmark iteration.

Each check re-derives what it expects from the inputs of the call it
checks, never from golden bytes, so a change that legitimately alters
the walk corpus still passes.  ``Checks.check`` records each outcome;
``failed`` lists the ones that did not hold.
"""

import math

import numpy as np

PMI_SAMPLE = 256
PMI_RTOL = 1e-12


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed.append(what)
        return ok


def _train_sets(train):
    users, items = {}, set()
    for u, i in train:
        users.setdefault(u, set()).add(i)
        items.add(i)
    return users, items


def check_walks(ck, args, corpus, train):
    """Walk count, length gamma, kind alternation, every step a training edge."""
    g, cfg = args[0], args[1]
    m, n = g.n_users, g.n_items
    users, items = _train_sets(train)
    ck.check(len(corpus.walks) == cfg.beta * (len(users) + len(items)),
             f"walks: {len(corpus.walks)} walks, expected beta x non-isolated vertices "
             f"= {cfg.beta} x {len(users) + len(items)}")
    if not ck.check(all(len(w) == cfg.gamma for w in corpus.walks),
                    f"walks: a walk is not {cfg.gamma} vertices long"):
        return
    arr = np.stack(corpus.walks)
    is_user = arr < m
    ck.check(bool(np.all(is_user[:, 1:] != is_user[:, :-1])),
             "walks: a walk does not alternate user and item vertices")
    a, b = arr[:, :-1], arr[:, 1:]
    u = np.where(is_user[:, :-1], a, b)
    i = np.where(is_user[:, :-1], b, a) - m
    edges = np.unique(np.fromiter((uu * n + ii for uu, ii in train), dtype=np.int64,
                                  count=len(train)))
    step = (u * n + i).ravel()
    pos = np.minimum(np.searchsorted(edges, step), len(edges) - 1)
    ck.check(bool(np.all(edges[pos] == step)), "walks: a step is not a training edge")


def check_pairs(ck, args, stats):
    """Conservation identities, and the pair total implied by the walk kinds."""
    corpus, sigma = args[0], int(args[1])
    try:
        stats.validate()
        ok, why = True, ""
    except ValueError as exc:
        ok, why = False, str(exc)
    ck.check(ok, f"pairs: PairCorpusStats.validate failed: {why}")
    # every user position pairs with each in-walk offset -sigma, -sigma+2, ..., sigma
    by_length = {}
    for w in corpus.walks:
        by_length.setdefault(len(w), []).append(w)
    expect = 0
    for length, walks in by_length.items():
        is_user = np.stack(walks) < corpus.n_users
        for d in range(-sigma, sigma + 1, 2):
            expect += int(is_user[:, max(0, -d):length - max(0, d)].sum())
    ck.check(stats.total == expect,
             f"pairs: total {stats.total} != {expect} implied by the walk kinds")


def check_confidence(ck, args, kwargs, conf, seed):
    """Entries positive; a sample of pairs matches a brute-force recomputation."""
    stats = args[0]
    mat = conf.matrix.tocsr()
    ck.check(mat.nnz == 0 or float(mat.data.min()) > 0.0,
             f"confidence: a stored {conf.measure} entry is not > 0")
    coo = stats.pair_count.tocoo()
    if not coo.nnz:
        return
    rng = np.random.default_rng(seed)
    pick = rng.choice(coo.nnz, size=min(PMI_SAMPLE, coo.nnz), replace=False)
    row_sum = np.asarray(stats.pair_count.sum(axis=1)).ravel()
    col_sum = np.asarray(stats.pair_count.sum(axis=0)).ravel()
    total = int(stats.pair_count.sum())
    shift = float(args[1] if len(args) > 1 else kwargs.get("shift_k", 1.0))
    bad = 0
    for j in pick:
        u, i, c = int(coo.row[j]), int(coo.col[j]), int(coo.data[j])
        if conf.measure == "pmi":
            want = math.log(c * total / (int(row_sum[u]) * int(col_sum[i]))) - math.log(shift)
            want = want if want > 0 else 0.0
        else:
            want = float(c)
        got = float(mat[u, i])
        if abs(got - want) > PMI_RTOL * max(1.0, abs(want)):
            bad += 1
    ck.check(bad == 0, f"confidence: {bad} of {len(pick)} sampled {conf.measure} entries "
             "differ from brute-force recomputation")


def check_fit(ck, args, model):
    cfg = args[1]
    trace = np.asarray(model.loss_trace, dtype=np.float64)
    ck.check(len(trace) == cfg.sweeps and bool(np.all(np.isfinite(trace))),
             f"factorization: loss trace {trace.tolist()[:3]}... is not {cfg.sweeps} "
             "finite values")


def check_ranked(ck, args, recs, train):
    """K distinct items per user, none of them masked, scores non-increasing."""
    model, k = args[0], int(args[1])
    users, _ = _train_sets(train)
    ck.check(len(recs) == model.n_users and all(rl.user == u for u, rl in enumerate(recs)),
             "recommend: ranked lists do not cover every user in order")
    bad = 0
    for rl in recs:
        items = rl.item_indices()
        scores = [s for _, s in rl.items]
        masked = users.get(rl.user, ())
        if (len(items) != k or len(set(items)) != k or any(i in masked for i in items)
                or any(a < b for a, b in zip(scores, scores[1:]))):
            bad += 1
    ck.check(bad == 0, f"recommend: {bad} ranked lists are not {k} distinct unmasked "
             "items in score order")


def check_calls(ck, calls, train, seed):
    """Check every captured call of one iteration; returns its exact counts."""
    counts = {"walks.count": [], "walks.steps": [], "pairs.total": [], "pairs.distinct": [],
              "confidence.nnz": [], "confidence.distinct": [], "graph.edges": [],
              "factorization.final_loss": [], "factorization.sweeps": [],
              "recommend.users": []}
    graph_train = train
    for name, args, kwargs, out in calls:
        if name == "graph.build":
            graph_train = args[0]
            counts["graph.edges"].append(out.n_edges)
        elif name == "walks.generate":
            check_walks(ck, args, out, graph_train)
            counts["walks.count"].append(len(out.walks))
            counts["walks.steps"].append(sum(len(w) - 1 for w in out.walks))
        elif name == "pairs.sample":
            check_pairs(ck, args, out)
            counts["pairs.total"].append(out.total)
            counts["pairs.distinct"].append(out.pair_count.nnz)
        elif name == "confidence.score":
            check_confidence(ck, args, kwargs, out, seed)
            if out.measure == "pmi":
                counts["confidence.nnz"].append(out.matrix.nnz)
                counts["confidence.distinct"].append(args[0].pair_count.nnz)
        elif name == "factorization.fit":
            check_fit(ck, args, out)
            counts["factorization.sweeps"].append(len(out.loss_trace))
            if getattr(args[0], "measure", None) == "pmi":
                counts["factorization.final_loss"].append(float(out.loss_trace[-1]))
        elif name == "recommend.topk":
            check_ranked(ck, args, out, train)
            counts["recommend.users"].append(len(out))
    return counts
