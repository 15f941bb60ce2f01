"""Ranking metrics averaged over all users, plus the experiment grid driver.

Every user counts toward the averages, including users whose test set is
empty; they contribute zeros, which keeps the metrics honest under
extreme sparsity.
"""

import json
from dataclasses import dataclass, field, replace
from itertools import chain
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .confidence import co_matrix, sppmi_matrix
from .config import CELL_MEASURES, ExperimentGrid, PipelineSettings
from .datasets import Dataset, as_pairs, sparsify
from .factorization import AlsConfig, als_fit
from .graph import build_graph
from .pairs import sample_pairs
from .recommend import _rank_users, item_pop_scores, recommend_topk
from .tables import write_table
from .walks import WalkConfig, generate_walks

__all__ = ["MetricsReport", "PipelineSettings", "ExperimentGrid", "evaluate",
           "run_cell", "run_experiment", "write_report_tsv", "write_report_json"]


@dataclass
class MetricsReport:
    """Mean precision/recall/F1 per cutoff, over all users."""

    cutoffs: tuple
    precision: dict  # k -> mean precision@k
    recall: dict
    f1: dict
    user_count: int
    config: dict = field(default_factory=dict)


def evaluate(recs, test, cutoffs, config=None) -> MetricsReport:
    """Average precision@k, recall@k, F1@k over every user.

    Args:
        recs: one RankedList per user, covering indices 0..M-1 in order.
        test: ground-truth (u, i) pairs, as an array or any iterable.
        cutoffs: list of k values.
        config: optional hyperparameter echo stored on the report.
    """
    cutoffs = tuple(int(k) for k in cutoffs)
    if not cutoffs or any(k < 1 for k in cutoffs):
        raise ValueError("cutoffs must be positive integers")
    for u, rl in enumerate(recs):
        if rl is None or rl.user != u:
            raise ValueError(f"missing or misordered ranked list for user {u}")

    m = len(recs)
    test = as_pairs(test)
    bad = np.flatnonzero((test[:, 0] < 0) | (test[:, 0] >= m) | (test[:, 1] < 0))
    if bad.size:
        u, i = test[bad[0]]
        raise ValueError(f"test pair ({u}, {i}) has a user outside [0, {m}) or a negative item")
    ranked = [rl.item_indices() for rl in recs]
    lengths = np.fromiter(map(len, ranked), dtype=np.int64, count=m)
    items = np.fromiter(chain.from_iterable(ranked), dtype=np.int64, count=lengths.sum())
    users = np.repeat(np.arange(m), lengths)
    rank = np.arange(len(items)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    # an item listed twice for a user counts once, at its first rank
    n = 1 + max(items.max(initial=0), test[:, 1].max(initial=0))
    codes, first = np.unique(users * n + items, return_index=True)
    hit = first[np.isin(codes, test[:, 0] * n + test[:, 1])]
    truth = np.bincount(test[:, 0], minlength=m)[:m]

    precision, recall, f1 = {}, {}, {}
    for k in cutoffs:
        hits = np.bincount(users[hit[rank[hit] < k]], minlength=m)
        p = hits / k
        r = np.divide(hits, truth, out=np.zeros(m), where=truth > 0)
        f = np.divide(2.0 * p * r, p + r, out=np.zeros(m), where=p + r > 0)
        # summed in user order, as a running total is, so report bytes do not move
        precision[k], recall[k], f1[k] = (float(np.cumsum(x)[-1] / m) for x in (p, r, f))

    return MetricsReport(
        cutoffs=cutoffs,
        precision=precision,
        recall=recall,
        f1=f1,
        user_count=m,
        config=dict(config) if config else {},
    )


def run_cell(dataset: Dataset, st: PipelineSettings, _caches=None) -> MetricsReport:
    """One pipeline pass: sparsify, walk, count, score, factorize, rank, evaluate.

    Evaluation always uses the unsparsified test split.  The optional
    caches let a grid reuse the per-(keep, seed) training set and corpus
    and the per-(keep, seed, sigma) pair counts; cached and uncached runs
    produce identical results.
    """
    if st.measure not in CELL_MEASURES:
        raise ValueError(f"unknown measure {st.measure!r}")
    m, n = dataset.n_users, dataset.n_items
    caches = _caches if _caches is not None else {"train": {}, "corpus": {}, "stats": {}}

    tkey = (st.keep_fraction, st.seed)
    if tkey not in caches["train"]:
        caches["train"][tkey] = sparsify(dataset.train, st.keep_fraction, st.seed)
    train = caches["train"][tkey]
    mask = train if st.mask_train else None

    if st.measure == "itempop":
        pop = item_pop_scores(train, n)
        recs = _rank_users(m, n, st.k_items, mask, lambda lo, hi: np.tile(pop, (hi - lo, 1)))
    else:
        if st.measure == "mf":
            s = sp.csr_matrix((np.ones(len(train)), (train[:, 0], train[:, 1])), shape=(m, n))
        else:
            ckey = (st.keep_fraction, st.seed, st.beta, st.gamma)
            if ckey not in caches["corpus"]:
                g = build_graph(train, m, n)
                caches["corpus"][ckey] = generate_walks(g, WalkConfig(st.beta, st.gamma, st.seed))
            corpus = caches["corpus"][ckey]
            skey = ckey + (st.sigma,)
            if skey not in caches["stats"]:
                caches["stats"][skey] = sample_pairs(corpus, st.sigma)
            stats = caches["stats"][skey]
            s = co_matrix(stats) if st.measure == "co" else sppmi_matrix(stats, st.shift_k)
        cfg = AlsConfig(st.factors, st.lam, st.sweeps, st.seed, st.init_scale)
        model = als_fit(s, cfg)
        recs = recommend_topk(model, st.k_items, mask)

    return evaluate(recs, dataset.test, st.cutoffs, config=st.echo())


def run_experiment(dataset: Dataset, base: PipelineSettings, grid: ExperimentGrid):
    """Run every grid cell and return its MetricsReport rows in grid order.

    Cells that share (keep_fraction, seed) reuse one walk corpus, so a
    window-size sweep isolates the window effect, and cells additionally
    sharing sigma reuse the pair counts.
    """
    caches = {"train": {}, "corpus": {}, "stats": {}}
    rows = []
    for measure in grid.measures:
        for sigma in grid.sigmas:
            for keep in grid.keep_fractions:
                for seed in grid.seeds:
                    st = replace(base, measure=measure, sigma=int(sigma),
                                 keep_fraction=float(keep), seed=int(seed))
                    rows.append(run_cell(dataset, st, _caches=caches))
    return rows


def _knob_str(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_report_tsv(reports, path):
    """Tab-separated table: a row of column names, then one row per report.

    The columns are the first report's knobs, then P, R and F1 in percent
    at each of its cutoffs.
    """
    if not reports:
        raise ValueError("no report rows to write")
    columns = [[c] + [_knob_str(rep.config[c]) for rep in reports] for c in reports[0].config]
    for k in reports[0].cutoffs:
        for name, metric in (("P", "precision"), ("R", "recall"), ("F1", "f1")):
            columns.append([f"{name}@{k}"]
                           + [f"{100.0 * getattr(rep, metric)[k]:.3f}" for rep in reports])
    write_table(path, ("%s",) * len(columns), columns)


def write_report_json(reports, path, resolved_config=None):
    """Machine-readable mirror of the TSV with full-precision metrics.

    When resolved_config is given (the CLI passes its whole validated
    config tree), it is embedded so a report is self-describing.
    """
    rows = []
    for rep in reports:
        rows.append(
            {
                "config": rep.config,
                "user_count": rep.user_count,
                "precision": {str(k): rep.precision[k] for k in rep.cutoffs},
                "recall": {str(k): rep.recall[k] for k in rep.cutoffs},
                "f1": {str(k): rep.f1[k] for k in rep.cutoffs},
            }
        )
    payload = {"rows": rows}
    if resolved_config is not None:
        payload["resolved_config"] = resolved_config
    with Path(path).open("w", encoding="utf-8", newline="\n") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
