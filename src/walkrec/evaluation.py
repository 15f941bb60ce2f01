"""Ranking metrics averaged over all users, plus the experiment grid driver.

Every user counts toward the averages, including users whose test set is
empty; they contribute zeros, which keeps the metrics honest under
extreme sparsity.
"""

import json
from dataclasses import dataclass, field, fields, replace
from itertools import groupby
from pathlib import Path

import numpy as np

from .blas import one_thread
from .confidence import co_matrix, sppmi_matrix
from .config import ExperimentGrid, PipelineSettings
from .datasets import Dataset, as_pairs, sparsify
from .factorization import AlsConfig, FactorModel, als_fit
from .graph import build_graph
from .knobs import conform
from .pairs import sample_pairs
from .parallel import map_blocks
from .recommend import Rankings, item_pop_scores, recommend_topk
from .tables import write_table
from .walks import WalkConfig, draw_walks, generate_walks

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
        recs: the Rankings of users 0..M-1, or one RankedList per user in
            order; a negative ranked item raises ValueError naming its user.
        test: ground-truth (u, i) pairs, as an array or any iterable.
        cutoffs: distinct integer k values >= 1.
        config: optional hyperparameter echo stored on the report.
    """
    cutoffs = conform("cutoffs", tuple(cutoffs), tuple[int, ...], min=1, distinct=True)
    recs = Rankings.of(recs)
    m = len(recs)
    test = as_pairs(test)
    bad = np.flatnonzero((test[:, 0] < 0) | (test[:, 0] >= m) | (test[:, 1] < 0))
    if bad.size:
        u, i = test[bad[0]]
        raise ValueError(f"test pair ({u}, {i}) has a user outside [0, {m}) or a negative item")
    users, rank, items = recs.users(), recs.ranks(), recs.items
    # an item above every test item never hits, so it is left out of the codes
    n = 1 + int(test[:, 1].max(initial=0))
    if m * n > np.iinfo(np.int64).max:
        raise ValueError(f"{m} users x {n} items overflow the int64 (user, item) codes")
    kept = np.flatnonzero(items < n)
    # an item listed twice for a user counts once, at its first rank
    codes, first = np.unique(users[kept] * n + items[kept], return_index=True)
    hit = kept[first[np.isin(codes, test[:, 0] * n + test[:, 1])]]
    truth = np.bincount(test[:, 0], minlength=m)[:m]

    precision, recall, f1 = {}, {}, {}
    for k in cutoffs:
        hits = np.bincount(users[hit[rank[hit] <= k]], minlength=m)
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


def run_cell(dataset: Dataset, st: PipelineSettings, _inputs=None) -> MetricsReport:
    """One pipeline pass: sparsify, walk, count, score, factorize, rank, evaluate.

    Evaluation always uses the unsparsified test split.  The inputs
    (_cell_inputs, from a fresh memo) are built first, so the walk corpus
    and pair counts are freed before the fit.  A grid passes each cell's
    prebuilt (train, scores) as _inputs, with identical results.
    """
    if _inputs is None:  # the cell's corpus and pair counts die with this memo
        _inputs = _cell_inputs(dataset, st, {})
    train, s = _inputs
    model = s if st.measure == "itempop" else als_fit(s, _stage_config(AlsConfig, st))
    recs = recommend_topk(model, st.k_items, train if st.mask_train else None)
    return evaluate(recs, dataset.test, st.cutoffs, config=st.echo())


def _stage_config(cls, st):
    "Stage config class cls with each field taken by name from the cell settings st."
    return cls(**{f.name: getattr(st, f.name) for f in fields(cls)})


def _cell_inputs(dataset: Dataset, st: PipelineSettings, memo):
    """(train, scores) of one cell: its sparsified training pairs, and the
    rank-1 popularity model score(u, i) = 1 * pop_i (itempop), the binary
    matrix (mf) or the co/PMI confidence.

    memo is shared by the cells of one (keep_fraction, seed, beta, gamma)
    group: it holds their training set, walk corpus and pair counts per sigma.
    The corpus is left undrawn, so its pairs are counted as its walks are
    drawn and no rows are kept, unless memo["draw"] is true (a group that
    counts several windows): its rows are then drawn once and kept.
    """
    m, n = dataset.n_users, dataset.n_items
    if "train" not in memo:
        memo["train"] = sparsify(dataset.train, st.keep_fraction, st.seed)
    train = memo["train"]
    if st.measure == "itempop":
        return train, FactorModel(np.ones((m, 1)), item_pop_scores(train, n)[:, None])
    if st.measure == "mf":
        import scipy.sparse as sp

        return train, sp.csr_matrix((np.ones(len(train)), (train[:, 0], train[:, 1])),
                                    shape=(m, n))
    if "corpus" not in memo:
        g = build_graph(train, m, n)
        with draw_walks(memo.get("draw", False)):
            memo["corpus"] = generate_walks(g, _stage_config(WalkConfig, st))
    if ("pairs", st.sigma) not in memo:
        memo["pairs", st.sigma] = sample_pairs(memo["corpus"], st.sigma)
    stats = memo["pairs", st.sigma]
    return train, co_matrix(stats) if st.measure == "co" else sppmi_matrix(stats, st.shift_k)


def run_experiment(dataset: Dataset, base: PipelineSettings, grid: ExperimentGrid):
    """Run every grid cell and return its MetricsReport rows in grid order.

    Every cell's inputs are built first on the calling thread, one
    (keep_fraction, seed, beta, gamma) group at a time, its cells in grid
    order sharing one memo: one walk corpus, so a window-size sweep
    isolates the window effect, and one pair count per sigma.  A group of
    one sigma counts its pairs as its walks are drawn; a group of several
    draws its corpus once and counts each sigma from it.  Each memo
    is freed before the next group's walks, so one corpus is alive at a
    time.  The cells are then fitted, ranked and evaluated in parallel
    (map_blocks) on one BLAS thread, pinned once here.  A cell's nested
    blocks run inline, so its bytes do not depend on the thread count,
    and the first error in grid order is raised.
    """
    cells = [replace(base, measure=measure, sigma=sigma, keep_fraction=keep, seed=seed)
             for measure in grid.measures for sigma in grid.sigmas
             for keep in grid.keep_fractions for seed in grid.seeds]
    inputs = [None] * len(cells)
    key = lambda j: (cells[j].keep_fraction, cells[j].seed, cells[j].beta, cells[j].gamma)
    for _, group in groupby(sorted(range(len(cells)), key=key), key):  # grid order in a group
        group = list(group)
        windows = {cells[j].sigma for j in group if cells[j].measure in ("co", "pmi")}
        memo = {"draw": len(windows) > 1}
        for j in group:
            inputs[j] = _cell_inputs(dataset, cells[j], memo)
        del memo  # the last reference to the group's corpus and pair counts
    with one_thread():
        return map_blocks(lambda j: run_cell(dataset, cells[j], _inputs=inputs[j]),
                          range(len(cells)))


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
