"""Ranking metrics averaged over all users, plus the experiment grid driver.

Every user counts toward the averages, including users whose test set is
empty; they contribute zeros, which keeps the metrics honest under
extreme sparsity.
"""

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .confidence import co_matrix, sppmi_matrix
from .config import CELL_MEASURES, ExperimentGrid, PipelineSettings
from .datasets import Dataset, sparsify
from .factorization import AlsConfig, als_fit
from .graph import build_graph
from .pairs import sample_pairs
from .recommend import item_pop_scores, recommend_topk, top_k, train_masks
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
        test: set of (u, i) ground-truth pairs.
        cutoffs: list of k values.
        config: optional hyperparameter echo stored on the report.
    """
    cutoffs = tuple(int(k) for k in cutoffs)
    if not cutoffs or any(k < 1 for k in cutoffs):
        raise ValueError("cutoffs must be positive integers")
    for u, rl in enumerate(recs):
        if rl is None or rl.user != u:
            raise ValueError(f"missing or misordered ranked list for user {u}")

    test_by_user = {}
    for u, i in test:
        test_by_user.setdefault(u, set()).add(i)

    m = len(recs)
    p_sum = {k: 0.0 for k in cutoffs}
    r_sum = {k: 0.0 for k in cutoffs}
    f_sum = {k: 0.0 for k in cutoffs}
    for rl in recs:
        truth = test_by_user.get(rl.user, frozenset())
        ranked = rl.item_indices()
        for k in cutoffs:
            hits = len(truth.intersection(ranked[:k]))
            p = hits / k
            r = hits / len(truth) if truth else 0.0
            p_sum[k] += p
            r_sum[k] += r
            if p + r > 0:
                f_sum[k] += 2.0 * p * r / (p + r)

    return MetricsReport(
        cutoffs=cutoffs,
        precision={k: p_sum[k] / m for k in cutoffs},
        recall={k: r_sum[k] / m for k in cutoffs},
        f1={k: f_sum[k] / m for k in cutoffs},
        user_count=m,
        config=dict(config) if config else {},
    )


def _binary_train_matrix(train, m, n):
    "The raw interaction matrix as a sparse float matrix (MF baseline target)."
    if train:
        rows, cols = zip(*sorted(train))
    else:
        rows, cols = (), ()
    return sp.csr_matrix(
        (np.ones(len(rows)), (np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64))),
        shape=(m, n),
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
    masks = train_masks(train) if st.mask_train else {}

    if st.measure == "itempop":
        pop = item_pop_scores(train, n)
        recs = [top_k(u, pop, st.k_items, masks.get(u, frozenset())) for u in range(m)]
    else:
        if st.measure == "mf":
            s = _binary_train_matrix(train, m, n)
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
        recs = recommend_topk(model, st.k_items, masks)

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
    """Tab-separated table: one row per report, knobs then metric percentages."""
    if not reports:
        raise ValueError("no report rows to write")
    knob_cols = list(reports[0].config.keys())
    cutoffs = reports[0].cutoffs
    metric_cols = []
    for k in cutoffs:
        metric_cols += [f"P@{k}", f"R@{k}", f"F1@{k}"]
    with Path(path).open("w", encoding="utf-8", newline="\n") as f:
        f.write("\t".join(knob_cols + metric_cols) + "\n")
        for rep in reports:
            cells = [_knob_str(rep.config[c]) for c in knob_cols]
            for k in rep.cutoffs:
                cells += [
                    f"{100.0 * rep.precision[k]:.3f}",
                    f"{100.0 * rep.recall[k]:.3f}",
                    f"{100.0 * rep.f1[k]:.3f}",
                ]
            f.write("\t".join(cells) + "\n")


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
