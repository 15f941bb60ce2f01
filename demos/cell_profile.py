#!/usr/bin/env python3
"""Per-stage memory profile of one PMI cell on the benchmark's generated set.

Runs the stages of ``walkrec.run_cell`` one by one on the cell-scaled
interaction set (perfbench/scaled.py, loaded by path and never written)
and prints, for each stage, its wall time, the peak of Python and numpy
allocations it added over what was traced when it began (tracemalloc),
what stays traced after it, and the process's ``ru_maxrss`` after it.
scipy.sparse is imported first, so its 22 MiB import is in no stage.  As
in run_cell the walks are left undrawn, so they are drawn while their
pairs are counted, unless --draw is given; the corpus and pair counts are
freed before ALS.

    python demos/cell_profile.py --groups 80            # the 1x cell
    python demos/cell_profile.py --sigma 79 --no-trace  # the process peak alone

--hashes also prints the sha256 of the pair counts, the PMI matrix, the
factors and the rankings, to compare two versions' bytes.  Each stage's
ru_maxrss is the process's peak so far, so run each setting in a fresh
process.
"""

import argparse
import hashlib
import importlib.util
import resource
import time
import tracemalloc
from pathlib import Path

import numpy as np

from walkrec import (AlsConfig, PipelineSettings, WalkConfig, als_fit, build_graph, evaluate,
                     generate_walks, recommend_topk, sample_pairs, sparsify, split,
                     sppmi_matrix)
from walkrec.walks import draw_walks

_SCALED = Path(__file__).resolve().parents[1] / "perfbench" / "scaled.py"


def load_scaled(groups):
    "perfbench/scaled.py as a fresh module, with N_GROUPS set to groups."
    spec = importlib.util.spec_from_file_location("cell_profile_scaled", _SCALED)
    scaled = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scaled)
    scaled.N_GROUPS = groups
    return scaled


def sha256(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--groups", type=int, default=80, help="50-user groups (80: cell-scaled)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--sigma", type=int, default=3)
    ap.add_argument("--draw", action="store_true", help="draw the corpus before counting")
    ap.add_argument("--no-trace", dest="trace", action="store_false",
                    help="skip tracemalloc (it slows numpy's allocations)")
    ap.add_argument("--hashes", action="store_true", help="print each output's sha256")
    args = ap.parse_args(argv)

    st = PipelineSettings(measure="pmi", seed=args.seed, sigma=args.sigma)
    rows, hashes = [], []

    def stage(name, fn):
        if args.trace:
            tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        t = time.perf_counter()
        out = fn()
        seconds = time.perf_counter() - t
        live, peak = tracemalloc.get_traced_memory()
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        rows.append((name, seconds, (peak - base) / 2**20, live / 2**20, rss))
        return out

    import scipy.sparse  # noqa: F401  (imported here, so no stage pays for it)

    if args.trace:
        tracemalloc.start()
    ds = stage("data", lambda: split(load_scaled(args.groups).generate_pairs(args.seed),
                                     (0.8, 0.1, 0.1), args.seed))
    train = sparsify(ds.train, st.keep_fraction, st.seed)
    g = stage("graph", lambda: build_graph(train, ds.n_users, ds.n_items))

    def walks():
        with draw_walks(args.draw):
            return generate_walks(g, WalkConfig(st.beta, st.gamma, st.seed))

    corpus = stage("walks", walks)
    stats = stage("pairs", lambda: sample_pairs(corpus, st.sigma))
    del corpus
    pmi = stage("sppmi", lambda: sppmi_matrix(stats, st.shift_k))
    if args.hashes:
        p, s = stats.pair_count, pmi.matrix
        hashes += [("pairs", sha256(p.indptr, p.indices, p.data)),
                   ("pmi", sha256(s.indptr, s.indices, s.data))]
    del stats
    cfg = AlsConfig(st.factors, st.lam, st.sweeps, st.seed, st.init_scale)
    model = stage("ALS", lambda: als_fit(pmi.matrix, cfg))
    del pmi
    recs = stage("top-K", lambda: recommend_topk(model, st.k_items,
                                                 train if st.mask_train else None))
    report = stage("evaluate", lambda: evaluate(recs, ds.test, st.cutoffs))
    if args.trace:
        tracemalloc.stop()
    if args.hashes:
        hashes += [("factors", sha256(model.X, model.Y)),
                   ("rankings", sha256(recs.indptr, recs.items, recs.scores))]

    print(f"cell: {ds.n_users} x {ds.n_items}, sigma {st.sigma}, "
          f"walks {'drawn' if args.draw else 'undrawn'}")
    print(f"{'stage':<9} {'s':>7} {'added peak':>11} {'traced after':>13} {'maxrss':>8}  (MiB)")
    for name, seconds, peak, live, rss in rows:
        print(f"{name:<9} {seconds:7.3f} {peak:11.1f} {live:13.1f} {rss:8.1f}")
    print(f"P@10 {report.precision[10]:.5f}  R@10 {report.recall[10]:.5f}")
    for name, digest in hashes:
        print(f"sha256 {name} {digest}")


if __name__ == "__main__":
    main()
