#!/usr/bin/env python3
"""End-to-end walkthrough on synthetic data, one stage at a time.

Run from the repository root:  python3 demos/pipeline_walkthrough.py
"""

import numpy as np

from walkrec import (AlsConfig, WalkConfig, als_fit, build_graph, evaluate,
                     generate_synthetic, generate_walks, item_pop_scores,
                     recommend_topk, sample_pairs, split, sppmi_matrix, top_k,
                     train_masks)

# ------------------------------------------------------------------
# 1. Data: a clustered sparse purchase log, indexed and split 80/10/10
# ------------------------------------------------------------------
pairs = generate_synthetic(seed=0)
ds = split(pairs, (0.8, 0.1, 0.1), seed=0)
print(f"interactions: {len(pairs)} over {ds.n_users} users x {ds.n_items} items "
      f"({len(pairs) / ds.n_users:.2f} per user)")
print(f"split: train={len(ds.train)} valid={len(ds.valid)} test={len(ds.test)}")

# ------------------------------------------------------------------
# 2. The training interactions as a bipartite graph
# ------------------------------------------------------------------
g = build_graph(ds.train, ds.n_users, ds.n_items)
user_degs = np.array([len(a) for a in g.user_adj])
item_degs = np.array([len(a) for a in g.item_adj])
print(f"graph: {g.n_edges} edges; user degree mean {user_degs.mean():.2f} "
      f"max {user_degs.max()}; item degree mean {item_degs.mean():.2f} "
      f"max {item_degs.max()}; isolated users {(user_degs == 0).sum()}")

# ------------------------------------------------------------------
# 3. Truncated random walks from every vertex
# ------------------------------------------------------------------
corpus = generate_walks(g, WalkConfig(beta=10, gamma=80, seed=0))
print(f"walks: {len(corpus.walks)} sequences of 80 vertices")
first = corpus.walks[0][:8]
toks = [f"u{v}" if v < ds.n_users else f"i{v - ds.n_users}" for v in first]
print(f"  a walk starts: {' '.join(toks)} ...")

# ------------------------------------------------------------------
# 4. Windowed user-item pairs and their counts
# ------------------------------------------------------------------
stats = sample_pairs(corpus, sigma=3)
print(f"pairs: |C| = {stats.total} occurrences over "
      f"{stats.pair_count.nnz} distinct (u, i); "
      f"train edges = {g.n_edges}, so direct pairs were enriched "
      f"{stats.pair_count.nnz / g.n_edges:.1f}x")

# ------------------------------------------------------------------
# 5. Shifted positive PMI confidence
# ------------------------------------------------------------------
conf = sppmi_matrix(stats, shift_k=1.0)
vals = conf.matrix.data
print(f"confidence: {conf.matrix.nnz} positive entries; "
      f"value range [{vals.min():.3f}, {vals.max():.3f}]")

# ------------------------------------------------------------------
# 6. Alternating least squares factorization
# ------------------------------------------------------------------
model = als_fit(conf, AlsConfig(factors=100, lam=0.25, sweeps=15, seed=0))
trace = model.loss_trace
print(f"als: objective {trace[0]:.1f} -> {trace[-1]:.1f} over {len(trace)} sweeps "
      f"(monotone: {all(b <= a for a, b in zip(trace, trace[1:]))})")

# ------------------------------------------------------------------
# 7. Top-10 recommendations with training items masked
# ------------------------------------------------------------------
masks = train_masks(ds.train)
recs = recommend_topk(model, k_items=10, masks=masks)
u0 = next(u for u in range(ds.n_users) if len(masks.get(u, ())) >= 3)
print(f"recommendations for user {u0} (owns {sorted(masks[u0])}):")
for rank, (i, score) in enumerate(recs[u0].items[:5], start=1):
    print(f"  {rank}. item {i}  score {score:.4f}")

# ------------------------------------------------------------------
# 8. Ranking quality against the held-out test split
# ------------------------------------------------------------------
report = evaluate(recs, ds.test, cutoffs=[5, 10])
for k in report.cutoffs:
    print(f"@{k}: P={100 * report.precision[k]:.3f}%  "
          f"R={100 * report.recall[k]:.3f}%  F1={100 * report.f1[k]:.3f}%")

# the non-personalized popularity baseline, for scale
pop = item_pop_scores(ds.train, ds.n_items)
pop_recs = [top_k(u, pop, 10, masks.get(u, frozenset())) for u in range(ds.n_users)]
pop_report = evaluate(pop_recs, ds.test, cutoffs=[10])
print(f"popularity baseline F1@10 = {100 * pop_report.f1[10]:.3f}%")
