"""walkrec: implicit-feedback recommendation from bipartite random walks.

Sparse binary user-item interactions are enriched by sampling user-item
co-occurrences from truncated random walks on the interaction graph,
scored either by raw counts or by shifted positive pointwise mutual
information, factorized with regularized alternating least squares, and
evaluated as ranked top-K recommendation.
"""

from .confidence import ConfidenceMatrix, co_matrix, sppmi_matrix
from .datasets import (Dataset, IdMap, IngestFormat, RawInteraction, as_pairs, binarize,
                       filter_min_interactions, ingest, load_dataset,
                       save_dataset, sparsify, split)
from .evaluation import (ExperimentGrid, MetricsReport, PipelineSettings,
                         evaluate, run_cell, run_experiment)
from .factorization import (AlsConfig, FactorModel, als_fit, init_factors,
                            loss, predict)
from .graph import BipartiteGraph, build_graph
from .pairs import PairCorpusStats, merge, sample_pairs
from .recommend import RankedList, Rankings, item_pop_scores, recommend_topk, top_k
from .synthetic import SyntheticConfig, generate_synthetic
from .walks import WalkConfig, WalkCorpus, generate_walks

__version__ = "0.1.0"
