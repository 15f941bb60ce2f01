"""Confidence scoring: turn pair counts into the sparse feedback matrix.

Two measures are supported.  "co" stores the raw co-occurrence count of
each pair.  "pmi" stores max(log(count * total / (user_count * item_count))
- log(shift_k), 0), dropping non-positive values, so a pair that never
co-occurs and a pair with weak association are both implicit zeros.
"""

import math
from dataclasses import dataclass

import numpy as np

from .pairs import PairCorpusStats
from .tables import read_matrix, write_matrix

__all__ = ["ConfidenceMatrix", "co_matrix", "sppmi_matrix", "save_confidence", "load_confidence"]

MEASURES = ("co", "pmi")


@dataclass
class ConfidenceMatrix:
    """Sparse non-negative feedback matrix; absent entries are zeros."""

    matrix: "scipy.sparse.csr_matrix"  # float64, n_users x n_items, stored entries finite and > 0
    measure: str
    shift_k: float | None = None

    @property
    def n_users(self):
        return self.matrix.shape[0]

    @property
    def n_items(self):
        return self.matrix.shape[1]

    def validate(self):
        if self.measure not in MEASURES:
            raise ValueError(f"unknown measure {self.measure!r}")
        data = self.matrix.data
        if not (np.isfinite(data).all() and (data > 0).all()):
            raise ValueError("stored confidence entries must be finite and positive")


def co_matrix(stats: PairCorpusStats) -> ConfidenceMatrix:
    """Confidence = raw pair count."""
    mat = stats.pair_count.astype(np.float64).tocsr()
    mat.eliminate_zeros()
    out = ConfidenceMatrix(mat, measure="co")
    out.validate()
    return out


def sppmi_matrix(stats: PairCorpusStats, shift_k: float = 1.0) -> ConfidenceMatrix:
    """Confidence = positive part of the shifted pointwise mutual information.

    Args:
        stats: pair counts with total > 0.
        shift_k: downshift constant, finite and >= 1; the association score
            is reduced by log(shift_k) before clamping at zero.
    """
    import scipy.sparse as sp

    shift_k = float(shift_k)
    if not 1.0 <= shift_k < math.inf:  # NaN too
        raise ValueError("shift_k must be finite and >= 1")
    total = stats.total
    if total <= 0:
        raise ValueError("cannot compute PMI over an empty pair corpus")

    coo = stats.pair_count.tocoo()
    cnt = coo.data.astype(np.float64)
    denom = (stats.user_count[coo.row].astype(np.float64)
             * stats.item_count[coo.col].astype(np.float64))
    score = np.log(cnt * float(total) / denom) - math.log(shift_k)
    keep = score > 0.0
    mat = sp.coo_matrix((score[keep], (coo.row[keep], coo.col[keep])), shape=coo.shape).tocsr()
    out = ConfidenceMatrix(mat, measure="pmi", shift_k=shift_k)
    out.validate()
    return out


def save_confidence(conf: ConfidenceMatrix, path):
    "Write the matrix, its measure and its shift_k (NaN for none) as an archive."
    write_matrix(path, conf.matrix, measure=np.array(conf.measure),
                 shift_k=np.float64(math.nan if conf.shift_k is None else conf.shift_k))


def load_confidence(path) -> ConfidenceMatrix:
    """Read a matrix written by save_confidence, bit exact; read_matrix's checks, an
    unknown measure and a shift_k other than one float64 raise ValueError naming path."""
    mat, measure, shift_k = read_matrix(path, np.float64, "confidence",
                                        ("measure", "shift_k"))
    if str(measure) not in MEASURES:  # a 0-d string array prints as the bare string
        raise ValueError(f"{path}: unknown measure {str(measure)!r}")
    if shift_k.shape != () or shift_k.dtype != np.float64:
        raise ValueError(f"{path}: shift_k {shift_k.dtype} {shift_k.shape} is not one float64")
    return ConfidenceMatrix(mat, str(measure), None if math.isnan(shift_k) else float(shift_k))
