"""Confidence scoring: turn pair counts into the sparse feedback matrix.

Two measures are supported.  "co" stores the raw co-occurrence count of
each pair.  "pmi" stores max(log(count * total / (user_count * item_count))
- log(shift_k), 0), dropping non-positive values, so a pair that never
co-occurs and a pair with weak association are both implicit zeros.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .pairs import PairCorpusStats
from .tables import read_matrix, write_matrix

__all__ = ["ConfidenceMatrix", "co_matrix", "sppmi_matrix", "save_confidence", "load_confidence"]

MEASURES = ("co", "pmi")


@dataclass
class ConfidenceMatrix:
    """Sparse non-negative feedback matrix; absent entries are zeros."""

    matrix: sp.csr_matrix  # float64, n_users x n_items, stored entries finite and > 0
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
        shift_k: downshift constant, >= 1; the association score is reduced
            by log(shift_k) before clamping at zero.
    """
    shift_k = float(shift_k)
    if shift_k < 1.0:
        raise ValueError("shift_k must be >= 1")
    if stats.total <= 0:
        raise ValueError("cannot compute PMI over an empty pair corpus")

    coo = stats.pair_count.tocoo()
    cnt = coo.data.astype(np.float64)
    denom = stats.user_count[coo.row].astype(np.float64) * stats.item_count[
        coo.col
    ].astype(np.float64)
    score = np.log(cnt * float(stats.total) / denom) - math.log(shift_k)
    keep = score > 0.0
    mat = sp.coo_matrix(
        (score[keep], (coo.row[keep], coo.col[keep])), shape=coo.shape
    ).tocsr()
    out = ConfidenceMatrix(mat, measure="pmi", shift_k=shift_k)
    out.validate()
    return out


def save_confidence(conf: ConfidenceMatrix, path):
    """Write 'u<TAB>i<TAB>value' lines; values at 17 significant digits."""
    shift = "none" if conf.shift_k is None else f"{conf.shift_k:.17g}"
    write_matrix(path, conf.matrix, "%.17g", {"measure": conf.measure, "shift_k": shift})


def load_confidence(path) -> ConfidenceMatrix:
    """Read a matrix written by save_confidence; round-trip is bit exact."""
    header, mat = read_matrix(path, np.float64, {
        "measure": str, "shift_k": lambda s: None if s == "none" else float(s)})
    if header["measure"] not in MEASURES:
        raise ValueError(f"{path}: line 1: unknown measure {header['measure']!r}")
    out = ConfidenceMatrix(mat, measure=header["measure"], shift_k=header["shift_k"])
    out.validate()
    return out
