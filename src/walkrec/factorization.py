"""Regularized alternating least squares on the sparse confidence matrix.

The squared-error objective runs over every (user, item) cell, with
absent confidence entries acting as zero targets.  Each half-sweep then
has a closed form: all user rows share the ridge system matrix
Y'Y + lambda*I, so one Cholesky factorization solves the whole half-sweep.
"""

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_factor, cho_solve

from .knobs import check, knob

__all__ = ["AlsConfig", "FactorModel", "init_factors", "als_fit", "loss", "predict",
           "save_model", "load_model"]


@dataclass(frozen=True)
class AlsConfig:
    """Latent dimension, ridge strength, sweep count, and init parameters."""

    factors: int = knob(100, min=1)
    lam: float = knob(0.25, key="lambda", gt=0)
    sweeps: int = knob(15, min=1)
    seed: int = knob(0, min=0)
    init_scale: float = knob(0.01, min=0)

    def __post_init__(self):
        check(self)


@dataclass
class FactorModel:
    """User factors X (M x K), item factors Y (N x K), per-sweep objective."""

    X: np.ndarray
    Y: np.ndarray
    loss_trace: list = field(default_factory=list)

    @property
    def n_users(self):
        return self.X.shape[0]

    @property
    def n_items(self):
        return self.Y.shape[0]

    @property
    def factors(self):
        return self.X.shape[1]


def _as_csr(s):
    "Accept a ConfidenceMatrix or a raw scipy sparse/array matrix."
    mat = getattr(s, "matrix", s)
    return sp.csr_matrix(mat, dtype=np.float64)


def init_factors(n_users, n_items, cfg: AlsConfig) -> FactorModel:
    """Uniform factors in [-init_scale, init_scale] from a stream keyed by seed."""
    if n_users < 1 or n_items < 1:
        raise ValueError("need at least one user and one item")
    rng = np.random.default_rng(cfg.seed)
    s = cfg.init_scale
    x = rng.uniform(-s, s, size=(n_users, cfg.factors))
    y = rng.uniform(-s, s, size=(n_items, cfg.factors))
    return FactorModel(x, y)


def _half_sweep(mat: sp.csr_matrix, other: np.ndarray, lam: float,
                b: np.ndarray | None = None) -> np.ndarray:
    """Solve (other' other + lam I) z_r = other' mat[r] for every row r.

    One Cholesky factorization serves all rows; a single refinement step
    keeps the per-row normal-equation residual at solver precision.  b is
    mat @ other when the caller has already computed it.
    """
    k = other.shape[1]
    gram = other.T @ other
    a = gram + lam * np.eye(k)
    if b is None:
        b = mat @ other
    factor = cho_factor(a, lower=True, check_finite=False)
    z = cho_solve(factor, b.T, check_finite=False).T
    resid = b - z @ a
    z += cho_solve(factor, resid.T, check_finite=False).T
    return z


def _objective(s_csr: sp.csr_matrix, x: np.ndarray, y: np.ndarray, lam: float,
               stx: np.ndarray) -> float:
    """Full-matrix squared error plus ridge penalty, without materializing M x N.

    The data term sum over stored (u, i) of s_ui * x_u . y_i equals
    sum(Y * (S' X)); stx is that S' X.
    """
    gx = x.T @ x
    gy = y.T @ y
    sq = float(s_csr.data @ s_csr.data) - 2.0 * float(np.vdot(y, stx))
    sq += float(np.sum(gx * gy))
    return sq + lam * (float(np.sum(x * x)) + float(np.sum(y * y)))


def als_fit(s, cfg: AlsConfig = AlsConfig()) -> FactorModel:
    """Fit factors to the confidence matrix by alternating ridge solves.

    Each sweep updates all user rows against fixed item factors, then all
    item rows against the fresh user factors, and appends the objective to
    the loss trace.  Deterministic for fixed (s, cfg).

    Args:
        s: ConfidenceMatrix or scipy sparse matrix (users x items).
        cfg: dimensions, regularization, sweeps, seed.
    Raises:
        RuntimeError: non-finite factor values, naming the sweep.
    """
    s_csr = _as_csr(s)
    m, n = s_csr.shape
    model = init_factors(m, n, cfg)
    x, y = model.X, model.Y
    s_csc_t = s_csr.T.tocsr()

    for sweep in range(cfg.sweeps):
        x = _half_sweep(s_csr, y, cfg.lam)
        if not np.all(np.isfinite(x)):
            raise RuntimeError(f"non-finite user factors at sweep {sweep}")
        stx = s_csc_t @ x
        y = _half_sweep(s_csc_t, x, cfg.lam, stx)
        if not np.all(np.isfinite(y)):
            raise RuntimeError(f"non-finite item factors at sweep {sweep}")
        model.loss_trace.append(_objective(s_csr, x, y, cfg.lam, stx))

    model.X, model.Y = x, y
    return model


def loss(s, model: FactorModel, lam: float) -> float:
    """Objective value of the model on confidence matrix s."""
    s_csr = _as_csr(s)
    return _objective(s_csr, model.X, model.Y, lam, s_csr.T @ model.X)


def predict(model: FactorModel, u: int, i: int) -> float:
    """Preference score: inner product of user row u and item row i."""
    if not 0 <= u < model.n_users:
        raise ValueError(f"user index {u} out of range")
    if not 0 <= i < model.n_items:
        raise ValueError(f"item index {i} out of range")
    return float(model.X[u] @ model.Y[i])


def save_model(model: FactorModel, cfg: AlsConfig, path):
    """Persist factors and training metadata as an .npz archive (exact)."""
    np.savez(
        Path(path),
        X=model.X,
        Y=model.Y,
        loss_trace=np.asarray(model.loss_trace, dtype=np.float64),
        meta_ints=np.asarray([model.n_users, model.n_items, cfg.factors,
                              cfg.sweeps, cfg.seed], dtype=np.int64),
        meta_floats=np.asarray([cfg.lam, cfg.init_scale], dtype=np.float64),
    )


def load_model(path):
    """Read a model written by save_model; returns (FactorModel, AlsConfig)."""
    with np.load(Path(path)) as data:
        ints = data["meta_ints"]
        floats = data["meta_floats"]
        model = FactorModel(data["X"], data["Y"], list(data["loss_trace"]))
        cfg = AlsConfig(
            factors=int(ints[2]),
            lam=float(floats[0]),
            sweeps=int(ints[3]),
            seed=int(ints[4]),
            init_scale=float(floats[1]),
        )
    if model.n_users != int(ints[0]) or model.n_items != int(ints[1]):
        raise ValueError(f"{path}: factor shapes do not match metadata")
    return model, cfg
