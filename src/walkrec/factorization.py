"""Regularized alternating least squares on the sparse confidence matrix.

The squared-error objective runs over every (user, item) cell, with
absent confidence entries acting as zero targets.  Each half-sweep then
has a closed form: all user rows share the K x K ridge system matrix
A = Y'Y + lambda*I, so one Cholesky factor A = L L' serves the whole
half-sweep.  The rows are solved as two matrix products with the inverse
factor, (B L^-T) L^-1, because a product runs several times faster than
a triangular solve on many right-hand sides.  The inverse of the factor,
not of A, keeps the residual at Cholesky's precision: an explicit A^-1
loses digits in proportion to A's condition number.
"""

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cholesky, solve_triangular

from .blas import one_thread
from .knobs import Knobs, knob
from .parallel import map_blocks, spans

__all__ = ["AlsConfig", "FactorModel", "init_factors", "als_fit", "loss", "predict",
           "save_model", "load_model"]

_BLOCK_ROWS = 512  # fewest rows of a parallel block: smaller cuts change GEMMs' last bits


@dataclass(frozen=True)
class AlsConfig(Knobs):
    """Latent dimension, ridge strength, sweep count, and init parameters."""

    factors: int = knob(100, min=1)
    lam: float = knob(0.25, key="lambda", gt=0)
    sweeps: int = knob(15, min=1)
    seed: int = knob(0, min=0)
    init_scale: float = knob(0.01, min=0)


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


def _row_blocks(mat):
    """mat cut into max(1, rows // _BLOCK_ROWS) near-equal row blocks, as a tuple;
    (mat,) itself when that is one block.  Fixed by the shape alone, so the
    products over the blocks do not depend on the thread count."""
    parts = max(1, mat.shape[0] // _BLOCK_ROWS)
    return (mat,) if parts == 1 else tuple(mat[lo:hi] for lo, hi in spans(mat.shape[0], parts))


def _half_sweep(mat, other: np.ndarray, lam: float,
                b: np.ndarray | None = None, gram: np.ndarray | None = None) -> np.ndarray:
    """Solve (other' other + lam I) z_r = other' mat[r] for every row r.

    With A = other' other + lam I = L L', the rows are Z = (B L^-T) L^-1:
    one K x K triangular inverse, then two products over all rows.  At a
    Gram condition number of 1e15 the normal-equation residual is about
    1e-8 relative, as with a Cholesky solve plus one refinement step;
    through an explicit A^-1 it is about 1e-3.  mat is a sparse matrix or
    the tuple of its row blocks (_row_blocks), whose rows are solved in
    parallel.  b is mat @ other and gram is other' other when the caller
    has already computed them.
    """
    k = other.shape[1]
    if gram is None:
        gram = other.T @ other
    chol = cholesky(gram + lam * np.eye(k), lower=True, check_finite=False)
    inv = solve_triangular(chol, np.eye(k), lower=True, check_finite=False)
    blocks = mat if isinstance(mat, tuple) else (mat,)
    if b is None:
        return np.vstack(map_blocks(lambda blk: (blk @ other @ inv.T) @ inv, blocks))
    cuts = np.cumsum([blk.shape[0] for blk in blocks])[:-1]  # b's rows of each block
    return np.vstack(map_blocks(lambda rows: (rows @ inv.T) @ inv, np.split(b, cuts)))


def _objective(s_csr: sp.csr_matrix, y: np.ndarray, stx: np.ndarray,
               gx: np.ndarray, gy: np.ndarray, lam: float) -> float:
    """Full-matrix squared error plus ridge penalty, without materializing M x N.

    The data term sum over stored (u, i) of s_ui * x_u . y_i equals
    sum(Y * (S' X)); stx is that S' X.  gx = X'X and gy = Y'Y give the
    sum of squared predictions, sum(gx * gy), and the ridge term, their
    traces.
    """
    sq = float(s_csr.data @ s_csr.data) - 2.0 * float(np.vdot(y, stx))
    sq += float(np.sum(gx * gy))
    return sq + lam * (float(np.trace(gx)) + float(np.trace(gy)))


@one_thread()
def als_fit(s, cfg: AlsConfig = AlsConfig()) -> FactorModel:
    """Fit factors to the confidence matrix by alternating ridge solves.

    Each sweep updates all user rows against fixed item factors, then all
    item rows against the fresh user factors, and appends the objective to
    the loss trace.  Runs on one BLAS thread, so for fixed (s, cfg) the
    result is the same bytes whatever thread count the caller has set.

    Args:
        s: ConfidenceMatrix or scipy sparse matrix (users x items).
        cfg: dimensions, regularization, sweeps, seed.
    Raises:
        ValueError: a non-finite confidence entry, naming the first stored (u, i).
        RuntimeError: non-finite factor values, naming the sweep.
    """
    s_csr = _as_csr(s)
    bad = np.flatnonzero(~np.isfinite(s_csr.data))
    if bad.size:
        u = np.searchsorted(s_csr.indptr, bad[0], side="right") - 1
        raise ValueError(f"non-finite confidence entry at (u, i) = "
                         f"({u}, {s_csr.indices[bad[0]]})")
    m, n = s_csr.shape
    model = init_factors(m, n, cfg)
    x, y = model.X, model.Y
    s_blocks, st_blocks = _row_blocks(s_csr), _row_blocks(s_csr.T.tocsr())
    gy = y.T @ y

    for sweep in range(cfg.sweeps):
        x = _half_sweep(s_blocks, y, cfg.lam, gram=gy)
        if not np.all(np.isfinite(x)):
            raise RuntimeError(f"non-finite user factors at sweep {sweep}")
        stx = np.vstack(map_blocks(lambda blk: blk @ x, st_blocks))
        gx = x.T @ x
        y = _half_sweep(st_blocks, x, cfg.lam, stx, gx)
        if not np.all(np.isfinite(y)):
            raise RuntimeError(f"non-finite item factors at sweep {sweep}")
        gy = y.T @ y
        model.loss_trace.append(_objective(s_csr, y, stx, gx, gy, cfg.lam))

    model.X, model.Y = x, y
    return model


@one_thread()
def loss(s, model: FactorModel, lam: float) -> float:
    """Objective value of the model on confidence matrix s (users x items).

    Raises:
        ValueError: X is not M x K or Y is not N x K, naming all three shapes.
    """
    s_csr = _as_csr(s)
    x, y = model.X, model.Y
    m, n = s_csr.shape
    if x.shape[0] != m or y.shape[0] != n or x.shape[1] != y.shape[1]:
        raise ValueError(f"factor shapes X {x.shape} and Y {y.shape} do not fit "
                         f"s of shape {s_csr.shape}: need ({m}, K) and ({n}, K)")
    return _objective(s_csr, y, s_csr.T @ x, x.T @ x, y.T @ y, lam)


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
