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

A fit keeps both CPUs busy through each sweep's four phases: S Y beside
Y'Y, the user solves, S' X beside X'X, the item solves, each phase a set
of tasks over row blocks whose bounds depend on the shape alone, so the
bytes do not depend on the CPU count.  A side of one row block runs
inline.

The K x K factor and its inverse come from numpy.linalg, so walkrec
never imports scipy's dense linalg module, which would map a second
OpenBLAS (scipy's) into every process.  A future truncated-SVD path
(scipy.sparse.linalg.svds, whose module imports that one) must import
scipy.sparse.linalg inside that path only.  scipy.sparse itself is
imported inside _as_csr, as every walkrec module imports it only in the
functions that make a sparse matrix: importing walkrec loads no scipy,
and the CLI stages that build no matrix (ingest, split, walk, recommend,
evaluate) never pay for scipy.sparse's import.
"""

from dataclasses import dataclass, field

import numpy as np

from .blas import one_thread
from .knobs import Knobs, conform, knob
from .parallel import map_blocks, spans
from .tables import read_archive, write_archive

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
    import scipy.sparse as sp

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


def _bounds(blocks):
    "Row offsets of a tuple of row blocks: block j is rows bounds[j]:bounds[j + 1]."
    return np.cumsum([0] + [blk.shape[0] for blk in blocks])


def _products(blocks, other: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write each row block's product with other into its rows of out, and return
    other' other, as one phase of parallel tasks: the Gram product is one more task
    beside the blocks'.  blocks is a tuple of row blocks (_row_blocks); one block
    runs inline, since sending it to the pool was slower."""
    bounds = _bounds(blocks)

    def task(j):
        if j < 0:
            return other.T @ other
        out[bounds[j]:bounds[j + 1]] = blocks[j] @ other

    tasks = range(-1, len(blocks))
    return (map_blocks(task, tasks) if len(blocks) > 1 else [task(j) for j in tasks])[0]


def _half_sweep(mat, other: np.ndarray, lam: float, b: np.ndarray | None = None,
                gram: np.ndarray | None = None, out: np.ndarray | None = None,
                check: str | None = None) -> np.ndarray:
    """Solve (other' other + lam I) z_r = other' mat[r] for every row r.

    With A = other' other + lam I = L L', the rows are Z = (B L^-T) L^-1:
    one K x K triangular inverse, then two products over all rows.  At a
    Gram condition number of 1e15 the normal-equation residual is about
    1e-8 relative, as with a Cholesky solve plus one refinement step;
    through an explicit A^-1 it is about 1e-3.  mat is a sparse matrix or
    the tuple of its row blocks (_row_blocks), whose rows are solved in
    parallel.  b is mat @ other and gram is other' other when the caller
    has already computed them.  Each block's rows are written in place into
    out, a (rows, K) float64 array that is not other, when given, else into
    a new array; either is returned.  out may be b itself, since a block
    reads its rows of b before it writes them.  When check is given, a block
    whose solved rows hold a non-finite value raises
    RuntimeError(f"non-finite {check}").
    """
    k = other.shape[1]
    if gram is None:
        gram = other.T @ other
    inv = np.linalg.inv(np.linalg.cholesky(gram + lam * np.eye(k)))
    blocks = mat if isinstance(mat, tuple) else (mat,)
    bounds = _bounds(blocks)
    if out is None:
        out = np.empty((bounds[-1], k))

    def solve(j):
        rows = blocks[j] @ other if b is None else b[bounds[j]:bounds[j + 1]]
        z = np.matmul(rows @ inv.T, inv, out=out[bounds[j]:bounds[j + 1]])
        if check is not None and not np.all(np.isfinite(z)):
            raise RuntimeError(f"non-finite {check}")

    map_blocks(solve, range(len(blocks)))
    return out


def _objective(s_sq: float, y: np.ndarray, stx: np.ndarray,
               gx: np.ndarray, gy: np.ndarray, lam: float) -> float:
    """Full-matrix squared error plus ridge penalty, without materializing M x N.

    s_sq is the sum of the squared stored entries of S, constant over a
    fit.  The data term sum over stored (u, i) of s_ui * x_u . y_i equals
    sum(Y * (S' X)); stx is that S' X.  gx = X'X and gy = Y'Y give the sum
    of squared predictions, sum(gx * gy), and the ridge term, their traces.
    """
    sq = s_sq - 2.0 * float(np.vdot(y, stx))
    sq += float(np.sum(gx * gy))
    return sq + lam * (float(np.trace(gx)) + float(np.trace(gy)))


@one_thread()
def als_fit(s, cfg: AlsConfig = AlsConfig()) -> FactorModel:
    """Fit factors to the confidence matrix by alternating ridge solves.

    Each sweep updates all user rows against fixed item factors, then all
    item rows against the fresh user factors, and appends the objective to
    the loss trace.  A sweep runs as four phases, each a set of parallel
    tasks over fixed row blocks (_row_blocks): S Y beside Y'Y, the user
    solves, S' X beside X'X, the item solves.  S Y is written into the user
    factors' own rows, which its solves then overwrite, and S' X into one
    array made before the first sweep, so the sweeps make no new factor
    arrays, only per-block temporaries.  A side of fewer than two row blocks
    runs its products inline.  Each solve block checks its own rows for
    non-finite values.  A sweep's objective needs the next sweep's Y'Y, so it
    is appended once that is formed, the last after the final sweep.  Runs
    on one BLAS thread, so for fixed (s, cfg) the result is the same bytes
    whatever thread count the caller has set.

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
    stx = np.empty_like(y)
    s_sq = float(s_csr.data @ s_csr.data)
    for sweep in range(cfg.sweeps):
        gy = _products(s_blocks, y, x)
        if sweep:
            model.loss_trace.append(_objective(s_sq, y, stx, gx, gy, cfg.lam))
        _half_sweep(s_blocks, y, cfg.lam, b=x, gram=gy, out=x,
                    check=f"user factors at sweep {sweep}")
        gx = _products(st_blocks, x, stx)
        _half_sweep(st_blocks, x, cfg.lam, b=stx, gram=gx, out=y,
                    check=f"item factors at sweep {sweep}")
    model.loss_trace.append(_objective(s_sq, y, stx, gx, y.T @ y, cfg.lam))
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
    return _objective(float(s_csr.data @ s_csr.data), y, s_csr.T @ x, x.T @ x, y.T @ y, lam)


def predict(model: FactorModel, u: int, i: int) -> float:
    """Preference score: inner product of user row u and item row i.

    u and i must be integers >= 0, or KnobError names the argument, and
    below n_users and n_items, or ValueError names the index.
    """
    u, i = conform("u", u, int, min=0), conform("i", i, int, min=0)
    if u >= model.n_users:
        raise ValueError(f"user index {u} out of range")
    if i >= model.n_items:
        raise ValueError(f"item index {i} out of range")
    return float(model.X[u] @ model.Y[i])


def save_model(model: FactorModel, cfg: AlsConfig, path):
    """Persist factors and training metadata as an .npz archive (exact)."""
    write_archive(path, X=model.X, Y=model.Y,
                  loss_trace=np.asarray(model.loss_trace, dtype=np.float64),
                  meta_ints=np.asarray([model.n_users, model.n_items, cfg.factors,
                                        cfg.sweeps, cfg.seed], dtype=np.int64),
                  meta_floats=np.asarray([cfg.lam, cfg.init_scale], dtype=np.float64))


def load_model(path):
    """Read a model written by save_model; returns (FactorModel, AlsConfig).

    An unreadable archive, a missing array, metadata arrays of the wrong
    shape, or factor shapes that differ from the stored users, items and
    factors raise ValueError naming path.
    """
    X, Y, trace, ints, floats = read_archive(
        path, ("X", "Y", "loss_trace", "meta_ints", "meta_floats"), "model")
    if ints.shape != (5,) or floats.shape != (2,):
        raise ValueError(f"{path}: metadata shapes meta_ints {ints.shape}, meta_floats "
                         f"{floats.shape} are not (5,) and (2,)")
    if X.ndim != 2 or Y.ndim != 2 or X.shape != (ints[0], ints[2]) or Y.shape != (ints[1], ints[2]):
        raise ValueError(f"{path}: factor shapes X {X.shape}, Y {Y.shape} do not match "
                         f"the stored {ints[0]} users, {ints[1]} items and {ints[2]} factors")
    cfg = AlsConfig(factors=int(ints[2]), lam=float(floats[0]), sweeps=int(ints[3]),
                    seed=int(ints[4]), init_scale=float(floats[1]))
    return FactorModel(X, Y, list(trace)), cfg
