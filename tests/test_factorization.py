"""ALS solver: closed-form correctness, monotone objective, exact oracles."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from walkrec import factorization
from walkrec.factorization import (AlsConfig, FactorModel, _half_sweep, _objective,
                                   _row_blocks, als_fit, init_factors, load_model, loss,
                                   predict, save_model)

from conftest import oracle_dense_loss


def random_sparse(rng, m, n, nnz, scale=2.0):
    flat = rng.choice(m * n, size=min(nnz, m * n), replace=False)
    data = rng.uniform(0.1, scale, size=len(flat))
    return sp.csr_matrix((data, (flat // n, flat % n)), shape=(m, n))


class TestInitFactors:
    def test_shapes(self):
        model = init_factors(2, 3, AlsConfig(factors=4))
        assert model.X.shape == (2, 4)
        assert model.Y.shape == (3, 4)

    def test_zero_scale_gives_zero_factors(self):
        model = init_factors(3, 3, AlsConfig(factors=2, init_scale=0.0))
        assert np.all(model.X == 0) and np.all(model.Y == 0)

    def test_deterministic(self):
        cfg = AlsConfig(factors=3, seed=11)
        a = init_factors(4, 5, cfg)
        b = init_factors(4, 5, cfg)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.Y, b.Y)

    def test_entries_within_scale(self):
        model = init_factors(50, 50, AlsConfig(factors=8, init_scale=0.02))
        assert np.max(np.abs(model.X)) <= 0.02
        assert np.max(np.abs(model.Y)) <= 0.02

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AlsConfig(factors=0)
        with pytest.raises(ValueError):
            AlsConfig(lam=0.0)
        with pytest.raises(ValueError):
            AlsConfig(sweeps=0)
        with pytest.raises(ValueError):
            AlsConfig(init_scale=-0.1)


class TestOneByOneStationaryPoint:
    """s = 1, lambda = 0.25 on a 1x1 problem has the closed stationary point
    x = y = sqrt(0.75), predicted score 0.75."""

    def gradient_descent_oracle(self):
        # independent check of the converged score by plain gradient descent
        # on (s - x*y)^2 + lam*(x^2 + y^2)
        x, y, lam, lr = 0.5, 0.5, 0.25, 0.01
        for _ in range(20_000):
            e = 1.0 - x * y
            gx = -2.0 * e * y + 2.0 * lam * x
            gy = -2.0 * e * x + 2.0 * lam * y
            x -= lr * gx
            y -= lr * gy
        return x * y

    def test_oracle_agrees_with_closed_form(self):
        assert self.gradient_descent_oracle() == pytest.approx(0.75, abs=1e-9)

    def test_als_converges_to_score(self):
        s = sp.csr_matrix(np.array([[1.0]]))
        model = als_fit(s, AlsConfig(factors=1, lam=0.25, sweeps=100, seed=0,
                                     init_scale=0.1))
        assert predict(model, 0, 0) == pytest.approx(0.75, abs=1e-6)


class TestLoss:
    def test_zero_model_sums_squared_targets(self):
        s = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 2.0]]))
        model = FactorModel(np.zeros((2, 3)), np.zeros((2, 3)))
        assert loss(s, model, 0.25) == pytest.approx(5.0, abs=1e-12)

    def test_zero_targets_lower_bounded_by_penalty(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 2))
        y = rng.normal(size=(5, 2))
        lam = 0.3
        q = float(np.sum(x * x) + np.sum(y * y))
        val = loss(sp.csr_matrix((4, 5)), FactorModel(x, y), lam)
        assert val >= lam * q - 1e-12
        val_eq = loss(sp.csr_matrix((4, 5)), FactorModel(x, np.zeros((5, 2))), lam)
        assert val_eq == pytest.approx(lam * float(np.sum(x * x)), abs=1e-12)

    def test_matches_dense_double_loop(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            s = random_sparse(rng, 5, 4, nnz=int(rng.integers(1, 12)))
            x = rng.normal(size=(5, 2))
            y = rng.normal(size=(4, 2))
            lam = float(rng.uniform(0.05, 1.0))
            got = loss(s, FactorModel(x, y), lam)
            want = oracle_dense_loss(s.toarray(), x, y, lam)
            assert got == pytest.approx(want, abs=1e-10, rel=1e-10)


class TestAlsFit:
    def test_zero_matrix_collapses_predictions(self):
        s = sp.csr_matrix((3, 4))
        model = als_fit(s, AlsConfig(factors=2, lam=0.25, sweeps=1, seed=5))
        assert np.allclose(model.X, 0.0)
        assert np.all(np.isfinite(model.Y))
        assert np.allclose(model.X @ model.Y.T, 0.0)

    def test_loss_trace_non_increasing(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            m, n = int(rng.integers(3, 12)), int(rng.integers(3, 12))
            s = random_sparse(rng, m, n, nnz=int(rng.integers(1, m * n)))
            cfg = AlsConfig(factors=int(rng.integers(1, 5)),
                            lam=float(rng.uniform(0.05, 1.0)),
                            sweeps=25, seed=int(rng.integers(100)))
            trace = als_fit(s, cfg).loss_trace
            assert len(trace) == 25
            for a, b in zip(trace, trace[1:]):
                assert b <= a * (1 + 1e-9)

    def test_normal_equation_residual_after_half_sweeps(self):
        rng = np.random.default_rng(7)
        lam = 0.25
        for _ in range(10):
            m, n, k = 8, 7, 3
            s = random_sparse(rng, m, n, nnz=20)
            y = rng.normal(size=(n, k))
            x = _half_sweep(s, y, lam)
            lhs = x @ (y.T @ y + lam * np.eye(k))
            rhs = (s @ y)
            assert np.max(np.abs(lhs - rhs)) <= 1e-8
        # item side, through the public fit: the item update runs last
        s = random_sparse(rng, 9, 6, nnz=18)
        model = als_fit(s, AlsConfig(factors=3, lam=lam, sweeps=4, seed=1))
        lhs = model.Y @ (model.X.T @ model.X + lam * np.eye(3))
        rhs = s.T @ model.X
        assert np.max(np.abs(lhs - rhs)) <= 1e-8

    def test_analytic_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        s = random_sparse(rng, 5, 4, nnz=9)
        lam = 0.25
        x = rng.normal(size=(5, 2))
        y = rng.normal(size=(4, 2))
        analytic = 2.0 * (x @ (y.T @ y + lam * np.eye(2)) - s @ y)
        h = 1e-6
        for u in range(5):
            for f in range(2):
                xp, xm = x.copy(), x.copy()
                xp[u, f] += h
                xm[u, f] -= h
                fd = (loss(s, FactorModel(xp, y), lam)
                      - loss(s, FactorModel(xm, y), lam)) / (2 * h)
                assert fd == pytest.approx(analytic[u, f], rel=1e-4, abs=1e-7)

    def test_gradient_vanishes_at_convergence(self):
        rng = np.random.default_rng(9)
        s = random_sparse(rng, 4, 3, nnz=6, scale=1.0)
        lam = 0.25
        model = als_fit(s, AlsConfig(factors=2, lam=lam, sweeps=500, seed=2))
        gx = 2.0 * (model.X @ (model.Y.T @ model.Y + lam * np.eye(2)) - s @ model.Y)
        gy = 2.0 * (model.Y @ (model.X.T @ model.X + lam * np.eye(2)) - s.T @ model.X)
        assert np.max(np.abs(gx)) <= 1e-6
        assert np.max(np.abs(gy)) <= 1e-6

    def test_deterministic(self):
        rng = np.random.default_rng(10)
        s = random_sparse(rng, 6, 6, nnz=12)
        cfg = AlsConfig(factors=3, lam=0.5, sweeps=8, seed=3)
        a = als_fit(s, cfg)
        b = als_fit(s, cfg)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.Y, b.Y)
        assert a.loss_trace == b.loss_trace


class TestPredict:
    def test_zero_model(self):
        model = FactorModel(np.zeros((2, 2)), np.zeros((3, 2)))
        assert predict(model, 1, 2) == 0.0

    def test_bilinearity(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(2, 3))
        y = rng.normal(size=(2, 3))
        base = predict(FactorModel(x, y), 0, 1)
        x2 = x.copy()
        x2[0] *= 2.5
        assert predict(FactorModel(x2, y), 0, 1) == pytest.approx(2.5 * base, rel=1e-12)

    def test_out_of_range(self):
        model = FactorModel(np.zeros((2, 2)), np.zeros((3, 2)))
        with pytest.raises(ValueError, match="^user index 2 out of range$"):
            predict(model, 2, 0)
        with pytest.raises(ValueError, match="^item index 3 out of range$"):
            predict(model, 0, 3)

    @pytest.mark.parametrize("u, i, message", [
        (1.5, 2, "u must be an integer"), (True, 2, "u must be an integer"),
        (1, 2.0, "i must be an integer"), (1, False, "i must be an integer"),
        (-1, 2, "u must be >= 0"), (1, -1, "i must be >= 0")])
    def test_bad_index_is_named(self, u, i, message):
        model = FactorModel(np.zeros((2, 2)), np.zeros((3, 2)))
        with pytest.raises(ValueError, match=rf"^{message}$"):
            predict(model, u, i)

    def test_numpy_integer_indices_pass(self):
        model = FactorModel(np.ones((2, 2)), np.ones((3, 2)))
        assert predict(model, np.int64(1), np.int32(2)) == 2.0


class TestPersistence:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(12)
        s = random_sparse(rng, 5, 4, nnz=8)
        cfg = AlsConfig(factors=2, lam=0.25, sweeps=5, seed=4)
        model = als_fit(s, cfg)
        p = tmp_path / "model.npz"
        save_model(model, cfg, p)
        back, back_cfg = load_model(p)
        assert np.array_equal(back.X, model.X)
        assert np.array_equal(back.Y, model.Y)
        assert back.loss_trace == model.loss_trace
        assert back_cfg == cfg

    @pytest.mark.parametrize("keep", [0, 10, 100, -600, -22])
    def test_truncated_archive_names_the_file(self, tmp_path, keep):
        p = tmp_path / "model.npz"
        save_model(FactorModel(np.ones((3, 2)), np.ones((4, 2)), [1.0]), AlsConfig(factors=2), p)
        p.write_bytes(p.read_bytes()[:keep])
        with pytest.raises(ValueError, match=r"model\.npz: unreadable model archive"):
            load_model(p)

    @pytest.mark.parametrize("name", ["X", "Y", "loss_trace", "meta_ints", "meta_floats"])
    def test_missing_array_names_the_file(self, tmp_path, name):
        p = tmp_path / "model.npz"
        save_model(FactorModel(np.ones((3, 2)), np.ones((4, 2)), [1.0]), AlsConfig(factors=2), p)
        with np.load(p) as data:
            arrays = {k: data[k] for k in data.files if k != name}
        np.savez(p, **arrays)
        with pytest.raises(ValueError, match=rf"model\.npz: unreadable model archive: '{name} "):
            load_model(p)

    @pytest.mark.parametrize("x_shape, y_shape", [((3, 2), (4, 3)), ((3, 5), (4, 3)),
                                                  ((3, 2), (4, 2)), ((3, 5), (5, 5))])
    def test_factor_shapes_must_match_the_stored_metadata(self, tmp_path, x_shape, y_shape):
        # stored: 3 users, 4 items and 5 factors
        p = tmp_path / "model.npz"
        save_model(FactorModel(np.ones(x_shape), np.ones(y_shape), [1.0]), AlsConfig(factors=5), p)
        with np.load(p) as data:
            arrays = dict(data)
        arrays["meta_ints"][:2] = (3, 4)
        np.savez(p, **arrays)
        with pytest.raises(ValueError, match=r"model\.npz: factor shapes .* do not match"):
            load_model(p)

    @pytest.mark.parametrize("name, value", [("meta_ints", [3, 4]), ("meta_ints", []),
                                             ("meta_floats", [0.25]), ("meta_floats", 0.25)],
                             ids=["ints_short", "ints_empty", "floats_short", "floats_scalar"])
    def test_metadata_of_the_wrong_shape_names_the_file(self, tmp_path, name, value):
        p = tmp_path / "model.npz"
        save_model(FactorModel(np.ones((3, 2)), np.ones((4, 2)), [1.0]), AlsConfig(factors=2), p)
        with np.load(p) as data:
            arrays = dict(data)
        arrays[name] = np.asarray(value, dtype=arrays[name].dtype)
        np.savez(p, **arrays)
        with pytest.raises(ValueError, match=r"model\.npz: metadata shapes"):
            load_model(p)


class TestLossTrace:
    def test_trace_equals_loss_of_each_sweep(self):
        rng = np.random.default_rng(41)
        s = random_sparse(rng, 12, 9, 40)
        for sweeps in (1, 3):
            cfg = AlsConfig(factors=4, lam=0.3, sweeps=sweeps, seed=2)
            model = als_fit(s, cfg)
            assert model.loss_trace[-1] == pytest.approx(loss(s, model, cfg.lam), rel=1e-12)


def svd_optimum(dense, k, lam):
    """Global optimum of the objective from a dense SVD (Levy & Goldberg 2014):
    each of the top k singular values sigma contributes 2 lam sigma - lam^2 when
    sigma > lam (the factor pair sqrt(sigma - lam) u, sqrt(sigma - lam) v) and
    sigma^2 otherwise; the rest contribute sigma^2.  Returns (f*, X, Y)."""
    u, sig, vt = np.linalg.svd(dense)
    head = sig[:k]
    fstar = float(np.sum(np.where(head > lam, 2 * lam * head - lam ** 2, head ** 2))
                  + np.sum(sig[k:] ** 2))
    w = np.sqrt(np.maximum(head - lam, 0.0))
    x = np.zeros((dense.shape[0], k))
    y = np.zeros((dense.shape[1], k))
    x[:, :len(head)] = u[:, :len(head)] * w
    y[:, :len(head)] = vt[:len(head)].T * w
    return fstar, x, y


class TestGlobalOptimumOracle:
    """The objective's global optimum is known in closed form, so ALS can be
    checked against it: no sweep goes below it, and 200 sweeps reach it."""

    def test_als_reaches_closed_form_optimum(self):
        rng = np.random.default_rng(51)
        for _ in range(30):
            m, n = int(rng.integers(2, 31)), int(rng.integers(2, 31))
            s = random_sparse(rng, m, n, nnz=int(rng.integers(1, m * n + 1)))
            k = int(rng.integers(1, min(m, n) + 3))
            lam = float(rng.uniform(0.05, 1.0))
            fstar, x, y = svd_optimum(s.toarray(), k, lam)
            assert loss(s, FactorModel(x, y), lam) == pytest.approx(fstar, rel=1e-9)
            cfg = AlsConfig(factors=k, lam=lam, sweeps=200, seed=int(rng.integers(100)))
            trace = als_fit(s, cfg).loss_trace
            assert min(trace) >= fstar - 1e-9 * max(1.0, fstar)
            assert trace[-1] - fstar <= 1e-6 * fstar


class TestHalfSweepOracle:
    """On well-conditioned systems the inverse-factor solve equals a dense LU
    solve of the ridge system; K = 1 takes the 1 x 1 factor."""

    @pytest.mark.parametrize("k", [1, 2, 17, 100])
    def test_matches_dense_solve(self, k):
        rng = np.random.default_rng(70 + k)
        for lam in (0.25, 3.0):
            other = rng.normal(size=(4 * k + 20, k))
            s = random_sparse(rng, 60, len(other), nnz=900)
            a = other.T @ other + lam * np.eye(k)
            assert np.linalg.cond(a) < 1e3
            want = np.linalg.solve(a, (s @ other).T).T
            z = _half_sweep(s, other, lam)
            assert np.max(np.abs(z - want)) <= 1e-12 * np.max(np.abs(want))


class TestIllConditionedHalfSweep:
    """A Gram matrix of condition ~1e13 to ~1e15: the inverse-Cholesky-factor
    solve keeps the normal-equation residual where a Cholesky solve with
    refinement has it; an explicit inverse of the system would not."""

    @pytest.mark.parametrize("lam", [1e-3, 1e-6])
    def test_residual_at_cholesky_precision(self, lam):
        rng = np.random.default_rng(21)
        low_rank = rng.normal(size=(200, 5)) @ rng.normal(size=(5, 100))
        other = low_rank * 1e3 + 1e-3 * rng.normal(size=(200, 100))
        s = random_sparse(rng, 300, 200, nnz=3000)
        a = other.T @ other + lam * np.eye(100)
        assert np.linalg.cond(a) > 1e13
        b = s @ other
        z = _half_sweep(s, other, lam)
        assert np.max(np.abs(z @ a - b)) / np.max(np.abs(b)) <= 1e-7


class TestInputChecks:
    @pytest.mark.parametrize("x_shape, y_shape", [((4, 2), (4, 2)),
                                                  ((3, 2), (5, 2)),
                                                  ((3, 2), (4, 3))])
    def test_loss_rejects_factor_shapes(self, x_shape, y_shape):
        model = FactorModel(np.zeros(x_shape), np.zeros(y_shape))
        with pytest.raises(ValueError) as err:
            loss(sp.csr_matrix((3, 4)), model, 0.25)
        for shape in ((3, 4), x_shape, y_shape):
            assert str(shape) in str(err.value)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_als_fit_rejects_non_finite_confidence(self, bad):
        dense = np.array([[1.0, 0.0, 2.0], [0.0, 0.0, bad], [bad, 1.0, 0.0]])
        with pytest.raises(ValueError, match=r"\(1, 2\)"):
            als_fit(sp.csr_matrix(dense), AlsConfig(factors=2, sweeps=1))


def fresh_array_fit(s, cfg):
    """als_fit's sweeps with a new array for every factor update and S' X stacked
    from its blocks: the arithmetic als_fit does in place, in the same order."""
    model = init_factors(*s.shape, cfg)
    x, y = model.X, model.Y
    s_blocks, st_blocks = _row_blocks(s), _row_blocks(s.T.tocsr())
    gy, s_sq = y.T @ y, float(s.data @ s.data)
    for _ in range(cfg.sweeps):
        x = _half_sweep(s_blocks, y, cfg.lam, gram=gy)
        stx = np.vstack([blk @ x for blk in st_blocks])
        gx = x.T @ x
        y = _half_sweep(st_blocks, x, cfg.lam, stx, gx)
        gy = y.T @ y
        model.loss_trace.append(_objective(s_sq, y, stx, gx, gy, cfg.lam))
    model.X, model.Y = x, y
    return model


class TestFactorBuffers:
    """als_fit solves into the initial factors' arrays and one S' X array."""

    def test_same_bytes_on_any_cpu_count_and_input_kept(self, cpus, monkeypatch):
        monkeypatch.setattr(factorization, "_BLOCK_ROWS", 16)  # 4 and 3 blocks a side
        s = random_sparse(np.random.default_rng(60), 70, 50, 600)
        kept = [a.copy() for a in (s.data, s.indices, s.indptr)]
        cfg = AlsConfig(factors=6, lam=0.3, sweeps=4, seed=1)
        want = fresh_array_fit(s, cfg)
        for n in (1, 2):
            cpus(n)
            got = als_fit(s, cfg)
            assert got.X.tobytes() == want.X.tobytes() and got.Y.tobytes() == want.Y.tobytes()
            assert got.loss_trace == want.loss_trace
        for a, b in zip(kept, (s.data, s.indices, s.indptr)):
            assert a.tobytes() == b.tobytes()

    def test_traced_peak_holds_few_factor_arrays(self):
        """The traced peak is the result, three copies of S (its transpose and the
        row blocks of both) and per-sweep arrays: measured 1.0 factor arrays of the
        larger side on two CPUs, against 3.7 when every update made a new array and
        S' X was stacked from a list of its blocks."""
        m, n, k = 3000, 2000, 32
        s = random_sparse(np.random.default_rng(61), m, n, 40_000)
        tracemalloc.start()
        try:
            model = als_fit(s, AlsConfig(factors=k, sweeps=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        s_bytes = s.data.nbytes + s.indices.nbytes + s.indptr.nbytes
        assert peak < model.X.nbytes + model.Y.nbytes + 3 * s_bytes + 2 * max(m, n) * k * 8


class TestUnevenBlocks:
    """Row blocks that do not divide the rows evenly, at cell-scaled's 7 a side."""

    def test_seven_blocks_a_side_match_the_oracle_on_one_to_three_cpus(self, cpus, monkeypatch):
        monkeypatch.setattr(factorization, "_BLOCK_ROWS", 16)  # 120 // 16 = 115 // 16 = 7
        s = random_sparse(np.random.default_rng(62), 120, 115, 1_500)
        assert len(_row_blocks(s)) == len(_row_blocks(s.T.tocsr())) == 7
        cfg = AlsConfig(factors=6, lam=0.3, sweeps=4, seed=2)
        want = fresh_array_fit(s, cfg)
        for n in (1, 2, 3):
            cpus(n)
            got = als_fit(s, cfg)
            assert got.X.tobytes() == want.X.tobytes() and got.Y.tobytes() == want.Y.tobytes()
            assert got.loss_trace == want.loss_trace

    def test_non_finite_factors_raise_from_a_solve_block(self, cpus, monkeypatch):
        monkeypatch.setattr(factorization, "_BLOCK_ROWS", 16)
        cpus(2)
        s = random_sparse(np.random.default_rng(63), 120, 115, 1_500).tolil()
        s[70, :] = 1e307  # a row in the fifth of seven user blocks overflows its solve
        cfg = AlsConfig(factors=4, lam=1e-10, sweeps=2, init_scale=1e-3)
        with np.errstate(over="ignore", invalid="ignore"):  # else numpy raises first
            with pytest.raises(RuntimeError, match="non-finite user factors at sweep 0"):
                als_fit(s.tocsr(), cfg)
