"""ALS solver: closed-form correctness, monotone objective, exact oracles."""

import numpy as np
import pytest
import scipy.sparse as sp

from walkrec.factorization import (AlsConfig, FactorModel, _half_sweep, als_fit,
                                   init_factors, load_model, loss, predict,
                                   save_model)

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
        with pytest.raises(ValueError):
            predict(model, 2, 0)
        with pytest.raises(ValueError):
            predict(model, 0, 3)


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


class TestLossTrace:
    def test_trace_equals_loss_of_each_sweep(self):
        rng = np.random.default_rng(41)
        s = random_sparse(rng, 12, 9, 40)
        for sweeps in (1, 3):
            cfg = AlsConfig(factors=4, lam=0.3, sweeps=sweeps, seed=2)
            model = als_fit(s, cfg)
            assert model.loss_trace[-1] == pytest.approx(loss(s, model, cfg.lam), rel=1e-12)
