"""Low-level numerics: the seeded random stream, row norms and
golden-section minimization; and the tests' finite-difference oracle with
its input check."""

import math

import numpy as np
import pytest

from eoslab import data, losses
from eoslab.numerics import Rng, _norms, minimize_1d

from _oracles import as_vec, finite_diff_grad, linear_gd_maps


class TestAsVec:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            as_vec([np.nan, 0.0])

    def test_rejects_non_vector(self):
        with pytest.raises(ValueError, match="1-D"):
            as_vec([[1.0, 2.0]])
        with pytest.raises(ValueError, match="1-D"):
            as_vec([])


class TestRng:
    def test_same_seed_same_stream(self):
        v1 = Rng(0).normals(64)
        v2 = Rng(0).normals(64)
        np.testing.assert_array_equal(v1, v2)

    def test_stream_advances(self):
        rng = Rng(0)
        a = rng.normals(2)
        b = rng.normals(2)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = Rng(0).normals(64)
        b = Rng(1).normals(64)
        assert np.any(a != b)

    def test_moments_at_scale(self):
        # 1e5 two-coordinate samples: per-coordinate mean within +/-0.02
        z = Rng(123).normals(200_000).reshape(-1, 2)
        mean = z.mean(axis=0)
        assert np.all(np.abs(mean) <= 0.02)
        assert np.all(np.abs(z.std(axis=0) - 1.0) <= 0.02)

    def test_rademacher_values(self):
        r = Rng(3).rademacher(1000)
        assert set(np.unique(r)) <= {-1.0, 1.0}

    def test_bad_dim(self):
        with pytest.raises(ValueError):
            Rng(0).normals(0)

    @pytest.mark.parametrize("k", [1, 2, 5])
    @pytest.mark.parametrize("d", [1, 2, 3, 50, 51])
    def test_rows_are_consecutive_draws(self, d, k):
        # bit for bit as k calls of normals(d), leaving the same stream behind
        for seed in range(4):
            a, b = Rng(seed), Rng(seed)
            got = a.normals((k, d))
            ref = np.stack([b.normals(d) for _ in range(k)])
            assert got.shape == (k, d) and got.dtype == np.float64
            assert got.tobytes() == ref.tobytes()
            assert a.uniform(1)[0] == b.uniform(1)[0]

    @pytest.mark.parametrize("k", [0, 1, 2, 5])
    def test_rows_of_no_size_refused(self, k):
        with pytest.raises(ValueError, match="size must be >= 1"):
            Rng(0).normals((k, 0))

    @pytest.mark.parametrize("d", [1, 2, 3, 50, 51])
    def test_no_rows_draw_nothing(self, d):
        a, b = Rng(9), Rng(9)
        z = a.normals((0, d))
        assert z.shape == (0, d) and z.dtype == np.float64
        assert a.uniform(1)[0] == b.uniform(1)[0]


class TestNorms:
    def test_rows_whose_square_leaves_the_normal_range(self):
        # rows whose v.dot(v) overflows, is subnormal or underflows to 0, and
        # whose norms are floats, beside a normal row that keeps its bits
        A = np.array([[3 * 2.0 ** 700, 4 * 2.0 ** 700], [3 * 2.0 ** -700, 4 * 2.0 ** -700],
                      [2.0 ** -1074, 0.0], [1e308, 1e308], [1.7e308, 1.7e308], [0.0, -0.0],
                      [math.inf, 1.0], [math.nan, 1.0], [0.3, 0.4]])
        with np.errstate(over="ignore"):
            got = _norms(A)
        want = [5 * 2.0 ** 700, 5 * 2.0 ** -700, 2.0 ** -1074, math.sqrt(2.0) * 1e308,
                math.inf, 0.0, math.inf, math.nan, math.sqrt(0.3 * 0.3 + 0.4 * 0.4)]
        np.testing.assert_array_equal(got, want)


class TestMinimize1d:
    def test_symmetric_quadratic(self):
        x, fx = minimize_1d(lambda z: z * z, -1.0, 1.0, tol=1e-10)
        assert abs(x) < 1e-9
        assert fx < 1e-18

    def test_shifted_quadratic(self):
        x, _ = minimize_1d(lambda z: (z - 3.0) ** 2, 0.0, 10.0, tol=1e-10)
        assert x == pytest.approx(3.0, abs=1e-8)

    def test_regularization_path_objective(self):
        # lambda = e instance of min_z lambda*l(z) + z^2 for the logistic
        # loss; a dense grid is the independent oracle
        def h(z):
            return math.e * math.log1p(math.exp(-z)) + z * z

        x, fx = minimize_1d(h, -5.0, 20.0, tol=1e-10)
        zs = np.arange(-5.0, 20.0, 1e-4)
        oracle = float(np.min(math.e * np.logaddexp(0.0, -zs) + zs ** 2))
        assert fx <= 2.0
        assert fx == pytest.approx(oracle, abs=1e-6)

    def test_tol_below_the_float_spacing_stalls(self):
        # floats near 1e10 are 1.9e-6 apart, so no bracket there is 1e-8 wide
        with pytest.raises(ValueError, match="stalled"):
            minimize_1d(lambda z: (z - 1e10) ** 2, 0.0, 2e10, tol=1e-8)

    def test_widest_bracket_meets_its_tol(self):
        # about 1500 steps narrow [0, 1e308] to 1e-8 around 1
        x, _ = minimize_1d(lambda z: abs(z - 1.0), 0.0, 1e308, tol=1e-8)
        assert abs(x - 1.0) <= 1e-8

    def test_bad_bracket(self):
        with pytest.raises(ValueError, match="need lo < hi"):
            minimize_1d(lambda z: z * z, 1.0, -1.0)
        # hi - lo overflows, where the search used to return (inf, inf): it
        # is refused before f is called
        seen = []
        with pytest.raises(ValueError, match=r"bracket \[-1e\+308, 1e\+308\] is wider than"):
            minimize_1d(lambda z: seen.append(z) or abs(z - 1.0), -1e308, 1e308, tol=1e-8)
        assert seen == []

    def test_random_convex_quadratics(self):
        rng = Rng(11)
        for _ in range(25):
            c = float(10.0 * rng.uniform(1)[0] - 5.0)
            a = float(rng.uniform(1)[0]) + 0.1
            x, _ = minimize_1d(lambda z: a * (z - c) ** 2, -10.0, 10.0, tol=1e-9)
            assert x == pytest.approx(c, abs=1e-7)


class TestFiniteDiff:
    def test_linear_function(self):
        c = np.array([2.0, -1.5, 0.25])
        g = finite_diff_grad(lambda w: w @ c, np.array([0.3, 0.7, -2.0]), h=1e-5)
        np.testing.assert_allclose(g, c, atol=1e-8)

    def test_half_square_norm(self):
        w = np.array([1.0, -2.0, 0.5])
        g = finite_diff_grad(lambda w_: 0.5 * (w_ @ w_), w, h=1e-5)
        np.testing.assert_allclose(g, w, atol=1e-6)

    def test_matches_analytic_logistic_gradient(self):
        ds = data.toy_dataset()
        loss = losses.logistic()
        w = np.zeros(2)
        mean_loss, grad = linear_gd_maps(loss, ds)
        fd = finite_diff_grad(mean_loss, w, h=1e-5)
        np.testing.assert_allclose(fd, grad(w), atol=1e-6)

    def test_bad_h(self):
        with pytest.raises(ValueError):
            finite_diff_grad(lambda w: 0.0, np.array([1.0]), h=0.0)
