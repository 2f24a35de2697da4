"""Datasets and the max-margin solver, cross-checked against a dense
direction-grid oracle in two dimensions, random separable sets and a
scipy QP oracle."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eoslab import data
from eoslab.numerics import Rng

from _oracles import synthetic_separable_rows, verify_margin


def grid_margin_2d(ds, coarse=1_000_000, refine=10_000):
    """Independent oracle: max over unit directions of the min signed
    margin, by 1e6-direction sweep plus one local refinement."""
    Z = ds.signed()

    def best(thetas):
        dirs = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
        vals = (dirs @ Z.T).min(axis=1)
        k = int(np.argmax(vals))
        return thetas[k], float(vals[k])

    thetas = np.linspace(0.0, 2.0 * math.pi, coarse, endpoint=False)
    th, _ = best(thetas)
    step = 2.0 * math.pi / coarse
    fine = np.linspace(th - 2 * step, th + 2 * step, refine)
    _, val = best(fine)
    return val


def qp_min_norm(Z):
    """Independent oracle: the min-norm point's norm over conv(rows of Z),
    by scipy's SLSQP on the simplex-constrained QP."""
    optimize = pytest.importorskip("scipy.optimize")
    n = Z.shape[0]
    res = optimize.minimize(
        lambda lam: float((lam @ Z) @ (lam @ Z)), np.full(n, 1.0 / n),
        jac=lambda lam: 2.0 * (Z @ (lam @ Z)), method="SLSQP",
        bounds=[(0.0, 1.0)] * n,
        constraints=[{"type": "eq", "fun": lambda lam: lam.sum() - 1.0,
                      "jac": lambda lam: np.ones(n)}],
        options={"ftol": 1e-16, "maxiter": 1000})
    assert res.success, res.message
    return math.sqrt(res.fun)


@st.composite
def separable_sets(draw):
    """Random labeled sets whose signed samples all have first coordinate
    >= an offset in [0.05, 1], so e_1 separates them."""
    n = draw(st.integers(1, 12))
    d = draw(st.integers(1, 5))
    coord = st.floats(-1.0, 1.0)
    xs = np.array(draw(st.lists(st.lists(coord, min_size=d, max_size=d),
                                min_size=n, max_size=n)))
    ys = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)))
    xs[:, 0] = ys * (np.abs(xs[:, 0]) + draw(st.floats(0.05, 1.0)))
    return data.Dataset(xs, ys, name="drawn")


class TestToyDataset:
    def test_shape_and_values(self):
        ds = data.toy_dataset()
        assert (ds.n, ds.d) == (4, 2)
        np.testing.assert_array_equal(ds.xs[0], [1.0, 0.2])
        np.testing.assert_array_equal(ds.xs[1], [-2.0, 0.2])
        np.testing.assert_array_equal(ds.ys, [1.0, 1.0, -1.0, -1.0])

    def test_signed_samples_collapse_to_two_points(self):
        Z = data.toy_dataset().signed()
        np.testing.assert_array_equal(Z[0], Z[2])
        np.testing.assert_array_equal(Z[1], Z[3])
        np.testing.assert_array_equal(Z[0], [1.0, 0.2])
        np.testing.assert_array_equal(Z[1], [-2.0, 0.2])

    def test_max_norm(self):
        ds = data.toy_dataset()
        assert ds.max_norm == pytest.approx(math.sqrt(4.04), abs=1e-12)
        assert ds.max_norm > 1.0 + 1e-12

    def test_normalized_variant(self):
        nds = data.normalized(data.toy_dataset())
        assert nds.max_norm == pytest.approx(1.0, abs=1e-12)
        assert nds.max_norm <= 1.0 + 1e-12


class TestLowerBoundDataset:
    def test_construction(self):
        ds = data.lower_bound_dataset(0.05)
        assert np.linalg.norm(ds.xs[0]) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(ds.xs[1], [0.05, -0.49937], atol=5e-6)
        assert ds.max_norm <= 1.0 + 1e-12
        np.testing.assert_array_equal(ds.ys, [1.0, 1.0])

    def test_margin_along_first_axis(self):
        ds = data.lower_bound_dataset(0.05)
        assert np.min(ds.signed() @ np.array([1.0, 0.0])) >= 0.05 - 1e-15

    @pytest.mark.parametrize("gamma", [0.0, 0.1, 0.5, -0.01])
    def test_gamma_range(self, gamma):
        with pytest.raises(ValueError):
            data.lower_bound_dataset(gamma)


class TestSyntheticSeparable:
    def test_construction_invariants(self):
        ds = data.synthetic_separable(200, 6, 0.15, Rng(4))
        norms = np.linalg.norm(ds.xs, axis=1)
        assert np.all(norms <= 1.0 + 1e-12)
        e1 = np.zeros(6)
        e1[0] = 1.0
        assert np.min(ds.signed() @ e1) >= 0.15 - 1e-12

    def test_seed_stability(self):
        a = data.synthetic_separable(50, 3, 0.2, Rng(9))
        b = data.synthetic_separable(50, 3, 0.2, Rng(9))
        np.testing.assert_array_equal(a.xs, b.xs)
        np.testing.assert_array_equal(a.ys, b.ys)

    def test_construction_certificate_verifies(self):
        ds = data.synthetic_separable(100, 4, 0.3, Rng(2))
        e1 = np.zeros(4)
        e1[0] = 1.0
        cert = data.MarginCertificate(gamma=0.3, w_star=e1, upper=1.0)
        assert verify_margin(ds, cert)

    @pytest.mark.parametrize("n,d", [(1, 2), (1, 3), (2, 2), (3, 5), (17, 2), (64, 99),
                                     (200, 10), (300, 20), (1000, 50), (1000, 51),
                                     (3, 8193)])
    def test_matches_one_sample_at_a_time(self, n, d):
        # every sample, label and name, and the stream left behind, bit for
        # bit as the per-sample loop, over one draw, several, and one sample
        # a draw (d = 8193); the benchmark's dataset checks rebuild through
        # the builder itself, so only this test guards its bits
        gammas = np.random.default_rng([n, d]).uniform(0.01, 0.99, size=40)
        for seed, gamma in enumerate(gammas.tolist()):
            a, b = Rng(seed), Rng(seed)
            got = data.synthetic_separable(n, d, gamma, a)
            ref = synthetic_separable_rows(n, d, gamma, b)
            assert got.xs.tobytes() == ref.xs.tobytes()
            assert got.ys.tobytes() == ref.ys.tobytes() and got.name == ref.name
            assert a.uniform(1)[0] == b.uniform(1)[0]


class TestMarginSolver:
    def test_toy_margin(self):
        cert = data.margin(data.toy_dataset())
        assert cert.gamma == pytest.approx(0.2, abs=1e-12)
        np.testing.assert_allclose(cert.w_star, [0.0, 1.0], atol=1e-9)
        assert cert.upper - cert.gamma <= 1e-7

    def test_lower_bound_margin(self):
        cert = data.margin(data.lower_bound_dataset(0.05))
        assert cert.gamma == pytest.approx(0.05, abs=1e-10)
        np.testing.assert_allclose(cert.w_star, [1.0, 0.0], atol=1e-9)

    def test_matches_direction_grid_oracle(self):
        for ds in (data.toy_dataset(), data.lower_bound_dataset(0.05),
                   data.synthetic_separable(40, 2, 0.25, Rng(7))):
            cert = data.margin(ds)
            assert cert.gamma == pytest.approx(grid_margin_2d(ds), abs=1e-6)

    def test_non_separable_detected(self):
        ds = data.Dataset(np.array([[1.0, 0.0], [-1.0, 0.0]]),
                          np.array([1.0, 1.0]), name="degenerate")
        with pytest.raises(data.NotSeparable):
            data.margin(ds)

    def test_wolfe_norms_non_increasing(self):
        rng = Rng(21)
        for _ in range(10):
            xs = rng.normals(60).reshape(20, 3) + np.array([2.0, 0.0, 0.0])
            ds = data.Dataset(xs, np.ones(20), name="offset-cloud")
            trace: list = []
            data.margin(ds, trace=trace)
            diffs = np.diff(np.array(trace))
            assert np.all(diffs <= 1e-12)

    def test_synthetic_certificate_verifies_exactly(self):
        # the direction attains the reported gamma, which is at least the
        # construction margin along e_1
        ds = data.synthetic_separable(1000, 50, 0.1, Rng(0))
        cert = data.margin(ds)
        assert verify_margin(ds, cert, tol=0.0)
        assert cert.gamma >= 0.1

    def test_iteration_cap_raises_not_converged(self, monkeypatch):
        Z = data.synthetic_separable(200, 10, 0.1, Rng(1)).signed()
        monkeypatch.setattr(data, "_MAX_MAJOR", 1)
        with pytest.raises(data.NotConverged, match="cap 1 "):
            data._wolfe_min_norm_point(Z)
        assert "NotConverged" in data.__all__

    @pytest.mark.parametrize("gamma", [1e-10, 3e-10, 1e-9, 3e-9, 1e-8, 3e-8, 1e-7, 3e-7])
    def test_roundoff_stop_refines_before_giving_up(self, gamma):
        # on these sets roundoff stops the solver (its best row is already
        # active) with a gap of about eps * R^2; the refinement step, as on
        # success, brings it within tolerance
        ds = data.lower_bound_dataset(gamma)
        cert = data.margin(ds)
        assert verify_margin(ds, cert, tol=0.0)
        assert cert.upper - gamma <= 1e-10 * ds.max_norm

    def test_roundoff_stop_names_its_cause(self, monkeypatch):
        # at a zero tolerance no gap passes, so roundoff stops every run
        Z = data.lower_bound_dataset(1e-8).signed()
        monkeypatch.setattr(data, "_MARGIN_TOL", 0.0)
        with pytest.raises(data.NotConverged, match="stopped by roundoff .* after "
                                                    "refinement$"):
            data._wolfe_min_norm_point(Z)

    @settings(max_examples=200, deadline=None)
    @given(separable_sets())
    def test_certificate_brackets_the_margin(self, ds):
        cert = data.margin(ds)
        assert cert.gamma <= cert.upper
        assert cert.upper - cert.gamma <= 1e-9 * ds.max_norm
        assert verify_margin(ds, cert, tol=0.0)

    @pytest.mark.parametrize("exponent", range(150, 171))
    def test_tiny_margin_not_overstated(self, exponent):
        # below a margin of about 1e-154 the min-norm point p has a subnormal
        # p . p; the certificate is refused or claims no more than its
        # direction, normalized, attains (squared, so the check is exact)
        ds = data.lower_bound_dataset(10.0 ** -exponent)
        try:
            cert = data.margin(ds)
        except data.NotSeparable:
            return
        w = [Fraction(x) for x in cert.w_star.tolist()]
        attained = min(sum(Fraction(z) * wi for z, wi in zip(row, w))
                       for row in ds.signed().tolist())
        assert attained > 0
        assert Fraction(cert.gamma) ** 2 * sum(wi * wi for wi in w) <= attained ** 2

    @pytest.mark.parametrize("seed", range(30))
    def test_upper_matches_qp_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(2, 16)), int(rng.integers(2, 6))
        ds = data.synthetic_separable(n, d, float(rng.uniform(0.02, 0.5)), Rng(seed))
        assert data.margin(ds).upper == pytest.approx(qp_min_norm(ds.signed()), abs=1e-6)


class TestVerifyMargin:
    def test_toy_certificate_true(self):
        ds = data.toy_dataset()
        assert verify_margin(ds, data.margin(ds))

    def test_rotated_direction_false(self):
        ds = data.toy_dataset()
        cert = data.margin(ds)
        th = math.radians(10.0)
        rot = np.array([[math.cos(th), -math.sin(th)],
                        [math.sin(th), math.cos(th)]])
        tilted = data.MarginCertificate(gamma=cert.gamma,
                                        w_star=rot @ cert.w_star,
                                        upper=cert.upper)
        assert not verify_margin(ds, tilted)

    def test_zero_margin_rejected_by_invariant(self):
        with pytest.raises(ValueError):
            data.MarginCertificate(gamma=0.0, w_star=np.array([0.0, 1.0]),
                                   upper=0.0)

    def test_non_unit_direction_rejected(self):
        with pytest.raises(ValueError):
            data.MarginCertificate(gamma=0.1, w_star=np.array([0.0, 2.0]),
                                   upper=0.1)

    def test_upper_below_margin_rejected(self):
        with pytest.raises(ValueError, match="upper"):
            data.MarginCertificate(gamma=0.2, w_star=np.array([0.0, 1.0]),
                                   upper=0.1)


class TestCsv:
    def test_round_trip(self, tmp_path):
        ds = data.toy_dataset()
        p = tmp_path / "toy.csv"
        p.write_text("".join(f"{int(y)},{x[0]!r},{x[1]!r}\n"
                             for x, y in zip(ds.xs.tolist(), ds.ys.tolist())))
        back = data.load_csv(p)
        np.testing.assert_array_equal(back.xs, ds.xs)
        np.testing.assert_array_equal(back.ys, ds.ys)

    def test_two_row_file(self, tmp_path):
        p = tmp_path / "two.csv"
        p.write_text("1,0.5,0.25\n-1,-0.125,1.0\n")
        ds = data.load_csv(p)
        assert ds.n == 2 and ds.d == 2
        np.testing.assert_array_equal(ds.xs, [[0.5, 0.25], [-0.125, 1.0]])
        np.testing.assert_array_equal(ds.ys, [1.0, -1.0])

    def test_bad_label_reports_row(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1,0.5\n0,0.25\n")
        with pytest.raises(ValueError, match=":2:"):
            data.load_csv(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(ValueError, match="empty"):
            data.load_csv(p)

    def test_nan_feature_names_file(self, tmp_path):
        p = tmp_path / "holes.csv"
        p.write_text("1,0.5,0.25\n-1,nan,1.0\n")
        with pytest.raises(ValueError, match="holes.csv.*finite"):
            data.load_csv(p)

    @pytest.mark.parametrize("scale", [1.5e154, 1e-320, 2.0 ** 500 * (1 + 2 ** -52),
                                       2.0 ** -501])
    def test_out_of_scale_features_refused(self, tmp_path, scale):
        # sample norms overflow or underflow beyond [2^-500, 2^500]
        p = tmp_path / "scale.csv"
        p.write_text(f"1,{scale!r},1e-300\n-1,{-scale!r},0\n")
        with pytest.raises(ValueError, match=r"scale.csv: the largest \|feature\| is .*"
                                             r"outside \[2\^-500, 2\^500\]"):
            data.load_csv(p)

    @pytest.mark.parametrize("scale", [2.0 ** 500, 2.0 ** -500, 0.0])
    def test_in_scale_and_all_zero_features_read(self, tmp_path, scale):
        p = tmp_path / "scale.csv"
        p.write_text(f"1,{scale!r},0\n-1,{-scale!r},0\n")
        np.testing.assert_array_equal(data.load_csv(p).xs, [[scale, 0.0], [-scale, 0.0]])

    def test_ragged_rows(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("1,0.5,0.25\n-1,0.5\n")
        with pytest.raises(ValueError, match="fields"):
            data.load_csv(p)

    def test_normalization(self, tmp_path):
        p = tmp_path / "wide.csv"
        p.write_text("1,3.0,4.0\n-1,0.5,0.5\n")
        ds = data.dataset_from_json({"kind": "csv", "path": str(p), "normalize": "max"})
        assert ds.max_norm == pytest.approx(1.0, abs=1e-12)
        assert ds.name == "wide/normalized"


class TestDatasetValidation:
    def test_bad_labels(self):
        with pytest.raises(ValueError):
            data.Dataset(np.ones((2, 2)), np.array([1.0, 0.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_features(self, bad):
        with pytest.raises(ValueError, match="finite"):
            data.Dataset(np.array([[1.0, bad]]), np.array([1.0]))

    def test_descriptor_round_trip(self):
        ds = data.dataset_from_json({"kind": "toy", "normalize": "max"})
        assert ds.max_norm <= 1.0 + 1e-12
        ds = data.dataset_from_json({"kind": "lower_bound", "gamma": 0.05})
        assert ds.n == 2
        ds = data.dataset_from_json({"kind": "synthetic", "n": 10, "d": 3,
                                     "gamma": 0.2, "seed": 1})
        assert (ds.n, ds.d) == (10, 3)
        with pytest.raises(ValueError):
            data.dataset_from_json({"kind": "mnist"})

    @pytest.mark.parametrize("desc,error", [
        ({"kind": "toy", "n": 5}, "unknown keys of a toy dataset: ['n']"),
        ({"kind": "csv", "path": "x.csv", "gamma": 0.1},
         "unknown keys of a csv dataset: ['gamma']"),
        ({"kind": "lower_bound", "gamma": 0.05, "seed": 0, "d": 2},
         "unknown keys of a lower_bound dataset: ['d', 'seed']"),
        ({"kind": "toy", "normalize": "min"},
         'a dataset\'s "normalize" must be "max", not \'min\''),
        ({"kind": "synthetic", "n": 10, "d": 3, "gamma": 0.2, "seed": 1, "normalize": None},
         'a dataset\'s "normalize" must be "max", not None'),
    ], ids=["toy-n", "csv-gamma", "lower_bound-seed-d", "normalize-min", "normalize-null"])
    def test_descriptor_takes_only_the_keys_of_its_kind(self, desc, error):
        with pytest.raises(ValueError) as exc:
            data.dataset_from_json(desc)
        assert str(exc.value) == error

    SYNTHETIC = {"kind": "synthetic", "n": 10, "d": 3, "gamma": 0.2, "seed": 1}

    @pytest.mark.parametrize("key,value,error", [
        ("seed", 2.5, "an integer, not 2.5"), ("seed", True, "a number, not true"),
        ("seed", "3", 'a number, not "3"'), ("n", 10.5, "an integer, not 10.5"),
        ("d", False, "a number, not false"), ("gamma", "0.1", 'a number, not "0.1"'),
        ("gamma", True, "a number, not true"),
    ], ids=["seed-2.5", "seed-true", "seed-str", "n-float", "d-bool", "gamma-str",
            "gamma-bool"])
    def test_synthetic_numbers_are_json_numbers(self, key, value, error):
        with pytest.raises(ValueError) as exc:
            data.dataset_from_json(dict(self.SYNTHETIC, **{key: value}))
        assert str(exc.value) == f'"{key}" of a synthetic dataset must be {error}'

    def test_integral_float_seed_is_the_int_seed(self):
        ds = data.dataset_from_json(dict(self.SYNTHETIC, seed=1.0))
        assert np.array_equal(ds.xs, data.dataset_from_json(self.SYNTHETIC).xs)

    @pytest.mark.parametrize("desc,error", [
        ({"kind": "lower_bound", "gamma": None},
         '"gamma" of a lower_bound dataset must be a number, not null'),
        ({"kind": "csv", "path": None}, '"path" of a csv dataset must be a string, not null'),
        ({"kind": "csv", "path": 5}, '"path" of a csv dataset must be a string, not 5'),
    ], ids=["lower_bound-gamma-null", "csv-path-null", "csv-path-number"])
    def test_other_descriptor_values(self, desc, error):
        with pytest.raises(ValueError) as exc:
            data.dataset_from_json(desc)
        assert str(exc.value) == error
