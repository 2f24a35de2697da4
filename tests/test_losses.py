"""Loss families: pointwise values, derivative consistency, regularity
constants, the regularization-path length rho, and the sampled
conformance checker."""

import math
import re
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from eoslab import losses as L
from eoslab.numerics import Rng

from _oracles import logistic_deriv

ALL_SPECS = [
    L.logistic(),
    L.flattened_exponential(0.5), L.flattened_exponential(1.0),
    L.flattened_exponential(2.0),
    L.flattened_polynomial(0.5), L.flattened_polynomial(1.0),
    L.flattened_polynomial(2.0),
]

LAMBDA_GRID = [1.0, 2.0, 10.0, 1e2, 1e4, 1e6]


def spec_id(spec):
    return spec.kind if spec.a is None else f"{spec.kind}(a={spec.a})"


class TestPointwiseValues:
    def test_logistic_at_zero(self):
        assert L.eval_loss(L.logistic(), 0.0) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_flat_exp_negative_branch(self):
        assert L.eval_loss(L.flattened_exponential(1.0), -2.0) == 3.0

    def test_flat_poly_positive_branch(self):
        # (1+1)^(-2) = 0.25
        assert L.eval_loss(L.flattened_polynomial(2.0), 1.0) == pytest.approx(0.25, abs=1e-15)

    def test_logistic_deriv_at_zero(self):
        assert L.deriv(L.logistic(), 0.0) == pytest.approx(-0.5, abs=1e-15)

    def test_flat_exp_seam_continuity(self):
        spec = L.flattened_exponential(2.0)
        assert L.deriv(spec, 0.0) == -2.0
        assert L.deriv(spec, 1e-12) == pytest.approx(-2.0, abs=1e-10)
        assert L.eval_loss(spec, 0.0) == 1.0

    def test_flat_poly_deriv(self):
        # -a (1+z)^(-(a+1)) at a=2, z=1: -2 * 2^(-3) = -0.25
        assert L.deriv(L.flattened_polynomial(2.0), 1.0) == pytest.approx(-0.25, abs=1e-15)

    def test_g_tail_and_center(self):
        log = L.logistic()
        assert L.g(log, 50.0) < 1e-20
        assert L.g(log, 0.0) == pytest.approx(0.5, abs=1e-15)
        assert L.g(L.flattened_exponential(1.0), -7.0) == 1.0

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=spec_id)
    def test_breakpoint_from_left_branch(self, spec):
        z = np.array([-1e-9, 0.0, 1e-9])
        vals = L.eval_loss(spec, z)
        assert vals[0] >= vals[1] >= vals[2]

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=spec_id)
    def test_extreme_arguments_stay_finite(self, spec):
        z = np.array([-700.0, -50.0, 50.0, 700.0])
        assert np.all(np.isfinite(L.eval_loss(spec, z)))
        assert np.all(np.isfinite(L.deriv(spec, z)))


# any float, the special values, subnormals, and the tails where e^-|z|
# nears the smallest normal (|z| ~ 708) and underflows to subnormals and 0
def _either_sign(magnitudes):
    return magnitudes.flatmap(lambda v: st.sampled_from([v, -v]))


LOGISTIC_ARGS = st.one_of(
    st.floats(width=64),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
    _either_sign(st.floats(min_value=0.0, max_value=2.2250738585072014e-308)),
    _either_sign(st.floats(min_value=650.0, max_value=760.0)))


class TestLogisticDerivMatchesTwoBranchOracle:
    """deriv's one-division logistic branch must give the bits of the
    two-branch expression, signed zeros and NaNs included."""

    @staticmethod
    def _assert_same_bits(got, ref):
        got, ref = np.asarray(got), np.asarray(ref)
        assert np.array_equal(got, ref, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(ref))

    @settings(max_examples=300, deadline=None)
    @given(arrays(np.float64, st.integers(0, 40), elements=LOGISTIC_ARGS))
    def test_array(self, z):
        ref = logistic_deriv(z)
        self._assert_same_bits(L.deriv(L.logistic(), z), ref)
        self._assert_same_bits(L.g(L.logistic(), z), np.abs(ref))

    def test_special_values(self):
        # signed zeros, infinities, NaNs of either sign and with a payload,
        # subnormals, and |z| past 745, where e^-|z| underflows to 0
        nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000123,
                         0xFFF0000000000001], dtype=np.uint64).view(np.float64)
        z = np.concatenate([[0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324,
                             2.2e-308, -2.2e-308, 745.1, -745.1, 746.0, -746.0,
                             1e308, -1e308], nans])
        ref = logistic_deriv(z)
        assert np.array_equal(L.deriv(L.logistic(), z).view(np.int64), ref.view(np.int64))
        assert np.array_equal(L.g(L.logistic(), z).view(np.int64),
                              np.abs(ref).view(np.int64))

    @settings(max_examples=300, deadline=None)
    @given(LOGISTIC_ARGS)
    def test_scalar(self, z):
        ref = float(logistic_deriv(z))
        got = L.deriv(L.logistic(), z)
        assert isinstance(got, float)
        self._assert_same_bits(got, ref)
        self._assert_same_bits(L.g(L.logistic(), z), abs(ref))


class TestDerivativeConsistency:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=spec_id)
    def test_matches_central_differences(self, spec):
        h = 1e-6
        away = np.linspace(-8.0, 8.0, 401)
        away = away[np.abs(away) > 0.1]
        fd = (L.eval_loss(spec, away + h) - L.eval_loss(spec, away - h)) / (2 * h)
        np.testing.assert_allclose(L.deriv(spec, away), fd, atol=1e-6)
        # crossing the seam the loss is C^1 but not C^2; looser tolerance
        near = np.linspace(-0.1, 0.1, 41)
        fd = (L.eval_loss(spec, near + h) - L.eval_loss(spec, near - h)) / (2 * h)
        np.testing.assert_allclose(L.deriv(spec, near), fd, atol=1e-4)


class TestConstants:
    def test_prop_constants(self):
        log = L.logistic()
        assert (log.C_g, log.C_beta, log.C_e) == (1.0, math.e / 2.0, 2.0)
        assert log.ell0 == pytest.approx(math.log(2.0))
        fe = L.flattened_exponential(2.0)
        assert fe.C_g == 2.0
        assert fe.C_beta == pytest.approx(max(2.0, 2.0 * math.exp(2.0) / 2.0, 1.0))
        assert fe.C_e == 0.5
        fp = L.flattened_polynomial(2.0)
        assert fp.C_g == 2.0
        assert fp.C_beta == pytest.approx(max(2.0, 3.0 * 4.0))
        assert fp.C_e is None and fp.ell0 == 1.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            L.flattened_exponential(0.0)
        with pytest.raises(ValueError):
            L.flattened_polynomial(-1.0)

    @pytest.mark.parametrize("factory,a,error", [
        (L.flattened_exponential, 709.0, "flat_exp with a=709.0 has C_beta = inf"),
        (L.flattened_exponential, 710.0, "flat_exp with a=710.0 has C_beta = inf"),
        (L.flattened_exponential, 1e-320, "flat_exp with a=1e-320 has C_e = inf"),
        (L.flattened_exponential, math.inf, "flat_exp requires a finite a > 0, not inf"),
        (L.flattened_exponential, math.nan, "flat_exp requires a finite a > 0, not nan"),
        (L.flattened_polynomial, 1023.0, "flat_poly with a=1023.0 has C_beta = inf"),
        (L.flattened_polynomial, 1025.0, "flat_poly with a=1025.0 has C_beta = inf"),
        (L.flattened_polynomial, math.inf, "flat_poly requires a finite a > 0, not inf"),
        (L.flattened_polynomial, 0.0, "flat_poly requires a finite a > 0, not 0.0"),
    ])
    def test_constants_must_be_finite(self, factory, a, error):
        # refused by name: no factory lets an OverflowError or a
        # ZeroDivisionError escape, and no constant is infinite
        with pytest.raises(ValueError, match=re.escape(error)):
            factory(a)

    def test_largest_constants_kept(self):
        # C_beta is finite here although its square is not
        fe, fp = L.flattened_exponential(700.0), L.flattened_polynomial(1010.0)
        assert fe.C_beta == 700.0 * math.exp(700.0) / 2.0
        assert fp.C_beta == 1011.0 * 2.0 ** 1010

    def test_json_round_trip(self):
        for spec in ALL_SPECS:
            desc = {"kind": spec.kind} if spec.a is None else {"kind": spec.kind, "a": spec.a}
            again = L.loss_from_json(desc)
            assert again == spec
        with pytest.raises(ValueError):
            L.loss_from_json({"kind": "exponential"})

    @pytest.mark.parametrize("desc,error", [
        ({"kind": "logistic", "a": 2.0}, "unknown keys of a logistic loss: ['a']"),
        ({"kind": "flat_exp", "a": 1.0, "C_g": 1.0}, "unknown keys of a flat_exp loss: ['C_g']"),
        ({"kind": "flat_poly", "a": 2.0, "zzz": 1}, "unknown keys of a flat_poly loss: ['zzz']"),
    ], ids=["logistic-a", "flat_exp-C_g", "flat_poly-zzz"])
    def test_descriptor_takes_only_the_keys_of_its_kind(self, desc, error):
        with pytest.raises(ValueError) as exc:
            L.loss_from_json(desc)
        assert str(exc.value) == error

    @pytest.mark.parametrize("a", [None, True, "2", [2.0]], ids=["null", "bool", "str", "list"])
    @pytest.mark.parametrize("kind", ["flat_exp", "flat_poly"])
    def test_descriptor_a_must_be_a_number(self, kind, a):
        with pytest.raises(ValueError, match=f'"a" of a {kind} loss must be a number'):
            L.loss_from_json({"kind": kind, "a": a})


class TestRho:
    def test_rho_bound_values(self):
        assert L.rho_bound(L.logistic(), 1.0) == 1.0
        assert L.rho_bound(L.logistic(), math.e) == pytest.approx(2.0)
        # exponent 2/(a+2) = 1/2 at a=2: 2*sqrt(16) = 8
        assert L.rho_bound(L.flattened_polynomial(2.0), 16.0) == pytest.approx(8.0)

    @pytest.mark.parametrize("a", [1e-153, 1e-162, 1e-300, 5.6e-309])
    def test_tiny_flat_exp_a(self, a):
        # the objective lam*l(z) + z^2 is flat in float far past its
        # minimizer z* <= lam*a/2, so the widened bracket cannot enclose it:
        # the search runs on [0, lam*C_g], where rho is lam to the last bit
        spec = L.flattened_exponential(a)
        for lam in (1.0, 10.0, 1e6, 1e100):
            assert L.rho_exact(spec, lam) == lam
            assert L.rho_exact(spec, lam) <= L.rho_bound(spec, lam)

    @pytest.mark.parametrize("a", [1e-162, 1e-300])
    def test_rho_bound_where_a_squared_underflows(self, a):
        # the limit of 1 + ln(lam)^2 / a^2 as a -> 0
        spec = L.flattened_exponential(a)
        assert L.rho_bound(spec, 1.0) == 1.0
        assert L.rho_bound(spec, 1.0 + 1e-15) == L.rho_bound(spec, 1e6) == math.inf

    def test_rho_exact_stalls_with_an_error(self):
        # z* ~ lam*a/2 = 5e9, where floats lie farther apart than the
        # search's 1e-8 tolerance: the search gives up, and says so
        start = time.monotonic()
        with pytest.raises(ValueError, match="stalled"):
            L.rho_exact(L.flattened_exponential(1e-10), 1e20)
        assert time.monotonic() - start < 5.0

    def test_rho_requires_lambda_at_least_one(self):
        with pytest.raises(ValueError):
            L.rho_bound(L.logistic(), 0.5)
        with pytest.raises(ValueError):
            L.rho_exact(L.logistic(), 0.99)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=spec_id)
    def test_feasible_point_at_lambda_one(self, spec):
        assert L.rho_exact(spec, 1.0) <= spec.ell0 + 1e-9

    def test_rho_exact_against_grid_oracle(self):
        # independent oracle: dense grid minimization at lambda = e
        spec = L.logistic()
        zs = np.arange(-5.0, 20.0, 1e-4)
        oracle = float(np.min(math.e * np.logaddexp(0.0, -zs) + zs ** 2))
        val = L.rho_exact(spec, math.e)
        assert val == pytest.approx(oracle, abs=1e-6)
        assert 0.0 <= val <= 2.0

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=spec_id)
    @pytest.mark.parametrize("lam", LAMBDA_GRID)
    def test_exact_below_closed_form(self, spec, lam):
        assert L.rho_exact(spec, lam) <= L.rho_bound(spec, lam) + 1e-9

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=spec_id)
    @pytest.mark.parametrize("lam", LAMBDA_GRID)
    def test_loss_at_sqrt_rho(self, spec, lam):
        rho = L.rho_bound(spec, lam)
        assert float(L.eval_loss(spec, math.sqrt(rho))) <= rho / lam + 1e-12


class TestPsi:
    def test_psi_at_one(self):
        assert L.psi(L.logistic(), 1.0) == 1.0
        assert L.psi_inverse(L.logistic(), 1.0) == 1.0

    def test_round_trip(self):
        spec = L.logistic()
        lam = L.psi_inverse(spec, 50.0)
        assert L.psi(spec, lam) == pytest.approx(50.0, abs=1e-8)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=spec_id)
    def test_round_trip_all_losses(self, spec):
        for y in (L.psi(spec, 1.0), 3.0, 250.0):
            lam = L.psi_inverse(spec, y)
            assert L.psi(spec, lam) == pytest.approx(y, rel=1e-7)

    def test_below_range_rejected(self):
        with pytest.raises(ValueError):
            L.psi_inverse(L.logistic(), 0.5)


class TestAssumptionChecker:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=spec_id)
    def test_conformant_losses_pass(self, spec):
        report = L.check_assumptions(spec, Rng(0))
        assert report.passed, report.as_dict()
        if spec.kind == L.FLAT_POLY:
            assert report.exp_tail is None
        else:
            assert report.exp_tail is not None and report.exp_tail.passed

    def test_broken_self_boundedness_fails_with_witness(self):
        broken = replace(L.logistic(), C_beta=math.e / 4.0)
        report = L.check_assumptions(broken, Rng(0))
        assert not report.self_bounded_second.passed
        assert report.self_bounded_second.residual > 1e-9
        x, z = report.self_bounded_second.witness
        # re-evaluate the inequality at the witness pair
        lhs = float(L.eval_loss(broken, z))
        rhs = (float(L.eval_loss(broken, x)) + float(L.deriv(broken, x)) * (z - x)
               + broken.C_beta * float(L.g(broken, x)) * (z - x) ** 2)
        assert lhs - rhs == pytest.approx(report.self_bounded_second.residual)

    def test_broken_lipschitz_fails(self):
        broken = replace(L.flattened_exponential(2.0), C_g=1.0)
        report = L.check_assumptions(broken, Rng(0))
        assert not report.lipschitz.passed

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=spec_id)
    def test_basic_shape_invariants(self, spec):
        zs = np.linspace(-20.0, 20.0, 4001)
        lz = L.eval_loss(spec, zs)
        gz = L.g(spec, zs)
        assert np.all(lz >= 0.0)
        assert np.all(lz[1:] - lz[:-1] <= 1e-9)          # non-increasing
        assert np.all(gz <= spec.C_g + 1e-9)             # Lipschitz
        assert np.all(gz <= spec.C_beta * lz + 1e-9)     # self-bounded
        assert np.all(gz[1:] - gz[:-1] <= 1e-9)          # g non-increasing

    @pytest.mark.parametrize("spec", [s for s in ALL_SPECS if s.C_e is not None],
                             ids=spec_id)
    def test_exponential_tail_decay(self, spec):
        zs = np.linspace(0.0, 30.0, 601)
        lz = L.eval_loss(spec, zs)
        envelope = spec.ell0 * np.exp(-zs / spec.C_e)
        assert np.all(lz <= envelope + 1e-12)
