"""Closed-form bound evaluators: frozen arithmetic spot values, shape and
monotonicity properties, and cross-formula consistency."""

import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eoslab import bounds as B
from eoslab import losses as L
from eoslab.analysis import compare_bounds
from eoslab.descent import Trajectory


class TestEosAvgBound:
    def test_hand_value(self):
        # gamma=0.2, eta=8, t=100: scale = 32, (1 + ln^2 32 + 16)/32
        x = 32.0
        expected = (1.0 + math.log(x) ** 2 + 16.0) / x
        assert B.eos_avg_bound(0.2, 8.0, 100) == pytest.approx(expected)
        assert expected == pytest.approx(0.9066, abs=5e-4)

    def test_unit_scale(self):
        # gamma^2 eta t = 1: ln term vanishes
        assert B.eos_avg_bound(1.0, 1.0, 1) == pytest.approx(1.0 + 0.25)
        assert B.eos_avg_bound(0.5, 4.0, 1) == pytest.approx(1.0 + 4.0)

    def test_eventually_decreasing_in_t(self):
        # decreasing once the scale passes e^2
        gamma, eta = 0.2, 8.0
        t0 = math.e ** 2 / (gamma ** 2 * eta)
        ts = np.linspace(t0, 100 * t0, 500)
        vals = [B.eos_avg_bound(gamma, eta, t) for t in ts]
        assert np.all(np.diff(vals) < 0)

    def test_bad_scale(self):
        with pytest.raises(ValueError):
            B.eos_avg_bound(0.2, 8.0, 0)


class TestStableBound:
    def test_hand_value(self):
        # F_s = 1, scale = e: (2 + 1)/e
        t = math.e / (0.5 ** 2 * 4.0) + 10.0
        assert B.stable_bound(0.5, 4.0, t, 10.0, 1.0) == pytest.approx(3.0 / math.e)
        assert 3.0 / math.e == pytest.approx(1.1036, abs=1e-4)

    def test_zero_potential_at_unit_scale(self):
        t = 1.0 / (0.5 ** 2 * 4.0) + 5.0
        assert B.stable_bound(0.5, 4.0, t, 5.0, 0.0) == 0.0

    def test_t_before_s_rejected(self):
        with pytest.raises(ValueError):
            B.stable_bound(0.5, 4.0, 5.0, 5.0, 1.0)

    def test_matches_general_family_shape(self):
        # logistic rho: the general-loss stable evaluator at the same scale
        # is the same 1/x decay with ln^2 inside
        log = L.logistic()
        for x in (2.0, 10.0, 100.0):
            t = x / (0.2 ** 2 * 8.0)
            specific = B.stable_bound(0.2, 8.0, t, 0.0, 1.0)
            general = B.ntk_stable_bound(log, 0.2, 8.0, t, 0.0)
            assert general == pytest.approx(15.0 * (1 + math.log(x) ** 2) / x)
            assert specific <= general  # same shape, smaller constants


class TestTauLogistic:
    def test_hand_value(self):
        assert B.tau_logistic(0.2, 8.0, 4) == pytest.approx(12000.0)

    def test_large_eta_dominates(self):
        eta = 1e6
        assert B.tau_logistic(0.2, eta, 4) == pytest.approx(60.0 * eta / 0.04)

    def test_finite_as_eta_vanishes(self):
        for eta in (1e-2, 1e-4, 1e-6):
            val = B.tau_logistic(0.2, eta, 4)
            assert math.isfinite(val)
            r = (eta + 4) / eta
            assert val == pytest.approx((60.0 / 0.04) * r * math.log(r))


class TestAccelerationPlan:
    def test_exactly_feasible_budget(self):
        plan = B.acceleration_plan(0.2, 4, 12000)
        assert plan.eta == pytest.approx(4.0)
        assert plan.feasible
        assert plan.threshold == pytest.approx(12000.0)
        x = 0.2 ** 4 * 12000.0 ** 2
        assert plan.bound == pytest.approx(480.0 * math.log(x) ** 2 / x)
        assert plan.bound == pytest.approx(0.3177, abs=5e-4)

    def test_below_threshold_still_reports_eta(self):
        plan = B.acceleration_plan(0.2, 4, 100)
        assert not plan.feasible
        assert plan.eta == pytest.approx(0.2 ** 2 * 100 / 120.0)

    def test_feasible_implies_tau_at_most_half_budget(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            gamma = float(rng.uniform(0.05, 0.9))
            n = int(rng.integers(1, 200))
            T = float(rng.uniform(1.0, 3.0)) * 120.0 * max(math.e, n) / gamma ** 2
            plan = B.acceleration_plan(gamma, n, T)
            assert plan.feasible
            assert B.tau_logistic(gamma, plan.eta, n) <= T / 2.0 + 1e-9

    @pytest.mark.parametrize("gamma", [1e-80, 1e-90, 1e-160, 1e-170, 5e-324])
    def test_tiny_margin_is_infeasible(self, gamma):
        # gamma^4 T^2 underflows below about 1e-85, and gamma^2 below 1e-162
        plan = B.acceleration_plan(gamma, 4, 12000)
        assert not plan.feasible and plan.bound == math.inf


class TestSgdBounds:
    def test_delta_one_drops_concentration(self):
        lead_only = B.sgd_loss_bound(0.2, 1.0, 1e4, 1.0)
        x = 0.2 ** 2 * 1e4
        assert lead_only == pytest.approx((2 + 2 * math.log(x) ** 2 + 0.5) / x)
        err = B.sgd_error_bound(0.2, 1.0, 1e4, 1.0)
        assert err == pytest.approx(4 * (math.sqrt(2) + 2 * math.log(x) + 1) / x)

    def test_hand_value(self):
        x = 0.2 ** 2 * 1.0 * 1e4
        expected = ((2 + 2 * math.log(x) ** 2 + 0.5) / x
                    + (3 + 2 * math.log(x) + 1) / 0.2 * 18 * math.log(20.0) / 1e4)
        assert B.sgd_loss_bound(0.2, 1.0, 1e4, 0.05) == pytest.approx(expected)

    def test_large_eta_error_shape(self):
        # with eta >= max(1, ln(gamma^2 t)) the error bound collapses to
        # C (1/(gamma^2 t) + ln(1/delta)/t); C = 36 covers both terms
        # (4 sqrt2 + 16 + 4 < 36 on the lead, 36 exactly on the tail)
        C = 36.0
        for gamma in (0.1, 0.2, 0.5):
            for t in (1e4, 1e5, 1e7):
                for delta in (0.05, 0.5):
                    eta = max(1.0, math.log(gamma * gamma * t))
                    val = B.sgd_error_bound(gamma, eta, t, delta)
                    shape = 1.0 / (gamma ** 2 * t) + math.log(1 / delta) / t
                    assert val <= C * shape

    def test_shared_leading_structure_with_gd(self):
        # zeroing the eta terms, the SGD lead term is twice the GD average
        # bound's (1 + ln^2)/x structure
        gamma, t = 0.3, 5e3
        x = gamma * gamma * 1.0 * t
        gd_lead = B.eos_avg_bound(gamma, 1.0, t) - (1.0 / 4.0) / x
        sgd_lead = B.sgd_loss_bound(gamma, 1.0, t, 1.0) - (1.0 / 2.0) / x
        assert sgd_lead == pytest.approx(2.0 * gd_lead, rel=1e-12)


class TestNtkBoundFormulas:
    def test_eos_plugin_at_unit_scale(self):
        log = L.logistic()
        n, delta = 4, 0.1
        t = 1.0 / (0.5 ** 2 * 4.0)
        val = B.ntk_eos_bound(log, 0.5, 4.0, t, n, delta)
        init = 1.0 + math.sqrt(2.0 * math.log(2 * n / delta))
        assert val == pytest.approx(9.0 * (1.0 + (init + 4.0) ** 2))

    def test_stable_at_unit_scale(self):
        log = L.logistic()
        t = 1.0 / (0.5 ** 2 * 4.0) + 3.0
        assert B.ntk_stable_bound(log, 0.5, 4.0, t, 3.0) == pytest.approx(15.0)

    def test_exp_tail_tau_hand_value(self):
        # C2=1, gamma=0.5, eta=2, n=10: 4 * max{2, 10 ln 10}
        val = B.tau_exp_tail(0.5, 2.0, 10, C2=1.0)
        assert val == pytest.approx(4.0 * 10.0 * math.log(10.0))
        assert val == pytest.approx(92.1, abs=0.1)

    def test_tau_general_consistency(self):
        log = L.logistic()
        val = B.tau_general(log, 0.5, 2.0, 10, C1=1.0)
        lam = L.psi_inverse(log, 12.0)
        assert val == pytest.approx(max(lam / 2.0, 12.0 * 2.0) / 0.25)

    def test_report_set(self):
        log = L.logistic()
        reps = B.bound_reports(log, 0.5, 1.0, 100, s=10, T=200, n=4, delta=0.1)
        names = {r.name for r in reps}
        assert {"eos_avg", "stable", "tau_general", "tau_exp_tail",
                "lazy_radius", "width_min"} <= names
        by = {r.name: r for r in reps}
        assert by["eos_avg"].applicable
        assert "heuristic" in by["tau_general"].precondition_note

    def test_not_applicable_below_unit_scale(self):
        log = L.logistic()
        reps = B.bound_reports(log, 0.05, 1.0, 10, s=5, T=200, n=4, delta=0.1)
        by = {r.name: r for r in reps}
        assert not by["eos_avg"].applicable
        assert math.isnan(by["eos_avg"].value)

    def test_poly_variant_has_no_exp_tail_tau(self):
        reps = B.bound_reports(L.flattened_polynomial(2.0), 0.5, 1.0, 100,
                                s=10, T=200, n=4, delta=0.1)
        assert "tau_exp_tail" not in {r.name for r in reps}


# finite reals drawn log-uniformly from 1e-300 to 1e308, and whole counts
LOG_UNIFORM = st.floats(-300.0, 308.0).map(lambda e: 10.0 ** e)
WHOLE = st.integers(1, 10 ** 9)
FAMILIES = st.one_of(st.just(L.logistic()),
                     st.floats(0.1, 10.0).map(L.flattened_exponential),
                     st.floats(0.1, 10.0).map(L.flattened_polynomial))


class TestBoundReportsTotal:
    """On finite inputs bound_reports refuses them with ValueError or
    returns its reports: no float overflow, underflow or division by zero
    escapes a row."""

    @settings(max_examples=200, deadline=None)
    @given(loss=FAMILIES, reals=st.tuples(*[LOG_UNIFORM] * 7), t=WHOLE, n=WHOLE,
           T=st.none() | WHOLE, d=st.none() | WHOLE, s=st.none() | st.integers(0, 10 ** 9))
    def test_reports_or_value_error(self, loss, reals, t, n, T, d, s):
        gamma, eta, delta, F_s, C1, C2, C_a = reals
        try:
            reports = B.bound_reports(loss, gamma, eta, t, n=n, s=s, T=T, d=d, delta=delta,
                                      F_s=F_s, C1=C1, C2=C2, C_a=C_a)
        except ValueError:
            return
        assert reports and all(isinstance(r, B.BoundReport) for r in reports)


class TestCompareBoundsTotal:
    """On finite gamma and eta compare_bounds returns its violations: a
    checked row that overflows at a step skips that step, as does one below
    the log scale, and no float error escapes."""

    @settings(max_examples=200, deadline=None)
    @given(loss=FAMILIES, gamma=LOG_UNIFORM, eta=LOG_UNIFORM, n=WHOLE)
    def test_returns_a_list(self, loss, gamma, eta, n):
        ones = np.ones(6)  # a dense five-step run
        traj = Trajectory(steps=np.arange(6), loss=ones, grad_norm=ones, param_norm=ones,
                          dist_init=ones, G=ones, F=ones, eta=eta, loss_spec=loss,
                          record_every=1, w_final=np.zeros(2))
        assert isinstance(compare_bounds(traj, gamma, n), list)


class TestTauBound:
    def test_picks_the_loss_specific_time(self):
        args = (0.5, 2.0, 10)
        exp, poly = L.flattened_exponential(1.5), L.flattened_polynomial(2.0)
        assert B.tau_bound(L.logistic(), *args) == B.tau_logistic(*args)
        assert B.tau_bound(exp, *args) == B.tau_exp_tail(*args)
        assert B.tau_bound(exp, *args) != B.tau_general(exp, *args)
        assert B.tau_bound(poly, *args) == B.tau_general(poly, *args)


class TestLazyRadiusAndWidth:
    def test_radius_hand_value(self):
        # logistic, gamma=0.5, eta=1, T=100, n=4, delta=0.1
        log = L.logistic()
        rho = 1.0 + math.log(25.0) ** 2
        expected = 6.0 * (math.sqrt(rho) + 1.0 + math.sqrt(2.0 * math.log(80.0))
                          + 1.0) / 0.5
        assert B.lazy_radius(log, 0.5, 1.0, 100, 4, 0.1) == pytest.approx(expected)

    def test_radius_monotone_in_eta_and_T(self):
        log = L.logistic()
        base = B.lazy_radius(log, 0.5, 1.0, 100, 4, 0.1)
        assert B.lazy_radius(log, 0.5, 2.0, 100, 4, 0.1) > base
        assert B.lazy_radius(log, 0.5, 1.0, 400, 4, 0.1) > base

    @pytest.mark.parametrize("delta", [0.0, -0.1, 2.0, math.nan])
    def test_radius_and_width_reject_delta_outside_unit_interval(self, delta):
        log = L.logistic()
        for formula in (B.lazy_radius, B.width_min):
            with pytest.raises(ValueError, match="delta"):
                formula(log, 0.5, 1.0, 100, 4, delta)

    def test_width_monotone_in_radius(self):
        log = L.logistic()
        assert (B.width_min(log, 0.5, 2.0, 100, 4, 0.1)
                > B.width_min(log, 0.5, 1.0, 100, 4, 0.1))

    def test_width_regime_ordering(self):
        # at a large budget the three stepsize regimes order as
        # polylog << poly(T) << T^2-type widths
        log, poly = L.logistic(), L.flattened_polynomial(2.0)
        T = 1e8
        gamma, n, delta = 0.5, 4, 0.1
        w_const = B.width_min(log, gamma, 1.0, T, n, delta)
        w_sqrt = B.width_min(poly, gamma, math.sqrt(T), T, n, delta)
        w_linear = B.width_min(log, gamma, gamma ** 2 * T / 120.0, T, n, delta)
        assert w_const < w_sqrt < w_linear


class TestVcBound:
    def test_hand_value(self):
        val = B.vc_bound(2, 1000, 0.05)
        assert val == pytest.approx(4 * (2 * math.log(1001) + math.log(80.0)) / 1000)
        assert val == pytest.approx(0.0728, abs=5e-4)

    def test_vanishes_with_n(self):
        assert B.vc_bound(2, 10 ** 9, 0.05) < 1e-6

    def test_monotone_in_d(self):
        vals = [B.vc_bound(d, 1000, 0.05) for d in (1, 2, 5, 50)]
        assert np.all(np.diff(vals) > 0)


class TestRegimeTable:
    def test_logistic_rows(self):
        rows = B.table1_regimes(L.logistic(), 1e6)
        by = {r.eta_rule: r for r in rows}
        assert by["eta=T"].loss == pytest.approx(math.log(1e6) ** 2 / 1e12)
        assert by["eta=T"].loss_order == "ln^2(T)/T^2"
        assert by["eta=1"].width_order == "ln^2(T)"

    def test_poly_small_degree(self):
        rows = B.table1_regimes(L.flattened_polynomial(1.0), 1e6)
        by = {r.eta_rule: r for r in rows}
        assert by["eta=T^(a/2)"].loss == pytest.approx(1e6 ** -0.5)

    def test_poly_large_degree(self):
        rows = B.table1_regimes(L.flattened_polynomial(2.0), 1e6)
        by = {r.eta_rule: r for r in rows}
        # -3a/(2a+4) = -3/4 at a=2
        assert by["eta=T^(1/2)"].loss == pytest.approx(1e6 ** -0.75)
        assert by["eta=T^(1/2)"].eta == pytest.approx(1e3)

    def test_pure_functions(self):
        a = B.table1_regimes(L.logistic(), 1e4)
        b = B.table1_regimes(L.logistic(), 1e4)
        assert [asdict(r) for r in a] == [asdict(r) for r in b]
