"""Trajectory analytics: rate fitting on exact power laws, bound
comparison soundness, and the acceleration experiment."""

import math

import numpy as np
import pytest

from eoslab import analysis, bounds, data, descent, losses

LOG = losses.logistic()
TOY = data.toy_dataset()
NTOY = data.normalized(TOY)
NCERT = data.margin(NTOY)


def synthetic_trajectory(loss_fn, T, eta=1.0):
    """Trajectory whose loss series follows an exact law loss_fn(t)."""
    steps = np.arange(T + 1, dtype=np.int64)
    lossv = np.array([loss_fn(max(int(t), 1)) for t in steps])
    zeros = np.zeros(T + 1)
    return descent.Trajectory(steps=steps, loss=lossv, grad_norm=zeros,
                              param_norm=zeros, dist_init=zeros, G=zeros,
                              F=zeros, eta=eta, loss_spec=LOG, record_every=1,
                              w_final=np.zeros(2))


class TestFitRate:
    def test_exact_inverse_law(self):
        eta = 4.0
        tr = synthetic_trajectory(lambda t: 1.0 / (eta * t), 2000, eta)
        fit = analysis.fit_rate(tr, tail_fraction=0.5)
        assert fit.slope == pytest.approx(-1.0, abs=1e-6)
        assert fit.plateau == pytest.approx(1.0, abs=1e-9)
        assert fit.plateau_cv == pytest.approx(0.0, abs=1e-9)
        assert fit.monotone_tail

    def test_exact_power_law_exponent_recovery(self):
        for p in (-0.5, -1.0, -2.0):
            tr = synthetic_trajectory(lambda t, p=p: float(t) ** p, 5000)
            fit = analysis.fit_rate(tr, tail_fraction=0.5)
            assert fit.slope == pytest.approx(p, abs=1e-6)

    def test_log_squared_correction(self):
        tr = synthetic_trajectory(lambda t: math.log(t + 1.0) ** 2 / t, 100_000)
        fit = analysis.fit_rate(tr, tail_fraction=0.5)
        assert -1.0 < fit.slope < -0.8

    def test_toy_run_slope_near_inverse(self):
        tr = descent.run_gd(TOY, LOG, 8.0, 20_000)
        fit = analysis.fit_rate(tr, tail_fraction=0.5)
        assert -1.15 <= fit.slope <= -0.85

    def test_non_monotone_tail_flagged(self):
        tr = synthetic_trajectory(lambda t: (1.0 + 0.5 * (t % 2)) / t, 500)
        fit = analysis.fit_rate(tr, tail_fraction=0.5)
        assert not fit.monotone_tail

    def test_window_too_small(self):
        tr = synthetic_trajectory(lambda t: 1.0 / t, 15)
        with pytest.raises(ValueError):
            analysis.fit_rate(tr, tail_fraction=0.5)

    def test_bad_fraction(self):
        tr = synthetic_trajectory(lambda t: 1.0 / t, 100)
        with pytest.raises(ValueError):
            analysis.fit_rate(tr, tail_fraction=0.95)


def _reference_compare_bounds(traj, gamma, eta, n, loss):
    """compare_bounds as a per-step loop with its own gate and loss-kind
    branch, before it read its rows from bounds.BOUNDS."""
    out = []
    avg_loss = traj.avg_loss()
    avg_G = np.cumsum(traj.G[:-1]) / np.arange(1, len(traj.G))
    for idx in range(1, len(traj.steps)):
        t = int(traj.steps[idx])
        if gamma * gamma * eta * t < 1.0:
            continue
        if loss.kind == losses.LOGISTIC:
            checks = [("eos_avg_logistic", float(avg_loss[t - 1]),
                       bounds.eos_avg_bound(gamma, eta, t)),
                      ("avg_grad_potential", float(avg_G[t - 1]),
                       bounds.avg_grad_potential_bound(gamma, eta, t)),
                      ("param_norm", float(traj.param_norm[idx]),
                       bounds.param_norm_bound(gamma, eta, t))]
        else:
            checks = [("eos_avg", float(avg_loss[t - 1]),
                       bounds.ntk_eos_bound(loss, gamma, eta, t, n, 1.0, C_a=0.0))]
        for name, observed, value in checks:
            if observed > value * (1.0 + 1e-9):
                out.append((t, name, observed, value))
    return out


def inflate(tr, factor):
    """The trajectory with loss, G and param_norm scaled by ``factor``."""
    return descent.Trajectory(
        steps=tr.steps, loss=tr.loss * factor, grad_norm=tr.grad_norm,
        param_norm=tr.param_norm * factor, dist_init=tr.dist_init,
        G=tr.G * factor, F=tr.F, eta=tr.eta, loss_spec=tr.loss_spec,
        record_every=1, w_final=tr.w_final)


class TestCompareBoundsMatchesReference:
    @pytest.mark.parametrize("spec", [LOG, losses.flattened_exponential(1.5),
                                      losses.flattened_polynomial(2.0)],
                             ids=lambda spec: spec.kind)
    @pytest.mark.parametrize("eta", [2.0, 8.0, 32.0])
    def test_inflated_runs(self, spec, eta):
        tr = descent.run_gd(NTOY, spec, eta, 1500)
        for factor in (1.0, 3.0, 50.0, 1e4):
            got = analysis.compare_bounds(inflate(tr, factor), NCERT.gamma, NTOY.n)
            ref = _reference_compare_bounds(inflate(tr, factor), NCERT.gamma, eta,
                                            NTOY.n, spec)
            assert [(v.step, v.bound, v.observed, v.value) for v in got] == ref
            if factor == 1e4:
                assert ref

    def test_gate_boundary_step_is_checked(self):
        # gamma^2 * eta = 0.5 exactly, so step 2 sits on the gate's boundary
        tr = synthetic_trajectory(lambda t: 10.0, 50, 2.0)
        got = analysis.compare_bounds(tr, 0.5, 4)
        assert [(v.step, v.bound, v.observed, v.value) for v in got] == \
            _reference_compare_bounds(tr, 0.5, 2.0, 4, LOG)
        assert got[0].step == 2

    @pytest.mark.parametrize("eta", [4.0, 8.0, 16.0, 32.0])
    def test_unnormalized_toy(self, eta):
        tr = descent.run_gd(TOY, LOG, eta, 3000)
        gamma = data.margin(TOY).gamma
        got = analysis.compare_bounds(tr, gamma, TOY.n)
        assert [(v.step, v.bound, v.observed, v.value) for v in got] == \
            _reference_compare_bounds(tr, gamma, eta, TOY.n, LOG)


def one_step(spec, eta, avg_loss=0.0, avg_G=0.0, param_norm=0.0):
    """A dense one-step trajectory whose series that compare_bounds checks
    hold the given values at t = 1: there the running averages are the
    recorded loss and G of step 0, and param_norm is recorded at t."""
    zeros = np.zeros(2)
    return descent.Trajectory(
        steps=np.arange(2), loss=np.array([avg_loss, 0.0]), grad_norm=zeros,
        param_norm=np.array([0.0, param_norm]), dist_init=zeros,
        G=np.array([avg_G, 0.0]), F=zeros, eta=eta, loss_spec=spec, record_every=1,
        w_final=np.zeros(2))


FEXP, FPOLY = losses.flattened_exponential(1.5), losses.flattened_polynomial(2.0)
GAMMA, ETA, N = 0.5, 8.0, 4  # gamma^2 * eta = 2: step 1 passes every gate


class TestBoundCaps:
    """Each series is checked by the one BOUNDS row that names it in caps,
    first among the rows that cover the run's loss."""

    @pytest.mark.parametrize("spec,name,series,value", [
        (LOG, "eos_avg_logistic", "avg_loss", bounds.eos_avg_bound(GAMMA, ETA, 1)),
        (LOG, "avg_grad_potential", "avg_G", bounds.avg_grad_potential_bound(GAMMA, ETA, 1)),
        (LOG, "param_norm", "param_norm", bounds.param_norm_bound(GAMMA, ETA, 1)),
        (FEXP, "eos_avg", "avg_loss", bounds.ntk_eos_bound(FEXP, GAMMA, ETA, 1, N, 1.0, 0.0)),
        (FPOLY, "eos_avg", "avg_loss", bounds.ntk_eos_bound(FPOLY, GAMMA, ETA, 1, N, 1.0, 0.0)),
    ], ids=["logistic-avg_loss", "logistic-avg_G", "logistic-param_norm",
            "flat_exp-avg_loss", "flat_poly-avg_loss"])
    def test_one_ulp_either_side_of_the_threshold(self, spec, name, series, value):
        threshold = value * (1.0 + 1e-9)
        for observed in (np.nextafter(threshold, 0.0), threshold,
                         np.nextafter(threshold, math.inf)):
            observed = float(observed)
            got = analysis.compare_bounds(one_step(spec, ETA, **{series: observed}),
                                          GAMMA, N)
            assert got == ([analysis.Violation(step=1, bound=name, observed=observed,
                                               value=value)]
                           if observed > threshold else []), observed

    @pytest.mark.parametrize("spec,checked", [
        (LOG, ["eos_avg_logistic", "avg_grad_potential", "param_norm"]),
        (FEXP, ["eos_avg"]), (FPOLY, ["eos_avg"])], ids=["logistic", "flat_exp", "flat_poly"])
    def test_checked_rows_per_loss_family(self, spec, checked):
        # every series far above every bound: each checked row reports once
        tr = one_step(spec, ETA, avg_loss=1e300, avg_G=1e300, param_norm=1e300)
        assert [v.bound for v in analysis.compare_bounds(tr, GAMMA, N)] == checked

    def test_rows_that_cap_a_series(self):
        # with the test above, a misspelt caps would fail here or there
        assert [row.name for row in bounds.BOUNDS if row.caps is not None] == [
            "eos_avg_logistic", "avg_grad_potential", "param_norm", "eos_avg"]


def spiked(spec, eta, T, t, series, observed):
    """A dense T-step trajectory whose series that compare_bounds checks is
    ``observed`` at step t and 0 before: param_norm holds it at t, and a
    running average takes it from a spike of observed * t at step t - 1,
    exactly where t is a power of two."""
    zeros, values = np.zeros(T + 1), np.zeros(T + 1)
    if series == "param_norm":
        values[t] = observed
    else:
        values[t - 1] = observed * t
    return descent.Trajectory(
        steps=np.arange(T + 1), loss=values if series == "avg_loss" else zeros,
        grad_norm=zeros, param_norm=values if series == "param_norm" else zeros,
        dist_init=zeros, G=values if series == "avg_G" else zeros, F=zeros, eta=eta,
        loss_spec=spec, record_every=1, w_final=np.zeros(2))


class TestScreenEdges:
    """compare_bounds screens each row over all steps at once and leaves
    the steps it cannot clear to the scalar formula; at the edges of the
    screen its violations must still be the per-step loop's."""

    # gamma^2 * eta = 1/8: steps 1 to 7 lie below the formulas' domain,
    # step 8 on its edge
    GAMMA, ETA, T = 0.25, 2.0, 64

    @pytest.mark.parametrize("spec,series,formula", [
        (LOG, "avg_loss", bounds.eos_avg_bound),
        (LOG, "avg_G", bounds.avg_grad_potential_bound),
        (LOG, "param_norm", bounds.param_norm_bound),
        (FEXP, "avg_loss", lambda g, e, t: bounds.ntk_eos_bound(FEXP, g, e, t, N, 1.0, 0.0)),
        (FPOLY, "avg_loss", lambda g, e, t: bounds.ntk_eos_bound(FPOLY, g, e, t, N, 1.0, 0.0)),
        # a ** 2 underflows: the bound is inf past step 8, which the screen leaves
        # to the scalar formula
        (losses.flattened_exponential(1e-200), "avg_loss",
         lambda g, e, t: bounds.ntk_eos_bound(losses.flattened_exponential(1e-200), g, e, t,
                                              N, 1.0, 0.0)),
    ], ids=["logistic-avg_loss", "logistic-avg_G", "logistic-param_norm",
            "flat_exp-avg_loss", "flat_poly-avg_loss", "flat_exp-tiny-a-avg_loss"])
    def test_one_ulp_either_side_of_each_step_threshold(self, spec, series, formula):
        for t in (1, 2, 4, 8, 16, 32, 64):
            try:
                threshold = formula(self.GAMMA, self.ETA, t) * (1.0 + 1e-9)
            except ValueError:  # below the domain: no value, and no check
                threshold = math.nan
            near = (np.nextafter(threshold, 0.0), threshold, np.nextafter(threshold, math.inf))
            for observed in map(float, near if math.isfinite(threshold) else [1e300]):
                tr = spiked(spec, self.ETA, self.T, t, series, observed)
                got = analysis.compare_bounds(tr, self.GAMMA, N)
                ref = _reference_compare_bounds(tr, self.GAMMA, self.ETA, N, spec)
                assert [(v.step, v.bound, v.observed, v.value) for v in got] == ref
                assert (t in [v.step for v in got]) == (observed > threshold), (t, observed)

    @pytest.mark.parametrize("side", [-1, 0, 1])
    def test_param_norm_one_ulp_from_the_threshold_at_every_step(self, side):
        # np.log and math.log differ in the last bit at a few of these
        # steps (27006 and 32042 with numpy 2.4 on x86-64 Linux), where the
        # screen's bar lies an ulp above the formula's: every step one ulp
        # above its threshold is still reported
        T, gamma, eta = 33_000, 0.25, 2.0
        ts = range(1, T + 1)
        thresholds = [bounds.param_norm_bound(gamma, eta, t) * (1.0 + 1e-9)
                      if gamma * gamma * eta * t >= 1.0 else 1e300 for t in ts]
        norms = np.concatenate([[0.0], thresholds])
        if side:
            norms = np.nextafter(norms, side * math.inf)
        tr = spiked(LOG, eta, T, 1, "param_norm", 0.0)
        tr = descent.Trajectory(**{**vars(tr), "param_norm": norms})
        got = analysis.compare_bounds(tr, gamma, N)
        assert [(v.step, v.bound, v.observed, v.value) for v in got] == \
            _reference_compare_bounds(tr, gamma, eta, N, LOG)
        applicable = sum(gamma * gamma * eta * t >= 1.0 for t in ts)
        assert [v.step for v in got] == (list(range(T - applicable + 1, T + 1))
                                         if side == 1 else [])

    def test_formula_that_overflows_at_every_step(self):
        # at eta 1e160, eos_avg's (eta * C_g)^2 overflows a float at every
        # step, which no step's check survives, though the running average
        # loss is near 1e157 from step 2 on
        tr = descent.run_gd(NTOY, FEXP, 1e160, 200)
        assert tr.loss[1] > 1e159
        with pytest.raises(OverflowError):  # as the per-step loop would
            _reference_compare_bounds(tr, NCERT.gamma, 1e160, NTOY.n, FEXP)
        for t in (1, 200):
            with pytest.raises(OverflowError):
                bounds.ntk_eos_bound(FEXP, NCERT.gamma, 1e160, t, NTOY.n, 1.0, 0.0)
        assert analysis.compare_bounds(tr, NCERT.gamma, NTOY.n) == []


class TestCompareBounds:
    def test_conformant_run_is_clean(self):
        tr = descent.run_gd(NTOY, LOG, 8.0, 2000)
        assert analysis.compare_bounds(tr, NCERT.gamma, NTOY.n) == []

    def test_unnormalized_data_may_violate(self):
        # samples outside the unit ball void the certificate's premises;
        # violations are reported, not asserted against
        tr = descent.run_gd(TOY, LOG, 8.0, 2000)
        out = analysis.compare_bounds(tr, 0.2, TOY.n)
        assert isinstance(out, list)

    def test_inflated_losses_reported_with_steps(self):
        tr = descent.run_gd(NTOY, LOG, 8.0, 500)
        inflated = descent.Trajectory(
            steps=tr.steps, loss=tr.loss * 50.0, grad_norm=tr.grad_norm,
            param_norm=tr.param_norm, dist_init=tr.dist_init, G=tr.G, F=tr.F,
            eta=tr.eta, loss_spec=tr.loss_spec, record_every=1,
            w_final=tr.w_final)
        out = analysis.compare_bounds(inflated, NCERT.gamma, NTOY.n)
        assert out and all(v.step >= 1 for v in out)
        assert any(v.bound == "eos_avg_logistic" for v in out)

    def test_soundness_against_hand_values(self):
        # a flat series exactly at the bound is never flagged; just above is
        gamma, eta = 0.5, 2.0
        t_check = 40
        val = bounds.eos_avg_bound(gamma, eta, t_check)
        tr_ok = synthetic_trajectory(lambda t: val, 50, eta)
        flagged = [v for v in analysis.compare_bounds(tr_ok, gamma, 4)
                   if v.bound == "eos_avg_logistic" and v.step == t_check]
        assert not flagged
        tr_bad = synthetic_trajectory(lambda t: val * 1.001, 50, eta)
        flagged = [v for v in analysis.compare_bounds(tr_bad, gamma, 4)
                   if v.bound == "eos_avg_logistic"]
        assert flagged

    def test_general_loss_route(self):
        spec = losses.flattened_polynomial(2.0)
        tr = descent.run_gd(NTOY, spec, 2.0, 800)
        out = analysis.compare_bounds(tr, NCERT.gamma, NTOY.n)
        assert out == []

    def test_zero_one_curve(self):
        [tr] = descent.run_gd_batch(TOY, LOG, [8.0], 200, store_iterates=True)
        err = analysis.zero_one_curve(tr, TOY)
        assert err.shape == (201,)
        assert err[0] == 1.0  # zero init misclassifies everything (margin 0)
        assert err[-1] == 0.0  # separable data ends perfectly classified
        # spot-check against a direct computation
        k = 17
        direct = float(np.mean(TOY.signed() @ tr.iterates[k] <= 0.0))
        assert err[k] == direct

    def test_zero_one_curve_needs_iterates(self):
        tr = descent.run_gd(TOY, LOG, 8.0, 50)
        with pytest.raises(ValueError):
            analysis.zero_one_curve(tr, TOY)

    def test_violations_csv(self, tmp_path):
        v = [analysis.Violation(step=7, bound="eos_avg", observed=2.5, value=2.0)]
        p = tmp_path / "v.csv"
        analysis.write_violations_csv(v, p)
        lines = p.read_text().splitlines()
        assert lines[0] == "step,bound,observed"
        step, bound, observed = lines[1].split(",")
        assert (int(step), float(bound), float(observed)) == (7, 2.0, 2.5)


class TestAccelerationScore:
    def test_toy_budget_experiment(self):
        plan = bounds.acceleration_plan(data.margin(TOY).gamma, TOY.n, 12000)
        score = analysis.acceleration_score(TOY, plan)
        assert score.eta_large == pytest.approx(4.0)
        assert score.loss_large_eta <= score.bound
        assert score.ratio is not None and score.ratio < 1.0
        assert score.eta_small_best is not None
        assert score.eta_small_best < score.eta_large

    def test_infeasible_budget_raises_with_threshold(self):
        plan = bounds.acceleration_plan(data.margin(TOY).gamma, TOY.n, 100)
        with pytest.raises(analysis.InfeasibleBudget) as exc:
            analysis.acceleration_score(TOY, plan)
        assert exc.value.threshold == pytest.approx(12000.0)
        assert exc.value.T == 100
        assert "12000" in str(exc.value)

    def test_runs_the_budget_of_its_plan(self):
        # the plan carries its budget: a 12500-step plan runs 12500 steps at
        # its own stepsize and reports its own bound
        plan = bounds.acceleration_plan(data.margin(TOY).gamma, TOY.n, 12500)
        assert plan.T == 12500
        score = analysis.acceleration_score(TOY, plan)
        assert score.traj_large.steps[-1] == 12500
        assert score.traj_small_best.steps[-1] == 12500
        assert (score.eta_large, score.bound) == (plan.eta, plan.bound)
        assert score.eta_large == pytest.approx(12500 / 3000)

    def test_lower_bound_dataset_keeps_inverse_t_floor(self):
        # monotone runs on the two-point set: t * loss stays bounded away
        # from zero over the tail
        ds = data.lower_bound_dataset(0.05)
        tr = descent.run_gd(ds, LOG, 8.0, 20_000)
        assert not np.any(tr.loss[1:] > tr.loss[:-1])
        tail = np.arange(10_000, 20_001)
        scaled = tail * tr.loss[tail]
        assert float(scaled.min()) > 0.0
        fit = analysis.fit_rate(tr, tail_fraction=0.5)
        assert fit.plateau_cv < 0.5
