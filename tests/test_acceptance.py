"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Shared setup: the four-sample 2-D dataset ("toy"), its max-norm-scaled
variant ("normalized toy", margin gamma ~ 0.0995 from the solver), and
the two-point slow-rate dataset.  Criteria that compare trajectories
against certified inequalities use the normalized variant (unit-ball
samples); the budget/acceleration and asymptotic-rate criteria use the
raw variant, whose solver margin of exactly 0.2 sets the budget
threshold 12000 used throughout.
"""

import math
import time

import numpy as np
import pytest

from eoslab import analysis, bounds, data, descent, losses, ntk
from eoslab.cli import main as cli_main
from eoslab.numerics import Rng

from _oracles import (finite_diff_grad, linear_gd_maps, network_gd_maps,
                      perceptron_potential_check, split_optimization_check)

LOG = losses.logistic()
TOY = data.toy_dataset()
NTOY = data.normalized(TOY)
NCERT = data.margin(NTOY)
GAMMA = NCERT.gamma

ETAS = (2.0, 8.0, 32.0)
HORIZON = 20_000
REL = 1e-9


def report(num: int, ok: bool, text: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {text}")
    assert ok, f"criterion {num}: {text}"


@pytest.fixture(scope="module")
def main_runs():
    """Normalized-toy logistic runs for criteria 1-4, made as one batch, each
    with the batch's time."""
    t0 = time.perf_counter()
    trajs = descent.run_gd_batch(NTOY, LOG, ETAS, HORIZON)
    elapsed = time.perf_counter() - t0
    return {eta: (traj, elapsed) for eta, traj in zip(ETAS, trajs)}


def test_criterion_01_eos_average_bound_pathwise(main_runs):
    worst_overshoot, slowest = 0.0, 0.0
    for eta, (traj, elapsed) in main_runs.items():
        slowest = max(slowest, elapsed)
        avg = traj.avg_loss()
        for t in range(1, HORIZON + 1):
            if GAMMA * GAMMA * eta * t < 1.0:
                continue
            bound = bounds.eos_avg_bound(GAMMA, eta, t)
            worst_overshoot = max(worst_overshoot, avg[t - 1] / bound - 1.0)
    ok = worst_overshoot <= REL and slowest < 5.0
    report(1, ok, "average-loss bound holds at every recorded step for "
                  f"eta in {ETAS} (worst relative overshoot "
                  f"{worst_overshoot:.2e}, slowest run {slowest:.2f}s)")


def test_criterion_02_stable_phase_descent(main_runs):
    ok = True
    for eta, (traj, _) in main_runs.items():
        low = traj.loss[:-1] <= 2.0 / eta
        ok &= bool(np.all(traj.loss[1:][low] <= traj.loss[:-1][low]))
        below = np.nonzero(traj.loss <= 1.0 / eta)[0]
        if below.size:
            seg = traj.loss[below[0]:]
            ok &= not bool(np.any(seg[1:] > seg[:-1]))
    report(2, ok, "every step with loss <= 2/eta descends, and the loss is "
                  "non-increasing from the first step with loss <= 1/eta")


def test_criterion_03_phase_transition_time(main_runs):
    ok = True
    details = []
    for eta, (traj, _) in main_runs.items():
        ph = descent.detect_phase(traj, NTOY.n, GAMMA)
        tau = bounds.tau_logistic(GAMMA, eta, NTOY.n)
        good = (ph.s_theory is not None and ph.s_theory <= tau
                and traj.F[ph.s_theory] <= 1.0 + REL)
        ok &= good
        if ph.s_theory is not None:
            details.append(f"eta={eta:g}: s={ph.s_theory} <= tau={tau:.0f}, "
                           f"F={traj.F[ph.s_theory]:.3f}")
    report(3, ok, "; ".join(details))


def test_criterion_04_potential_and_parameter_bounds(main_runs):
    violations = 0
    for eta, (traj, _) in main_runs.items():
        avg_G = np.cumsum(traj.G[:-1]) / np.arange(1, len(traj.G))
        for t in range(1, HORIZON + 1):
            if GAMMA * GAMMA * eta * t < 1.0:
                continue
            if avg_G[t - 1] > bounds.avg_grad_potential_bound(GAMMA, eta, t) * (1 + REL):
                violations += 1
            if traj.param_norm[t] > bounds.param_norm_bound(GAMMA, eta, t) * (1 + REL):
                violations += 1
    report(4, violations == 0,
           f"gradient-potential and parameter-norm bounds: {violations} violations")


def test_criterion_05_split_and_alignment_inequalities():
    rng = Rng(17)
    worst_residual, worst_slack = -math.inf, math.inf
    for eta in ETAS:
        [traj] = descent.run_gd_batch(NTOY, LOG, [eta], 2000, store_iterates=True)
        for _ in range(10):
            u1 = rng.normals(2) * 3.0
            t = int(1 + rng.integers(1, 2000, 1)[0])
            worst_residual = max(worst_residual,
                                 split_optimization_check(traj, NTOY, NCERT, u1, t))
        worst_slack = min(worst_slack, perceptron_potential_check(traj, NCERT))
    ok = worst_residual <= REL and worst_slack >= -REL
    report(5, ok, f"split-comparator residual <= {worst_residual:.2e}, "
                  f"alignment slack >= {worst_slack:.2e} "
                  "(10 comparators x 3 stepsizes)")


def test_criterion_06_acceleration_budget():
    t0 = time.perf_counter()
    plan = bounds.acceleration_plan(data.margin(TOY).gamma, TOY.n, 12000)
    score = analysis.acceleration_score(TOY, plan)
    elapsed = time.perf_counter() - t0
    ok = (score.loss_large_eta <= score.bound
          and score.ratio is not None and score.ratio < 1.0
          and elapsed < 10.0)
    report(6, ok, f"scheduled eta={score.eta_large:g}: final loss "
                  f"{score.loss_large_eta:.2e} <= bound {score.bound:.3f}, "
                  f"ratio {score.ratio:.3f} < 1 vs monotone "
                  f"eta={score.eta_small_best:g} ({elapsed:.1f}s)")


def test_criterion_07_slow_rate_floor():
    ds = data.lower_bound_dataset(0.05)
    chosen = None
    # the largest monotone of 16, 8, 4, 2, 1, tried two at a time
    for etas in ((16.0, 8.0), (4.0, 2.0), (1.0,)):
        trajs = descent.run_gd_batch(ds, LOG, etas, 100_000)
        chosen = next(((eta, traj) for eta, traj in zip(etas, trajs)
                       if not np.any(traj.loss[1:] > traj.loss[:-1])), None)
        if chosen is not None:
            break
    assert chosen is not None, "no monotone stepsize found"
    eta, traj = chosen
    fit = analysis.fit_rate(traj, tail_fraction=0.9)
    tail = traj.steps[traj.steps >= 10_000]
    floor = float(np.min(tail * traj.loss[tail]))
    ok = (-1.15 <= fit.slope <= -0.85 and fit.plateau_cv < 0.5 and floor > 0.0)
    report(7, ok, f"monotone run at eta={eta:g}: tail slope {fit.slope:.3f}, "
                  f"plateau cv {fit.plateau_cv:.3f}, min t*loss {floor:.2f} > 0 "
                  "(only the 1/t shape is asserted, not its constant)")


def test_criterion_08_inverse_time_rate():
    ok = True
    details = []
    etas = (8.0, 32.0)
    trajs = descent.run_gd_batch(TOY, LOG, etas, 100_000)
    for eta, traj in zip(etas, trajs):
        fit = analysis.fit_rate(traj, tail_fraction=0.9)
        good = -1.15 <= fit.slope <= -0.85 and fit.plateau_cv < 0.5
        ok &= good
        details.append(f"eta={eta:g}: slope {fit.slope:.3f}, cv {fit.plateau_cv:.3f}")
    report(8, ok, "eta*t*loss plateaus over the last decade; " + "; ".join(details))


def test_criterion_09_loss_family_conformance():
    specs = [LOG,
             losses.flattened_exponential(0.5), losses.flattened_exponential(1.0),
             losses.flattened_exponential(2.0),
             losses.flattened_polynomial(0.5), losses.flattened_polynomial(1.0),
             losses.flattened_polynomial(2.0)]
    ok = True
    for spec in specs:
        ok &= losses.check_assumptions(spec, Rng(0)).passed
        for lam in (1.0, 10.0, 1e3, 1e6):
            rb = losses.rho_bound(spec, lam)
            ok &= losses.rho_exact(spec, lam) <= rb + 1e-9
            ok &= float(losses.eval_loss(spec, math.sqrt(rb))) <= rb / lam + 1e-12
    report(9, ok, "all seven loss specs pass the condition suite, the exact "
                  "path length stays below its closed form, and "
                  "loss(sqrt(rho)) <= rho/lambda on the lambda grid")


def test_criterion_10_sgd_population_bounds():
    t_h, delta, seeds = 10_000, 0.05, 20
    cert = data.margin(TOY)
    t0 = time.perf_counter()
    ok = True
    details = []
    for eta in (1.0, math.sqrt(t_h)):
        lb = bounds.sgd_loss_bound(cert.gamma, eta, t_h, delta)
        eb = bounds.sgd_error_bound(cert.gamma, eta, t_h, delta)
        ok_loss = ok_err = 0
        for seed in range(seeds):
            traj = descent.run_sgd(TOY, eta, t_h, Rng(seed))
            ok_loss += float(np.mean(traj.loss[:t_h])) <= lb
            ok_err += float(np.mean(traj.zero_one[:t_h])) <= eb
        ok &= ok_loss >= 19 and ok_err >= 19
        details.append(f"eta={eta:g}: loss {ok_loss}/{seeds}, error {ok_err}/{seeds}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 20.0
    report(10, ok, "; ".join(details) + f" ({elapsed:.1f}s)")


def test_criterion_11_wide_network_guarantees():
    eta, T, delta, n = 1.0, 200, 0.1, NTOY.n
    wmin = bounds.width_min(LOG, GAMMA, eta, T, n, delta)
    R = bounds.lazy_radius(LOG, GAMMA, eta, T, n, delta)
    # ceil(width_min) ~ 1e20 parameters cannot be materialized on any
    # machine; the run uses the largest desk-scale width instead and the
    # checks are asserted there (they only get harder at smaller width)
    m = 4096
    ok_log = 0
    for seed in range(10):
        net = ntk.init_net(m, 2, Rng(seed))
        traj = ntk.run_gd_ntk(net, NTOY, LOG, eta, T)
        eos = bounds.ntk_eos_bound(LOG, GAMMA, eta, T, n, delta)
        ok_log += traj.dist_init.max() <= R and float(np.mean(traj.loss[:T])) <= eos

    poly = losses.flattened_polynomial(2.0)
    R_poly = bounds.lazy_radius(poly, GAMMA, eta, T, n, delta)
    ok_poly = 0
    for seed in range(10):
        net = ntk.init_net(m, 2, Rng(seed))
        traj = ntk.run_gd_ntk(net, NTOY, poly, eta, T)
        eos = bounds.ntk_eos_bound(poly, GAMMA, eta, T, n, delta)
        ok_poly += traj.dist_init.max() <= R_poly and float(np.mean(traj.loss[:T])) <= eos

    # width ordering across stepsize regimes (orders only, not constants)
    T_big = 1e8
    w_const = bounds.width_min(LOG, 0.5, 1.0, T_big, n, delta)
    w_sqrt = bounds.width_min(poly, 0.5, math.sqrt(T_big), T_big, n, delta)
    w_linear = bounds.width_min(LOG, 0.5, 0.25 * T_big / 120.0, T_big, n, delta)
    ordered = w_const < w_sqrt < w_linear

    ok = ok_log >= 9 and ok_poly >= 9 and ordered
    report(11, ok, f"lazy radius + average-loss bound hold in {ok_log}/10 "
                   f"(logistic) and {ok_poly}/10 (poly a=2) seeds at m={m} "
                   f"(certified width {wmin:.1e} is not materializable); "
                   f"width ordering polylog < poly(T) < quadratic: {ordered}")


def test_criterion_12_gradient_correctness():
    rng = Rng(23)
    worst = 0.0
    # linear predictors
    for _ in range(50):
        w = rng.normals(2) * 2.0
        spec = LOG if rng.uniform(1)[0] < 0.5 else losses.flattened_polynomial(2.0)
        mean_loss, grad = linear_gd_maps(spec, NTOY)
        fd = finite_diff_grad(mean_loss, w, h=1e-6)
        g = grad(w)
        worst = max(worst, float(np.linalg.norm(fd - g) / max(np.linalg.norm(g), 1e-12)))
    # network predictors on one sample, probed away from activation
    # boundaries, through the maps run_gd_ntk steps with
    checked = 0
    while checked < 50:
        net = ntk.init_net(8, 2, rng)
        x = rng.normals(2)
        if np.min(np.abs(net.w0 @ x)) < 1e-3:
            continue
        spec = (LOG, losses.flattened_polynomial(2.0))[checked % 2]
        one = data.Dataset(x[None, :], np.ones(1), name="probe")
        flat = net.w0.ravel().copy()
        mean_loss, grad = network_gd_maps(spec, net, one)
        fd = finite_diff_grad(mean_loss, flat, h=1e-6)
        g = grad(flat)
        worst = max(worst, float(np.linalg.norm(fd - g) / max(np.linalg.norm(g), 1e-12)))
        checked += 1
    report(12, worst <= 1e-5,
           f"analytic vs central-difference gradients over 100 probes: "
           f"worst relative error {worst:.2e}")


def test_criterion_13_rerun_determinism(tmp_path):
    jobs = [
        (["gd", "--dataset", "toy", "--normalize", "--eta", "2,8,32",
          "--steps", "500"], ["gd_eta2.csv", "gd_eta8.csv", "gd_eta32.csv"]),
        (["sgd", "--dataset", "toy", "--eta", "4", "--steps", "500",
          "--seed", "7"], ["sgd_eta4_seed7.csv"]),
        (["ntk", "--dataset", "toy", "--normalize", "--width", "64",
          "--eta", "1", "--steps", "50", "--seed", "3"], ["ntk.csv", "ntk_diagnostics.json"]),
        (["accelerate", "--dataset", "toy", "--steps", "12000"],
         ["accelerate_large.csv", "accelerate_baseline.csv", "accelerate.json"]),
        (["rates", "--dataset", "toy", "--eta", "8", "--steps", "200",
          "--tail-fraction", "0.5"], ["rates_eta8.csv", "rates.json"]),
    ]
    ok = True
    for argv, names in jobs:
        a, b = tmp_path / (argv[0] + "_a"), tmp_path / (argv[0] + "_b")
        assert cli_main(argv + ["--out", str(a), "--no-svg"]) == 0
        assert cli_main([argv[0], "--config", str(a / "config.json"),
                         "--out", str(b)]) == 0
        # every file the rerun writes, but the SVG that the first run skips
        written = sorted(p.name for p in b.iterdir() if p.suffix != ".svg")
        ok &= set(names) <= set(written)
        ok &= written == sorted(p.name for p in a.iterdir())
        for name in written:
            ok &= (a / name).read_bytes() == (b / name).read_bytes()
    report(13, ok, "re-running every command from its embedded config "
                   "reproduces every file it writes byte for byte")
