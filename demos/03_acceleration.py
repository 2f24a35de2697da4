"""Spending half the budget oscillating buys a quadratically better loss.

Given a budget of T steps, the schedule eta = gamma^2 T / 120 deliberately
overshoots at first.  A run that is never allowed to ascend -- any
constant stepsize kept small enough to be monotone -- ends with a strictly
larger final loss at the same budget.

Run:  python3 demos/03_acceleration.py
"""

from eoslab import analysis, bounds, data, descent, losses

toy = data.toy_dataset()
cert = data.margin(toy)
T = 12_000

plan = bounds.acceleration_plan(cert.gamma, toy.n, T)
print(f"budget T={T}, margin gamma={cert.gamma:g}")
print(f"schedule: eta = gamma^2 T / 120 = {plan.eta:g} "
      f"(feasible from T >= {plan.threshold:g})")
print(f"certified final-loss bound: {plan.bound:.4f}")

score = analysis.acceleration_score(toy, plan)
print(f"\nscheduled run     : final loss {score.loss_large_eta:.3e} "
      f"at eta={score.eta_large:g}")
print(f"best monotone run : final loss {score.loss_small_eta_best:.3e} "
      f"at eta={score.eta_small_best:g}")
print(f"ratio             : {score.ratio:.3f}  (< 1: the schedule wins)")

ds_slow = data.lower_bound_dataset(0.05)
print(f"\ncontrast on {ds_slow.name}: runs that never ascend cannot beat a "
      "1/t decay --")
traj = descent.run_gd(ds_slow, losses.logistic(), 8.0, 50_000)
fit = analysis.fit_rate(traj, tail_fraction=0.5)
print(f"monotone eta=8 run: tail slope {fit.slope:+.3f}, "
      f"t*loss plateau {fit.plateau / 8.0:.1f}")
