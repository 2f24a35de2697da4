"""Oscillation, then calm: sweep the stepsize on the four-sample dataset.

Small stepsizes descend monotonically from the first step.  Large ones
oscillate at first (the loss goes *up* on some steps), yet every run
eventually crosses the stable criterion loss <= 1/eta, after which it
descends monotonically -- and the larger the stepsize, the lower the loss
it reaches at the same horizon.

Run:  python3 demos/01_phase_transition.py
"""

import numpy as np

from eoslab import bounds, data, descent, losses
from eoslab._svg import write_line_plot

toy = data.toy_dataset()
cert = data.margin(toy)
print(f"dataset: {toy.name}, n={toy.n}, certified margin gamma={cert.gamma:g} "
      f"along {np.round(cert.w_star, 6)}")

loss = losses.logistic()
T = 20_000
curves = []
etas = (4.0, 8.0, 16.0, 32.0)
trajs = descent.run_gd_batch(toy, loss, etas, T)
for eta, traj in zip(etas, trajs):
    phase = descent.detect_phase(traj, toy.n, cert.gamma)
    ascents = int(np.sum(traj.loss[1:] > traj.loss[:-1]))
    tau = bounds.tau_logistic(cert.gamma, eta, toy.n)
    print(f"eta={eta:>4g}: {ascents:3d} ascending steps, last at t="
          f"{phase.s_empirical:3d}; criterion loss<=1/eta first met at "
          f"t={phase.s_theory} (bound tau={tau:.0f}); final loss "
          f"{traj.loss[-1]:.3e}")
    curves.append((f"eta={eta:g}", traj.steps[:2000], traj.loss[:2000]))

write_line_plot("demos/out_phase_transition.svg", curves,
                title="Stepsize sweep: early oscillation, then monotone descent",
                ylabel="loss")
print("wrote demos/out_phase_transition.svg")
