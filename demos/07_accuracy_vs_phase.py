"""Training accuracy against the phase markers.

The loss keeps falling long after the classifier is already perfect on
the training set, and the step where accuracy saturates need not line up
with either phase marker -- at this tiny scale the interplay between
"last ascent", "criterion crossing", and "first perfect step" is an
empirical observation, which is exactly what this instrument surfaces.

Run:  python3 demos/07_accuracy_vs_phase.py
"""

import numpy as np

from eoslab import analysis, data, descent, losses

toy = data.toy_dataset()
cert = data.margin(toy)
loss = losses.logistic()

print(f"{'eta':>5} {'last ascent':>12} {'criterion met':>14} "
      f"{'perfect from':>13} {'final loss':>12}")
etas = (4.0, 8.0, 16.0, 32.0)
trajs = descent.run_gd_batch(toy, loss, etas, 3000, store_iterates=True)
for eta, traj in zip(etas, trajs):
    err = analysis.zero_one_curve(traj, toy)
    phase = descent.detect_phase(traj, toy.n, cert.gamma)
    perfect = np.nonzero(err[::-1] > 0.0)[0]
    stays = len(err) - int(perfect[0]) if perfect.size else 0
    print(f"{eta:>5g} {phase.s_empirical:>12d} {str(phase.s_theory):>14} "
          f"{stays:>13d} {traj.loss[-1]:>12.3e}")

print("\n(accuracy saturates within the first few dozen steps; the loss "
      "keeps improving for thousands more)")
