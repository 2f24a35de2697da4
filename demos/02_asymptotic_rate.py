"""The tail of the loss curve decays like 1/(eta * t).

Scaling the loss by eta * t should flatten the tail into a plateau, the
same plateau for different stepsizes.  The log-log slope of the raw curve
should sit near -1.

Run:  python3 demos/02_asymptotic_rate.py
"""

from eoslab import analysis, data, descent, losses
from eoslab._svg import write_line_plot

toy = data.toy_dataset()
loss = losses.logistic()
T = 100_000

curves = []
etas = (8.0, 32.0)
trajs = descent.run_gd_batch(toy, loss, etas, T)
for eta, traj in zip(etas, trajs):
    fit = analysis.fit_rate(traj, tail_fraction=0.9)
    print(f"eta={eta:>3g}: log-log slope over the last decade "
          f"{fit.slope:+.3f}, plateau of eta*t*loss = {fit.plateau:.2f} "
          f"(cv {fit.plateau_cv:.3f})")
    sub = slice(1, None, 50)  # thin the curve for the figure
    scaled = eta * traj.steps[sub] * traj.loss[sub]
    curves.append((f"eta={eta:g}", traj.steps[sub], scaled))

write_line_plot("demos/out_asymptotic_rate.svg", curves,
                title="eta * t * loss flattens: the tail decays like 1/(eta t)",
                ylabel="eta * t * loss", logx=True)
print("wrote demos/out_asymptotic_rate.svg")
