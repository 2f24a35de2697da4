"""The three loss families and the conditions the theory needs from them.

Each family is convex, non-increasing, and has a globally bounded
derivative (the exponential and polynomial tails are glued to a linear
ramp on z <= 0 precisely to get that bound).  The quantity that controls
every rate is rho(lambda) = min_z lambda*loss(z) + z^2; its closed-form
upper bounds are what the bound evaluators consume.

Run:  python3 demos/04_loss_families.py
"""

from dataclasses import replace

import numpy as np

from eoslab import losses
from eoslab.numerics import Rng

specs = {
    "logistic": losses.logistic(),
    "flat_exp(a=1)": losses.flattened_exponential(1.0),
    "flat_poly(a=2)": losses.flattened_polynomial(2.0),
}

print(f"{'loss':<15} {'C_g':>5} {'C_beta':>8} {'C_e':>6}   conditions")
for name, spec in specs.items():
    report = losses.check_assumptions(spec, Rng(0))
    status = "all pass" if report.passed else "FAILED"
    tail = "n/a" if spec.C_e is None else f"{spec.C_e:g}"
    if report.exp_tail is None:
        status += " (no exponential tail claimed)"
    print(f"{name:<15} {spec.C_g:>5g} {spec.C_beta:>8.3f} {tail:>6}   {status}")

print("\nexact path length vs closed form (must never cross):")
print(f"{'lambda':>10}  " + "  ".join(f"{n:>22}" for n in specs))
for lam in (1.0, 10.0, 1e3, 1e6):
    cells = []
    for spec in specs.values():
        exact = losses.rho_exact(spec, lam)
        bound = losses.rho_bound(spec, lam)
        cells.append(f"{exact:>9.3f} <= {bound:>9.3f}")
    print(f"{lam:>10g}  " + "  ".join(cells))

print("\nnegative control: halving the self-boundedness constant is caught --")
broken = replace(losses.logistic(), C_beta=np.e / 4.0)
report = losses.check_assumptions(broken, Rng(0))
check = report.self_bounded_second
print(f"self_bounded_second passed={check.passed}, worst residual "
      f"{check.residual:.2e} at pair {tuple(round(v, 3) for v in check.witness)}")
