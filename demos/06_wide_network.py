"""A wide two-layer ReLU net trained by GD barely moves from its start.

At moderate width the whole trajectory stays inside the certified lazy
radius R, the average loss respects its closed-form bound, and the
tangent features at initialization are linearly separable -- even for
XOR-style data that no linear predictor can split in input space.

The certified *sufficient* width is astronomically conservative (~1e20
here); laziness in practice kicks in many orders of magnitude earlier,
which is exactly what the diagnostics let you observe.

Run:  python3 demos/06_wide_network.py
"""

import numpy as np

from eoslab import bounds, data, losses, ntk
from eoslab.numerics import Rng

toy = data.normalized(data.toy_dataset())
cert = data.margin(toy)
log = losses.logistic()
eta, T, delta = 1.0, 200, 0.1

R = bounds.lazy_radius(log, cert.gamma, eta, T, toy.n, delta)
print(f"certified sufficient width: "
      f"{bounds.width_min(log, cert.gamma, eta, T, toy.n, delta):.2e}")
print(f"lazy radius R = {R:.1f}\n")

for m in (16, 256, 4096):
    net = ntk.init_net(m, toy.d, Rng(0))
    traj = ntk.run_gd_ntk(net, toy, log, eta, T)
    max_dist = float(traj.dist_init.max())
    eos = bounds.ntk_eos_bound(log, cert.gamma, eta, T, toy.n, delta)
    print(f"m={m:>5}: max ||w_t - w_0|| = {max_dist:6.2f} "
          f"(lazy_ok={max_dist <= R}), avg loss {np.mean(traj.loss[:T]):.4f} "
          f"<= bound {eos:.1f}, final loss {traj.loss[-1]:.4f}")

xs = 0.9 * np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]])
xor = data.Dataset(xs, np.array([1.0, 1.0, -1.0, -1.0]), name="xor")
net = ntk.init_net(2048, 2, Rng(1))
tangent = ntk.ntk_margin_hat(net, xor)
print(f"\nXOR-style data: not linearly separable in input space, but the "
      f"tangent features at m=2048 certify a margin of {tangent.gamma:.4f}")
