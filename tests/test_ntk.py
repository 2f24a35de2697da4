"""Two-layer ReLU network: forward/gradient correctness, homogeneity, the
radius/width formulas, lazy-training diagnostics, and tangent-feature
margins."""

import dataclasses
import math

import numpy as np
import pytest

from eoslab import bounds, data, descent, losses, ntk
from eoslab.numerics import Rng

from _oracles import (finite_diff_grad, grad_param, network_gd_maps, network_maps, outcome,
                      stepwise_gd, tangent_features, verify_margin)

LOG = losses.logistic()
NTOY = data.normalized(data.toy_dataset())
GAMMA = data.margin(NTOY).gamma


def _random_sign_net(m, d, rng):
    """A net with Rademacher output signs, drawn before the weights."""
    a = rng.rademacher(m)
    w0 = rng.normals(m * d).reshape(m, d)
    return ntk.NtkNet(a=a, w0=w0)


class TestInit:
    def test_alternating_signs(self):
        net = ntk.init_net(4, 2, Rng(0))
        np.testing.assert_array_equal(net.a, [1.0, -1.0, 1.0, -1.0])
        assert net.a.sum() == 0.0

    def test_odd_width_rejected(self):
        with pytest.raises(ValueError):
            ntk.init_net(5, 2, Rng(0))
        with pytest.raises(ValueError):
            ntk.init_net(0, 2, Rng(0))

    def test_seed_determinism(self):
        a = ntk.init_net(16, 3, Rng(4))
        b = ntk.init_net(16, 3, Rng(4))
        np.testing.assert_array_equal(a.w0, b.w0)

    def test_random_sign_mode(self):
        net = _random_sign_net(1000, 2, Rng(1))
        assert set(np.unique(net.a)) <= {-1.0, 1.0}
        assert abs(net.a.sum()) < 1000  # not all equal

    def test_init_scale_concentrates(self):
        # ||w0||^2/(m d) is a chi-square mean; near 1 at scale
        net = ntk.init_net(10_000, 10, Rng(2))
        ratio = float(np.sum(net.w0 ** 2)) / (10_000 * 10)
        assert 0.95 <= ratio <= 1.05


def _forward(net, x, w=None):
    """f(x; w) of one input at net.w0, or at w if given: the margin that the
    maps run_gd_ntk steps with give on the one-sample set {(x, +1)}."""
    one = data.Dataset(np.asarray(x)[None, :], np.ones(1), name="one")
    margins, _ = ntk._network_maps(net, one)
    z = np.empty((1, 1))
    margins((net.w0 if w is None else w).reshape(1, -1), z)
    return z[0, 0]


class TestForward:
    def test_zero_weights(self):
        net = ntk.init_net(4, 2, Rng(0))
        assert _forward(net, np.array([0.3, -0.7]), np.zeros_like(net.w0)) == 0.0

    def test_hand_value(self):
        # m=2, a=(1,-1), w1=x, w2=-x, unit x: (1/sqrt 2)(1 - 0)
        net = ntk.init_net(2, 2, Rng(0))
        x = np.array([0.6, 0.8])
        f = _forward(net, x, np.stack([x, -x]))
        assert f == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)

    def test_positive_homogeneity(self):
        rng = Rng(3)
        net = ntk.init_net(8, 3, rng)
        x = rng.normals(3)
        f1 = _forward(net, x)
        for c in (0.25, 2.0, 10.0):
            assert _forward(net, x, c * net.w0) == pytest.approx(c * f1, rel=1e-12)

    def test_batch_matches_single(self):
        net = ntk.init_net(8, 2, Rng(5))
        margins, _ = ntk._network_maps(net, NTOY)
        z = np.empty((1, NTOY.n))
        margins(net.w0.reshape(1, -1), z)
        fs = NTOY.ys * z[0]
        for i in range(NTOY.n):
            assert fs[i] == pytest.approx(_forward(net, NTOY.xs[i]), abs=1e-15)


class TestGradParam:
    """The reference tangent gradient of one sample, ``_oracles.grad_param``."""

    def test_norm_at_most_input_norm(self):
        rng = Rng(6)
        for _ in range(20):
            net = ntk.init_net(16, 4, rng)
            x = rng.normals(4)
            g = grad_param(net, x)
            assert np.linalg.norm(g) <= np.linalg.norm(x) + 1e-12

    def test_all_negative_preactivations(self):
        net = dataclasses.replace(ntk.init_net(6, 2, Rng(1)), w0=np.tile([-1.0, 0.0], (6, 1)))
        x = np.array([1.0, 0.0])
        assert np.all(grad_param(net, x) == 0.0)

    def test_subgradient_zero_at_kink(self):
        net = dataclasses.replace(ntk.init_net(2, 2, Rng(0)), w0=np.zeros((2, 2)))
        x = np.array([1.0, 1.0])
        assert np.all(grad_param(net, x) == 0.0)

    def test_matches_finite_differences_away_from_kinks(self):
        rng = Rng(9)
        checked = 0
        while checked < 100:
            net = ntk.init_net(6, 2, rng)
            x = rng.normals(2)
            if np.min(np.abs(net.w0 @ x)) < 1e-3:
                continue  # too close to an activation boundary
            flat = net.w0.ravel().copy()

            def f(v):
                return _forward(net, x, v.reshape(net.m, net.d))

            fd = finite_diff_grad(f, flat, h=1e-6)
            np.testing.assert_allclose(grad_param(net, x), fd, atol=1e-5)
            checked += 1


class TestNtkGrad:
    @pytest.mark.parametrize("loss", [LOG, losses.flattened_exponential(1.5),
                                      losses.flattened_polynomial(2.0)],
                             ids=lambda spec: spec.kind)
    def test_matches_finite_differences_of_mean_loss(self, loss):
        # the gradient at weights w other than the initial net.w0, through
        # the maps run_gd_ntk steps with
        rng = Rng(4)
        checked = 0
        while checked < 20:
            net = ntk.init_net(6, 2, rng)
            w = net.w0 + 0.5 * rng.normals(net.m * net.d).reshape(net.m, net.d)
            if np.min(np.abs(NTOY.xs @ w.T)) < 1e-3:
                continue  # too close to an activation boundary

            mean_loss, grad = network_gd_maps(loss, net, NTOY)
            g = grad(w.ravel())
            assert g.shape == (net.m * net.d,)
            fd = finite_diff_grad(mean_loss, w.ravel(), h=1e-6)
            np.testing.assert_allclose(g, fd, atol=1e-6)
            checked += 1


class TestRunGdNtk:
    def test_lazy_ok_at_moderate_width(self):
        okc = 0
        R = bounds.lazy_radius(LOG, GAMMA, 1.0, 200, NTOY.n, 0.1)
        for seed in range(10):
            net = ntk.init_net(1024, 2, Rng(seed))
            traj = ntk.run_gd_ntk(net, NTOY, LOG, 1.0, 200)
            eos = bounds.ntk_eos_bound(LOG, GAMMA, 1.0, 200, NTOY.n, 0.1)
            if traj.dist_init.max() <= R and float(np.mean(traj.loss[:200])) <= eos:
                okc += 1
        assert okc >= 9

    def test_tiny_net_reports_without_error(self):
        net = ntk.init_net(2, 2, Rng(0))
        traj = ntk.run_gd_ntk(net, NTOY, LOG, 1.0, 50)
        assert np.all(np.isfinite(traj.dist_init))

    def test_trajectory_is_dense_and_finite(self):
        net = ntk.init_net(32, 2, Rng(1))
        traj = ntk.run_gd_ntk(net, NTOY, LOG, 2.0, 60)
        assert traj.dense and len(traj.loss) == 61
        assert np.all(np.isfinite(traj.loss))

    def test_dist_init_recorded(self):
        net = ntk.init_net(64, 2, Rng(2))
        traj = ntk.run_gd_ntk(net, NTOY, LOG, 1.0, 30)
        assert traj.dist_init[0] == 0.0

    def test_seed_determinism(self):
        t1 = ntk.run_gd_ntk(ntk.init_net(64, 2, Rng(7)), NTOY, LOG, 1.0, 40)
        t2 = ntk.run_gd_ntk(ntk.init_net(64, 2, Rng(7)), NTOY, LOG, 1.0, 40)
        np.testing.assert_array_equal(t1.loss, t2.loss)


class TestTangentMargin:
    def test_separable_data_has_positive_margin(self):
        net = ntk.init_net(512, 2, Rng(0))
        cert = ntk.ntk_margin_hat(net, NTOY)
        assert cert.gamma > 0.0

    @pytest.mark.parametrize("seed", range(8))
    def test_wide_certificate_verifies(self, seed):
        net = ntk.init_net(4096, 2, Rng(seed))
        tangent = data.Dataset(tangent_features(net, NTOY), np.ones(NTOY.n), name="tangent")
        assert verify_margin(tangent, ntk.ntk_margin_hat(net, NTOY))

    def test_single_sample(self):
        one = data.Dataset(NTOY.xs[:1], NTOY.ys[:1], name="one")
        net = ntk.init_net(64, 2, Rng(3))
        cert = ntk.ntk_margin_hat(net, one)
        g = grad_param(net, one.xs[0])
        assert cert.gamma == pytest.approx(np.linalg.norm(g), rel=1e-9)

    def test_xor_style_data(self):
        # not linearly separable in input space, but separable in the
        # tangent features at moderate width (observed, not certified)
        xs = 0.9 * np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]])
        ys = np.array([1.0, 1.0, -1.0, -1.0])
        xor = data.Dataset(xs, ys, name="xor")
        with pytest.raises(data.NotSeparable):
            data.margin(xor)
        net = ntk.init_net(2048, 2, Rng(5))
        cert = ntk.ntk_margin_hat(net, xor)
        assert cert.gamma > 0.0


def _certificate_bits(certify):
    """(gamma, upper, w_star bytes) of ``certify()``, or its NotSeparable
    message."""
    try:
        cert = certify()
    except data.NotSeparable as exc:
        return str(exc)
    return cert.gamma, cert.upper, cert.w_star.tobytes()


class TestTangentFeaturesMatchReference:
    """ntk_margin_hat certifies exactly the reference tangent features:
    the features it hands the solver, and so its certificate, equal
    ``_oracles.tangent_features`` bit for bit, signed zeros included."""

    @pytest.mark.parametrize("m", [2, 64, 4096])
    def test_bit_identical(self, m, monkeypatch):
        handed = []

        def solve(tangent):
            handed.append(tangent.xs)
            return data.margin(tangent)

        monkeypatch.setattr(ntk, "margin", solve)
        gen = np.random.default_rng(m)
        for trial in range(25):
            n, d = int(gen.integers(1, 13)), int(gen.integers(1, 6))
            xs = gen.standard_normal((n, d))
            xs[gen.random((n, d)) < 0.2] = 0.0  # zero features, whole rows at d=1
            ds = data.Dataset(xs, gen.choice([-1.0, 1.0], n), name=f"rand{trial}")
            make = _random_sign_net if trial % 2 else ntk.init_net
            net = make(m, d, Rng(trial))
            ref = tangent_features(net, ds)
            want = _certificate_bits(lambda: data.margin(
                data.Dataset(ref, np.ones(ds.n), name=ds.name + "/tangent")))
            assert _certificate_bits(lambda: ntk.ntk_margin_hat(net, ds)) == want
            assert handed.pop().tobytes() == ref.tobytes()


NTK_LOSSES = [LOG, losses.flattened_exponential(1.5), losses.flattened_polynomial(2.0)]
CONFLICT = data.Dataset(np.array([[1.0], [0.3]]), np.array([1.0, -1.0]), name="conflict")


def _conflict_net(scale):
    # every ReLU stays active on the positive inputs, so the net is a
    # linear predictor on this non-separable set and large steps diverge
    net = ntk.init_net(2, 1, Rng(0))
    return dataclasses.replace(net, w0=np.array([[scale + 0.5], [scale]]))


class TestRunGdNtkMatchesStepwiseReference:
    """run_gd_ntk runs descent's GD engine; every series and w_final must
    equal the stepwise oracle's run on the network maps bit for bit."""

    @staticmethod
    def _assert_same(make_net, ds, loss, eta, T):
        net = make_net()
        ref = outcome(stepwise_gd, loss, eta, T, net.w0.ravel(), *network_maps(net, ds))
        traj = outcome(ntk.run_gd_ntk, make_net(), ds, loss, eta, T)
        if isinstance(ref, descent.DivergenceError):
            assert (traj.step, str(traj)) == (ref.step, str(ref))
            return ref.step, str(ref)
        np.testing.assert_array_equal(traj.steps, np.arange(T + 1))
        for key in ("steps", "loss", "grad_norm", "param_norm", "dist_init", "G", "F"):
            assert np.array_equal(getattr(traj, key), getattr(ref, key)), key
        assert np.array_equal(traj.w_final, ref.w_final)
        assert traj.record_every == 1 and traj.iterates is None
        return None

    @pytest.mark.parametrize("eta", [1.0, 8.0])
    @pytest.mark.parametrize("m,T", [(2, 150), (64, 150), (4096, 25)])
    @pytest.mark.parametrize("loss", NTK_LOSSES, ids=lambda spec: spec.kind)
    def test_bit_identical(self, loss, m, T, eta):
        assert self._assert_same(lambda: ntk.init_net(m, 2, Rng(m)),
                                 NTOY, loss, eta, T) is None

    @pytest.mark.parametrize("m,T", [(64, 150), (4096, 25)])
    @pytest.mark.parametrize("loss", NTK_LOSSES, ids=lambda spec: spec.kind)
    def test_random_signs(self, loss, m, T):
        assert self._assert_same(lambda: _random_sign_net(m, 2, Rng(m)),
                                 NTOY, loss, 4.0, T) is None

    @pytest.mark.parametrize("loss", NTK_LOSSES, ids=lambda spec: spec.kind)
    def test_wide_run_past_one_block(self, loss):
        # 1100 steps run past the first block of 1024 (n = 4)
        assert descent._block_len(NTOY.n) < 1100
        assert self._assert_same(lambda: ntk.init_net(4096, 2, Rng(11)),
                                 NTOY, loss, 8.0, 1100) is None

    @pytest.mark.parametrize("loss", NTK_LOSSES, ids=lambda spec: spec.kind)
    def test_sustained_divergence(self, loss):
        out = self._assert_same(lambda: _conflict_net(1e9), CONFLICT, loss, 1e6, 300)
        assert out == (50, "loss exceeded 1000 * L(w_0) for 50 consecutive steps (step 50)")

    def test_divergence_before_the_last_block(self):
        # the run leaves the engine in the first of two blocks
        out = self._assert_same(lambda: _conflict_net(1e9), CONFLICT, LOG, 1e6, 1500)
        assert out == (50, "loss exceeded 1000 * L(w_0) for 50 consecutive steps (step 50)")

    def test_non_finite_loss(self):
        def blown_up():
            net = ntk.init_net(8, 2, Rng(0))
            return dataclasses.replace(net, w0=net.w0 * np.inf)
        out = self._assert_same(blown_up, NTOY, LOG, 1.0, 10)
        assert out == (0, "non-finite loss at step 0")


@pytest.mark.parametrize("eta", [math.nan, math.inf, 0.0, -1.0])
def test_run_rejects_stepsize_outside_domain(eta):
    net = ntk.init_net(8, NTOY.d, Rng(0))
    with pytest.raises(ValueError, match="eta"):
        ntk.run_gd_ntk(net, NTOY, LOG, eta, 10)


def test_run_leaves_the_net_unchanged():
    # a run, to its end or into a divergence, starts at net.w0 and writes
    # nothing back, so a second run of the same net repeats the first
    net = ntk.init_net(16, 2, Rng(1))
    a, w0 = net.a.copy(), net.w0.copy()
    first = ntk.run_gd_ntk(net, NTOY, LOG, 4.0, 60)
    assert np.array_equal(net.a, a) and np.array_equal(net.w0, w0)
    second = ntk.run_gd_ntk(net, NTOY, LOG, 4.0, 60)
    assert np.array_equal(second.w_final, first.w_final)

    net = _conflict_net(1e9)
    a, w0 = net.a.copy(), net.w0.copy()
    with pytest.raises(descent.DivergenceError), np.errstate(over="ignore", invalid="ignore"):
        ntk.run_gd_ntk(net, CONFLICT, LOG, 1e6, 300)
    assert np.array_equal(net.a, a) and np.array_equal(net.w0, w0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        net.w0 = w0
