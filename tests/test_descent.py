"""GD/SGD engines: the stepsize domain, loss and gradient values, trajectory instrumentation, the divergence guard against the
stepwise loop, phase detection, the split-comparator and margin-alignment
inequalities, and determinism."""

import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eoslab import bounds, data, descent, losses, ntk
from eoslab.numerics import Rng

from _oracles import (StepwiseGuard, divergence, finite_diff_grad, linear_gd_maps, linear_maps,
                      outcome, perceptron_potential_check, split_optimization_check,
                      stepwise_gd, write_trajectory_csv_rows)

LOG = losses.logistic()
TOY = data.toy_dataset()
NTOY = data.normalized(TOY)
NCERT = data.margin(NTOY)


# each engine's run at a stepsize eta
ENGINES = {
    "run_gd": lambda eta: descent.run_gd(TOY, LOG, eta, 10),
    "run_gd_batch": lambda eta: descent.run_gd_batch(TOY, LOG, [1.0, eta], 10),
    "run_sgd": lambda eta: descent.run_sgd(NTOY, eta, 10, Rng(0)),
    "run_gd_ntk": lambda eta: ntk.run_gd_ntk(ntk.init_net(8, NTOY.d, Rng(0)), NTOY, LOG, eta, 10),
}


@pytest.mark.parametrize("eta", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_engines_refuse_a_stepsize_outside_the_domain(engine, eta):
    with pytest.raises(ValueError, match="^eta must be positive and finite$"):
        ENGINES[engine](eta)


def loss_value(loss, ds, w):
    """The mean loss at w, through the maps GD steps with."""
    return linear_gd_maps(loss, ds)[0](w)


class TestLossValue:
    def test_zero_parameter_mean(self):
        assert loss_value(LOG, TOY, np.zeros(2)) == pytest.approx(
            math.log(2.0), abs=1e-15)

    def test_uniform_margin_two(self):
        # w = (0, 10): every signed sample has second coordinate 0.2, so
        # all margins equal 2 and the mean loss is ln(1 + e^-2)
        val = loss_value(LOG, TOY, np.array([0.0, 10.0]))
        assert val == pytest.approx(math.log(1.0 + math.exp(-2.0)), abs=1e-12)
        assert val == pytest.approx(0.126928, abs=1e-6)

    def test_flat_exp_negative_branch(self):
        ds = data.Dataset(np.array([[1.0, 0.0], [0.0, 1.0]]),
                          np.array([1.0, 1.0]), name="axes")
        # margins both -1 under w = (-1, -1): loss = 1 - a*(-1) = 2
        val = loss_value(losses.flattened_exponential(1.0), ds, np.array([-1.0, -1.0]))
        assert val == 2.0

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            loss_value(LOG, TOY, np.zeros(3))


class TestGrad:
    """The gradient GD steps with: the engine's linear maps on one run."""

    def test_at_zero_is_half_mean(self):
        g = linear_gd_maps(LOG, TOY)[1](np.zeros(2))
        np.testing.assert_allclose(g, [0.25, -0.1], atol=1e-15)
        # l'(0) = -1/2 times the mean signed sample
        np.testing.assert_allclose(g, -0.5 * TOY.signed().mean(axis=0), atol=1e-15)

    def test_matches_finite_differences(self):
        rng = Rng(5)
        for spec in (LOG, losses.flattened_polynomial(2.0)):
            mean_loss, grad = linear_gd_maps(spec, TOY)
            for _ in range(5):
                w = rng.normals(2) * 2.0
                fd = finite_diff_grad(mean_loss, w, h=1e-6)
                np.testing.assert_allclose(grad(w), fd, atol=1e-6)


def _gd_from(starts, ds, loss, etas, steps, record_every=1, store_iterates=False):
    """run_gd_batch(ds, loss, etas, steps, ...) with run k started at
    starts[k], not at 0: gd_engine stepped with the linear maps, as
    run_gd_batch steps it."""
    return descent.gd_engine(
        np.array(starts, dtype=np.float64), ds.n, *descent._linear_maps(ds), loss,
        etas, steps, record_every,
        np.empty((len(etas), steps + 1, ds.d)) if store_iterates else None)


def _run_gd(ds, loss, eta, steps, record_every=1, store_iterates=False, start=None):
    """run_gd(ds, loss, eta, steps) with run_gd_batch's recording settings,
    or with a ``start`` the same run started there: its Trajectory, or the
    DivergenceError raised."""
    if start is None:
        [traj] = descent.run_gd_batch(ds, loss, [eta], steps, record_every, store_iterates)
    else:
        [traj] = _gd_from([start], ds, loss, [eta], steps, record_every, store_iterates)
    if isinstance(traj, descent.DivergenceError):
        raise traj
    return traj


def _stepwise(ds, loss, eta, steps, record_every=1, store_iterates=False, start=None):
    """The run of :func:`_run_gd`'s arguments by the stepwise oracle, on
    its own linear maps."""
    w0 = np.zeros(ds.d) if start is None else start
    return stepwise_gd(loss, eta, steps, w0, *linear_maps(ds), record_every, store_iterates)


def _potentials(w):
    """(G, F) that GD records at w."""
    tr = _run_gd(TOY, LOG, 1.0, 1, start=w)
    return tr.G[0], tr.F[0]


class TestPotentials:
    def test_at_zero(self):
        G, F = _potentials(np.zeros(2))
        assert G == pytest.approx(0.5, abs=1e-15)
        assert F == pytest.approx(1.0, abs=1e-15)

    def test_uniform_margin(self):
        G, F = _potentials(np.array([0.0, 10.0]))
        assert F == pytest.approx(math.exp(-2.0), abs=1e-12)

    def test_large_margin_tails(self):
        G, F = _potentials(np.array([0.0, 500.0]))
        assert G < 1e-20 and F < 1e-20


class TestRunGd:
    def test_small_stepsize_strictly_decreases(self):
        tr = descent.run_gd(TOY, LOG, 1e-3, 100)
        assert np.all(tr.loss[1:] < tr.loss[:-1])

    def test_large_stepsize_oscillates_early(self):
        tr = descent.run_gd(TOY, LOG, 32.0, 200)
        ph = descent.detect_phase(tr, TOY.n, 0.2)
        assert ph.s_empirical > 0
        assert ph.s_empirical <= bounds.tau_logistic(0.2, 32.0, TOY.n)

    def test_one_step_value(self):
        tr = _run_gd(TOY, LOG, 8.0, 1, store_iterates=True)
        np.testing.assert_allclose(tr.iterates[1],
                                   (8.0 / 2.0) * TOY.signed().mean(axis=0),
                                   atol=1e-14)

    def test_recording_cadence(self):
        tr = _run_gd(TOY, LOG, 1.0, 103, record_every=10)
        assert tr.steps[0] == 0 and tr.steps[-1] == 103
        assert np.all(np.diff(tr.steps) > 0)
        assert not tr.dense


class TestDetectPhase:
    def test_monotone_run_has_zero_empirical(self):
        tr = descent.run_gd(NTOY, LOG, 0.5, 300)
        ph = descent.detect_phase(tr, NTOY.n, NCERT.gamma)
        assert ph.s_empirical == 0

    def test_tau_arithmetic(self):
        # (60/0.04) * max{8, 4, e, 1.5 ln 1.5} = 1500 * 8
        assert bounds.tau_logistic(0.2, 8.0, 4) == pytest.approx(12000.0)
        tr = descent.run_gd(TOY, LOG, 8.0, 2000)
        ph = descent.detect_phase(tr, TOY.n, 0.2)
        assert ph.tau_bound == pytest.approx(12000.0)
        assert ph.s_theory is not None and ph.s_theory <= 12000

    def test_absent_theory_step(self):
        # two steps of a tiny-stepsize run never reach loss <= 1/32
        tr = descent.run_gd(NTOY, LOG, 32.0, 2)
        ph = descent.detect_phase(tr, NTOY.n, NCERT.gamma)
        assert ph.s_theory is None

    def test_general_loss_criterion(self):
        spec = losses.flattened_polynomial(2.0)
        tr = descent.run_gd(NTOY, spec, 2.0, 50)
        ph = descent.detect_phase(tr, NTOY.n, NCERT.gamma)
        expected = min(1.0 / (12.0 * spec.C_beta ** 2 * 2.0), spec.ell0 / NTOY.n)
        assert ph.criterion_value == pytest.approx(expected)

    @pytest.mark.parametrize("spec", [losses.flattened_exponential(400.0),
                                      losses.flattened_polynomial(600.0)])
    def test_criterion_where_beta_squared_overflows(self, spec):
        # C_beta is finite but C_beta^2 is not: the level rounds to 0.0
        assert math.isfinite(spec.C_beta)
        tr = descent.run_gd(NTOY, spec, 2.0, 20)
        ph = descent.detect_phase(tr, NTOY.n, NCERT.gamma)
        assert ph.criterion_value == 0.0

    def test_stable_from_max_of_both(self):
        for eta in (8.0, 32.0):
            tr = descent.run_gd(NTOY, LOG, eta, 5000)
            ph = descent.detect_phase(tr, NTOY.n, NCERT.gamma)
            start = max(ph.s_theory or 0, ph.s_empirical)
            seg = tr.loss[start:]
            assert not np.any(seg[1:] > seg[:-1])

    def test_requires_dense_recording(self):
        tr = _run_gd(NTOY, LOG, 1.0, 100, record_every=10)
        with pytest.raises(ValueError):
            descent.detect_phase(tr, NTOY.n, NCERT.gamma)


class TestRunSgd:
    def test_single_point_support_is_gd(self):
        one = data.Dataset(NTOY.xs[:1], NTOY.ys[:1], name="one")
        sgd = descent.run_sgd(one, 2.0, 50, Rng(0))
        gd = descent.run_gd(one, LOG, 2.0, 50)
        np.testing.assert_allclose(sgd.loss, gd.loss, atol=1e-12)

    def test_population_metrics_exact_over_support(self):
        # the iterates are the stepwise reference's, which run_sgd matches
        tr = descent.run_sgd(NTOY, 1.0, 20, Rng(3))
        _, iterates, _, _ = _reference_sgd(NTOY, 1.0, 20, Rng(3))
        k = 7
        w = iterates[k]
        assert tr.loss[k] == pytest.approx(loss_value(LOG, NTOY, w), abs=1e-15)
        z = NTOY.signed() @ w
        assert tr.zero_one[k] == pytest.approx(float(np.mean(z <= 0.0)), abs=0)

    def test_pathwise_regret_inequality(self):
        # realized-sample inequality with the shifted comparator, checked
        # per realization from the iterates and drawn indices of the
        # stepwise reference, which run_sgd matches
        eta, T = 4.0, 400
        _, iterates, w_final, idx = _reference_sgd(NTOY, eta, T, Rng(8))
        assert np.array_equal(descent.run_sgd(NTOY, eta, T, Rng(8)).w_final, w_final)
        Zy = NTOY.signed()
        gamma, w_star = NCERT.gamma, NCERT.w_star
        rng = Rng(99)
        for _ in range(5):
            u1 = rng.normals(2) * 2.0
            u = u1 + (eta / (2.0 * gamma)) * w_star
            for t in (1, 50, T):
                zs = np.einsum("ij,ij->i", Zy[idx[:t]], iterates[:t])
                sampled = float(np.mean(np.logaddexp(0.0, -zs)))
                zu = Zy[idx[:t]] @ u1
                sampled_u = float(np.mean(np.logaddexp(0.0, -zu)))
                lhs = float(np.sum((iterates[t] - u) ** 2)) / (2 * eta * t) + sampled
                rhs = sampled_u + float(np.sum(u ** 2)) / (2 * eta * t)
                assert lhs <= rhs + 1e-9


def _reference_sgd(ds, eta, steps, rng):
    """Step-by-step SGD loop that evaluates every metric at every step;
    the oracle for run_sgd's per-block evaluation.  Returns the series, the
    iterates, the final iterate and the drawn sample indices."""
    Zy = ds.signed()
    n, T = ds.n, steps
    w = np.zeros(ds.d)
    idx = rng.integers(0, n, size=T)
    rec = {k: np.empty(T + 1) for k in ("loss", "grad_norm", "param_norm",
                                        "G", "F", "zero_one")}
    iterates, guard = np.empty((T + 1, ds.d)), StepwiseGuard()
    with np.errstate(over="ignore", divide="ignore"):
        for t in range(T + 1):
            z = Zy @ w
            lval = float(np.mean(np.logaddexp(0.0, -z)))
            guard.check(t, lval)
            expz = np.exp(z)
            svec = 1.0 / (1.0 + expz)
            rec["loss"][t] = lval
            rec["grad_norm"][t] = float(np.linalg.norm(Zy.T @ svec / n))
            rec["param_norm"][t] = float(np.linalg.norm(w))
            rec["G"][t] = float(np.mean(svec))
            rec["F"][t] = float(np.mean(1.0 / expz))
            rec["zero_one"][t] = float(np.mean(z <= 0.0))
            iterates[t] = w
            if t < T:
                i = int(idx[t])
                zi = float(Zy[i] @ w)
                if zi > 700.0:
                    coef = 0.0
                elif zi < -700.0:
                    coef = -1.0
                else:
                    coef = -1.0 / (1.0 + math.exp(zi))
                w = w - (eta * coef) * Zy[i]
    return rec, iterates, w, idx


SGD_SETS = {"toy": TOY, "normalized": NTOY,
            "synthetic": data.synthetic_separable(300, 20, 0.1, Rng(0)),
            # d = 50 > n/20: the block's margins are gemvs of 50 terms a row
            "synthetic-d50": data.synthetic_separable(200, 50, 0.1, Rng(0))}
BLOCK = descent._BLOCK_STEPS


class TestSgdMatchesStepwiseReference:
    """run_sgd evaluates its metrics per block; every recorded number must
    equal the step-by-step loop's bit for bit."""

    @staticmethod
    def _assert_bit_identical(ds, eta, steps):
        rec, _, w_final, _ = _reference_sgd(ds, eta, steps, Rng(steps))
        tr = descent.run_sgd(ds, eta, steps, Rng(steps))
        for key, ref in rec.items():
            assert np.array_equal(getattr(tr, key), ref), key
        assert np.array_equal(tr.dist_init, rec["param_norm"])
        assert np.array_equal(tr.w_final, w_final)

    @pytest.mark.parametrize("steps", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 5])
    @pytest.mark.parametrize("eta", [1.0, 100.0])
    @pytest.mark.parametrize("name", sorted(SGD_SETS))
    def test_bit_identical(self, name, eta, steps):
        self._assert_bit_identical(SGD_SETS[name], eta, steps)

    @pytest.mark.parametrize("eta", [1.0, 100.0])
    @pytest.mark.parametrize("name", ["synthetic", "synthetic-d50"])
    def test_one_row_final_block(self, name, eta):
        # T a multiple of the set's block: the T+1 recorded steps leave one
        # row to the last block, which the linear maps take by 2-D products
        ds = SGD_SETS[name]
        block = descent._block_len(max(ds.n, ds.d))
        assert block < BLOCK
        self._assert_bit_identical(ds, eta, 2 * block)

    def test_guard_non_finite(self):
        ds = data.Dataset(np.array([[10.0], [10.0]]), np.array([1.0, -1.0]),
                          name="pair")
        got = divergence(descent.run_sgd, ds, 1e308, 100, Rng(0))
        assert got == (1, "non-finite loss at step 1")
        assert got == divergence(_reference_sgd, ds, 1e308, 100, Rng(0))

    @pytest.mark.parametrize("seed", [0, 2])
    def test_guard_sustained(self, seed):
        ds = data.Dataset(np.array([[1.0], [0.3]]), np.array([1.0, -1.0]),
                          name="conflict")
        got = divergence(descent.run_sgd, ds, 1e6, 1000, Rng(seed))
        assert got == (50, "loss exceeded 1000 * L(w_0) for 50 consecutive steps (step 50)")
        assert got == divergence(_reference_sgd, ds, 1e6, 1000, Rng(seed))


def _within_an_ulp_of_the_norm(r, w):
    """Whether r is within one ulp of the exact Euclidean norm of w."""
    sq, ulp = sum(Fraction(x) ** 2 for x in w.tolist()), Fraction(math.ulp(r))
    return max(Fraction(r) - ulp, 0) ** 2 <= sq <= (Fraction(r) + ulp) ** 2


@pytest.mark.parametrize("eta", [1e155, 1e160])
def test_norms_recorded_where_their_squares_overflow(eta):
    # past about 1.3e154 an iterate's w.dot(w) overflows, and its norm
    # taken as sqrt(w.dot(w)) is inf
    gd = _run_gd(TOY, LOG, eta, 20, store_iterates=True)
    sgd = descent.run_sgd(TOY, eta, 20, Rng(0))
    _, sgd_iterates, _, _ = _reference_sgd(TOY, eta, 20, Rng(0))
    assert gd.param_norm.max() > 1e154 and sgd.param_norm.max() > 1e154
    for tr, iterates in ((gd, gd.iterates), (sgd, sgd_iterates)):
        assert all(_within_an_ulp_of_the_norm(r, w)
                   for r, w in zip(tr.param_norm.tolist(), iterates))


GD_SETS = {"toy": TOY, "normalized": NTOY,
           "synthetic": data.synthetic_separable(1000, 50, 0.1, Rng(0))}
GD_LOSSES = [LOG, losses.flattened_exponential(1.5), losses.flattened_polynomial(2.0)]
# around one and two blocks of the set's block length B
GD_STEPS = [(name, T) for name, ds in sorted(GD_SETS.items())
            for B in [descent._block_len(ds.n)]
            for T in sorted({1, B - 1, B, B + 1, 2 * B + 5})]


class TestGdMatchesStepwiseReference:
    """gd_engine evaluates its series per block; every recorded number,
    w_final and the iterates must equal the step-by-step loop's bit for
    bit."""

    @pytest.mark.parametrize("every", [1, 7, 10])
    @pytest.mark.parametrize("loss", GD_LOSSES, ids=lambda spec: spec.kind)
    @pytest.mark.parametrize("name,steps", GD_STEPS)
    def test_bit_identical(self, name, steps, loss, every):
        cfg = dict(loss=loss, eta=8.0, steps=steps, record_every=every, store_iterates=True)
        ref = _stepwise(GD_SETS[name], **cfg)
        tr = _run_gd(GD_SETS[name], **cfg)
        for key in ("steps", "loss", "grad_norm", "param_norm", "dist_init", "G", "F",
                    "w_final", "iterates"):
            assert np.array_equal(getattr(tr, key), getattr(ref, key)), key
        assert tr.steps.dtype == ref.steps.dtype

    def test_block_buffers_bounded(self):
        # at most 1024 steps and 2**15 floats (or one step's) a block
        for width in (1, 4, 33, 1000, 2 ** 15, 10 ** 6):
            B = descent._block_len(width)
            assert 1 <= B <= 1024 and B * width <= max(2 ** 15, width)
        assert descent._block_len(1000) == 32


# (eta, start coordinate) of runs that differ in eta and start only
BATCH_POOL = [(1.0, 0.0), (8.0, 0.0), (32.0, 0.0), (2.0, 0.5), (100.0, -0.25)]
BATCH_SIZES = (1, 2, 3, 5)
SERIES = ("steps", "loss", "grad_norm", "param_norm", "dist_init", "G", "F",
          "w_final", "iterates")


def _batch(ds, loss, every, T, ks):
    """The runs of the pool entries ks, as one batch from their starts."""
    return _gd_from([np.full(ds.d, BATCH_POOL[k][1]) for k in ks], ds, loss,
                    [BATCH_POOL[k][0] for k in ks], T, every, store_iterates=True)


def _assert_same_run(got, alone):
    if isinstance(alone, descent.DivergenceError):
        assert (got.step, str(got)) == (alone.step, str(alone))
        return
    for key in SERIES:
        assert np.array_equal(getattr(got, key), getattr(alone, key)), key
    assert got.steps.dtype == alone.steps.dtype and got.eta == alone.eta


# at d = 1024 a batch buffers fewer recorded rows than its block has steps
BATCH_SETS = dict(GD_SETS, wide=data.synthetic_separable(4, 1024, 0.1, Rng(1)))


class TestGdBatchMatchesAlone:
    """A run inside a batch records every number bit for bit as it does
    alone, whatever the batch size and its place in the batch."""

    @pytest.mark.parametrize("every", [1, 7])
    @pytest.mark.parametrize("loss", GD_LOSSES, ids=lambda spec: spec.kind)
    @pytest.mark.parametrize("name", sorted(BATCH_SETS))
    def test_bit_identical(self, name, loss, every, monkeypatch):
        # toy blocks end after 64 steps instead of 1024, to keep the test
        # short; the float cap, which sets the blocks of n = 1000, is the
        # real one, and TestGdMatchesStepwiseReference runs the real step cap
        monkeypatch.setattr(descent, "_BLOCK_STEPS", 64)
        ds, alone = BATCH_SETS[name], {}
        for K in BATCH_SIZES:
            # around one and two blocks of the batch's block length B
            B = descent._block_len(K * ds.n)
            for T in (B - 1, B, B + 1, 2 * B + 5):
                for k in range(K):
                    if (T, k) not in alone:
                        [alone[T, k]] = _batch(ds, loss, every, T, [k])
                for shift in range(K if K > 1 else 0):  # each config at each place
                    order = [(shift + q) % K for q in range(K)]
                    got = _batch(ds, loss, every, T, order)
                    for k, traj in zip(order, got):
                        _assert_same_run(traj, alone[T, k])

    def test_no_stepsize_no_run(self):
        assert descent.run_gd_batch(TOY, LOG, [], 10) == []


CONFLICT = data.Dataset(np.array([[1.0], [0.3]]), np.array([1.0, -1.0]), name="conflict")
def test_trajectories_share_read_only_arrays():
    # the runs of one batch share one steps array, a linear run's and
    # run_sgd's dist_init is its param_norm (w_0 = 0), and no engine's
    # Trajectory can be written
    batch = descent.run_gd_batch(NTOY, LOG, [eta for eta, _ in BATCH_POOL[:3]], 100, 7,
                                 store_iterates=True)
    assert all(np.shares_memory(tr.steps, batch[0].steps) for tr in batch[1:])
    assert all(tr.dist_init is tr.param_norm for tr in batch)
    sgd = descent.run_sgd(NTOY, 4.0, 100, Rng(0))
    assert np.shares_memory(sgd.dist_init, sgd.param_norm)
    net = ntk.init_net(8, NTOY.d, Rng(0))
    for tr in batch + [sgd, ntk.run_gd_ntk(net, NTOY, LOG, 1.0, 100)]:
        arrays = [v for v in vars(tr).values() if isinstance(v, np.ndarray)]
        assert len(arrays) >= 8 and not any(a.flags.writeable for a in arrays)


FLAT_POLY2 = losses.flattened_polynomial(2.0)
# the minimizer of the flattened polynomial loss (a = 2) on CONFLICT, where
# (1 + w)^3 = 1/0.3: GD at eta 3e5 started beside it stays quiet for four
# steps, then is thrown out and stays above the bar until the guard fires
CONFLICT_MIN = (10.0 / 3.0) ** (1.0 / 3.0) - 1.0
# (dataset, run settings, start or None for 0, step) of runs the guard rejects
DIVERGENCES = {
    "sustained": (CONFLICT, dict(eta=1e6, loss=FLAT_POLY2), None, 74),
    "sustained-after-quiet": (CONFLICT, dict(eta=3e5, loss=FLAT_POLY2),
                              np.array([CONFLICT_MIN + 1e-15]), 53),
    "non-finite": (data.Dataset(np.array([[10.0]]), np.array([1.0]), name="one"),
                   dict(eta=1.0, loss=losses.flattened_exponential(1.0)),
                   np.array([-1e308]), 0),
    # the first step overflows the iterate
    "non-finite-later": (CONFLICT, dict(eta=1e308, loss=losses.flattened_exponential(10.0)),
                         None, 1),
}


@pytest.fixture
def screens(monkeypatch):
    """The outcomes, in order, of every screen the GD guards take."""
    seen, quiet = [], descent._DivergenceGuard.quiet

    def spy(guard, lmax, n):
        seen.append(quiet(guard, lmax, n))
        return seen[-1]

    monkeypatch.setattr(descent._DivergenceGuard, "quiet", spy)
    return seen


class TestGuardUnderAnyRecording:
    """A run screens each block of its losses and walks the losses it
    evaluated in a block the screen does not clear: a dense run every
    step's, a sparse run its recorded steps'.  Its guard must stop where the
    step-by-step loop, which evaluates every step, stops, with the same
    message, and leave every other run as the loop does."""

    @pytest.mark.parametrize("blocks", [4, BLOCK])
    @pytest.mark.parametrize("every", [1, 7, 10])
    @pytest.mark.parametrize("case", sorted(DIVERGENCES))
    def test_divergence(self, case, every, blocks, monkeypatch, screens):
        monkeypatch.setattr(descent, "_BLOCK_STEPS", blocks)
        ds, fields, start, step = DIVERGENCES[case]
        cfg = dict(steps=3000, record_every=every, **fields)
        got = divergence(_run_gd, ds, **cfg, start=start)
        ref = outcome(_stepwise, ds, **cfg, start=start)
        assert got == (ref.step, str(ref)) and got[0] == step
        if case == "sustained-after-quiet" and blocks == 4:
            assert screens[0]  # the first block, steps 0 to 3, passed the screen

    @pytest.mark.parametrize("every", [7, 10])
    @pytest.mark.parametrize("side", ["below", "above"])
    def test_unrecorded_peak_at_the_bar(self, side, every, monkeypatch, screens):
        # on the toy set this run's loss peaks at step 9, recorded by
        # neither cadence; the bar is put just above or just below the peak
        cfg = dict(loss=FLAT_POLY2, eta=16.0, steps=300, record_every=every)
        dense = _stepwise(TOY, **dict(cfg, record_every=1)).loss
        peak = int(np.argmax(dense))
        assert peak == 9
        factor = dense[peak] / dense[0] * (1.0 + 1e-9 if side == "below" else 1.0 - 1e-9)
        monkeypatch.setattr(descent, "_GUARD_FACTOR", factor)
        monkeypatch.setattr(descent, "_GUARD_PATIENCE", 1)
        monkeypatch.setattr(descent, "_BLOCK_STEPS", 4)
        ref = outcome(_stepwise, TOY, **cfg)
        if side == "below":
            _assert_same_run(_run_gd(TOY, **cfg), ref)
        else:
            assert divergence(_run_gd, TOY, **cfg) == (peak, str(ref))
        # of the blocks of steps 0-3, 4-7 and 8-11, the second alone
        # passed the screen
        assert screens[:3] == [False, True, False]

    @pytest.mark.parametrize("every", [1, 7])
    def test_quiet_block_resets_the_count(self, every, monkeypatch, screens):
        # with the bar at 2 * L(w_0), this toy run is over it at steps 1, 4
        # and 5 alone, which a 7-step cadence does not record; the block of
        # steps 2 and 3 between passes the screen and must end the first
        # streak, whether the run records every step or every 7th
        monkeypatch.setattr(descent, "_GUARD_FACTOR", 2.0)
        monkeypatch.setattr(descent, "_GUARD_PATIENCE", 3)
        monkeypatch.setattr(descent, "_BLOCK_STEPS", 2)
        cfg = dict(loss=FLAT_POLY2, eta=8.0, steps=300, record_every=every)
        _assert_same_run(_run_gd(TOY, **cfg), outcome(_stepwise, TOY, **cfg))
        assert screens[:3] == [False, True, False]

    @pytest.mark.parametrize("place", [0, 1, 2])
    @pytest.mark.parametrize("every", [1, 7])
    @pytest.mark.parametrize("case", sorted(DIVERGENCES))
    def test_batch_with_a_diverging_run(self, case, every, place):
        # 2100 steps are three blocks: the others go on for two blocks after
        ds, fields, start, step = DIVERGENCES[case]
        loss, etas = fields["loss"], [0.5, 2.0]
        etas.insert(place, fields["eta"])
        starts = [np.array([0.1])] * 2
        starts.insert(place, np.zeros(ds.d) if start is None else start)
        got = _gd_from(starts, ds, loss, etas, 2100, every, store_iterates=True)
        assert [isinstance(r, descent.DivergenceError) for r in got] == \
            [k == place for k in range(3)]
        assert got[place].step == step
        for traj, eta, w0 in zip(got, etas, starts):
            cfg = dict(loss=loss, eta=eta, steps=2100, record_every=every, store_iterates=True)
            _assert_same_run(traj, outcome(_stepwise, ds, **cfg, start=w0))

    def test_loss_evaluated_at_recorded_steps(self, monkeypatch):
        # the synthetic-set run of the benchmark: its 10001 steps are 313
        # blocks of 32, and 1001 of them are recorded
        ds, counted, eval_loss = GD_SETS["synthetic"], [], losses.eval_loss

        def counting(loss, z):
            counted.append(np.size(z))
            return eval_loss(loss, z)

        monkeypatch.setattr(losses, "eval_loss", counting)
        tr = _run_gd(ds, LOG, 16.0, 10_000, record_every=10)
        blocks = math.ceil(10_001 / descent._block_len(ds.n))
        # the recorded steps' margins and one smallest margin a block
        assert sum(counted) <= len(tr.steps) * ds.n + blocks < 10_001 * ds.n

    @pytest.mark.parametrize("name,etas,steps,every", [
        ("synthetic", [16.0], 10_000, 10),   # the benchmark's sparse run
        ("normalized", [2.0, 8.0, 32.0], 2000, 1)])
    def test_derivative_evaluated_once_a_step(self, name, etas, steps, every, monkeypatch):
        # l'(z) of each run's n margins at steps 0..T, for the step and G
        ds, counted, deriv = GD_SETS[name], [], losses.deriv

        def counting(loss, z):
            counted.append(np.size(z))
            return deriv(loss, z)

        monkeypatch.setattr(losses, "deriv", counting)
        descent.run_gd_batch(ds, LOG, etas, steps, every)
        assert sum(counted) == len(etas) * ds.n * (steps + 1)


GUARD_LOSSES = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 500.0, 1000.0, 1000.5, 2000.0, 1e305, 1e308, math.inf,
                     math.nan]),
    st.floats(min_value=0.0, allow_infinity=True))


def _guarded(feed):
    """(step, message) of the DivergenceError that ``feed()`` raises, or None."""
    try:
        feed()
    except descent.DivergenceError as exc:
        return exc.step, str(exc)
    return None


class TestGuardMatchesStepwiseOracle:
    """The guard fed blocks of losses, each block either walked by check or
    cleared by quiet, stops where, and as, the oracle fed one loss at a
    time stops, or neither stops."""

    @settings(max_examples=300, deadline=None)
    @given(runs=st.lists(st.tuples(GUARD_LOSSES, st.integers(1, 60)), min_size=1, max_size=10),
           cuts=st.lists(st.integers(1, 600), max_size=10),
           screen=st.lists(st.booleans(), min_size=1, max_size=10), n=st.integers(1, 10 ** 6))
    # a streak over the bar that crosses a block boundary
    @example(runs=[(1.0, 1), (2000.0, 60)], cuts=[30], screen=[True], n=4)
    # NaN as a block's first loss
    @example(runs=[(1.0, 3), (math.nan, 1), (1.0, 2)], cuts=[3], screen=[True], n=4)
    # a quiet block between two stretches over the bar
    @example(runs=[(1.0, 1), (2000.0, 30), (0.5, 5), (2000.0, 30)], cuts=[31, 36],
             screen=[True], n=4)
    def test_blocks_match_the_oracle(self, runs, cuts, screen, n):
        lvals = np.repeat([v for v, _ in runs], [k for _, k in runs])
        edges = sorted({0, len(lvals), *(c for c in cuts if c < len(lvals))})
        guard, oracle = descent._DivergenceGuard(), StepwiseGuard()

        def blocks():
            for i, (start, stop) in enumerate(zip(edges, edges[1:])):
                block = lvals[start:stop]
                # quiet stands in for check only on a block that lmax bounds
                if screen[i % len(screen)] and not np.isnan(block).any():
                    if start == 0:  # as gd_engine does, step 0 sets L(w_0) first
                        guard.check(0, block[:1])
                    if guard.quiet(float(block.max()), n):
                        continue
                guard.check(start, block)

        want = _guarded(lambda: [oracle.check(t, lval) for t, lval in enumerate(lvals.tolist())])
        assert _guarded(blocks) == want


@pytest.fixture(scope="module")
def runs():
    return {eta: _run_gd(NTOY, LOG, eta, 2000, store_iterates=True)
            for eta in (2.0, 8.0, 32.0)}


class TestComparatorChecks:

    def test_split_with_scaled_comparator(self, runs):
        tr = runs[8.0]
        t = 500
        u1 = (math.log(NCERT.gamma ** 2 * 8.0 * t) / NCERT.gamma) * NCERT.w_star
        assert split_optimization_check(tr, NTOY, NCERT, u1, t) <= 1e-9

    def test_split_trivial_at_t1(self, runs):
        # u1 = w0 = 0 reduces to L(w_0) <= L(w_0) + nonnegative
        tr = runs[2.0]
        assert split_optimization_check(tr, NTOY, NCERT, np.zeros(2), 1) <= 0.0

    def test_perceptron_slack_nonnegative(self, runs):
        for tr in runs.values():
            assert perceptron_potential_check(tr, NCERT) >= -1e-10

    def test_perceptron_negative_control(self, runs):
        flipped = data.MarginCertificate(gamma=NCERT.gamma,
                                         w_star=-NCERT.w_star, upper=NCERT.upper)
        assert perceptron_potential_check(runs[8.0], flipped) < 0.0

    def test_perceptron_zero_gradient_fixed_point(self):
        # at a perfect fixed point the advance and the floor both vanish
        one = data.Dataset(np.array([[0.0, 1.0]]), np.array([1.0]), name="far")
        tr = _run_gd(one, LOG, 1.0, 3, store_iterates=True, start=np.array([0.0, 800.0]))
        cert = data.MarginCertificate(gamma=1.0, w_star=np.array([0.0, 1.0]),
                                      upper=1.0)
        assert perceptron_potential_check(tr, cert) == pytest.approx(0.0, abs=1e-12)

    def test_needs_iterates(self):
        tr = descent.run_gd(NTOY, LOG, 2.0, 10)
        with pytest.raises(ValueError):
            split_optimization_check(tr, NTOY, NCERT, np.zeros(2), 5)


class TestPathwiseBounds:
    """Closed-form inequalities hold at every applicable recorded step."""

    @pytest.mark.parametrize("eta", [2.0, 8.0, 32.0])
    def test_stable_phase_last_iterate_bound(self, eta):
        # from the first criterion crossing s, the last-iterate loss obeys
        # (2 F(w_s) + ln^2(x)) / x with x = gamma^2 eta (t - s)
        tr = descent.run_gd(NTOY, LOG, eta, 5000)
        gamma = NCERT.gamma
        ph = descent.detect_phase(tr, NTOY.n, gamma)
        s = ph.s_theory
        assert s is not None
        F_s = tr.F[s]
        for t in range(s + 1, 5001):
            if gamma * gamma * eta * (t - s) < 1.0:
                continue
            assert tr.loss[t] <= bounds.stable_bound(gamma, eta, t, s, F_s) * (1 + 1e-9)


class TestCsvWriter:
    def test_columns_and_roundtrip_floats(self, tmp_path):
        tr = descent.run_gd(NTOY, LOG, 2.0, 20)
        p = tmp_path / "t.csv"
        descent.write_trajectory_csv(tr, p)
        lines = p.read_text().splitlines()
        assert lines[0] == "step,loss,grad_norm,param_norm,dist_init,G,F"
        first = lines[1].split(",")
        assert int(first[0]) == 0
        assert float(first[1]) == tr.loss[0]  # repr round-trips exactly

    def test_shared_column_as_a_copy(self, tmp_path):
        # a dist_init that is param_norm's array is formatted once, with the
        # bytes of a distinct equal copy; 3000 steps span three blocks
        tr = descent.run_gd(NTOY, LOG, 8.0, 3000)
        assert tr.dist_init is tr.param_norm
        copy = dataclasses.replace(tr, dist_init=tr.param_norm.copy())
        descent.write_trajectory_csv(tr, tmp_path / "shared.csv")
        descent.write_trajectory_csv(copy, tmp_path / "copy.csv")
        assert (tmp_path / "shared.csv").read_bytes() == (tmp_path / "copy.csv").read_bytes()

    def test_sgd_includes_error_column(self, tmp_path):
        tr = descent.run_sgd(NTOY, 1.0, 10, Rng(0))
        p = tmp_path / "s.csv"
        descent.write_trajectory_csv(tr, p)
        assert p.read_text().splitlines()[0].endswith(",zero_one")


# values whose repr is hard: NaN, infinities, signed zero, subnormals, and
# both sides of repr's switch to exponent notation (at 1e16 and below 1e-4)
CSV_SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2e-308,
               1e16, math.nextafter(1e16, 0.0), math.nextafter(1e16, math.inf),
               1e-4, math.nextafter(1e-4, 0.0), 1e-5, 9.999999999999999e15, 0.1, 1 / 3]


def _csv_trajectory(rows: int, pool: list, seed: int, zero_one: bool) -> descent.Trajectory:
    """A Trajectory of ``rows`` recorded steps, every series drawn from pool."""
    rng = np.random.default_rng(seed)

    def col():
        return np.array(pool)[rng.integers(0, len(pool), rows)]

    return descent.Trajectory(
        steps=np.arange(rows, dtype=np.int64) * 10, loss=col(), grad_norm=col(),
        param_norm=col(), dist_init=col(), G=col(), F=col(), eta=1.0, loss_spec=LOG,
        record_every=10, w_final=np.zeros(2), zero_one=col() if zero_one else None)


class TestCsvWriterMatchesRowOracle:
    """The block writer's bytes are those of the row-by-row reference."""

    @settings(max_examples=60, deadline=None)
    @given(rows=st.one_of(st.sampled_from([1, 1023, 1024, 1025, 2049]),
                          st.integers(1, 3000)),
           pool=st.lists(st.one_of(st.floats(), st.sampled_from(CSV_SPECIAL)),
                         min_size=1, max_size=12),
           seed=st.integers(0, 2 ** 32 - 1), zero_one=st.booleans())
    def test_same_bytes(self, tmp_path_factory, rows, pool, seed, zero_one):
        tr = _csv_trajectory(rows, pool, seed, zero_one)
        tmp = tmp_path_factory.mktemp("csv")
        descent.write_trajectory_csv(tr, tmp / "block.csv")
        write_trajectory_csv_rows(tr, tmp / "rows.csv")
        assert (tmp / "block.csv").read_bytes() == (tmp / "rows.csv").read_bytes()

    @pytest.mark.parametrize("zero_one", [False, True])
    def test_run_outputs(self, tmp_path, zero_one):
        tr = (descent.run_sgd(NTOY, 8.0, 3000, Rng(2)) if zero_one else
              descent.run_gd(NTOY, LOG, 8.0, 3000))
        descent.write_trajectory_csv(tr, tmp_path / "block.csv")
        write_trajectory_csv_rows(tr, tmp_path / "rows.csv")
        assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_csv_writer_memory_does_not_grow_with_rows(tmp_path):
    # 200,001 rows of seven series: the row-by-row writer held every column
    # as Python numbers (about 44 MB); the block writer holds one block's text
    tr = _csv_trajectory(200_001, [0.1, 1 / 3, 2.5e-7, 1e20], 0, False)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        descent.write_trajectory_csv(tr, tmp_path / "t.csv")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20, peak
