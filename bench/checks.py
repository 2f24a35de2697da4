"""Checks of every output a round writes.

Trajectories are replayed by the benchmark's own numpy loops (linear GD,
online SGD, the lazy two-layer net) and compared row by row; the
remaining outputs are checked against closed-form values or against
properties the method must have.  The program contributes only the
dataset it builds from its own config (checked for its construction
properties) and, for the lazy net, the initial weights of ``init_net``.
"""

from __future__ import annotations

import hashlib
import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

REL = 1e-9        # relative tolerance of a replayed row
INEQ = 1e-12      # relative slack of a per-row inequality
CERT_TOL = 1e-9   # a certificate's direction must attain its margin to this

# Exact max margins of the built-in toy set: its signed samples are
# (1, 0.2) and (-2, 0.2), whose hull's nearest point to 0 is (0, 0.2).
TOY_XS = np.array([[1.0, 0.2], [-2.0, 0.2], [-1.0, -0.2], [2.0, -0.2]])
TOY_YS = np.array([1.0, 1.0, -1.0, -1.0])
TOY_MARGIN = 0.2
TOY_MAX_NORM = math.sqrt(4.04)


class Failure(Exception):
    pass


class Checker:
    """Runs named checks; ``ran`` counts each check that was made."""

    def __init__(self):
        self.ran: dict[str, int] = {}
        self.errors: list[str] = []

    def expect(self, ok, name: str, detail: str) -> None:
        self.ran[name] = self.ran.get(name, 0) + 1
        if not ok:
            self.errors.append(f"{name}: {detail}")


# -- losses, written out apart from the program --------------------------


def loss_fns(spec: dict):
    """(l, l') of a config loss descriptor."""
    if spec["kind"] == "logistic":
        return (lambda z: np.logaddexp(0.0, -z),
                lambda z: -np.exp(-np.logaddexp(0.0, z)))
    if spec["kind"] == "flat_poly":
        a = float(spec["a"])
        return (lambda z: np.where(z > 0, (1.0 + np.maximum(z, 0.0)) ** -a, 1.0 - a * z),
                lambda z: np.where(z > 0, -a * (1.0 + np.maximum(z, 0.0)) ** -(a + 1.0), -a))
    raise Failure(f"no reference loss for {spec}")


# -- reference loops -----------------------------------------------------


def ref_gd(Z: np.ndarray, etas, T: int, every: int, spec: dict) -> list[dict]:
    """Full-batch GD from w=0 on signed samples Z, all stepsizes at once."""
    ell, dell = loss_fns(spec)
    n, d = Z.shape
    eta = np.asarray(etas, dtype=np.float64)[:, None]
    W = np.zeros((len(etas), d))
    rows = {k: [] for k in ("step", "loss", "grad_norm", "param_norm", "dist_init", "G", "F")}
    for t in range(T + 1):
        M = W @ Z.T
        D = dell(M)
        grad = D @ Z / n
        if t % every == 0 or t == T:
            pn = np.linalg.norm(W, axis=1)
            rows["step"].append(np.full(len(etas), t))
            rows["loss"].append(ell(M).mean(axis=1))
            rows["grad_norm"].append(np.linalg.norm(grad, axis=1))
            rows["param_norm"].append(pn)
            rows["dist_init"].append(pn)
            rows["G"].append(np.abs(D).mean(axis=1))
            with np.errstate(over="ignore"):
                rows["F"].append(np.exp(-M).mean(axis=1))
        W = W - eta * grad
    return [{k: np.array(v)[:, i] for k, v in rows.items()} for i in range(len(etas))]


def ref_sgd(Z: np.ndarray, runs, T: int) -> list[dict]:
    """One-sample logistic SGD from w=0 for each (seed, eta), all at once.
    The index stream of a seed is numpy's PCG64 ``integers(0, n, T)``."""
    n, d = Z.shape
    idx = np.stack([np.random.Generator(np.random.PCG64(s)).integers(0, n, size=T)
                    for s, _ in runs])
    eta = np.array([e for _, e in runs])
    K = len(runs)
    W = np.zeros((K, d))
    cols = ("loss", "grad_norm", "param_norm", "dist_init", "G", "F", "zero_one")
    rec = {k: np.empty((T + 1, K)) for k in cols}
    ar = np.arange(K)
    with np.errstate(over="ignore", divide="ignore"):
        for t in range(T + 1):
            M = W @ Z.T
            S = 1.0 / (1.0 + np.exp(M))
            pn = np.linalg.norm(W, axis=1)
            rec["loss"][t] = np.logaddexp(0.0, -M).mean(axis=1)
            rec["grad_norm"][t] = np.linalg.norm(S @ Z / n, axis=1)
            rec["param_norm"][t] = pn
            rec["dist_init"][t] = pn
            rec["G"][t] = S.mean(axis=1)
            rec["F"][t] = np.exp(-M).mean(axis=1)
            rec["zero_one"][t] = (M <= 0.0).mean(axis=1)
            if t < T:
                zi = Z[idx[:, t]]
                m = np.einsum("kd,kd->k", W, zi)
                coef = np.where(m > 700.0, 0.0,
                                np.where(m < -700.0, -1.0, -1.0 / (1.0 + np.exp(m))))
                W = W - (eta * coef)[:, None] * zi
    steps = np.arange(T + 1)
    return [{"step": steps, **{k: rec[k][:, i] for k in cols}} for i in ar]


def ref_ntk(xs, ys, a, W0, spec: dict, eta: float, T: int) -> dict:
    """Full-batch GD on the first layer of f(x) = a . relu(W x) / sqrt(m)."""
    ell, dell = loss_fns(spec)
    n = xs.shape[0]
    c = a / math.sqrt(a.shape[0])
    W = W0.copy()
    cols = ("loss", "grad_norm", "param_norm", "dist_init", "G", "F")
    rec = {k: np.empty(T + 1) for k in cols}
    for t in range(T + 1):
        pre = xs @ W.T
        z = ys * (np.maximum(pre, 0.0) @ c)
        D = dell(z)
        grad = c[:, None] * (((pre > 0.0) * (D * ys / n)[:, None]).T @ xs)
        rec["loss"][t] = ell(z).mean()
        rec["grad_norm"][t] = np.linalg.norm(grad)
        rec["param_norm"][t] = np.linalg.norm(W)
        rec["dist_init"][t] = np.linalg.norm(W - W0)
        rec["G"][t] = np.abs(D).mean()
        with np.errstate(over="ignore"):
            rec["F"][t] = np.exp(-z).mean()
        W = W - eta * grad
    return {"step": np.arange(T + 1), **rec}


# -- file helpers --------------------------------------------------------


def read_csv(path: Path) -> dict:
    with path.open(encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        body = np.loadtxt(fh, delimiter=",", ndmin=2)
    return {k: body[:, i] for i, k in enumerate(header)}


def read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def tree_digest(root: Path) -> dict:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def eta_tag(eta: float) -> str:
    return format(eta, "g").replace(".", "p").replace("-", "m")


def close(a, b, rel=REL) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= rel * np.abs(b)))


# -- per-output checks ---------------------------------------------------


def check_rows(ck: Checker, label: str, got: dict, ref: dict) -> None:
    ck.expect(np.array_equal(got["step"], ref["step"]), "rows.steps",
              f"{label}: recorded steps differ from the replay")
    if not np.array_equal(got["step"], ref["step"]):
        return
    for col, want in ref.items():
        if col == "step":
            continue
        ok = close(got[col], want)
        worst = "" if ok else f" (worst rel {np.max(np.abs(got[col] - want) / np.maximum(np.abs(want), 1e-300)):.2e})"
        ck.expect(ok, f"rows.{col}", f"{label}: column {col} differs from the replay{worst}")


def check_logistic_rows(ck: Checker, label: str, r: dict, gamma: float, max_norm: float) -> None:
    """Inequalities every recorded row of a linear logistic run from w=0 obeys."""
    up = 1.0 + INEQ
    ck.expect(np.all(r["G"] <= r["loss"] * up), "ineq.G<=loss", label)
    ck.expect(np.all(r["loss"] <= r["F"] * up), "ineq.loss<=F", label)
    ck.expect(np.all(gamma * r["G"] <= r["grad_norm"] * up), "ineq.gammaG<=grad", label)
    ck.expect(np.all(r["grad_norm"] <= max_norm * r["G"] * up), "ineq.grad<=G", label)
    ck.expect(np.array_equal(r["dist_init"], r["param_norm"]), "ineq.dist==norm", label)


def check_svg(ck: Checker, path: Path) -> None:
    try:
        ok = ET.parse(path).getroot().tag.endswith("svg")
    except (ET.ParseError, OSError) as exc:
        ok = False
        path = f"{path}: {exc}"
    ck.expect(ok, "svg.parses", str(path))


def tau_logistic(gamma: float, eta: float, n: int) -> float:
    r = (eta + n) / eta
    return 60.0 / gamma ** 2 * max(eta, float(n), math.e, r * math.log(r))


def dataset_facts(ck: Checker, cfg_ds: dict, ds) -> tuple[float, float]:
    """Check the dataset the program built; returns (a lower bound on its
    max margin, its largest sample norm)."""
    kind = cfg_ds["kind"]
    if kind == "toy":
        scale = TOY_MAX_NORM if cfg_ds.get("normalize") == "max" else 1.0
        ck.expect(close(ds.xs, TOY_XS / scale, 1e-15) and np.array_equal(ds.ys, TOY_YS),
                  "data.toy", "toy set differs from its definition")
        return TOY_MARGIN / scale, TOY_MAX_NORM / scale
    if kind == "synthetic":
        norms = np.linalg.norm(ds.xs, axis=1)
        gamma = float(cfg_ds["gamma"])
        ck.expect(ds.xs.shape == (cfg_ds["n"], cfg_ds["d"]), "data.shape", str(ds.xs.shape))
        ck.expect(np.all(np.abs(norms - 1.0) <= 1e-12), "data.unit_norm",
                  f"sample norms span [{norms.min()}, {norms.max()}]")
        ck.expect(np.all(ds.ys * ds.xs[:, 0] >= gamma * (1.0 - INEQ)), "data.margin_e1",
                  "a sample violates the construction margin along e_1")
        return gamma, float(norms.max())
    raise Failure(f"no dataset facts for {kind}")


class RoundChecker:
    """Checks the outputs of one round; ``dataset_key`` hashes a dataset
    the way the workload process does."""

    def __init__(self, dataset_key):
        import eoslab.data
        import eoslab.ntk
        from eoslab.numerics import Rng
        self._data, self._ntk, self._rng = eoslab.data, eoslab.ntk, Rng
        self._key = dataset_key
        self.ck = Checker()

    def command(self, out: Path, certs: list[dict], full: bool) -> tuple[int, int]:
        """Check one command's certificates and, if ``full``, its outputs;
        returns (certificates attempted, certificates failed)."""
        cfg = read_json(out / "config.json")
        ds = self._data.dataset_from_json(cfg["dataset"])
        gamma_lb, max_norm = dataset_facts(self.ck, cfg["dataset"], ds)
        if full:
            getattr(self, "check_" + cfg["command"])(cfg, ds, out, gamma_lb, max_norm)
            if cfg.get("svg", True):
                check_svg(self.ck, next(out.glob("*.svg")))
        own = [c for c in certs if c["dataset"] == self._key(ds)]
        self.ck.expect(len(own) == 1, "cert.count",
                       f"{out.name}: {len(own)} certificates of the command's dataset")
        failed = sum(not (c["attained"] >= c["gamma"] - CERT_TOL
                          and c["gamma"] >= gamma_lb - CERT_TOL) for c in own)
        return len(own), failed

    def check_gd(self, cfg, ds, out, gamma_lb, max_norm):
        etas, T, every = cfg["eta"], int(cfg["steps"]), int(cfg["record_every"])
        refs = ref_gd(ds.signed(), etas, T, every, cfg["loss"])
        for eta, ref in zip(etas, refs):
            tag = eta_tag(eta)
            got = read_csv(out / f"gd_eta{tag}.csv")
            check_rows(self.ck, f"gd eta={eta}", got, ref)
            if cfg["loss"]["kind"] == "logistic":
                check_logistic_rows(self.ck, f"gd eta={eta}", got, gamma_lb, max_norm)
            if every != 1:
                continue
            phase = read_json(out / f"gd_eta{tag}_phase.json")
            below = np.nonzero(got["loss"] <= 1.0 / eta)[0]
            tau = tau_logistic(gamma_lb, eta, ds.n)
            self.ck.expect(below.size and phase["s_theory"] == int(below[0]),
                           "phase.s_theory", f"eta={eta}: {phase['s_theory']}")
            self.ck.expect(close(phase["tau_bound"], tau, 1e-9), "phase.tau",
                           f"eta={eta}: {phase['tau_bound']} vs {tau}")
            self.ck.expect(phase["s_theory"] is not None and phase["s_theory"] <= tau,
                           "phase.s<=tau", f"eta={eta}: {phase['s_theory']} > {tau}")
            if cfg.get("check_bounds"):
                text = (out / f"gd_eta{tag}_violations.csv").read_text(encoding="utf-8")
                self.ck.expect(text == "step,bound,observed\n", "bounds.no_violations",
                               f"eta={eta}: {text.count(chr(10)) - 1} violations")

    def check_sgd(self, cfg, ds, out, gamma_lb, max_norm):
        seed, T = int(cfg["seed"]), int(cfg["steps"])
        refs = ref_sgd(ds.signed(), [(seed, eta) for eta in cfg["eta"]], T)
        for eta, ref in zip(cfg["eta"], refs):
            stem = f"sgd_eta{eta_tag(eta)}_seed{seed}"
            got = read_csv(out / f"{stem}.csv")
            check_rows(self.ck, stem, got, ref)
            check_logistic_rows(self.ck, stem, got, gamma_lb, max_norm)
            phase = read_json(out / f"{stem}_phase.json")
            asc = np.nonzero(got["loss"][1:] > got["loss"][:-1])[0]
            self.ck.expect(phase["s_empirical"] == (int(asc[-1]) + 1 if asc.size else 0),
                           "phase.s_empirical", stem)

    def check_accelerate(self, cfg, ds, out, gamma_lb, max_norm):
        T = int(cfg["steps"])
        score = read_json(out / "accelerate.json")
        eta = gamma_lb ** 2 * T / 120.0
        x = gamma_lb ** 4 * T * T
        bound = 480.0 * math.log(x) ** 2 / x
        self.ck.expect(close(score["eta_large"], eta, 1e-12), "accel.eta",
                       f"{score['eta_large']} vs {eta}")
        self.ck.expect(close(score["bound"], bound, 1e-12), "accel.bound_value",
                       f"{score['bound']} vs {bound}")
        self.ck.expect(score["loss_large_eta"] <= bound, "accel.final<=bound",
                       f"{score['loss_large_eta']} > {bound}")
        ratio = score["ratio"]
        self.ck.expect(ratio is not None and ratio < 1.0 and close(
            ratio, score["loss_large_eta"] / score["loss_small_eta_best"], 1e-12),
            "accel.ratio<1", str(ratio))
        # the baseline is the largest dyadic stepsize <= eta/2 whose run never rises
        grid = [2.0 ** k for k in range(int(math.floor(math.log2(eta / 2.0) + 1e-12)), -7, -1)]
        refs = ref_gd(ds.signed(), [score["eta_large"]] + grid[:1], T, 1, {"kind": "logistic"})
        chosen = 0
        while np.any(np.diff(refs[1]["loss"]) > 0.0):
            chosen += 1
            refs[1:] = ref_gd(ds.signed(), grid[chosen:chosen + 1], T, 1, {"kind": "logistic"})
        self.ck.expect(score["eta_small_best"] == grid[chosen], "accel.baseline_eta",
                       f"{score['eta_small_best']} vs {grid[chosen]}")
        for name, ref in (("large", refs[0]), ("baseline", refs[1])):
            got = read_csv(out / f"accelerate_{name}.csv")
            check_rows(self.ck, f"accelerate {name}", got, ref)
            check_logistic_rows(self.ck, f"accelerate {name}", got, gamma_lb, max_norm)
        base = read_csv(out / "accelerate_baseline.csv")["loss"]
        self.ck.expect(not np.any(base[1:] > base[:-1]), "accel.baseline_monotone", "")
        large = read_csv(out / "accelerate_large.csv")["loss"]
        self.ck.expect(large[-1] == score["loss_large_eta"], "accel.final_matches_csv", "")

    def check_ntk(self, cfg, ds, out, gamma_lb, max_norm):
        m, T, eta = int(cfg["width"]), int(cfg["steps"]), float(cfg["eta"])
        net = self._ntk.init_net(m, ds.d, self._rng(int(cfg["seed"])))
        ref = ref_ntk(ds.xs, ds.ys, net.a, net.w0, cfg["loss"], eta, T)
        got = read_csv(out / "ntk.csv")
        check_rows(self.ck, out.name, got, ref)
        diag = read_json(out / "ntk_diagnostics.json")
        self.ck.expect(diag["width"] == m, "ntk.width", str(diag["width"]))
        self.ck.expect(diag["max_dist"] == float(np.max(got["dist_init"])), "ntk.max_dist",
                       f"{diag['max_dist']} vs column max {np.max(got['dist_init'])}")
        self.ck.expect(diag["max_dist"] <= diag["R"], "ntk.lazy",
                       f"max_dist {diag['max_dist']} > R {diag['R']}")


def check_round(workload_commands, round_dir: Path, rec: dict, dataset_key,
                full: bool = True) -> dict:
    """Check every command of one round.  An operation is a command or a
    certificate of a command's dataset; it fails when the command exits
    non-zero or the certificate overstates the margin.  ``errors`` lists
    checks that failed on operations that did not.  Without ``full`` only
    the operations are checked, not the files they wrote."""
    rc = RoundChecker(dataset_key)
    attempted, failures = 0, []
    for (tag, _), code, certs in zip(workload_commands, rec["codes"], rec["certs"]):
        attempted += 1
        if code != 0:
            failures.append(f"{tag}: exit code {code}")
            continue
        try:
            n_cert, n_bad = rc.command(round_dir / tag, certs, full)
        except (OSError, KeyError, ValueError, StopIteration, Failure) as exc:
            rc.ck.errors.append(f"{tag}: {type(exc).__name__}: {exc}")
            continue
        attempted += n_cert
        failures += [f"{tag}: certificate overstates the margin"] * n_bad
    return {"attempted": attempted, "failures": failures,
            "errors": rc.ck.errors, "ran": rc.ck.ran}
