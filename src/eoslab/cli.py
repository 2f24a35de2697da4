"""The ``eos-lab`` command line front end.

Every run command writes its full experiment config as ``config.json``
next to its outputs; re-executing with ``--config <that file>`` rebuilds
the run and reproduces the trajectory CSVs byte for byte.

Exit codes: 0 success, 1 a requested check failed, 2 the divergence guard
fired, 3 invalid configuration or an infeasible request.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path


from . import analysis as A
from . import bounds as B
from . import data as D
from . import descent as G
from . import losses as L
from . import ntk as N
from ._svg import write_line_plot
from .numerics import Rng

__all__ = ["main"]

_NTK_WIDTH_CAP = 4096  # largest width "auto" will actually instantiate

_DATASET_KEYS = {"kind", "gamma", "n", "d", "seed", "path", "normalize"}
_CONFIG_KEYS = {
    "gd": {"command", "dataset", "loss", "eta", "steps", "record_every", "svg",
           "check_bounds"},
    "sgd": {"command", "dataset", "eta", "steps", "seed", "svg"},
    "ntk": {"command", "dataset", "loss", "eta", "steps", "width", "width_cap",
            "delta", "seed", "svg"},
    "accelerate": {"command", "dataset", "steps", "eta_override", "svg"},
    "rates": {"command", "dataset", "loss", "eta", "steps", "tail_fraction", "svg"},
}


def _default_seed() -> int:
    return int(os.environ.get("EOS_LAB_SEED", "0"))


def _json_dump(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _eta_tag(eta: float) -> str:
    return format(eta, "g").replace(".", "p").replace("-", "m")


def _dataset_descriptor(args) -> dict:
    desc: dict = {"kind": args.dataset}
    if args.dataset == "lower_bound":
        desc["gamma"] = args.gamma if args.gamma is not None else 0.05
    elif args.dataset == "synthetic":
        desc.update(n=args.n, d=args.d, gamma=args.gamma or 0.1,
                    seed=args.data_seed)
    elif args.dataset == "csv":
        if not args.path:
            raise ValueError("--path is required for --dataset csv")
        desc["path"] = args.path
    elif args.dataset != "toy":
        raise ValueError(f"unknown dataset {args.dataset!r}")
    if args.normalize:
        desc["normalize"] = "max"
    return desc


def _loss_descriptor(args) -> dict:
    desc = {"kind": args.loss}
    if args.loss in (L.FLAT_EXP, L.FLAT_POLY):
        if args.a is None:
            raise ValueError(f"--a is required for loss {args.loss}")
        desc["a"] = args.a
    return desc


def _load_config(path: str, command: str) -> dict:
    cfg = json.loads(Path(path).read_text(encoding="utf-8"))
    if cfg.get("command") != command:
        raise ValueError(f"config is for command {cfg.get('command')!r}, "
                         f"not {command!r}")
    allowed = _CONFIG_KEYS[command]
    unknown = set(cfg) - allowed
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    bad_ds = set(cfg.get("dataset", {})) - _DATASET_KEYS
    if bad_ds:
        raise ValueError(f"unknown dataset keys: {sorted(bad_ds)}")
    return cfg


def _etas(text) -> list[float]:
    if isinstance(text, list):
        return [float(v) for v in text]
    out = [float(tok) for tok in str(text).split(",") if tok.strip()]
    if not out:
        raise ValueError("at least one stepsize is required")
    return out


# -- run commands -------------------------------------------------------------


def _run_gd(cfg: dict, out: Path) -> int:
    ds = D.dataset_from_json(cfg["dataset"])
    loss = L.loss_from_json(cfg["loss"])
    try:
        cert = D.margin(ds)
    except D.NotSeparable:
        cert = None  # runs proceed; phase detection needs the margin
    _json_dump(cfg, out / "config.json")
    curves = []
    for eta in _etas(cfg["eta"]):
        traj = G.run_gd(G.GdConfig(eta=eta, steps=int(cfg["steps"]), loss=loss,
                                   record_every=int(cfg.get("record_every", 1))), ds)
        tag = _eta_tag(eta)
        G.write_trajectory_csv(traj, out / f"gd_eta{tag}.csv")
        if traj.dense and cert is not None:
            phase = G.detect_phase(traj, loss, eta, ds.n, cert.gamma)
            _json_dump(phase.as_dict(), out / f"gd_eta{tag}_phase.json")
            if cfg.get("check_bounds", False):
                viol = A.compare_bounds(traj, cert.gamma, eta, ds.n, loss)
                A.write_violations_csv(viol, out / f"gd_eta{tag}_violations.csv")
        curves.append((f"eta={format(eta, 'g')}",
                       traj.steps.tolist(), traj.loss.tolist()))
    if cfg.get("svg", True):
        write_line_plot(out / "gd_loss.svg", curves, title=f"GD loss, {ds.name}",
                        xlabel="step", ylabel="loss", logy=True)
    return 0


def _run_sgd(cfg: dict, out: Path) -> int:
    ds = D.dataset_from_json(cfg["dataset"])
    cert = D.margin(ds)
    _json_dump(cfg, out / "config.json")
    seed = int(cfg["seed"])
    curves = []
    for eta in _etas(cfg["eta"]):
        traj = G.run_sgd(ds, eta, int(cfg["steps"]), Rng(seed))
        tag = _eta_tag(eta)
        G.write_trajectory_csv(traj, out / f"sgd_eta{tag}_seed{seed}.csv")
        phase = G.detect_phase(traj, traj.loss_spec, eta, ds.n, cert.gamma)
        _json_dump(phase.as_dict(), out / f"sgd_eta{tag}_seed{seed}_phase.json")
        curves.append((f"eta={format(eta, 'g')}",
                       traj.steps.tolist(), traj.loss.tolist()))
    if cfg.get("svg", True):
        write_line_plot(out / "sgd_loss.svg", curves,
                        title=f"SGD population loss, {ds.name}",
                        xlabel="step", ylabel="loss", logy=True)
    return 0


def _run_ntk(cfg: dict, out: Path) -> int:
    ds = D.dataset_from_json(cfg["dataset"])
    loss = L.loss_from_json(cfg["loss"])
    cert = D.margin(ds)
    eta, T = float(cfg["eta"]), int(cfg["steps"])
    delta = float(cfg.get("delta", 0.1))
    cap = int(cfg.get("width_cap", _NTK_WIDTH_CAP))
    width_req = cfg.get("width", "auto")
    wmin = B.width_min(loss, cert.gamma, eta, T, ds.n, delta)
    if width_req == "auto":
        # the certified sufficient width is astronomically conservative;
        # "auto" runs at the cap and reports both numbers
        m = cap if wmin > cap else int(math.ceil(wmin))
        m += m % 2
        capped = wmin > cap
    else:
        m = int(width_req)
        capped = False
    _json_dump(cfg, out / "config.json")
    net = N.init_net(m, ds.d, Rng(int(cfg["seed"])))
    traj, diag = N.run_gd_ntk(net, ds, loss, eta, T, gamma=cert.gamma, delta=delta)
    try:
        mhat = N.ntk_margin_hat(net, ds).gamma
    except D.NotSeparable:
        mhat = None
    G.write_trajectory_csv(traj, out / "ntk.csv")
    diag_dict = diag.as_dict()
    diag_dict.update(ntk_margin_hat=mhat, width=m, width_capped=capped)
    _json_dump(diag_dict, out / "ntk_diagnostics.json")
    phase = G.detect_phase(traj, loss, eta, ds.n, cert.gamma)
    _json_dump(phase.as_dict(), out / "ntk_phase.json")
    if cfg.get("svg", True):
        write_line_plot(out / "ntk_loss.svg",
                        [("loss", traj.steps.tolist(), traj.loss.tolist()),
                         ("dist_init", traj.steps.tolist(), traj.dist_init.tolist())],
                        title=f"Wide-net GD, m={m}, {ds.name}",
                        xlabel="step", ylabel="value", logy=True)
    return 0


def _run_accelerate(cfg: dict, out: Path) -> int:
    ds = D.dataset_from_json(cfg["dataset"])
    T = int(cfg["steps"])
    override = cfg.get("eta_override")
    _json_dump(cfg, out / "config.json")
    if override is None:
        score = A.acceleration_score(ds, T)
    else:
        cert = D.margin(ds)
        plan = B.acceleration_plan(cert.gamma, ds.n, T)
        big = G.run_gd(G.GdConfig(eta=float(override), steps=T, loss=L.logistic()), ds)
        score = A.AccelerationScore(
            eta_large=float(override), loss_large_eta=float(big.loss[-1]),
            eta_small_best=None, loss_small_eta_best=None, ratio=None,
            bound=plan.bound, traj_large=big, traj_small_best=None)
    _json_dump(score.as_dict(), out / "accelerate.json")
    big = score.traj_large
    G.write_trajectory_csv(big, out / "accelerate_large.csv")
    curves = [(f"scheduled eta={format(score.eta_large, 'g')}",
               big.steps.tolist(), big.loss.tolist())]
    small = score.traj_small_best
    if small is not None:
        G.write_trajectory_csv(small, out / "accelerate_baseline.csv")
        curves.append((f"monotone eta={format(score.eta_small_best, 'g')}",
                       small.steps.tolist(), small.loss.tolist()))
    if cfg.get("svg", True):
        write_line_plot(out / "accelerate.svg", curves,
                        title=f"Budget {T}: scheduled vs monotone stepsize",
                        xlabel="step", ylabel="loss", logy=True)
    return 0


def _run_rates(cfg: dict, out: Path) -> int:
    ds = D.dataset_from_json(cfg["dataset"])
    loss = L.loss_from_json(cfg["loss"])
    _json_dump(cfg, out / "config.json")
    fits = {}
    curves = []
    for eta in _etas(cfg["eta"]):
        traj = G.run_gd(G.GdConfig(eta=eta, steps=int(cfg["steps"]), loss=loss), ds)
        tag = _eta_tag(eta)
        G.write_trajectory_csv(traj, out / f"rates_eta{tag}.csv")
        fit = A.fit_rate(traj, eta, tail_fraction=float(cfg.get("tail_fraction", 0.5)))
        fits[format(eta, "g")] = fit.as_dict()
        scaled = eta * traj.steps[1:] * traj.loss[1:]
        curves.append((f"eta={format(eta, 'g')}",
                       traj.steps[1:].tolist(), scaled.tolist()))
    _json_dump(fits, out / "rates.json")
    if cfg.get("svg", True):
        write_line_plot(out / "rates.svg", curves, title=f"eta*t*loss, {ds.name}",
                        xlabel="step", ylabel="eta * t * loss",
                        logx=True, logy=True)
    return 0


def _run_bounds(args) -> int:
    loss = L.loss_from_json(_loss_descriptor(args))
    reports = B.bound_reports(loss, args.gamma, args.eta_single, args.t, n=args.n,
                              s=args.s, T=args.T, d=args.d, delta=args.delta,
                              F_s=args.F_s, C1=args.C1, C2=args.C2, C_a=args.C_a)
    for rep in reports:
        print(json.dumps(rep.as_dict(), sort_keys=True))
    return 0


def _run_check_loss(args) -> int:
    loss = L.loss_from_json(_loss_descriptor(args))
    report = L.check_assumptions(loss, Rng(_default_seed()))
    out = report.as_dict()
    rho_rows = []
    rho_ok = True
    for lam in (1.0, 10.0, 1e3, 1e6):
        exact = L.rho_exact(loss, lam)
        bound = L.rho_bound(loss, lam)
        ell_at = float(L.eval_loss(loss, math.sqrt(bound)))
        row_ok = exact <= bound + 1e-9 and ell_at <= bound / lam + 1e-12
        rho_ok &= row_ok
        rho_rows.append({"lambda": lam, "rho_exact": exact, "rho_bound": bound,
                         "loss_at_sqrt_rho": ell_at, "ok": row_ok})
    out["rho"] = rho_rows
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0 if (report.passed and rho_ok) else 1


# -- argument parsing ---------------------------------------------------------


def _add_dataset_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dataset", default="toy",
                   choices=["toy", "lower_bound", "synthetic", "csv"])
    p.add_argument("--gamma", type=float, default=None,
                   help="margin parameter for lower_bound/synthetic datasets")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--data-seed", type=int, default=0)
    p.add_argument("--path", default=None, help="CSV path for --dataset csv")
    p.add_argument("--normalize", action="store_true",
                   help="rescale so the largest sample norm is 1")


def _add_loss_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--loss", default="logistic",
                   choices=[L.LOGISTIC, L.FLAT_EXP, L.FLAT_POLY])
    p.add_argument("--a", type=float, default=None,
                   help="temperature/degree for the flattened losses")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="eos-lab",
        description="large-stepsize gradient descent experiments on "
                    "separable classification")
    sub = ap.add_subparsers(dest="command", required=True)

    for name, helptext in (("gd", "full-batch GD sweeps"),
                           ("sgd", "online SGD runs"),
                           ("ntk", "two-layer ReLU network GD"),
                           ("accelerate", "budget-T stepsize schedule vs monotone baseline"),
                           ("rates", "asymptotic rate fits")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", default=None,
                       help="re-run from an embedded config.json")
        p.add_argument("--out", default="runs", help="output directory")
        _add_dataset_flags(p)
        if name in ("gd", "ntk", "rates"):
            _add_loss_flags(p)
        if name in ("gd", "sgd", "rates"):
            p.add_argument("--eta", default="1.0",
                           help="stepsize, or comma-separated sweep list")
        if name == "ntk":
            p.add_argument("--eta", default="1.0")
            p.add_argument("--width", default="auto",
                           help='network width, or "auto" for the certified '
                                "formula (capped to a runnable size)")
            p.add_argument("--width-cap", type=int, default=_NTK_WIDTH_CAP)
            p.add_argument("--delta", type=float, default=0.1)
        if name == "accelerate":
            p.add_argument("--eta-override", type=float, default=None)
        p.add_argument("--steps", type=int, default=1000)
        if name == "gd":
            p.add_argument("--record-every", type=int, default=1)
            p.add_argument("--check-bounds", action="store_true",
                           help="write per-stepsize bound-violation CSVs")
        if name == "rates":
            p.add_argument("--tail-fraction", type=float, default=0.5)
        if name in ("sgd", "ntk"):
            p.add_argument("--seed", type=int, default=None)
        p.add_argument("--no-svg", action="store_true")

    p = sub.add_parser("bounds", help="print bound reports as JSON lines")
    _add_loss_flags(p)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--eta", dest="eta_single", type=float, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--T", type=int, default=None)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--F-s", type=float, default=1.0)
    p.add_argument("--C1", type=float, default=1.0)
    p.add_argument("--C2", type=float, default=1.0)
    p.add_argument("--C-a", type=float, default=1.0)

    p = sub.add_parser("check-loss", help="verify the loss-condition suite")
    _add_loss_flags(p)

    return ap


def _config_from_args(args) -> dict:
    cmd = args.command
    cfg: dict = {"command": cmd, "dataset": _dataset_descriptor(args)}
    if cmd in ("gd", "ntk", "rates"):
        cfg["loss"] = _loss_descriptor(args)
    if cmd in ("gd", "sgd", "rates"):
        cfg["eta"] = _etas(args.eta)
    cfg["steps"] = args.steps
    if cmd == "gd":
        cfg["record_every"] = args.record_every
        cfg["check_bounds"] = args.check_bounds
    if cmd == "ntk":
        cfg["eta"] = float(args.eta)
        cfg["width"] = args.width if args.width == "auto" else int(args.width)
        cfg["width_cap"] = args.width_cap
        cfg["delta"] = args.delta
    if cmd == "accelerate":
        cfg["eta_override"] = args.eta_override
    if cmd == "rates":
        cfg["tail_fraction"] = args.tail_fraction
    if cmd in ("sgd", "ntk"):
        cfg["seed"] = args.seed if args.seed is not None else _default_seed()
    cfg["svg"] = not args.no_svg
    return cfg


_RUNNERS = {"gd": _run_gd, "sgd": _run_sgd, "ntk": _run_ntk,
            "accelerate": _run_accelerate, "rates": _run_rates}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "bounds":
            return _run_bounds(args)
        if args.command == "check-loss":
            return _run_check_loss(args)
        if args.config is not None:
            cfg = _load_config(args.config, args.command)
        else:
            cfg = _config_from_args(args)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return _RUNNERS[args.command](cfg, out)
    except G.DivergenceError as exc:
        print(f"error: divergence guard: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        print(f"error: missing config key {exc}", file=sys.stderr)
        return 3
    except (ValueError, A.InfeasibleBudget, D.NotSeparable, D.NotConverged,
            OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
