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
from dataclasses import asdict
from pathlib import Path


from . import analysis as A
from . import bounds as B
from . import data as D
from . import descent as G
from . import losses as L
from . import ntk as N
from ._svg import write_line_plot
from .numerics import Rng, json_number

__all__ = ["main"]

# parsed flags that are no config key of their own: the run location, and
# the dataset and loss flags that fold into their descriptors
_NOT_CONFIG = {"config", "out", "gamma", "n", "d", "data_seed", "path",
               "normalize", "a"}


def _env_seed() -> int:
    """The seed that EOS_LAB_SEED sets, 0 where it is unset."""
    value = os.environ.get("EOS_LAB_SEED", "0")
    try:
        if int(value) >= 0:
            return int(value)
    except ValueError:  # not an integer
        pass
    raise ValueError(f"EOS_LAB_SEED must be an integer >= 0, not {value!r}")


def _json_dump(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _write_config(cfg: dict, out: Path) -> None:
    """Write ``config.json``, a run's first file, making ``out`` for it: a
    run refused before this leaves no directory behind."""
    out.mkdir(parents=True, exist_ok=True)
    _json_dump(cfg, out / "config.json")


def _dataset_descriptor(args) -> dict:
    desc: dict = {"kind": args.dataset}
    if args.dataset == "lower_bound":
        desc["gamma"] = args.gamma if args.gamma is not None else 0.05
    elif args.dataset == "synthetic":
        desc.update(n=args.n, d=args.d, seed=args.data_seed,
                    gamma=args.gamma if args.gamma is not None else 0.1)
    elif args.dataset == "csv":
        if not args.path:
            raise ValueError("--path is required for --dataset csv")
        desc["path"] = args.path
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


def _kind(value) -> str:
    """The JSON type of a config value, with bools apart from numbers, and
    number lists and flat objects (holding no list or object) apart."""
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, list) and all(_kind(v) == "number" for v in value):
        return "number list"
    if isinstance(value, dict) and not any(isinstance(v, (list, dict))
                                           for v in value.values()):
        return "flat object"
    return type(value).__name__


def _load_config(path: str, own: dict) -> dict:
    """The config at ``path``, which must be for the command of ``own``, the
    config that this command writes, and carry exactly the keys of ``own``,
    each with the JSON type of its value in ``own``, where a number may
    stand in for a null or "auto" default; the keys written as integers must
    hold whole numbers (or a width "auto")."""
    cfg = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(cfg, dict):
        raise ValueError(f"a config must be a JSON object, not {json.dumps(cfg)}")
    unknown, missing = sorted(set(cfg) - set(own)), sorted(set(own) - set(cfg))
    if unknown or missing or cfg["command"] != own["command"]:
        raise ValueError(f"config for command {cfg.get('command')!r} is not a "
                         f"{own['command']} config: unknown keys {unknown}, "
                         f"missing keys {missing}")
    for key, default in own.items():
        kind = _kind(cfg[key])
        if kind != _kind(default) and not (kind == "number" and default in (None, "auto")):
            raise ValueError(f"config key {key!r} must be a {_kind(default)}, "
                             f"not {json.dumps(cfg[key])}")
    for key in ("steps", "record_every", "seed", "width_cap", "width"):
        if key in cfg and cfg[key] != "auto":
            json_number(cfg, key, "the config", integral=True)
    return cfg


def _label(eta: float) -> str:
    """The name of a stepsize in file names, plot legends and fit keys."""
    return format(eta, "g")


def _etas(value) -> list[float]:
    """The stepsizes of a comma-separated ``--eta`` or a config's list, no
    two of which may share a label, as their files would then collide."""
    if not isinstance(value, list):
        value = [tok for tok in str(value).split(",") if tok.strip()]
    out = [float(v) for v in value]
    if not out:
        raise ValueError("at least one stepsize is required")
    seen: dict = {}
    for eta in out:
        if not 0.0 < eta < math.inf:
            raise ValueError(f"a stepsize must be positive and finite, not {eta:g}")
        label = _label(eta)
        if label in seen:
            raise ValueError(f"stepsizes {seen[label]!r} and {eta!r} share the label "
                             f"{label!r} that names their files")
        seen[label] = eta
    return out


# -- run commands -------------------------------------------------------------
# Each runner writes config.json and its outputs and returns its plot: the
# SVG file name, the curves, and the title and y label of write_line_plot.


def _write_run(out: Path, stem: str, traj: G.Trajectory, n: int,
               cert: D.MarginCertificate | None = None, check: bool = False) -> None:
    """Write a run's files, for every run command: ``<stem>.csv``, and for
    a dense run with a certificate ``<stem>_phase.json``, plus
    ``<stem>_violations.csv`` when ``check`` asks for the bound checks."""
    G.write_trajectory_csv(traj, out / f"{stem}.csv")
    if traj.dense and cert is not None:
        _json_dump(asdict(G.detect_phase(traj, n, cert.gamma)), out / f"{stem}_phase.json")
        if check:
            viol = A.compare_bounds(traj, cert.gamma, n)
            A.write_violations_csv(viol, out / f"{stem}_violations.csv")


def _sweep(cfg: dict, out: Path, runs, stem: str, n: int, cert=None, check=False) -> list:
    """Write ``config.json``, then each of ``runs``, a Trajectory or the
    DivergenceError to raise, in stepsize order, with :func:`_write_run` as
    ``stem.format(tag)``, where ``tag`` names the run's own stepsize in file
    names; returns each run's (legend, Trajectory)."""
    _write_config(cfg, out)
    done = []
    for traj in runs:
        if isinstance(traj, G.DivergenceError):
            raise traj
        label = _label(traj.eta)
        _write_run(out, stem.format(label.replace(".", "p").replace("-", "m")), traj, n,
                   cert, check)
        done.append((f"eta={label}", traj))
    return done


def _run_gd(cfg: dict, ds: D.Dataset, out: Path) -> tuple:
    check = cfg["check_bounds"]
    if check and cfg["record_every"] != 1:
        raise ValueError("--check-bounds needs every step recorded (--record-every 1)")
    loss = L.loss_from_json(cfg["loss"])
    try:
        cert = D.margin(ds)
    except D.NotSeparable as exc:
        if check:
            raise ValueError(f"--check-bounds needs a certified margin: {exc}") from None
        cert = None  # runs proceed; phase detection needs the margin
    runs = G.run_gd_batch(ds, loss, _etas(cfg["eta"]), int(cfg["steps"]),
                          int(cfg["record_every"]))
    done = _sweep(cfg, out, runs, "gd_eta{}", ds.n, cert, check)
    return "gd_loss.svg", [(name, tr.steps, tr.loss) for name, tr in done], dict(
        title=f"GD loss, {ds.name}", ylabel="loss")


def _run_sgd(cfg: dict, ds: D.Dataset, out: Path) -> tuple:
    cert = D.margin(ds)
    seed = int(cfg["seed"])
    # one run at a time, each written as soon as it ends: SGD runs are not
    # batched
    runs = (G.run_sgd(ds, eta, int(cfg["steps"]), Rng(seed)) for eta in _etas(cfg["eta"]))
    done = _sweep(cfg, out, runs, "sgd_eta{}_seed%d" % seed, ds.n, cert)
    return "sgd_loss.svg", [(name, tr.steps, tr.loss) for name, tr in done], dict(
        title=f"SGD population loss, {ds.name}", ylabel="loss")


def _run_ntk(cfg: dict, ds: D.Dataset, out: Path) -> tuple:
    loss = L.loss_from_json(cfg["loss"])
    cert = D.margin(ds)
    [eta], T = _etas(cfg["eta"]), int(cfg["steps"])
    delta, cap = float(cfg["delta"]), int(cfg["width_cap"])
    wmin = B.width_min(loss, cert.gamma, eta, T, ds.n, delta)
    auto = cfg["width"] == "auto"
    # the certified sufficient width is astronomically conservative, even
    # inf; "auto" runs at the least even width above it, or the largest
    # within the cap, and reports both numbers
    m = min(2 * math.ceil(min(wmin, cap) / 2), cap - cap % 2) if auto else int(cfg["width"])
    capped = auto and m < wmin
    net = N.init_net(m, ds.d, Rng(int(cfg["seed"])))
    _write_config(cfg, out)
    traj = N.run_gd_ntk(net, ds, loss, eta, T)
    try:
        mhat = N.ntk_margin_hat(net, ds).gamma
    except D.NotSeparable:
        mhat = None
    _write_run(out, "ntk", traj, ds.n, cert)
    # how lazy the run was: its largest distance from w_0 against the radius
    R = B.lazy_radius(loss, cert.gamma, eta, T, ds.n, delta)
    max_dist = float(traj.dist_init.max())
    _json_dump(dict(R=R, max_dist=max_dist, lazy_ok=max_dist <= R, width_min=wmin,
                    ntk_margin_hat=mhat, width=m, width_capped=capped),
               out / "ntk_diagnostics.json")
    curves = [("loss", traj.steps, traj.loss), ("dist_init", traj.steps, traj.dist_init)]
    return "ntk_loss.svg", curves, dict(title=f"Wide-net GD, m={m}, {ds.name}",
                                        ylabel="value")


def _run_accelerate(cfg: dict, ds: D.Dataset, out: Path) -> tuple:
    T = int(cfg["steps"])
    override = cfg["eta_override"]
    if override is not None:
        [override] = _etas(override)
    # refused before any write, on the one certificate of the run
    plan = B.acceleration_plan(D.margin(ds).gamma, ds.n, T)
    if override is None and not plan.feasible:
        raise A.InfeasibleBudget(T, plan.threshold)
    _write_config(cfg, out)
    if override is None:
        score = A.acceleration_score(ds, plan)
    else:
        big = G.run_gd(ds, L.logistic(), override, T)
        score = A.AccelerationScore(
            eta_large=override, loss_large_eta=float(big.loss[-1]),
            eta_small_best=None, loss_small_eta_best=None, ratio=None,
            bound=plan.bound, traj_large=big, traj_small_best=None)
    _json_dump(score.as_dict(), out / "accelerate.json")
    big = score.traj_large
    _write_run(out, "accelerate_large", big, ds.n)
    curves = [(f"scheduled eta={_label(score.eta_large)}", big.steps, big.loss)]
    small = score.traj_small_best
    if small is not None:
        _write_run(out, "accelerate_baseline", small, ds.n)
        curves.append((f"monotone eta={_label(score.eta_small_best)}", small.steps,
                       small.loss))
    return "accelerate.svg", curves, dict(
        title=f"Budget {T}: scheduled vs monotone stepsize", ylabel="loss")


def _run_rates(cfg: dict, ds: D.Dataset, out: Path) -> tuple:
    loss = L.loss_from_json(cfg["loss"])
    tail = float(cfg["tail_fraction"])
    A._tail_start(int(cfg["steps"]), tail)  # a dense run fits its steps 1..T
    trajs = G.run_gd_batch(ds, loss, _etas(cfg["eta"]), int(cfg["steps"]))
    fits = {}
    for traj in trajs:  # every fit up to the first divergence, before any write
        if isinstance(traj, G.DivergenceError):
            break
        fits[_label(traj.eta)] = asdict(A.fit_rate(traj, tail_fraction=tail))

    curves = [(name, tr.steps[1:], tr.eta * tr.steps[1:] * tr.loss[1:])
              for name, tr in _sweep(cfg, out, trajs, "rates_eta{}", ds.n)]
    _json_dump(fits, out / "rates.json")
    return "rates.svg", curves, dict(title=f"eta*t*loss, {ds.name}",
                                     ylabel="eta * t * loss", logx=True)


def _run_bounds(args) -> int:
    """Print the bound reports of the given flags as JSON lines; a flag not
    given takes its default from :func:`eoslab.bounds.bound_reports`."""
    loss = L.loss_from_json(_loss_descriptor(args))
    given = {key: value for key, value in vars(args).items()
             if value is not None and key not in ("command", "loss", "a")}
    reports = B.bound_reports(loss, **given)
    for rep in reports:
        print(json.dumps(asdict(rep), sort_keys=True))
    return 0


def _run_check_loss(args) -> int:
    loss = L.loss_from_json(_loss_descriptor(args))
    report = L.check_assumptions(loss, Rng(_env_seed()))
    out = dict(report.as_dict(), rho=[])
    for lam in (1.0, 10.0, 1e3, 1e6):
        exact = L.rho_exact(loss, lam)
        bound = L.rho_bound(loss, lam)
        ell_at = float(L.eval_loss(loss, math.sqrt(bound)))
        out["rho"].append({"lambda": lam, "rho_exact": exact, "rho_bound": bound,
                           "loss_at_sqrt_rho": ell_at,
                           "ok": exact <= bound + 1e-9 and ell_at <= bound / lam + 1e-12})
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0 if report.passed and all(row["ok"] for row in out["rho"]) else 1


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


def _build_parser(given_only: bool = False) -> argparse.ArgumentParser:
    """The eos-lab parser; with ``given_only``, a run command's flags that
    are not given parse to None, as no given flag does."""
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
        if name != "accelerate":
            p.add_argument("--eta", default="1.0", help="stepsize; gd, sgd and "
                           "rates also take a comma-separated sweep list")
        if name == "ntk":
            p.add_argument("--width", default="auto",
                           help='network width, or "auto" for the certified '
                                "formula (capped to a runnable size)")
            p.add_argument("--width-cap", type=int, default=4096)
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
        p.add_argument("--no-svg", dest="svg", action="store_false")
        if given_only:
            p.set_defaults(**dict.fromkeys(vars(p.parse_args([]))))

    p = sub.add_parser("bounds", help="print bound reports as JSON lines")
    _add_loss_flags(p)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--s", type=int)
    p.add_argument("--T", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--delta", type=float)
    p.add_argument("--F-s", type=float)
    p.add_argument("--C1", type=float)
    p.add_argument("--C2", type=float)
    p.add_argument("--C-a", type=float)

    p = sub.add_parser("check-loss", help="verify the loss-condition suite")
    _add_loss_flags(p)

    return ap


def _config_from_args(args) -> dict:
    """The config of a run command's flags, whose parser states every
    default.  A seed not given is EOS_LAB_SEED's, or with ``--config`` 0,
    which only stands for the kind of the config's own seed."""
    cfg = {key: value for key, value in vars(args).items() if key not in _NOT_CONFIG}
    cfg["dataset"] = _dataset_descriptor(args)
    if "loss" in cfg:
        cfg["loss"] = _loss_descriptor(args)
    if "eta" in cfg:
        cfg["eta"] = _etas(args.eta)
    if cfg["command"] == "ntk":
        if len(cfg["eta"]) > 1:
            raise ValueError(f"ntk runs one stepsize, not the {len(cfg['eta'])} of "
                             f"--eta {args.eta}")
        [cfg["eta"]] = cfg["eta"]
        if args.width != "auto":
            cfg["width"] = int(args.width)
    if cfg.get("seed", 0) is None:  # no --seed given
        cfg["seed"] = _env_seed() if args.config is None else 0
    return cfg


_RUNNERS = {"gd": _run_gd, "sgd": _run_sgd, "ntk": _run_ntk,
            "accelerate": _run_accelerate, "rates": _run_rates}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # a usage error is an invalid configuration
        return 3 if exc.code == 2 else exc.code
    try:
        if args.command == "bounds":
            return _run_bounds(args)
        if args.command == "check-loss":
            return _run_check_loss(args)
        if args.config is not None:
            given = vars(_build_parser(given_only=True).parse_args(argv)).items()
            dropped = ["--no-svg" if k == "svg" else "--" + k.replace("_", "-") for k, v in given
                       if v is not None and k not in ("command", "config", "out")]
            if dropped:  # the config's values would override them
                raise ValueError(f"--config takes no run flag but --out: {', '.join(dropped)}")
            cfg = _load_config(args.config, _config_from_args(args))
        else:
            cfg = _config_from_args(args)
        for key, low in (("steps", 1), ("record_every", 1), ("seed", 0)):
            if key in cfg and int(cfg[key]) < low:  # checked before any file is written
                raise ValueError(f"{key} must be >= {low}")
        data_seed = cfg["dataset"].get("seed")  # its type is dataset_from_json's check
        if isinstance(data_seed, (int, float)) and data_seed < 0:
            raise ValueError('--data-seed (the dataset\'s "seed") must be >= 0')
        ds = D.dataset_from_json(cfg["dataset"])
        out = Path(args.out)
        svg_name, curves, plot = _RUNNERS[args.command](cfg, ds, out)
        if cfg["svg"]:
            write_line_plot(out / svg_name, curves, xlabel="step", logy=True, **plot)
        return 0
    except G.DivergenceError as exc:
        print(f"error: divergence guard: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        print(f"error: missing config key {exc}", file=sys.stderr)
        return 3
    except (ValueError, D.NotConverged, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
