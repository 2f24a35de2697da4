"""Spans around the public functions of every ``eoslab`` module.

A wrapper replaces a function in every module namespace that holds it, so
callers that imported it by name (``from .descent import run_gd``) see
the wrapper as well.  Nothing under ``src/`` is edited.  Spans (name,
start, end, parent) and one count per span are kept in flat arrays in
memory and written out once, when the run ends.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import sys
import time
from array import array

import numpy as np

# layer name of a module: the module name without the package prefix
_LAYER = {"eoslab.numerics": "numerics", "eoslab.losses": "losses",
          "eoslab.data": "data", "eoslab.descent": "descent",
          "eoslab.bounds": "bounds", "eoslab.analysis": "analysis",
          "eoslab.ntk": "ntk", "eoslab._svg": "svg", "eoslab.cli": "cli"}

LOSS_FUNCS = ("losses.eval_loss", "losses.deriv", "losses.g")
ENGINES = ("descent.run_gd", "descent.run_sgd", "ntk.run_gd_ntk")

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = [
    ("cli.main.self_s", "s", "lower"),
    ("data.dataset_from_json.s", "s", "lower"),
    ("data.margin.s", "s", "lower"),
    ("data.margin.iters", "count", "lower"),
    ("data.margin.calls", "count", "lower"),
    ("data.margin.verified", "count", "higher"),
    ("descent.run_gd.calls", "count", "lower"),
    ("descent.run_gd.repeat_calls", "count", "lower"),
    ("descent.run_gd.s", "s", "lower"),
    ("descent.run_gd.us_per_step", "us", "lower"),
    ("descent.run_sgd.s", "s", "lower"),
    ("descent.run_sgd.us_per_step", "us", "lower"),
    ("losses.s", "s", "lower"),
    ("losses.calls_per_step", "count", "lower"),
    ("descent.write_trajectory_csv.s", "s", "lower"),
    ("descent.write_trajectory_csv.rows", "count", "lower"),
    ("analysis.compare_bounds.s", "s", "lower"),
    ("bounds.calls", "count", "lower"),
    ("analysis.acceleration_score.s", "s", "lower"),
    ("analysis.acceleration_score.gd_runs", "count", "lower"),
    ("ntk.init_net.s", "s", "lower"),
    ("ntk.ntk_margin_hat.s", "s", "lower"),
    ("ntk.run_gd_ntk.s", "s", "lower"),
    ("ntk.run_gd_ntk.us_per_step", "us", "lower"),
    ("ntk.run_gd_ntk.gflop", "GFLOP", "lower"),
    ("svg.write_line_plot.s", "s", "lower"),
    ("svg.write_line_plot.points", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def eoslab_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if name == "eoslab" or name.startswith("eoslab.")]


def patch_everywhere(old, new) -> list:
    """Point every eoslab module attribute that is ``old`` at ``new``;
    returns the (module, attribute) pairs changed."""
    sites = [(m, k) for m in eoslab_modules() for k, v in list(vars(m).items())
             if v is old]
    for m, k in sites:
        setattr(m, k, new)
    return sites


def dataset_key(ds) -> str:
    return hashlib.sha256(ds.xs.tobytes() + ds.ys.tobytes()).hexdigest()[:16]


def _gdconfig_key(cfg, ds) -> tuple:
    init = None if cfg.init is None else np.asarray(cfg.init).tobytes()
    return (cfg.eta, cfg.steps, cfg.loss, init, cfg.record_every,
            cfg.store_iterates, dataset_key(ds))


class Tracer:
    """Wraps the public functions of the imported eoslab modules.

    ``attr`` holds one count per span: steps for the engines, rows for
    the CSV writer, points for the SVG writer, iterations for the margin
    solver.  The margin wrapper passes its own ``trace`` list when the
    caller gave none, so its iterations can be counted.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start, self.end = array("d"), array("d")
        self.name_id, self.parent = array("i"), array("i")
        self.attr = array("d")
        self._stack = [-1]
        self._undo: list = []
        self.rounds: list[tuple[int, int]] = []
        self.gflop = 0.0
        self._gd_keys: set = set()
        self.repeat_calls = 0

    # -- wrapping ---------------------------------------------------------

    def install(self) -> None:
        targets = []
        for m in eoslab_modules():
            layer = _LAYER.get(m.__name__)
            for attr_name in getattr(m, "__all__", ()) if layer else ():
                fn = getattr(m, attr_name)
                if inspect.isfunction(fn):
                    targets.append((f"{layer}.{attr_name}", fn))
        for name, fn in targets:
            wrapper = self._wrap(name, fn)
            self._undo.append((fn, patch_everywhere(fn, wrapper)))

    def uninstall(self) -> None:
        for fn, sites in self._undo:
            for m, k in sites:
                setattr(m, k, fn)
        self._undo = []

    def begin_round(self) -> None:
        self._round_lo = len(self.name_id)
        self.gflop = 0.0
        self.repeat_calls = 0
        self._gd_keys = set()

    def end_round(self) -> tuple[int, int]:
        span = (self._round_lo, len(self.name_id))
        self.rounds.append(span)
        return span

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        start, end, name_id, parent, attr = (self.start, self.end, self.name_id,
                                             self.parent, self.attr)
        stack = self._stack
        perf = time.perf_counter
        count = self._counter(name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            attr.append(0.0)
            after = count(args, kwargs) if count else None
            if after is not None:
                args, kwargs, after = after
            stack.append(i)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = perf()
                start[i] = t0
                stack.pop()
                if after is not None:
                    attr[i] = after()

        return traced

    def _counter(self, name: str, fn):
        """Per-span count for the functions that have one, read from the
        call's arguments; None for the rest."""
        sig = inspect.signature(fn)

        def bound(args, kwargs):
            b = sig.bind(*args, **kwargs)
            b.apply_defaults()
            return b.arguments

        if name == "descent.run_gd":
            def count(args, kwargs):
                a = bound(args, kwargs)
                key = _gdconfig_key(a["cfg"], a["ds"])
                self.repeat_calls += key in self._gd_keys
                self._gd_keys.add(key)
                return args, kwargs, lambda: float(a["cfg"].steps)
        elif name == "descent.run_sgd":
            def count(args, kwargs):
                steps = float(bound(args, kwargs)["steps"])
                return args, kwargs, lambda: steps
        elif name == "ntk.run_gd_ntk":
            def count(args, kwargs):
                a = bound(args, kwargs)
                n, d, m, T = a["ds"].n, a["net"].d, a["net"].m, a["T"]
                # matmul terms per step: the forward pass and the gradient's
                # pre-activations (2ndm each), its back-projection (2ndm) and
                # the two output contractions (2nm each)
                self.gflop += T * (6.0 * n * d * m + 4.0 * n * m) / 1e9
                return args, kwargs, lambda: float(T)
        elif name == "descent.write_trajectory_csv":
            def count(args, kwargs):
                rows = float(len(bound(args, kwargs)["traj"].steps))
                return args, kwargs, lambda: rows
        elif name == "svg.write_line_plot":
            def count(args, kwargs):
                pts = float(sum(len(xs) for _, xs, _ in bound(args, kwargs)["series"]))
                return args, kwargs, lambda: pts
        elif name == "data.margin":
            def count(args, kwargs):
                a = bound(args, kwargs)
                if a["trace"] is None:
                    a["trace"] = []
                trace = a["trace"]
                return (), dict(a), lambda: float(len(trace))
        else:
            return None
        return count

    # -- reduction --------------------------------------------------------

    def arrays(self) -> dict:
        return {"start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64),
                "name_id": np.frombuffer(self.name_id, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "attr": np.frombuffer(self.attr, dtype=np.float64)}

    def round_summary(self, lo: int, hi: int) -> dict:
        """Calls, total and self seconds, and summed count of each traced
        function within spans [lo, hi) of one round."""
        a = {k: v[lo:hi] for k, v in self.arrays().items()}
        dur = a["end"] - a["start"]
        par = a["parent"] - lo
        has_parent = par >= 0
        child = np.bincount(par[has_parent], weights=dur[has_parent],
                            minlength=hi - lo)
        selft = dur - child
        out = {}
        for nid in np.unique(a["name_id"]):
            mask = a["name_id"] == nid
            out[self.names[nid]] = {"calls": int(mask.sum()),
                                    "total_s": float(dur[mask].sum()),
                                    "self_s": float(selft[mask].sum()),
                                    "count": float(a["attr"][mask].sum())}
        return out

    def layer_metrics(self, lo: int, hi: int) -> dict:
        """Per-layer metrics of one traced round, all but the tracing
        overhead and the verified certificates, which need the untraced
        rounds and the checks."""
        a = {k: v[lo:hi] for k, v in self.arrays().items()}
        dur = a["end"] - a["start"]
        ids = a["name_id"]
        par = a["parent"] - lo
        summ = self.round_summary(lo, hi)

        def get(name, key):
            return summ.get(name, {}).get(key, 0.0)

        def per_step(name):
            steps = get(name, "count")
            return get(name, "total_s") / steps * 1e6 if steps else 0.0

        loss_ids = [self._ids[n] for n in LOSS_FUNCS if n in self._ids]
        in_losses = np.isin(ids, [i for n, i in self._ids.items()
                                  if n.startswith("losses.")])
        parent_in_losses = np.zeros_like(in_losses)
        parent_in_losses[par >= 0] = in_losses[par[par >= 0]]
        outer_loss = in_losses & ~parent_in_losses
        loss_calls = int((np.isin(ids, loss_ids) & ~parent_in_losses).sum())
        engine_steps = sum(get(n, "count") for n in ENGINES)

        accel = self._ids.get("analysis.acceleration_score", -2)
        gd = self._ids.get("descent.run_gd", -2)
        gd_in_accel = 0
        for i in np.nonzero(ids == gd)[0]:
            p = par[i]
            while p >= 0 and ids[p] != accel:
                p = par[p]
            gd_in_accel += p >= 0

        metrics = {
            "cli.main.self_s": get("cli.main", "self_s"),
            "data.dataset_from_json.s": get("data.dataset_from_json", "total_s"),
            "data.margin.s": get("data.margin", "total_s"),
            "data.margin.iters": get("data.margin", "count"),
            "data.margin.calls": get("data.margin", "calls"),
            "descent.run_gd.calls": get("descent.run_gd", "calls"),
            "descent.run_gd.repeat_calls": self.repeat_calls,
            "descent.run_gd.s": get("descent.run_gd", "total_s"),
            "descent.run_gd.us_per_step": per_step("descent.run_gd"),
            "descent.run_sgd.s": get("descent.run_sgd", "total_s"),
            "descent.run_sgd.us_per_step": per_step("descent.run_sgd"),
            "losses.s": float(dur[outer_loss].sum()),
            "losses.calls_per_step": loss_calls / engine_steps if engine_steps else 0.0,
            "descent.write_trajectory_csv.s": get("descent.write_trajectory_csv", "total_s"),
            "descent.write_trajectory_csv.rows": get("descent.write_trajectory_csv", "count"),
            "analysis.compare_bounds.s": get("analysis.compare_bounds", "total_s"),
            "bounds.calls": sum(v["calls"] for n, v in summ.items()
                                if n.startswith("bounds.")),
            "analysis.acceleration_score.s": get("analysis.acceleration_score", "total_s"),
            "analysis.acceleration_score.gd_runs": gd_in_accel,
            "ntk.init_net.s": get("ntk.init_net", "total_s"),
            "ntk.ntk_margin_hat.s": get("ntk.ntk_margin_hat", "total_s"),
            "ntk.run_gd_ntk.s": get("ntk.run_gd_ntk", "total_s"),
            "ntk.run_gd_ntk.us_per_step": per_step("ntk.run_gd_ntk"),
            "ntk.run_gd_ntk.gflop": self.gflop,
            "svg.write_line_plot.s": get("svg.write_line_plot", "total_s"),
            "svg.write_line_plot.points": get("svg.write_line_plot", "count"),
        }
        return {k: float(v) for k, v in metrics.items()}

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), rounds=np.array(self.rounds),
                 **self.arrays())
