"""Smoke check of the benchmark itself: ``python3 bench/smoke.py``.

Runs every workload once at a tiny size (and toy-sweep traced), asserts
that each printed a valid result and that every check ran, then feeds
corrupted outputs to the checks and asserts that each corruption is
caught.  Exits 0 when all of that holds.  Takes about a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
from pathlib import Path

import run  # sets the BLAS thread count before numpy loads

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, commands  # noqa: E402

# checks each workload must make at least once
EXPECTED = {
    "toy-sweep": {"rows.loss", "rows.zero_one", "ineq.G<=loss", "ineq.loss<=F",
                  "ineq.gammaG<=grad", "ineq.grad<=G", "ineq.dist==norm",
                  "phase.s_theory", "phase.tau", "phase.s<=tau", "bounds.no_violations",
                  "phase.s_empirical", "accel.eta", "accel.bound_value",
                  "accel.final<=bound", "accel.ratio<1", "accel.baseline_eta",
                  "accel.baseline_monotone", "accel.final_matches_csv", "svg.parses",
                  "cert.count", "data.toy"},
    "synthetic-certify": {"rows.loss", "ineq.G<=loss", "ineq.gammaG<=grad",
                          "data.unit_norm", "data.margin_e1", "svg.parses", "cert.count"},
    "wide-net": {"rows.loss", "rows.dist_init", "ntk.max_dist", "ntk.lazy", "ntk.width",
                 "svg.parses", "cert.count"},
}

# the certificate of the synthetic set overstates its margin (README)
KNOWN_FAILURES = {"toy-sweep": 0, "synthetic-certify": 1, "wide-net": 0}


def fail(msg: str) -> None:
    print(f"FAIL {msg}")
    sys.exit(1)


def check_record(workload: str, rec: dict, trace: bool) -> None:
    names = ([n for n, _, _ in tracing.PER_LAYER] if trace
             else [n for n, _ in run.END_TO_END])
    if set(rec["metrics"]) != set(names):
        fail(f"{workload}: metrics {sorted(rec['metrics'])}")
    for name, m in rec["metrics"].items():
        if not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
            fail(f"{workload}: {name} = {m['value']!r}")
    if not rec["correct"]:
        fail(f"{workload}: checks failed: {rec['errors']}")
    rounds = len(rec["rounds"])
    if rec["attempted"] < 1 or rec["failed"] != KNOWN_FAILURES[workload] * rounds:
        fail(f"{workload}: attempted {rec['attempted']}, failed {rec['failed']}: "
             f"{rec['failures']}")
    missing = EXPECTED[workload] - set(rec["checks_ran"])
    if missing:
        fail(f"{workload}: checks never ran: {sorted(missing)}")
    json.dumps(rec)
    print(f"ok   {workload}{' traced' if trace else ''}: {rounds} round(s), "
          f"{rec['attempted']} operations, {rec['failed']} failed")


def corruptions(out: Path) -> None:
    """Write one tiny toy-sweep round in-process, then corrupt its files
    one at a time and expect the checks to reject each."""
    import numpy as np
    from eoslab import data
    from eoslab.cli import main

    cmds = commands("toy-sweep", 0, tiny=True)
    certs = []  # one certificate per command, as the workload process records it
    for tag, argv in cmds:
        if main(argv + ["--out", str(out / tag)]) != 0:
            fail(f"tiny {tag} exited non-zero")
        cfg = json.loads((out / tag / "config.json").read_text(encoding="utf-8"))
        ds = data.dataset_from_json(cfg["dataset"])
        cert = data.margin(ds)
        certs.append([{"dataset": tracing.dataset_key(ds), "gamma": cert.gamma,
                       "attained": float(np.min(ds.signed() @ cert.w_star))}])
    rec = {"codes": [0] * len(cmds), "certs": certs}
    base = checks.check_round(cmds, out, rec, tracing.dataset_key)
    if base["errors"] or base["failures"]:
        fail(f"intact round rejected: {base['errors']} {base['failures']}")

    gd = out / "gd"

    def perturb_loss_row(text: str) -> str:
        lines = text.splitlines(keepends=True)
        cells = lines[100].split(",")
        cells[1] = repr(float(cells[1]) * (1.0 + 1e-6))
        lines[100] = ",".join(cells)
        return "".join(lines)

    cases = [
        ("one loss row off by 1e-6", gd / "gd_eta2.csv", perturb_loss_row, "rows.loss"),
        ("a bound violation", gd / "gd_eta8_violations.csv",
         lambda t: t + "7,0.1,0.2\n", "bounds.no_violations"),
        ("a late phase transition", gd / "gd_eta32_phase.json",
         lambda t: t.replace('"s_theory": ', '"s_theory": 1'), "phase.s_theory"),
        ("a ratio above 1", out / "accelerate" / "accelerate.json",
         lambda t: t.replace('"ratio": 0.', '"ratio": 1.'), "accel.ratio<1"),
    ]
    for what, path, edit, check in cases:
        saved = path.read_text(encoding="utf-8")
        path.write_text(edit(saved), encoding="utf-8")
        res = checks.check_round(cmds, out, rec, tracing.dataset_key)
        path.write_text(saved, encoding="utf-8")
        if not any(e.startswith(check + ":") for e in res["errors"]):
            fail(f"{what} not caught by {check}: {res['errors']}")
        print(f"ok   corrupted: {what} -> {check}")

    bad = [[{**c, "gamma": c["gamma"] * (1.0 + 1e-6)} for c in cc] for cc in certs]
    res = checks.check_round(cmds, out, {**rec, "certs": bad}, tracing.dataset_key)
    if len(res["failures"]) != len(cmds):
        fail(f"overstated certificates not counted: {res['failures']}")
    print("ok   corrupted: overstated certificates -> counted as failed operations")


def main() -> int:
    for workload in WORKLOADS:
        check_record(workload, run.run(workload, 0, 0.1, False, tiny=True), False)
    rec = run.run("toy-sweep", 0, 0.1, True, tiny=True)
    check_record("toy-sweep", rec, True)

    out = run.ROOT / ".bench_runs" / "smoke-work"
    shutil.rmtree(out, ignore_errors=True)
    try:
        corruptions(out)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    print("smoke check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
