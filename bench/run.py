"""Benchmark of the ``eos-lab`` command line.

    python3 bench/run.py --workload toy-sweep --seed 1 --seconds 36 --trace 0

Runs one workload's round of commands again and again in one fresh
process for about ``--seconds`` seconds, checks every output, and prints
one JSON object as its last line: with ``--trace 0`` the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run.  The
full result, with the environment it ran in, is also written under
``.bench_runs/`` at the repository root.  See bench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread in every process of the benchmark, set before numpy
# loads.  Recorded with each result.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, commands  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
WORKER_TIMEOUT_S = 150

END_TO_END = [("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("first_result_s", "s"), ("peak_rss_mb", "MB")]

PROBE = "import time, eoslab, eoslab.cli; print(time.monotonic())"


class BenchError(Exception):
    """The run could not be measured; no result is printed."""


def child_env() -> dict:
    # a fixed hash seed keeps dict and set layouts the same from run to run
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = None
    if (ROOT / ".git").exists():  # git would otherwise search the parent directories
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except OSError:
            pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "git_sha": sha, "blas_threads": int(BLAS_THREADS),
            "loadavg_start": list(os.getloadavg())}


def ref_loop_s() -> float:
    """Median seconds of five runs of a fixed pure-Python loop.  On a
    shared virtual machine the host's speed can move by a third over
    minutes with no load showing in the guest, and the interpreter-bound
    workloads move with this loop.  Recorded before and after each run so
    a figure can be judged by the speed it ran at."""
    out = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc += i * i
        out.append(time.perf_counter() - t0)
    return statistics.median(out)


def setup_samples(env: dict) -> list[float]:
    """Seconds from spawning a fresh interpreter until eoslab and
    eoslab.cli are imported, after one untimed run that fills the
    bytecode cache."""
    out = []
    for i in range(SETUP_PROBES + 1):
        t0 = time.monotonic()
        try:
            p = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                               text=True, timeout=60, check=True)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            raise BenchError(f"importing eoslab failed: {exc}") from None
        if i:
            out.append(float(p.stdout.split()[-1]) - t0)
    return out


def command_first_results(round_dir: Path, rec: dict, cmds) -> list[float]:
    """Seconds from each command's start to the mtime of its first
    trajectory CSV, in command order."""
    out = []
    for (tag, _), start_ns in zip(cmds, rec["command_starts_ns"]):
        mtimes = [p.stat().st_mtime_ns for p in (round_dir / tag).rglob("*.csv")
                  if not p.name.endswith("_violations.csv")]
        if not mtimes:
            raise BenchError(f"{rec['dir']}/{tag} wrote no trajectory CSV")
        out.append((min(mtimes) - start_ns) / 1e9)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in record["errors"][:20]:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Measure and check one run; returns the record also written to
    ``.bench_runs/``.  ``tiny`` runs the smoke check's small inputs."""
    if not (SRC / "eoslab" / "cli.py").is_file():
        raise BenchError(f"no eoslab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    cmds = commands(workload, seed, tiny)
    env_fields = environment()
    env_fields["ref_loop_s"] = [ref_loop_s()]
    tag = f"{workload}-seed{seed}-trace{int(trace)}" + ("-tiny" if tiny else "")
    runs_dir = ROOT / ".bench_runs"
    work = runs_dir / f"{tag}-work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        env = child_env()
        setup = setup_samples(env)
        report = run_worker(env, work, {
            "root": str(ROOT), "commands": cmds, "seconds": seconds, "trace": trace,
            "work": str(work), "report": str(work / "report.json"),
            "trace_file": str(runs_dir / f"trace-{workload}.npz")})
        env_fields["ref_loop_s"].append(ref_loop_s())
        setup.append(report["setup_s"])

        rounds = report["rounds"]
        attempted, failures, errors, ran = check_rounds(cmds, work, rounds)
        for r in rounds:
            r["command_first_result_s"] = command_first_results(work / r["dir"], r, cmds)
            r["first_result_s"] = sum(r["command_first_result_s"])
        if trace:
            metrics = per_layer(rounds, errors)
        else:
            plain = [r for r in rounds if not r["traced"]]
            values = {"wall_s": statistics.median(r["wall_s"] for r in plain),
                      "cpu_s": statistics.median(r["cpu_s"] for r in plain),
                      "setup_s": statistics.median(setup),
                      "first_result_s": statistics.median(r["first_result_s"] for r in plain),
                      "peak_rss_mb": report["peak_rss_mb"]}
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {"correct": not errors, "attempted": attempted, "failed": len(failures),
              "metrics": metrics, "workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "tiny": tiny, "environment": env_fields,
              "rounds": [{k: v for k, v in r.items() if k != "functions"} for r in rounds],
              "functions": [r["functions"] for r in rounds if r["traced"]],
              "setup_samples_s": setup, "failures": failures, "errors": errors,
              "checks_ran": ran}
    (runs_dir / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    return record


def check_rounds(cmds, work: Path, rounds: list) -> tuple:
    """Check every round: all files of the first untraced and the first
    traced round, and that every other round wrote the same bytes as the
    first.  Returns (attempted, failures, errors, checks ran)."""
    attempted, failures, errors, ran = 0, [], [], {}
    digest0 = checks.tree_digest(work / rounds[0]["dir"])
    checked_traced = False
    for rec in rounds:
        rdir = work / rec["dir"]
        full = rec is rounds[0] or (rec["traced"] and not checked_traced)
        checked_traced |= full and rec["traced"]
        res = checks.check_round(cmds, rdir, rec, tracing.dataset_key, full)
        attempted += res["attempted"]
        failures += res["failures"]
        errors += res["errors"]
        for k, v in res["ran"].items():
            ran[k] = ran.get(k, 0) + v
        if rec is not rounds[0]:
            ran["rounds.identical"] = ran.get("rounds.identical", 0) + 1
            if checks.tree_digest(rdir) != digest0:
                errors.append(f"rounds.identical: {rec['dir']} differs from {rounds[0]['dir']}")
    return attempted, failures, errors, ran


def per_layer(rounds: list, errors: list) -> dict:
    """Per-layer metrics: medians over the traced rounds, with the tracing
    overhead against the untraced ones.  A count that differs between
    traced rounds is reported in ``errors``."""
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    for r in traced:
        r["layers"]["data.margin.verified"] = float(sum(
            c["attained"] >= c["gamma"] - checks.CERT_TOL for cc in r["certs"] for c in cc))
    metrics = {name: {"value": statistics.median(r["layers"][name] for r in traced),
                      "unit": unit} for name, unit, _ in tracing.PER_LAYER[:-1]}
    overhead = (statistics.median(r["wall_s"] for r in traced)
                - statistics.median(r["wall_s"] for r in plain))
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    for name, unit, _ in tracing.PER_LAYER[:-1]:
        if unit == "count" and len({r["layers"][name] for r in traced}) > 1:
            errors.append(f"layers.repeat: {name} differs between traced rounds")
    return metrics


def run_worker(env: dict, work: Path, plan: dict) -> dict:
    """Run the workload process and return its report, with ``setup_s``
    measured from its spawn until it had imported eoslab."""
    (work / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(work / "plan.json")],
                            env=env, cwd=ROOT)
    try:
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("workload process timed out") from None
    if code != 0:
        raise BenchError(f"workload process exited with {code}")
    report = json.loads((work / "report.json").read_text(encoding="utf-8"))
    report["setup_s"] = report["ready_monotonic"] - t0
    return report


if __name__ == "__main__":
    sys.exit(main())
