"""The workload process: runs one round of ``eos-lab`` commands after
another through ``eoslab.cli.main`` until the run's time is used up.

Usage (from bench/run.py): ``python worker.py PLAN.json``.  The plan names
the source root, the commands of one round, the run length and whether
alternate rounds are traced.  The report goes to the plan's ``report``
path; every round writes its outputs into a fresh directory.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    plan = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    import eoslab
    import eoslab.cli
    ready = time.monotonic()
    src = Path(plan["root"]).resolve() / "src"
    if src not in Path(eoslab.__file__).resolve().parents:
        print(f"error: eoslab imported from {eoslab.__file__}, not from {src}",
              file=sys.stderr)
        return 3

    import numpy as np
    import tracing

    # Keep each certificate the program computes, so it can be checked
    # against its own dataset after the round, outside the timed region.
    certs = []

    def capture(margin):
        @functools.wraps(margin)
        def captured(ds, *args, **kwargs):
            cert = margin(ds, *args, **kwargs)
            certs.append((ds, cert))
            return cert
        return captured

    tracing.patch_everywhere(eoslab.data.margin, capture(eoslab.data.margin))

    tracer = tracing.Tracer() if plan["trace"] else None
    work = Path(plan["work"])
    rounds = []
    t_run = time.perf_counter()
    while True:
        k = len(rounds)
        traced = tracer is not None and k % 2 == 1
        out = work / f"round{k}"
        if traced:
            tracer.install()
            tracer.begin_round()
        w0, c0 = time.perf_counter(), time.process_time()
        codes, cmd_certs, cmd_starts, cmd_ends = [], [], [], []
        for tag, argv in plan["commands"]:
            cmd_starts.append(time.time_ns())
            codes.append(eoslab.cli.main(argv + ["--out", str(out / tag)]))
            cmd_ends.append(time.perf_counter() - w0)
            cmd_certs.append(certs[:])
            certs.clear()
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        rec = {"wall_s": wall, "cpu_s": cpu, "codes": codes, "command_starts_ns": cmd_starts,
               "command_ends_s": cmd_ends, "traced": traced, "dir": out.name,
               "certs": [[{"dataset": tracing.dataset_key(ds), "gamma": cert.gamma,
                           "attained": float(np.min(ds.signed() @ cert.w_star))}
                          for ds, cert in cc] for cc in cmd_certs]}
        if traced:
            tracer.uninstall()
            lo, hi = tracer.end_round()
            rec["layers"] = tracer.layer_metrics(lo, hi)
            rec["functions"] = tracer.round_summary(lo, hi)
        rounds.append(rec)
        elapsed = time.perf_counter() - t_run
        enough = len(rounds) >= (2 if tracer else 1)
        # stop when one more round of the mean length so far would overrun
        if enough and elapsed + elapsed / len(rounds) > plan["seconds"]:
            break

    if tracer is not None:
        tracer.save(plan["trace_file"])
    report = {"ready_monotonic": ready, "rounds": rounds,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    Path(plan["report"]).write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
