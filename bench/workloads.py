"""The benchmark's workloads: the ``eos-lab`` argument lists each one runs.

Every list is a pure function of (workload, seed, tiny).  The program sees
only these arguments; every dataset is either built in (the toy set) or
generated by the program from a fixed ``--data-seed``.
"""

from __future__ import annotations

import numpy as np

WORKLOADS = ("toy-sweep", "synthetic-certify", "wide-net")

# Runs per seeded command group.  Three keeps one toy-sweep round near
# 12 s on one core, so a 30 s run holds at least two rounds.
SEEDS_PER_GROUP = 3

# synthetic-certify certifies a dataset built from this fixed data seed.
# Its certificate fails on every run (see README), and a failing operation
# may only be kept if its inputs do not change with the workload seed.
SYNTHETIC_DATA_SEED = 0
SYNTHETIC_GAMMA = 0.1


def derived_seeds(seed: int, group: int, k: int = SEEDS_PER_GROUP) -> list[int]:
    """The k program seeds of one command group, drawn from the workload seed."""
    words = np.random.SeedSequence([seed, group]).generate_state(k)
    return [int(w) % 2**31 for w in words]


def commands(workload: str, seed: int, tiny: bool = False) -> list[tuple[str, list[str]]]:
    """(tag, argv) pairs of one round.  ``tiny`` shrinks step counts and
    shapes for the smoke check; the accelerate budget cannot shrink,
    since 12000 is the smallest feasible budget on the toy set."""
    if workload == "toy-sweep":
        gd_steps, sgd_steps = ("2000", "1000") if tiny else ("20000", "10000")
        cmds = [("gd", ["gd", "--normalize", "--eta", "2,8,32",
                        "--steps", gd_steps, "--check-bounds"])]
        for s in derived_seeds(seed, 0):
            cmds.append((f"sgd-{s}", ["sgd", "--eta", "1,100", "--steps", sgd_steps,
                                      "--seed", str(s)]))
        cmds.append(("accelerate", ["accelerate", "--steps", "12000"]))
        return cmds
    if workload == "synthetic-certify":
        n, d, steps = ("8", "3", "200") if tiny else ("1000", "50", "10000")
        return [("gd", ["gd", "--dataset", "synthetic", "--n", n, "--d", d,
                        "--gamma", str(SYNTHETIC_GAMMA),
                        "--data-seed", str(SYNTHETIC_DATA_SEED),
                        "--eta", "16", "--steps", steps, "--record-every", "10"])]
    if workload == "wide-net":
        width, steps = ("64", "200") if tiny else ("4096", "2000")
        cmds = []
        for group, loss in enumerate((["--loss", "logistic"],
                                      ["--loss", "flat_poly", "--a", "2"])):
            for s in derived_seeds(seed, group):
                cmds.append((f"ntk-{loss[1]}-{s}",
                             ["ntk", "--normalize", "--width", width, "--steps", steps,
                              "--seed", str(s)] + loss))
        return cmds
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
