"""The eos-lab command line: files produced, exit codes, embedded-config
reproducibility, and SVG well-formedness.  Every refusal of a flag, an
environment variable or an input file is one row of REFUSALS, and every
refusal of an edited --config one row of CONFIG_REFUSALS: each exits 3
with its exact error line and writes no file."""

import ast
import functools
import importlib
import json
import math
import pkgutil
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import eoslab
from eoslab import analysis, bounds, data, descent, losses
from eoslab.cli import main


def run(*argv):
    return main(list(argv))


def files_in(out):
    return sorted(p.name for p in out.iterdir()) if out.exists() else []


class TestGd:
    def test_sweep_one_polyline_per_stepsize(self, tmp_path):
        out = tmp_path / "sweep"
        assert run("gd", "--dataset", "toy", "--eta", "4,8,16,32",
                   "--steps", "200", "--out", str(out)) == 0
        svg = (out / "gd_loss.svg").read_text()
        root = ET.fromstring(svg)  # must be valid XML
        polylines = [e for e in root.iter()
                     if e.tag.endswith("polyline")]
        assert len(polylines) >= 4
        for eta in ("4", "8", "16", "32"):
            assert (out / f"gd_eta{eta}.csv").exists()

    def test_divergence_exit_code(self, tmp_path):
        # a huge stepsize under the flattened polynomial loss on a
        # non-separable CSV trips the guard
        csv = tmp_path / "conflict.csv"
        csv.write_text(FIXTURES["conflict.csv"])
        rc = run("gd", "--dataset", "csv", "--path", str(csv),
                 "--loss", "flat_poly", "--a", "2", "--eta", "1e6",
                 "--steps", "5000", "--out", str(tmp_path / "d"))
        assert rc == 2

    def test_divergence_in_a_sweep_stops_the_writes(self, tmp_path, capsys):
        # the batch runs all three stepsizes; files are still written in
        # stepsize order up to the first divergence
        csv = tmp_path / "conflict.csv"
        csv.write_text(FIXTURES["conflict.csv"])
        out = tmp_path / "d"
        rc = run("gd", "--dataset", "csv", "--path", str(csv), "--loss", "flat_poly",
                 "--a", "2", "--eta", "2,1e6,8", "--steps", "5000", "--out", str(out))
        assert rc == 2
        assert files_in(out) == ["config.json", "gd_eta2.csv"]
        assert capsys.readouterr().err == (
            "error: divergence guard: loss exceeded 1000 * L(w_0) for 50 "
            "consecutive steps (step 74)\n")

    def test_rates_divergence_in_a_sweep_stops_the_writes(self, tmp_path, capsys):
        # rates fits its runs before any write, up to the first divergence,
        # and then writes as gd does
        csv = tmp_path / "conflict.csv"
        csv.write_text(FIXTURES["conflict.csv"])
        out = tmp_path / "d"
        rc = run("rates", "--dataset", "csv", "--path", str(csv), "--loss", "flat_poly",
                 "--a", "2", "--eta", "2,1e6,8", "--steps", "5000", "--out", str(out))
        assert rc == 2
        assert files_in(out) == ["config.json", "rates_eta2.csv"]
        assert capsys.readouterr().err.startswith("error: divergence guard: ")

    def test_usage_error_exit_code(self, tmp_path, capsys):
        out = tmp_path / "u"
        assert run("gd", "--steps", "x", "--out", str(out)) == 3
        assert "invalid int value: 'x'" in capsys.readouterr().err
        assert files_in(out) == []

    def test_help_exit_code(self, capsys):
        assert run("--help") == 0
        assert run("gd", "--help") == 0
        assert "usage: eos-lab" in capsys.readouterr().out

    def test_tiny_lower_bound_margin_certified(self, tmp_path):
        # roundoff stops the margin solver here; its refinement step certifies
        out = tmp_path / "lb"
        assert run("gd", "--dataset", "lower_bound", "--gamma", "1e-8", "--steps", "50",
                   "--out", str(out)) == 0
        assert (out / "gd_eta1_phase.json").exists()

    def test_solver_not_converged_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(data, "_MAX_MAJOR", 1)
        rc = run("gd", "--dataset", "synthetic", "--n", "50", "--d", "5",
                 "--eta", "1", "--steps", "10", "--out", str(tmp_path / "nc"))
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: margin solver") and err.count("\n") == 1

    def test_check_bounds_writes_empty_violation_list(self, tmp_path):
        out = tmp_path / "cb"
        assert run("gd", "--dataset", "toy", "--normalize", "--eta", "8",
                   "--steps", "300", "--check-bounds", "--out", str(out)) == 0
        lines = (out / "gd_eta8_violations.csv").read_text().splitlines()
        assert lines == ["step,bound,observed"]  # conformant run: no rows

    @pytest.mark.parametrize("loss", [("flat_exp", "1"), ("flat_poly", "2")],
                             ids=["flat_exp", "flat_poly"])
    def test_check_bounds_skips_steps_whose_bound_overflows(self, tmp_path, loss):
        # eta = 1e160: the general average-loss bound overflows a float at
        # every step, so no step is checked
        out = tmp_path / "cb"
        assert run("gd", "--normalize", "--loss", loss[0], "--a", loss[1], "--eta", "1e160",
                   "--steps", "5", "--check-bounds", "--out", str(out)) == 0
        lines = (out / "gd_eta1e+160_violations.csv").read_text().splitlines()
        assert lines == ["step,bound,observed"]

    def test_check_bounds_on_norms_whose_squares_overflow(self, tmp_path):
        # from step 1 the toy run's iterate norm is about 2.7e159, under its
        # bound of 5e160, though its square overflows a float
        out = tmp_path / "cb"
        assert run("gd", "--eta", "1e160", "--steps", "50", "--check-bounds",
                   "--out", str(out)) == 0
        lines = (out / "gd_eta1e+160_violations.csv").read_text().splitlines()
        assert lines == ["step,bound,observed"]


# one short run of each command, with the file its config.json is rerun against
RUN_COMMANDS = {
    "gd": (["gd", "--eta", "2,8", "--steps", "50"], "gd_eta8.csv"),
    "sgd": (["sgd", "--eta", "2", "--steps", "50", "--seed", "4"], "sgd_eta2_seed4.csv"),
    "ntk": (["ntk", "--normalize", "--width", "8", "--steps", "20"], "ntk.csv"),
    "accelerate": (["accelerate", "--steps", "50", "--eta-override", "2"],
                   "accelerate_large.csv"),
    "rates": (["rates", "--eta", "8", "--steps", "100"], "rates_eta8.csv"),
}


# each run command's exact file set: a trajectory CSV per run, its phase
# JSON where the run is dense and the margin certified (accelerate writes
# its score JSON instead), and its violations CSV under --check-bounds
FILE_SETS = {
    "accelerate": (["accelerate", "--steps", "12000"],
                   ["accelerate.json", "accelerate.svg", "accelerate_baseline.csv",
                    "accelerate_large.csv", "config.json"]),
    "accelerate-override": (["accelerate", "--steps", "50", "--eta-override", "2"],
                            ["accelerate.json", "accelerate.svg", "accelerate_large.csv",
                             "config.json"]),
    "gd": (["gd", "--eta", "2,8", "--steps", "50"],
           ["config.json", "gd_eta2.csv", "gd_eta2_phase.json", "gd_eta8.csv",
            "gd_eta8_phase.json", "gd_loss.svg"]),
    "gd-sparse": (["gd", "--eta", "8", "--steps", "50", "--record-every", "10"],
                  ["config.json", "gd_eta8.csv", "gd_loss.svg"]),
    "gd-check-bounds": (["gd", "--normalize", "--eta", "8", "--steps", "50",
                         "--check-bounds"],
                        ["config.json", "gd_eta8.csv", "gd_eta8_phase.json",
                         "gd_eta8_violations.csv", "gd_loss.svg"]),
    "gd-non-separable": (["gd", "--dataset", "csv", "--path", "conflict.csv", "--eta", "1",
                          "--steps", "50"], ["config.json", "gd_eta1.csv", "gd_loss.svg"]),
    # its loss rises by single ulps at about 4e-18, long after step 2
    "gd-roundoff-tail": (["gd", "--dataset", "synthetic", "--n", "50", "--d", "2",
                          "--gamma", "0.05", "--data-seed", "1", "--eta", "1024",
                          "--steps", "20000"],
                         ["config.json", "gd_eta1024.csv", "gd_eta1024_phase.json",
                          "gd_loss.svg"]),
    "sgd": (["sgd", "--eta", "1,100", "--steps", "50", "--seed", "4"],
            ["config.json", "sgd_eta100_seed4.csv", "sgd_eta100_seed4_phase.json",
             "sgd_eta1_seed4.csv", "sgd_eta1_seed4_phase.json", "sgd_loss.svg"]),
    "ntk": (["ntk", "--normalize", "--width", "8", "--steps", "20"],
            ["config.json", "ntk.csv", "ntk_diagnostics.json", "ntk_loss.svg",
             "ntk_phase.json"]),
    "rates": (["rates", "--eta", "8", "--steps", "100"],
              ["config.json", "rates.json", "rates.svg", "rates_eta8.csv"]),
}


@pytest.mark.parametrize("case", sorted(FILE_SETS))
def test_run_file_set(tmp_path, monkeypatch, case):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "conflict.csv").write_text(FIXTURES["conflict.csv"])
    argv, names = FILE_SETS[case]
    assert run(*argv, "--out", "out") == 0
    assert files_in(tmp_path / "out") == names
    # a logistic GD run descends from the step its loss first meets the
    # stable criterion, so no rise it resolves comes later
    for path in (tmp_path / "out").glob("gd_*_phase.json"):
        phase = json.loads(path.read_text())
        assert phase["s_theory"] is None or phase["s_empirical"] <= phase["s_theory"], phase


class TestConfigSchema:
    """A config must carry exactly the keys that its command writes."""

    @pytest.mark.parametrize("command", sorted(RUN_COMMANDS))
    def test_written_config_is_the_only_accepted_key_set(self, tmp_path, command):
        argv, csv = RUN_COMMANDS[command]
        first = tmp_path / "first"
        assert run(*argv, "--out", str(first)) == 0
        cfg = json.loads((first / "config.json").read_text())
        again = tmp_path / "again"
        assert run(command, "--config", str(first / "config.json"),
                   "--out", str(again)) == 0
        assert (again / csv).read_bytes() == (first / csv).read_bytes()
        variants = [{k: v for k, v in cfg.items() if k != key} for key in cfg]
        variants.append(dict(cfg, surprise=True))
        for k, variant in enumerate(variants):
            p = tmp_path / f"variant{k}.json"
            p.write_text(json.dumps(variant))
            out = tmp_path / f"out{k}"
            assert run(command, "--config", str(p), "--out", str(out)) == 3, variant
            assert files_in(out) == []

    @pytest.mark.parametrize("command", sorted(RUN_COMMANDS))
    def test_run_flags_beside_config_refused(self, tmp_path, capsys, command):
        # the config's own values would override them
        argv, _ = RUN_COMMANDS[command]
        first = tmp_path / "first"
        assert run(*argv, "--out", str(first), "--no-svg") == 0
        capsys.readouterr()
        out = tmp_path / "again"
        assert run(command, "--config", str(first / "config.json"), "--steps", "7",
                   "--dataset", "toy", "--no-svg", "--out", str(out)) == 3
        assert capsys.readouterr().err == (
            "error: --config takes no run flag but --out: --dataset, --steps, --no-svg\n")
        assert files_in(out) == []


# the files every refusal runs beside: two sets whose signed-sample hull
# holds the origin, a NaN feature, and row norms that overflow (or
# underflow), which are refused rather than run as a non-separable (or
# all-zero) set
FIXTURES = {"conflict.csv": "1,1.0\n-1,0.3\n", "flat.csv": "1,1,0\n-1,1,0\n",
            "holes.csv": "1,0.5,0.25\n-1,nan,1.0\n", "huge.csv": "1,1.5e154,1\n-1,-1.5e154,1\n",
            "tiny.csv": "1,1e-320,1e-320\n-1,-1e-320,1e-320\n"}
HULL = "{}: the signed-sample hull contains the origin (min-norm point has norm 0.000e+00)"
SHARED = "stepsizes {} and {} share the label {!r} that names their files"

# id: (argv, EOS_LAB_SEED or None, the exact error) of a command line that
# exits 3 with one error line and writes no file
REFUSALS = {
    "csv-missing": ("gd --dataset csv --path nope.csv --eta 1 --steps 10", None,
                    "[Errno 2] No such file or directory: 'nope.csv'"),
    "csv-nan-feature": ("gd --dataset csv --path holes.csv --eta 1 --steps 10", None,
                        "holes.csv: features must be finite (found nan or inf)"),
    **{f"csv-{name}{'-normalized' * norm}": (
        f"gd --dataset csv --path {name}.csv --steps 5{' --normalize' * norm}", None,
        f"{name}.csv: the largest |feature| is {value}, outside [2^-500, 2^500]; "
        "rescale the features")
       for name, value in (("huge", "1.500e+154"), ("tiny", "1.000e-320")) for norm in (0, 1)},
    "check-bounds-sparse-recording": (
        "gd --normalize --eta 8 --steps 300 --record-every 10 --check-bounds", None,
        "--check-bounds needs every step recorded (--record-every 1)"),
    "check-bounds-no-certified-margin": (
        "gd --dataset csv --path conflict.csv --eta 1 --steps 100 --check-bounds", None,
        "--check-bounds needs a certified margin: " + HULL.format("conflict")),
    **{f"{flag.split()[0]}-eta-{eta}": (f"{flag}={eta} --steps 5", None,
                                        f"a stepsize must be positive and finite, not {eta}")
       for flag in ("gd --eta", "sgd --eta", "rates --eta", "ntk --width 8 --eta",
                    "accelerate --eta-override")
       for eta in ("nan", "inf", "0", "-1")},
    "synthetic-gamma-0": ("gd --dataset synthetic --n 20 --d 3 --gamma 0 --steps 5", None,
                          "gamma must lie in (0, 1)"),
    "synthetic-without-d": ("gd --dataset synthetic --n 20 --steps 5", None,
                            "synthetic dataset needs a value for d"),
    "data-seed-negative": ("gd --dataset synthetic --n 10 --d 3 --steps 5 --data-seed=-1", None,
                           '--data-seed (the dataset\'s "seed") must be >= 0'),
    **{f"ntk-delta-{delta}": (f"ntk --delta {delta} --width 8 --steps 5", None,
                              "delta must be in (0, 1]") for delta in ("0", "2")},
    **{f"{argv.split()[0]}-steps-0": (argv, None, "steps must be >= 1")
       for argv in ("gd --steps 0", "sgd --steps 0", "rates --steps 0",
                    "ntk --width 8 --steps 0", "accelerate --steps 0")},
    "gd-record-every-0": ("gd --record-every 0", None, "record_every must be >= 1"),
    "sgd-seed-negative": ("sgd --seed=-1 --steps 5", None, "seed must be >= 0"),
    "ntk-seed-negative": ("ntk --width 8 --seed=-1 --steps 5", None, "seed must be >= 0"),
    # EOS_LAB_SEED is named where it supplies the seed
    **{f"{argv.split()[0]}-env-seed-{seed}": (
        argv, seed, f"EOS_LAB_SEED must be an integer >= 0, not {seed!r}")
       for argv, seeds in (("sgd --steps 5", ("-3", "abc", "-2")),
                           ("ntk --width 8 --steps 5", ("abc", "-2")),
                           ("check-loss --loss logistic", ("-3", "abc")))
       for seed in seeds},
    "rates-tail-fraction": ("rates --tail-fraction 0.95 --steps 50", None,
                            "tail_fraction must lie in (0, 0.9]"),
    "rates-short-run": ("rates --steps 30", None, "tail window has 15 points; need >= 20"),
    "rates-short-tail": ("rates --steps 200 --tail-fraction 0.05", None,
                         "tail window has 10 points; need >= 20"),
    # the eta=1000 run's loss underflows to 0 within a few steps, so only
    # the finished run shows that its tail window is too short
    "rates-run-too-short-to-fit": (
        "rates --normalize --loss flat_exp --a 50 --eta 1000,1 --steps 100", None,
        "tail window has 1 points; need >= 20"),
    "accelerate-non-separable": ("accelerate --dataset csv --path flat.csv", None,
                                 HULL.format("flat")),
    "accelerate-infeasible-budget": (
        "accelerate --steps 100", None,
        "budget T=100 is below the certified threshold T >= 120 max{e, n}/gamma^2 = 12000"),
    # gamma^4 T^2 underflows to 0: the plan's bound is inf, not a math domain error
    "accelerate-tiny-margin": (
        "accelerate --dataset lower_bound --gamma 1e-90 --steps 12000", None,
        "budget T=12000 is below the certified threshold "
        "T >= 120 max{e, n}/gamma^2 = 3.26194e+182"),
    # a stepsize's files (and its rates.json key) are named by its label,
    # so a second stepsize of the same label would overwrite the first
    "gd-shared-label": ("gd --eta 1.0000001,1.0000002 --steps 100", None,
                        SHARED.format("1.0000001", "1.0000002", "1")),
    "sgd-shared-label": ("sgd --eta 1.0000001,1.0000002 --steps 100", None,
                         SHARED.format("1.0000001", "1.0000002", "1")),
    "rates-shared-label": ("rates --eta 8.0000001,8.0000002 --steps 100", None,
                           SHARED.format("8.0000001", "8.0000002", "8")),
    "gd-repeated-stepsize": ("gd --eta 2,0.5,2 --steps 100", None,
                             SHARED.format("2.0", "2.0", "2")),
    "ntk-two-stepsizes": ("ntk --eta 1,2 --width 8 --steps 5", None,
                          "ntk runs one stepsize, not the 2 of --eta 1,2"),
    "empty-stepsize-list": ("gd --eta ,", None, "at least one stepsize is required"),
    "check-loss-flat-exp-a-0": ("check-loss --loss flat_exp --a 0", None,
                                "flat_exp requires a finite a > 0, not 0.0"),
    **{f"bounds {argv}": (f"bounds {argv}", None, f"need {need}") for argv, need in (
        ("--loss flat_poly --a 2 --gamma -0.5 --eta 1 --t 100", "gamma > 0"),
        ("--loss flat_exp --a 1 --gamma 0.5 --eta 1 --t 100 --delta 1.5", "0 < delta <= 1"),
        ("--loss flat_poly --a 2 --gamma 0.5 --eta -1 --t 100", "eta > 0"),
        ("--loss flat_poly --a 2 --gamma 0.5 --eta 1 --t 100 --n 0", "n >= 1"),
        ("--gamma 0.2 --eta 8 --t 100 --T 0", "T >= 1"),
        ("--gamma 0.2 --eta 8 --t 0", "t >= 1"),
        ("--gamma 0.2 --eta 8 --t 100 --delta 0", "0 < delta <= 1"),
        ("--gamma 0.1 --eta inf --t 100", "finite eta"),
        ("--gamma 0.1 --eta 1 --t 100 --C1 nan", "finite C1"),
        ("--gamma inf --eta 1 --t 100", "finite gamma"),
        ("--gamma 0.2 --eta 8 --t 100 --C-a -50", "C_a >= 0"),
        ("--gamma 0.2 --eta 8 --t 100 --s 40 --F-s -500", "F_s >= 0"),
        ("--gamma 0.2 --eta 8 --t 100 --C1 -1", "C1 > 0"),
        ("--gamma 0.2 --eta 8 --t 100 --C2 -1", "C2 > 0"),
        ("--gamma 0.2 --eta 8 --t 100 --d -5", "d >= 1"),
        ("--gamma 0.2 --eta 8 --t 100 --s -50", "s >= 0"))},
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refused(tmp_path, capsys, monkeypatch, case):
    argv, seed, error = REFUSALS[case]
    monkeypatch.chdir(tmp_path)
    for name, text in FIXTURES.items():
        (tmp_path / name).write_text(text)
    if seed is None:
        monkeypatch.delenv("EOS_LAB_SEED", raising=False)
    else:
        monkeypatch.setenv("EOS_LAB_SEED", seed)
    assert run(*argv.split()) == 3
    assert capsys.readouterr() == ("", f"error: {error}\n")
    assert files_in(tmp_path) == sorted(FIXTURES)  # not even an empty --out directory


class TestRunOptionDomains:
    """Run options at the edges of their domains: a seed or width that a
    run goes ahead with, and edited configs that are refused."""

    @pytest.mark.parametrize("value", ["abc", "-2"])
    @pytest.mark.parametrize("command", ["sgd", "ntk"])
    def test_bad_env_seed_unused(self, tmp_path, monkeypatch, command, value):
        # EOS_LAB_SEED is refused only where it supplies the seed: a run
        # given --seed, or rerun from a config, goes ahead
        argv, csv = RUN_COMMANDS[command]
        monkeypatch.setenv("EOS_LAB_SEED", value)
        first, again = tmp_path / "first", tmp_path / "again"
        assert run(*argv, "--seed", "4", "--out", str(first)) == 0
        assert run(command, "--config", str(first / "config.json"),
                   "--out", str(again)) == 0
        assert (again / csv).read_bytes() == (first / csv).read_bytes()
        assert json.loads((again / "config.json").read_text())["seed"] == 4

    def test_ntk_width_overflow(self, tmp_path):
        # the sufficient width's power overflows a float: it is inf, as where
        # the lazy radius is inf, and the run at its given width goes ahead
        out = tmp_path / "o"
        assert run("ntk", "--dataset", "lower_bound", "--gamma", "1e-60", "--width", "8",
                   "--steps", "5", "--out", str(out)) == 0
        text = (out / "ntk_diagnostics.json").read_text()
        assert '"width_min": Infinity' in text
        assert math.isfinite(json.loads(text)["R"])

    def test_auto_width_within_an_odd_cap(self, tmp_path):
        out = tmp_path / "o"
        assert run("ntk", "--normalize", "--width-cap", "255", "--steps", "5",
                   "--out", str(out)) == 0
        diag = json.loads((out / "ntk_diagnostics.json").read_text())
        assert diag["width"] == 254 and diag["width_capped"]

    def test_auto_width_at_the_cap_of_an_infinite_width(self, tmp_path):
        # a flat_exp a this small puts rho_bound, the lazy radius and the
        # sufficient width at inf; "auto" runs at the cap
        out = tmp_path / "o"
        assert run("ntk", "--normalize", "--loss", "flat_exp", "--a", "1e-300",
                   "--width-cap", "64", "--steps", "200", "--no-svg", "--out", str(out)) == 0
        diag = json.loads((out / "ntk_diagnostics.json").read_text())
        assert diag["width_min"] == math.inf and diag["R"] == math.inf
        assert diag["width"] == 64 and diag["width_capped"]

    # a --config that a command wrote, with the keys of ``edits`` replaced
    # (or, where ``edits`` is no dict, in place of the whole config), and
    # the exact refusal.  A row with two faults is refused by the one that
    # its runner checks first: check-bounds and record_every, then the loss,
    # then the certificate, then the stepsizes.
    SYNTH = {"kind": "synthetic", "n": 10, "d": 3, "gamma": 0.1, "seed": 0}
    CONFLICT = {"kind": "csv", "path": "conflict.csv"}  # its hull holds the origin
    FLAT_EXP_0 = {"kind": "flat_exp", "a": 0}
    CONFIG_REFUSALS = {
        "not-an-object": ("gd", [], "a config must be a JSON object, not []"),
        "steps-list": ("gd", dict(steps=[1]), "config key 'steps' must be a number, not [1]"),
        "eta-item-not-a-number": ("gd", dict(eta=[1.0, "x"]),
                                  "config key 'eta' must be a number list, not [1.0, \"x\"]"),
        "steps-fraction": ("gd", dict(steps=50.7),
                           '"steps" of the config must be an integer, not 50.7'),
        "record-every-fraction": ("gd", dict(record_every=1.9),
                                  '"record_every" of the config must be an integer, not 1.9'),
        "ntk-seed-fraction": ("ntk", dict(seed=1.5),
                              '"seed" of the config must be an integer, not 1.5'),
        "ntk-width-fraction": ("ntk", dict(width=8.9),
                               '"width" of the config must be an integer, not 8.9'),
        "ntk-width-string": ("ntk", dict(width="8"),
                             '"width" of the config must be a number, not "8"'),
        "ntk-width-cap-fraction": ("ntk", dict(width_cap=7.5),
                                   '"width_cap" of the config must be an integer, not 7.5'),
        "empty-stepsize-list-svg": ("gd", dict(eta=[], svg=True),
                                    "at least one stepsize is required"),
        "empty-stepsize-list-no-svg": ("gd", dict(eta=[], svg=False),
                                       "at least one stepsize is required"),
        "gd-stepsize": ("gd", dict(eta=[-1.0]),
                        "a stepsize must be positive and finite, not -1"),
        "ntk-stepsize": ("ntk", dict(eta=-1.0),
                         "a stepsize must be positive and finite, not -1"),
        "sgd-negative-seed": ("sgd", dict(seed=-5), "seed must be >= 0"),
        "synthetic-without-d": ("gd", dict(dataset=dict(SYNTH, d=None)),
                                "synthetic dataset needs a value for d"),
        "synthetic-without-n": ("gd", dict(dataset=dict(SYNTH, n=None)),
                                "synthetic dataset needs a value for n"),
        "negative-data-seed": ("gd", dict(dataset=dict(SYNTH, seed=-1)),
                               '--data-seed (the dataset\'s "seed") must be >= 0'),
        # a descriptor's number must be a JSON number, and the seed a whole
        # one: none is coerced into a run that its config.json misstates
        "a-null": ("gd", dict(loss={"kind": "flat_exp", "a": None}),
                   '"a" of a flat_exp loss must be a number, not null'),
        "a-true": ("gd", dict(loss={"kind": "flat_exp", "a": True}),
                   '"a" of a flat_exp loss must be a number, not true'),
        "seed-2.5": ("gd", dict(dataset=dict(SYNTH, seed=2.5)),
                     '"seed" of a synthetic dataset must be an integer, not 2.5'),
        "seed-true": ("gd", dict(dataset=dict(SYNTH, seed=True)),
                      '"seed" of a synthetic dataset must be a number, not true'),
        "seed-str": ("gd", dict(dataset=dict(SYNTH, seed="3")),
                     '"seed" of a synthetic dataset must be a number, not "3"'),
        "gamma-str": ("gd", dict(dataset=dict(SYNTH, gamma="0.1")),
                      '"gamma" of a synthetic dataset must be a number, not "0.1"'),
        # the code that reads a config value refuses what it would not act on
        "eta-shared-label": ("gd", dict(eta=[1.0000001, 1.0000002]),
                             SHARED.format("1.0000001", "1.0000002", "1")),
        "normalize-min": ("gd", dict(dataset={"kind": "toy", "normalize": "min"}),
                          'a dataset\'s "normalize" must be "max", not \'min\''),
        "toy-n": ("gd", dict(dataset={"kind": "toy", "n": 5}),
                  "unknown keys of a toy dataset: ['n']"),
        "logistic-a-zzz": ("gd", dict(loss={"kind": "logistic", "a": 2.0, "zzz": 1}),
                           "unknown keys of a logistic loss: ['a', 'zzz']"),
        "gd-record-every-first": ("gd", dict(check_bounds=True, record_every=2, eta=[0]),
                                  "--check-bounds needs every step recorded "
                                  "(--record-every 1)"),
        "gd-uncertified-first": ("gd", dict(check_bounds=True, dataset=CONFLICT, eta=[0]),
                                 "--check-bounds needs a certified margin: "
                                 + HULL.format("conflict")),
        "gd-loss-first": ("gd", dict(loss=FLAT_EXP_0, eta=[0]),
                          "flat_exp requires a finite a > 0, not 0.0"),
        "gd-label-first": ("gd", dict(eta=[3, 3.0000001, 0]),
                           SHARED.format("3.0", "3.0000001", "3")),
        # without --check-bounds a gd run goes ahead on a set it cannot certify
        "gd-empty-first": ("gd", dict(dataset=CONFLICT, eta=[]),
                           "at least one stepsize is required"),
        "sgd-uncertified-first": ("sgd", dict(dataset=CONFLICT, eta=[0]),
                                  HULL.format("conflict")),
        "rates-tail-first": ("rates", dict(tail_fraction=0.95, eta=[0]),
                             "tail_fraction must lie in (0, 0.9]"),
        "rates-loss-first": ("rates", dict(loss=FLAT_EXP_0, tail_fraction=0.95),
                             "flat_exp requires a finite a > 0, not 0.0"),
    }

    @pytest.fixture(scope="class")
    def written_config(self, tmp_path_factory):
        """The text of a command's config.json, written once by its
        RUN_COMMANDS run, and the directory of the runs and conflict.csv."""
        root = tmp_path_factory.mktemp("written")
        (root / "conflict.csv").write_text(FIXTURES["conflict.csv"])

        @functools.cache
        def text(command):
            assert run(*RUN_COMMANDS[command][0], "--out", str(root / command)) == 0
            return (root / command / "config.json").read_text()
        return root, text

    @pytest.mark.parametrize("case", CONFIG_REFUSALS)
    def test_edited_config(self, tmp_path, capsys, monkeypatch, written_config, case):
        command, edits, error = self.CONFIG_REFUSALS[case]
        root, text = written_config
        monkeypatch.chdir(root)
        cfg = json.loads(text(command))
        if isinstance(edits, dict):
            assert set(edits) <= set(cfg)
            cfg.update(edits)
        else:
            cfg = edits
        p = tmp_path / "edited.json"
        p.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        assert run(command, "--config", str(p), "--out", str(out)) == 3
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not out.exists()  # not even an empty directory


# extreme but cheap inputs (steps <= 200, width <= 64, n <= 8): loss
# parameters whose constants or whose C_beta^2 overflow, or so small that
# a^2 or the lazy radius does, stepsizes at the ends of the float range,
# margins down to the smallest subnormal, a sweep given to ntk, and a rates
# plot whose eta * t * loss overflows
EXTREME_ARGVS = [
    *([command, "--loss", loss, "--a", a, *rest]
      for loss, avals in (("flat_exp", ("400", "709", "710", "1000", "inf")),
                          ("flat_poly", ("600", "1023", "1025", "1100", "inf")))
      for a in avals
      for command, rest in (("gd", ["--steps", "20"]),
                            ("bounds", ["--gamma", "0.1", "--eta", "1", "--t", "10"]),
                            ("check-loss", []))),
    ["gd", "--normalize", "--check-bounds", "--loss", "flat_exp", "--a", "400", "--steps", "20"],
    ["ntk", "--normalize", "--width", "64", "--loss", "flat_poly", "--a", "600",
     "--steps", "20"],
    *([command, "--eta", eta, *rest] for eta in ("1e308", "1e-320")
      for command, rest in (("gd", ["--steps", "20"]), ("sgd", ["--steps", "20"]),
                            ("ntk", ["--normalize", "--width", "64", "--steps", "20"]),
                            ("bounds", ["--gamma", "0.1", "--t", "10"]))),
    *(argv for gamma in ("1e-8", "1e-160", "5e-324")
      for argv in (["gd", "--dataset", "lower_bound", "--gamma", gamma, "--steps", "20"],
                   ["ntk", "--dataset", "lower_bound", "--gamma", gamma, "--width", "64",
                    "--steps", "20"],
                   ["bounds", "--gamma", gamma, "--eta", "1", "--t", "10"])),
    *([command, "--loss", loss, "--a", a, *rest]
      for loss in ("flat_exp", "flat_poly") for a in ("1e-153", "1e-155", "1e-162", "1e-300")
      for command, rest in (("gd", ["--steps", "200"]),
                            ("bounds", ["--gamma", "0.1", "--eta", "1", "--t", "10"]),
                            ("check-loss", []),
                            ("ntk", ["--normalize", "--width", "64", "--steps", "200"]),
                            ("ntk", ["--normalize", "--width-cap", "64", "--steps", "200"]))),
    ["ntk", "--eta", "1,2"],
    ["rates", "--loss", "flat_poly", "--a", "2", "--eta", "1e160", "--steps", "200"],
]


@pytest.mark.parametrize("argv", EXTREME_ARGVS, ids=" ".join)
def test_extreme_inputs_exit_cleanly(tmp_path, monkeypatch, capsys, argv):
    # success, the divergence guard or a refusal, never a traceback or a
    # numpy warning; a refusal is one error line and leaves no file
    monkeypatch.chdir(tmp_path)
    out = [] if argv[0] in ("bounds", "check-loss") else ["--out", "o"]
    code = run(*argv, *out)
    err = capsys.readouterr().err
    assert code in (0, 2, 3) and "Traceback" not in err, (code, err)
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    if code == 3:
        assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == []


CHECK = {"applicable", "passed", "residual", "witness"}


class TestJsonKeySets:
    """The exact key sets of the JSON reports, field by field."""

    @pytest.mark.parametrize("loss,exp_tail", [(["logistic"], CHECK),
                                               (["flat_poly", "--a", "2"], {"applicable"})])
    def test_check_loss(self, capsys, loss, exp_tail):
        assert run("check-loss", "--loss", *loss) == 0
        report = json.loads(capsys.readouterr().out)
        checks = {"convexity", "monotone", "lipschitz", "self_bounded_first",
                  "self_bounded_second"}
        assert set(report) == checks | {"exp_tail", "passed", "rho"}
        assert all(set(report[name]) == CHECK for name in checks)
        assert set(report["exp_tail"]) == exp_tail
        assert [set(row) for row in report["rho"]] == 4 * [
            {"lambda", "rho_exact", "rho_bound", "loss_at_sqrt_rho", "ok"}]

    def test_rates(self, tmp_path):
        assert run("rates", "--eta", "1,4", "--steps", "200", "--no-svg",
                   "--out", str(tmp_path)) == 0
        fits = json.loads((tmp_path / "rates.json").read_text())
        assert set(fits) == {"1", "4"}
        assert all(set(fit) == {"slope", "intercept", "window", "plateau", "plateau_cv",
                                "monotone_tail", "n_points"} for fit in fits.values())
        assert all(len(fit["window"]) == 2 for fit in fits.values())

    @pytest.mark.parametrize("argv", [["--steps", "12000"],
                                      ["--steps", "100", "--eta-override", "2"]],
                             ids=["scheduled", "override"])
    def test_accelerate(self, tmp_path, argv):
        assert run("accelerate", *argv, "--no-svg", "--out", str(tmp_path)) == 0
        score = json.loads((tmp_path / "accelerate.json").read_text())
        assert set(score) == {"eta_large", "loss_large_eta", "eta_small_best",
                              "loss_small_eta_best", "ratio", "bound"}

    def test_ntk_diagnostics(self, tmp_path):
        assert run("ntk", "--normalize", "--width", "8", "--steps", "20", "--no-svg",
                   "--out", str(tmp_path)) == 0
        diag = json.loads((tmp_path / "ntk_diagnostics.json").read_text())
        assert set(diag) == {"R", "max_dist", "lazy_ok", "width_min", "ntk_margin_hat",
                             "width", "width_capped"}

    def test_gd_phase(self, tmp_path):
        assert run("gd", "--eta", "8", "--steps", "50", "--no-svg",
                   "--out", str(tmp_path)) == 0
        phase = json.loads((tmp_path / "gd_eta8_phase.json").read_text())
        assert set(phase) == {"s_empirical", "s_theory", "tau_bound", "criterion_value"}


class TestSgd:
    def test_env_var_default_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EOS_LAB_SEED", "42")
        out = tmp_path / "env"
        assert run("sgd", "--dataset", "toy", "--eta", "2", "--steps", "50",
                   "--out", str(out)) == 0
        assert (out / "sgd_eta2_seed42.csv").exists()
        cfg = json.loads((out / "config.json").read_text())
        assert cfg["seed"] == 42


class TestNtk:
    def test_auto_width_runs_capped(self, tmp_path):
        out = tmp_path / "ntk"
        assert run("ntk", "--dataset", "toy", "--normalize", "--width", "auto",
                   "--width-cap", "256", "--eta", "1", "--steps", "60",
                   "--seed", "3", "--out", str(out)) == 0
        diag = json.loads((out / "ntk_diagnostics.json").read_text())
        assert diag["width"] == 256 and diag["width_capped"]
        assert diag["width_min"] > 1e10
        assert diag["lazy_ok"] is True
        assert (out / "ntk.csv").exists() and (out / "ntk_phase.json").exists()

    def test_explicit_width(self, tmp_path):
        out = tmp_path / "ntk2"
        assert run("ntk", "--dataset", "toy", "--normalize", "--width", "64",
                   "--eta", "1", "--steps", "40", "--seed", "0",
                   "--out", str(out)) == 0
        diag = json.loads((out / "ntk_diagnostics.json").read_text())
        assert diag["width"] == 64 and not diag["width_capped"]
        assert diag["ntk_margin_hat"] > 0

    @pytest.mark.parametrize("argv", [
        ("--width", "64", "--steps", "40", "--seed", "2"),
        ("--width", "2", "--steps", "30", "--eta", "8", "--delta", "0.5",
         "--loss", "flat_exp", "--a", "1.5"),
    ], ids=["logistic", "narrow-flat_exp"])
    def test_diagnostics_values(self, tmp_path, argv):
        # R and width_min are the bounds of the run's own arguments, and
        # max_dist the largest distance from w_0 that ntk.csv records
        out = tmp_path / "ntk"
        assert run("ntk", "--normalize", *argv, "--no-svg", "--out", str(out)) == 0
        cfg = json.loads((out / "config.json").read_text())
        diag = json.loads((out / "ntk_diagnostics.json").read_text())
        loss = losses.loss_from_json(cfg["loss"])
        ds = data.dataset_from_json(cfg["dataset"])
        given = (loss, data.margin(ds).gamma, cfg["eta"], cfg["steps"], ds.n, cfg["delta"])
        assert diag["R"] == bounds.lazy_radius(*given)
        assert diag["width_min"] == bounds.width_min(*given)
        lines = (out / "ntk.csv").read_text().splitlines()
        column = lines[0].split(",").index("dist_init")
        assert diag["max_dist"] == max(float(row.split(",")[column]) for row in lines[1:])
        assert diag["lazy_ok"] is (diag["max_dist"] <= diag["R"])


class TestAccelerate:
    def test_feasible_budget_summary(self, tmp_path):
        out = tmp_path / "acc"
        assert run("accelerate", "--dataset", "toy", "--steps", "12000",
                   "--out", str(out)) == 0
        summary = json.loads((out / "accelerate.json").read_text())
        assert summary["ratio"] < 1.0
        assert summary["loss_large_eta"] <= summary["bound"]

    def test_eta_override(self, tmp_path):
        out = tmp_path / "ablate"
        assert run("accelerate", "--dataset", "toy", "--steps", "100",
                   "--eta-override", "2.0", "--out", str(out)) == 0
        summary = json.loads((out / "accelerate.json").read_text())
        assert summary["eta_large"] == 2.0
        assert summary["ratio"] is None

    @pytest.mark.parametrize("argv,etas", [
        (("--steps", "12000"), 2),
        (("--steps", "100", "--eta-override", "2.0"), 1),
    ], ids=["scheduled", "override"])
    def test_each_run_made_once(self, tmp_path, monkeypatch, argv, etas):
        # the CSVs come from the runs the score was computed from; a run is
        # made by run_gd or as one stepsize of a run_gd_batch
        calls = []
        real, real_batch = descent.run_gd, descent.run_gd_batch

        def counting(ds, loss, eta, *args, **kwargs):
            calls.append(eta)
            return real(ds, loss, eta, *args, **kwargs)

        def counting_batch(ds, loss, etas, *args, **kwargs):
            calls.extend(etas)
            return real_batch(ds, loss, etas, *args, **kwargs)

        monkeypatch.setattr(descent, "run_gd", counting)
        monkeypatch.setattr(analysis, "run_gd_batch", counting_batch)
        out = tmp_path / "acc"
        assert run("accelerate", "--dataset", "toy", *argv, "--out", str(out)) == 0
        summary = json.loads((out / "accelerate.json").read_text())
        assert len(calls) == etas == len(set(calls))
        assert summary["eta_large"] in calls


class TestRates:
    def test_fit_output(self, tmp_path):
        out = tmp_path / "rates"
        assert run("rates", "--dataset", "toy", "--eta", "8", "--steps",
                   "3000", "--tail-fraction", "0.5", "--out", str(out)) == 0
        fits = json.loads((out / "rates.json").read_text())
        assert "8" in fits and -1.3 < fits["8"]["slope"] < -0.6
        assert (out / "rates.svg").exists()


class TestBoundsCommand:
    def test_overflowing_width_row_is_inf(self, capsys):
        # no float width suffices: the row applies, with the value inf
        assert run("bounds", "--gamma", "1e-60", "--eta", "1", "--t", "10") == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        [row] = [l for l in lines if l["name"] == "width_min"]
        assert row["applicable"] and row["value"] == math.inf
        assert row["precondition_note"] == ""

    @pytest.mark.parametrize("argv,row,note", [
        ("--gamma 0.1 --eta 1e160 --t 100", "eos_avg", "(34, 'Numerical result out of range')"),
        ("--gamma 1e-200 --eta 1 --t 100", "tau_logistic", "float division by zero"),
    ])
    def test_float_failure_row_not_applicable(self, capsys, argv, row, note):
        assert run("bounds", *argv.split()) == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        [got] = [l for l in lines if l["name"] == row]
        assert not got["applicable"] and math.isnan(got["value"])
        assert got["precondition_note"] == note

    def test_tau_beyond_every_float_is_inf(self, tmp_path):
        # tau_general's lambda = psi^-1(eta + n) overflows a float
        out = tmp_path / "o"
        assert run("gd", "--loss", "flat_poly", "--a", "2", "--eta", "1e200",
                   "--steps", "10", "--out", str(out)) == 0
        assert json.loads((out / "gd_eta1e+200_phase.json").read_text())["tau_bound"] == math.inf


# `eos-lab bounds` argument lists; tests/golden/bounds_<k>.jsonl holds the
# exact stdout of the k-th (1-based).  The first eight were captured from
# the hand-built reports that bounds.BOUNDS replaced; in the last two one
# row's formula rejects its inputs (regime at T < 3, vc at delta = 1), and
# that row alone is reported not applicable
BOUNDS_GOLDEN = [
    "--gamma 0.2 --eta 8 --t 100 --n 4 --T 12000 --d 2",
    "--gamma 0.2 --eta 8 --t 100 --n 4 --T 12000 --d 2 --s 40 --F-s 0.5",
    "--gamma 0.05 --eta 1 --t 10 --n 4",
    "--gamma 0.5 --eta 4 --t 1000 --s 999",
    "--gamma 0.3 --eta 2 --t 500 --n 10 --delta 1",
    "--loss flat_exp --a 1.5 --gamma 0.3 --eta 2 --t 500 --n 10 --s 100 --T 2000 "
    "--C1 2 --C2 3 --C-a 0.5",
    "--loss flat_poly --a 2 --gamma 0.3 --eta 2 --t 500 --n 10 --s 100 --d 5",
    "--loss flat_poly --a 0.5 --gamma 0.1 --eta 1 --t 10 --n 3",
    "--gamma 0.2 --eta 8 --t 2",
    "--gamma 0.2 --eta 8 --t 100 --d 2 --delta 1",
]
GOLDEN_DIR = Path(__file__).parent / "golden"


class TestBoundsGolden:
    @pytest.mark.parametrize("k", range(1, len(BOUNDS_GOLDEN) + 1))
    def test_stdout_byte_identical(self, k, capsys):
        assert run("bounds", *BOUNDS_GOLDEN[k - 1].split()) == 0
        expected = (GOLDEN_DIR / f"bounds_{k}.jsonl").read_text(encoding="utf-8")
        assert capsys.readouterr().out == expected


class TestSvgSelfContained:
    def test_no_external_references(self, tmp_path):
        out = tmp_path / "r"
        run("gd", "--dataset", "toy", "--eta", "8", "--steps", "100",
            "--out", str(out))
        svg = (out / "gd_loss.svg").read_text()
        assert "http://www.w3.org/2000/svg" in svg
        for token in ("href", "url(", "<image", "<script"):
            assert token not in svg


@pytest.mark.parametrize("module", ["eoslab"] + [
    f"eoslab.{m.name}" for m in pkgutil.iter_modules(eoslab.__path__)])
def test_public_names_resolve(module):
    # the benchmark's tracer wraps every name in __all__ by getattr
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


SOURCES = (sorted(Path(eoslab.__file__).parent.glob("*.py"))
           + sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py")))


def _loaded_names(node, inside=frozenset()):
    """Names and attributes that ``node`` loads, leaving out a definition's
    own name within its body."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        inside = inside | {node.name}
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        if node.id not in inside:
            yield node.id
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        if node.attr not in inside:
            yield node.attr
    for child in ast.iter_child_nodes(node):
        yield from _loaded_names(child, inside)


@functools.cache
def _loaded_by_the_program() -> frozenset:
    """Every name and attribute that a module of eoslab or a demo loads."""
    return frozenset(name for path in SOURCES for name in
                     _loaded_names(ast.parse(path.read_text(encoding="utf-8"))))


def test_exported_names_are_used_by_the_program():
    # a name in a module's __all__ that no module or demo loads is kept in
    # the product for the tests only; such code belongs in tests/_oracles.py
    unused = sorted(name for m in pkgutil.iter_modules(eoslab.__path__)
                    for name in importlib.import_module(f"eoslab.{m.name}").__all__
                    if name not in _loaded_by_the_program())
    assert unused == []


def test_oracles_are_used_by_the_tests():
    # every top-level function or class of tests/_oracles.py is loaded by a
    # test module or by another oracle: no reference outlives its tests
    tests = Path(__file__).resolve().parent
    oracles = ast.parse((tests / "_oracles.py").read_text(encoding="utf-8"))
    loaded = set(_loaded_names(oracles)).union(*(
        _loaded_names(ast.parse(path.read_text(encoding="utf-8")))
        for path in tests.glob("test_*.py")))
    unused = sorted(node.name for node in oracles.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name not in loaded)
    assert unused == []


def test_public_members_are_used_by_the_program():
    # the same for a public method or property of a class of eoslab: one
    # that no module or demo loads is kept for the tests only
    unused = sorted(f"{cls.name}.{fn.name}"
                    for path in sorted(Path(eoslab.__file__).parent.glob("*.py"))
                    for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                    if isinstance(cls, ast.ClassDef)
                    for fn in cls.body
                    if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not fn.name.startswith("_")
                    and fn.name not in _loaded_by_the_program())
    assert unused == []
