"""The eos-lab command line: files produced, exit codes, embedded-config
reproducibility, and SVG well-formedness."""

import ast
import functools
import importlib
import inspect
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
    def test_produces_trajectory_phase_and_svg(self, tmp_path):
        out = tmp_path / "runs"
        assert run("gd", "--dataset", "toy", "--eta", "8", "--steps", "300",
                   "--out", str(out)) == 0
        assert (out / "gd_eta8.csv").exists()
        assert (out / "gd_eta8_phase.json").exists()
        assert (out / "gd_loss.svg").exists()
        assert (out / "config.json").exists()

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

    def test_rerun_from_embedded_config_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("gd", "--dataset", "toy", "--normalize", "--eta", "2,8",
                   "--steps", "400", "--out", str(a)) == 0
        assert run("gd", "--config", str(a / "config.json"),
                   "--out", str(b)) == 0
        for name in ("gd_eta2.csv", "gd_eta8.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_unknown_config_keys_rejected(self, tmp_path):
        cfg = {"command": "gd", "dataset": {"kind": "toy"}, "loss":
               {"kind": "logistic"}, "eta": [1.0], "steps": 10,
               "surprise": True}
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(cfg))
        assert run("gd", "--config", str(p), "--out", str(tmp_path / "o")) == 3

    def test_missing_config_key_rejected(self, tmp_path):
        cfg = {"command": "gd", "dataset": {"kind": "toy"},
               "loss": {"kind": "logistic"}, "steps": 10}  # no eta
        p = tmp_path / "missing.json"
        p.write_text(json.dumps(cfg))
        assert run("gd", "--config", str(p), "--out", str(tmp_path / "m")) == 3

    def test_divergence_exit_code(self, tmp_path):
        # a huge stepsize under the flattened polynomial loss on a
        # non-separable CSV trips the guard
        csv = tmp_path / "conflict.csv"
        csv.write_text("1,1.0\n-1,0.3\n")
        rc = run("gd", "--dataset", "csv", "--path", str(csv),
                 "--loss", "flat_poly", "--a", "2", "--eta", "1e6",
                 "--steps", "5000", "--out", str(tmp_path / "d"))
        assert rc == 2

    def test_divergence_in_a_sweep_stops_the_writes(self, tmp_path, capsys):
        # the batch runs all three stepsizes; files are still written in
        # stepsize order up to the first divergence
        csv = tmp_path / "conflict.csv"
        csv.write_text("1,1.0\n-1,0.3\n")
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
        csv.write_text("1,1.0\n-1,0.3\n")
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

    def test_validation_exit_code(self, tmp_path):
        rc = run("gd", "--dataset", "csv", "--path", str(tmp_path / "nope.csv"),
                 "--eta", "1", "--steps", "10", "--out", str(tmp_path / "v"))
        assert rc == 3

    def test_nan_feature_exit_code_names_file(self, tmp_path, capsys):
        csv = tmp_path / "holes.csv"
        csv.write_text("1,0.5,0.25\n-1,nan,1.0\n")
        rc = run("gd", "--dataset", "csv", "--path", str(csv),
                 "--eta", "1", "--steps", "10", "--out", str(tmp_path / "h"))
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(csv) in err

    @pytest.mark.parametrize("normalize", [[], ["--normalize"]], ids=["raw", "normalized"])
    @pytest.mark.parametrize("rows", ["1,1.5e154,1\n-1,-1.5e154,1\n",
                                      "1,1e-320,1e-320\n-1,-1e-320,1e-320\n"],
                             ids=["huge", "tiny"])
    def test_out_of_scale_features_refused(self, tmp_path, capsys, rows, normalize):
        # row norms overflow (or underflow) here: refused before any write,
        # not run as a non-separable (or all-zero) set
        csv = tmp_path / "scale.csv"
        csv.write_text(rows)
        out = tmp_path / "s"
        assert run("gd", "--dataset", "csv", "--path", str(csv), *normalize,
                   "--steps", "5", "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {csv}: the largest |feature|") and err.count("\n") == 1
        assert not out.exists()

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

    @pytest.mark.parametrize("argv", [
        ("--normalize", "--eta", "8", "--steps", "300", "--record-every", "10"),
        ("--dataset", "csv", "--path", "conflict.csv", "--eta", "1", "--steps", "100"),
    ], ids=["sparse-recording", "no-certified-margin"])
    def test_check_bounds_refused_when_it_cannot_check(self, tmp_path, capsys,
                                                      monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "conflict.csv").write_text("1,1.0\n-1,0.3\n")
        out = tmp_path / "cb"
        assert run("gd", *argv, "--check-bounds", "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: --check-bounds needs") and err.count("\n") == 1
        assert files_in(out) == []

    @pytest.mark.parametrize("source", ["flag", "config-svg", "config-no-svg"])
    def test_empty_stepsize_list_rejected(self, tmp_path, capsys, source):
        out = tmp_path / "e"
        if source == "flag":
            argv = ["gd", "--eta", ","]
        else:
            cfg = {"command": "gd", "dataset": {"kind": "toy"},
                   "loss": {"kind": "logistic"}, "eta": [], "steps": 10,
                   "record_every": 1, "check_bounds": False,
                   "svg": source == "config-svg"}
            p = tmp_path / "empty.json"
            p.write_text(json.dumps(cfg))
            argv = ["gd", "--config", str(p)]
        assert run(*argv, "--out", str(out)) == 3
        assert capsys.readouterr().err == "error: at least one stepsize is required\n"
        assert files_in(out) == []

    @pytest.mark.parametrize("source,unset", [("flag", "d"), ("config", "d"),
                                              ("config", "n")])
    def test_synthetic_without_shape_rejected(self, tmp_path, capsys, source, unset):
        out = tmp_path / "s"
        if source == "flag":
            argv = ["gd", "--dataset", "synthetic", "--n", "20", "--steps", "5"]
        else:
            dataset = {"kind": "synthetic", "n": 20, "d": 3, "gamma": 0.1, "seed": 0}
            cfg = {"command": "gd", "dataset": dict(dataset, **{unset: None}),
                   "loss": {"kind": "logistic"}, "eta": [1.0], "steps": 5,
                   "record_every": 1, "check_bounds": False, "svg": True}
            p = tmp_path / "synthetic.json"
            p.write_text(json.dumps(cfg))
            argv = ["gd", "--config", str(p)]
        assert run(*argv, "--out", str(out)) == 3
        assert capsys.readouterr().err == f"error: synthetic dataset needs a value for {unset}\n"
        assert files_in(out) == []

    @pytest.mark.parametrize("cfg,error", [
        ([], "error: a config must be a JSON object, not []\n"),
        ({"steps": [1]}, "error: config key 'steps' must be a number, not [1]\n"),
        ({"eta": [1.0, "x"]},
         "error: config key 'eta' must be a number list, not [1.0, \"x\"]\n"),
        ({"steps": 50.7}, 'error: "steps" of the config must be an integer, not 50.7\n'),
        ({"record_every": 1.9},
         'error: "record_every" of the config must be an integer, not 1.9\n'),
        ({"command": "ntk", "seed": 1.5},
         'error: "seed" of the config must be an integer, not 1.5\n'),
        ({"command": "ntk", "width": 8.9},
         'error: "width" of the config must be an integer, not 8.9\n'),
        ({"command": "ntk", "width": "8"},
         'error: "width" of the config must be a number, not "8"\n'),
        ({"command": "ntk", "width_cap": 7.5},
         'error: "width_cap" of the config must be an integer, not 7.5\n'),
    ], ids=["not-an-object", "steps-list", "eta-item-not-a-number", "steps-fraction",
            "record-every-fraction", "ntk-seed-fraction", "ntk-width-fraction",
            "ntk-width-string", "ntk-width-cap-fraction"])
    def test_config_of_the_wrong_type_rejected(self, tmp_path, capsys, cfg, error):
        command = "gd"
        if isinstance(cfg, dict):
            command = cfg.pop("command", "gd")
            base = {"command": "gd", "dataset": {"kind": "toy"},
                    "loss": {"kind": "logistic"}, "eta": [1.0], "steps": 10,
                    "record_every": 1, "check_bounds": False, "svg": True}
            if command == "ntk":
                base = {"command": "ntk", "dataset": {"kind": "toy", "normalize": "max"},
                        "loss": {"kind": "logistic"}, "eta": 1.0, "steps": 10, "delta": 0.1,
                        "seed": 0, "width": 8, "width_cap": 4096, "svg": True}
            cfg = dict(base, **cfg)
        p = tmp_path / "typed.json"
        p.write_text(json.dumps(cfg))
        out = tmp_path / "t"
        assert run(command, "--config", str(p), "--out", str(out)) == 3
        assert capsys.readouterr().err == error
        assert files_in(out) == []


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
# JSON where the run is dense and the margin certified, and its violations
# CSV under --check-bounds
FILE_SETS = {
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
    (tmp_path / "conflict.csv").write_text("1,1.0\n-1,0.3\n")
    argv, names = FILE_SETS[case]
    assert run(*argv, "--out", "out") == 0
    assert files_in(tmp_path / "out") == names


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


class TestRunOptionDomains:
    """An out-of-domain run option exits 3 with one error line before any
    file is written."""

    def refused(self, capsys, out, *argv):
        assert run(*argv, "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not out.exists()  # not even an empty directory
        return err

    @pytest.mark.parametrize("eta", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize("command", ["gd", "sgd", "rates", "ntk", "accelerate"])
    def test_stepsize_flag(self, tmp_path, capsys, command, eta):
        flag = "--eta-override" if command == "accelerate" else "--eta"
        width = ["--width", "8"] if command == "ntk" else []
        self.refused(capsys, tmp_path / "o", command, f"{flag}={eta}", "--steps", "5", *width)

    @pytest.mark.parametrize("command", ["gd", "ntk"])
    def test_stepsize_in_config(self, tmp_path, capsys, command):
        argv = RUN_COMMANDS[command][0]
        first = tmp_path / "first"
        assert run(*argv, "--out", str(first)) == 0
        cfg = json.loads((first / "config.json").read_text())
        cfg["eta"] = [-1.0] if command == "gd" else -1.0
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(cfg))
        err = self.refused(capsys, tmp_path / "o", command, "--config", str(p))
        assert err == "error: a stepsize must be positive and finite, not -1\n"

    def test_zero_synthetic_gamma(self, tmp_path, capsys):
        err = self.refused(capsys, tmp_path / "o", "gd", "--dataset", "synthetic",
                           "--n", "20", "--d", "3", "--gamma", "0", "--steps", "5")
        assert err == "error: gamma must lie in (0, 1)\n"

    @pytest.mark.parametrize("delta", ["0", "2"])
    def test_ntk_delta(self, tmp_path, capsys, delta):
        err = self.refused(capsys, tmp_path / "o", "ntk", "--delta", delta,
                           "--width", "8", "--steps", "5")
        assert err == "error: delta must be in (0, 1]\n"

    def test_rates_tail_fraction(self, tmp_path, capsys):
        err = self.refused(capsys, tmp_path / "o", "rates", "--tail-fraction", "0.95",
                           "--steps", "50")
        assert err == "error: tail_fraction must lie in (0, 0.9]\n"

    @pytest.mark.parametrize("argv", [
        ("gd", "--steps", "0"), ("sgd", "--steps", "0"), ("rates", "--steps", "0"),
        ("ntk", "--width", "8", "--steps", "0"), ("accelerate", "--steps", "0"),
        ("gd", "--record-every", "0"),
    ], ids=["gd", "sgd", "rates", "ntk", "accelerate", "gd-record-every"])
    def test_step_counts(self, tmp_path, capsys, argv):
        err = self.refused(capsys, tmp_path / "o", *argv)
        assert err == f"error: {argv[-2][2:].replace('-', '_')} must be >= 1\n"

    @pytest.mark.parametrize("argv", [("sgd",), ("ntk", "--width", "8")],
                             ids=["sgd", "ntk"])
    def test_negative_seed_flag(self, tmp_path, capsys, argv):
        err = self.refused(capsys, tmp_path / "o", *argv, "--seed=-1", "--steps", "5")
        assert err == "error: seed must be >= 0\n"

    def test_negative_env_seed(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("EOS_LAB_SEED", "-3")
        err = self.refused(capsys, tmp_path / "o", "sgd", "--steps", "5")
        assert err == "error: EOS_LAB_SEED must be an integer >= 0, not '-3'\n"

    @pytest.mark.parametrize("value", ["abc", "-2"])
    @pytest.mark.parametrize("argv", [("sgd",), ("ntk", "--width", "8")],
                             ids=["sgd", "ntk"])
    def test_bad_env_seed_is_named(self, tmp_path, capsys, monkeypatch, argv, value):
        monkeypatch.setenv("EOS_LAB_SEED", value)
        err = self.refused(capsys, tmp_path / "o", *argv, "--steps", "5")
        assert err == f"error: EOS_LAB_SEED must be an integer >= 0, not {value!r}\n"

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

    def test_negative_seed_in_config(self, tmp_path, capsys):
        first = tmp_path / "first"
        assert run(*RUN_COMMANDS["sgd"][0], "--out", str(first)) == 0
        cfg = json.loads((first / "config.json").read_text())
        cfg["seed"] = -5
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(cfg))
        err = self.refused(capsys, tmp_path / "o", "sgd", "--config", str(p))
        assert err == "error: seed must be >= 0\n"

    SYNTHETIC = ("gd", "--dataset", "synthetic", "--n", "10", "--d", "3", "--steps", "5")

    def test_negative_data_seed_flag(self, tmp_path, capsys):
        err = self.refused(capsys, tmp_path / "o", *self.SYNTHETIC, "--data-seed=-1")
        assert err == 'error: --data-seed (the dataset\'s "seed") must be >= 0\n'

    def test_negative_data_seed_in_config(self, tmp_path, capsys):
        first = tmp_path / "first"
        assert run(*self.SYNTHETIC, "--out", str(first)) == 0
        cfg = json.loads((first / "config.json").read_text())
        cfg["dataset"]["seed"] = -1
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(cfg))
        err = self.refused(capsys, tmp_path / "o", "gd", "--config", str(p))
        assert err == 'error: --data-seed (the dataset\'s "seed") must be >= 0\n'

    @pytest.mark.parametrize("argv,part,key,value,error", [
        (("gd", "--loss", "flat_exp", "--a", "2", "--steps", "5"), "loss", "a", None,
         '"a" of a flat_exp loss must be a number, not null'),
        (("gd", "--loss", "flat_exp", "--a", "2", "--steps", "5"), "loss", "a", True,
         '"a" of a flat_exp loss must be a number, not true'),
        (SYNTHETIC, "dataset", "seed", 2.5,
         '"seed" of a synthetic dataset must be an integer, not 2.5'),
        (SYNTHETIC, "dataset", "seed", True,
         '"seed" of a synthetic dataset must be a number, not true'),
        (SYNTHETIC, "dataset", "seed", "3",
         '"seed" of a synthetic dataset must be a number, not "3"'),
        (SYNTHETIC, "dataset", "gamma", "0.1",
         '"gamma" of a synthetic dataset must be a number, not "0.1"'),
    ], ids=["a-null", "a-true", "seed-2.5", "seed-true", "seed-str", "gamma-str"])
    def test_descriptor_number_in_config(self, tmp_path, capsys, argv, part, key, value,
                                         error):
        # a descriptor's number must be a JSON number, and the seed a whole
        # one: none is coerced into a run that its config.json misstates
        first = tmp_path / "first"
        assert run(*argv, "--out", str(first)) == 0
        cfg = json.loads((first / "config.json").read_text())
        cfg[part][key] = value
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(cfg))
        err = self.refused(capsys, tmp_path / "o", argv[0], "--config", str(p))
        assert err == f"error: {error}\n"

    @pytest.mark.parametrize("argv,points", [
        (("--steps", "30"), 15), (("--steps", "200", "--tail-fraction", "0.05"), 10),
    ], ids=["short-run", "short-tail"])
    def test_rates_tail_window(self, tmp_path, capsys, argv, points):
        err = self.refused(capsys, tmp_path / "o", "rates", *argv)
        assert err == f"error: tail window has {points} points; need >= 20\n"

    def test_rates_run_too_short_to_fit(self, tmp_path, capsys):
        # the eta=1000 run's loss underflows to 0 within a few steps, so only
        # the finished run shows that its tail window is too short
        err = self.refused(capsys, tmp_path / "o", "rates", "--normalize", "--loss",
                           "flat_exp", "--a", "50", "--eta", "1000,1", "--steps", "100")
        assert err == "error: tail window has 1 points; need >= 20\n"

    def test_accelerate_non_separable(self, tmp_path, capsys):
        csv = tmp_path / "flat.csv"
        csv.write_text("1,1,0\n-1,1,0\n")
        err = self.refused(capsys, tmp_path / "o", "accelerate", "--dataset", "csv",
                           "--path", str(csv))
        assert "hull contains the origin" in err

    def test_accelerate_infeasible_budget(self, tmp_path, capsys):
        err = self.refused(capsys, tmp_path / "o", "accelerate", "--steps", "100")
        assert "12000" in err and "gamma" in err

    def test_ntk_width_overflow(self, tmp_path):
        # the sufficient width's power overflows a float: it is inf, as where
        # the lazy radius is inf, and the run at its given width goes ahead
        out = tmp_path / "o"
        assert run("ntk", "--dataset", "lower_bound", "--gamma", "1e-60", "--width", "8",
                   "--steps", "5", "--out", str(out)) == 0
        text = (out / "ntk_diagnostics.json").read_text()
        assert '"width_min": Infinity' in text
        assert math.isfinite(json.loads(text)["R"])

    @pytest.mark.parametrize("command,etas,shared", [
        ("gd", "1.0000001,1.0000002", "1.0000001 and 1.0000002 share the label '1'"),
        ("sgd", "1.0000001,1.0000002", "1.0000001 and 1.0000002 share the label '1'"),
        ("rates", "8.0000001,8.0000002", "8.0000001 and 8.0000002 share the label '8'"),
        ("gd", "2,0.5,2", "2.0 and 2.0 share the label '2'")],
        ids=["gd", "sgd", "rates", "gd-repeated"])
    def test_stepsizes_sharing_a_label(self, tmp_path, capsys, command, etas, shared):
        # a stepsize's files (and its rates.json key) are named by its label,
        # so a second stepsize of the same label would overwrite the first
        err = self.refused(capsys, tmp_path / "o", command, "--eta", etas, "--steps", "100")
        assert err == f"error: stepsizes {shared} that names their files\n"

    @pytest.mark.parametrize("key,value,error", [
        ("eta", [1.0000001, 1.0000002],
         "stepsizes 1.0000001 and 1.0000002 share the label '1' that names their files"),
        ("dataset", {"kind": "toy", "normalize": "min"},
         'a dataset\'s "normalize" must be "max", not \'min\''),
        ("dataset", {"kind": "toy", "n": 5}, "unknown keys of a toy dataset: ['n']"),
        ("loss", {"kind": "logistic", "a": 2.0, "zzz": 1},
         "unknown keys of a logistic loss: ['a', 'zzz']"),
    ], ids=["eta-shared-label", "normalize-min", "toy-n", "logistic-a-zzz"])
    def test_refused_by_its_reader_in_config(self, tmp_path, capsys, key, value, error):
        # the code that reads a config value refuses what it would not act on
        first = tmp_path / "first"
        assert run("gd", "--eta", "2", "--steps", "5", "--out", str(first)) == 0
        cfg = json.loads((first / "config.json").read_text())
        cfg[key] = value
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(cfg))
        err = self.refused(capsys, tmp_path / "o", "gd", "--config", str(p))
        assert err == f"error: {error}\n"

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

    def test_ntk_takes_one_stepsize(self, tmp_path, capsys):
        err = self.refused(capsys, tmp_path / "o", "ntk", "--eta", "1,2", "--width", "8",
                           "--steps", "5")
        assert err == "error: ntk runs one stepsize, not the 2 of --eta 1,2\n"

    # --config files with two faults each: the refusal names the one that
    # its runner checks first (check-bounds and record_every, then the loss,
    # then the certificate, then the stepsizes), and no file is written
    CONFLICT = {"kind": "csv", "path": "conflict.csv"}  # its hull holds the origin
    HULL = "conflict: the signed-sample hull contains the origin (min-norm point has norm 0.000e+00)"
    FLAT_EXP_0 = {"kind": "flat_exp", "a": 0}

    @pytest.mark.parametrize("command,edits,error", [
        ("gd", dict(check_bounds=True, record_every=2, eta=[0]),
         "--check-bounds needs every step recorded (--record-every 1)"),
        ("gd", dict(check_bounds=True, dataset=CONFLICT, eta=[0]),
         f"--check-bounds needs a certified margin: {HULL}"),
        ("gd", dict(loss=FLAT_EXP_0, eta=[0]), "flat_exp requires a finite a > 0, not 0.0"),
        ("gd", dict(eta=[3, 3.0000001, 0]),
         "stepsizes 3.0 and 3.0000001 share the label '3' that names their files"),
        # without --check-bounds a gd run goes ahead on a set it cannot certify
        ("gd", dict(dataset=CONFLICT, eta=[]), "at least one stepsize is required"),
        ("sgd", dict(dataset=CONFLICT, eta=[0]), HULL),
        ("rates", dict(tail_fraction=0.95, eta=[0]), "tail_fraction must lie in (0, 0.9]"),
        ("rates", dict(loss=FLAT_EXP_0, tail_fraction=0.95),
         "flat_exp requires a finite a > 0, not 0.0"),
    ], ids=["gd-record-every", "gd-uncertified", "gd-loss", "gd-label", "gd-empty",
            "sgd-uncertified", "rates-tail", "rates-loss"])
    def test_refusal_order_in_config(self, tmp_path, capsys, monkeypatch, command, edits,
                                     error):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "conflict.csv").write_text("1,1.0\n-1,0.3\n")
        first = tmp_path / "first"
        assert run(*RUN_COMMANDS[command][0], "--out", str(first)) == 0
        cfg = json.loads((first / "config.json").read_text())
        assert set(edits) <= set(cfg)
        cfg.update(edits)
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(cfg))
        err = self.refused(capsys, tmp_path / "o", command, "--config", str(p))
        assert err == f"error: {error}\n"


# extreme but cheap inputs (steps <= 200, width <= 64, n <= 8): loss
# parameters whose constants or whose C_beta^2 overflow, or so small that
# a^2 or the lazy radius does, stepsizes at the ends of the float range,
# margins down to the smallest subnormal, and a sweep given to ntk
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
]


@pytest.mark.parametrize("argv", EXTREME_ARGVS, ids=" ".join)
def test_extreme_inputs_exit_cleanly(tmp_path, monkeypatch, capsys, argv):
    # success, the divergence guard or a refusal, never a traceback; a
    # refusal is one error line and leaves no file
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
    def test_files_and_seed_stability(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("sgd", "--dataset", "toy", "--eta", "2", "--steps",
                       "500", "--seed", "11", "--out", str(out)) == 0
        assert (a / "sgd_eta2_seed11.csv").read_bytes() == \
               (b / "sgd_eta2_seed11.csv").read_bytes()
        header = (a / "sgd_eta2_seed11.csv").read_text().splitlines()[0]
        assert header.endswith("zero_one")

    def test_env_var_default_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EOS_LAB_SEED", "42")
        out = tmp_path / "env"
        assert run("sgd", "--dataset", "toy", "--eta", "2", "--steps", "50",
                   "--out", str(out)) == 0
        assert (out / "sgd_eta2_seed42.csv").exists()
        cfg = json.loads((out / "config.json").read_text())
        assert cfg["seed"] == 42

    @pytest.mark.parametrize("command", ["sgd", "ntk"])
    def test_invalid_env_seed_exit_code(self, tmp_path, monkeypatch, command):
        monkeypatch.setenv("EOS_LAB_SEED", "abc")
        out = tmp_path / "bad"
        assert run(command, "--steps", "5", "--out", str(out)) == 3
        assert files_in(out) == []


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
        assert (out / "accelerate_large.csv").exists()
        assert (out / "accelerate_baseline.csv").exists()

    def test_infeasible_budget_exit_and_message(self, tmp_path, capsys):
        rc = run("accelerate", "--dataset", "toy", "--steps", "100",
                 "--out", str(tmp_path / "acc"))
        assert rc == 3
        err = capsys.readouterr().err
        assert "12000" in err and "gamma" in err

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
    def test_json_lines(self, capsys):
        assert run("bounds", "--loss", "logistic", "--gamma", "0.2",
                   "--eta", "8", "--t", "100", "--n", "4", "--d", "2",
                   "--T", "12000") == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        names = {l["name"] for l in lines}
        assert {"eos_avg_logistic", "tau_logistic", "acceleration_plan",
                "lazy_radius", "width_min", "vc", "regime"} <= names
        eos = next(l for l in lines if l["name"] == "eos_avg_logistic")
        assert eos["value"] == pytest.approx(0.9066, abs=5e-4)

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

    @pytest.mark.parametrize("argv", [
        "--loss flat_poly --a 2 --gamma -0.5 --eta 1 --t 100",
        "--loss flat_exp --a 1 --gamma 0.5 --eta 1 --t 100 --delta 1.5",
        "--loss flat_poly --a 2 --gamma 0.5 --eta -1 --t 100",
        "--loss flat_poly --a 2 --gamma 0.5 --eta 1 --t 100 --n 0",
        "--gamma 0.2 --eta 8 --t 100 --T 0",
        "--gamma 0.2 --eta 8 --t 0",
        "--gamma 0.2 --eta 8 --t 100 --delta 0",
        "--gamma 0.1 --eta inf --t 100",
        "--gamma 0.1 --eta 1 --t 100 --C1 nan",
        "--gamma inf --eta 1 --t 100",
        "--gamma 0.2 --eta 8 --t 100 --C-a -50",
        "--gamma 0.2 --eta 8 --t 100 --s 40 --F-s -500",
        "--gamma 0.2 --eta 8 --t 100 --C1 -1",
        "--gamma 0.2 --eta 8 --t 100 --C2 -1",
        "--gamma 0.2 --eta 8 --t 100 --d -5",
        "--gamma 0.2 --eta 8 --t 100 --s -50",
    ])
    def test_out_of_domain_exit_code(self, argv, capsys):
        assert run("bounds", *argv.split()) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: need ")


class TestCheckLoss:
    def test_logistic_passes(self, capsys):
        assert run("check-loss", "--loss", "logistic") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] and report["exp_tail"]["applicable"]

    def test_flat_poly_exp_tail_not_applicable(self, capsys):
        assert run("check-loss", "--loss", "flat_poly", "--a", "2") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] and not report["exp_tail"]["applicable"]

    def test_invalid_parameter_exit(self):
        assert run("check-loss", "--loss", "flat_exp", "--a", "0") == 3

    @pytest.mark.parametrize("value", ["-3", "abc"])
    def test_invalid_env_seed(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.setenv("EOS_LAB_SEED", value)
        monkeypatch.chdir(tmp_path)
        assert run("check-loss", "--loss", "logistic") == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: EOS_LAB_SEED must be an integer >= 0, not {value!r}\n"
        assert files_in(tmp_path) == []


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


@pytest.mark.parametrize("path", sorted(
    (Path(__file__).resolve().parents[1] / "demos").glob("*.py")), ids=lambda p: p.stem)
def test_demo_calls_bind_to_current_signatures(path):
    # no test runs the demos: each call in one of a function or class that
    # it imports from eoslab, or of one in a module it imports from eoslab,
    # must bind to that callable's current signature
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name: getattr(importlib.import_module(node.module),
                                                    alias.name)
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and node.module.split(".")[0] == "eoslab" for alias in node.names}
    bound = 0
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        func = call.func
        if isinstance(func, ast.Name) and func.id in imported:
            target = imported[func.id]
        elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
              and inspect.ismodule(imported.get(func.value.id))):
            target = getattr(imported[func.value.id], func.attr)
        else:
            continue
        inspect.signature(target).bind(*call.args, **{kw.arg: kw for kw in call.keywords})
        bound += 1
    assert bound
