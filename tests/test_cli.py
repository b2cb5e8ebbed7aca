"""Command-line interface: exit codes, config validation, stable outputs."""

import argparse
import dataclasses
import json
import math
import os
import re
import resource
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from nccmc import cli, experiments, oracle, rng
from nccmc.experiments import MlLevelRow, Table1Row
from tests.conftest import short_tree_spec

GBM_SMALL = """
    rules.a.training_paths=3000
    rules.b.sigma=0.23
    rules.b.training_paths=3000
    run.testing_paths=2000
    run.n_pilot=500
    run.r_pilot=8
"""

TREE_AB = """
    tree.name=tree_2period
    tree.stop_a=0
    tree.stop_b=1
"""

STUDY_BASE = """
    run.training_paths=3000
    run.testing_paths=2000
    run.r_pilot=8
"""


def config(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(textwrap.dedent(text).strip() + "\n")
    return str(p)


def read_json(out_dir, name):
    with open(out_dir / name) as fh:
        return json.load(fh)


# --- config and argument errors ---------------------------------------------------

def test_unknown_key_exits_2_and_names_it(tmp_path, capsys):
    cfg = config(tmp_path, TREE_AB + "tree.bogus=1\n")
    rc = cli.main(["pilot", "--config", cfg, "--seed", "1", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "tree.bogus" in capsys.readouterr().err


def test_duplicate_key_exits_2(tmp_path, capsys):
    cfg = config(tmp_path, "run.n_pilot=500\nrun.n_pilot=600\n" + TREE_AB)
    rc = cli.main(["pilot", "--config", cfg, "--seed", "1", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "run.n_pilot" in capsys.readouterr().err


def test_non_integer_value_exits_2(tmp_path, capsys):
    cfg = config(tmp_path, TREE_AB + "run.n_pilot=many\n")
    rc = cli.main(["pilot", "--config", cfg, "--seed", "1", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "run.n_pilot" in capsys.readouterr().err


@pytest.mark.parametrize("line,message", [("run.n_pilot 500", "expected key=value"),
                                          ("=500", "empty key")], ids=["no-equals", "empty-key"])
def test_malformed_config_line_exits_2_and_names_the_line(tmp_path, capsys, line, message):
    out = tmp_path / "o"
    cfg = config(tmp_path, TREE_AB + line + "\n")
    rc = cli.main(["pilot", "--config", cfg, "--seed", "1", "--out", str(out)])
    assert rc == 2
    assert f"{cfg}:4: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("extra", ["", "run.seed_training=3\n"], ids=["bare", "training-seed-key"])
def test_missing_seed_exits_2(tmp_path, capsys, extra):
    # the testing seed derives from --seed alone
    cfg = config(tmp_path, TREE_AB + extra)
    rc = cli.main(["pilot", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "seed" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_missing_tree_stop_exits_2(tmp_path):
    cfg = config(tmp_path, "tree.name=tree_2period\ntree.stop_a=0\n")
    rc = cli.main(["pilot", "--config", cfg, "--seed", "1", "--out", str(tmp_path / "o")])
    assert rc == 2


def test_unknown_tree_label_exits_2(tmp_path, capsys):
    cfg = config(tmp_path, "tree.name=tree_2period\ntree.stop_a=nope\ntree.stop_b=1\n")
    rc = cli.main(["pilot", "--config", cfg, "--seed", "1", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "nope" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [
    '{"root": ',
    '{"root": {"payoff": 1, "children": [{"prob": 0.7, "payoff": 2}, {"prob": 0.7, "payoff": 0}]}}',
    '{"root": {"payoff": 1, "children": [{"prob": 0.5, "payoff": 2}, {"prob": 0.5}]}}',
    '{"root": 5}',
    '{"root": {"payoff": "x", "children": [{"prob": 1, "payoff": 0}]}}',
    '[1]',
    '{"root": {"payoff": 1, "children": 5}}',
    '{"root": {"payoff": NaN, "children": [{"prob": 1, "payoff": 0}]}}',
    '{"payoff": 1, "children": [{"prob": 1, "payoff": 0}]}',
    '{"payoff": 1.0}',
    '{"root": {"payoff": 1, "children": [' + '{"prob": 1, "payoff": 1, "children": [' * 1500
    + '{"prob": 1, "payoff": 0}' + ']}' * 1500 + ']}}',
], ids=["not-json", "probs-sum-to-1.4", "child-without-payoff", "root-not-object", "payoff-not-number",
        "document-not-object", "children-not-a-list", "payoff-not-finite", "bare-root-node", "no-root",
        "chain-1500-levels"])
def test_bad_tree_file_exits_2_and_names_it(tmp_path, capsys, doc):
    tree = tmp_path / "tree.json"
    tree.write_text(doc)
    cfg = config(tmp_path, f"tree.file={tree}\ntree.stop_a=0\ntree.stop_b=1\n")
    rc = cli.main(["pilot", "--config", cfg, "--seed", "1", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "tree.file" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_missing_config_file_exits_2(tmp_path):
    rc = cli.main(["pilot", "--config", str(tmp_path / "absent.cfg"), "--seed", "1",
                   "--out", str(tmp_path / "o")])
    assert rc == 2


def test_bad_thread_count_exits_2(tmp_path):
    cfg = config(tmp_path, TREE_AB)
    rc = cli.main(["pilot", "--config", cfg, "--seed", "1", "--threads", "0",
                   "--out", str(tmp_path / "o")])
    assert rc == 2


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_thread_errors_come_before_the_config_is_read(tmp_path, capsys, threads):
    rc = cli.main(["pilot", "--config", str(tmp_path / "absent.cfg"), "--seed", "1", "--threads", threads,
                   "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err == "error: --threads must be >= 1\n"
    assert not (tmp_path / "o").exists()


def test_threads_default_to_one(tmp_path):
    out = tmp_path / "o"
    assert cli.main(["pilot", "--config", config(tmp_path, TREE_AB), "--seed", "1", "--out", str(out)]) == 0
    assert read_json(out, "manifest.json")["threads"] == 1


def test_model_dates_reach_the_date_key_limit():
    # date keys 0..DATE_LIMIT - 1: the most dates a model may have
    params = cli._gbm_params(cli.ConfigReader({"model.dates": str(rng.DATE_LIMIT)}))
    assert params.J == rng.DATE_LIMIT - 1
    rng._pack_key(0, rng.TRUNK, 0, params.J)


@pytest.mark.parametrize("budget", ["-5", "0", "nan", "inf"])
def test_bad_budget_exits_2(tmp_path, capsys, budget):
    out = tmp_path / "o"
    cfg = config(tmp_path, TREE_AB + f"run.budget={budget}\n")
    rc = cli.main(["estimate", "--config", cfg, "--seed", "1", "--out", str(out)])
    assert rc == 2
    assert "run.budget" in capsys.readouterr().err
    assert not out.exists()


# the least config each subcommand needs to get past its own required keys
MINIMAL_CONFIGS = {
    "pilot": TREE_AB,
    "estimate": TREE_AB,
    "table1": "study.sigma_hats=0.2\n",
    "qcv": "run.budget=1e5\n",
    "multilevel": "ml.ladder=1,2\nrun.budget=1e5\n",
    "oracle-check": TREE_AB,
    "vprofile": TREE_AB,
}


@pytest.mark.parametrize("setting", ["run.replications=0", "run.n_pilot=99", "run.r_pilot=1",
                                     "run.testing_paths=1"])
@pytest.mark.parametrize("command", list(MINIMAL_CONFIGS))
def test_bad_run_size_exits_2_before_any_output(tmp_path, capsys, command, setting):
    out = tmp_path / "o"
    cfg = config(tmp_path, MINIMAL_CONFIGS[command] + setting + "\n")
    rc = cli.main([command, "--config", cfg, "--seed", "1", "--out", str(out)])
    assert rc == 2
    assert setting.partition("=")[0] in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("setting", ["rules.a.epsilon=nan", "rules.a.epsilon=inf",
                                     "rules.b.epsilon=-inf",
                                     "rules.b.kind=fixed\nrules.b.epsilon=0.1"])
def test_bad_epsilon_exits_2_before_training(tmp_path, capsys, monkeypatch, setting):
    exits_2_before_training(tmp_path, capsys, monkeypatch, "estimate", setting, "epsilon")


# d = 2 (GBM_SMALL): the regression basis has 7 columns
@pytest.mark.parametrize("setting,key", [
    ("rules.a.kind=fixed\nrules.a.stop_from=-1", "rules.a.stop_from"),
    ("rules.a.kind=committee\nrules.a.members=0", "rules.a.members"),
    ("rules.b.kind=committee\nrules.b.member_size=6", "rules.b.member_size"),
], ids=["stop_from", "members", "member_size"])
def test_bad_rule_size_exits_2_before_training(tmp_path, capsys, monkeypatch, setting, key):
    exits_2_before_training(tmp_path, capsys, monkeypatch, "estimate", setting, key)


# d = 2 throughout: the regression basis has 7 columns.  A setting without
# "=" removes that key from the command's valid base config.
@pytest.mark.parametrize("command,setting,key", [
    ("estimate", "model.d=0", "model.d"),
    ("estimate", "model.r=nan", "model.r"),
    ("estimate", "model.delta=inf", "model.delta"),
    ("estimate", "model.sigma=-0.2", "model.sigma"),
    ("estimate", "model.strike=0", "model.strike"),
    ("estimate", "model.y0=-90", "model.y0"),
    ("estimate", "model.maturity=0", "model.maturity"),
    ("estimate", "model.dates=1", "model.dates"),
    ("estimate", "model.dates=65538", "model.dates"),
    ("estimate", "model.dates=65537", "model.dates"),
    ("estimate", "run.training_paths=6", "run.training_paths"),
    ("estimate", "rules.a.training_paths=6", "rules.a.training_paths"),
    ("estimate", "rules.b.sigma=-0.1", "rules.b.sigma"),
    ("estimate", "rules.a.kind=greedy", "rules.a.kind"),
    ("estimate", "run.budget=inf", "run.budget"),
    ("estimate", "rules.a.bogus=1", "rules.a.bogus"),
    ("estimate", "run.seed_testing=5", "run.seed_testing"),
    ("vprofile", "vprofile.points=1", "vprofile.points"),
    ("vprofile", "vprofile.r_max=0", "vprofile.r_max"),
    ("vprofile", "vprofile.r_max=-5", "vprofile.r_max"),
    ("oracle-check", "", "tree.name"),
    ("estimate", "tree.name=no_such_tree", "tree.name"),
    ("estimate", "tree.name=tree_2period\ntree.file=tree.json", "tree.file"),
    ("estimate", "tree.file=no/such/dir/tree.json", "tree.file"),
    ("table1", "study.sigma_hats=-0.1", "study.sigma_hats"),
    ("table1", "study.sigma_hats=nan", "study.sigma_hats"),
    ("table1", "study.sigma_hats=0.2,inf", "study.sigma_hats"),
    ("table1", "study.sigma_hats=", "study.sigma_hats"),
    ("table1", "study.sigma_hats", "study.sigma_hats"),
    ("table1", "run.training_paths=3", "run.training_paths"),
    ("table1", "model.sigma=nan", "model.sigma"),
    ("qcv", "qcv.members=0", "qcv.members"),
    ("qcv", "qcv.member_size=6", "qcv.member_size"),
    ("qcv", "run.budget", "run.budget"),
    ("multilevel", "ml.member_size=5", "ml.member_size"),
    ("multilevel", "ml.ladder=4,2", "ml.ladder"),
    ("multilevel", "ml.ladder=2,2", "ml.ladder"),
    ("multilevel", "ml.ladder=0,2", "ml.ladder"),
    ("multilevel", "ml.ladder", "ml.ladder"),
    ("multilevel", "run.budget=nan", "run.budget"),
])
def test_bad_value_exits_2_before_training(tmp_path, capsys, monkeypatch, command, setting, key):
    exits_2_before_training(tmp_path, capsys, monkeypatch, command, setting, key)


# a valid config for each subcommand that trains rules
TRAINING_CONFIGS = {
    "estimate": GBM_SMALL,
    "vprofile": GBM_SMALL,
    "oracle-check": GBM_SMALL,
    "table1": STUDY_BASE + "study.sigma_hats=0.23\n",
    "qcv": STUDY_BASE + "run.budget=1e5\n",
    "multilevel": STUDY_BASE + "ml.ladder=2,4\nrun.budget=1e5\n",
}


def exits_2_before_training(tmp_path, capsys, monkeypatch, command, setting, key):
    trained = []

    def no_training(*args, **kwargs):
        trained.append(args)
        raise AssertionError("trained a rule for a config that is in error")

    for module in (cli, experiments):
        monkeypatch.setattr(module, "simulate_training_paths", no_training)
    cfg = dict(ln.strip().partition("=")[::2] for ln in TRAINING_CONFIGS[command].split("\n")
               if ln.strip())
    for ln in filter(None, setting.split("\n")):
        k, eq, v = ln.partition("=")
        if eq:
            cfg[k] = v
        else:
            del cfg[k]
    out = tmp_path / "o"
    path = config(tmp_path, "".join(f"{k}={v}\n" for k, v in cfg.items()))
    rc = cli.main([command, "--config", path, "--seed", "1", "--out", str(out)])
    assert not trained
    assert rc == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


class _DriverCalled(Exception):
    pass


@pytest.mark.parametrize("job, driver, raw, fields", [
    (cli._qcv_job, "qcv_estimate", {}, {}),
    (cli._multilevel_job, "multilevel_estimate", {"ml.ladder": "2,4"}, {"ladder": (2, 4)}),
], ids=["qcv", "multilevel"])
def test_absent_keys_take_the_library_defaults(monkeypatch, job, driver, raw, fields):
    args = argparse.Namespace(seed=1, threads=1)
    seeds = {f"seed_{k}": rng.derive_seed(1, k) for k in ("training", "testing")}
    _, _, rs = cli._build_problem(cli.ConfigReader({}), args)  # an empty GBM config
    assert rs == experiments.RunSettings(**seeds)
    seen = []

    def driver_called(cfg):
        seen.append(cfg)
        raise _DriverCalled

    monkeypatch.setattr(cli, driver, driver_called)
    with pytest.raises(_DriverCalled):  # no run.*, qcv.* or ml.member_size key but the budget
        job(cli.ConfigReader({"run.budget": "1e5", **raw}), args)()
    params = cli._gbm_params(cli.ConfigReader({}))
    assert seen == [experiments.ExperimentConfig(**seeds, params=params, budget=1e5, **fields)]


def test_runtime_failure_exits_3(tmp_path, capsys):
    # --out names a regular file, so the output directory cannot be made
    out = tmp_path / "o"
    out.write_text("")
    rc = cli.main(["pilot", "--config", config(tmp_path, TREE_AB), "--seed", "1",
                   "--out", str(out)])
    assert rc == 3
    assert "error" in capsys.readouterr().err


def test_failed_run_leaves_no_output_directory(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise RuntimeError("estimator failed")

    monkeypatch.setattr(cli, "estimate", fail)
    out = tmp_path / "o"
    rc = cli.main(["estimate", "--config", config(tmp_path, TREE_AB), "--seed", "1",
                   "--out", str(out)])
    assert rc == 3
    assert "estimator failed" in capsys.readouterr().err
    assert not out.exists()


def test_help_documents_output_columns(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert "delta_hat" in text
    assert "vprofile.csv" in text


# --- pilot and oracle glue -----------------------------------------------------------

def test_tree_pilot_reports_oracle(tmp_path, monkeypatch):
    # the oracle block is one walk: one stop table per rule
    stop_table, tables = oracle._stop_table, []

    def spy(tree, rule):
        tables.append(rule)
        return stop_table(tree, rule)

    monkeypatch.setattr(oracle, "_stop_table", spy)
    out = tmp_path / "o"
    cfg = config(tmp_path, TREE_AB + "run.n_pilot=2000\nrun.r_pilot=8\n")
    rc = cli.main(["pilot", "--config", cfg, "--seed", "3", "--out", str(out)])
    assert rc == 0
    assert len(tables) == 2 and tables[0] is not tables[1]
    info = read_json(out, "pilot.json")
    assert info["oracle"]["delta"] == pytest.approx(-0.26, abs=1e-12)
    assert info["oracle"]["v1"] == pytest.approx(0.0864, abs=1e-12)
    assert info["oracle"]["v2"] == pytest.approx(1.686, abs=1e-12)
    assert info["p_differ"] == 1.0
    assert not info["degenerate"]
    # pilot moments land near the enumerated ones
    assert info["v2"] == pytest.approx(info["oracle"]["v2"], rel=0.15)


def test_pilot_flags_identical_rules(tmp_path):
    out = tmp_path / "o"
    cfg = config(tmp_path, "tree.name=tree_2period\ntree.stop_a=0\ntree.stop_b=0\n"
                 "run.n_pilot=500\nrun.r_pilot=8\n")
    rc = cli.main(["pilot", "--config", cfg, "--seed", "3", "--out", str(out)])
    assert rc == 0
    info = read_json(out, "pilot.json")
    assert info["degenerate"] is True
    assert info["p_differ"] == 0.0
    assert info["R_rounded"] == 1
    # the oracle block prints floats, not int 0
    assert info["oracle"] == {"delta": 0.0, "v1": 0.0, "v2": 0.0}
    assert all(type(v) is float for v in info["oracle"].values())
    # the no-nesting calibration, with the same keys as a sound pilot's
    assert (info["R_star"], info["gamma_star"], info["speedup"]) == (1.0, 1.0, 1.0)
    assert (info["gain_lower"], info["gain_upper"], info["condition_holds"]) == (1.0, 1.0, False)


def test_oracle_check_passes_on_bundled_trees(tmp_path):
    for name, stops in [("tree_1period", ("root", "")), ("tree_2period", ("0", "1"))]:
        out = tmp_path / f"o-{name}"
        cfg = config(tmp_path, f"tree.name={name}\ntree.stop_a={stops[0]}\n"
                     f"tree.stop_b={stops[1]}\nrun.testing_paths=20000\n",
                     name=f"{name}.cfg")
        rc = cli.main(["oracle-check", "--config", cfg, "--seed", "4", "--out", str(out)])
        assert rc == 0
        info = read_json(out, "oracle_check.json")
        assert info["passed"] is True
        assert abs(info["delta_hat"] - info["delta_exact"]) == pytest.approx(
            info["abs_error"], rel=1e-12)


def test_tree_short_of_mass_within_the_loader_bound(tmp_path):
    (tmp_path / "short.json").write_text(json.dumps(short_tree_spec()))
    cfg = config(tmp_path, f"tree.file={tmp_path / 'short.json'}\ntree.stop_a=0/0\ntree.stop_b=\n")
    assert cli.main(["pilot", "--config", cfg, "--seed", "7", "--out", str(tmp_path / "p")]) == 0
    oracle = read_json(tmp_path / "p", "pilot.json")["oracle"]
    assert all(math.isfinite(oracle[k]) for k in ("delta", "v1", "v2"))
    assert cli.main(["oracle-check", "--config", cfg, "--seed", "7", "--out", str(tmp_path / "c")]) == 0
    info = read_json(tmp_path / "c", "oracle_check.json")
    assert info["passed"] is True and math.isfinite(info["delta_exact"])


def test_oracle_check_reports_failure_with_exit_4(tmp_path, capsys):
    # two coupled paths cannot resolve the difference: deterministic miss
    cfg = config(tmp_path, TREE_AB + "run.testing_paths=2\nrun.replications=1\n")
    rc = cli.main(["oracle-check", "--config", cfg, "--seed", "6", "--out",
                   str(tmp_path / "o")])
    assert rc == 4
    assert "FAIL" in capsys.readouterr().out


# --- estimator outputs ------------------------------------------------------------------

def run_estimate(tmp_path, tag, extra="", threads="1", seed="42"):
    out = tmp_path / tag
    cfg = config(tmp_path, GBM_SMALL + extra, name=f"{tag}.cfg")
    rc = cli.main(["estimate", "--config", cfg, "--seed", seed, "--threads", threads,
                   "--out", str(out)])
    assert rc == 0
    return out


def test_estimate_outputs_are_byte_stable(tmp_path):
    a = run_estimate(tmp_path, "a")
    b = run_estimate(tmp_path, "b")
    c = run_estimate(tmp_path, "c", threads="8")
    csv_a = (a / "estimate.csv").read_bytes()
    assert csv_a == (b / "estimate.csv").read_bytes()
    assert csv_a == (c / "estimate.csv").read_bytes()
    json_a = (a / "estimate.json").read_bytes()
    assert json_a == (b / "estimate.json").read_bytes()
    assert json_a == (c / "estimate.json").read_bytes()


def test_comments_and_blank_lines_leave_the_outputs_unchanged(tmp_path):
    keys = TREE_AB + "run.testing_paths=500\nrun.n_pilot=500\n"
    outs = []
    for tag, text in [("plain", keys),
                      ("commented", "# a tree run\n\n" + keys.replace("\n", "\n   \n  # note\n"))]:
        out = tmp_path / tag
        cfg = config(tmp_path, text, name=f"{tag}.cfg")
        assert cli.main(["estimate", "--config", cfg, "--seed", "5", "--out", str(out)]) == 0
        outs.append(out)
    plain, commented = outs
    assert "# note" in (tmp_path / "commented.cfg").read_text()
    for name in ("estimate.csv", "estimate.json"):
        assert (plain / name).read_bytes() == (commented / name).read_bytes()
    assert (read_json(plain, "manifest.json")["config_digest"]
            == read_json(commented, "manifest.json")["config_digest"])


def test_committee_estimate_is_byte_stable_across_threads(tmp_path):
    # a trained committee against a regression rule, sized as a small CI run
    committee = ("model.d=2\nrun.training_paths=3000\nrun.testing_paths=4000\nrun.n_pilot=500\n"
                 "run.r_pilot=8\nrules.a.kind=committee\nrules.a.members=8\nrules.a.member_size=300\n")
    cfg = config(tmp_path, committee)
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}"
        assert cli.main(["estimate", "--config", cfg, "--seed", "7", "--threads", threads,
                         "--out", str(out)]) == 0
        outs.append(out)
    for name in ("estimate.csv", "estimate.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    info = read_json(outs[0], "estimate.json")
    assert info["N"] == 4000
    assert 0 < info["p_differ"] < 1


def test_estimate_csv_row_matches_json(tmp_path):
    out = run_estimate(tmp_path, "x")
    header, row = (out / "estimate.csv").read_text().strip().split("\n")
    cols = dict(zip(header.split(","), row.split(",")))
    info = read_json(out, "estimate.json")
    assert int(cols["N"]) == info["N"]
    assert int(cols["R"]) == info["R"]
    assert float(cols["delta_hat"]) == info["delta_hat"]
    assert float(cols["stderr"]) == info["stderr"]
    assert info["pilot"]["R_rounded"] == info["R"]


def test_manifest_tracks_config_identity(tmp_path):
    a = run_estimate(tmp_path, "a")
    b = run_estimate(tmp_path, "b")
    ma, mb = read_json(a, "manifest.json"), read_json(b, "manifest.json")
    assert ma["config_digest"] == mb["config_digest"]
    names = lambda m: [p.rsplit("/", 1)[-1] for p in m["outputs"]]
    assert names(ma) == names(mb)
    assert ma["command"] == "estimate"
    other = run_estimate(tmp_path, "d", extra="run.replications=2\n")
    assert read_json(other, "manifest.json")["config_digest"] != ma["config_digest"]


@pytest.mark.parametrize("threads", [None, "3"], ids=["unset", "set"])
def test_manifest_records_what_the_bits_depend_on(tmp_path, monkeypatch, threads):
    if threads is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
    out = tmp_path / "o"
    assert cli.main(["pilot", "--config", config(tmp_path, TREE_AB), "--seed", "1", "--out", str(out)]) == 0
    manifest = read_json(out, "manifest.json")
    deps = np.show_config(mode="dicts")["Build Dependencies"]
    assert manifest["numpy"] == np.__version__
    for lib in ("blas", "lapack"):
        assert manifest[lib] == {"name": deps[lib]["name"], "version": deps[lib]["version"]}
    assert manifest["openblas_num_threads"] == threads


def test_calibrated_r_beats_plain_coupling_at_equal_budget(tmp_path):
    plain = run_estimate(tmp_path, "plain", extra="run.budget=2e5\nrun.replications=1\n")
    tuned = run_estimate(tmp_path, "tuned", extra="run.budget=2e5\n")
    se_plain = read_json(plain, "estimate.json")["stderr"]
    se_tuned = read_json(tuned, "estimate.json")["stderr"]
    assert read_json(tuned, "estimate.json")["R"] > 1
    assert se_tuned < se_plain


@pytest.mark.parametrize("budget", ["", "run.budget=1e5\n"], ids=["paths", "budget"])
def test_rule_stopping_at_date_0_runs_at_r1(tmp_path, budget):
    # rule a stops at date 0 on every path and fixed rules cost nothing to
    # evaluate, so stage one costs nothing (rho1 = 0): the pilot floors it,
    # flags itself degenerate, and the run goes ahead without nesting
    out = tmp_path / "o"
    cfg = config(tmp_path, "rules.a.kind=fixed\nrules.a.stop_from=0\nrules.b.kind=fixed\n"
                 "rules.b.stop_from=9\nrun.testing_paths=2000\nrun.n_pilot=500\n"
                 "run.r_pilot=8\n" + budget)
    rc = cli.main(["estimate", "--config", cfg, "--seed", "1", "--out", str(out)])
    assert rc == 0
    info = read_json(out, "estimate.json")
    assert info["R"] == 1
    assert info["p_differ"] == 1.0
    assert info["pilot"]["degenerate"] is True
    assert info["pilot"]["R_rounded"] == 1


def test_a_budget_buys_no_trunks_from_floored_costs(tmp_path):
    # both rules stop at date 0 and cost nothing to ask, so the pilot floors
    # rho1 and rho2 at 1e-12, from which a budget of 1e6 would buy 5e17
    # trunks.  Under a 2 GB address-space cap, as CI's ulimit -v 2000000, a
    # run that tried would fail with a MemoryError (exit 3) inside the cap
    out = tmp_path / "o"
    cfg = config(tmp_path, "rules.a.kind=fixed\nrules.b.kind=fixed\nrun.budget=1e6\n")
    cap = lambda: resource.setrlimit(resource.RLIMIT_AS, (2_000_000 * 1024, resource.RLIM_INFINITY))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    res = subprocess.run([sys.executable, "-m", "nccmc.cli", "estimate", "--config", cfg, "--seed", "1",
                          "--out", str(out)], capture_output=True, text=True, preexec_fn=cap,
                         env={**os.environ, "PYTHONPATH": src}, timeout=300)
    assert res.returncode == 2, res.stderr
    assert "run.budget" in res.stderr
    assert not out.exists()
    # the pilot reports what it measured, floors and all, as before
    for command in ("pilot", "vprofile"):
        assert cli.main([command, "--config", cfg, "--seed", "1", "--out", str(tmp_path / command)]) == 0
    pilot = read_json(tmp_path / "pilot", "pilot.json")
    assert (pilot["rho1"], pilot["rho2"], pilot["degenerate"]) == (1e-12, 1e-12, True)


def test_r1_run_reports_no_inner_variance(tmp_path):
    out = run_estimate(tmp_path, "r1", extra="run.replications=1\n")
    info = read_json(out, "estimate.json")
    assert info["R"] == 1
    assert info["v2_hat"] is None
    header, row = (out / "estimate.csv").read_text().strip().split("\n")
    cols = dict(zip(header.split(","), row.split(",")))
    assert float(cols["v2_hat"]) == -1.0


# --- study subcommands ------------------------------------------------------------------


def test_table1_command(tmp_path):
    out = tmp_path / "o"
    # n_pilot large enough that the perturbed row's v1 estimate stays off
    # its degeneracy floor
    cfg = config(tmp_path, STUDY_BASE + "study.sigma_hats=0.2,0.23\nrun.n_pilot=2000\n")
    rc = cli.main(["table1", "--config", cfg, "--seed", "7", "--out", str(out)])
    assert rc == 0
    lines = (out / "table1.csv").read_text().strip().split("\n")
    assert lines[0].startswith("sigma_hat,delta_hat,stderr")
    assert len(lines) == 3
    rows = read_json(out, "table1.json")["rows"]
    assert rows[0]["degenerate"] is True  # sigma_hat equals the model sigma
    assert rows[1]["degenerate"] is False


def test_qcv_command(tmp_path):
    out = tmp_path / "o"
    cfg = config(tmp_path, STUDY_BASE + "qcv.members=8\nqcv.member_size=300\n"
                 "run.n_pilot=500\nrun.budget=1e5\n")
    rc = cli.main(["qcv", "--config", cfg, "--seed", "7", "--out", str(out)])
    assert rc == 0
    lines = (out / "qcv.csv").read_text().strip().split("\n")
    assert lines[0] == "estimator,mu_hat,variance,work_units,n_base,n_trunks,R"
    assert [ln.split(",")[0] for ln in lines[1:]] == ["simple", "qcv", "qcv_nested"]
    info = read_json(out, "qcv.json")
    assert info["budget"] == 1e5
    assert "gamma_star" in info["pilot_params"]


def test_multilevel_command(tmp_path):
    out = tmp_path / "o"
    cfg = config(tmp_path, STUDY_BASE + "ml.ladder=2,4\nml.member_size=300\n"
                 "run.n_pilot=500\nrun.budget=1e5\n")
    rc = cli.main(["multilevel", "--config", cfg, "--seed", "7", "--out", str(out)])
    assert rc == 0
    lines = (out / "multilevel.csv").read_text().strip().split("\n")
    assert lines[0].startswith("level,members,N,R")
    assert len(lines) == 3
    info = read_json(out, "multilevel.json")
    assert len(info["rows"]) == 2
    assert info["budget"] == 1e5


@pytest.mark.parametrize("command,knobs", [
    ("qcv", "qcv.members=4\nqcv.member_size=200\n"),
    ("multilevel", "ml.ladder=2,4\nml.member_size=200\n"),
], ids=["qcv", "multilevel"])
def test_study_runs_when_every_probe_path_pays_the_same(tmp_path, command, knobs):
    # far out of the money every path pays 0, so every variance is 0
    out = tmp_path / "o"
    cfg = config(tmp_path, "model.y0=20\nrun.budget=2e5\nrun.training_paths=2000\n"
                 "run.n_pilot=200\nrun.r_pilot=4\n" + knobs)
    assert cli.main([command, "--config", cfg, "--seed", "1", "--out", str(out)]) == 0
    lines = (out / f"{command}.csv").read_text().strip().split("\n")
    assert all(math.isfinite(float(x)) for ln in lines[1:] for x in ln.split(",")[1:])


def test_csv_columns_match_the_rows_and_the_help(tmp_path, capsys):
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    help_text = capsys.readouterr().out
    runs = [
        ("estimate", TREE_AB + "run.testing_paths=500\nrun.n_pilot=500\n", None),
        ("table1", STUDY_BASE + "study.sigma_hats=0.23\nrun.n_pilot=500\n", Table1Row),
        ("qcv", STUDY_BASE + "qcv.members=8\nqcv.member_size=300\nrun.n_pilot=500\n"
         "run.budget=1e5\n", None),
        ("multilevel", STUDY_BASE + "ml.ladder=2,4\nml.member_size=300\nrun.n_pilot=500\n"
         "run.budget=1e5\n", MlLevelRow),
        ("vprofile", TREE_AB + "run.n_pilot=500\nvprofile.points=4\n", None),
    ]
    for command, text, row_type in runs:
        out = tmp_path / command
        cfg = config(tmp_path, text, name=f"{command}.cfg")
        assert cli.main([command, "--config", cfg, "--seed", "7", "--out", str(out)]) == 0
        written, = out.glob("*.csv")
        header = written.read_text().split("\n", 1)[0].split(",")
        if row_type is not None:
            assert header == [f.name for f in dataclasses.fields(row_type)]
        assert written.name in help_text
        for col in header:
            assert re.search(rf"\b{col}\b", help_text), (written.name, col)


# --- profile export -------------------------------------------------------------------

def test_vprofile_grid(tmp_path):
    out = tmp_path / "o"
    cfg = config(tmp_path, TREE_AB + "run.n_pilot=500\nrun.r_pilot=8\n"
                 "vprofile.r_max=64\nvprofile.points=12\n")
    rc = cli.main(["vprofile", "--config", cfg, "--seed", "6", "--out", str(out)])
    assert rc == 0
    lines = (out / "vprofile.csv").read_text().strip().split("\n")
    assert lines[0] == "R,V"
    rows = [(int(a), float(b)) for a, b in (ln.split(",") for ln in lines[1:])]
    rs = [r for r, _ in rows]
    assert rs[0] == 1 and rs[-1] == 64
    assert rs == sorted(set(rs))
    assert all(v > 0 for _, v in rows)


def test_vprofile_rejects_one_point_before_any_output(tmp_path, capsys):
    out = tmp_path / "o"
    cfg = config(tmp_path, TREE_AB + "vprofile.points=1\n")
    rc = cli.main(["vprofile", "--config", cfg, "--seed", "6", "--out", str(out)])
    assert rc == 2
    assert "vprofile.points" in capsys.readouterr().err
    assert not out.exists()
