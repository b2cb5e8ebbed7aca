"""Command-line interface: exit codes, config validation, stable outputs."""

import dataclasses
import json
import re
import textwrap

import pytest

from nccmc import cli
from nccmc.experiments import MlLevelRow, Table1Row

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


def test_missing_seed_exits_2(tmp_path, capsys):
    cfg = config(tmp_path, TREE_AB)
    rc = cli.main(["pilot", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "seed" in capsys.readouterr().err


def test_missing_tree_stop_exits_2(tmp_path):
    cfg = config(tmp_path, "tree.name=tree_2period\ntree.stop_a=0\n")
    rc = cli.main(["pilot", "--config", cfg, "--seed", "1", "--out", str(tmp_path / "o")])
    assert rc == 2


def test_unknown_tree_label_exits_2(tmp_path, capsys):
    cfg = config(tmp_path, "tree.name=tree_2period\ntree.stop_a=nope\ntree.stop_b=1\n")
    rc = cli.main(["pilot", "--config", cfg, "--seed", "1", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "nope" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path):
    rc = cli.main(["pilot", "--config", str(tmp_path / "absent.cfg"), "--seed", "1",
                   "--out", str(tmp_path / "o")])
    assert rc == 2


def test_bad_thread_count_exits_2(tmp_path):
    cfg = config(tmp_path, TREE_AB)
    rc = cli.main(["pilot", "--config", cfg, "--seed", "1", "--threads", "0",
                   "--out", str(tmp_path / "o")])
    assert rc == 2


def test_bad_thread_env_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("NCCMC_THREADS", "lots")
    cfg = config(tmp_path, TREE_AB)
    rc = cli.main(["pilot", "--config", cfg, "--seed", "1", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "NCCMC_THREADS" in capsys.readouterr().err


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
    def no_training(*args, **kwargs):
        raise AssertionError("trained a rule for a config that is in error")

    monkeypatch.setattr(cli, "simulate_training_paths", no_training)
    out = tmp_path / "o"
    cfg = config(tmp_path, GBM_SMALL + setting + "\n")
    rc = cli.main(["estimate", "--config", cfg, "--seed", "1", "--out", str(out)])
    assert rc == 2
    assert "epsilon" in capsys.readouterr().err
    assert not out.exists()


def test_runtime_failure_exits_3(tmp_path, capsys):
    # too few training paths for the regression basis: fails inside training
    cfg = config(tmp_path, "rules.a.training_paths=5\nrun.testing_paths=100\n")
    rc = cli.main(["estimate", "--config", cfg, "--seed", "1", "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "error" in capsys.readouterr().err


def test_help_documents_output_columns(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert "delta_hat" in text
    assert "vprofile.csv" in text


# --- pilot and oracle glue -----------------------------------------------------------

def test_tree_pilot_reports_oracle(tmp_path):
    out = tmp_path / "o"
    cfg = config(tmp_path, TREE_AB + "run.n_pilot=2000\nrun.r_pilot=8\n")
    rc = cli.main(["pilot", "--config", cfg, "--seed", "3", "--out", str(out)])
    assert rc == 0
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


def test_thread_env_fallback_matches_explicit(tmp_path, monkeypatch):
    a = run_estimate(tmp_path, "a", threads="2")
    monkeypatch.setenv("NCCMC_THREADS", "2")
    out = tmp_path / "env"
    cfg = config(tmp_path, GBM_SMALL, name="env.cfg")
    rc = cli.main(["estimate", "--config", cfg, "--seed", "42", "--out", str(out)])
    assert rc == 0
    assert (a / "estimate.csv").read_bytes() == (out / "estimate.csv").read_bytes()
    assert read_json(out, "manifest.json")["threads"] == 2


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


def test_r1_run_reports_no_inner_variance(tmp_path):
    out = run_estimate(tmp_path, "r1", extra="run.replications=1\n")
    info = read_json(out, "estimate.json")
    assert info["R"] == 1
    assert info["v2_hat"] is None
    header, row = (out / "estimate.csv").read_text().strip().split("\n")
    cols = dict(zip(header.split(","), row.split(",")))
    assert float(cols["v2_hat"]) == -1.0


# --- study subcommands ------------------------------------------------------------------

STUDY_BASE = """
    run.training_paths=3000
    run.testing_paths=2000
    run.r_pilot=8
"""


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
