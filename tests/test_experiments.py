"""Experiment drivers on deliberately small configurations."""

import dataclasses
import math
import weakref

import pytest

from nccmc.experiments import (
    ExperimentConfig,
    RunSettings,
    calibrate,
    multilevel_estimate,
    param_uncertainty_study,
    qcv_estimate,
)
from nccmc.calibration import choose_R, trunks_for_budget, v_profile
from nccmc.nested_cmc import CHUNK_SIZE, estimate, floored_params, pilot
from nccmc.rng import derive_seed
from nccmc.process_models import GbmParams, simulate_training_paths


def small_config(d2_params, **kw):
    base = dict(
        params=d2_params,
        seed_training=101,
        seed_testing=202,
        training_paths=3000,
        testing_paths=2000,
        n_pilot=500,
        r_pilot=8,
        member_size=300,
    )
    base.update(kw)
    return ExperimentConfig(**base)


# --- parameter-uncertainty study ------------------------------------------------

def test_study_flags_matching_volatility_as_degenerate(d2_params):
    cfg = small_config(d2_params, sigma_hats=(d2_params.sigma, 0.23))
    rows = param_uncertainty_study(cfg)
    assert len(rows) == 2

    same, off = rows
    # same training noise and same volatility reproduce the reference rule
    # exactly: the difference is identically zero
    assert same.degenerate
    assert same.delta_hat == 0.0
    assert same.stderr == 0.0
    assert same.p_differ == 0.0
    assert same.R_used == 1
    assert same.value_b == same.value_a

    assert not off.degenerate
    assert math.isfinite(off.delta_hat)
    assert off.stderr > 0
    assert 0 < off.p_differ <= 1
    assert off.R_used >= 1
    assert off.value_b == pytest.approx(off.value_a - off.delta_hat, rel=1e-12)
    assert off.speedup == pytest.approx(1.0 / off.gamma_star, rel=1e-12)
    assert off.N == cfg.testing_paths
    assert off.work_units > 0


def test_study_respects_replication_override(d2_params):
    cfg = small_config(d2_params, sigma_hats=(0.23,), replications=3)
    row, = param_uncertainty_study(cfg)
    assert row.R_used == 3


def test_study_budget_sets_trunk_count(d2_params):
    budget = 50_000.0
    cfg = small_config(d2_params, sigma_hats=(0.23,), budget=budget)
    row, = param_uncertainty_study(cfg)
    predicted = row.rho1 + row.rho2 * row.R_used
    assert row.N == pytest.approx(budget / predicted, abs=1.0)
    assert row.work_units == pytest.approx(budget, rel=0.15)


def test_study_is_deterministic(d2_params):
    cfg = small_config(d2_params, sigma_hats=(0.23,))
    a, = param_uncertainty_study(cfg)
    b, = param_uncertainty_study(cfg)
    assert a == b
    c, = param_uncertainty_study(small_config(d2_params, sigma_hats=(0.23,),
                                              seed_testing=203))
    assert c.delta_hat != a.delta_hat


def test_study_requires_sigma_hats(d2_params):
    cfg = small_config(d2_params)
    with pytest.raises(ValueError):
        param_uncertainty_study(cfg)


# --- quasi-control-variate driver ------------------------------------------------

@pytest.fixture(scope="module")
def qcv_report(d2_params):
    cfg = ExperimentConfig(
        params=d2_params,
        seed_training=101,
        seed_testing=202,
        training_paths=3000,
        n_pilot=500,
        r_pilot=8,
        committee_members=8,
        member_size=300,
        budget=3e5,
    )
    return qcv_estimate(cfg)


def test_qcv_estimators_agree(qcv_report):
    r = qcv_report
    tol = 6 * math.sqrt(r.var_simple + r.var_qcv)
    assert abs(r.mu_qcv - r.mu_simple) < tol
    tol = 6 * math.sqrt(r.var_simple + r.var_qcv_nested)
    assert abs(r.mu_qcv_nested - r.mu_simple) < tol


def test_qcv_spends_the_budget(qcv_report):
    r = qcv_report
    for work in (r.work_simple, r.work_qcv, r.work_qcv_nested):
        assert work == pytest.approx(r.budget, rel=0.15)


def test_qcv_allocations_are_usable(qcv_report):
    r = qcv_report
    assert r.n_simple >= 2
    assert all(n >= 2 for n in r.alloc_qcv)
    assert all(n >= 2 for n in r.alloc_qcv_nested)
    assert r.R_used >= 1
    assert r.var_simple > 0 and r.var_qcv > 0 and r.var_qcv_nested > 0


def test_qcv_gain_fields_coherent(qcv_report):
    r = qcv_report
    assert r.mu_b_stderr > 0
    assert r.measured_gain > 0
    if r.R_used >= 2:
        assert r.calibration.gamma_star <= 1.0


def test_qcv_degenerate_pilot_reports_no_nesting(qcv_report):
    # this fixture's pilot floors v1, so R* means nothing: the run uses R = 1
    # and reports the no-nesting calibration, not optimal_R's huge R*
    r = qcv_report
    assert r.pilot_params.degenerate
    assert r.R_used == 1
    assert (r.calibration.R_star, r.calibration.R_rounded, r.calibration.gamma_star) == (1.0, 1, 1.0)
    assert r.measured_gain == 1.0


def test_qcv_measured_gain_floors_a_zero_component(d2_params, monkeypatch):
    # the main runs' v1 is forced to zero: measured_gain floors it as the
    # pilot would, at 1e-12 times max(v1, v2, 1)
    from nccmc import experiments

    runs = []

    def zero_v1(*args, **kwargs):
        est = dataclasses.replace(estimate(*args, **kwargs), v1_hat=0.0)
        runs.append(est)
        return est

    monkeypatch.setattr(experiments, "estimate", zero_v1)
    cfg = small_config(d2_params, r_pilot=16, committee_members=8, replications=3, budget=3e5)
    rep = qcv_estimate(cfg)
    assert not rep.pilot_params.degenerate  # else measured_gain is not measured
    main = runs[-1]
    assert main.R == rep.R_used == 3
    run_params = floored_params(main)
    assert run_params.v1 == 1e-12 * max(main.v2_hat, 1.0)
    assert run_params.degenerate
    assert rep.measured_gain == v_profile(run_params, 3) / v_profile(run_params, 1)


def test_qcv_requires_budget(d2_params):
    cfg = small_config(d2_params, committee_members=4)
    with pytest.raises(ValueError):
        qcv_estimate(cfg)


# --- multilevel driver ---------------------------------------------------------------

@pytest.fixture(scope="module")
def ml_report(d2_params):
    cfg = ExperimentConfig(
        params=d2_params,
        seed_training=101,
        seed_testing=202,
        training_paths=3000,
        n_pilot=500,
        r_pilot=8,
        ladder=(2, 4, 8),
        member_size=300,
        budget=3e5,
    )
    return multilevel_estimate(cfg)


def test_ml_row_structure(ml_report):
    rows = ml_report.rows
    assert [r.level for r in rows] == [0, 1, 2]
    assert [r.members for r in rows] == [2, 4, 8]
    assert rows[0].R == 0 and rows[0].v2 == 0.0
    assert all(r.R >= 1 for r in rows[1:])
    assert all(r.N >= 2 for r in rows)


def test_ml_telescoping_consistency(ml_report):
    r = ml_report
    total = r.rows[0].estimate + sum(row.estimate for row in r.rows[1:])
    assert r.combined == pytest.approx(total, rel=1e-12)
    assert abs(r.combined - r.direct) < 6 * math.sqrt(
        r.combined_stderr ** 2 + r.direct_stderr ** 2
    )
    assert math.isfinite(r.telescoping_z)


def test_ml_spends_the_budget(ml_report):
    r = ml_report
    for work in (r.work_simple, r.work_ml, r.work_ml_nested):
        assert work == pytest.approx(r.budget, rel=0.15)


def test_ml_requires_ladder_and_budget(d2_params):
    with pytest.raises(ValueError):
        multilevel_estimate(small_config(d2_params, budget=1e5))
    with pytest.raises(ValueError):
        multilevel_estimate(small_config(d2_params, ladder=(2, 4)))


# --- all three drivers ----------------------------------------------------------

def test_drivers_do_not_depend_on_threads(d2_params):
    # at this budget and size the baseline runs span more than one chunk of paths
    reports = [
        (qcv_estimate(small_config(d2_params, committee_members=8, budget=6e5, threads=t)),
         multilevel_estimate(small_config(d2_params, ladder=(2, 4, 8), budget=6e5, threads=t)),
         param_uncertainty_study(small_config(d2_params, sigma_hats=(0.21, 0.23),
                                              testing_paths=20000, threads=t)))
        for t in (1, 2)
    ]
    assert reports[0] == reports[1]
    qcv, ml, table1 = reports[0]
    assert min(qcv.alloc_qcv[0], qcv.alloc_qcv_nested[0], ml.rows[0].N, table1[0].N) > CHUNK_SIZE


@pytest.mark.parametrize("driver,knobs", [
    (qcv_estimate, dict(committee_members=8)),
    (multilevel_estimate, dict(ladder=(2, 4, 8))),
], ids=["qcv", "multilevel"])
def test_drivers_release_the_training_pool_before_any_estimator_runs(d2_params, monkeypatch,
                                                                     driver, knobs):
    from nccmc import experiments

    pools, alive = [], []

    def simulate(*args, **kwargs):
        pool = simulate_training_paths(*args, **kwargs)
        pools.append(weakref.ref(pool.assets))
        return pool

    class Entered(Exception):
        pass

    def telescope(*args, **kwargs):
        alive.extend(ref() is not None for ref in pools)
        raise Entered  # the estimator runs are not needed here

    monkeypatch.setattr(experiments, "simulate_training_paths", simulate)
    monkeypatch.setattr(experiments, "_telescope", telescope)
    with pytest.raises(Entered):
        driver(small_config(d2_params, budget=3e5, **knobs))
    assert alive == [False]


# --- config validation -----------------------------------------------------------------

def test_config_rejects_bad_values(d2_params):
    with pytest.raises(ValueError):
        small_config(d2_params, training_paths=4)
    with pytest.raises(ValueError):
        small_config(d2_params, n_pilot=50)
    with pytest.raises(ValueError):
        small_config(d2_params, r_pilot=1)
    with pytest.raises(ValueError):
        small_config(d2_params, ladder=(8, 4))
    with pytest.raises(ValueError):
        small_config(d2_params, ladder=(4, 4))
    with pytest.raises(ValueError):
        small_config(d2_params, sigma_hats=(0.2, -0.1))
    with pytest.raises(ValueError):
        small_config(d2_params, sigma_hats=(0.2, float("nan")))
    with pytest.raises(ValueError):
        small_config(d2_params, replications=0)
    with pytest.raises(ValueError):
        small_config(d2_params, budget=-1.0)
    with pytest.raises(ValueError):
        small_config(d2_params, budget=float("inf"))
    with pytest.raises(ValueError):
        small_config(d2_params, member_size=3)
    with pytest.raises(ValueError):
        small_config(d2_params, threads=0)
    with pytest.raises(ValueError, match="testing_paths"):
        small_config(d2_params, testing_paths=1)
    with pytest.raises(ValueError, match="ladder entries"):
        small_config(d2_params, ladder=(0, 2))
    with pytest.raises(ValueError, match="committee_members"):
        small_config(d2_params, committee_members=0)


@pytest.mark.parametrize("field,value", [
    ("testing_paths", 1), ("n_pilot", 99), ("r_pilot", 1), ("replications", 0),
    ("budget", 0.0), ("budget", float("nan")), ("threads", 0),
])
def test_run_settings_reject_bad_values(field, value):
    with pytest.raises(ValueError, match=field):
        RunSettings(seed_training=1, seed_testing=2, **{field: value})


def test_run_settings_are_keyword_only_and_frozen(d2_params):
    run = RunSettings(seed_training=1, seed_testing=2)
    assert (run.testing_paths, run.n_pilot, run.replications, run.budget, run.threads) == (
        100_000, 2000, None, None, 1)
    with pytest.raises(TypeError):
        RunSettings(1, 2)
    with pytest.raises(TypeError):
        ExperimentConfig(d2_params, 1, 2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        run.threads = 2
    assert isinstance(small_config(d2_params), RunSettings)


def test_calibrate_is_a_pilot_then_choose_r_then_the_trunk_count(tree2, tree2_rules):
    A, B = tree2_rules
    run = RunSettings(seed_training=1, seed_testing=2, testing_paths=700, n_pilot=400, r_pilot=4)
    cal, R, rep, N = calibrate(tree2, A, B, run, "some-tag")
    assert cal == pilot(tree2, A, B, 400, 4, derive_seed(2, "some-tag"))
    assert (R, rep) == choose_R(cal, None)
    assert N == 700
    budgeted = dataclasses.replace(run, replications=3, budget=1e4)
    assert calibrate(tree2, A, B, budgeted, "some-tag") == (
        cal, 3, rep, trunks_for_budget(cal, 3, 1e4))


def test_config_is_frozen_value_object(d2_params):
    cfg = small_config(d2_params, sigma_hats=(0.23,))
    assert cfg == small_config(d2_params, sigma_hats=(0.23,))
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.n_pilot = 7
