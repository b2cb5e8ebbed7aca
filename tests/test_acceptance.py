"""Acceptance gate: one test per shipping criterion, at stated tolerances.

Statistical checks run at frozen seeds; each test prints a one-line summary
of the measured quantities next to their required bands.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from nccmc import rng
from nccmc.calibration import (
    CalibParams,
    gain,
    ml_allocation,
    optimal_R,
    robustness_bound,
    v_profile,
)
from nccmc.experiments import (
    ExperimentConfig,
    multilevel_estimate,
    param_uncertainty_study,
    qcv_estimate,
)
from nccmc.nested_cmc import estimate
from nccmc.oracle import exact_delta, exact_moments
from nccmc.process_models import GbmModel, GbmParams, bundled_tree
from nccmc.stopping_rules import TreeRule
from tests.conftest import random_calib_params

D2 = GbmParams(d=2, r=0.05, delta=0.1, sigma=0.2, K=100.0, y0=90.0, T=3.0, n_dates=10)
D3 = GbmParams(d=3, r=0.05, delta=0.1, sigma=0.2, K=100.0, y0=90.0, T=3.0, n_dates=10)


def tree_problem():
    tree = bundled_tree("tree_2period")
    return tree, TreeRule(tree, ["0"]), TreeRule(tree, ["1"])


def test_criterion_1_tree_estimates_match_enumeration():
    t0 = time.monotonic()
    tree, A, B = tree_problem()
    delta = exact_delta(tree, A, B)
    zs = []
    for R in (1, 5, 20):
        est = estimate(tree, A, B, 100_000, R, seed=314159, threads=8)
        z = abs(est.delta_hat - delta) / est.stderr
        zs.append(z)
        assert abs(est.delta_hat - delta) < 4 * est.stderr
    elapsed = time.monotonic() - t0
    print(f"criterion 1: |z| = {', '.join(f'{z:.2f}' for z in zs)} for R = 1, 5, 20 "
          f"(all < 4) in {elapsed:.1f}s")
    assert elapsed < 10.0


def test_criterion_2_variance_follows_the_two_component_law():
    t0 = time.monotonic()
    tree, A, B = tree_problem()
    _, v1, v2 = exact_moments(tree, A, B)
    N, reps, base = 1000, 200, 2026
    ratios = []
    for R in (1, 4, 16):
        deltas = [
            estimate(tree, A, B, N, R, seed=rng.derive_seed(base, f"vlaw-{R}-{m}")).delta_hat
            for m in range(reps)
        ]
        empirical = float(np.var(deltas, ddof=1))
        predicted = v1 / N + v2 / (R * N)
        ratio = empirical / predicted
        ratios.append(ratio)
        assert 0.75 < ratio < 1.25
    elapsed = time.monotonic() - t0
    print(f"criterion 2: var ratios = {', '.join(f'{r:.3f}' for r in ratios)} "
          f"for R = 1, 4, 16 (all within 25%) in {elapsed:.1f}s")
    assert elapsed < 120.0


def test_criterion_3_calibration_algebra():
    t0 = time.monotonic()
    col4 = CalibParams(v1=0.061, v2=16.066, rho1=7.972, rho2=0.199)
    col1 = CalibParams(v1=0.008, v2=4.023, rho1=7.975, rho2=0.053)
    r_star = optimal_R(col4).R_star
    g = gain(col1)
    assert r_star == pytest.approx(102.7, rel=0.02)
    assert g == pytest.approx(0.016, rel=0.05)
    assert robustness_bound(1.2) == pytest.approx(0.5 + (1.2 + 1 / 1.2) / 4, abs=1e-5)
    assert robustness_bound(2.0) == 1.125

    draw = np.random.default_rng(42)
    params = random_calib_params(draw, 10_000)
    for p in params:
        rep = optimal_R(p)
        base = v_profile(p, 1.0)
        # reflection symmetry around R*
        hi = min(10.0, rep.R_star)
        if hi > 1.0:
            alpha = float(draw.uniform(1.0, hi))
            assert v_profile(p, alpha * rep.R_star) == pytest.approx(
                v_profile(p, rep.R_star / alpha), rel=1e-10
            )
        # any count below R*^2 beats no replication at all
        if rep.condition_holds and rep.R_star ** 2 > 1.0:
            r_mid = float(draw.uniform(1.0, rep.R_star ** 2))
            if r_mid > 1.0:
                assert v_profile(p, r_mid) < base * (1 + 1e-12)
        # overshooting R* never loses to undershooting by the same amount
        if rep.R_star > 1.0:
            r_gap = float(draw.uniform(0.0, rep.R_star - 1.0))
            if r_gap > 0.0:
                assert v_profile(p, rep.R_star + r_gap) <= (
                    v_profile(p, rep.R_star - r_gap) * (1 + 1e-12)
                )
        # the integer count in use never loses to R = 1
        if rep.R_rounded > 1:
            assert v_profile(p, float(rep.R_rounded)) < base * (1 + 1e-12)
    elapsed = time.monotonic() - t0
    print(f"criterion 3: R* = {r_star:.1f}, gain = {g:.4f}, profile laws on "
          f"{len(params)} draws in {elapsed:.2f}s")
    assert elapsed < 1.0


def test_criterion_4_volatility_misestimation_study():
    t0 = time.monotonic()
    cfg = ExperimentConfig(
        params=D2,
        seed_training=20260816,
        seed_testing=20260817,
        training_paths=100_000,
        testing_paths=400_000,
        n_pilot=6000,
        r_pilot=128,
        sigma_hats=(0.205, 0.21),
        threads=8,
    )
    near, far = param_uncertainty_study(cfg)
    assert near.value_a == pytest.approx(8.042, abs=0.05)
    assert far.delta_hat == pytest.approx(0.026, abs=0.010)
    assert far.p_differ == pytest.approx(0.043, abs=0.015)
    assert 130.0 <= far.R_star <= 220.0
    assert far.speedup >= 20.0
    assert near.speedup >= 35.0
    elapsed = time.monotonic() - t0
    print(f"criterion 4: value = {near.value_a:.4f}, delta = {far.delta_hat:.4f}, "
          f"P(differ) = {far.p_differ:.4f}, R* = {far.R_star:.0f}, "
          f"speedups = {near.speedup:.0f}/{far.speedup:.0f} in {elapsed:.0f}s")
    assert elapsed < 300.0


def test_criterion_5_control_variate_pricing():
    t0 = time.monotonic()
    cfg = ExperimentConfig(
        params=D3,
        seed_training=101,
        seed_testing=102,
        training_paths=100_000,
        n_pilot=2000,
        r_pilot=64,
        committee_members=2000,
        member_size=500,
        budget=50e6,
        threads=8,
    )
    rep = qcv_estimate(cfg)
    assert rep.mu_b == pytest.approx(11.224, abs=0.05)
    assert rep.var_simple / rep.var_qcv > 3.0
    assert rep.var_qcv / rep.var_qcv_nested > 3.0
    predicted = rep.calibration.gamma_star
    assert 0.5 <= rep.measured_gain / predicted <= 2.0
    elapsed = time.monotonic() - t0
    print(f"criterion 5: mu_b = {rep.mu_b:.4f}, variance drops = "
          f"{rep.var_simple / rep.var_qcv:.1f}x then "
          f"{rep.var_qcv / rep.var_qcv_nested:.1f}x, gain ratio = "
          f"{rep.measured_gain / predicted:.2f} in {elapsed:.0f}s")
    assert elapsed < 600.0


def test_criterion_6_multilevel_ladder():
    t0 = time.monotonic()
    counts = ml_allocation([(251.3, 1.0), (6.556, 28.0), (0.128, 397.5)], budget=200_000.0)
    for got, want in zip(counts, (86_780, 2_650, 100)):
        assert got == pytest.approx(want, rel=0.02)
    alloc_elapsed = time.monotonic() - t0
    assert alloc_elapsed < 1.0

    cfg = ExperimentConfig(
        params=D2,
        seed_training=555,
        seed_testing=556,
        training_paths=100_000,
        n_pilot=2000,
        r_pilot=64,
        ladder=(10, 100, 1000),
        member_size=500,
        budget=10e6,
        threads=8,
    )
    rep = multilevel_estimate(cfg)
    assert abs(rep.telescoping_z) < 3.0
    assert rep.var_ml_nested < rep.var_ml < rep.var_simple
    elapsed = time.monotonic() - t0
    print(f"criterion 6: allocation = {counts}, z = {rep.telescoping_z:.2f}, "
          f"variances {rep.var_simple:.2e} > {rep.var_ml:.2e} > "
          f"{rep.var_ml_nested:.2e} in {elapsed:.0f}s")
    assert elapsed < 600.0


def test_criterion_7_cli_outputs_are_byte_identical(tmp_path):
    from nccmc import cli

    t0 = time.monotonic()
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "rules.a.training_paths=4000\n"
        "rules.b.sigma=0.23\n"
        "rules.b.training_paths=4000\n"
        "run.testing_paths=20000\n"
        "run.n_pilot=1000\n"
        "run.r_pilot=16\n"
    )
    payloads = []
    for tag, threads in (("a", "1"), ("b", "1"), ("c", "8")):
        out = tmp_path / tag
        rc = cli.main(["estimate", "--config", str(cfg), "--seed", "2718",
                       "--threads", threads, "--out", str(out)])
        assert rc == 0
        payloads.append(((out / "estimate.csv").read_bytes(),
                         (out / "estimate.json").read_bytes()))
    assert payloads[0] == payloads[1]  # rerun
    assert payloads[0] == payloads[2]  # 1 thread vs 8
    elapsed = time.monotonic() - t0
    print(f"criterion 7: estimate.csv and estimate.json byte-identical over "
          f"rerun and thread counts in {elapsed:.1f}s")
    assert elapsed < 60.0


def test_criterion_8_marginals_of_the_asset_model():
    t0 = time.monotonic()
    p = GbmParams(d=1, r=0.05, delta=0.1, sigma=0.2, K=100.0, y0=90.0, T=3.0, n_dates=10)
    z = rng.normals(99, rng.NS_TESTING, rng.TRUNK, 0, 1, 100_000, 1)
    y1 = GbmModel(p).step_batch(1, np.full((100_000, 1), p.y0), z)
    logret = np.log(y1[:, 0] / p.y0)
    mean = (p.r - p.delta - 0.5 * p.sigma ** 2) * p.dt
    sd = p.sigma * math.sqrt(p.dt)
    ks = stats.kstest(logret, "norm", args=(mean, sd))
    assert ks.pvalue > 0.01

    z2 = rng.normals(99, rng.NS_TESTING, rng.TRUNK, 0, 2, 1_000_000, 1)
    y2 = GbmModel(p).step_batch(1, np.full((1_000_000, 1), p.y0), z2)[:, 0]
    discounted = np.exp(-(p.r - p.delta) * p.dt) * y2
    se = discounted.std(ddof=1) / math.sqrt(len(discounted))
    z_mart = abs(discounted.mean() - p.y0) / se
    assert z_mart < 3.0
    elapsed = time.monotonic() - t0
    print(f"criterion 8: KS p = {ks.pvalue:.3f} (> 0.01), martingale |z| = "
          f"{z_mart:.2f} (< 3) in {elapsed:.1f}s")
    assert elapsed < 30.0
