"""Calibration algebra: replication counts, efficiency gains, allocations."""

import math

import numpy as np
import pytest

from nccmc.calibration import (
    CalibParams,
    DegenerateParamsError,
    choose_R,
    gain,
    ml_allocation,
    optimal_R,
    robustness_bound,
    trunks_for_budget,
    v_profile,
)
from tests.conftest import random_calib_params


# measured on the d = 2 benchmark; kept here as a worked example
COL4 = CalibParams(v1=0.061, v2=16.066, rho1=7.972, rho2=0.199)
COL1 = CalibParams(v1=0.008, v2=4.023, rho1=7.975, rho2=0.053)


def test_optimal_r_worked_example():
    rep = optimal_R(COL4)
    assert rep.R_star == pytest.approx(102.718, rel=2e-2)
    assert rep.condition_holds


def test_gain_worked_example():
    assert gain(COL1) == pytest.approx(0.016, rel=5e-2)


def test_gain_is_profile_ratio():
    for p in random_calib_params(np.random.default_rng(8), 200):
        rep = optimal_R(p)
        assert gain(p) == pytest.approx(
            v_profile(p, rep.R_star) / v_profile(p, 1.0), rel=1e-12
        )


def test_square_example_by_hand():
    # v2/v1 = 4 and rho1/rho2 = 4 give R* = 4 exactly
    p = CalibParams(v1=1.0, v2=4.0, rho1=4.0, rho2=1.0)
    rep = optimal_R(p)
    assert rep.R_star == pytest.approx(4.0, rel=1e-12)
    assert rep.R_rounded == 4
    assert v_profile(p, 2.0) == pytest.approx(18.0, rel=1e-12)
    assert v_profile(p, 8.0) == pytest.approx(18.0, rel=1e-12)
    assert rep.gamma_star == pytest.approx(16.0 / 25.0, rel=1e-12)


def test_boundary_condition_fails():
    p = CalibParams(v1=1.0, v2=1.0, rho1=1.0, rho2=1.0)
    rep = optimal_R(p)
    assert not rep.condition_holds
    assert rep.R_star == 1.0
    assert rep.R_rounded == 1
    assert gain(p) == 1.0
    assert v_profile(p, 1.0) == pytest.approx(4.0, rel=1e-12)


def test_rounding_ties_go_up():
    # R* = sqrt(6.25 * 1) = 2.5 exactly
    p = CalibParams(v1=1.0, v2=1.0, rho1=6.25, rho2=1.0)
    rep = optimal_R(p)
    assert rep.R_star == pytest.approx(2.5, rel=1e-12)
    assert rep.R_rounded == 3


def test_rounding_never_below_one():
    p = CalibParams(v1=100.0, v2=1.0, rho1=1.0, rho2=100.0)
    rep = optimal_R(p)
    assert rep.R_star == 1.0
    assert rep.R_rounded == 1


# a pilot that floored v1: optimal_R would read R* = sqrt(16 * 4e12) = 8e6 from it
DEGENERATE = CalibParams(v1=1e-12, v2=4.0, rho1=8.0, rho2=0.5, p_differ=0.1, degenerate=True)


def test_choose_r_follows_optimal_r_on_a_sound_pilot():
    for p in (COL4, COL1, CalibParams(v1=1.0, v2=1.0, rho1=1.0, rho2=1.0)):
        assert choose_R(p, None) == (optimal_R(p).R_rounded, optimal_R(p))


def test_choose_r_gives_no_nesting_on_a_degenerate_pilot():
    assert optimal_R(DEGENERATE).R_star > 1e6
    R, rep = choose_R(DEGENERATE, None)
    assert R == 1
    assert (rep.R_star, rep.R_rounded, rep.gamma_star) == (1.0, 1, 1.0)
    assert (rep.gain_lower, rep.gain_upper) == (1.0, 1.0)
    assert rep.condition_holds is False


def test_choose_r_override_wins():
    for p in (COL4, DEGENERATE):
        R, rep = choose_R(p, 7)
        assert R == 7
        assert rep == choose_R(p, None)[1]  # the report stays the calibration's


def test_trunks_for_budget():
    p = CalibParams(v1=1.0, v2=1.0, rho1=3.0, rho2=0.5)
    assert trunks_for_budget(p, 4, 1000.0) == 200
    assert trunks_for_budget(p, 4, 999.0) == 199  # rounds down
    assert trunks_for_budget(p, 4, 1.0) == 2       # never below two


def test_robustness_bound_values():
    assert robustness_bound(1.2) == pytest.approx(0.5 + (1.2 + 1 / 1.2) / 4, abs=1e-15)
    assert robustness_bound(2.0) == 1.125
    assert robustness_bound(1.0) == 1.0
    with pytest.raises(ValueError):
        robustness_bound(0.9)


def test_misestimation_is_bounded():
    rng = np.random.default_rng(12)
    for p in random_calib_params(rng, 500):
        rep = optimal_R(p)
        if not rep.condition_holds:
            continue
        alpha = float(rng.uniform(1.0, min(10.0, rep.R_star)))
        if alpha <= 1.0:
            continue
        cap = robustness_bound(alpha) * v_profile(p, rep.R_star)
        assert v_profile(p, alpha * rep.R_star) <= cap * (1 + 1e-12)
        assert v_profile(p, rep.R_star / alpha) <= cap * (1 + 1e-12)


def test_profile_reflection_symmetry():
    rng = np.random.default_rng(4)
    for p in random_calib_params(rng, 10_000):
        rep = optimal_R(p)
        hi = min(10.0, rep.R_star)  # alpha/R* must stay a valid count (>= 1)
        if hi <= 1.0:
            continue
        alpha = float(rng.uniform(1.0, hi))
        left = v_profile(p, alpha * rep.R_star)
        right = v_profile(p, rep.R_star / alpha)
        assert left == pytest.approx(right, rel=1e-10)


def test_profile_orderings():
    # over random parameter draws: any 1 < R < R*^2 beats R = 1; the profile
    # is closer to its minimum on the high side of R* than the low side; and
    # the rounded count never loses to R = 1
    rng = np.random.default_rng(4)
    for p in random_calib_params(rng, 10_000):
        rep = optimal_R(p)
        base = v_profile(p, 1.0)
        if rep.condition_holds and rep.R_star ** 2 > 1.0 + 1e-9:
            r_mid = float(rng.uniform(1.0, rep.R_star ** 2))
            if r_mid > 1.0:
                assert v_profile(p, r_mid) < base * (1 + 1e-12)
        r_gap = float(rng.uniform(0.0, rep.R_star - 1.0)) if rep.R_star > 1.0 else 0.0
        if r_gap > 0.0:
            lo = v_profile(p, rep.R_star - r_gap)
            hi = v_profile(p, rep.R_star + r_gap)
            assert hi <= lo * (1 + 1e-12)
        if rep.R_rounded > 1:
            assert v_profile(p, float(rep.R_rounded)) < base * (1 + 1e-12)


def test_gain_sandwiched_by_closed_forms():
    for p in random_calib_params(np.random.default_rng(31), 10_000):
        rep = optimal_R(p)
        lower = max(p.rho2 / (p.rho1 + p.rho2), p.v1 / (p.v1 + p.v2))
        assert rep.gain_lower == pytest.approx(lower, rel=1e-12)
        assert rep.gain_upper == pytest.approx(4 * lower, rel=1e-12)
        g = gain(p)
        assert lower * (1 - 1e-12) <= g <= 4 * lower * (1 + 1e-12)
        assert rep.gamma_star == pytest.approx(g, rel=1e-12)


def test_profile_convex_in_r():
    for p in random_calib_params(np.random.default_rng(77), 300):
        rs = np.linspace(1.0, 50.0, 40)
        vals = np.array([v_profile(p, r) for r in rs])
        second = np.diff(vals, 2)
        assert np.all(second >= -1e-9 * np.abs(vals[:-2]).max())


def test_profile_rejects_fractional_budget():
    with pytest.raises(ValueError):
        v_profile(COL4, 0.5)


def test_params_must_be_positive():
    with pytest.raises(DegenerateParamsError):
        CalibParams(v1=0.0, v2=1.0, rho1=1.0, rho2=1.0)
    with pytest.raises(DegenerateParamsError):
        CalibParams(v1=1.0, v2=-2.0, rho1=1.0, rho2=1.0)
    with pytest.raises(DegenerateParamsError):
        CalibParams(v1=1.0, v2=1.0, rho1=0.0, rho2=1.0)


# --- budget splits -------------------------------------------------------------

def cv_levels(vB, rhoB, p, R):
    # the control-variate split is ml_allocation's two-level case: a baseline
    # path at (vB, rhoB), a correction trunk at (v1 + v2/R, rho1 + rho2 R)
    return [(vB, rhoB), (p.v1 + p.v2 / R, p.rho1 + p.rho2 * R)]


def test_qcv_allocation_worked_example():
    p = CalibParams(v1=0.044, v2=19.536, rho1=36.23, rho2=1.728)
    n_b, n = ml_allocation(cv_levels(vB=206.0, rhoB=0.0124, p=p, R=100), budget=1e6)
    assert n_b / n == pytest.approx(3809.0, rel=1e-2)
    assert n_b >= 1 and n >= 1


def test_qcv_allocation_symmetric_case():
    # baseline variance and cost equal to one correction trunk's: equal counts
    p = CalibParams(v1=0.5, v2=1.0, rho1=1.0, rho2=1.0)
    R = 2
    v_trunk = p.v1 + p.v2 / R
    rho_trunk = p.rho1 + p.rho2 * R
    n_b, n = ml_allocation(cv_levels(vB=v_trunk, rhoB=rho_trunk, p=p, R=R), budget=1e6)
    assert n_b == pytest.approx(n, rel=2e-3)


def test_qcv_allocation_scales_with_budget():
    p = CalibParams(v1=0.044, v2=19.536, rho1=36.23, rho2=1.728)
    levels = cv_levels(vB=206.0, rhoB=0.0124, p=p, R=100)
    small = ml_allocation(levels, budget=1e6)
    large = ml_allocation(levels, budget=2e6)
    assert large[0] == pytest.approx(2 * small[0], rel=5e-3)
    assert large[1] == pytest.approx(2 * small[1], rel=2e-2)


def test_qcv_allocation_spends_the_budget():
    p = CalibParams(v1=0.044, v2=19.536, rho1=36.23, rho2=1.728)
    budget = 1e6
    n_b, n = ml_allocation(cv_levels(vB=206.0, rhoB=0.0124, p=p, R=100), budget=budget)
    spent = n_b * 0.0124 + n * (36.23 + 1.728 * 100)
    assert spent <= budget
    assert spent >= 0.99 * budget


def test_qcv_allocation_infeasible_budget():
    p = CalibParams(v1=1.0, v2=1.0, rho1=10.0, rho2=1.0)
    with pytest.raises(ValueError):
        ml_allocation(cv_levels(vB=1.0, rhoB=10.0, p=p, R=5), budget=20.0)


def test_ml_allocation_worked_example():
    levels = [(251.3, 1.0), (6.556, 28.0), (0.128, 397.5)]
    counts = ml_allocation(levels, budget=200_000.0)
    for got, want in zip(counts, (86_780, 2_650, 100)):
        assert got == pytest.approx(want, rel=2e-2)


def test_ml_allocation_single_level():
    assert ml_allocation([(3.0, 2.0)], budget=100.0) == [50]


def test_ml_allocation_identical_levels_split_evenly():
    counts = ml_allocation([(1.0, 1.0), (1.0, 1.0)], budget=1000.0)
    assert abs(counts[0] - counts[1]) <= 1


def test_ml_allocation_respects_budget():
    rng = np.random.default_rng(5)
    for _ in range(200):
        levels = [(float(rng.uniform(0.1, 100)), float(rng.uniform(0.5, 50)))
                  for _ in range(4)]
        budget = float(sum(c for _, c in levels)) * rng.uniform(2, 100)
        counts = ml_allocation(levels, budget=budget)
        spent = sum(n * c for n, (_, c) in zip(counts, levels))
        assert all(n >= 1 for n in counts)
        assert spent <= budget
        # greedy fill leaves less than one cheapest-level slot unspent
        assert budget - spent < min(c for _, c in levels)


def test_ml_allocation_rejects_bad_input():
    with pytest.raises(ValueError):
        ml_allocation([], budget=100.0)
    with pytest.raises(ValueError):
        ml_allocation([(1.0, 0.0)], budget=100.0)
    with pytest.raises(ValueError):
        ml_allocation([(-1.0, 1.0)], budget=100.0)
    with pytest.raises(ValueError):
        ml_allocation([(1.0, 60.0), (1.0, 60.0)], budget=100.0)


def one_sample_allocation(levels, budget):
    """ml_allocation written out with its leftover spent one sample per step."""
    lam = budget / sum(math.sqrt(v * c) for v, c in levels)
    counts = [max(1, math.floor(lam * math.sqrt(v / c))) for v, c in levels]
    remaining = budget - sum(n * c for n, (_, c) in zip(counts, levels))
    while True:
        best, best_score = -1, -1.0
        for k, (v, c) in enumerate(levels):
            if c <= remaining:
                score = v / (counts[k] * (counts[k] + 1)) / c
                if score > best_score:
                    best, best_score = k, score
        if best < 0:
            return counts
        counts[best] += 1
        remaining -= levels[best][1]


def test_ml_allocation_fills_a_cheap_level_like_the_one_sample_loop():
    # a nested level that costs 10^7 times the baseline: about 8M leftover
    # baseline samples once the nested level is out of reach
    levels = [(1324.9, 0.00657), (9.67 + 4.7e-4 / 317, 458.3 + 198.1 * 317)]
    assert ml_allocation(levels, 1.03e7) == one_sample_allocation(levels, 1.03e7)


def test_ml_allocation_matches_the_one_sample_loop():
    rng = np.random.default_rng(9)
    for _ in range(3000):
        levels = [(float(10 ** rng.uniform(-4, 4)), float(10 ** rng.uniform(-2, 3)))
                  for _ in range(int(rng.integers(1, 5)))]
        budget = sum(c for _, c in levels) * float(10 ** rng.uniform(0, 4))
        assert ml_allocation(levels, budget) == one_sample_allocation(levels, budget), (levels, budget)
