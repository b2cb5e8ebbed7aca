"""Rule semantics: tie handling, shifts, committees, training."""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from nccmc import stopping_rules
from nccmc.nested_cmc import _trunk_block
from nccmc.process_models import GbmModel, GbmParams, simulate_training_paths
from nccmc.rng import derive_seed
from nccmc.stopping_rules import (
    CommitteeRule,
    FixedDateRule,
    RegressionRule,
    TreeRule,
    _fit_backward,
    basis_matrix,
    basis_size,
    shift_rule,
    train_committee,
    train_tvr,
)
from tests.conftest import full_paths


def params(**kw):
    base = dict(d=2, r=0.05, delta=0.1, sigma=0.2, K=100.0, y0=90.0, T=3.0, n_dates=10)
    base.update(kw)
    return GbmParams(**base)


def constant_rule(c: float, d: int = 1) -> RegressionRule:
    """A one-date regression rule whose predicted continuation is identically c."""
    coeffs = np.zeros((1, basis_size(d)))
    coeffs[:, 0] = c
    return RegressionRule(coeffs, y0=90.0)


def decide(rule, j, state, payoff) -> bool:
    """The rule's decision for one row, asked as a batch of one."""
    return bool(rule.decide_batch(j, np.array([state]), np.array([payoff]))[0])


def by_definition(rule, j, states, pay):
    """The decisions by definition: a positive payoff at or above the exact threshold stops."""
    return (pay >= rule.continuation_batch(j, states, pay)) & (pay > 0.0)


# --- basis -------------------------------------------------------------------

def test_basis_size_counts_monomials():
    assert basis_size(1) == 4
    assert basis_size(2) == 7
    assert basis_size(3) == 11


def test_basis_matrix_columns_by_hand():
    A = basis_matrix(np.array([[90.0, 180.0]]), np.array([45.0]), y0=90.0)
    assert np.allclose(A[0], [1.0, 1.0, 2.0, 1.0, 2.0, 4.0, 0.5])


# --- decision conventions -----------------------------------------------------

def test_payoff_equal_to_continuation_stops():
    rule = constant_rule(5.0)
    assert decide(rule, 0, [100.0], 5.0)
    assert not decide(rule, 0, [100.0], 4.999)


def test_zero_payoff_zero_continuation_continues():
    # a worthless position never stops, not even on a tie with a zero threshold
    rule = constant_rule(0.0)
    assert not decide(rule, 0, [80.0], 0.0)
    assert not decide(rule, 0, [80.0], -0.0)
    assert decide(rule, 0, [80.0], 5e-324)  # the least positive payoff does


def test_zero_payoff_negative_continuation_continues():
    # a negative fitted continuation out of the money is extrapolation
    # noise; cashing out nothing on it would distort the stopping time
    rule = constant_rule(-0.5)
    assert not decide(rule, 0, [80.0], 0.0)
    assert decide(rule, 0, [80.0], 0.2)  # any real payoff beats it


def test_fixed_date_rule():
    rule = FixedDateRule(2)
    assert [decide(rule, j, 0, 1.0) for j in range(4)] == [False, False, True, True]
    assert rule.eval_cost == 0
    with pytest.raises(ValueError):
        FixedDateRule(-1)


def test_tree_rule_rejects_unknown_label(tree2):
    with pytest.raises(ValueError):
        TreeRule(tree2, ["nonexistent"])


# --- stopping dates in the stage-one kernel ------------------------------------

def stop_dates(rule, p, n, seed):
    """Each path's stopping date under rule, from stage one against it alone."""
    return _trunk_block(GbmModel(p), (rule,), seed, 0, n)[0]


def test_evaluate_fixed_maturity_and_stop_everywhere():
    p = params()
    assert np.all(stop_dates(FixedDateRule(p.J), p, 20, seed=3) == p.J)
    assert np.all(stop_dates(FixedDateRule(0), p, 20, seed=3) == 0)
    assert np.all(stop_dates(FixedDateRule(4), p, 20, seed=3) == 4)


def test_stopping_date_never_exceeds_maturity(small_rule_pair, d2_params):
    rule, _ = small_rule_pair
    taus = stop_dates(rule, d2_params, 2000, seed=91)
    assert np.all((0 <= taus) & (taus <= d2_params.J))
    assert np.any(taus < d2_params.J)


def test_decisions_depend_only_on_current_state(small_rule_pair, small_paths, d2_params):
    # a row's decision is the same whatever rows share its batch
    committee = train_committee(small_paths, members=9, member_size=80)
    gen = np.random.default_rng(17)
    assets, pays = full_paths(small_paths)
    for rule in (small_rule_pair[0], committee):
        for j in range(d2_params.J):
            states = assets[:300, j]
            payoffs = pays[:300, j]
            whole = rule.decide_batch(j, states, payoffs)
            perm = gen.permutation(300)
            assert np.array_equal(rule.decide_batch(j, states[perm], payoffs[perm]), whole[perm])
            part = perm[:37]
            assert np.array_equal(rule.decide_batch(j, states[part], payoffs[part]), whole[part])


# --- training ------------------------------------------------------------------

def test_two_date_fit_predicts_sample_mean():
    # at date 0 every training row is identical, so the fitted continuation
    # must be the plain average of the date-1 payoffs
    p = params(n_dates=2)
    paths = simulate_training_paths(p, 600, 88)
    rule = train_tvr(paths)
    assets, payoffs = full_paths(paths)
    pred = rule.continuation_batch(0, assets[:, 0], payoffs[:, 0])
    assert np.allclose(pred, payoffs[:, 1].mean(), atol=1e-8)


def test_constant_process_stops_immediately():
    p = params(d=1, y0=120.0, r=0.0, delta=0.0, sigma=0.0, n_dates=4)
    paths = simulate_training_paths(p, 50, 5)
    assert np.ptp(full_paths(paths)[1]) == 0.0  # degenerate by construction
    rule = train_tvr(paths)
    assert np.all(stop_dates(rule, p, 4, seed=6) == 0)


def test_all_zero_payoffs_run_to_maturity():
    # out-of-the-money degenerate process: fitted continuation is exactly 0,
    # and a zero payoff never stops, so every path runs to date J
    p = params(d=1, y0=50.0, r=0.0, delta=0.0, sigma=0.0, n_dates=4)
    paths = simulate_training_paths(p, 50, 5)
    rule = train_tvr(paths)
    assert not rule.member_coeffs.any()
    assert np.all(stop_dates(rule, p, 4, seed=6) == p.J)


# d = 2 with ten dates: J = 9 decision dates, a 7-column basis
@pytest.mark.parametrize("shape,message", [
    ((9, 7), "coefficient array"), ((2, 9, 6), "coefficient array"),
    ((2, 9, 7, 1), "coefficient array"), ((0, 9, 7), "at least one member"),
    ((2, 9, 1), "coefficient array"), ((2, 9, 0), "coefficient array"),
], ids=["two-dims", "wrong-basis", "four-dims", "no-members", "one-column", "no-columns"])
def test_committee_rejects_misshapen_coefficients(shape, message):
    with pytest.raises(ValueError, match=message):
        CommitteeRule(np.zeros(shape), 90.0)


@pytest.mark.parametrize("shape", [(7,), (9, 6), (1, 9, 7)], ids=["one-dim", "wrong-basis", "three-dims"])
def test_regression_rule_rejects_misshapen_coefficients(shape):
    with pytest.raises(ValueError, match="coefficient array"):
        RegressionRule(np.zeros(shape), 90.0)


@pytest.mark.parametrize("d", [1, 2, 5])
def test_coefficient_width_is_a_basis_size(d):
    # widths 4, 7 and 22 are basis_size(1), (2) and (5); the width is the one
    # record of d a rule keeps
    B = basis_size(d)
    assert B == {1: 4, 2: 7, 5: 22}[d]
    assert CommitteeRule(np.zeros((3, 2, B)), 90.0).member_coeffs.shape == (3, 2, B)
    assert RegressionRule(np.zeros((2, B)), 90.0).members == 1


def test_training_needs_enough_paths():
    p = params()
    paths = simulate_training_paths(p, 5, 77)
    with pytest.raises(ValueError):
        train_tvr(paths)


def test_training_deterministic(d2_params):
    a = train_tvr(simulate_training_paths(d2_params, 500, 31))
    b = train_tvr(simulate_training_paths(d2_params, 500, 31))
    assert np.array_equal(a.member_coeffs, b.member_coeffs)


def test_basis_matrix_fills_out_with_the_bits_of_a_fresh_call():
    gen = np.random.default_rng(4)
    states = 90.0 * np.exp(gen.normal(scale=0.3, size=(5000, 3)))
    payoffs = np.maximum(states.max(axis=1) - 100.0, 0.0)
    buf = np.full((5000, basis_size(3)), np.nan)
    assert basis_matrix(states, payoffs, 90.0, out=buf) is buf
    assert np.array_equal(buf, basis_matrix(states, payoffs, 90.0))


def test_fit_is_a_least_squares_per_date_in_one_basis_buffer():
    p = params(d=5)
    n, B = 20_000, basis_size(5)
    assets, payoffs = full_paths(simulate_training_paths(p, n, 29))
    tracemalloc.start()
    try:
        coeffs = _fit_backward(lambda j: assets[:, j], payoffs[None, :, p.J], GbmModel(p))[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # measured 1.25 basis matrices: the one buffer, its tile scratch and the
    # value vectors (gelsd's own copy is not traced); a fit that builds each
    # date's matrix afresh holds two at once, 2.25
    assert peak < 1.6 * n * B * 8, peak / (n * B * 8)
    assert np.array_equal(coeffs, reference_fit(assets, payoffs, p.y0))


def reference_fit(assets, payoffs, y0):
    """Backward induction by hand: one np.linalg.lstsq per date on full arrays."""
    J = payoffs.shape[1] - 1
    coeffs = np.empty((J, basis_size(assets.shape[2])))
    value = payoffs[:, J]
    for j in reversed(range(J)):
        A = basis_matrix(assets[:, j], payoffs[:, j], y0)
        coeffs[j] = np.linalg.lstsq(A, value, rcond=1e-10)[0]
        value = np.maximum(payoffs[:, j], A @ coeffs[j])
    return coeffs


@pytest.mark.parametrize("n_dates", [2, 3, 4, 10, 11])
@pytest.mark.parametrize("d", [1, 2, 5])
def test_trained_coefficients_equal_a_per_date_fit_on_the_full_paths(d, n_dates):
    # the pool keeps every other date and the fits step the rest: the same
    # coefficients, to the last bit, as a fit on every date of every path
    p = params(d=d, n_dates=n_dates)
    paths = simulate_training_paths(p, 400, 61)
    assets, payoffs = full_paths(paths)
    assert np.array_equal(train_tvr(paths).member_coeffs[0], reference_fit(assets, payoffs, p.y0))
    committee = train_committee(paths, members=3, member_size=150)
    for m in range(3):
        idx = np.random.default_rng(derive_seed(61, f"committee-member-{m}")).integers(0, 400, size=150)
        want = reference_fit(assets[idx], payoffs[idx], p.y0)
        assert np.array_equal(committee.member_coeffs[m], want), m


@pytest.mark.parametrize("members", [1, 63, 64, 65, 129])
@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_stacked_committee_fits_equal_one_lstsq_per_member(d, members):
    # members fit in stacks of at most 64, one gelsd each on its own rows:
    # the bits of a per-member np.linalg.lstsq per date, whatever the stack
    p = params(d=d)
    paths = simulate_training_paths(p, 300, 17)
    assets, payoffs = full_paths(paths)
    got = train_committee(paths, members, member_size=40).member_coeffs
    for m in range(members):
        idx = np.random.default_rng(derive_seed(17, f"committee-member-{m}")).integers(0, 300, size=40)
        assert np.array_equal(got[m], reference_fit(assets[idx], payoffs[idx], p.y0)), m


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_fit_whose_svd_fails_raises_as_lstsq_does():
    # a finite price whose square overflows puts an inf in the design: gelsd
    # does not converge, and the stacked solve says so as np.linalg.lstsq
    # does, although the other fit of the stack converges
    p = params()
    clean, payoffs = full_paths(simulate_training_paths(p, 200, 5))
    assets = clean.copy()
    assets[7, p.J - 1, 0] = 1e200
    with pytest.raises(np.linalg.LinAlgError):
        reference_fit(assets, payoffs, p.y0)
    stack = np.concatenate([clean, assets])
    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        _fit_backward(lambda j: stack[:, j], np.stack([payoffs[:, p.J]] * 2), GbmModel(p))


_COMMITTEE_BYTES = """
import hashlib
from nccmc.process_models import GbmParams, simulate_training_paths
from nccmc.stopping_rules import train_committee
p = GbmParams(d=3, r=0.05, delta=0.1, sigma=0.2, K=100.0, y0=90.0, T=3.0, n_dates=10)
pool = simulate_training_paths(p, 20_000, 101)
for size in (500, 4000):
    print(hashlib.sha256(train_committee(pool, 65, size).member_coeffs.tobytes()).hexdigest())
"""


def test_committee_bits_do_not_depend_on_the_blas_thread_count():
    # a member's gelsd on 500 or 4000 rows rounds the same at one and two
    # BLAS threads (unlike train_tvr's fit on a whole pool, at d = 3)
    src = os.path.dirname(os.path.dirname(stopping_rules.__file__))
    out = [subprocess.run([sys.executable, "-c", _COMMITTEE_BYTES], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": t}).stdout
           for t in ("1", "2")]
    assert len(out[0].split()) == 2
    assert out[0] == out[1]


def test_training_holds_half_the_pool_and_one_date():
    # the pool keeps 4 of the 10 dates' assets, and the fit steps one more
    # date at a time: measured 0.84 of half the full (n, 10, 5) assets plus
    # 2.5 basis matrices, where a pool of every date and its payoff table
    # read 1.09
    p = params(d=5)
    n, B = 20_000, basis_size(5)
    tracemalloc.start()
    try:
        train_tvr(simulate_training_paths(p, n, 29))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * p.n_dates * p.d * 8 / 2 + 2.5 * n * B * 8


# --- shift wrapper ---------------------------------------------------------------

def test_zero_shift_returns_base_rule(small_rule_pair):
    rule, _ = small_rule_pair
    assert shift_rule(rule, 0.0) is rule


def test_shift_requires_continuation_value():
    with pytest.raises(TypeError):
        shift_rule(FixedDateRule(0), 0.1)


def test_huge_shift_behaves_like_fixed_maturity(small_rule_pair, d2_params):
    rule, _ = small_rule_pair
    shifted = shift_rule(rule, 1e9)
    assert np.all(stop_dates(shifted, d2_params, 500, seed=55) == d2_params.J)


def batch_taus(rule, bundle):
    """Vectorized first-stop dates along a bundle of full paths."""
    assets, payoffs = full_paths(bundle)
    n, n_dates, _ = assets.shape
    taus = np.full(n, n_dates - 1)
    undecided = np.ones(n, dtype=bool)
    for j in range(n_dates - 1):
        stop = rule.decide_batch(j, assets[:, j], payoffs[:, j])
        taus[undecided & stop] = j
        undecided &= ~stop
    return taus


def test_shift_monotone_in_epsilon(small_rule_pair, d2_params):
    rule, _ = small_rule_pair
    bundle = simulate_training_paths(d2_params, 10_000, 123)
    prev = batch_taus(rule, bundle)
    for eps in (0.05, 0.2, 1.0):
        cur = batch_taus(shift_rule(rule, eps), bundle)
        assert np.all(cur >= prev)
        prev = cur


def test_shift_preserves_cost(small_rule_pair):
    rule, _ = small_rule_pair
    assert shift_rule(rule, 0.1).eval_cost == rule.eval_cost


def test_shift_keeps_the_rule_class(small_rule_pair):
    rule, _ = small_rule_pair
    shifted = shift_rule(shift_rule(rule, 0.1), -0.3)
    assert type(shifted) is RegressionRule
    assert shifted.eval_cost == rule.eval_cost == 1
    assert shifted.shift == 0.1 + -0.3 and rule.shift == 0.0
    assert shifted.member_coeffs is rule.member_coeffs


@pytest.mark.parametrize("a, b", [(0.1, -0.3), (0.25, -1.0 + 1e-9), (1e-300, -0.25), (2.0**-53, 1.0)])
@pytest.mark.parametrize("members", [1, 3, 10, 2000])
def test_shifting_twice_adds_the_shifts_first(members, a, b):
    # one shift of a + b, rounded once: fl(fl(a + b) + median), not fl(fl(median + a) + b)
    gen = np.random.default_rng([members, 31])
    base = random_committee(gen, members, J=2)
    rule = shift_rule(shift_rule(base, a), b)
    assert rule.shift == a + b and base.shift == 0.0
    assert rule._bands is base._bands
    states, payoffs = random_states(gen, 300)
    assert_matches_median(rule, states, payoffs)
    for pay in at_threshold(rule, states):
        assert_matches_median(rule, states, pay)


@pytest.mark.parametrize("eps", [np.nan, np.inf, -np.inf])
def test_shift_must_be_finite(small_rule_pair, eps):
    rule = small_rule_pair[0]
    with pytest.raises(ValueError, match="shift must be finite"):
        shift_rule(rule, eps)


@pytest.mark.parametrize("a, b", [(1e308, 1e308), (-1e308, -1e308)])
def test_shifts_whose_sum_overflows_are_rejected(small_rule_pair, a, b):
    rule = shift_rule(small_rule_pair[0], a)
    with pytest.raises(ValueError, match="shift must be finite"):
        shift_rule(rule, b)


# --- a regression rule against its written-out formula ---------------------------

def regression_formula(coeffs, y0, shift, j, states, payoffs):
    """Stop when a positive payoff >= A . coeffs[j] plus the shift.  The
    product is numpy's own einsum loop, a sum per row, as the rule computes
    it in any batch."""
    thr = np.einsum("ij,j->i", basis_matrix(states, payoffs, y0), coeffs[j])
    if shift:
        thr = thr + shift
    return (payoffs >= thr) & (payoffs > 0.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("n", [1, 2, 3, 64, 16384])
@pytest.mark.parametrize("d", [1, 2, 5])
def test_regression_rule_decides_by_the_formula(d, n):
    gen = np.random.default_rng(100 * d + n)
    J = 3
    coeffs = gen.normal(scale=3.0, size=(J, basis_size(d)))
    coeffs[:, 0] += 0.5  # thresholds straddle zero
    states = 90.0 * np.exp(gen.normal(scale=0.3, size=(n, d)))
    payoffs = np.maximum(states.max(axis=1) - 100.0, 0.0)
    if n >= 3:
        states[0, 0] = np.inf
        states[1, -1] = np.nan
        payoffs[2] = np.nan
    base = RegressionRule(coeffs, y0=90.0)
    for shift in (0.0, 0.25, -1e-17, 0.25 + (-1.0 + 1e-9)):
        rule = shift_rule(base, shift)
        for j in range(J):
            want = regression_formula(coeffs, 90.0, shift, j, states, payoffs)
            assert np.array_equal(rule.decide_batch(j, states, payoffs), want), (shift, j)


# --- committees -------------------------------------------------------------------

def test_committee_median_decides():
    members = np.zeros((3, 1, basis_size(1)))
    members[:, 0, 0] = [1.0, 5.0, 9.0]
    rule = CommitteeRule(members, y0=90.0)
    y = np.array([100.0])
    assert rule.continuation_batch(0, y[None], np.array([0.0]))[0] == 5.0
    assert decide(rule, 0, y, 5.0)
    assert not decide(rule, 0, y, 4.9)
    assert rule.eval_cost == 3


def test_committee_prefix_is_smaller_committee(small_paths):
    big = train_committee(small_paths, members=5, member_size=100)
    small = train_committee(small_paths, members=3, member_size=100)
    assert np.array_equal(big.prefix(3).member_coeffs, small.member_coeffs)
    assert big.prefix(5).members == 5
    with pytest.raises(ValueError):
        big.prefix(0)
    with pytest.raises(ValueError):
        big.prefix(6)


def test_committee_training_validation(small_paths):
    with pytest.raises(ValueError):
        train_committee(small_paths, members=0, member_size=100)
    with pytest.raises(ValueError):
        train_committee(small_paths, members=2, member_size=3)


# --- committee decisions against the median definition ----------------------------

def median_threshold(rule, j, states, payoffs):
    """The committee's stop threshold by definition: median of all member
    predictions, plus the rule's shift.  With two or more members each row is
    multiplied as part of a pair, so a lone row rounds as it does in a batch
    (alone, BLAS would take its matrix-vector kernel, which rounds differently);
    one member's prediction is numpy's own einsum loop, a sum per row."""
    A, C = basis_matrix(states, payoffs, rule.y0), rule.member_coeffs[:, j, :]
    if rule.members > 1:
        preds = (np.repeat(A, 2, axis=0) @ C.T)[::2]
    else:
        preds = np.einsum("ij,j->i", A, C[0])[:, None]
    thr = np.median(preds, axis=1)
    if rule.shift:
        thr = thr + rule.shift
    return thr


def assert_matches_median(rule, states, payoffs):
    pay = np.asarray(payoffs)
    for j in range(rule.member_coeffs.shape[1]):
        thr = median_threshold(rule, j, states, pay)
        want = (pay >= thr) & (pay > 0.0)
        got = rule.decide_batch(j, states, pay)
        assert got.dtype == bool
        assert np.array_equal(got, want), (j, len(pay))


def random_committee(gen, members, J=3, payoff_blind=False):
    coeffs = gen.normal(scale=3.0, size=(members, J, basis_size(2)))
    coeffs[:, :, 0] += 0.5  # member medians straddle zero
    if payoff_blind:
        # predictions ignore the payoff column, so a payoff can sit exactly on them
        coeffs[:, :, -1] = 0.0
    return CommitteeRule(coeffs, y0=90.0)


def random_states(gen, n):
    states = 90.0 * np.exp(gen.normal(scale=0.3, size=(n, 2)))
    return states, np.maximum(states.max(axis=1) - 100.0, 0.0)


def at_threshold(rule, states):
    """Payoffs exactly at each row's date-0 threshold, and one ulp either side."""
    thr = median_threshold(rule, 0, states, np.zeros(len(states)))
    return thr, np.nextafter(thr, -np.inf), np.nextafter(thr, np.inf)


@pytest.mark.parametrize("members", [1, 2, 3, 10, 65, 2000])
def test_committee_counting_equals_median(members):
    gen = np.random.default_rng(members)
    rule = random_committee(gen, members)
    states, payoffs = random_states(gen, 400)
    assert_matches_median(rule, states, payoffs)
    assert_matches_median(rule, states, np.zeros(len(states)))  # zero payoffs never stop
    for n in (0, 1, 2, 3):
        assert_matches_median(rule, states[:n], payoffs[:n])


@pytest.mark.parametrize("m", [1, 2, 3, 10, 64, 65, 129, 2000])
def test_committee_prefix_ties_at_median(m):
    gen = np.random.default_rng(11)
    rule = random_committee(gen, 2000, J=1, payoff_blind=True).prefix(m)
    states, _ = random_states(gen, 300)
    for payoffs in at_threshold(rule, states):
        assert_matches_median(rule, states, payoffs)
        for n in (1, 2):
            assert_matches_median(rule, states[:n], payoffs[:n])
        lone = np.where(np.arange(len(payoffs)) == 5, payoffs, 1e6)  # one tied row among clear stops
        assert_matches_median(rule, states, lone)


@pytest.mark.parametrize("shift", [0.0, 0.05])
@pytest.mark.parametrize("members", [1, 2, 3, 64, 65, 129, 2000])
def test_committee_row_decides_alone_as_in_its_batch(members, shift):
    # payoffs at each row's threshold in the whole batch and one ulp either
    # side: asked alone, as a pair, or in odd sub-batches at odd offsets, a
    # row must decide as it does in the whole batch
    gen = np.random.default_rng([members, 20])
    rule = shift_rule(random_committee(gen, members, J=1, payoff_blind=True), shift)
    states, _ = random_states(gen, 200)
    payoffs = np.concatenate(at_threshold(rule, states))
    states = np.tile(states, (3, 1))
    n = len(payoffs)
    whole = rule.decide_batch(0, states, payoffs)
    for size, start in [(1, 0), (2, 0), (3, 1), (7, 5), (65, 3)]:
        for a in range(start, n, size):
            got = rule.decide_batch(0, states[a : a + size], payoffs[a : a + size])
            assert np.array_equal(got, whole[a : a + size]), (size, a)


@pytest.mark.parametrize("members", [2, 3, 64, 65, 129, 2000])
def test_every_prediction_multiplies_two_or_more_members(monkeypatch, members):
    # rows whose positive payoff sits on the median stay open to the last
    # block, so every block of members is multiplied; the blocks are even, so
    # none is a lone member, and the product doubles only a lone row
    gen = np.random.default_rng([members, 26])
    coeffs = random_committee(gen, members, J=1, payoff_blind=True).member_coeffs
    states, _ = random_states(gen, 300)
    # every member's constant lifted so that every threshold, and the payoffs
    # at it and one ulp either side, are positive
    coeffs[:, :, 0] += 1.0 - median_threshold(CommitteeRule(coeffs, 90.0), 0, states, np.zeros(300)).min()
    rule = CommitteeRule(coeffs, y0=90.0)
    assert (at_threshold(rule, states)[1] > 0.0).all()
    predict, calls = stopping_rules._predict, []

    def spy(A, coeffs, out=None):
        calls.append((len(coeffs), out is not None))
        return predict(A, coeffs, out)

    monkeypatch.setattr(stopping_rules, "_predict", spy)
    for payoffs in at_threshold(rule, states):
        for n in (1, 2, 300):
            calls.clear()
            assert_matches_median(rule, states[:n], payoffs[:n])
            assert min(w for w, _ in calls) >= 2, calls
        counted = [w for w, blocked in calls if blocked]
        assert sum(counted) == members  # the whole batch counted every block
        assert max(counted) - min(counted) <= 1 and max(counted) <= 64


def constant_committee(values):
    """Members whose predictions are exactly the given constants."""
    coeffs = np.zeros((len(values), 1, basis_size(1)))
    coeffs[:, 0, 0] = values
    return CommitteeRule(coeffs, y0=90.0)


@pytest.mark.parametrize(
    "values",
    [
        [-1.0] * 5 + [1.0] * 5,  # even: median 0 from half the members below it
        [-1.0] * 5 + [0.0] + [1.0] * 5,
        [-2.0] * 3 + [-0.0] * 4 + [3.0] * 3,
        [1.0] * 1000 + [2.0] * 1000,  # half the members tied at the payoff
        [-1.0] * 1000 + [0.0] * 1000,
        [-3.0] * 1001 + [-1.0] * 999,
        [-5e-324] * 5 + [0.0] * 5,  # the median halves a subnormal to -0.0
        [0.0, 0.0],
        [-0.0],
        [2.5],
    ],
)
def test_committee_ties_and_negative_medians(values):
    rule = constant_committee(values)
    pay = np.array([-1.0, -0.0, 0.0, 5e-324, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
    states = np.full((len(pay), 1), 80.0)
    assert_matches_median(rule, states, pay)
    for shifted in (shift_rule(rule, 1e-17), shift_rule(rule, -1.0), shift_rule(rule, 0.5)):
        assert_matches_median(shifted, states, pay)


def test_shifted_median_rounds_onto_zero():
    # the mean of adjacent a < b rounds up to b, and the shift takes b to 0
    # while a stays below it: k members below zero, yet the threshold is 0
    a, b = 1.0 + 2.0**-52, 1.0 + 2.0**-51
    rule = shift_rule(constant_committee([a] * 3 + [b] * 3), -b)
    pay = np.array([-0.0, 0.0, 1e-300])
    assert rule.continuation_batch(0, np.full((3, 1), 80.0), pay).tolist() == [0.0] * 3
    assert_matches_median(rule, np.full((3, 1), 80.0), pay)
    # the zero payoffs continue on the zero threshold; the least bit of value stops
    assert rule.decide_batch(0, np.full((3, 1), 80.0), pay).tolist() == [False, False, True]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_committee_median_overflow():
    # two finite predictions whose mean overflows to inf: no payoff reaches it
    coeffs = np.zeros((2, 1, basis_size(1)))
    coeffs[:, 0, 0] = 9e307
    rule = CommitteeRule(coeffs, y0=1e308)
    pay = np.array([9e307, 1.7e308])
    assert_matches_median(rule, np.zeros((2, 1)), pay)
    assert not rule.decide_batch(0, np.zeros((2, 1)), pay).any()


@pytest.mark.parametrize("eps", [1e-17, -1e-17, 2.0**-53, 2.0**-52, 3e-16, 1e-300, 1e-9, 0.25])
@pytest.mark.parametrize("members", [3, 10, 2000])
def test_shifted_committee_counting_equals_median(eps, members):
    # from shifts that vanish in fl(median + eps) to ones that move every threshold
    gen = np.random.default_rng(members)
    base = random_committee(gen, members, J=1, payoff_blind=True)
    states, payoffs = random_states(gen, 200)
    for rule in (shift_rule(base, eps), shift_rule(base, eps + (1.0 + eps))):
        assert_matches_median(rule, states, payoffs)
        for pay in at_threshold(rule, states):
            assert_matches_median(rule, states, pay)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("members", [1, 2, 3, 10])
def test_committee_non_finite_predictions(members):
    gen = np.random.default_rng(7)
    rule = random_committee(gen, members)
    states, payoffs = random_states(gen, 12)
    states[1, 0] = np.inf
    states[2, 1] = -np.inf
    states[3, 0] = np.nan
    states[4] = 1e300  # finite states whose predictions overflow
    payoffs[5] = np.inf
    payoffs[6] = np.nan
    assert_matches_median(rule, states, payoffs)
    for bad in (np.inf, -np.inf, np.nan, 1e308):
        coeffs = rule.member_coeffs.copy()
        coeffs[0, :, 0] = bad  # one member's predictions are non-finite or huge on every row
        assert_matches_median(CommitteeRule(coeffs, 90.0), states, payoffs)


# --- the gate: a payoff that is not positive never stops ---------------------------

def assert_moves_only_zero_ties(rule, states, payoffs):
    """Decisions equal those of the earlier convention, written out here,
    except where a payoff of +-0 meets a threshold of exactly +-0: that row
    stopped and now continues.  Returns how many such rows there were."""
    ties = 0
    for j in range(rule.member_coeffs.shape[1]):
        thr = median_threshold(rule, j, states, payoffs)
        # earlier: a zero payoff continued only against a strictly negative threshold
        before = (payoffs >= thr) & ((payoffs > 0.0) | (thr >= 0.0))
        tie = (payoffs == 0.0) & (thr == 0.0)
        now = rule.decide_batch(j, states, payoffs)
        assert np.array_equal(now[~tie], before[~tie]), (rule.members, rule.shift, j)
        assert before[tie].all() and not now[tie].any(), (rule.members, rule.shift, j)
        ties += np.count_nonzero(tie)
    return ties


@pytest.mark.parametrize("shift", [0.0, 0.05, -0.25])
@pytest.mark.parametrize("members", [1, 2, 3, 64, 65, 2000])
def test_gate_moves_only_zero_ties(members, shift):
    gen = np.random.default_rng([members, 34])
    n = 210
    for blind in (True, False):
        plain = random_committee(gen, members, J=2, payoff_blind=blind)
        base = shift_rule(plain, shift)
        states, _ = random_states(gen, n)
        states[1] = states[0]
        thr = median_threshold(base, 0, states, np.zeros(n))
        kinds = [gen.exponential(2.0, n), np.zeros(n), np.full(n, -0.0), -gen.exponential(2.0, n),
                 np.full(n, np.nan), np.full(n, 5e-324), thr]
        payoffs = np.choose(np.arange(n) % 7, kinds)
        payoffs[:2] = 0.0, -0.0
        assert assert_moves_only_zero_ties(base, states, payoffs) == 0
        # shifted by minus its own median at rows 0 and 1 (one state), whose
        # payoffs are +-0: their date-0 thresholds are exactly 0
        onto_zero = shift_rule(plain, -median_threshold(plain, 0, states[:1], np.zeros(1))[0])
        assert assert_moves_only_zero_ties(onto_zero, states, payoffs) >= 2


@pytest.mark.parametrize(
    "values",
    [
        [-1.0] * 5 + [1.0] * 5,  # median 0.0
        [-1.0] * 1000 + [1.0] * 1000,
        [-2.0] * 3 + [-0.0] * 4 + [3.0] * 3,  # median -0.0
        [-5e-324] * 5 + [0.0] * 5,  # the median halves a subnormal to -0.0
        [0.0, 0.0],
        [-0.0],
        [0.0] * 65,
    ],
)
def test_gate_moves_only_zero_ties_of_constant_committees(values):
    rule = constant_committee(values)
    pay = np.array([-1.0, -0.0, 0.0, 5e-324, 0.5, np.nan])
    states = np.full((len(pay), 1), 80.0)
    assert assert_moves_only_zero_ties(rule, states, pay) == 2  # 0.0 and -0.0
    assert assert_moves_only_zero_ties(shift_rule(rule, 0.5), states, pay) == 0
    # the mean of adjacent a < b rounds up to b, and the shift takes b to 0
    a, b = 1.0 + 2.0**-52, 1.0 + 2.0**-51
    assert assert_moves_only_zero_ties(shift_rule(constant_committee([a] * 3 + [b] * 3), -b), states, pay) == 2


@pytest.mark.parametrize("members", [1, 2, 3, 65, 2000])
def test_no_worthless_row_reaches_the_basis_or_a_prediction(monkeypatch, members):
    gen = np.random.default_rng([members, 35])
    rule = random_committee(gen, members, J=2)
    n = 500
    states, payoffs = random_states(gen, n)
    # positive payoffs well above the underflow of payoff / y0, among ones that are not
    kinds = [payoffs + 1e-3, np.zeros(n), np.full(n, -0.0), np.full(n, -1.0), np.full(n, np.nan)]
    payoffs = np.choose(np.arange(n) % 5, kinds)
    want = [(payoffs >= median_threshold(rule, j, states, payoffs)) & (payoffs > 0.0) for j in range(2)]
    basis, predict = stopping_rules.basis_matrix, stopping_rules._predict
    seen = {"basis": [], "predict": []}

    def basis_spy(assets, pay, y0, out=None):
        seen["basis"].append(np.asarray(pay).copy())
        return basis(assets, pay, y0, out)

    def predict_spy(A, coeffs, out=None):
        seen["predict"].append(A[:, -1] * rule.y0)  # the payoff column
        return predict(A, coeffs, out)

    monkeypatch.setattr(stopping_rules, "basis_matrix", basis_spy)
    monkeypatch.setattr(stopping_rules, "_predict", predict_spy)
    for j in range(2):
        assert np.array_equal(rule.decide_batch(j, states, payoffs), want[j])
    assert seen["basis"][0].tolist() == payoffs[payoffs > 0.0].tolist()
    assert (members == 1) != bool(seen["predict"])
    for kind, rows in seen.items():
        assert all((r > 0.0).all() for r in rows), kind


# --- committee decisions: rows leave the count once settled ------------------------

# No shift, a small one, and one of -0.25, which the shifts 1e-300 then -0.25
# add up to; case numbers seed each case's data as before.
SHIFTS = pytest.mark.parametrize("case, shift", [(0, 0.0), (1, 0.05), (2, 1e-300 + -0.25)],
                                 ids=["shifts0", "shifts1", "shifts2"])


def assert_matches_definition(rule, states, payoffs):
    """Each date's decisions equal the definition on the exact threshold, bit for bit."""
    for j in range(rule.member_coeffs.shape[1]):
        want = by_definition(rule, j, states, payoffs)
        got = rule.decide_batch(j, states, payoffs)
        assert np.array_equal(got, want), (rule.members, rule.shift, j, len(payoffs))


def exact_rows(monkeypatch, rule):
    """Records the batch size of every exact-median call the rule makes."""
    calls = []
    exact = rule.continuation_batch

    def spy(j, states, payoffs):
        calls.append(len(payoffs))
        return exact(j, states, payoffs)

    monkeypatch.setattr(rule, "continuation_batch", spy)
    return calls


@SHIFTS
@pytest.mark.parametrize("members", [2, 3, 64, 65, 129, 2000])
@pytest.mark.parametrize("n", [2, 3, 65, 4097])
def test_committee_early_exit_equals_definition(n, members, case, shift):
    gen = np.random.default_rng([n, members, case])
    rule = shift_rule(random_committee(gen, members, J=2, payoff_blind=True), shift)
    states, _ = random_states(gen, n)
    # interleaved with rows that never stop: positive, 0.0, -0.0, NaN, and
    # payoffs exactly at the date-0 threshold
    thr = rule.continuation_batch(0, states, np.zeros(n))
    kinds = [gen.exponential(2.0, n), np.zeros(n), np.full(n, -0.0), np.full(n, np.nan), thr]
    payoffs = np.choose(np.arange(n) % 5, kinds)
    assert_matches_definition(rule, states, payoffs)
    assert_matches_definition(rule, states, payoffs[::-1].copy())


@pytest.mark.parametrize("members", [129, 2000])
def test_committee_decision_down_to_one_open_row(monkeypatch, members):
    # members in descending order and a payoff at their median: that row's
    # counts stay open to the last block, every other row stops by count as
    # soon as rows can settle, and the lone open row is counted alone; an odd
    # committee's counts decide it, an even one's tie takes the exact median
    values = np.linspace(3.0, -1.0, members)
    rule = constant_committee(values)
    payoffs = np.full(40, 1e6)
    payoffs[17] = np.median(values)
    states = np.full((40, 1), 80.0)
    want = by_definition(rule, 0, states, payoffs)
    calls = exact_rows(monkeypatch, rule)
    assert np.array_equal(rule.decide_batch(0, states, payoffs), want)
    assert calls == ([1] if members % 2 == 0 else [])
    assert want.all()


@pytest.mark.parametrize(
    "values, payoff",
    [
        (np.tile([1.0, 2.0], 1000), 1.0),  # half the members tied at the payoff
        (np.repeat([1.0, 2.0], 1000), 1.0),
        (np.tile([-1.0, 0.0], 1000), 0.0),  # half below zero: median -0.5
        (np.repeat([-1.0, 0.0], 1000), -0.0),
        (np.tile([-5e-324, 0.0], 1000), 0.0),  # median -0.0, which a zero payoff meets
        (np.repeat([-5e-324, 0.0], 1000), -0.0),
    ],
)
def test_even_committee_ties_stay_open_to_the_exact_median(monkeypatch, values, payoff):
    # a positive tie is counted through every block and takes the exact
    # median; a zero payoff continues before any member is counted
    rule = constant_committee(values)
    payoffs = np.full(6, payoff)
    states = np.full((6, 1), 80.0)
    want = by_definition(rule, 0, states, payoffs)
    calls = exact_rows(monkeypatch, rule)
    predict, counted = stopping_rules._predict, []

    def spy(A, coeffs, out=None):
        counted.append(len(A))
        return predict(A, coeffs, out)

    monkeypatch.setattr(stopping_rules, "_predict", spy)
    assert np.array_equal(rule.decide_batch(0, states, payoffs), want)
    if payoff > 0.0:
        assert calls == [6]  # no row settled in any block
        assert counted == [6] * -(-len(values) // 64) + [6]  # every block, then the median
    else:
        assert not want.any() and calls == [] and counted == []


def test_committee_decision_never_builds_the_prediction_matrix():
    M, n = 2000, 16384
    gen = np.random.default_rng(3)
    rule = CommitteeRule(gen.normal(size=(M, 1, basis_size(3))), y0=90.0)
    states = 90.0 * np.exp(gen.normal(scale=0.3, size=(n, 3)))
    payoffs = np.maximum(states.max(axis=1) - 100.0, 0.0)
    full_mb = n * M * 8 / 2**20  # 250 MB, and np.median copies it once more
    tracemalloc.start()
    try:
        rule.decide_batch(0, states, payoffs)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    # measured 11 MB: one 8 MB buffer for a block of up to 64 members, reused
    # by every block; the bound, a tenth of the full matrix, leaves a margin
    # of about 2x
    assert peak_mb < full_mb / 10, peak_mb


# --- committee decisions: the spread band settles rows before any count -------------

def band_settled(rule, j, states, payoffs):
    """Rows date j's spread band settles, before any member is counted."""
    A = basis_matrix(states, payoffs, rule.y0)
    scale = np.abs(A).sum(axis=1) * np.abs(rule.member_coeffs[:, j]).max()
    stops, goes = rule._band_settles(j, A, payoffs, scale)
    return stops | goes


def band_edge(rule, j, states, inside, outside):
    """Rows whose band leaves `inside` open and settles `outside`, with
    adjacent payoffs on either side of the edge between them: (states, lo, hi),
    lo still open and hi settled."""
    ok = ~band_settled(rule, j, states, inside) & band_settled(rule, j, states, outside)
    states, lo, hi = states[ok], inside[ok], outside[ok]
    while True:
        mid = lo + (hi - lo) / 2
        moving = (mid != lo) & (mid != hi)
        if not moving.any():
            return states, lo, hi
        settled = band_settled(rule, j, states, mid)
        hi = np.where(moving & settled, mid, hi)
        lo = np.where(moving & ~settled, mid, lo)


def assert_band_edges_decide_by_definition(rule, states, blind=True):
    """On both sides of each date's band, one payoff just inside the edge and
    one just outside decide as the exact median rule.  For a payoff-blind
    committee a positive payoff at the exact threshold is never settled:
    fewer than k + 1 predictions lie strictly on either side of a median."""
    settled = 0
    for j in range(rule.member_coeffs.shape[1]):
        thr = rule.continuation_batch(j, states, np.zeros(len(states)))
        if blind:
            assert not band_settled(rule, j, states, thr)[thr > 0.0].any()
        for outside in (thr + 1e6, thr - 1e6):
            st, lo, hi = band_edge(rule, j, states, thr, outside)
            settled += len(st)
            for pay in (lo, hi):
                want = by_definition(rule, j, st, pay)
                assert np.array_equal(rule.decide_batch(j, st, pay), want), (j, rule.shift)
    assert settled > 0  # the band does settle rows, so its edges were tested


@SHIFTS
@pytest.mark.parametrize("members", [2, 3, 10, 65, 2000])
def test_band_edges_decide_as_the_median(members, case, shift):
    gen = np.random.default_rng([members, case, 17])
    rule = shift_rule(random_committee(gen, members, J=2, payoff_blind=True), shift)
    states, payoffs = random_states(gen, 300)
    assert_band_edges_decide_by_definition(rule, states)
    assert_matches_definition(rule, states, payoffs)


@pytest.mark.parametrize("members", [2, 3, 64, 65])
@pytest.mark.parametrize("spread", ["identical", "one coefficient", "half identical"])
def test_band_of_a_rank_deficient_spread(members, spread):
    # identical members leave a band of rounding width only; members that
    # differ in one coefficient spread along one axis of the basis
    gen = np.random.default_rng([members, len(spread)])
    states, payoffs = random_states(gen, 200)
    coeffs = np.repeat(gen.normal(scale=3.0, size=(1, 2, basis_size(2))), members, axis=0)
    coeffs[:, :, -1] = 0.0
    # thresholds straddle zero, and only positive payoffs reach the band
    coeffs[:, :, 0] -= np.median(basis_matrix(states, payoffs, 90.0) @ coeffs[0].T, axis=0)
    if spread != "identical":
        moved = slice(members // 2, None) if spread == "half identical" else slice(None)
        coeffs[moved, :, 2] += gen.normal(size=coeffs[moved, :, 2].shape)
    rule = CommitteeRule(coeffs, y0=90.0)
    for shifted in (rule, shift_rule(rule, 0.5), shift_rule(rule, -1e-300), shift_rule(rule, 3e8)):
        assert_band_edges_decide_by_definition(shifted, states)
        assert_matches_definition(shifted, states, payoffs)


def test_band_of_prefix_and_shift_copies():
    gen = np.random.default_rng(23)
    rule = random_committee(gen, 200, J=2)
    states, payoffs = random_states(gen, 300)
    shifted = shift_rule(rule, 0.3)
    assert shifted._bands is rule._bands  # a band does not depend on the shift
    prefixes = (rule.prefix(65), rule.prefix(2), shift_rule(rule.prefix(64), -0.3))
    assert all(p._bands is not rule._bands for p in prefixes)
    for r in prefixes + (shifted,):
        assert_band_edges_decide_by_definition(r, states, blind=False)
        assert_matches_definition(r, states, payoffs)


def test_prefix_of_a_shifted_committee_keeps_the_shift():
    # prefix re-applies the shift through shift_rule: its own bands, and the
    # decisions of the prefix shifted afterwards, bit for bit
    gen = np.random.default_rng(29)
    rule = random_committee(gen, 200, J=2)
    states, payoffs = random_states(gen, 300)
    shifted = shift_rule(rule, 0.3)
    first, then = shifted.prefix(64), shift_rule(rule.prefix(64), 0.3)
    assert first.shift == then.shift == 0.3 and first.members == 64
    assert first._bands is not shifted._bands
    for j in range(2):
        for pay in (payoffs, *at_threshold(then, states)):
            assert np.array_equal(first.decide_batch(j, states, pay), then.decide_batch(j, states, pay))
    assert_matches_definition(first, states, payoffs)


@pytest.mark.parametrize("members", [2, 3, 64, 65])
def test_band_of_zero_payoffs(monkeypatch, members):
    # constant members spread over [c - 1, c + 1], with bands far above,
    # far below, across and exactly on zero: whatever the band, zero and
    # negative payoffs continue without reaching it, and only the positive
    # rows of a batch are asked
    rule = constant_committee(np.linspace(-1.0, 1.0, members))
    pay = np.array([0.0, -0.0, 0.5, -2.0, np.nan, 5e-324, 4.0])
    states = np.full((len(pay), 1), 80.0)
    band, asked = CommitteeRule._band_settles, []

    def spy(self, j, A, payoffs, scale):
        asked.append(payoffs.copy())
        return band(self, j, A, payoffs, scale)

    monkeypatch.setattr(CommitteeRule, "_band_settles", spy)
    for c in (-3.0, 3.0, 0.0, -1e-300, 0.25):
        shifted = shift_rule(rule, c)
        for p in (pay, pay[:2], pay[3:5]):
            asked.clear()
            st = states[: len(p)]
            assert np.array_equal(shifted.decide_batch(0, st, p), by_definition(shifted, 0, st, p)), c
            assert [a.tolist() for a in asked] == ([p[p > 0.0].tolist()] if (p > 0.0).any() else [])


def test_band_settles_most_rows_of_a_trained_committee():
    p = params(d=3)
    paths = simulate_training_paths(p, 10_000, seed=101)
    rule = train_committee(paths, members=64, member_size=500)
    calls = []
    decide_batch = rule.decide_batch

    def spy(j, states, payoffs):
        calls.append((j, states.copy(), payoffs.copy()))
        return decide_batch(j, states, payoffs)

    rule.decide_batch = spy
    _trunk_block(GbmModel(p), (rule,), 1, 0, 8000)
    rows = banded = settled = 0
    for j, states, payoffs in calls:
        want = by_definition(rule, j, states, payoffs)
        assert np.array_equal(decide_batch(j, states, payoffs), want), j
        rows += len(payoffs)
        live = payoffs > 0.0  # only these reach the band
        banded += np.count_nonzero(live)
        settled += np.count_nonzero(band_settled(rule, j, states[live], payoffs[live]))
    # measured 45 % of the 23,566 rows with a positive payoff, of 65,845 asked
    assert rows >= 50_000
    assert settled > 0.4 * banded
