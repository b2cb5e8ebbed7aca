"""Rule semantics: tie handling, shifts, committees, training."""

import tracemalloc

import numpy as np
import pytest

from nccmc.nested_cmc import _trunk_block
from nccmc.process_models import GbmModel, GbmParams, simulate_training_paths
from nccmc.rng import NS_TESTING
from nccmc.stopping_rules import (
    CommitteeRule,
    FixedDateRule,
    RegressionRule,
    TreeRule,
    basis_matrix,
    basis_size,
    shift_rule,
    train_committee,
    train_tvr,
)


def params(**kw):
    base = dict(d=2, r=0.05, delta=0.1, sigma=0.2, K=100.0, y0=90.0, T=3.0, n_dates=10)
    base.update(kw)
    return GbmParams(**base)


def constant_rule(c: float, d: int = 1, J: int = 1) -> RegressionRule:
    """A regression rule whose predicted continuation is identically c."""
    coeffs = np.zeros((J, basis_size(d)))
    coeffs[:, 0] = c
    return RegressionRule(coeffs, y0=90.0, d=d)


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
    assert rule.decide(0, np.array([100.0]), 5.0)
    assert not rule.decide(0, np.array([100.0]), 4.999)


def test_zero_payoff_zero_continuation_stops():
    rule = constant_rule(0.0)
    assert rule.decide(0, np.array([80.0]), 0.0)


def test_zero_payoff_negative_continuation_continues():
    # a negative fitted continuation out of the money is extrapolation
    # noise; cashing out nothing on it would distort the stopping time
    rule = constant_rule(-0.5)
    assert not rule.decide(0, np.array([80.0]), 0.0)
    assert rule.decide(0, np.array([80.0]), 0.2)  # any real payoff beats it


def test_always_stops_at_maturity():
    rule = constant_rule(np.inf, J=3)
    assert rule.decide(3, np.array([80.0]), 0.0)


def test_fixed_date_rule():
    rule = FixedDateRule(2)
    assert [rule.decide(j, 0, 1.0) for j in range(4)] == [False, False, True, True]
    assert rule.eval_cost == 0
    with pytest.raises(ValueError):
        FixedDateRule(-1)


def test_tree_rule_rejects_unknown_label(tree2):
    with pytest.raises(ValueError):
        TreeRule(tree2, ["nonexistent"])


# --- stopping dates in the stage-one kernel ------------------------------------

def stop_dates(rule, p, n, seed):
    """Each path's stopping date under rule, from stage one against itself."""
    return _trunk_block(GbmModel(p), rule, rule, seed, NS_TESTING, 0, n)[0]


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
    committee = train_committee(small_paths, d2_params, members=9, member_size=80, seed=2)
    gen = np.random.default_rng(17)
    for rule in (small_rule_pair[0], committee):
        for j in range(d2_params.J):
            states = small_paths.assets[:300, j]
            payoffs = small_paths.payoffs[:300, j]
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
    rule = train_tvr(paths, p)
    pred = rule.continuation_batch(0, paths.assets[:, 0], paths.payoffs[:, 0])
    assert np.allclose(pred, paths.payoffs[:, 1].mean(), atol=1e-8)


def test_constant_process_stops_immediately():
    p = params(d=1, y0=120.0, r=0.0, delta=0.0, sigma=0.0, n_dates=4)
    paths = simulate_training_paths(p, 50, 5)
    assert np.ptp(paths.payoffs) == 0.0  # degenerate by construction
    rule = train_tvr(paths, p)
    assert np.all(stop_dates(rule, p, 4, seed=6) == 0)


def test_all_zero_payoffs_stop_at_first_date():
    # out-of-the-money degenerate process: fitted continuation is exactly 0,
    # and the 0 >= 0 tie stops
    p = params(d=1, y0=50.0, r=0.0, delta=0.0, sigma=0.0, n_dates=4)
    paths = simulate_training_paths(p, 50, 5)
    rule = train_tvr(paths, p)
    assert np.all(stop_dates(rule, p, 4, seed=6) == 0)


def test_training_needs_enough_paths():
    p = params()
    paths = simulate_training_paths(p, 5, 77)
    with pytest.raises(ValueError):
        train_tvr(paths, p)


def test_training_deterministic(d2_params):
    a = train_tvr(simulate_training_paths(d2_params, 500, 31), d2_params)
    b = train_tvr(simulate_training_paths(d2_params, 500, 31), d2_params)
    assert np.array_equal(a.coeffs, b.coeffs)


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
    n, n_dates, _ = bundle.assets.shape
    taus = np.full(n, n_dates - 1)
    undecided = np.ones(n, dtype=bool)
    for j in range(n_dates - 1):
        stop = rule.decide_batch(j, bundle.assets[:, j], bundle.payoffs[:, j])
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
    assert shifted.shifts == (0.1, -0.3) and rule.shifts == ()
    assert shifted.member_coeffs is rule.member_coeffs


@pytest.mark.parametrize("eps", [np.nan, np.inf, -np.inf])
def test_shift_must_be_finite(small_rule_pair, eps):
    with pytest.raises(ValueError):
        shift_rule(small_rule_pair[0], eps)


# --- a regression rule against its written-out formula ---------------------------

def regression_formula(coeffs, y0, shifts, j, states, payoffs):
    """Stop when payoff >= A @ coeffs[j] plus each shift in order, except a
    zero payoff against a negative threshold."""
    thr = basis_matrix(states, payoffs, y0) @ coeffs[j]
    for eps in shifts:
        thr = thr + eps
    return (payoffs >= thr) & ((payoffs > 0.0) | (thr >= 0.0))


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
    base = RegressionRule(coeffs, y0=90.0, d=d)
    for shifts in ((), (0.25,), (-1e-17,), (0.25, -1.0 + 1e-9)):
        rule = base
        for eps in shifts:
            rule = shift_rule(rule, eps)
        for j in range(J):
            want = regression_formula(coeffs, 90.0, shifts, j, states, payoffs)
            assert np.array_equal(rule.decide_batch(j, states, payoffs), want), (shifts, j)
        assert rule.decide_batch(J, states, payoffs).all()


# --- committees -------------------------------------------------------------------

def test_committee_median_decides():
    members = np.zeros((3, 1, basis_size(1)))
    members[:, 0, 0] = [1.0, 5.0, 9.0]
    rule = CommitteeRule(members, y0=90.0, d=1)
    y = np.array([100.0])
    assert rule.continuation_batch(0, y[None], np.array([0.0]))[0] == 5.0
    assert rule.decide(0, y, 5.0)
    assert not rule.decide(0, y, 4.9)
    assert rule.eval_cost == 3


def test_committee_prefix_is_smaller_committee(small_paths, d2_params):
    big = train_committee(small_paths, d2_params, members=5, member_size=100, seed=9)
    small = train_committee(small_paths, d2_params, members=3, member_size=100, seed=9)
    assert np.array_equal(big.prefix(3).member_coeffs, small.member_coeffs)
    assert big.prefix(5).members == 5
    with pytest.raises(ValueError):
        big.prefix(0)
    with pytest.raises(ValueError):
        big.prefix(6)


def test_committee_training_validation(small_paths, d2_params):
    with pytest.raises(ValueError):
        train_committee(small_paths, d2_params, members=0, member_size=100, seed=1)
    with pytest.raises(ValueError):
        train_committee(small_paths, d2_params, members=2, member_size=3, seed=1)


# --- committee decisions against the median definition ----------------------------

def median_threshold(rule, j, states, payoffs):
    """The committee's stop threshold by definition: median of all member
    predictions, plus the rule's shifts in order."""
    preds = basis_matrix(states, payoffs, rule.y0) @ rule.member_coeffs[:, j, :].T
    thr = np.median(preds, axis=1)
    for eps in rule.shifts:
        thr = thr + eps
    return thr


def assert_matches_median(rule, states, payoffs):
    pay = np.asarray(payoffs)
    for j in range(rule.n_dates - 1):
        thr = median_threshold(rule, j, states, pay)
        want = (pay >= thr) & ((pay > 0.0) | (thr >= 0.0))
        got = rule.decide_batch(j, states, pay)
        assert got.dtype == bool
        assert np.array_equal(got, want), (j, len(pay))
    assert rule.decide_batch(rule.n_dates - 1, states, pay).all()


def random_committee(gen, members, J=3, payoff_blind=False):
    coeffs = gen.normal(scale=3.0, size=(members, J, basis_size(2)))
    coeffs[:, :, 0] += 0.5  # member medians straddle zero
    if payoff_blind:
        # predictions ignore the payoff column, so a payoff can sit exactly on them
        coeffs[:, :, -1] = 0.0
    return CommitteeRule(coeffs, y0=90.0, d=2)


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
    assert_matches_median(rule, states, np.zeros(len(states)))  # zero payoffs meet the guard
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


def constant_committee(values):
    """Members whose predictions are exactly the given constants."""
    coeffs = np.zeros((len(values), 1, basis_size(1)))
    coeffs[:, 0, 0] = values
    return CommitteeRule(coeffs, y0=90.0, d=1)


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
    assert_matches_median(rule, np.full((3, 1), 80.0), pay)
    assert rule.decide_batch(0, np.full((3, 1), 80.0), pay).all()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_committee_median_overflow():
    # two finite predictions whose mean overflows to inf: no payoff reaches it
    coeffs = np.zeros((2, 1, basis_size(1)))
    coeffs[:, 0, 0] = 9e307
    rule = CommitteeRule(coeffs, y0=1e308, d=1)
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
    for rule in (shift_rule(base, eps), shift_rule(shift_rule(base, eps), 1.0 + eps)):
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
        assert_matches_median(CommitteeRule(coeffs, 90.0, 2), states, payoffs)


def test_committee_decision_never_builds_the_prediction_matrix():
    M, n = 2000, 16384
    gen = np.random.default_rng(3)
    rule = CommitteeRule(gen.normal(size=(M, 1, basis_size(3))), y0=90.0, d=3)
    states = 90.0 * np.exp(gen.normal(scale=0.3, size=(n, 3)))
    payoffs = np.maximum(states.max(axis=1) - 100.0, 0.0)
    full_mb = n * M * 8 / 2**20  # 250 MB, and np.median copies it once more
    tracemalloc.start()
    try:
        rule.decide_batch(0, states, payoffs)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    # measured 17 MB: one 8 MB block of 64 members plus the next being made;
    # the bound, a tenth of the full matrix, leaves a margin of about 1.5x
    assert peak_mb < full_mb / 10, peak_mb
