"""Two-stage engine: the lane kernel under both stages, variance accounting."""

import concurrent.futures
import ctypes
import dataclasses
import multiprocessing
import os
import sys
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from nccmc import nested_cmc
from nccmc.nested_cmc import (
    WorkMeter,
    _sub_block,
    _trunk_block,
    estimate,
    estimate_value,
    floored,
    floored_params,
    pilot,
)
from nccmc.oracle import exact_delta
from nccmc.process_models import GbmModel, GbmParams, simulate_training_paths
from nccmc.rng import NS_TESTING, SUB, TRUNK
from nccmc.stopping_rules import FixedDateRule, TreeRule, train_committee, train_tvr
from tests.conftest import continuations


def trunk(model, A, B, i, seed):
    """Stage one for path i alone: (tau, sign, x_wedge, resume, steps, evals)."""
    tau, sign, xw, resume, steps, evals = _trunk_block(model, (A, B), seed, i, 1)
    return int(tau[0]), int(sign[0]), float(xw[0]), resume, steps, evals


# --- trunk stage ---------------------------------------------------------------

def test_equal_fixed_rules_coincide(tree2):
    tau, sign, _, _, _, _ = trunk(tree2, FixedDateRule(2), FixedDateRule(2), 0, seed=1)
    assert tau == tree2.J
    assert sign == 0


def test_sign_convention(tree2):
    # A stops first: S is negative and B survives
    tau, sign, _, _, _, _ = trunk(tree2, FixedDateRule(0), FixedDateRule(2), 0, seed=1)
    assert tau == 0
    assert sign == -1
    _, sign, _, _, _, _ = trunk(tree2, FixedDateRule(2), FixedDateRule(0), 0, seed=1)
    assert sign == 1


def test_trunk_on_one_period_tree(tree1):
    _, sign, xw, resume, _, _ = trunk(tree1, FixedDateRule(0), FixedDateRule(1), 0, seed=1)
    assert sign == -1
    assert xw == 1.0
    assert resume[0] == tree1.label_to_id["root"]


def test_trunk_meter_counts_steps(tree2):
    steps = trunk(tree2, FixedDateRule(0), FixedDateRule(2), 0, seed=1)[4]
    assert steps == 0  # stopped at the root, nothing simulated
    steps = trunk(tree2, FixedDateRule(1), FixedDateRule(2), 0, seed=1)[4]
    assert steps == 1


def test_path_alone_equals_its_batch_row(tree2, tree2_rules, d2_params, small_rule_pair):
    p0, n = 37, 40
    for model, (A, B) in ((tree2, tree2_rules), (GbmModel(d2_params), small_rule_pair)):
        tau, sign, xw, resume, _, _ = _trunk_block(model, (A, B), 5, p0, n)
        assert np.count_nonzero(sign) > 0
        for k in range(n):
            t, s, x, r, _, _ = _trunk_block(model, (A, B), 5, p0 + k, 1)
            assert (t[0], s[0], x[0]) == (tau[k], sign[k], xw[k])
            assert np.array_equal(r[0], resume[k])


# --- replication stage -----------------------------------------------------------

def test_coinciding_trunk_replicates_for_free(tree2):
    A = B = FixedDateRule(2)
    tau, sign, xw, resume, _, _ = _trunk_block(tree2, (A, B), 1, 0, 1)
    means, variances, steps, evals = _sub_block(tree2, A, B, 1, np.arange(1), tau, sign, xw, resume, 8)
    assert np.array_equal(means, np.zeros(1)) and np.array_equal(variances, np.zeros(1))
    assert steps == 0 and evals == 0


def replication_values(model, A, B, n, R, seed):
    """Stage two's (trunk, replication) values for the differing trunks of paths [0, n)."""
    tau, sign, xw, resume, _, _ = _trunk_block(model, (A, B), seed, 0, n)
    diff = np.nonzero(sign)[0]
    vals, _, _ = continuations(model, A, B, seed, diff, tau[diff], sign[diff], xw[diff],
                               resume[diff], R)
    return vals


def test_one_period_tree_replication_values(tree1):
    # the survivor continues to X_1 in {3, 0}; against x_wedge 1 and S -1
    # each replication value is -2 or +1 and their long-run mean is the
    # exact difference -0.5
    values = replication_values(tree1, FixedDateRule(0), FixedDateRule(1), 800, 5, seed=9)
    assert values.shape == (800, 5)
    assert set(np.unique(values)) == {-2.0, 1.0}
    se = values.std(ddof=1) / np.sqrt(values.size)
    assert abs(values.mean() - (-0.5)) < 4 * se


def test_deterministic_model_replicates_identically():
    p = GbmParams(d=1, r=0.0, delta=0.05, sigma=0.0, K=100.0, y0=150.0, T=2.0, n_dates=5)
    vals = replication_values(GbmModel(p), FixedDateRule(0), FixedDateRule(4), 3, 6, seed=3)
    assert vals.shape == (3, 6)
    assert np.ptp(vals) == 0.0
    # S = -1 times (X_4 - X_0) along the one deterministic path
    assert vals[0, 0] == pytest.approx(-((150.0 * np.exp(-0.05 * 2.0) - 100.0) - 50.0), rel=1e-12)


def test_continuations_start_after_the_frozen_date(tree2):
    # trunks frozen at dates 0 and 1 continue from their own date on: the
    # first costs two steps per replication, the second one; B stops only
    # at maturity
    A, B = FixedDateRule(0), TreeRule(tree2, [])
    resume = np.array([tree2.label_to_id["root"], tree2.label_to_id["1"]])
    R = 4
    vals, steps, evals = continuations(tree2, A, B, 1, [0, 1], np.array([0, 1]),
                                       np.array([-1, -1], dtype=np.int8), np.array([0.0, 0.0]), resume, R)
    assert steps == R * 2 + R * 1
    assert evals == R * 1  # B decides at date 1 for the date-0 trunk's lanes only
    # the date-1 trunk sits on node 1, whose children pay 2 or 0
    assert set(np.unique(-vals[1])) <= {2.0, 0.0}


def test_stage_two_reads_each_trunks_sub_stream(tree2, tree2_rules, d2_params, small_rule_pair):
    # the engine's ragged noise buffer gives every lane the same draws as
    # reading its trunk's SUB stream by hand
    R = 4
    for model, (A, B) in ((tree2, tree2_rules), (GbmModel(d2_params), small_rule_pair)):
        tau, sign, xw, resume, _, _ = _trunk_block(model, (A, B), 5, 0, 300)
        means, variances, steps, evals = _sub_block(model, A, B, 5, np.arange(300), tau, sign, xw, resume, R)
        diff = np.nonzero(sign)[0]
        vals, by_hand_steps, by_hand_evals = continuations(
            model, A, B, 5, diff, tau[diff], sign[diff], xw[diff], resume[diff], R)
        assert np.array_equal(means[diff], vals.mean(axis=1))
        assert np.array_equal(variances[diff], vals.var(axis=1, ddof=1))
        assert (steps, evals) == (by_hand_steps, by_hand_evals)


def test_stage_two_draws_once_per_sub_batch(monkeypatch, tree2, tree2_rules, d2_params,
                                            small_rule_pair):
    # one SUB draw per sub-batch, its requests the sub-batch's trunks in
    # order: together they name the trunks where A survives, then those
    # where B does, each once
    p0, R = 40, 4
    for model, (A, B) in ((tree2, tree2_rules), (GbmModel(d2_params), small_rule_pair)):
        tau, sign, xw, resume, _, _ = _trunk_block(model, (A, B), 5, p0, 3000)
        groups = [np.nonzero(sign > 0)[0], np.nonzero(sign < 0)[0]]
        assert all(g.size for g in groups)
        requests, sub_batches = [], []
        draw, run_lanes = type(model).draw, nested_cmc._run_lanes

        def spy_draw(self, seed, namespace, stream_class, index, *args, **kwargs):
            if stream_class == SUB:
                requests.append(np.atleast_1d(index))
            return draw(self, seed, namespace, stream_class, index, *args, **kwargs)

        def spy_lanes(*args):
            sub_batches.append(1)
            return run_lanes(*args)

        monkeypatch.setattr(type(model), "draw", spy_draw)
        monkeypatch.setattr(nested_cmc, "_run_lanes", spy_lanes)
        calls = []
        for budget in (500, nested_cmc.NOISE_BUDGET):
            monkeypatch.setattr(nested_cmc, "NOISE_BUDGET", budget)
            requests.clear()
            sub_batches.clear()
            _sub_block(model, A, B, 5, p0 + np.arange(3000), tau, sign, xw, resume, R)
            assert len(requests) == len(sub_batches)
            assert np.array_equal(np.concatenate(requests), p0 + np.concatenate(groups))
            calls.append(len(requests))
        assert calls[0] > 2 and calls[1] == 2  # one draw per survivor at the full budget
        monkeypatch.undo()  # the next model's spies wrap the originals


def test_only_the_rows_that_step_become_variates(monkeypatch, tree2, tree2_rules, d2_params,
                                                small_rule_pair):
    # over both stages each converted row carries one lane one date, so the
    # rows converted are the steps taken; each is a copy, never the draw's
    # own buffer, which stage two reads again at later dates
    for model, (A, B), R in ((tree2, tree2_rules, 3), (GbmModel(d2_params), small_rule_pair, 4)):
        cls = type(model)
        draw, variates = cls.draw, cls.variates
        drawn, converted = [], []

        def spy_draw(self, *args, **kwargs):
            drawn.append(draw(self, *args, **kwargs))
            return drawn[-1]

        def spy_variates(self, words):
            assert not any(np.shares_memory(words, d) for d in drawn)
            converted.append(len(words))
            return variates(self, words)

        monkeypatch.setattr(cls, "draw", spy_draw)
        monkeypatch.setattr(cls, "variates", spy_variates)
        est = estimate(model, A, B, 3000, R, seed=6)
        monkeypatch.undo()
        assert est.work_sub.steps > 0
        assert sum(converted) * model.step_units == est.work_trunk.steps + est.work_sub.steps
        assert sum(converted) <= sum(len(d) for d in drawn)


def test_stage_two_memory_follows_the_noise_budget(monkeypatch, tree2):
    # 2048 trunks that always disagree at R = 100, d = 5 would need a
    # 73.7 MB noise tensor at once if their lanes stepped every date;
    # sub-batches hold 2 MB of noise at a time.  A point's raw words count
    # too: 8 for a 5-wide point, 4 for a 2-wide one and 4 for the tree's
    # single uniform, held while the draw converts them.  Holding to
    # maturity, a GBM's lanes jump there and draw one date each (still 13 MB
    # at d = 5); a GBM that does not jump, and the tree, step every date
    budget = 2**18
    monkeypatch.setattr(nested_cmc, "NOISE_BUDGET", budget)
    problems = [(tree2, 1000)]
    for d in (5, 2):
        p = GbmParams(d=d, r=0.05, delta=0.1, sigma=0.2, K=100.0, y0=90.0, T=3.0, n_dates=10)
        stepping = GbmModel(p)
        stepping.jumps = False
        problems += [(GbmModel(p), 100), (stepping, 100)]
    for model, R in problems:
        n = 2048
        tau, sign = np.zeros(n, dtype=np.int64), np.full(n, -1, dtype=np.int8)
        resume = model.init_states(n)
        x_wedge = model.payoff_batch(0, resume)
        tracemalloc.start()
        try:
            means, _, steps, _ = _sub_block(model, FixedDateRule(0), FixedDateRule(model.J), 1, np.arange(n),
                                            tau, sign, x_wedge, resume, R)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        dates = 1 if model.jumps else model.J
        assert steps == n * R * dates * model.step_units
        assert np.all(np.isfinite(means))
        assert peak < 1.25 * budget * 8
        # every lane's variates at once: ten times the bound when lanes step
        # every date, and over it when they jump
        dense = n * dates * R * model.draw_width * 8
        assert 1.25 * budget * 8 < dense / (10 if dates > 1 else 1)


def test_thin_lanes_follow_the_budget(monkeypatch, tree2):
    # one date left and one variate per lane: 2048 trunks at R = 1000 make
    # 2M lanes whose own state, far more than their noise, fills a sub-batch
    budget = 2**18
    monkeypatch.setattr(nested_cmc, "NOISE_BUDGET", budget)
    tracemalloc.start()
    try:
        est = estimate(tree2, FixedDateRule(1), FixedDateRule(2), 2048, 1000, seed=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.p_differ == 1.0
    assert peak < 3 * budget * 8


@pytest.mark.parametrize("chunk", [1000, 16384, 65536])
def test_bits_do_not_depend_on_batching(monkeypatch, chunk, tree2, tree2_rules, d2_params,
                                        small_rule_pair):
    # chunks of 1000 to 65536 paths, stage two split into sub-batches of a
    # few trunks or run whole: the same estimate to the last bit
    problems = ((tree2, tree2_rules, 20_000, 3), (GbmModel(d2_params), small_rule_pair, 17_000, 4))
    expected = [estimate(model, A, B, N, R, seed=8) for model, (A, B), N, R in problems]
    kernel_runs = []
    run_lanes = nested_cmc._run_lanes

    def counted(*args):
        kernel_runs.append(1)
        return run_lanes(*args)

    monkeypatch.setattr(nested_cmc, "_run_lanes", counted)
    monkeypatch.setattr(nested_cmc, "CHUNK_SIZE", chunk)
    runs = []
    for budget in (500, nested_cmc.NOISE_BUDGET):
        monkeypatch.setattr(nested_cmc, "NOISE_BUDGET", budget)
        kernel_runs.clear()
        got = [estimate(model, A, B, N, R, seed=8) for model, (A, B), N, R in problems]
        assert got == expected
        runs.append(len(kernel_runs))
    assert runs[0] > 2 * runs[1]  # the small budget did split the chunks


def test_halving_the_noise_budget_keeps_the_bits(monkeypatch, d2_params, small_rule_pair):
    # one chunk of trunks at R large enough that 9 * 2**18 words split stage
    # two where 9 * 2**19 do not: a regression pair at d = 2, and a d = 5
    # regression rule against holding to date 9, cli_premium's pairing
    d5 = dataclasses.replace(d2_params, d=5)
    rule5 = train_tvr(simulate_training_paths(d5, 4000, 1234))
    problems = ((GbmModel(d2_params), *small_rule_pair, 40), (GbmModel(d5), rule5, FixedDateRule(9), 10))
    kernel_runs = []
    run_lanes = nested_cmc._run_lanes

    def counted(*args):
        kernel_runs.append(1)
        return run_lanes(*args)

    monkeypatch.setattr(nested_cmc, "_run_lanes", counted)
    for model, A, B, R in problems:
        got, runs = [], []
        for budget in (9 * 2**19, 9 * 2**18):
            monkeypatch.setattr(nested_cmc, "NOISE_BUDGET", budget)
            kernel_runs.clear()
            got.append(estimate(model, A, B, nested_cmc.CHUNK_SIZE, R, seed=21))
            runs.append(len(kernel_runs))
        assert got[0] == got[1]
        assert runs[1] > runs[0]  # the smaller budget did move sub-batch boundaries


# --- lanes that jump ----------------------------------------------------------------

@pytest.fixture(scope="module")
def fixed_survivors(d2_params, small_rule_pair):
    """A regression rule against a fixed rule on a GBM, with the fixed rule's stop date.

    At d = 5 the fixed rule holds to date 9 = J (cli_premium's pairing), so
    its lanes jump to maturity.  At d = 2 it holds to date 5: lanes frozen
    before date 4 jump to date 5 and stop there, while the regression rule
    survives the trunks the fixed one stopped at date 5 and steps on.
    """
    d5 = dataclasses.replace(d2_params, d=5)
    rule5 = train_tvr(simulate_training_paths(d5, 4000, 1234))
    return ((GbmModel(d5), rule5, FixedDateRule(9)),
            (GbmModel(d2_params), small_rule_pair[0], FixedDateRule(5)))


def test_jumping_lanes_keep_the_bits(monkeypatch, fixed_survivors):
    # chunks of 1000 or 16384 paths, a halved noise budget, one or two
    # workers: the same estimate to the last bit
    kernel_runs = []
    run_lanes = nested_cmc._run_lanes

    def counted(*args):
        kernel_runs.append(1)
        return run_lanes(*args)

    monkeypatch.setattr(nested_cmc, "_run_lanes", counted)
    for model, A, B in fixed_survivors:
        expected = estimate(model, A, B, nested_cmc.CHUNK_SIZE, 10, seed=21)
        assert expected.p_differ > 0 and expected.work_sub.steps > 0
        runs = []
        for chunk, budget, threads in ((16384, 9 * 2**19, 1), (16384, 9 * 2**18, 1),
                                       (1000, 9 * 2**18, 1), (1000, 9 * 2**18, 2)):
            monkeypatch.setattr(nested_cmc, "CHUNK_SIZE", chunk)
            monkeypatch.setattr(nested_cmc, "NOISE_BUDGET", budget)
            kernel_runs.clear()
            assert estimate(model, A, B, 16384, 10, seed=21, threads=threads) == expected
            runs.append(len(kernel_runs))
        assert runs[1] > runs[0]  # the halved budget did move sub-batch boundaries
        monkeypatch.setattr(nested_cmc, "CHUNK_SIZE", 16384)
        monkeypatch.setattr(nested_cmc, "NOISE_BUDGET", 9 * 2**18)


def test_a_fixed_survivor_draws_only_the_dates_its_lanes_reach(monkeypatch, fixed_survivors):
    # each trunk the fixed rule survives asks its SUB stream for the points
    # of dates d0..J, d0 = max(tau + 1, stop_from), from point (d0 - 1) R
    # on: (J - d0 + 1) R points where stepping lanes would take (J - tau) R.
    # The regression rule's trunks still ask for dates tau + 1..J
    R, J = 4, 9
    for model, A, B in fixed_survivors:
        tau, sign, xw, resume, _, _ = _trunk_block(model, (A, B), 5, 0, 3000)
        requests = []
        draw = type(model).draw

        def spy_draw(self, seed, namespace, stream_class, index, date, n_points, first_point=0):
            if stream_class == SUB:
                requests.append(np.broadcast_arrays(index, n_points, first_point))
            return draw(self, seed, namespace, stream_class, index, date, n_points, first_point)

        monkeypatch.setattr(type(model), "draw", spy_draw)
        _sub_block(model, A, B, 5, np.arange(3000), tau, sign, xw, resume, R)
        monkeypatch.undo()
        index, counts, firsts = (np.concatenate(a) for a in zip(*requests))
        a, b = np.nonzero(sign > 0)[0], np.nonzero(sign < 0)[0]
        assert np.array_equal(index, np.concatenate([a, b]))
        d0 = np.maximum(tau[b] + 1, B.stop_from)
        assert np.any(d0 > tau[b] + 1)
        assert np.array_equal(counts[a.size:], (J - d0 + 1) * R)
        assert np.array_equal(firsts[a.size:], (d0 - 1) * R)
        assert np.array_equal(counts[:a.size], (J - tau[a]) * R)
        assert np.array_equal(firsts[:a.size], tau[a] * R)


def test_a_value_run_of_a_fixed_rule_jumps_from_date_0(d2_params):
    # holding to maturity, each trunk reaches J in one step on its date-J
    # TRUNK point, charged once
    model, n = GbmModel(d2_params), 500
    _, _, xw, resume, steps, evals = _trunk_block(model, (FixedDateRule(model.J),), 4, 0, n)
    words = np.ascontiguousarray(model.draw(4, NS_TESTING, TRUNK, 0, model.J, n))
    at_J = model.step_batch(model.J, model.init_states(n), model.variates(words), model.J)
    assert np.array_equal(resume, at_J)
    assert np.array_equal(xw, model.payoff_batch(model.J, at_J))
    assert (steps, evals) == (n * model.step_units, 0)


def test_tree_lanes_step_every_date(tree2):
    # a tree cannot jump: the fixed survivor's lanes step dates 1 and 2, as
    # they would on any model before jumps, with the same bits
    N, R = 5000, 4
    est = estimate(tree2, FixedDateRule(0), FixedDateRule(2), N, R, seed=3)
    assert est.work_sub.steps == N * R * 2
    assert est.delta_hat == float.fromhex("-0x1.76f0068db8bacp-1")
    assert est.v2_hat == float.fromhex("0x1.4509f788f1641p+1")


# --- full estimator ----------------------------------------------------------------

def test_swapping_the_rules_negates_the_estimate(tree2, tree2_rules, d2_params, small_rule_pair,
                                                 small_paths):
    # S and the survivor swap with the rules: every replication value
    # changes sign, so the estimate does and nothing else moves
    gbm = GbmModel(d2_params)
    committee = train_committee(small_paths, members=8, member_size=300)
    problems = ((tree2, *tree2_rules, 3), (gbm, small_rule_pair[0], committee, 4),
                (gbm, *small_rule_pair, 1), (gbm, small_rule_pair[1], FixedDateRule(9), 4))
    for model, A, B, R in problems:
        ab = estimate(model, A, B, 3000, R, seed=13)
        ba = estimate(model, B, A, 3000, R, seed=13)
        assert ab.p_differ > 0
        assert ba == dataclasses.replace(ab, delta_hat=-ab.delta_hat)


def test_identical_rules_give_exact_zero(tree2):
    rule = TreeRule(tree2, ["0"])
    est = estimate(tree2, rule, rule, 500, 4, seed=11)
    assert est.delta_hat == 0.0
    assert est.stderr == 0.0
    assert est.work_sub.steps == 0 and est.work_sub.rule_evals == 0
    assert est.p_differ == 0.0


def test_estimate_matches_single_trunk_api(tree2, tree2_rules, d2_params, small_rule_pair):
    # every trunk run alone through both kernels, then reduced as estimate does
    N, R = 64, 3
    for model, (A, B) in ((tree2, tree2_rules), (GbmModel(d2_params), small_rule_pair)):
        est = estimate(model, A, B, N, R, seed=21)
        means, variances = np.empty(N), np.empty(N)
        t_steps = t_evals = s_steps = s_evals = 0
        for i in range(N):
            tau, sign, xw, resume, steps, evals = _trunk_block(model, (A, B), 21, i, 1)
            t_steps, t_evals = t_steps + steps, t_evals + evals
            m, v, steps, evals = _sub_block(model, A, B, 21, np.array([i]), tau, sign, xw, resume, R)
            s_steps, s_evals = s_steps + steps, s_evals + evals
            means[i], variances[i] = m[0], v[0]
        assert est.delta_hat == float(np.mean(means))
        assert est.v2_hat == float(np.mean(variances))
        assert est.v1_hat == max(float(np.var(means, ddof=1)) - est.v2_hat / R, 0.0)
        assert est.work_trunk == WorkMeter(t_steps, t_evals)
        assert est.work_sub == WorkMeter(s_steps, s_evals)
        assert est.p_differ > 0


@pytest.mark.parametrize("N", [2, 3, 1000, 2**20 + 7])
def test_mean_var_is_numpys_bit_for_bit(N):
    gen = np.random.default_rng(N)
    x = gen.normal(loc=2.0, scale=3.0, size=N)
    inputs = [
        x,
        1e6 + x,  # a large mean against small deviations
        np.full(N, 0.1),
        np.full(N, -7.25),
        np.maximum(x - 3.0, 0.0),  # non-negative, most of it exactly zero
        np.where(gen.random(N) < 0.9, 0.0, gen.exponential(5.0, N)),
    ]
    for values in inputs:
        want = np.array([np.mean(values), np.var(values, ddof=1)])
        got = np.array(nested_cmc._mean_var(values.copy()))
        assert got.tobytes() == want.tobytes(), (N, got, want)


def test_r1_reports_no_inner_variance(tree2, tree2_rules):
    A, B = tree2_rules
    est = estimate(tree2, A, B, 400, 1, seed=5)
    assert est.v2_hat is None
    assert est.stderr == pytest.approx(np.sqrt(est.v1_hat / est.N), rel=1e-12)


def test_stderr_formula(tree2, tree2_rules):
    A, B = tree2_rules
    est = estimate(tree2, A, B, 400, 6, seed=5)
    assert est.stderr == pytest.approx(
        np.sqrt(est.v1_hat / est.N + est.v2_hat / (est.R * est.N)), rel=1e-12
    )
    assert est.v1_hat >= 0 and est.v2_hat >= 0


def test_thread_count_never_changes_results(tree2, tree2_rules):
    A, B = tree2_rules
    serial = estimate(tree2, A, B, 40_000, 3, seed=7, threads=1)
    parallel = estimate(tree2, A, B, 40_000, 3, seed=7, threads=8)
    assert serial == parallel


def test_estimate_validates_sizes(tree2, tree2_rules):
    A, B = tree2_rules
    with pytest.raises(ValueError):
        estimate(tree2, A, B, 1, 4, seed=1)
    with pytest.raises(ValueError):
        estimate(tree2, A, B, 10, 0, seed=1)
    with pytest.raises(ValueError, match="N must be >= 2"):
        estimate_value(tree2, A, 1, seed=1)
    for threads in (0, -3):
        with pytest.raises(ValueError, match="threads must be >= 1"):
            estimate(tree2, A, B, 10, 4, seed=1, threads=threads)
        with pytest.raises(ValueError, match="threads must be >= 1"):
            estimate_value(tree2, A, 10, seed=1, threads=threads)


def test_estimate_unbiased_on_tree(tree2, tree2_rules):
    A, B = tree2_rules
    delta = exact_delta(tree2, A, B)
    est = estimate(tree2, A, B, 20_000, 8, seed=13)
    assert abs(est.delta_hat - delta) < 4 * est.stderr


# --- plain value estimator -----------------------------------------------------------

def test_value_estimator_on_tree(tree1):
    val = estimate_value(tree1, FixedDateRule(1), 50_000, seed=2)
    # maturity payoff is 3 or 0 equiprobably
    assert abs(val.mean - 1.5) < 4 * val.stderr
    assert val.stderr == pytest.approx(np.sqrt(val.var_hat / val.N), rel=1e-12)
    assert val.work.steps == 50_000


def test_value_estimator_threads_stable(tree1):
    a = estimate_value(tree1, FixedDateRule(1), 30_000, seed=2, threads=1)
    b = estimate_value(tree1, FixedDateRule(1), 30_000, seed=2, threads=4)
    assert a == b


def test_a_value_run_asks_only_its_own_rule(monkeypatch, tree2, tree2_rules, d2_params, small_rule_pair):
    # every chunk's trunks (lanes from date 0) ask the value run's one rule
    # and a comparison's two; stage two's lanes (from tau + 1) ask one
    kernel_runs = []
    run_lanes = nested_cmc._run_lanes

    def recorded(model, rules, first, *args):
        kernel_runs.append((int(first.min()), len(rules)))
        return run_lanes(model, rules, first, *args)

    monkeypatch.setattr(nested_cmc, "_run_lanes", recorded)
    monkeypatch.setattr(nested_cmc, "CHUNK_SIZE", 1000)
    problems = ((tree2, tree2_rules), (GbmModel(d2_params), small_rule_pair))
    for model, (A, B) in problems:
        kernel_runs.clear()
        estimate_value(model, A, 3500, seed=3)
        assert kernel_runs == [(0, 1)] * 4
        kernel_runs.clear()
        estimate(model, A, B, 3500, 2, seed=3)
        assert [n for first, n in kernel_runs if first == 0] == [2] * 4
        assert {n for first, n in kernel_runs if first > 0} == {1}
    monkeypatch.undo()
    # one rule alone: sign 0 on every path, and the stops, payoffs, states
    # and steps of the rule against itself (which counts its evaluations
    # twice) or against holding to maturity (which costs nothing)
    for model, (A, _) in problems:
        tau, sign, xw, resume, steps, evals = _trunk_block(model, (A,), 5, 0, 3000)
        assert np.all(sign == 0)
        assert 0 < np.count_nonzero(tau < model.J) < tau.size
        for pair, times in (((A, A), 2), ((A, FixedDateRule(model.J)), 1)):
            t, _, x, r, s, e = _trunk_block(model, pair, 5, 0, 3000)
            assert np.array_equal(t, tau) and np.array_equal(x, xw) and np.array_equal(r, resume)
            assert (s, e) == (steps, times * evals)


# --- one trunk pass for many pairs -----------------------------------------------------------

def pass_and_pairs(model, A, against, N, R, seed, threads=1):
    """A value run of A watching ``against`` ((rule B, N_B) pairs), checked
    against the runs it replaces: its value is a plain value run's, and each
    pair's stage two on its trunks is the pair's own estimate, bit for bit,
    but for the trunk work the pass reports.  Returns (pass, pair estimates).
    """
    val = estimate_value(model, A, N, seed, threads=threads, against=against)
    plain = estimate_value(model, A, N, seed)
    assert (val.mean, val.var_hat, val.stderr, val.N) == (plain.mean, plain.var_hat, plain.stderr, plain.N)
    ests = []
    for (B, n_b), trunks in zip(against, val.pairs, strict=True):
        own = estimate(model, A, B, n_b, R, seed)
        est = estimate(model, A, B, n_b, R, seed, threads=threads, trunks=trunks)
        assert est == dataclasses.replace(own, work_trunk=WorkMeter())
        assert trunks.work == own.work_trunk
        assert trunks.N == n_b and np.all(np.diff(trunks.paths) > 0)
        ests.append(est)
    return val, ests


@pytest.mark.parametrize("threads", [1, 2])
def test_one_pass_serves_every_pair(monkeypatch, threads, tree2, tree2_rules, d2_params, small_rule_pair):
    # chunks of 1000: pairs over fewer and more paths than the value's,
    # their last chunks cut short, and the rule against itself
    monkeypatch.setattr(nested_cmc, "CHUNK_SIZE", 1000)
    for model, (A, B) in ((tree2, tree2_rules), (GbmModel(d2_params), small_rule_pair)):
        val, ests = pass_and_pairs(model, A, [(B, 2500), (A, 3500), (B, 4321)], 3500, 3, 9, threads)
        assert ests[0].p_differ > 0 and ests[1].p_differ == 0 and val.pairs[1].paths.size == 0
        # the longer prefix holds the shorter one's trunks first
        assert np.array_equal(val.pairs[2].paths[:val.pairs[0].paths.size], val.pairs[0].paths)


def test_a_pass_watches_fixed_rules_that_jump(d2_params, small_rule_pair):
    # holding to date 5 against holding to 7 or to maturity: every lane
    # jumps to date 5, so each pair freezes there and its survivor jumps on
    model = GbmModel(d2_params)
    val, ests = pass_and_pairs(model, FixedDateRule(5), [(FixedDateRule(7), 3000), (FixedDateRule(9), 2000)],
                               3000, 2, 4)
    assert val.work.steps == 3000 * model.step_units
    assert all(np.all(t.tau == 5) and np.all(t.sign == -1) for t in val.pairs)
    assert [e.work_sub.steps for e in ests] == [3000 * 2 * model.step_units, 2000 * 2 * model.step_units]
    # every prefix a pass reads needs two paths for a variance, as any run
    for sizes in ((1, 3000), (3000, 1)):
        with pytest.raises(ValueError, match="^N must be >= 2$"):
            estimate_value(model, FixedDateRule(5), sizes[0], 4, against=[(FixedDateRule(7), sizes[1])])
    # a watched rule that could stop before the rule would move the jump
    # of the value's lanes: refused
    for watched in (FixedDateRule(3), small_rule_pair[0]):
        with pytest.raises(ValueError, match="must not stop before the rule can"):
            estimate_value(model, FixedDateRule(5), 3000, 4, against=[(watched, 3000)])


class Asked:
    """Stands in for ``rule`` and keeps the states of the rows asked at each date."""

    def __init__(self, rule):
        self.rule, self.eval_cost, self.stop_from = rule, rule.eval_cost, rule.stop_from
        self.asked = {}

    def decide_batch(self, j, states, payoffs):
        self.asked.setdefault(j, []).append(np.array(states))
        return self.rule.decide_batch(j, states, payoffs)

    def rows(self, j):
        """The rows asked at date j, in one order whatever the batches."""
        rows = np.concatenate(self.asked.get(j, [np.empty((0, 2))]))
        return rows[np.lexsort(rows.T)]


def test_a_watched_rule_is_asked_only_until_its_pair_freezes(monkeypatch, d2_params, small_rule_pair):
    # GBM states tell lanes apart: at every date the pass asks each watched
    # rule about the very lanes the pair's own stage one asks it about, so
    # never about a lane whose pair has frozen.  The pass's meter is every
    # step it takes and every row each rule is asked, times the rule's cost
    model, (A, B) = GbmModel(d2_params), small_rule_pair
    in_pass = [Asked(A), Asked(B), Asked(A)]
    steps = []
    step_batch = GbmModel.step_batch

    def counted(self, j, states, *args):
        steps.append(len(states))
        return step_batch(self, j, states, *args)

    monkeypatch.setattr(GbmModel, "step_batch", counted)
    val = estimate_value(model, in_pass[0], 3000, 5, against=[(in_pass[1], 3000), (in_pass[2], 3000)])
    monkeypatch.undo()
    assert val.work == WorkMeter(sum(steps) * model.step_units,
                                 sum(len(r.rows(j)) * r.eval_cost for r in in_pass for j in r.asked))
    for watched in in_pass[1:]:
        alone = Asked(watched.rule)
        _trunk_block(model, (A, alone), 5, 0, 3000)
        assert len(alone.asked) > 1
        for j in range(model.J):
            assert np.array_equal(watched.rows(j), alone.rows(j))
    # A against itself freezes where A stops: it is asked what A is
    assert all(np.array_equal(in_pass[2].rows(j), in_pass[0].rows(j)) for j in range(model.J))


# --- worker processes ---------------------------------------------------------------------

on_linux = pytest.mark.skipif(sys.platform != "linux", reason="worker processes are forked on Linux only")


class RecordingPool(ProcessPoolExecutor):
    """A real fork pool that records the workers each call asks for."""

    asked: list = []

    def __init__(self, max_workers, **kwargs):
        RecordingPool.asked.append(max_workers)
        super().__init__(max_workers, **kwargs)


@on_linux
@pytest.mark.parametrize("workers", [2, 3])
def test_worker_processes_keep_the_bits(monkeypatch, workers, tree2, tree2_rules, d2_params,
                                        small_rule_pair):
    # 3,500 paths in chunks of 1000: four chunks, so `workers` processes run them
    monkeypatch.setattr(nested_cmc, "CHUNK_SIZE", 1000)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "asked", [])
    for model, (A, B) in ((tree2, tree2_rules), (GbmModel(d2_params), small_rule_pair)):
        want = (estimate(model, A, B, 3500, 3, seed=31), estimate_value(model, A, 3500, seed=32))
        got = (estimate(model, A, B, 3500, 3, seed=31, threads=workers),
               estimate_value(model, A, 3500, seed=32, threads=workers))
        assert got == want
        assert multiprocessing.active_children() == []
    assert RecordingPool.asked == [workers] * 4


class FailsInWorker(FixedDateRule):
    """Stops at date 1, and raises when asked in any process but its maker's."""

    def __init__(self):
        super().__init__(1)
        self.maker = os.getpid()

    def decide_batch(self, j, states, payoffs):
        if os.getpid() != self.maker:
            raise ValueError(f"asked at date {j} in a worker")
        return super().decide_batch(j, states, payoffs)


@on_linux
def test_an_error_in_a_worker_reaches_the_caller(monkeypatch, tree2):
    monkeypatch.setattr(nested_cmc, "CHUNK_SIZE", 1000)
    rule = FailsInWorker()
    assert estimate(tree2, rule, FixedDateRule(2), 3500, 2, seed=1).N == 3500  # inline, no error
    with pytest.raises(ValueError, match=r"^asked at date 0 in a worker$"):
        estimate(tree2, rule, FixedDateRule(2), 3500, 2, seed=1, threads=2)
    assert multiprocessing.active_children() == []
    with pytest.raises(ValueError, match=r"^asked at date 0 in a worker$"):
        estimate_value(tree2, rule, 3500, seed=1, threads=3)
    assert multiprocessing.active_children() == []


@on_linux
def test_a_committee_estimate_keeps_its_bits_in_workers(monkeypatch, d2_params, small_paths, small_rule_pair):
    # a committee decides by BLAS matrix products, which each worker runs on one BLAS thread
    monkeypatch.setattr(nested_cmc, "CHUNK_SIZE", 1000)
    committee = train_committee(small_paths, members=8, member_size=300)
    model = GbmModel(d2_params)
    one = estimate(model, committee, small_rule_pair[1], 3500, 3, seed=17)
    assert one.p_differ > 0
    assert estimate(model, committee, small_rule_pair[1], 3500, 3, seed=17, threads=2) == one


blas_threads = nested_cmc._openblas("scipy_openblas_get_num_threads64_", ctypes.c_int)


@on_linux
@pytest.mark.skipif(blas_threads is None, reason="numpy bundles no OpenBLAS that reports its threads")
def test_a_worker_runs_one_blas_thread(monkeypatch):
    monkeypatch.setattr(nested_cmc, "CHUNK_SIZE", 1000)
    before = blas_threads()
    (seen,), _ = nested_cmc._run_chunked(lambda start, n: ((np.full(n, blas_threads()),), ()), 2000, 2)
    assert np.all(seen == 1)
    assert blas_threads() == before  # the caller's own are left alone


class InlinePool:
    """Stands in for the fork pool: records the workers asked for and runs inline."""

    asked: list = []

    def __init__(self, max_workers, mp_context, initializer, initargs):
        InlinePool.asked.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize("platform,threads,N,asked", [
    ("linux", 1, 3500, []),          # one thread: inline
    ("linux", 8, 1000, []),          # one chunk: inline
    ("linux", 2, 3500, [2, 2]),
    ("linux", 8, 3500, [4, 4]),      # never more workers than chunks
    ("linux", 8, 2001, [3, 3]),
    ("darwin", 8, 3500, []),         # no worker processes off Linux
    ("win32", 8, 3500, []),
])
def test_workers_never_outnumber_chunks(monkeypatch, platform, threads, N, asked, tree2, tree2_rules):
    monkeypatch.setattr(nested_cmc, "CHUNK_SIZE", 1000)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(InlinePool, "asked", [])
    monkeypatch.setattr(nested_cmc, "_task", None)
    # the stand-in starts its "workers" in this process, whose BLAS threads are its own
    monkeypatch.setattr(nested_cmc, "_openblas", lambda *symbol: None)
    monkeypatch.setattr(nested_cmc.sys, "platform", platform)
    A, B = tree2_rules
    got = (estimate(tree2, A, B, N, 2, seed=5, threads=threads),
           estimate_value(tree2, A, N, seed=6, threads=threads))
    assert InlinePool.asked == asked
    monkeypatch.setattr(nested_cmc.sys, "platform", "linux")
    assert got == (estimate(tree2, A, B, N, 2, seed=5), estimate_value(tree2, A, N, seed=6))


# --- chunk merging --------------------------------------------------------------------

def toy_task(start, n):
    """A chunk's arrays (its path indices, as floats and as bytes mod 7) and
    counts (its size, its start and one)."""
    index = np.arange(start, start + n)
    return (index * 0.5, (index % 7).astype(np.int8)), (n, start, 1)


@pytest.mark.parametrize("threads", [1, 2])
def test_run_chunked_merges_chunks_in_order(monkeypatch, threads):
    # 3,500 paths in chunks of 1000: three full chunks and one of 500, the
    # same values inline and from two worker processes
    monkeypatch.setattr(nested_cmc, "CHUNK_SIZE", 1000)
    (halves, mod7), totals = nested_cmc._run_chunked(toy_task, 3500, threads)
    index = np.arange(3500)
    assert halves.dtype == np.float64 and mod7.dtype == np.int8
    assert np.array_equal(halves, index * 0.5)
    assert np.array_equal(mod7, index % 7)
    assert totals == [3500, 0 + 1000 + 2000 + 3000, 4]
    assert multiprocessing.active_children() == []


def test_size_errors_come_before_any_chunk_runs(tree2, tree2_rules):
    A, B = tree2_rules
    ran = []

    def task(start, n):
        ran.append(start)
        return toy_task(start, n)

    for N, threads, message in ((1, 1, "N must be >= 2"), (0, 2, "N must be >= 2"),
                                (10, 0, "threads must be >= 1"), (10, -3, "threads must be >= 1")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            nested_cmc._run_chunked(task, N, threads)
        with pytest.raises(ValueError, match=f"^{message}$"):
            estimate(tree2, A, B, N, 4, seed=1, threads=threads)
        with pytest.raises(ValueError, match=f"^{message}$"):
            estimate_value(tree2, A, N, seed=1, threads=threads)
    assert ran == []
    # the pilot bounds its own size first, and its threads reach the same check
    with pytest.raises(ValueError, match="^N_pilot must be >= 100$"):
        pilot(tree2, A, B, 1, 8, seed=1)
    with pytest.raises(ValueError, match="^threads must be >= 1$"):
        pilot(tree2, A, B, 500, 8, seed=1, threads=0)


# --- pilot ------------------------------------------------------------------------------

def test_pilot_recovers_tree_components(tree2, tree2_rules):
    from nccmc.oracle import exact_moments

    A, B = tree2_rules
    _, v1, v2 = exact_moments(tree2, A, B)
    cal = pilot(tree2, A, B, 100_000, 10, seed=3)
    assert not cal.degenerate
    assert cal.v1 == pytest.approx(v1, rel=0.10)
    assert cal.v2 == pytest.approx(v2, rel=0.10)
    assert cal.p_differ == 1.0  # these two rules disagree on every path
    assert cal.rho1 > 0 and cal.rho2 > 0


def test_pilot_flags_equal_rules(tree2):
    rule = TreeRule(tree2, ["0"])
    cal = pilot(tree2, rule, rule, 500, 8, seed=3)
    assert cal.degenerate
    assert cal.p_differ == 0.0
    assert cal.v1 > 0 and cal.v2 > 0  # floored, never zero


def test_pilot_floors_zero_components(tree2):
    # equal rules never differ: v1, v2 and rho2 all come out exactly zero,
    # and each is floored at 1e-12 times its scale
    rule = TreeRule(tree2, ["0"])
    cal = pilot(tree2, rule, rule, 500, 8, seed=3)
    assert (cal.v1, cal.v2) == (1e-12, 1e-12)  # scale max(v1, v2, 1) = 1
    assert cal.rho1 > 1.0
    assert cal.rho2 == 1e-12 * cal.rho1
    assert cal == floored_params(estimate(tree2, rule, rule, 500, 8, seed=3))


@pytest.mark.parametrize("x, kind, expected", [
    (0.0, (), 1e-12),
    (0.0, (3.0, 0.0), 3e-12),
    (-2.0, (-2.0, 0.5), 1e-12),
    (-1e-300, (4e6,), 4e-6),
    (0.25, (0.25, 9.0), 0.25),
    (1e-300, (1e-300, 7.0), 1e-300),
], ids=["zero-alone", "zero", "negative", "tiny-negative", "positive", "tiny-positive"])
def test_floored_scales_by_its_kind(x, kind, expected):
    # at or below zero: 1e-12 times the largest of x's kind and 1; above
    # zero, x itself however small
    assert floored(x, *kind) == expected


def test_floored_params_keeps_positive_components(tree2, tree2_rules):
    # only a component at or below zero is floored; a tiny positive one stays
    est = estimate(tree2, *tree2_rules, 400, 6, seed=5)
    tiny = dataclasses.replace(est, v1_hat=1e-300)
    cal = floored_params(tiny)
    assert cal.v1 == 1e-300 and not cal.degenerate
    assert cal.v2 == est.v2_hat
    zero = floored_params(dataclasses.replace(est, v1_hat=0.0))
    assert zero.v1 == 1e-12 * max(est.v2_hat, 1.0) and zero.degenerate


def test_floored_params_floors_zero_trunk_cost(tree2):
    # a rule that stops at date 0 ends every trunk before any step, and
    # fixed-date rules cost nothing to evaluate: rho1 is exactly zero and is
    # floored at 1e-12 times max(rho1, rho2, 1)
    est = estimate(tree2, FixedDateRule(0), FixedDateRule(2), 400, 4, seed=5)
    assert est.work_trunk.units() == 0.0 and est.p_differ == 1.0
    rho2 = est.work_sub.units() / (est.N * est.R)
    assert rho2 > 1.0
    cal = floored_params(est)
    assert cal.rho1 == 1e-12 * rho2
    assert cal.rho2 == rho2
    assert cal.degenerate
    assert pilot(tree2, FixedDateRule(0), FixedDateRule(2), 400, 4, seed=5) == cal


def test_pilot_validates_sizes(tree2, tree2_rules):
    A, B = tree2_rules
    with pytest.raises(ValueError):
        pilot(tree2, A, B, 99, 8, seed=1)
    with pytest.raises(ValueError):
        pilot(tree2, A, B, 500, 1, seed=1)
    for threads in (0, -3):
        with pytest.raises(ValueError, match="threads must be >= 1"):
            pilot(tree2, A, B, 500, 8, seed=1, threads=threads)
