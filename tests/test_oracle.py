"""Exact tree enumeration against hand-computed values and random trees."""

import dataclasses

import numpy as np
import pytest

import nccmc.oracle as oracle
from nccmc import nested_cmc
from nccmc.nested_cmc import WorkMeter, estimate, estimate_value, pilot
from nccmc.oracle import TreeSizeError, exact_delta, exact_moments
from nccmc.process_models import TreeModel
from nccmc.stopping_rules import FixedDateRule, TreeRule
from tests.conftest import exact_total_variance, short_tree_spec


def symmetric_tree(high):
    return TreeModel({"root": {"payoff": 1.0, "children": [
        {"prob": 0.5, "payoff": high}, {"prob": 0.5, "payoff": 0.0}]}})


def test_symmetric_one_period_is_fair():
    tree = symmetric_tree(2.0)
    assert exact_delta(tree, FixedDateRule(0), FixedDateRule(1)) == pytest.approx(0.0, abs=1e-15)


def test_one_period_hand_values(tree1):
    # stop-now value 1 vs continuation mean 1.5; trunk information is
    # trivial so all variance is conditional
    A, B = FixedDateRule(0), FixedDateRule(1)
    delta, v1, v2 = exact_moments(tree1, A, B)
    assert delta == pytest.approx(-0.5, abs=1e-15)
    assert v1 == pytest.approx(0.0, abs=1e-15)
    assert v2 == pytest.approx(2.25, abs=1e-15)


def test_two_period_hand_values(tree2, tree2_rules):
    A, B = tree2_rules
    # atom at node 0 (p=0.6): diffs {-2, +1} -> mean -0.5, var 2.25;
    # atom at node 1 (p=0.4): diffs {+1.5, -0.5} at odds 3:7 -> mean 0.1, var 0.84
    delta, v1, v2 = exact_moments(tree2, A, B)
    assert delta == pytest.approx(-0.26, abs=1e-12)
    assert v1 == pytest.approx(0.0864, abs=1e-12)
    assert v2 == pytest.approx(1.686, abs=1e-12)


def test_equal_rules_have_no_difference(tree2):
    rule = TreeRule(tree2, ["0"])
    assert exact_delta(tree2, rule, rule) == 0.0
    # floats, not int 0: the equal-rules pilot.json prints 0.0
    moments = exact_moments(tree2, rule, rule)
    assert moments == (0.0, 0.0, 0.0)
    assert [type(m) for m in moments] == [float, float, float]


@pytest.mark.parametrize("labels_a,labels_b", [
    (["0"], ["1"]),
    (["0", "1"], []),
    ([], ["1"]),
    (["root"], ["0", "1"]),
    # the rules coincide at node 0, whose atom adds no variance
    (["0"], ["0", "1"]),
])
def test_variance_decomposition(tree2, labels_a, labels_b):
    A = TreeRule(tree2, labels_a)
    B = TreeRule(tree2, labels_b)
    _, v1, v2 = exact_moments(tree2, A, B)
    total = exact_total_variance(tree2, A, B)
    assert v1 + v2 == pytest.approx(total, rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("labels_a,labels_b", [(["0/0"], []), (["0"], ["1"]), (["root"], [])])
def test_oracle_accepts_what_the_loader_accepts(labels_a, labels_b):
    tree = TreeModel(short_tree_spec())
    A, B = TreeRule(tree, labels_a), TreeRule(tree, labels_b)
    # exact_moments raises if the atoms' mass misses 1 by more than its bound
    values = [*exact_moments(tree, A, B), exact_total_variance(tree, A, B)]
    assert np.all(np.isfinite(values))


@pytest.mark.parametrize("node", [0, 1, 4])
def test_atom_check_trips_when_mass_is_lost(tree2, monkeypatch, node):
    # a tenth of one node's branch probability goes missing
    probs = tree2.branch_probs
    monkeypatch.setattr(tree2, "branch_probs", lambda n: probs(n) * (0.9 if n == node else 1.0))
    hold = TreeRule(tree2, [])
    with pytest.raises(AssertionError, match="atom probabilities sum to"):
        exact_moments(tree2, hold, hold)


def test_each_rule_is_asked_once_a_date(monkeypatch):
    tree, A, B = random_tree_problem(5, J=4, width=3)
    calls = {"A": [], "B": []}
    for name, rule in (("A", A), ("B", B)):
        decide = rule.decide_batch

        def spy(j, states, payoffs, decide=decide, name=name):
            calls[name].append(j)
            assert np.array_equal(states, np.flatnonzero(tree.depths == j))
            return decide(j, states, payoffs)

        monkeypatch.setattr(rule, "decide_batch", spy)
    exact_moments(tree, A, B)
    assert calls == {"A": [0, 1, 2, 3], "B": [0, 1, 2, 3]}


def test_oversized_tree_rejected(tree2, tree2_rules, monkeypatch):
    monkeypatch.setattr(oracle, "MAX_PATHS", 3)
    with pytest.raises(TreeSizeError):
        exact_delta(tree2, *tree2_rules)


# --- random trees ------------------------------------------------------------------

def random_tree_problem(seed, J=None, width=None):
    """A seeded tree of depth J (2-4 if not given), `width` children a node
    (1-3 if not given) and payoffs in [-2, 5], with two rules that each stop
    on about 30 % of the non-root labels."""
    gen = np.random.default_rng(seed)
    J = int(gen.integers(2, 5)) if J is None else J

    def node(depth):
        spec = {"payoff": float(gen.uniform(-2.0, 5.0))}
        if depth < J:
            w = gen.uniform(0.1, 1.0, size=int(gen.integers(1, 4)) if width is None else width)
            spec["children"] = [dict(node(depth + 1), prob=float(q)) for q in w / w.sum()]
        return spec

    tree = TreeModel({"root": node(0)})
    labels = list(tree.label_to_id)[1:]
    rules = [TreeRule(tree, [lab for lab in labels if gen.random() < 0.3]) for _ in "AB"]
    return tree, *rules


def test_random_trees_match_the_oracle(monkeypatch):
    for seed in range(20):
        tree, A, B = random_tree_problem(seed)
        delta, v1, v2 = exact_moments(tree, A, B)
        assert v1 + v2 == pytest.approx(exact_total_variance(tree, A, B), rel=1e-12, abs=1e-12)

        est = estimate(tree, A, B, 20_000, 4, seed=100 + seed)
        gap = est.delta_hat - delta
        assert abs(gap) < 4 * est.stderr if est.stderr > 0 else gap == 0.0
        # two chunks at two threads; at N = 2,000 a small budget still means
        # hundreds of sub-batches
        assert estimate(tree, A, B, 20_000, 4, seed=100 + seed, threads=2) == est
        small = estimate(tree, A, B, 2_000, 4, seed=100 + seed)
        with monkeypatch.context() as m:
            m.setattr(nested_cmc, "CHUNK_SIZE", 257)
            m.setattr(nested_cmc, "NOISE_BUDGET", 500)
            assert estimate(tree, A, B, 2_000, 4, seed=100 + seed) == small
    # and a deeper 3-ary tree, of 3,280 nodes, for the oracle alone
    tree, A, B = random_tree_problem(20, J=7, width=3)
    assert tree.n_nodes == 3280
    _, v1, v2 = exact_moments(tree, A, B)
    assert v1 + v2 == pytest.approx(exact_total_variance(tree, A, B), rel=1e-12, abs=1e-12)


def test_tree_bits_are_pinned(tree2, tree2_rules):
    # a tree draws uniforms only, so its bits hold on any CPU: a standalone
    # estimate on tree_2period, and one pair of a pass on a random tree,
    # watched over fewer paths than the pass runs
    A, B = tree2_rules
    est = estimate(tree2, A, B, 20_000, 4, seed=5)
    assert (est.delta_hat, est.v1_hat, est.v2_hat) == tuple(map(float.fromhex, (
        "-0x1.099999999999ap-2", "0x1.5bdeac64df8f0p-4", "0x1.b0ca11bfd44f4p+0")))
    assert (est.work_trunk, est.work_sub) == (WorkMeter(20_000, 80_000), WorkMeter(80_000, 0))
    tree, A, B = random_tree_problem(4)
    (trunks,) = estimate_value(tree, A, 10_000, seed=304, against=[(B, 7_000)]).pairs
    est = estimate(tree, A, B, 7_000, 4, seed=304, trunks=trunks)
    assert (est.delta_hat, est.v1_hat, est.v2_hat) == tuple(map(float.fromhex, (
        "0x1.062ab4f6d4eefp+0", "0x1.54afdece597a8p+1", "0x1.c7ebd24c888ecp+0")))
    assert (trunks.work, est.work_sub) == (WorkMeter(18_754, 50_254), WorkMeter(25_616, 8_996))


def test_one_pass_prices_two_watched_tree_rules(monkeypatch):
    # rule A's value run watching B and a third rule C: each pair's stage
    # two on its trunks is its own estimate, bit for bit, over a prefix of
    # the pass, and within 4 standard errors of the exact difference, the
    # band of the random-tree check above (of 20 pairs, one lies 3.17 out)
    monkeypatch.setattr(nested_cmc, "CHUNK_SIZE", 4096)
    for seed in range(10):
        tree, A, B = random_tree_problem(seed)
        gen = np.random.default_rng(500 + seed)
        C = TreeRule(tree, [lab for lab in list(tree.label_to_id)[1:] if gen.random() < 0.3])
        val = estimate_value(tree, A, 10_000, seed=300 + seed, against=[(B, 10_000), (C, 7_000)])
        plain = estimate_value(tree, A, 10_000, seed=300 + seed)
        assert val == dataclasses.replace(plain, work=val.work, pairs=val.pairs)
        assert val.work.steps == plain.work.steps and val.work.rule_evals > plain.work.rule_evals
        for (rule, n), trunks in zip(((B, 10_000), (C, 7_000)), val.pairs, strict=True):
            est = estimate(tree, A, rule, n, 4, seed=300 + seed, trunks=trunks)
            own = estimate(tree, A, rule, n, 4, seed=300 + seed)
            assert est == dataclasses.replace(own, work_trunk=est.work_trunk) and trunks.work == own.work_trunk
            gap = est.delta_hat - exact_delta(tree, A, rule)
            assert abs(gap) < 4 * est.stderr if est.stderr > 0 else gap == 0.0


def test_random_tree_pilots_match_the_exact_components():
    # 16 pilots of each tree at pilot size: the mean of each component lies
    # within 4 standard errors of its exact value, or, where the exact value
    # is zero, at the floor the pilot puts there
    K = 16
    for seed in range(20):
        tree, A, B = random_tree_problem(seed)
        exact = np.array(exact_moments(tree, A, B)[1:])
        got = np.array([[p.v1, p.v2] for p in (pilot(tree, A, B, 2000, 8, seed=1000 + 100 * seed + k)
                                               for k in range(K))])
        gap = got.mean(axis=0) - exact
        se = got.std(axis=0, ddof=1) / np.sqrt(K)
        assert np.all(np.abs(gap) <= 4 * se + 1e-12 * max(1.0, got.max())), (seed, gap, se)
