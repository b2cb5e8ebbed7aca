import numpy as np
import pytest

from nccmc import nested_cmc
from nccmc.nested_cmc import _run_lanes
from nccmc.oracle import _branches, _check_size, _stop_table
from nccmc.process_models import GbmParams, TreeModel, bundled_tree, gather_rows, simulate_training_paths
from nccmc.rng import NS_TESTING, NS_TRAINING, SUB, TRUNK
from nccmc.stopping_rules import FixedDateRule, TreeRule, train_tvr


@pytest.fixture(scope="session")
def tree1():
    return bundled_tree("tree_1period")


@pytest.fixture(scope="session")
def tree2():
    return bundled_tree("tree_2period")


@pytest.fixture(scope="session")
def tree2_rules(tree2):
    # stop on the high date-1 node vs the low one; the rules disagree on
    # every path, so every estimator component is exercised
    return TreeRule(tree2, ["0"]), TreeRule(tree2, ["1"])


@pytest.fixture(scope="session")
def d2_params():
    return GbmParams(d=2, r=0.05, delta=0.1, sigma=0.2, K=100.0, y0=90.0, T=3.0, n_dates=10)


@pytest.fixture(scope="session")
def small_rule_pair(d2_params):
    """Two cheaply trained rules at nearby volatilities, sharing noise."""
    from dataclasses import replace

    paths = simulate_training_paths(d2_params, 4000, 1234)
    perturbed = replace(d2_params, sigma=0.23)
    paths_hat = simulate_training_paths(perturbed, 4000, 1234)
    return train_tvr(paths), train_tvr(paths_hat)


@pytest.fixture(scope="session")
def small_paths(d2_params):
    return simulate_training_paths(d2_params, 4000, 1234)


def full_paths(paths):
    """A training bundle's assets (n, n_dates, d) and payoffs (n, n_dates) at every date.

    Dates below J are the bundle's own states; date J's assets are stepped
    here from date J - 1 with that date's training noise, and date J's
    payoffs are the bundle's final payoffs.
    """
    model, n, J = paths.model, paths.n, paths.model.J
    assets = np.empty((n, J + 1, model.params.d))
    payoffs = np.empty((n, J + 1))
    for j in range(J):
        assets[:, j] = paths.states(j)
        payoffs[:, j] = model.payoff_batch(j, assets[:, j])
    words = np.ascontiguousarray(model.draw(paths.seed, NS_TRAINING, TRUNK, 0, J, n))
    assets[:, J] = model.step_batch(J, assets[:, J - 1], model.variates(words))
    payoffs[:, J] = paths.final
    return assets, payoffs


def short_tree_spec():
    """Two dates, binary, every branch probability 0.5 - 0.45e-12: each node
    sums to within TreeModel's 1e-12 of 1, and the atoms to 1 - 1.8e-12."""
    q = 0.5 - 0.45e-12
    return {"root": {"payoff": 1.0, "children": [
        {"prob": q, "payoff": 2.0, "children": [{"prob": q, "payoff": 3.0}, {"prob": q, "payoff": 1.0}]},
        {"prob": q, "payoff": 0.5, "children": [{"prob": q, "payoff": 0.0}, {"prob": q, "payoff": 2.5}]}]}}


def assert_close(actual, expected, rel=0.0, abs_=0.0, label=""):
    actual = float(actual)
    expected = float(expected)
    tol = max(rel * abs(expected), abs_)
    assert abs(actual - expected) <= tol, (
        f"{label or 'value'}: {actual!r} not within {tol!r} of {expected!r}"
    )


def random_calib_params(rng: np.random.Generator, n: int):
    """Log-uniform positive parameter draws spanning several decades."""
    from nccmc.calibration import CalibParams

    draws = 10.0 ** rng.uniform(-3, 3, size=(n, 4))
    return [CalibParams(v1=a, v2=b, rho1=c, rho2=d) for a, b, c, d in draws]


def trunk_lanes(model, seed, p0, n):
    """Date-0 lanes of paths [p0, p0+n): (first, states, payoff, noise).

    Path p reads point p of each date's TRUNK stream.  The testing
    namespace is read from ``nested_cmc`` at each draw, so a test may move it.
    """
    states = model.init_states(n)

    def noise(j, rows):
        return gather_rows(model.draw(seed, nested_cmc.NS_TESTING, TRUNK, 0, j, n, first_point=p0), rows)

    return np.zeros(n, dtype=np.int64), states, model.payoff_batch(0, states), noise


def stage_one(model, A, B, seed, p0, n):
    """Stage one of the pair (A, B) on paths [p0, p0+n), every path kept.

    Rule A runs, watching B on every lane, until the pair freezes, as
    ``estimate``'s own stage one does.  Returns (tau, sign, x_wedge, resume,
    steps, evals), the last two the pair's own meter.
    """
    _, _, ((tau, sign, x_wedge, resume, (steps, evals)),) = _run_lanes(
        model, A, *trunk_lanes(model, seed, p0, n), ((B, n),), until_frozen=True)
    return tau, sign, x_wedge, resume, steps, evals


def value_run(model, rule, seed, p0, n):
    """A rule's value run on paths [p0, p0+n), watching nothing, as
    ``estimate_value``'s: (x_wedge, resume, steps, evals)."""
    first, states, payoff, noise = trunk_lanes(model, seed, p0, n)
    steps, evals, _ = _run_lanes(model, rule, first, states, payoff, noise)
    return payoff, states, steps, evals


def run_alone(model, rule, seed, p0, n):
    """A rule's own stage one on paths [p0, p0+n): (tau, x_wedge, resume, steps, evals).

    Its pair with holding to maturity, which costs nothing, freezes where
    the rule stops.
    """
    tau, _, x_wedge, resume, steps, evals = stage_one(model, rule, FixedDateRule(model.J), seed, p0, n)
    return tau, x_wedge, resume, steps, evals


def continuations(model, A, B, seed, trunk_index, tau, sign, x_wedge, resume, R):
    """Stage two by hand: R continuations of each given trunk, through the lane kernel.

    Replication r of trunk k reads its date-j noise straight from point
    (j-1)*R + r of the trunk's SUB stream, independently of the engine's
    buffers.  The lanes of the trunks where A survives (S > 0) run in one
    kernel call, those where B survives in another.  Returns (vals of shape
    (n_trunks, R), steps, evals).
    """
    n, J = len(tau), model.J
    sign = np.asarray(sign)
    dense = np.stack([model.draw(seed, NS_TESTING, SUB, int(i), 0, J * R).reshape(J, R, -1)
                      for i in trunk_index])
    k, r = np.divmod(np.arange(n * R), R)
    first = np.repeat(np.asarray(tau) + 1, R)
    lane_xw = np.repeat(np.asarray(x_wedge, dtype=float), R)
    payoff = lane_xw.copy()
    states = np.repeat(resume, R, axis=0)
    steps = evals = 0
    for rule, s in ((A, 1), (B, -1)):
        lanes = np.nonzero(np.repeat(sign == s, R))[0]
        if lanes.size == 0:
            continue
        group_payoff, group_states = payoff[lanes], states[lanes]
        s_steps, s_evals, _ = _run_lanes(
            model, rule, first[lanes], group_states, group_payoff,
            lambda j, rows: dense[k[lanes[rows]], j - 1, r[lanes[rows]]])
        payoff[lanes] = group_payoff
        steps, evals = steps + s_steps, evals + s_evals
    vals = np.repeat(sign, R) * (payoff - lane_xw)
    return vals.reshape(n, R), steps, evals


def exact_total_variance(tree: TreeModel, ruleA, ruleB) -> float:
    """Exact Var(X_{tau_A} - X_{tau_B}) by direct full-path enumeration.

    Independent of the atom decomposition, so it can check v1 + v2 against
    the law of total variance.
    """
    _check_size(tree)
    sA, sB = _stop_table(tree, ruleA), _stop_table(tree, ruleB)
    pay = tree.payoffs.tolist()
    m1 = m2 = 0.0
    # each node's (path probability, X_tau_A, X_tau_B) while a rule runs on,
    # a payoff None until its rule stops
    reach = [(1.0, None, None)] + [None] * (tree.n_nodes - 1)
    for node, at in enumerate(reach):
        if at is None:
            continue
        prob, xA, xB = at
        xA = pay[node] if xA is None and sA[node] else xA
        xB = pay[node] if xB is None and sB[node] else xB
        if xA is None or xB is None:
            for child, p in _branches(tree, node):
                reach[child] = (prob * p, xA, xB)
            continue
        d = xA - xB
        m1 += prob * d
        m2 += prob * d * d
    return m2 - m1**2
