"""Model layer: exact transitions, payoffs, path plumbing, tree fixtures."""

import numpy as np
import pytest

from nccmc import nested_cmc, rng
from nccmc.process_models import (
    GbmModel,
    GbmParams,
    TreeModel,
    bundled_tree,
    gather_rows,
    scatter_rows,
    simulate_training_paths,
)
from nccmc.stopping_rules import FixedDateRule
from tests.conftest import continuations, full_paths, run_alone, stage_one


def params(**kw):
    base = dict(d=2, r=0.05, delta=0.1, sigma=0.2, K=100.0, y0=90.0, T=3.0, n_dates=10)
    base.update(kw)
    return GbmParams(**base)


# --- single-step arithmetic --------------------------------------------------

def test_step_pure_drift():
    p = params(d=1, sigma=0.0, T=1.0, n_dates=2)
    out = GbmModel(p).step_batch(1, np.array([[100.0]]), np.array([[0.0]]))
    assert out[0, 0] == pytest.approx(100.0 * np.exp(-0.05), rel=1e-12)


def test_step_zero_draw():
    p = params(d=1, r=0.0, delta=0.0, T=1.0, n_dates=2)
    out = GbmModel(p).step_batch(1, np.array([[100.0]]), np.array([[0.0]]))
    assert out[0, 0] == pytest.approx(100.0 * np.exp(-0.02), rel=1e-12)


def test_step_rejects_bad_input():
    m = GbmModel(params(d=1))
    with pytest.raises(ValueError):
        m.step_batch(1, np.array([[np.nan]]), np.array([[0.0]]))
    with pytest.raises(ValueError):
        m.step_batch(1, np.array([[100.0]]), np.array([[np.inf]]))


def test_step_batched_rows_match_single_calls():
    m = GbmModel(params())
    states = np.array([[90.0, 110.0], [100.0, 95.0], [80.0, 80.0]])
    z = np.array([[0.3, -1.1], [0.0, 2.0], [-0.7, 0.4]])
    batch = m.step_batch(1, states, z)
    for k in range(3):
        assert np.array_equal(batch[k], m.step_batch(1, states[k:k + 1], z[k:k + 1])[0])


def test_payoff_in_the_money_undiscounted():
    m = GbmModel(params(r=0.0))
    assert m.payoff_batch(3, np.array([[110.0, 90.0]]))[0] == 10.0


def test_payoff_at_the_money_kink():
    m = GbmModel(params())
    assert m.payoff_batch(2, np.array([[100.0, 80.0]]))[0] == 0.0


def test_payoff_discounted():
    m = GbmModel(params(d=1, T=3.0, n_dates=2))
    val = m.payoff_batch(1, np.array([[120.0]]))[0]
    assert val == pytest.approx(20.0 * np.exp(-0.15), rel=1e-12)


@pytest.mark.parametrize("d", [1, 5])
def test_payoffs_and_steps_follow_the_formulas_at_every_date(d):
    p = params(d=d, r=0.07, delta=0.02, sigma=0.3, n_dates=11)
    model = GbmModel(p)
    gen = np.random.default_rng(3)
    states = 100.0 * np.exp(gen.normal(scale=0.3, size=(50, d)))
    z = gen.normal(size=(50, d))
    dt = p.T / (p.n_dates - 1)
    for j in range(p.n_dates):
        t = np.linspace(0.0, p.T, p.n_dates)[j]
        payoff = float(np.exp(-p.r * t)) * np.maximum(states.max(axis=1) - p.K, 0.0)
        assert np.array_equal(model.payoff_batch(j, states), payoff), j
        if j:
            step = states * np.exp((p.r - p.delta - 0.5 * p.sigma**2) * dt + p.sigma * np.sqrt(dt) * z)
            assert np.array_equal(model.step_batch(j, states, z), step), j


@pytest.mark.parametrize("d", [1, 5])
def test_a_one_date_horizon_keeps_the_step_bits(d):
    # h = 1, given once or per row, is the one-date step to the bit; in a
    # batch of mixed horizons each row steps as it would alone
    p = params(d=d, r=0.07, delta=0.02, sigma=0.3)
    model, n = GbmModel(p), 60
    gen = np.random.default_rng(4)
    states = 100.0 * np.exp(gen.normal(scale=0.3, size=(n, d)))
    z = gen.normal(size=(n, d))
    dt = p.dt
    one = states * np.exp((p.r - p.delta - 0.5 * p.sigma**2) * dt + p.sigma * np.sqrt(dt) * z)
    assert model.step_batch(3, states, z).tobytes() == one.tobytes()
    assert model.step_batch(3, states, z, 1).tobytes() == one.tobytes()
    assert model.step_batch(3, states, z, np.ones(n, dtype=np.int64)).tobytes() == one.tobytes()
    h = np.where(np.arange(n) % 3 == 0, 4, 1)
    mixed = model.step_batch(6, states, z, h)
    assert mixed[h == 1].tobytes() == one[h == 1].tobytes()
    assert mixed[h == 4].tobytes() == model.step_batch(6, states[h == 4], z[h == 4], 4).tobytes()


@pytest.mark.parametrize("h", [2, 5, 8])
@pytest.mark.parametrize("d", [2, 5])
def test_a_jump_has_the_law_of_h_steps(d, h):
    # log(S_j / S_{j-h}) of one jump over h dates, on the package's own
    # normals: mean drift h and variance sigma^2 h dt, the law of h exact
    # one-date steps.  Over m = n d independent log returns the sample
    # mean's standard error is sqrt(var / m) and a normal sample
    # variance's is var sqrt(2 / (m - 1))
    p = params(d=d, sigma=0.3)
    model, n = GbmModel(p), 40_000
    words = np.ascontiguousarray(model.draw(3, rng.NS_TESTING, rng.SUB, h, 0, n))
    states = 100.0 * np.exp(np.random.default_rng(h).normal(scale=0.3, size=(n, d)))
    x = np.log(model.step_batch(p.J, states, model.variates(words), h) / states)
    mean = (p.r - p.delta - 0.5 * p.sigma**2) * h * p.dt
    var = p.sigma**2 * h * p.dt
    m = x.size
    assert abs(x.mean() - mean) < 4 * np.sqrt(var / m)
    assert abs(x.var(ddof=1) - var) < 4 * var * np.sqrt(2 / (m - 1))


def test_payoff_rejects_nonfinite():
    with pytest.raises(ValueError):
        GbmModel(params()).payoff_batch(0, np.array([[np.nan, 1.0]]))


# --- full paths and continuations ---------------------------------------------

def test_full_path_deterministic():
    p = params()
    a = full_paths(simulate_training_paths(p, 5, 5))
    b = full_paths(simulate_training_paths(p, 5, 5))
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


@pytest.mark.parametrize("n_dates", [2, 3, 4, 10, 11])
@pytest.mark.parametrize("d", [1, 2, 5])
def test_training_paths_equal_a_full_forward_simulation(d, n_dates):
    # kept dates, stepped dates and final payoffs: the bits of every date of
    # every path simulated forward in one batch, path p on point p of each
    # date's training TRUNK stream
    p = params(d=d, n_dates=n_dates)
    model, n, seed = GbmModel(p), 300, 13
    bundle = simulate_training_paths(p, n, seed)
    assert bundle.kept.shape == (n, (p.J - 1) // 2, d)
    states = np.full((n, d), p.y0)
    for j in range(p.J + 1):
        if j:
            words = model.draw(seed, rng.NS_TRAINING, rng.TRUNK, 0, j, n)
            states = model.step_batch(j, states, model.variates(np.ascontiguousarray(words)))
        if j < p.J:
            assert np.array_equal(bundle.states(j), states), j
    assert np.array_equal(bundle.final, model.payoff_batch(p.J, states))


def test_full_path_zero_vol_closed_form():
    p = params(sigma=0.0)
    assets, payoffs = full_paths(simulate_training_paths(p, 3, 5))
    growth = np.exp((p.r - p.delta) * p.dates)
    for path in range(3):
        assert np.allclose(assets[path, :, 0], p.y0 * growth, rtol=1e-12)
        expected = np.exp(-p.r * p.dates) * np.maximum(p.y0 * growth - p.K, 0.0)
        assert np.allclose(payoffs[path], expected, rtol=1e-12)


def test_stored_payoffs_recomputable():
    p = params()
    assets, payoffs = full_paths(simulate_training_paths(p, 4, 8))
    for j in range(p.n_dates):
        assert np.array_equal(payoffs[:, j], GbmModel(p).payoff_batch(j, assets[:, j]))


def test_training_batch_matches_per_path_streams(monkeypatch):
    # stage one run alone on path p, holding to maturity, in the training
    # namespace, ends where the training batch's path p does when its lane
    # steps every date (a GBM that jumps would reach J in one step)
    p = params()
    model = stepping(p)
    hold = FixedDateRule(p.J)
    assets, payoffs = full_paths(simulate_training_paths(p, 7, 21))
    monkeypatch.setattr(nested_cmc, "NS_TESTING", rng.NS_TRAINING)
    for path in (0, 3, 6):
        _, xw, resume, _, _ = run_alone(model, hold, 21, path, 1)
        assert np.array_equal(resume[0], assets[path, p.J])
        assert xw[0] == payoffs[path, p.J]


def stepping(p):
    """A GbmModel on p that does not jump: its lanes step every date."""
    model = GbmModel(p)
    model.jumps = False
    return model


def continuation_payoffs(p, tau, state, R, seed, model=None):
    """Maturity payoffs of R stage-two continuations of one trunk frozen at tau.

    The surviving rule holds to maturity; with S = -1 and x_wedge 0 each
    replication value is minus its discounted maturity payoff.  Each lane
    of a GBM that jumps (the default model) reaches J in one step, charged
    once; one of a model that does not steps every date.
    """
    model = model or GbmModel(p)
    vals, steps, _ = continuations(
        model, FixedDateRule(0), FixedDateRule(p.J), seed,
        [0], np.array([tau]), np.array([-1], dtype=np.int8), np.array([0.0]),
        np.asarray(state, dtype=float)[None], R)
    assert steps == R * (p.J - tau if not model.jumps else 1) * p.d
    return -vals[0]


def test_continuation_zero_vol_matches_full_path_tail():
    # jumped to maturity or stepped there
    p = params(sigma=0.0, y0=150.0)
    assets, payoffs = full_paths(simulate_training_paths(p, 1, 5))
    assert payoffs[0, p.J] > 0
    for model in (GbmModel(p), stepping(p)):
        pays = continuation_payoffs(p, 4, assets[0, 4], 3, seed=5, model=model)
        assert np.allclose(pays, payoffs[0, p.J], rtol=1e-12)


def test_continuations_distinct_across_replications():
    p = params(K=1e-9)  # every payoff positive, so no ties at zero
    for model in (GbmModel(p), stepping(p)):
        pays = continuation_payoffs(p, 3, [95.0, 101.0], 50, seed=5, model=model)
        assert np.unique(pays).size == 50


def test_continuation_from_maturity_rejected(d2_params, small_rule_pair):
    # both rules stop at J, so a trunk that reaches it always has S = 0 and
    # stage two never resumes a path there
    A, B = small_rule_pair
    tau, sign, *_ = stage_one(GbmModel(d2_params), A, B, 12, 0, 4000)
    assert np.any(tau == d2_params.J)
    assert np.all(sign[tau == d2_params.J] == 0)
    assert np.count_nonzero(sign) > 0


def test_pooled_continuations_have_gbm_mean():
    # with a strike of ~0 the maturity payoff is linear in the asset
    p = params(d=1, K=1e-9)
    horizon = p.T - p.dates[4]
    expected = np.exp(-p.r * p.T) * (105.0 * np.exp((p.r - p.delta) * horizon) - p.K)
    for model in (GbmModel(p), stepping(p)):
        pays = continuation_payoffs(p, 4, [105.0], 3000, seed=77, model=model)
        se = pays.std(ddof=1) / np.sqrt(len(pays))
        assert abs(pays.mean() - expected) < 3 * se


def test_jumped_and_stepped_lanes_price_alike():
    # 40 frozen trunk states, each continued R times to maturity by lanes
    # that jump there and by lanes that step there: the two mean discounted
    # maturity payoffs agree within 4 combined standard errors.  Given the
    # frozen states every replication is independent, so a mean over them
    # has variance mean_k(var_k) / (n R), var_k trunk k's sample variance
    p = params()
    n, R = 40, 500
    gen = np.random.default_rng(11)
    tau = gen.integers(0, p.J - 1, size=n)  # every lane jumps two dates or more
    resume = 90.0 * np.exp(gen.normal(scale=0.2, size=(n, p.d)))
    means, variances = [], []
    for model in (GbmModel(p), stepping(p)):
        vals, steps, _ = continuations(model, FixedDateRule(0), FixedDateRule(p.J), 9, np.arange(n), tau,
                                       np.full(n, -1, dtype=np.int8), np.zeros(n), resume, R)
        assert steps == R * (n if model.jumps else int(np.sum(p.J - tau))) * p.d
        means.append(-vals.mean())
        variances.append(vals.var(axis=1, ddof=1).mean() / vals.size)
    assert abs(means[0] - means[1]) < 4 * np.sqrt(sum(variances))


# --- parameter validation ------------------------------------------------------

def test_params_validation():
    with pytest.raises(ValueError):
        params(d=0)
    with pytest.raises(ValueError):
        params(n_dates=1)
    with pytest.raises(ValueError):
        params(T=0.0)
    with pytest.raises(ValueError):
        params(sigma=-0.1)
    with pytest.raises(ValueError):
        params(r=np.inf)


def test_training_needs_at_least_one_path():
    with pytest.raises(ValueError, match="n must be >= 1"):
        simulate_training_paths(params(), 0, 5)


def test_date_grid_inclusive_uniform():
    p = params()
    assert p.dates[0] == 0.0
    assert p.dates[-1] == p.T
    assert np.allclose(np.diff(p.dates), p.dt)
    assert p.J == 9


def test_model_adapter_consistency():
    p = params()
    m = GbmModel(p)
    states = m.init_states(4)
    assert states.shape == (4, 2) and np.all(states == p.y0)
    assert m.step_units == p.d


# --- tree fixtures ---------------------------------------------------------------

def test_tree_validation():
    with pytest.raises(ValueError):
        TreeModel({"root": {"payoff": 1.0, "children": [
            {"prob": 0.6, "payoff": 1.0}, {"prob": 0.5, "payoff": 2.0}]}})
    with pytest.raises(ValueError):
        TreeModel({"root": {"payoff": 1.0, "children": [
            {"prob": 0.5, "payoff": 1.0},
            {"prob": 0.5, "payoff": 2.0, "children": [
                {"prob": 1.0, "payoff": 0.0}]}]}})
    with pytest.raises(ValueError):
        TreeModel({"root": {"payoff": 1.0}})
    with pytest.raises(ValueError, match="negative branch probability at node 'root'"):
        TreeModel({"root": {"payoff": 1.0, "children": [
            {"prob": 1.5, "payoff": 1.0}, {"prob": -0.5, "payoff": 2.0}]}})


@pytest.mark.parametrize("doc", [
    {"payoff": 1.0, "children": [{"prob": 1.0, "payoff": 0.0}]},
    {"tree": {"payoff": 1.0, "children": [{"prob": 1.0, "payoff": 0.0}]}},
    [{"payoff": 1.0, "children": [{"prob": 1.0, "payoff": 0.0}]}],
], ids=["bare-root-node", "no-root-key", "not-an-object"])
def test_tree_document_needs_a_top_level_root(doc):
    with pytest.raises(ValueError, match="top-level 'root'"):
        TreeModel(doc)


def test_bundled_trees_load():
    t1 = bundled_tree("tree_1period")
    t2 = bundled_tree("tree_2period")
    assert t1.J == 1 and t2.J == 2
    # labels number the nodes in preorder
    assert t2.label_to_id == {"root": 0, "0": 1, "0/0": 2, "0/1": 3, "1": 4, "1/0": 5, "1/1": 6}
    with pytest.raises(FileNotFoundError):
        bundled_tree("no_such_tree")


def test_draw_returns_raw_words(tree2):
    # both families draw the same raw words, one row of draw_width per point;
    # only variates turns them into the noise step_batch takes
    for model in (GbmModel(params(d=5)), GbmModel(params(d=2)), tree2):
        index, n_points, first_point = np.array([4, 9]), np.array([3, 5]), np.array([0, 7])
        words = model.draw(3, rng.NS_TESTING, rng.SUB, index, 0, n_points, first_point=first_point)
        assert words.dtype == np.uint64 and words.shape == (8, model.draw_width)
        assert np.array_equal(words, rng.raw_words(3, rng.NS_TESTING, rng.SUB, index, 0, n_points,
                                                   model.draw_width, first_point=first_point))


def test_draws_have_a_contiguous_last_axis(tree2):
    # the lane kernel gathers noise rows as records, which needs each row's
    # words side by side; one request (Philox's own buffer) and a batch
    for model in [GbmModel(params(d=d)) for d in range(1, 7)] + [tree2]:
        one = model.draw(3, rng.NS_TESTING, rng.TRUNK, 0, 1, 7, first_point=2)
        batch = model.draw(3, rng.NS_TESTING, rng.SUB, np.array([4, 9]), 0, np.array([3, 5]),
                           first_point=np.array([0, 7]))
        for words in (one, batch):
            assert words.ndim == 2 and words.strides[1] == words.itemsize


def test_tree_branch_frequencies(tree2):
    m = tree2
    states = m.init_states(40_000)
    u = m.variates(m.draw(13, rng.NS_TESTING, rng.TRUNK, 0, 1, 40_000))
    stepped = m.step_batch(1, states, u)
    frac_high = np.mean(stepped == m.label_to_id["0"])
    assert abs(frac_high - 0.6) < 3 * np.sqrt(0.6 * 0.4 / 40_000)


def test_tree_top_uniform_reaches_the_last_child_of_the_widest_node():
    # ten children of 0.1: their cumulative sum rounds to 1 - 2^-53, below
    # the largest uniform, 1 - 2^-54, which must still pick child 9
    tenth = [{"prob": 0.1, "payoff": float(k)} for k in range(10)]
    m = TreeModel({"root": {"payoff": 0.0, "children": [
        {"prob": 0.5, "payoff": 0.0, "children": tenth},
        {"prob": 0.5, "payoff": 0.0, "children": [{"prob": 1.0, "payoff": 1.0}]}]}})
    assert np.cumsum([0.1] * 10)[-1] < 1.0 - 2.0**-54
    top = rng.to_uniforms(np.array([2**64 - 1], dtype=np.uint64))[0]
    assert top == 1.0 - 2.0**-54
    ids = m.label_to_id
    states = np.array([ids["0"], ids["0"], ids["0"], ids["1"], ids["root"]])
    u = np.array([top, np.nextafter(0.9, 1.0), 0.05, top, top])
    assert m.step_batch(1, states, u).tolist() == [ids[lab] for lab in ("0/9", "0/9", "0/0", "1/0", "1")]
    assert m.children(ids["0"]).tolist() == [ids[f"0/{k}"] for k in range(10)]
    assert m.branch_probs(ids["0"]) == pytest.approx([0.1] * 10, abs=1e-15)
    assert m.children(ids["0/3"]).size == 0 and m.branch_probs(ids["0/3"]).size == 0


def test_tree_payoffs_attached_to_nodes(tree2):
    m = tree2
    node = m.label_to_id["1/0"]
    assert m.payoff_batch(2, np.array([node]))[0] == 2.0


# --- rows as records -------------------------------------------------------------

def _bits(n, d, seed):
    """(n, d) float64 of random bit patterns, with NaN payloads and signed zeros."""
    gen = np.random.default_rng(seed)
    a = gen.integers(0, 2**64, size=(n, d), dtype=np.uint64, endpoint=False).view(np.float64)
    a.flat[::5] = -0.0
    a.flat[1::7] = 0.0
    bits = a.view(np.uint64)
    bits.flat[2::6] = 0x7FF8000000000001  # quiet NaN with a payload
    bits.flat[3::11] = 0xFFF0000000000123  # signalling NaN, sign bit set
    return a


def _row_arrays():
    n = 23
    arrays = {f"float64 d={d}": _bits(n, d, d) for d in range(1, 7)}
    arrays["int64 tree states"] = np.random.default_rng(7).integers(0, 9, size=n)
    for w in range(1, 7):
        # raw_words' views of whole-counter rows: (n, 4)[:, :w] or (n, 8)[:, :w]
        arrays[f"noise width {w}"] = rng.raw_words(5, rng.NS_TESTING, rng.TRUNK, 0, 1, n, w)
    pool = np.stack([_bits(n, 3, 11), _bits(n, 3, 12), _bits(n, 3, 13)], axis=1)
    arrays["row-strided (n, 3, 3)[:, 1]"] = pool[:, 1]
    return arrays


_ROW_INDICES = {
    "empty": np.array([], dtype=np.intp),
    "all": np.arange(23),
    "unsorted": np.array([17, 2, 22, 0, 9, 4]),
    "repeated": np.array([3, 3, 0, 3, 22, 0]),
    "mask": np.arange(23) % 3 != 1,
}


def _same_layout(a):
    """A copy of a that keeps a's row stride: columns past a's own stay zero."""
    if a.ndim == 1:
        return (a.copy(),) * 2
    wide = np.zeros((len(a), a.strides[0] // a.itemsize), a.dtype)
    wide[:, :a.shape[1]] = a
    return wide, wide[:, :a.shape[1]]


@pytest.mark.parametrize("rows", _ROW_INDICES.values(), ids=_ROW_INDICES.keys())
@pytest.mark.parametrize("name", _row_arrays().keys())
def test_rows_move_as_records_with_the_bytes_of_fancy_indexing(name, rows):
    a = _row_arrays()[name]
    got = gather_rows(a, rows)
    want = a[rows]
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()

    if a.dtype == np.float64:
        values = _bits(len(want), a.shape[1], 4)
    else:
        values = np.random.default_rng(4).integers(0, 2**62, size=want.shape).astype(a.dtype)
    # into a's own layout, row stride included, as into a kept training date
    (fancy_all, fancy), (records_all, records) = _same_layout(a), _same_layout(a)
    fancy[rows] = values
    scatter_rows(records, rows, values)
    assert records_all.tobytes() == fancy_all.tobytes()


def test_row_records_need_a_contiguous_last_axis():
    a = np.arange(24.0).reshape(6, 4)
    with pytest.raises(ValueError):
        gather_rows(a[:, ::2], [0, 1])
    with pytest.raises(ValueError):
        scatter_rows(a[:, ::2], [0, 1], np.zeros((2, 2)))
    with pytest.raises(ValueError):
        scatter_rows(a, [0, 1], np.zeros((2, 8))[:, ::2])
    # a record assignment would cast, pad or cut these bytes, so they are refused
    with pytest.raises(ValueError):
        scatter_rows(a, [0, 1], np.zeros((2, 4), dtype=np.float32))
    with pytest.raises(ValueError):
        scatter_rows(a, [0, 1], np.zeros((2, 3)))
