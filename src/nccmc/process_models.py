"""Discrete-time models the estimators run on.

Two model families share one driver interface: multi-asset geometric Brownian
motion with a discounted max-call payoff (the benchmark family), and small
enumerable Markov trees used as exact test fixtures.  A model exposes

    J           index of the final date (dates are 0..J)
    step_units  work units charged per path per simulated date
    draw_width  variates per point of the model's noise
    init_states(n)                  states at date 0 for n paths
    payoff_batch(j, states)         payoff of each state at date j, a float array
    draw(seed, ns, cls, index, date, n, first_point)   driver noise: the raw
                    words (uint64, one row of draw_width per point) of points
                    [first_point, first_point + n) of stream index; index, n and
                    first_point may be equal-length arrays, one request each,
                    whose rows come back concatenated in request order
    variates(words)                 draw's words as the variates step_batch
                    takes (normals or uniforms), converted in place
    step_batch(j, states, draws)    advance states from date j-1 to date j
    jumps       whether step_batch(j, states, draws, h) advances states from
                date j-h to date j in one step, on one point of noise (h one
                horizon or one per row); a GBM's transition is exact over any
                horizon, a tree's k-date transition needs k draws

States are row-indexed numpy arrays so the engine can scatter and gather
paths freely; the streams module guarantees that path ``p`` sees the same
noise whether it is simulated alone or inside any batch, so a caller may
convert only the rows it steps.  ``gather_rows`` and ``scatter_rows`` move
the rows of a state, noise or basis array each as one fixed-size record:
the bytes fancy indexing moves, element by element, at a fraction of its
cost.  A model's dynamics live in its methods only: training paths step a
GbmModel with the calls stage one makes, so training and both stages run
one process.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import rng


def _records(a: np.ndarray) -> np.ndarray:
    """A 1-D view of a 2-D array's rows, one void record per row.

    numpy raises ValueError unless the last axis is contiguous (a
    row stride of its own is fine).
    """
    return a.view(np.dtype((np.void, a.itemsize * a.shape[1])))[:, 0]


def gather_rows(a: np.ndarray, rows) -> np.ndarray:
    """a[rows] as a new C-contiguous array, the same bytes, each row copied as one record.

    ``rows`` is an integer or boolean index of a's first axis.  A 1-D ``a``
    is indexed as it is; a 2-D one needs a contiguous last axis, else
    ValueError.  numpy's fancy indexing walks each row's elements through
    its general iterator; a 1-D index over records copies a row at once.
    """
    if a.ndim == 1:
        return a[rows]
    return _records(a)[rows].view(a.dtype).reshape(-1, a.shape[1])


def scatter_rows(a: np.ndarray, rows, values: np.ndarray) -> None:
    """a[rows] = values, the same bytes, each row written as one record.

    As ``gather_rows``; a 2-D ``values`` must also match a's dtype and row
    length (a record assignment would silently cast or pad bytes).
    """
    if a.ndim == 1:
        a[rows] = values
        return
    if values.dtype != a.dtype or values.shape[1:] != a.shape[1:]:
        raise ValueError(f"rows of {values.dtype} {values.shape} do not fit rows of {a.dtype} {a.shape}")
    _records(a)[rows] = _records(values)


@dataclass(frozen=True, slots=True)
class GbmParams:
    """Market and contract parameters for the max-call benchmark.

    Assets are independent geometric Brownian motions under the pricing
    measure: drift r - delta, volatility sigma, all started at y0.  Exercise
    dates are the uniform grid t_j = j * T / (n_dates - 1), j = 0..n_dates-1,
    and the date-j payoff is exp(-r t_j) * max(max_d y_d - K, 0).
    """

    d: int
    r: float
    delta: float
    sigma: float
    K: float
    y0: float
    T: float
    n_dates: int

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if self.n_dates < 2:
            raise ValueError("need at least two exercise dates")
        if not (self.T > 0 and self.K > 0 and self.y0 > 0):
            raise ValueError("T, K, y0 must be positive")
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")
        for name in ("r", "delta", "sigma", "K", "y0", "T"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    @property
    def J(self) -> int:
        return self.n_dates - 1

    @property
    def dt(self) -> float:
        return self.T / self.J

    @property
    def dates(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.n_dates)


@dataclass(frozen=True, slots=True)
class TrainingPaths:
    """Training paths, kept at their dates 2, 4, ... below J, and their final payoffs.

    Every path starts at y0.  An odd date is not kept (nor date J's states,
    which no fit reads): ``states`` steps it from the date before with that
    date's training noise, the bits simulate_training_paths stepped
    (checkpointing for a reverse sweep, after Griewank & Walther's Revolve).
    """

    model: GbmModel
    seed: int
    kept: np.ndarray  # (n, (J - 1) // 2, d): dates 2, 4, ... below J
    final: np.ndarray  # (n,): the payoffs at date J

    @property
    def n(self) -> int:
        return len(self.final)

    def states(self, j: int) -> np.ndarray:
        """The (n, d) states at date j < J: a view of a kept date, else stepped."""
        if j == 0:
            return self.model.init_states(self.n)
        if j % 2 == 0:
            return self.kept[:, j // 2 - 1]
        return _training_step(self.model, self.seed, j, self.states(j - 1))


def _draw(self, seed: int, namespace: int, stream_class: int, index, date: int,
          n_points, first_point=0) -> np.ndarray:
    return rng.raw_words(seed, namespace, stream_class, index, date, n_points, self.draw_width, first_point)


class GbmModel:
    """The GBM max-call family; states are (n, d) arrays of asset values."""

    def __init__(self, params: GbmParams):
        self.params = params
        self.J = params.J
        self.step_units = params.d
        self.draw_width = params.d
        self.jumps = True
        # once per model, each by the scalar expression of the formulas above
        self._discounts = [float(np.exp(-params.r * t)) for t in params.dates]
        self._drift = (params.r - params.delta - 0.5 * params.sigma**2) * params.dt
        self._vol = params.sigma * np.sqrt(params.dt)

    def init_states(self, n: int) -> np.ndarray:
        return np.full((n, self.params.d), self.params.y0, dtype=float)

    def payoff_batch(self, j: int, states: np.ndarray) -> np.ndarray:
        """Discounted max-call payoff of each row at date j."""
        assets = np.asarray(states, dtype=float)
        if not np.all(np.isfinite(assets)):
            raise ValueError("non-finite asset values")
        # column by column: far faster than a reduction over a short inner axis,
        # and the same bits (the maximum is exact, and NaN was rejected above)
        best = assets[..., 0]
        for k in range(1, assets.shape[-1]):
            best = np.maximum(best, assets[..., k])
        return self._discounts[j] * np.maximum(best - self.params.K, 0.0)

    draw = _draw

    def variates(self, words: np.ndarray) -> np.ndarray:
        return rng.to_normals(words)

    def step_batch(self, j: int, states: np.ndarray, draws: np.ndarray, h=1) -> np.ndarray:
        """Exact GBM transition from date j-h to date j, one normal per asset.

        ``h`` is one horizon in dates or one per row.  Over h dates the log
        price moves by drift h + sigma sqrt(h dt) z; at h = 1 everywhere
        that is the one-date step, by its own coefficients.
        """
        assets = np.asarray(states, dtype=float)
        z = np.asarray(draws, dtype=float)
        if not (np.all(np.isfinite(assets)) and np.all(np.isfinite(z))):
            raise ValueError("non-finite inputs to step_batch")
        vol, drift = self._vol, self._drift
        if np.any(np.not_equal(h, 1)):
            h = np.reshape(h, (-1, 1))
            vol, drift = self.params.sigma * np.sqrt(h * self.params.dt), self._drift * h
        # assets * exp(drift + vol z) in one temporary, the same bits
        g = np.multiply(vol, z)
        g += drift
        np.exp(g, out=g)
        return np.multiply(assets, g, out=g)


def _training_step(model: GbmModel, seed: int, j: int, states: np.ndarray) -> np.ndarray:
    # path p takes point p of date j's TRUNK stream, copied contiguous to convert fast
    words = np.ascontiguousarray(model.draw(seed, rng.NS_TRAINING, rng.TRUNK, 0, j, len(states)))
    return model.step_batch(j, states, model.variates(words))


def simulate_training_paths(params: GbmParams, n: int, seed: int) -> TrainingPaths:
    """Simulate n paths in one batch, in the training namespace, as TrainingPaths.

    Steps a GbmModel with the calls stage one makes: path p draws point p of
    each date's TRUNK stream, the noise stage one would give its path p under
    that seed in the training namespace.  A date below J whose prices reach
    2^511 y0, where the squares of a fit's scaled prices would overflow,
    raises ValueError before any fit runs.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    model = GbmModel(params)
    kept = np.empty((n, (model.J - 1) // 2, params.d))
    states = model.init_states(n)
    for j in range(1, model.J + 1):
        states = _training_step(model, seed, j, states)
        if j < model.J and not states.max() / params.y0 < 2.0**511:
            raise ValueError(f"training prices at date {j} reach {states.max() / params.y0:.3g} y0: "
                             "their squares overflow the regression basis")
        if j % 2 == 0 and j < model.J:
            kept[:, j // 2 - 1] = states
    return TrainingPaths(model, seed, kept, model.payoff_batch(model.J, states))


class TreeModel:
    """A finite Markov tree with a payoff at every node, built from a parsed
    tree JSON document ``{"root": node}``.

    All leaves must sit at the same depth J so the payoff is defined at every
    date along every path.  Nodes are numbered in depth-first preorder, so a
    node's children come after it; the human-readable label of a node is its
    path of child indices joined by '/', with the root labelled 'root', and
    ``label_to_id`` maps each label to its node, in preorder.
    ``depths`` and ``n_children`` are per-node arrays, and the branching is
    one pair of tables, row i for node i: the children's cumulative
    probabilities, padded with 1.0, and their ids, padded with the last child
    to one column past the widest node, where a uniform above a sum that
    rounded below 1 lands.
    """

    def __init__(self, document: dict):
        if not isinstance(document, dict) or "root" not in document:
            raise ValueError("a tree document is an object with a top-level 'root'")
        payoffs: list[float] = []
        depths: list[int] = []
        label_to_id: dict[str, int] = {}
        branches: list[tuple[list[int], np.ndarray]] = []

        def number(node, label: str, key: str) -> float:
            try:
                x = float(node[key])
            except (KeyError, TypeError, ValueError):
                x = math.nan
            if not math.isfinite(x):
                raise ValueError(f"tree node '{label}' is not an object with a finite '{key}'")
            return x

        def add(node: dict, depth: int, label: str) -> int:
            nid = len(payoffs)
            payoffs.append(number(node, label, "payoff"))
            depths.append(depth)
            label_to_id[label] = nid
            branches.append(([], np.empty(0)))
            children = node.get("children", [])
            if not isinstance(children, list):
                raise ValueError(f"children of tree node '{label}' are not a list")
            if children:
                subs = [f"{label}/{k}" if label != "root" else str(k) for k in range(len(children))]
                probs = np.array([number(c, sub, "prob") for c, sub in zip(children, subs)])
                if np.any(probs < 0):
                    raise ValueError(f"negative branch probability at node '{label}'")
                if abs(probs.sum() - 1.0) > 1e-12:
                    raise ValueError(f"branch probabilities at node '{label}' sum to {float(probs.sum())}")
                branches[nid] = ([add(c, depth + 1, sub) for c, sub in zip(children, subs)], np.cumsum(probs))
            return nid

        add(document["root"], 0, "root")

        self.n_nodes = len(payoffs)
        self.payoffs = np.array(payoffs)
        self.label_to_id = label_to_id
        self.depths = np.array(depths)
        self.n_children = np.array([len(ids) for ids, _ in branches])

        leaf_depths = set(self.depths[self.n_children == 0].tolist())
        if len(leaf_depths) != 1:
            raise ValueError(f"all leaves must share one depth, got {sorted(leaf_depths)}")
        self.J = leaf_depths.pop()
        if self.J < 1:
            raise ValueError("tree must have at least one transition")
        self.step_units = 1
        self.draw_width = 1
        self.jumps = False

        maxb = int(self.n_children.max())
        self._cum_table = np.ones((self.n_nodes, maxb))
        self._id_table = np.zeros((self.n_nodes, maxb + 1), dtype=np.int64)
        for i, (ids, cum) in enumerate(branches):
            if ids:
                self._cum_table[i, : len(ids)] = cum
                self._id_table[i, : len(ids)] = ids
                self._id_table[i, len(ids):] = ids[-1]

    def children(self, node: int) -> np.ndarray:
        return self._id_table[node, : self.n_children[node]]

    def branch_probs(self, node: int) -> np.ndarray:
        return np.diff(self._cum_table[node, : self.n_children[node]], prepend=0.0)

    def init_states(self, n: int) -> np.ndarray:
        return np.zeros(n, dtype=np.int64)

    def payoff_batch(self, j: int, states: np.ndarray) -> np.ndarray:
        return self.payoffs[states]

    draw = _draw

    def variates(self, words: np.ndarray) -> np.ndarray:
        return rng.to_uniforms(words)

    def step_batch(self, j: int, states: np.ndarray, draws: np.ndarray) -> np.ndarray:
        u = np.asarray(draws).reshape(-1, 1)
        pick = (u > self._cum_table[states]).sum(axis=1)
        return self._id_table[states, pick]


def bundled_tree(name: str) -> TreeModel:
    """Load one of the tree fixtures shipped with the package.

    Available: 'tree_1period', 'tree_2period'.
    """
    from importlib import resources

    ref = resources.files("nccmc").joinpath("data", f"{name}.json")
    return TreeModel(json.loads(ref.read_text()))
