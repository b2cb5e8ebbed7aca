"""Stopping rules and their training.

A stopping rule maps (date, state, payoff) to a stop/continue decision.  The
engine only consults rules at dates 0..J-1 and stops everything at J, so a
rule never has to special-case maturity, though all but the fixed-date
rule guard it anyway.

Rules carry an ``eval_cost``: the number of elementary predictor evaluations
one decision costs.  Fixed-date rules cost nothing, a committee of M
regression members costs M.  The work meters in the engine charge rule
evaluations at a tenth of a simulation unit each.

Every trained rule is one type, ``CommitteeRule``: it stops when the
immediate payoff is at least the median of its members' predicted
continuation values plus its shifts (ties stop).  One exception: a zero
payoff never stops against a strictly negative threshold.  Far out of the
money the quadratic fit routinely dips below zero while the true
continuation value is merely small, and cashing out a worthless position on
that artifact would distort stopping times badly.  Each member is a
value-iteration regression (Tsitsiklis-Van Roy style): backward induction
where the date-j continuation value is the least-squares projection of the
date-(j+1) value onto a fixed polynomial basis.  ``train_tvr`` fits one
member on all paths, a ``RegressionRule``; ``train_committee`` bags members
over bootstrap resamples, and the median keeps them from collapsing into
one linear predictor.  ``shift_rule`` moves a rule's threshold by a
constant: the shift is a field of the rule, not a wrapper around it.
"""

from __future__ import annotations

import copy
import math

import numpy as np

from .process_models import GbmParams, TrainingPaths, TreeModel
from .rng import derive_seed


def basis_size(d: int) -> int:
    return 2 + d + d * (d + 1) // 2


def basis_matrix(assets: np.ndarray, payoffs: np.ndarray, y0: float) -> np.ndarray:
    """Regression features: 1, scaled prices, scaled second moments, payoff.

    Columns: constant, Y_a / y0 for each asset, Y_a Y_b / y0^2 for a <= b,
    and the current payoff / y0.
    """
    assets = np.asarray(assets, dtype=float)
    n, d = assets.shape
    out = np.empty((n, basis_size(d)))
    out[:, 0] = 1.0
    ys = assets / y0
    out[:, 1 : 1 + d] = ys
    col = 1 + d
    for a in range(d):
        for b in range(a, d):
            out[:, col] = ys[:, a] * ys[:, b]
            col += 1
    out[:, col] = np.asarray(payoffs, dtype=float) / y0
    return out


class StoppingRule:
    """Base interface: batched decisions plus a per-decision cost."""

    eval_cost: int = 0

    def decide_batch(self, j: int, states: np.ndarray, payoffs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def decide(self, j: int, state, payoff: float) -> bool:
        states = np.asarray(state)[None] if np.ndim(state) else np.asarray([state])
        return bool(self.decide_batch(j, states, np.asarray([payoff]))[0])


class FixedDateRule(StoppingRule):
    """Stops at the first date >= stop_from, regardless of state."""

    eval_cost = 0

    def __init__(self, stop_from: int):
        if stop_from < 0:
            raise ValueError("stop_from must be >= 0")
        self.stop_from = stop_from

    def decide_batch(self, j: int, states: np.ndarray, payoffs: np.ndarray) -> np.ndarray:
        return np.full(len(payoffs), j >= self.stop_from)


def _stop_mask(pay: np.ndarray, threshold: np.ndarray) -> np.ndarray:
    stop = pay >= threshold
    # never stop a worthless position on a strictly negative prediction:
    # out of the money the fit extrapolates, and its sign there is noise
    stop &= (pay > 0.0) | (threshold >= 0.0)
    return stop


# Members per prediction block of a committee decision.  Counts are integer
# sums, so the block size changes memory and speed, never a decision.
_MEMBER_BLOCK = 64

# Rows whose predictions may exceed half the largest double go to the exact
# median: an even committee's median adds two of them, which could overflow.
# A quarter leaves room for the rounding of the bound itself.
_PRED_LIMIT = np.finfo(float).max / 4


def _member_blocks(M: int) -> list[slice]:
    # near-equal blocks, none of a single member (M >= 2 here): a one-column
    # product runs through BLAS's matrix-vector kernel, which rounds
    # differently from the matrix-matrix kernel of the whole committee
    nb = -(-M // _MEMBER_BLOCK)
    edges = [M * i // nb for i in range(nb + 1)]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


class CommitteeRule(StoppingRule):
    """Stops when the payoff reaches the median member prediction plus shifts.

    member_coeffs has shape (M, J, B); ``shifts`` are added to the median in
    order, one rounded addition each.  Every decision evaluates all M
    members, so eval_cost is M.  ``prefix(m)`` views the first m members as
    their own committee, sharing the coefficient storage, which the
    multilevel estimator relies on for coupling.

    One member's prediction is its own median.  More members are counted,
    not sorted: per block of members, each row tallies the shifted
    predictions at or below its payoff and below zero.  With k = M // 2,
    more than k predictions at or below the payoff put the median there
    too, and fewer than k + M % 2 put it above; likewise for zero (a shift
    is monotone in floating point).  So the counts decide every row of an
    odd committee.  Rows with a count of exactly k in an even one, and rows
    whose predictions might not be finite or might overflow when two are
    averaged, take the exact median.  Decisions equal the median rule's bit
    for bit.
    """

    def __init__(self, member_coeffs: np.ndarray, y0: float, d: int, shifts: tuple[float, ...] = ()):
        member_coeffs = np.asarray(member_coeffs, dtype=float)
        if member_coeffs.ndim != 3 or member_coeffs.shape[2] != basis_size(d):
            raise ValueError("coefficient array must be (M, J, basis_size(d))")
        if member_coeffs.shape[0] < 1:
            raise ValueError("committee needs at least one member")
        self.member_coeffs = member_coeffs
        self.y0 = float(y0)
        self.d = int(d)
        self.shifts = tuple(shifts)
        self.n_dates = member_coeffs.shape[1] + 1
        self.eval_cost = member_coeffs.shape[0]

    @property
    def members(self) -> int:
        return self.member_coeffs.shape[0]

    def prefix(self, m: int) -> "CommitteeRule":
        if not 1 <= m <= self.members:
            raise ValueError(f"prefix size {m} outside 1..{self.members}")
        return CommitteeRule(self.member_coeffs[:m], self.y0, self.d, self.shifts)

    def continuation_batch(self, j: int, states: np.ndarray, payoffs: np.ndarray) -> np.ndarray:
        """The stop threshold of each row: median prediction plus the shifts."""
        A = basis_matrix(states, payoffs, self.y0)
        if self.members == 1:
            thr = A @ self.member_coeffs[0, j]
        else:
            thr = np.median(A @ self.member_coeffs[:, j, :].T, axis=1)
        for eps in self.shifts:
            thr = thr + eps
        return thr

    def decide_batch(self, j: int, states: np.ndarray, payoffs: np.ndarray) -> np.ndarray:
        pay = np.asarray(payoffs)
        n = len(pay)
        if j >= self.n_dates - 1:
            return np.ones(n, dtype=bool)
        if self.members == 1 or n < 2:
            # nothing to count; a lone row's exact median is a matrix-vector product
            return _stop_mask(pay, self.continuation_batch(j, states, pay))
        A = basis_matrix(states, pay, self.y0)
        coeffs = self.member_coeffs[:, j, :]
        le = np.zeros(n, dtype=np.intp)
        neg = np.zeros(n, dtype=np.intp)
        col = pay[:, None]
        for blk in _member_blocks(self.members):
            preds = A @ coeffs[blk].T
            for eps in self.shifts:
                preds = preds + eps
            le += np.count_nonzero(preds <= col, axis=1)
            neg += np.count_nonzero(preds < 0.0, axis=1)
        k, odd = divmod(self.members, 2)
        stop = (le > k) & ((pay > 0.0) | (neg < k + odd))
        # |A_i . c| <= sum|A_i| * max|c|; NaN or inf anywhere fails the test too
        with np.errstate(over="ignore", invalid="ignore"):
            unsure = ~(np.abs(A).sum(axis=1) * np.abs(coeffs).max() <= _PRED_LIMIT)
        if not odd:
            unsure |= (le == k) | (neg == k)
        rows = np.flatnonzero(unsure)
        if rows.size:
            # pad a lone row so the exact product stays matrix-matrix
            take = rows if rows.size > 1 else np.append(rows, (rows[0] + 1) % n)
            thr = self.continuation_batch(j, np.asarray(states)[take], pay[take])[: rows.size]
            stop[rows] = _stop_mask(pay[rows], thr)
        return stop


class RegressionRule(CommitteeRule):
    """One fitted regression, coeffs of shape (J, B): a one-member committee."""

    def __init__(self, coeffs: np.ndarray, y0: float, d: int):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.ndim != 2 or coeffs.shape[1] != basis_size(d):
            raise ValueError("coefficient array must be (J, basis_size(d))")
        super().__init__(coeffs[None], y0, d)

    @property
    def coeffs(self) -> np.ndarray:
        return self.member_coeffs[0]


class TreeRule(StoppingRule):
    """Stops on a fixed set of tree nodes (plus maturity, engine-enforced)."""

    eval_cost = 1

    def __init__(self, model: TreeModel, stop_labels):
        ids = []
        for lab in stop_labels:
            if lab not in model.label_to_id:
                raise ValueError(f"unknown tree node label '{lab}'")
            ids.append(model.label_to_id[lab])
        self.stop_ids = np.array(sorted(ids), dtype=np.int64)
        self.n_dates = model.J + 1

    def decide_batch(self, j: int, states: np.ndarray, payoffs: np.ndarray) -> np.ndarray:
        if j >= self.n_dates - 1:
            return np.ones(len(payoffs), dtype=bool)
        return np.isin(states, self.stop_ids)


def shift_rule(rule: StoppingRule, epsilon: float) -> StoppingRule:
    """A copy of a regression or committee rule with epsilon added to its threshold.

    The copy keeps the rule's class, members and cost, and appends epsilon
    to its ``shifts``.  Larger epsilon means a later stopper; epsilon 0
    returns the rule itself.
    """
    if not math.isfinite(epsilon):
        raise ValueError(f"shift must be finite, got {epsilon!r}")
    if epsilon == 0.0:
        return rule
    if not isinstance(rule, CommitteeRule):
        raise TypeError("shift requires a rule with a continuation value")
    shifted = copy.copy(rule)
    shifted.shifts = rule.shifts + (float(epsilon),)
    return shifted


def _fit_backward(assets: np.ndarray, payoffs: np.ndarray, y0: float, rcond: float) -> np.ndarray:
    n, n_dates, d = assets.shape
    J = n_dates - 1
    B = basis_size(d)
    if n < B:
        raise ValueError(f"need at least {B} paths to fit a {B}-column basis, got {n}")
    coeffs = np.empty((J, B))
    value = payoffs[:, J].copy()
    for j in range(J - 1, -1, -1):
        A = basis_matrix(assets[:, j], payoffs[:, j], y0)
        # rcond guards rank-deficient designs (e.g. degenerate volatility):
        # small singular values are dropped rather than blown up.
        beta, _, _, _ = np.linalg.lstsq(A, value, rcond=rcond)
        cont = A @ beta
        value = np.maximum(payoffs[:, j], cont)
        coeffs[j] = beta
    return coeffs


def train_tvr(paths: TrainingPaths, params: GbmParams, rcond: float = 1e-10) -> RegressionRule:
    """Fit a value-iteration regression rule on simulated paths.

    Backward induction from maturity: the date-j value is the pointwise max
    of the payoff and the basis projection of the date-(j+1) value, fitted
    over every path.  Returns the rule that stops when payoff >= projection.
    """
    coeffs = _fit_backward(paths.assets, paths.payoffs, params.y0, rcond)
    return RegressionRule(coeffs, params.y0, params.d)


def train_committee(
    paths: TrainingPaths,
    params: GbmParams,
    members: int,
    member_size: int,
    seed: int,
    rcond: float = 1e-10,
) -> CommitteeRule:
    """Bag value-iteration regression over bootstrap resamples of the paths.

    Each member is fitted on member_size paths drawn with replacement from
    the pool; resampling is driven by a seed derived per member, so a larger
    committee extends a smaller one trained from the same seed.
    """
    if members < 1:
        raise ValueError("members must be >= 1")
    if member_size < basis_size(params.d):
        raise ValueError("member_size smaller than the regression basis")
    coeffs = np.empty((members, params.J, basis_size(params.d)))
    n = paths.n
    for m in range(members):
        gen = np.random.default_rng(derive_seed(seed, f"committee-member-{m}"))
        idx = gen.integers(0, n, size=member_size)
        coeffs[m] = _fit_backward(paths.assets[idx], paths.payoffs[idx], params.y0, rcond)
    return CommitteeRule(coeffs, params.y0, params.d)
