"""Stopping rules and their training.

A stopping rule maps (date, state, payoff) to a stop/continue decision.  It
is asked only through ``decide_batch(j, states, payoffs)``, for a batch of
rows at one of the dates 0..J-1; the engine and the oracle stop everything
at J themselves, so no rule knows maturity.

Rules carry an ``eval_cost``: the number of elementary predictor evaluations
one decision costs.  Fixed-date rules cost nothing, a committee of M
regression members costs M.  The work meters in the engine charge rule
evaluations at a tenth of a simulation unit each.

Every trained rule is one type, ``CommitteeRule``: it stops when the
immediate payoff is at least the median of its members' predicted
continuation values plus its shift (ties stop).  One exception: a zero
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
from numpy.linalg import _linalg, _umath_linalg

from .process_models import GbmModel, TrainingPaths, TreeModel, gather_rows
from .rng import derive_seed


# Rows per tile of basis_matrix: the (B, tile) scratch stays in cache.
_BASIS_TILE = 2048


def basis_size(d: int) -> int:
    return 2 + d + d * (d + 1) // 2


def basis_matrix(assets: np.ndarray, payoffs: np.ndarray, y0: float, out=None) -> np.ndarray:
    """Regression features: 1, scaled prices, scaled second moments, payoff.

    Columns: constant, Y_a / y0 for each asset, Y_a Y_b / y0^2 for a <= b,
    and the current payoff / y0.  Built a tile of rows at a time, column by
    column in a (B, tile) scratch, so each column is one contiguous pass;
    the output is row-major (C-contiguous), written into ``out`` when given,
    and its bits do not depend on the tiling.
    """
    assets = np.asarray(assets, dtype=float)
    payoffs = np.asarray(payoffs, dtype=float)
    n, d = assets.shape
    out = np.empty((n, basis_size(d))) if out is None else out
    cols = np.empty((basis_size(d), min(n, _BASIS_TILE)))
    for s in range(0, n, _BASIS_TILE):
        t = min(n - s, _BASIS_TILE)
        c = cols[:, :t]
        c[0] = 1.0
        ys = np.divide(assets[s : s + t].T, y0, out=c[1 : 1 + d])
        col = 1 + d
        for a in range(d):
            np.multiply(ys[a], ys[a:], out=c[col : col + d - a])
            col += d - a
        np.divide(payoffs[s : s + t], y0, out=c[col])
        out[s : s + t] = c.T
    return out


class FixedDateRule:
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


# Most members per prediction block of a committee decision, whose blocks
# are even, and per stacked fit in training.  Counts are integer sums and
# each member fits alone, so the size changes memory and speed, never a bit.
_MEMBER_BLOCK = 64

# Rows whose predictions may exceed half the largest double go to the exact
# median: an even committee's median adds two of them, which could overflow.
# A quarter leaves room for the rounding of the bound itself.
_PRED_LIMIT = np.finfo(float).max / 4


def _predict(A: np.ndarray, coeffs: np.ndarray, out=None) -> np.ndarray:
    """A @ coeffs.T for two or more members, every entry rounded as in a product of two or more rows.

    This is the one place that knows the kernel fact: BLAS multiplies a lone
    row with its matrix-vector kernel, which rounds differently from the
    matrix-matrix kernel of any larger product.  So a lone row is doubled
    before the product and sliced back after; any other product is written
    into ``out`` when given.
    """
    if len(A) == 1:
        return (np.repeat(A, 2, axis=0) @ coeffs.T)[:1]
    return np.matmul(A, coeffs.T, out=out)


def _spread_band(coeffs: np.ndarray, k: int):
    """One date's spread band, (c0, Wh, r*, rho), or None (see CommitteeRule)."""
    top = np.abs(coeffs).max()
    if not 1e-100 < top < 1e100:  # NaN and inf fail too
        return None
    # the coordinate-wise median along the members' principal axes: plain
    # coordinates sit off a cloud this correlated, and widen the band
    axes = np.linalg.eigh(np.cov(coeffs.T))[1]
    c0 = np.clip(axes @ np.median(coeffs @ axes, axis=0), coeffs.min(axis=0), coeffs.max(axis=0))
    dev = coeffs - c0
    lam, vec = np.linalg.eigh(dev.T @ dev / len(dev))
    keep = lam > lam[-1] * 1e-12
    root = np.sqrt(lam[keep])
    Wh = vec[:, keep] * root
    z = dev @ (vec[:, keep] / root)
    radii = np.sqrt(np.square(z).sum(axis=1))
    rho = np.abs(dev - z @ Wh.T).sum(axis=1).max()
    return c0, Wh, np.partition(radii, k)[k], rho


class CommitteeRule:
    """Stops when the payoff reaches the median member prediction plus a shift.

    member_coeffs has shape (M, J, B), with B = basis_size(d) for the
    model's d; a nonzero ``shift``, set only by ``shift_rule``, is added to
    the median with one rounding.  eval_cost is M: the cost model
    charges every decision all M members, although counting (below) often
    settles a row before the last of them is evaluated.  ``prefix(m)`` views
    the first m members as their own committee, sharing the coefficient
    storage, which the multilevel estimator relies on for coupling.

    One member's prediction is its own median.  More members are counted,
    not sorted: the members split into ceil(M / 64) even blocks, so none
    holds a lone member, and per block each open row tallies the shifted
    predictions at or below its payoff, and the rows whose payoff is not
    positive, kept as a prefix of the open rows, also tally those below
    zero.  With k = M // 2, more than k predictions at or below the payoff
    put the median there too, and fewer than k + M % 2 put it above;
    likewise for zero (a shift is monotone in floating point).  After each
    block, a row whose counts can no longer cross these bounds, whatever
    the members still to come predict, is decided and leaves the open rows.
    So the counts decide every row of an odd committee.  Rows still open at
    the end (a count of exactly k in an even committee), and rows whose
    predictions might not be finite or might overflow when two are
    averaged, take the exact median.  Decisions equal the median rule's bit
    for bit, and a row decides alone as it does in any batch.  With two or
    more members, every prediction, counted or for the exact median, is made
    by ``_predict``, the one place that knows how BLAS rounds a lone row.
    One member's threshold is numpy's own ``einsum`` loop over a
    row-major basis: a sum per row that no batch changes.

    Before any count, a spread band settles most rows.  For each date the
    rule stores a centre c0, the coordinate-wise median of the members'
    coefficients along their principal axes, clipped to the members' range
    in each coefficient; and from the covariance of the deviations
    delta_m = c_m - c0 a square-root factor Wh and an inverse factor Wi,
    its unit eigenvectors times sqrt(lambda) and 1/sqrt(lambda) for the
    eigenvalues above 1e-12 of the largest; r* is the (k+1)-th
    smallest radius |z_m|_2 of the whitened deviations z_m = Wi^T delta_m,
    and rho the largest residual |delta_m - Wh z_m|_1.  Since
    A.c_m - A.c0 = (Wh^T A).z_m + A.(delta_m - Wh z_m) whatever Wh and z_m
    are, at least k + 1 members predict within
    h = |Wh^T A|_2 r* + |A|_inf rho of A.c0.  So a row with a positive
    payoff more than h above the shifted centre stops, and a row more than
    h below it continues, as does one whose payoff is not positive once
    the centre plus h is below zero: the full counts would say the same.
    A zero payoff stops only at a median of exactly zero, which no band
    settles.  Rows inside the band are counted.

    The band must hold for the values the count compares: fl(A.c_m), then
    the shift added with one rounding.  With eps = 2^-52, B columns,
    S = 1 if there is a shift (else 0) and s = sum|A| max|c| per row:
    - fl(A.c_m) and the centre fl(A.c0) are each within B eps s of A.c_m
      and A.c0;
    - z_m is whatever was computed, for which the identity is exact; the
      rounding of the residual and of Wh^T A is at most
      (B + 2)(B^3 + B^2 + 2B) eps s, since sqrt(lambda_i) |z_mi| and
      |delta_m|_1 are at most 2 B max|c|;
    - the shift moves a member and the centre by at most S eps (s + |shift|);
    - the norms, h itself and the comparisons round by a relative (B + 9) eps.
    With tol = 8 (B^4 + S) eps, above every sum for B >= 2, the half-width
    is h (1 + tol) + tol (s + |shift|).  A date gets no band unless its
    coefficients are finite and max|c| lies in (1e-100, 1e100): below, an
    underflow could exceed tol s; above, the covariance could overflow.
    ``prefix(m)`` builds its own bands; a ``shift_rule`` copy shares them.
    """

    def __init__(self, member_coeffs: np.ndarray, y0: float):
        member_coeffs = np.asarray(member_coeffs, dtype=float)
        B = member_coeffs.shape[2] if member_coeffs.ndim == 3 else 0
        if B not in map(basis_size, range(1, B)):
            raise ValueError("coefficient array must be (M, J, basis_size(d)) for some d >= 1")
        if member_coeffs.shape[0] < 1:
            raise ValueError("committee needs at least one member")
        self.member_coeffs = member_coeffs
        self.y0 = float(y0)
        self.shift = 0.0
        self.eval_cost = member_coeffs.shape[0]
        # built once: forked workers inherit them, and a shift copy shares them
        k = self.members // 2
        self._bands = [_spread_band(c, k) for c in member_coeffs.swapaxes(0, 1)] if k else None

    @property
    def members(self) -> int:
        return self.member_coeffs.shape[0]

    def prefix(self, m: int) -> "CommitteeRule":
        if not 1 <= m <= self.members:
            raise ValueError(f"prefix size {m} outside 1..{self.members}")
        return shift_rule(CommitteeRule(self.member_coeffs[:m], self.y0), self.shift)

    def continuation_batch(self, j: int, states: np.ndarray, payoffs: np.ndarray) -> np.ndarray:
        """The stop threshold of each row: median prediction plus the shift."""
        A = basis_matrix(states, payoffs, self.y0)
        if self.members == 1:
            # numpy's own loop, not BLAS: a row rounds the same in any batch
            thr = np.einsum("ij,j->i", A, self.member_coeffs[0, j])
        else:
            thr = np.median(_predict(A, self.member_coeffs[:, j, :]), axis=1)
        return thr + self.shift if self.shift else thr

    def _band_settles(self, j: int, A: np.ndarray, pay: np.ndarray, scale: np.ndarray):
        """(stops, continues): the rows date j's band settles.

        Rows whose scale exceeds _PRED_LIMIT may come out either way: the
        caller decides them by the exact median.
        """
        if self._bands[j] is None:
            return np.zeros(len(pay), dtype=bool), np.zeros(len(pay), dtype=bool)
        c0, Wh, r, rho = self._bands[j]
        tol = 8 * (A.shape[1] ** 4 + (self.shift != 0.0)) * np.finfo(float).eps
        with np.errstate(over="ignore", invalid="ignore"):
            centre = A @ c0 + self.shift  # + 0.0 only turns -0.0 into 0.0, which compares the same
            half = np.sqrt(np.square(A @ Wh).sum(axis=1)) * r + np.abs(A).max(axis=1) * rho
            half = half * (1 + tol) + tol * (scale + abs(self.shift))
            stops = (pay > 0.0) & (pay - centre > half)
            goes = (centre - pay > half) | (~(pay > 0.0) & (centre + half < 0.0))
        return stops, goes

    def decide_batch(self, j: int, states: np.ndarray, payoffs: np.ndarray) -> np.ndarray:
        pay = np.asarray(payoffs)
        if self.members == 1:  # nothing to count
            return _stop_mask(pay, self.continuation_batch(j, states, pay))
        A = basis_matrix(states, pay, self.y0)
        coeffs = self.member_coeffs[:, j, :]
        # |A_i . c| <= sum|A_i| * max|c|; NaN or inf anywhere fails the test too
        with np.errstate(over="ignore", invalid="ignore"):
            scale = np.abs(A).sum(axis=1) * np.abs(coeffs).max()
        sure = scale <= _PRED_LIMIT
        stop, goes = self._band_settles(j, A, pay, scale)
        todo = sure & ~(stop | goes)
        # the open rows, those whose payoff is not positive first: only they
        # count predictions below zero
        zero = todo & ~(pay > 0.0)
        idx = np.concatenate([np.flatnonzero(zero), np.flatnonzero(todo & ~zero)])
        z = np.count_nonzero(zero)
        A, col = gather_rows(A, idx), pay[idx, None]
        le = np.zeros(len(idx), dtype=np.intp)
        neg = np.zeros(z, dtype=np.intp)
        # even blocks of at most _MEMBER_BLOCK members: none holds a lone member
        blocks = np.array_split(coeffs, -(-self.members // _MEMBER_BLOCK))
        pbuf = np.empty(len(idx) * len(blocks[0]))
        cbuf = np.empty(len(idx) * len(blocks[0]), dtype=bool)
        k, odd = divmod(self.members, 2)
        rem = self.members
        for blk in blocks:
            m, w = len(idx), len(blk)
            if not m:
                break  # no row left open
            preds = _predict(A, blk, out=pbuf[: m * w].reshape(m, w))
            if self.shift:
                np.add(preds, self.shift, out=preds)
            # a block has at most 64 members, so its counts fit in a byte
            c = np.less_equal(preds, col, out=cbuf[: m * w].reshape(m, w))
            le += np.add.reduce(c.view(np.uint8), axis=1, dtype=np.uint8)
            c = np.less(preds[:z], 0.0, out=c[:z])
            neg += np.add.reduce(c.view(np.uint8), axis=1, dtype=np.uint8)
            rem -= w
            if rem >= k + odd:
                continue  # no row settles until more than half the members are in
            # stop once more than k are at or below the payoff and, for a zero
            # payoff, k + odd below zero are out of reach; continue once k + odd
            # at or below the payoff are out of reach, or more than k are below zero
            stops = le > k
            stops[:z] &= neg + rem < k + odd
            goes = le + rem < k + odd
            goes[:z] |= neg > k
            keep = ~(stops | goes)
            stop[idx[stops]] = True
            idx, A, col, le = idx[keep], gather_rows(A, keep), gather_rows(col, keep), le[keep]
            neg = neg[keep[:z]]
            z = len(neg)
        exact = ~sure
        exact[idx] = True
        rows = np.flatnonzero(exact)
        if rows.size:
            thr = self.continuation_batch(j, np.asarray(states)[rows], pay[rows])
            stop[rows] = _stop_mask(pay[rows], thr)
        return stop


class RegressionRule(CommitteeRule):
    """One fitted regression, coeffs of shape (J, B): a one-member committee."""

    def __init__(self, coeffs: np.ndarray, y0: float):
        super().__init__(np.asarray(coeffs, dtype=float)[None], y0)


class TreeRule:
    """Stops on a fixed set of tree nodes."""

    eval_cost = 1

    def __init__(self, model: TreeModel, stop_labels):
        ids = []
        for lab in stop_labels:
            if lab not in model.label_to_id:
                raise ValueError(f"unknown tree node label '{lab}'")
            ids.append(model.label_to_id[lab])
        self.stop_ids = np.array(sorted(ids), dtype=np.int64)

    def decide_batch(self, j: int, states: np.ndarray, payoffs: np.ndarray) -> np.ndarray:
        return np.isin(states, self.stop_ids)


def shift_rule(rule, epsilon: float):
    """A copy of a regression or committee rule with epsilon added to its threshold.

    The copy keeps the rule's class, members and cost, and adds epsilon to
    its ``shift`` (so shifting twice adds the two first, with one rounding).
    Larger epsilon means a later stopper; epsilon 0 returns the rule itself.
    The sum must be finite, so a non-finite epsilon is rejected too.  This
    is the one way to shift a rule.
    """
    if epsilon == 0.0:
        return rule
    if not isinstance(rule, CommitteeRule):
        raise TypeError("shift requires a rule with a continuation value")
    shift = rule.shift + float(epsilon)
    if not math.isfinite(shift):
        raise ValueError(f"shift must be finite, got {shift!r}")
    shifted = copy.copy(rule)
    shifted.shift = shift
    return shifted


def _fit_backward(states, final: np.ndarray, model: GbmModel) -> np.ndarray:
    """(w, J, B) coefficients of w same-size fits by backward induction, one
    date at a time from J - 1 down: final is their (w, n) date-J payoffs,
    and states(j) their date-j states, fit after fit, as one (w n, d) array.

    Per date the stack shares one basis buffer and one call of the gufunc
    np.linalg.lstsq wraps, LAPACK gelsd on each fit's own rows, and one
    stacked product: every fit's bits are those of a lstsq of its own.
    """
    (w, n), B = final.shape, basis_size(model.params.d)
    if n < B:
        raise ValueError(f"need at least {B} paths to fit a {B}-column basis, got {n}")
    coeffs = np.empty((w, model.J, B))
    value = final[..., None]
    A = np.empty((w, n, B))  # one basis buffer for every date: gelsd reads a copy
    for j in range(model.J - 1, -1, -1):
        assets = states(j)
        pay = model.payoff_batch(j, assets)
        basis_matrix(assets, pay, model.params.y0, out=A.reshape(w * n, B))
        # freed before gelsd copies A, a stepped date leaves glibc no heap to keep
        del assets
        # rcond guards rank-deficient designs (e.g. degenerate volatility):
        # small singular values are dropped rather than blown up.  The
        # errstate is lstsq's own: a gelsd that does not converge raises
        with np.errstate(all="ignore", invalid="call", call=_linalg._raise_linalgerror_lstsq):
            beta = _umath_linalg.lstsq(A, value, 1e-10, signature="ddd->ddid")[0]
        value = np.maximum(pay.reshape(w, n, 1), np.matmul(A, beta))
        coeffs[:, j] = beta[..., 0]
    return coeffs


def train_tvr(paths: TrainingPaths) -> RegressionRule:
    """Fit a value-iteration regression rule on simulated paths.

    Backward induction from maturity: the date-j value is the pointwise max
    of the payoff and the basis projection of the date-(j+1) value, fitted
    over every path.  Returns the rule that stops when payoff >= projection.
    The pool's model supplies y0, d and J: a rule learns the model its paths
    were simulated under.
    """
    return RegressionRule(_fit_backward(paths.states, paths.final[None], paths.model)[0], paths.model.params.y0)


def train_committee(paths: TrainingPaths, members: int, member_size: int) -> CommitteeRule:
    """Bag value-iteration regression over bootstrap resamples of the paths.

    Each member is fitted on member_size paths drawn with replacement from
    the pool; resampling is driven by a seed derived per member from the
    pool's seed, so a larger committee extends a smaller one trained on the
    same pool.  The pool's unkept dates are stepped once, for every member,
    and members fit in stacks of at most 64, each stack's rows gathered once
    per date.  As in ``train_tvr``, the pool's model supplies y0, d and J.
    """
    p = paths.model.params
    if members < 1:
        raise ValueError("members must be >= 1")
    if member_size < basis_size(p.d):
        raise ValueError("member_size smaller than the regression basis")
    coeffs = np.empty((members, p.J, basis_size(p.d)))
    states = [paths.states(j) for j in range(p.J)]
    for s in range(0, members, _MEMBER_BLOCK):
        gens = (np.random.default_rng(derive_seed(paths.seed, f"committee-member-{m}"))
                for m in range(s, min(s + _MEMBER_BLOCK, members)))
        idx = np.stack([g.integers(0, paths.n, size=member_size) for g in gens])
        fit = _fit_backward(lambda j: gather_rows(states[j], idx.ravel()), paths.final[idx], paths.model)
        coeffs[s : s + len(fit)] = fit
    return CommitteeRule(coeffs, p.y0)
