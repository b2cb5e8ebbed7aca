"""Stopping rules and their training.

A stopping rule maps (date, state, payoff) to a stop/continue decision.  The
engine only consults rules at dates 0..J-1 and stops everything at J, so a
rule never has to special-case maturity, though all but the fixed-date
rule guard it anyway.

Rules carry an ``eval_cost``: the number of elementary predictor evaluations
one decision costs.  Fixed-date rules cost nothing, a single regression rule
costs one, a committee of M members costs M.  The work meters in the engine
charge rule evaluations at a tenth of a simulation unit each.

The trained family is value-iteration regression (Tsitsiklis-Van Roy style):
backward induction where the date-j continuation value is the least-squares
projection of the date-(j+1) value onto a fixed polynomial basis, fitted over
all paths, and the rule stops when the immediate payoff is at least the
predicted continuation (ties stop).  One exception: a zero payoff never
stops against a strictly negative prediction.  Far out of the money the
quadratic fit routinely dips below zero while the true continuation value
is merely small, and cashing out a worthless position on that artifact
would distort stopping times badly.  Committees bag that construction over
bootstrap resamples, and their continuation value is the median of the
member predictions; the median keeps members from collapsing into one
linear predictor.  A committee decision is computed without forming that
median: it counts the member predictions at or below the payoff and below
zero, block by block, and takes the exact median only for the rare rows
the counts leave open.  The decisions are the median rule's, bit for bit,
and every decision still evaluates all M members, so eval_cost stays M.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .process_models import GbmParams, TrainingPaths, Trajectory, TreeModel
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


def _stop_mask(payoffs: np.ndarray, threshold: np.ndarray) -> np.ndarray:
    pay = np.asarray(payoffs)
    stop = pay >= threshold
    # never stop a worthless position on a strictly negative prediction:
    # out of the money the fit extrapolates, and its sign there is noise
    stop &= (pay > 0.0) | (threshold >= 0.0)
    return stop


def _shifted(values: np.ndarray, shifts: tuple[float, ...]) -> np.ndarray:
    # one rounded addition per shift, innermost first, as nested ShiftedRules add them
    for eps in shifts:
        values = values + eps
    return values


class ContinuationRule(StoppingRule):
    """Stops when the payoff reaches a continuation value (ties stop).

    Subclasses set ``n_dates`` and define ``continuation_batch``.  Every
    decision goes through ``_stops``, which receives the shifts of any
    ``ShiftedRule`` wrappers so that a shifted rule decides through its base.
    """

    n_dates: int

    def continuation_batch(self, j: int, states: np.ndarray, payoffs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def decide_batch(self, j: int, states: np.ndarray, payoffs: np.ndarray) -> np.ndarray:
        if j >= self.n_dates - 1:
            return np.ones(len(payoffs), dtype=bool)
        return self._stops(j, states, payoffs, ())

    def _stops(self, j: int, states: np.ndarray, payoffs: np.ndarray, shifts: tuple[float, ...]) -> np.ndarray:
        return _stop_mask(payoffs, _shifted(self.continuation_batch(j, states, payoffs), shifts))


class RegressionRule(ContinuationRule):
    """Stop when payoff >= fitted continuation value at the current date."""

    eval_cost = 1

    def __init__(self, coeffs: np.ndarray, y0: float, d: int):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.ndim != 2 or coeffs.shape[1] != basis_size(d):
            raise ValueError("coefficient array must be (J, basis_size(d))")
        self.coeffs = coeffs
        self.y0 = float(y0)
        self.d = int(d)
        self.n_dates = coeffs.shape[0] + 1

    def continuation_batch(self, j: int, states: np.ndarray, payoffs: np.ndarray) -> np.ndarray:
        return basis_matrix(states, payoffs, self.y0) @ self.coeffs[j]


# Members per prediction block of a committee decision.  Counts are integer
# sums, so the block size changes memory and speed, never a decision.
_MEMBER_BLOCK = 64

# Rows whose predictions may exceed half the largest double go to the exact
# median: an even committee's median adds two of them, which could overflow.
# A quarter leaves room for the rounding of the bound itself.
_PRED_LIMIT = np.finfo(float).max / 4


def _member_blocks(M: int) -> list[slice]:
    # near-equal blocks, none of a single member unless M is 1: a one-column
    # product runs through BLAS's matrix-vector kernel, which rounds
    # differently from the matrix-matrix kernel of the whole committee
    nb = -(-M // _MEMBER_BLOCK)
    edges = [M * i // nb for i in range(nb + 1)]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


class CommitteeRule(ContinuationRule):
    """Median-aggregated committee of regression rules.

    member_coeffs has shape (M, J, B).  The continuation value is the median
    of the M member predictions, and a decision still evaluates all M
    members, so eval_cost is M.  ``prefix(m)`` views the first m members as
    their own committee; nested prefixes reuse the same coefficient storage,
    which the multilevel estimator relies on for coupling.

    A decision needs only where the payoff falls among the member
    predictions, so it counts instead of taking the median: predictions are
    made in blocks of members, and each row tallies the members at or below
    its payoff and the members below zero.  With k = M // 2, the median is
    at or below the payoff exactly when at least k + 1 predictions are, and
    it is negative exactly when more than k are.  A shift x -> x + eps is
    monotone in floating point, so the same counts decide a shifted
    committee.  For odd M the counts decide every row.  For even M the
    median averages the k-th and (k+1)-th predictions, so rows with a count
    of exactly k take the exact median, as do rows whose predictions might
    not be finite or might overflow when two are averaged.  Decisions equal
    the median rule's bit for bit.
    """

    def __init__(self, member_coeffs: np.ndarray, y0: float, d: int):
        member_coeffs = np.asarray(member_coeffs, dtype=float)
        if member_coeffs.ndim != 3 or member_coeffs.shape[2] != basis_size(d):
            raise ValueError("coefficient array must be (M, J, basis_size(d))")
        if member_coeffs.shape[0] < 1:
            raise ValueError("committee needs at least one member")
        self.member_coeffs = member_coeffs
        self.y0 = float(y0)
        self.d = int(d)
        self.n_dates = member_coeffs.shape[1] + 1
        self.eval_cost = member_coeffs.shape[0]

    @property
    def members(self) -> int:
        return self.member_coeffs.shape[0]

    def prefix(self, m: int) -> "CommitteeRule":
        if not 1 <= m <= self.members:
            raise ValueError(f"prefix size {m} outside 1..{self.members}")
        return CommitteeRule(self.member_coeffs[:m], self.y0, self.d)

    def _median(self, A: np.ndarray, j: int) -> np.ndarray:
        # (n, M) member predictions, reduced by median across members
        return np.median(A @ self.member_coeffs[:, j, :].T, axis=1)

    def continuation_batch(self, j: int, states: np.ndarray, payoffs: np.ndarray) -> np.ndarray:
        return self._median(basis_matrix(states, payoffs, self.y0), j)

    def _stops(self, j: int, states: np.ndarray, payoffs: np.ndarray, shifts: tuple[float, ...]) -> np.ndarray:
        pay = np.asarray(payoffs)
        n = len(pay)
        if n < 2:
            # a one-row product takes the matrix-vector kernel, as the median did
            return super()._stops(j, states, pay, shifts)
        A = basis_matrix(states, pay, self.y0)
        coeffs = self.member_coeffs[:, j, :]
        le = np.zeros(n, dtype=np.intp)
        neg = np.zeros(n, dtype=np.intp)
        col = pay[:, None]
        for blk in _member_blocks(self.members):
            preds = _shifted(A @ coeffs[blk].T, shifts)
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
            thr = self._median(A[take], j)[: rows.size]
            stop[rows] = _stop_mask(pay[rows], _shifted(thr, shifts))
        return stop


class ShiftedRule(ContinuationRule):
    """A continuation-value rule with its threshold shifted by epsilon.

    Stops when payoff >= continuation + epsilon.  Larger epsilon means a
    later stopper; epsilon 0 reproduces the base rule exactly.  Decisions
    go through the base rule with the shift, so a shifted committee counts
    members like a bare one.
    """

    def __init__(self, base: StoppingRule, epsilon: float):
        if not isinstance(base, ContinuationRule):
            raise TypeError("shift requires a rule with a continuation value")
        self.base = base
        self.epsilon = float(epsilon)
        self.eval_cost = base.eval_cost
        self.n_dates = base.n_dates

    def continuation_batch(self, j: int, states: np.ndarray, payoffs: np.ndarray) -> np.ndarray:
        return self.base.continuation_batch(j, states, payoffs) + self.epsilon

    def _stops(self, j: int, states: np.ndarray, payoffs: np.ndarray, shifts: tuple[float, ...]) -> np.ndarray:
        return self.base._stops(j, states, payoffs, (self.epsilon,) + shifts)


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
    """Shift a continuation-value rule's stop threshold by epsilon."""
    if epsilon == 0.0:
        return rule
    return ShiftedRule(rule, epsilon)


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


def evaluate_rule(rule: StoppingRule, trajectory: Trajectory, start: int = 0) -> int:
    """First date >= start at which the rule stops along the trajectory."""
    J = trajectory.j0 + len(trajectory.payoffs) - 1
    if start < trajectory.j0:
        raise ValueError("start precedes the trajectory")
    for j in range(start, J):
        k = j - trajectory.j0
        if rule.decide(j, trajectory.assets[k], float(trajectory.payoffs[k])):
            return j
    return J


# --- flat text serialization ----------------------------------------------

def save_rule(rule: StoppingRule, path: str) -> None:
    """Write a trained rule as flat text: header key/value lines, then one
    line per date (committees: member index, date index, coefficients)."""
    lines: list[str] = []

    def emit(r: StoppingRule) -> None:
        if isinstance(r, ShiftedRule):
            lines.append("kind shifted")
            lines.append(f"epsilon {float(r.epsilon)!r}")
            emit(r.base)
        elif isinstance(r, RegressionRule):
            lines.append("kind regression")
            lines.append(f"d {r.d}")
            lines.append(f"y0 {float(r.y0)!r}")
            lines.append(f"dates {r.n_dates}")
            for j in range(r.n_dates - 1):
                row = " ".join(repr(float(c)) for c in r.coeffs[j])
                lines.append(f"{j} {row}")
        elif isinstance(r, CommitteeRule):
            lines.append("kind committee")
            lines.append(f"d {r.d}")
            lines.append(f"y0 {float(r.y0)!r}")
            lines.append(f"dates {r.n_dates}")
            lines.append(f"members {r.members}")
            for m in range(r.members):
                for j in range(r.n_dates - 1):
                    row = " ".join(repr(float(c)) for c in r.member_coeffs[m, j])
                    lines.append(f"{m} {j} {row}")
        else:
            raise TypeError(f"cannot serialize rule of type {type(r).__name__}")

    emit(rule)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_rule(path: str) -> StoppingRule:
    """Read back a rule written by save_rule."""
    with open(path) as fh:
        toks = [ln.split() for ln in fh if ln.strip() and not ln.startswith("#")]
    pos = 0

    def parse() -> StoppingRule:
        nonlocal pos
        if toks[pos][0] != "kind":
            raise ValueError(f"expected 'kind', got {toks[pos][0]!r}")
        kind = toks[pos][1]
        pos += 1
        if kind == "shifted":
            if toks[pos][0] != "epsilon":
                raise ValueError("shifted rule missing epsilon")
            eps = float(toks[pos][1])
            pos += 1
            return ShiftedRule(parse(), eps)
        header = {}
        want = {"regression": ("d", "y0", "dates"), "committee": ("d", "y0", "dates", "members")}
        if kind not in want:
            raise ValueError(f"unknown rule kind {kind!r}")
        for key in want[kind]:
            if toks[pos][0] != key:
                raise ValueError(f"expected header {key!r}, got {toks[pos][0]!r}")
            header[key] = float(toks[pos][1])
            pos += 1
        d = int(header["d"])
        y0 = header["y0"]
        J = int(header["dates"]) - 1
        B = basis_size(d)
        if kind == "regression":
            coeffs = np.empty((J, B))
            for _ in range(J):
                row = toks[pos]
                pos += 1
                coeffs[int(row[0])] = [float(x) for x in row[1:]]
            return RegressionRule(coeffs, y0, d)
        M = int(header["members"])
        coeffs = np.empty((M, J, B))
        for _ in range(M * J):
            row = toks[pos]
            pos += 1
            coeffs[int(row[0]), int(row[1])] = [float(x) for x in row[2:]]
        return CommitteeRule(coeffs, y0, d)

    rule = parse()
    if pos != len(toks):
        raise ValueError("trailing content in rule file")
    return rule
