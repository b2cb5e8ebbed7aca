"""The two-stage nested estimator of E[X_{tau_A} - X_{tau_B}].

Stage one (trunks): simulate N paths, evaluating both rules at every date,
and freeze each path at the first date either rule stops.  The sign
S = sign(tau_A - tau_B) is known there; paths where the rules agree are
finished and contribute zero.  Stage two (subsamples): where S != 0, branch
R conditionally independent continuations from the frozen state and run each
until the surviving rule stops, recording S * (X_stop - X_frozen).  The
estimate is the double average; its variance decomposes as v1/N + v2/(R*N)
with v1 the variance of the per-trunk conditional mean and v2 the expected
within-trunk variance.

Both stages run one date loop, the lane kernel ``_run_lanes``: each date it
steps the live lanes, prices them, asks every rule of the run about them and
retires the lanes that stop.  A stage supplies each lane's first decision
date (0 for a trunk, tau + 1 for a continuation), the rules (both for the
trunks, the survivor for a continuation) and the noise as raw words; the
kernel is the one place that turns them into variates, and only for the
rows it steps.  Stage two runs the trunks where rule A survives, then
those where rule B does, each group in sub-batches whose noise and lane
state fit in NOISE_BUDGET words, so its memory does not grow with N, R or
P(differ); it fetches a whole sub-batch's raw words, each trunk's dates
tau+1..J only, in one batched draw.

Everything is deterministic given (seed, namespace): paths and replications
are addressed by counter-based streams, partial results land in preallocated
index-addressed buffers, and reductions run in index order (numpy pairwise
summation), so the thread count cannot change a single bit of the result:
every thread count runs the same chunks and sub-batches.  A committee of
two or more members decides each row as it does in any batch, but a
one-member rule's threshold is one matrix-vector product per batch, which
BLAS may round differently with the batch's size and the row's place in
it; so a payoff within rounding of that threshold could decide differently
under another chunk size or sub-batching.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .calibration import CalibParams
from .rng import NS_TESTING, SUB, TRUNK, words_per_point
from .stopping_rules import FixedDateRule

# Paths per scheduling unit.  Fixed: results must not depend on it.
CHUNK_SIZE = 16384

# Stage-two words held at once (36 MB): a sub-batch's noise, each point's
# raw words held across its dates, and per lane five states' worth (its
# state, and at one date its gathered state, its variates and the stepped
# state, plus one state of headroom: rng converts raw words in small blocks,
# holding no copy of them) plus LANE_WORDS for the lane's own arrays
# (payoffs, noise index, dates, flags, temporaries).  Fixed: results must
# not depend on them.
NOISE_BUDGET = 9 * 2**19
LANE_WORDS = 14

# One rule evaluation costs a tenth of one asset-date simulation step.
RULE_EVAL_UNIT = 0.1


@dataclass
class WorkMeter:
    """Deterministic work counters: simulation steps and rule evaluations.

    ``steps`` counts single-asset single-date simulation updates; a d-asset
    date advance on one path counts d.  ``rule_evals`` counts elementary
    predictor evaluations (a committee of M members counts M per decision).
    Units blend the two with rule evaluations at a tenth of a step, a fixed
    package-wide weighting.
    """

    steps: int = 0
    rule_evals: int = 0

    def units(self) -> float:
        return self.steps + RULE_EVAL_UNIT * self.rule_evals


@dataclass(frozen=True, slots=True)
class NestedEstimate:
    """Result of one two-stage run, with variance components and work."""

    delta_hat: float
    N: int
    R: int
    v1_hat: float
    v2_hat: Optional[float]
    stderr: float
    work_trunk: WorkMeter
    work_sub: WorkMeter
    p_differ: float


@dataclass(frozen=True, slots=True)
class ValueEstimate:
    """Plain Monte Carlo estimate of E[X_tau] for a single rule."""

    mean: float
    var_hat: float
    stderr: float
    N: int
    work: WorkMeter


def _run_lanes(model, rules, first, states, payoff, noise):
    """The date loop of both stages: advance lanes until each one stops.

    Lane i is first stepped and asked at date first[i] (date 0 takes no
    step).  Every live lane asks each of ``rules`` at dates before J and
    stops at the first date one of them says so, and at J in any case.
    ``noise(j, rows)`` gives a fresh copy of the raw words that carry lanes
    ``rows`` to date j; only those rows become variates, in place.
    ``states`` and ``payoff`` are advanced in place and end at each lane's
    stop date.  Returns (tau, votes, steps, evals): the stop dates and
    votes[i], rule i's decision there (True at J).
    """
    J, n = model.J, len(first)
    tau = np.zeros(n, dtype=np.int64)
    votes = [np.zeros(n, dtype=bool) for _ in rules]
    alive = np.ones(n, dtype=bool)
    cost = sum(rule.eval_cost for rule in rules)
    steps = evals = 0
    for j in range(int(first.min()), J + 1):
        rows = np.nonzero(alive & (first <= j))[0]
        if rows.size == 0:
            continue
        lane_states = states[rows]
        if j > 0:
            lane_states = model.step_batch(j, lane_states, model.variates(noise(j, rows)))
            lane_payoff = model.payoff_batch(j, lane_states)
            states[rows] = lane_states
            payoff[rows] = lane_payoff
            steps += rows.size * model.step_units
        else:
            lane_payoff = payoff[rows]
        if j < J:
            says = [rule.decide_batch(j, lane_states, lane_payoff) for rule in rules]
            evals += rows.size * cost
            stop = np.any(says, axis=0)
        else:
            stop = np.ones(rows.size, dtype=bool)
            says = [stop] * len(rules)
        done = rows[stop]
        tau[done] = j
        for vote, said in zip(votes, says):
            vote[done] = said[stop]
        alive[done] = False
        if not alive.any():
            break
    return tau, votes, steps, evals


def _trunk_block(model, ruleA, ruleB, seed: int, namespace: int, p0: int, n: int):
    """Stage one for paths [p0, p0+n): runs to the earlier stopping date.

    Path p consults both rules from date 0 and draws point p of each date's
    TRUNK stream.  Returns (tau, sign, x_wedge, resume_states, steps, evals),
    resume states in a row buffer matching the model's state layout.
    """
    states = model.init_states(n)
    payoff = model.payoff_batch(0, states)

    def noise(j, rows):
        return model.draw(seed, namespace, TRUNK, 0, j, n, first_point=p0)[rows]

    tau, (sA, sB), steps, evals = _run_lanes(
        model, (ruleA, ruleB), np.zeros(n, dtype=np.int64), states, payoff, noise)
    sign = np.where(sA & sB, 0, np.where(sA, -1, 1)).astype(np.int8)
    return tau, sign, payoff, states, steps, evals


def _sub_block(model, ruleA, ruleB, seed: int, namespace: int, p0: int,
               tau, sign, x_wedge, resume, R: int):
    """Stage two for one trunk block: R continuations per differing trunk.

    Trunk p owns one SUB stream (key date 0) whose point (j-1)*R + (r-1) is
    replication r's draw for date j.  A differing trunk's lanes start at
    tau + 1 and ask only the surviving rule: the trunks with S > 0 run on
    rule A, then those with S < 0 on rule B.  Each group walks its trunks in
    sub-batches, one draw per sub-batch putting the raw words of each
    trunk's dates tau+1..J in a ragged buffer; each date converts only the
    live lanes' rows.  A sub-batch holds at most NOISE_BUDGET words of noise
    and lane state, a trunk's share being its points' raw words plus R
    lanes of five states' worth (four held, one of headroom) and LANE_WORDS
    each (a trunk whose own share is larger runs alone).
    Returns (means, variances, steps, evals); rows for trunks with S = 0
    stay zero and cost nothing.
    """
    n = len(tau)
    means = np.zeros(n)
    variances = np.zeros(n)
    width = model.draw_width
    steps = evals = 0
    # S > 0: tau_A > tau_B, so rule A runs on
    for rule, s in ((ruleA, 1), (ruleB, -1)):
        diff = np.nonzero(sign == s)[0]
        points = (model.J - tau[diff]) * R
        ends = np.cumsum(points * words_per_point(width) + R * (5 * width + LANE_WORDS))
        lo = 0
        while lo < diff.size:
            spent = ends[lo - 1] if lo else 0
            hi = max(lo + 1, int(np.searchsorted(ends, spent + NOISE_BUDGET, side="right")))
            k, counts = diff[lo:hi], points[lo:hi]
            offsets = np.cumsum(counts) - counts
            buf = model.draw(seed, namespace, SUB, p0 + k, 0, counts, first_point=tau[k] * R)
            # lane (i, r) reads point (j - tau_i - 1)*R + r of trunk i's block at date j
            base = np.repeat(offsets - (tau[k] + 1) * R, R) + np.tile(np.arange(R), k.size)
            lane_xw = np.repeat(x_wedge[k], R)
            payoff = lane_xw.copy()
            _, _, s_steps, s_evals = _run_lanes(
                model, (rule,), np.repeat(tau[k] + 1, R), np.repeat(resume[k], R, axis=0),
                payoff, lambda j, rows: buf[base[rows] + j * R])
            vals = (s * (payoff - lane_xw)).reshape(k.size, R)
            means[k] = vals.mean(axis=1)
            if R > 1:
                variances[k] = vals.var(axis=1, ddof=1)
            steps, evals = steps + s_steps, evals + s_evals
            lo = hi
            del buf  # before the next sub-batch's buffer, or both may stay resident
    return means, variances, steps, evals


def _run_chunked(task, N: int, threads: int):
    """Run task(start, size) for every chunk of CHUNK_SIZE paths, in parallel if asked.

    Results are collected by chunk index, so the reduction that follows is
    identical for any thread count.
    """
    jobs = [(s, min(CHUNK_SIZE, N - s)) for s in range(0, N, CHUNK_SIZE)]
    if threads <= 1:
        # inline: a one-worker pool raised a benchmark job's peak RSS up to 20 %, likely by its own malloc arena
        return [task(s, n) for s, n in jobs]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(task, *zip(*jobs)))


def _mean_var(x: np.ndarray) -> tuple[float, float]:
    """np.mean(x) and np.var(x, ddof=1), bit for bit, overwriting x.

    These are np.var's own steps, but the squared deviations go into x
    instead of a second array the size of x.
    """
    m = np.mean(x)
    np.square(np.subtract(x, m, out=x), out=x)
    return float(m), float(x.sum() / (len(x) - 1))


def estimate(model, ruleA, ruleB, N: int, R: int, seed: int, threads: int = 1) -> NestedEstimate:
    """Full two-stage run: N trunks, R replications per differing trunk.

    delta_hat averages the per-trunk replication means (zero where the rules
    coincide).  v2_hat is the across-trunk average of the within-trunk sample
    variance (needs R >= 2); v1_hat is the variance of the per-trunk means
    minus v2_hat/R, floored at zero.  Deterministic for fixed seed whatever
    the thread count.
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    if R < 1:
        raise ValueError("R must be >= 1")

    means = np.empty(N)
    variances = np.empty(N)

    def task(start: int, n: int):
        tau, sign, xw, resume, t_steps, t_evals = _trunk_block(
            model, ruleA, ruleB, seed, NS_TESTING, start, n)
        m, v, s_steps, s_evals = _sub_block(
            model, ruleA, ruleB, seed, NS_TESTING, start, tau, sign, xw, resume, R)
        means[start:start + n] = m
        variances[start:start + n] = v
        return t_steps, t_evals, s_steps, s_evals, np.count_nonzero(sign)

    t_steps, t_evals, s_steps, s_evals, differ = map(sum, zip(*_run_chunked(task, N, threads)))
    work_trunk = WorkMeter(t_steps, t_evals)
    work_sub = WorkMeter(s_steps, s_evals)

    delta_hat, var_means = _mean_var(means)
    if R >= 2:
        v2_hat = float(np.mean(variances))
        v1_hat = max(var_means - v2_hat / R, 0.0)
        stderr = float(np.sqrt(v1_hat / N + v2_hat / (R * N)))
    else:
        v2_hat = None
        v1_hat = var_means
        stderr = float(np.sqrt(v1_hat / N))
    p_differ = float(differ / N)
    return NestedEstimate(delta_hat=delta_hat, N=N, R=R, v1_hat=v1_hat, v2_hat=v2_hat,
                          stderr=stderr, work_trunk=work_trunk, work_sub=work_sub,
                          p_differ=p_differ)


def estimate_value(model, rule, N: int, seed: int, threads: int = 1) -> ValueEstimate:
    """Plain Monte Carlo for E[X_tau] of one rule over N paths.

    Runs stage one against a rule that holds to maturity: it costs nothing
    and never stops first, so each path's x_wedge is its payoff at the
    rule's stopping date.
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    hold = FixedDateRule(model.J)
    values = np.empty(N)

    def task(start: int, n: int):
        _, _, x_wedge, _, steps, evals = _trunk_block(model, rule, hold, seed, NS_TESTING, start, n)
        values[start:start + n] = x_wedge
        return steps, evals

    work = WorkMeter(*map(sum, zip(*_run_chunked(task, N, threads))))
    mean, var_hat = _mean_var(values)
    return ValueEstimate(mean=mean, var_hat=var_hat,
                         stderr=float(np.sqrt(var_hat / N)), N=N, work=work)


def floored_params(est: NestedEstimate) -> CalibParams:
    """Calibration parameters (v1, v2, rho1, rho2) measured from a finished run.

    rho1 is trunk work per trunk; rho2 is subsample work per replication slot
    (averaged over all N*R slots, so coinciding trunks dilute it, exactly as
    they dilute realized cost).  Estimates at or below zero (the rules never
    disagreed, a variance vanished, or every trunk stopped at date 0) are
    floored at a tiny positive value and the result is flagged degenerate.
    """
    rho1 = est.work_trunk.units() / est.N
    rho2 = est.work_sub.units() / (est.N * est.R)
    v1 = est.v1_hat
    v2 = est.v2_hat if est.v2_hat is not None else 0.0
    # each floor is 1e-12 times the scale of its kind (variance or cost)
    scale_v = max(v1, v2, 1.0)
    scale_r = max(rho1, rho2, 1.0)
    comps = ((v1, scale_v), (v2, scale_v), (rho1, scale_r), (rho2, scale_r))
    v1, v2, rho1, rho2 = (1e-12 * scale if x <= 0.0 else x for x, scale in comps)
    return CalibParams(v1=v1, v2=v2, rho1=rho1, rho2=rho2, p_differ=est.p_differ,
                       degenerate=any(x <= 0.0 for x, _ in comps))


def pilot(model, ruleA, ruleB, N_pilot: int, R_pilot: int, seed: int,
          threads: int = 1) -> CalibParams:
    """Estimate (v1, v2, rho1, rho2) from a small two-stage run.

    The parameters are those of ``floored_params``: a component that comes
    out at or below zero is floored and the result flagged degenerate.
    """
    if N_pilot < 100:
        raise ValueError("N_pilot must be >= 100")
    if R_pilot < 2:
        raise ValueError("R_pilot must be >= 2")
    est = estimate(model, ruleA, ruleB, N_pilot, R_pilot, seed, threads=threads)
    return floored_params(est)
