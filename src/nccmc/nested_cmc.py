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

Everything is deterministic given (seed, namespace): paths and replications
are addressed by counter-based streams, partial results land in preallocated
index-addressed buffers, and reductions run in index order (numpy pairwise
summation), so chunking and thread count cannot change a single bit of the
result.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .calibration import CalibParams
from .rng import NS_TESTING, SUB, TRUNK
from .stopping_rules import FixedDateRule

# Paths per scheduling unit.  Fixed: results must not depend on it.
CHUNK_SIZE = 16384

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


def _trunk_block(model, ruleA, ruleB, seed: int, namespace: int, p0: int, n: int):
    """Stage one for paths [p0, p0+n): runs to the earlier stopping date.

    Returns (tau, sign, x_wedge, resume_states, steps, evals) with resume
    states in a row buffer matching the model's state layout.
    """
    J = model.J
    states = model.init_states(n)
    payoff = np.asarray(model.payoff_batch(0, states), dtype=float)
    tau = np.zeros(n, dtype=np.int64)
    sign = np.zeros(n, dtype=np.int8)
    x_wedge = np.zeros(n)
    resume = states.copy()
    alive = np.ones(n, dtype=bool)
    steps = 0
    evals = 0
    cost_both = ruleA.eval_cost + ruleB.eval_cost
    for j in range(J + 1):
        live = np.nonzero(alive)[0]
        live_states = states[live]
        if j > 0:
            draws = model.draw(seed, namespace, TRUNK, 0, j, n, first_point=p0)
            live_states = model.step_batch(j, live_states, draws[live])
            states[live] = live_states
            payoff[live] = model.payoff_batch(j, live_states)
            steps += live.size * model.step_units
        if j < J:
            live_payoff = payoff[live]
            sA = ruleA.decide_batch(j, live_states, live_payoff)
            sB = ruleB.decide_batch(j, live_states, live_payoff)
            evals += live.size * cost_both
        else:
            sA = sB = np.ones(live.size, dtype=bool)
        newly = sA | sB
        idx = live[newly]
        if idx.size:
            tau[idx] = j
            sign[idx] = np.where(sA[newly] & sB[newly], 0, np.where(sA[newly], -1, 1))
            x_wedge[idx] = payoff[idx]
            resume[idx] = states[idx]
            alive[idx] = False
        if not alive.any():
            break
    return tau, sign, x_wedge, resume, steps, evals


def _sub_lanes(model, ruleA, ruleB, seed: int, namespace: int,
               trunk_index, tau, sign, x_wedge, resume_rows, R: int):
    """Stage two over (trunk, replication) lanes, date-synchronous.

    All inputs are restricted to differing trunks (sign != 0 everywhere).
    Each trunk owns one SUB stream (key date 0) holding its continuation
    noise for all dates and replications at once: point (j-1)*R + (r-1) is
    replication r's draw for date j.  Returns (vals, steps, evals) with vals
    of shape (n_trunks, R).
    """
    nd = len(tau)
    J = model.J
    vals = np.empty((nd, R))
    steps = 0
    evals = 0
    if nd == 0:
        return vals, steps, evals

    # One draw call per trunk covers dates tau+1..J for all replications;
    # blocks land in a date-aligned dense tensor so the date loop below can
    # gather with one fancy index.
    width = model.draw_width
    dense = np.zeros((nd, J, R, width))
    for k in range(nd):
        t0 = int(tau[k])
        block = model.draw(seed, namespace, SUB, int(trunk_index[k]), 0,
                           (J - t0) * R, first_point=t0 * R)
        dense[k, t0:] = block.reshape(J - t0, R, width)

    states = np.repeat(resume_rows, R, axis=0)
    lane_sign = np.repeat(sign, R).astype(float)
    lane_xw = np.repeat(x_wedge, R)
    # S > 0 means tau_A > tau_B: rule A is still running, and vice versa.
    lane_survivor_a = np.repeat(sign > 0, R)
    alive = np.ones(nd * R, dtype=bool)
    vals_flat = vals.reshape(-1)
    for j in range(int(tau.min()) + 1, J + 1):
        started = np.repeat(tau < j, R)
        rows = np.nonzero(alive & started)[0]
        if rows.size == 0:
            continue
        k_arr = rows // R
        r_arr = rows - k_arr * R
        dj = dense[k_arr, j - 1, r_arr]
        stepped = model.step_batch(j, states[rows], dj)
        states[rows] = stepped
        pay = np.asarray(model.payoff_batch(j, stepped), dtype=float)
        steps += rows.size * model.step_units
        if j < J:
            stop = np.empty(rows.size, dtype=bool)
            for rule, grp in ((ruleA, lane_survivor_a[rows]), (ruleB, ~lane_survivor_a[rows])):
                if grp.any():
                    stop[grp] = rule.decide_batch(j, stepped[grp], pay[grp])
                    evals += int(np.count_nonzero(grp)) * rule.eval_cost
        else:
            stop = np.ones(rows.size, dtype=bool)
        done = rows[stop]
        vals_flat[done] = lane_sign[done] * (pay[stop] - lane_xw[done])
        alive[done] = False
        if not alive.any():
            break
    return vals, steps, evals


def _sub_block(model, ruleA, ruleB, seed: int, namespace: int, p0: int,
               tau, sign, x_wedge, resume, R: int):
    """Stage two for one trunk block: R continuations per differing trunk.

    Returns (means, variances, steps, evals); rows for trunks with S = 0
    stay zero and cost nothing.
    """
    n = len(tau)
    means = np.zeros(n)
    variances = np.zeros(n)
    diff = np.nonzero(sign != 0)[0]
    if diff.size == 0:
        return means, variances, 0, 0
    vals, steps, evals = _sub_lanes(
        model, ruleA, ruleB, seed, namespace,
        p0 + diff, tau[diff], sign[diff], x_wedge[diff], resume[diff], R)
    means[diff] = vals.mean(axis=1)
    if R > 1:
        variances[diff] = vals.var(axis=1, ddof=1)
    return means, variances, steps, evals


def _chunks(N: int):
    for start in range(0, N, CHUNK_SIZE):
        yield start, min(CHUNK_SIZE, N - start)


def _run_chunked(task, N: int, threads: int):
    """Run task(start, size) for every chunk, in parallel if asked.

    Results are collected by chunk index, so the reduction that follows is
    identical for any thread count.
    """
    jobs = list(_chunks(N))
    if threads <= 1:
        return [task(s, n) for s, n in jobs]
    out = [None] * len(jobs)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = {pool.submit(task, s, n): k for k, (s, n) in enumerate(jobs)}
        for fut, k in futures.items():
            out[k] = fut.result()
    return out


def estimate(model, ruleA, ruleB, N: int, R: int, seed: int,
             namespace: int = NS_TESTING, threads: int = 1) -> NestedEstimate:
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
    signs = np.empty(N, dtype=np.int8)

    def task(start: int, n: int):
        tau, sign, xw, resume, t_steps, t_evals = _trunk_block(
            model, ruleA, ruleB, seed, namespace, start, n)
        m, v, s_steps, s_evals = _sub_block(
            model, ruleA, ruleB, seed, namespace, start, tau, sign, xw, resume, R)
        means[start:start + n] = m
        variances[start:start + n] = v
        signs[start:start + n] = sign
        return t_steps, t_evals, s_steps, s_evals

    t_steps, t_evals, s_steps, s_evals = map(sum, zip(*_run_chunked(task, N, threads)))
    work_trunk = WorkMeter(t_steps, t_evals)
    work_sub = WorkMeter(s_steps, s_evals)

    delta_hat = float(np.mean(means))
    var_means = float(np.var(means, ddof=1))
    if R >= 2:
        v2_hat = float(np.mean(variances))
        v1_hat = max(var_means - v2_hat / R, 0.0)
        stderr = float(np.sqrt(v1_hat / N + v2_hat / (R * N)))
    else:
        v2_hat = None
        v1_hat = var_means
        stderr = float(np.sqrt(v1_hat / N))
    p_differ = float(np.count_nonzero(signs) / N)
    return NestedEstimate(delta_hat=delta_hat, N=N, R=R, v1_hat=v1_hat, v2_hat=v2_hat,
                          stderr=stderr, work_trunk=work_trunk, work_sub=work_sub,
                          p_differ=p_differ)


def estimate_value(model, rule, N: int, seed: int,
                   namespace: int = NS_TESTING, threads: int = 1) -> ValueEstimate:
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
        _, _, x_wedge, _, steps, evals = _trunk_block(model, rule, hold, seed, namespace, start, n)
        values[start:start + n] = x_wedge
        return steps, evals

    work = WorkMeter(*map(sum, zip(*_run_chunked(task, N, threads))))
    var_hat = float(np.var(values, ddof=1))
    return ValueEstimate(mean=float(np.mean(values)), var_hat=var_hat,
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
          namespace: int = NS_TESTING, threads: int = 1) -> CalibParams:
    """Estimate (v1, v2, rho1, rho2) from a small two-stage run.

    The parameters are those of ``floored_params``: a component that comes
    out at or below zero is floored and the result flagged degenerate.
    """
    if N_pilot < 100:
        raise ValueError("N_pilot must be >= 100")
    if R_pilot < 2:
        raise ValueError("R_pilot must be >= 2")
    est = estimate(model, ruleA, ruleB, N_pilot, R_pilot, seed,
                   namespace=namespace, threads=threads)
    return floored_params(est)
