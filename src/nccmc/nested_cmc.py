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
steps the live lanes, prices them, asks the run's one rule about them and
retires the lanes that stop.  A stage supplies each lane's first decision
date (0 for a trunk, tau + 1 for a continuation), the rule (rule A for
trunks, the survivor for a continuation) and the noise as raw words; the
kernel is the one place that turns them into variates, and only for the
rows it steps.  Trunks also watch rules that end no lane: a watched rule B
is asked about its pair's first N_B lanes, each only until B first says
stop or the lane stops, which is where the pair (A, B) freezes in its own
stage one, since min(tau_A, tau_B) <= tau_A; the kernel keeps each pair's
freeze and meters what the pair's own stage one spends.  So a comparison's
stage one is rule A watching B until the pair freezes, and one value run of
rule A that watches B_1..B_K is stage one of every pair (A, B_i) at once:
``estimate_value(..., against=)`` keeps each pair's differing trunks, and
``estimate(..., trunks=)`` runs only stage two on them, with the bits of the
pair's own run at that seed.  A lane that no rule it asks can stop before a
later date (every such rule fixed, stopping from its ``stop_from``) moves
there in one exact step when the model jumps (a GBM does, a tree does not),
reading its landing date's noise.  Lane rows of state and noise move as
fixed-size records (``process_models.gather_rows`` and ``scatter_rows``),
one copy per row, not per element.  Stage two runs the trunks where rule A
survives, then those where rule B does, each group in sub-batches whose
noise and lane state fit in NOISE_BUDGET words, so its memory does not grow
with N, R or P(differ); it fetches a whole sub-batch's raw words, each
trunk's dates from its lanes' first date to J only, in one batched draw.

Everything is deterministic given the seed: the estimators draw in the
testing namespace, paths and replications are addressed by counter-based
streams, each chunk of CHUNK_SIZE paths returns its own arrays and counts,
which ``_run_chunked``, the one place that merges chunks, writes into
N-vectors and sums in chunk order, and reductions run in index order (numpy
pairwise summation), so the thread count cannot change a single bit of the
result: every thread count runs the same chunks and sub-batches.
``threads`` is the number of worker processes: on Linux the chunks run in
workers forked from the caller, which inherit the model, the rules and the
module constants, so nothing is pickled on the way in and only each chunk's
results come back; each worker's BLAS runs one thread.  The interpreter
lock serialises the per-trunk stream switches of stage two, so threads
would not scale.  Elsewhere (macOS's system BLAS is not fork-safe, Windows
has no fork) every chunk runs inline, with the same bits.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import os
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .calibration import CalibParams
from .process_models import gather_rows, scatter_rows
from .rng import NS_TESTING, SUB, TRUNK, words_per_point

# Paths per scheduling unit.  Fixed: results must not depend on it.
CHUNK_SIZE = 16384

# Stage-two words held at once (18 MB): a sub-batch's noise, each point's
# raw words held across its dates, and per lane five states' worth (its
# state, and at one date its gathered state, its variates and the stepped
# state, plus one state of headroom: rng converts raw words in small blocks,
# holding no copy of them) plus LANE_WORDS for the lane's own arrays
# (payoffs, noise index, dates, flags, temporaries).  Fixed: results must
# not depend on them.  Each worker process holds its own sub-batch, and a
# caller with workers holds none, so a larger budget raises every worker's
# peak.
NOISE_BUDGET = 9 * 2**18
LANE_WORDS = 14

# One rule evaluation costs a tenth of one asset-date simulation step.
RULE_EVAL_UNIT = 0.1


@dataclass
class WorkMeter:
    """Deterministic work counters: simulation steps and rule evaluations.

    ``steps`` counts single-asset simulation updates; a d-asset advance on
    one path counts d, over one date or in one jump over several.
    ``rule_evals`` counts elementary predictor evaluations (a committee of M
    members counts M per decision).
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


@dataclass(frozen=True, slots=True, eq=False)
class Trunks:
    """Stage one of a rule pair over N paths, kept on the paths where the rules differ.

    Row i is path paths[i] (increasing), frozen at date tau[i] with sign
    sign[i], payoff x_wedge[i] and state resume[i].  ``work`` is what the
    pair's own stage one over the N paths costs.
    """

    N: int
    paths: np.ndarray
    tau: np.ndarray
    sign: np.ndarray
    x_wedge: np.ndarray
    resume: np.ndarray
    work: WorkMeter


@dataclass(frozen=True, slots=True)
class ValueEstimate:
    """Plain Monte Carlo estimate of E[X_tau] for a single rule.

    ``pairs`` holds the ``Trunks`` of each pair a pass watched, if any.
    """

    mean: float
    var_hat: float
    stderr: float
    N: int
    work: WorkMeter
    pairs: tuple[Trunks, ...] = ()


def _skip_to(model, rules):
    """The first date at which one of ``rules`` could stop (at most J) on a
    model that jumps, where a lane asking only them moves there in one
    step; 0 on a model that does not."""
    return min(min(rule.stop_from for rule in rules), model.J) if model.jumps else 0


def _run_lanes(model, rule, first, states, payoff, noise, watched=(), until_frozen=False):
    """The date loop of both stages: advance lanes until each one stops.

    Lane i's state is at date first[i] - 1 (date 0 for first[i] = 0, which
    takes no step).  It is first stepped and asked at date first[i], or at
    the later ``_skip_to`` date, before which neither ``rule`` nor a watched
    rule can stop: it then reaches that date in one step over the dates
    between, charged as one step.  Every live lane asks ``rule`` at dates
    before J and stops at the first date it says so, and at J in any case.
    ``watched`` holds (rule B, n_B) pairs.  B ends no lane: it is asked
    about each of the first n_B lanes, while live, until it first says stop,
    and its pair (``rule``, B) freezes on the lane then, or when the lane
    stops if that comes first, as in the pair's own stage one.  With
    ``until_frozen`` a lane also stops once all its watches have frozen:
    with one watch of every lane, that is the pair's own stage one.
    ``noise(j, rows)`` gives a fresh copy of the raw words that carry lanes
    ``rows`` to date j (a jump reads its landing date's); only those rows
    become variates, in place.  ``states`` and ``payoff`` are advanced in
    place and end at each lane's stop date; the live rows of ``states``
    move as records (as both stages' ``noise`` moves its rows), so its last
    axis must be contiguous.  Returns (steps, evals, frozen): the run's
    counts and, per watch, the date, sign(tau - tau_B), payoff and state at
    which each of its lanes froze, and [steps, evals], what the pair's own
    stage one spends on them: each step of a lane up to its freeze date,
    and an ask of both rules at each date of it before J.
    """
    J, n = model.J, len(first)
    alive = np.ones(n, dtype=bool)
    watching = [np.arange(n) < n_b for _, n_b in watched]
    frozen = [(np.zeros(n_b, dtype=np.int64), np.zeros(n_b, dtype=np.int8), np.zeros(n_b),
               np.empty_like(states[:n_b]), [0, 0]) for _, n_b in watched]
    steps = evals = 0
    skip = _skip_to(model, (rule, *(rule_b for rule_b, _ in watched)))
    # with skip at most 1, no lane's first move spans more than one date
    start = np.maximum(first, skip) if skip > 1 else first
    for j in range(int(start.min()), J + 1):
        rows = np.nonzero(alive & (start <= j))[0]
        if rows.size == 0:
            continue
        lane_states = gather_rows(states, rows)
        if j > 0:
            z = model.variates(noise(j, rows))
            if skip > 1:
                # a lane's first move spans the dates from its state's, max(first - 1, 0)
                h = np.where(start[rows] == j, j - np.maximum(first[rows] - 1, 0), 1)
                lane_states = model.step_batch(j, lane_states, z, h)
            else:
                lane_states = model.step_batch(j, lane_states, z)
            lane_payoff = model.payoff_batch(j, lane_states)
            scatter_rows(states, rows, lane_states)
            payoff[rows] = lane_payoff
            steps += rows.size * model.step_units
        else:
            lane_payoff = payoff[rows]
        if j < J:
            stop = rule.decide_batch(j, lane_states, lane_payoff)
            evals += rows.size * rule.eval_cost
        else:
            stop = np.ones(rows.size, dtype=bool)
        for (rule_b, _), open_, (date, sign, x, at, meter) in zip(watched, watching, frozen):
            ask = np.nonzero(open_[rows])[0]
            if ask.size == 0:
                continue
            if j > 0:
                meter[0] += ask.size * model.step_units
            if j < J:
                # rows are independent: a watch of every live lane asks about them as they are
                said = rule_b.decide_batch(j, *((lane_states, lane_payoff) if ask.size == rows.size
                                                else (gather_rows(lane_states, ask), lane_payoff[ask])))
                evals += ask.size * rule_b.eval_cost
                meter[1] += ask.size * (rule.eval_cost + rule_b.eval_cost)
            else:
                said = np.ones(ask.size, dtype=bool)
            hit = said | stop[ask]
            froze, lanes = ask[hit], rows[ask[hit]]
            date[lanes], sign[lanes], x[lanes] = j, said[hit].astype(np.int8) - stop[froze], lane_payoff[froze]
            scatter_rows(at, lanes, gather_rows(lane_states, froze))
            open_[lanes] = False
        if until_frozen:
            stop = ~np.any([open_[rows] for open_ in watching], axis=0)
        alive[rows[stop]] = False
        if not alive.any():
            break
    return steps, evals, frozen


def _trunk_chunk(model, rule, watched, seed: int, p0: int, n: int, until_frozen=False):
    """Stage one for paths [p0, p0+n): ``rule`` runs, watching each (rule B, N_B) of ``watched``.

    Path p draws point p of each date's TRUNK stream, and B is asked about
    the paths below N_B.  Returns (payoff, steps, evals, kept, work): each
    path's payoff at its stop date, the run's counts, then per watch, in
    flat lists, its pair's differing trunks (paths, tau, sign, x_wedge,
    resume) and the (steps, evals) of the pair's own stage one.
    """
    states = model.init_states(n)
    payoff = model.payoff_batch(0, states)

    def noise(j, rows):
        return gather_rows(model.draw(seed, NS_TESTING, TRUNK, 0, j, n, first_point=p0), rows)

    steps, evals, frozen = _run_lanes(model, rule, np.zeros(n, dtype=np.int64), states, payoff, noise,
                                      [(rule_b, min(max(n_b - p0, 0), n)) for rule_b, n_b in watched],
                                      until_frozen)
    kept, work = [], []
    for date, sign, x, at, meter in frozen:
        k = np.nonzero(sign)[0]
        kept += [p0 + k, date[k], sign[k], x[k], gather_rows(at, k)]
        work += meter
    return payoff, steps, evals, kept, work


def _sub_block(model, ruleA, ruleB, seed: int, paths, tau, sign, x_wedge, resume, R: int):
    """Stage two for some trunks: R continuations per differing trunk.

    Row i is trunk paths[i], frozen at tau[i] with sign[i], payoff x_wedge[i]
    and state resume[i].  Trunk p owns one SUB stream (key date 0) whose
    point (j-1)*R + (r-1) is replication r's draw for date j.  A differing
    trunk's lanes start at tau + 1 and ask only the surviving rule: the
    trunks with S > 0 run on rule A, then those with S < 0 on rule B.  Each
    group walks its trunks in sub-batches, one draw per sub-batch putting
    the raw words of each trunk's dates d0..J in a ragged buffer, d0 being
    its lanes' first date (tau + 1, or the survivor's ``_skip_to`` date when
    a lane jumps there); each date converts only the live lanes' rows.  A
    sub-batch holds at most NOISE_BUDGET words of noise and lane state, a
    trunk's share being its points' raw words plus R lanes of five states'
    worth (four held, one of headroom) and LANE_WORDS each (a trunk whose
    own share is larger runs alone).
    Returns (means, variances, steps, evals) per row; rows with S = 0 stay
    zero and cost nothing.
    """
    n = len(tau)
    means = np.zeros(n)
    variances = np.zeros(n)
    width = model.draw_width
    steps = evals = 0
    # S > 0: tau_A > tau_B, so rule A runs on
    for rule, s in ((ruleA, 1), (ruleB, -1)):
        diff = np.nonzero(sign == s)[0]
        d0 = np.maximum(tau[diff] + 1, _skip_to(model, (rule,)))
        points = (model.J + 1 - d0) * R
        ends = np.cumsum(points * words_per_point(width) + R * (5 * width + LANE_WORDS))
        lo = 0
        while lo < diff.size:
            spent = ends[lo - 1] if lo else 0
            hi = max(lo + 1, int(np.searchsorted(ends, spent + NOISE_BUDGET, side="right")))
            k, counts, k0 = diff[lo:hi], points[lo:hi], d0[lo:hi]
            offsets = np.cumsum(counts) - counts
            buf = model.draw(seed, NS_TESTING, SUB, paths[k], 0, counts, first_point=(k0 - 1) * R)
            # lane (i, r) reads point (j - d0_i)*R + r of trunk i's block at date j
            base = np.repeat(offsets - k0 * R, R) + np.tile(np.arange(R), k.size)
            lane_xw = np.repeat(x_wedge[k], R)
            payoff = lane_xw.copy()
            s_steps, s_evals, _ = _run_lanes(
                model, rule, np.repeat(tau[k] + 1, R), np.repeat(resume[k], R, axis=0),
                payoff, lambda j, rows: gather_rows(buf, base[rows] + j * R))
            vals = (s * (payoff - lane_xw)).reshape(k.size, R)
            means[k] = vals.mean(axis=1)
            if R > 1:
                variances[k] = vals.var(axis=1, ddof=1)
            steps, evals = steps + s_steps, evals + s_evals
            lo = hi
            del buf  # before the next sub-batch's buffer, or both may stay resident
    return means, variances, steps, evals


# The task of this worker process, set by _set_task when the pool forks it.
_task = None


def _openblas(symbol: str, restype, *argtypes):
    """The C function ``symbol`` of the OpenBLAS bundled with numpy, or None where there is none."""
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        try:
            # numpy has loaded it already, so this opens the same library
            fn = getattr(ctypes.CDLL(path), symbol, None)
        except OSError:
            continue
        if fn is not None:
            fn.restype, fn.argtypes = restype, argtypes
            return fn
    return None


def _set_task(task):
    """Start a worker: keep its task, and give its BLAS one thread.

    Every worker is one process on one CPU's share of the chunks, so BLAS
    threads of its own would only oversubscribe the CPUs.
    """
    global _task
    _task = task
    set_threads = _openblas("scipy_openblas_set_num_threads64_", None, ctypes.c_int)
    if set_threads is not None:
        set_threads(1)


def _call_task(start: int, n: int):
    return _task(start, n)


def _run_chunked(task, N: int, threads: int):
    """Run task(start, size) on every chunk of CHUNK_SIZE of N paths and merge the results.

    N must be at least 2 and threads at least 1.  Each task returns
    (arrays, counts): the chunk's rows of some N-vectors and some integer
    counts, and may add a third item, some arrays with rows for some of its
    paths only.  Returns (vectors, totals): each array written at its
    chunk's start, then each third-item array's rows of every chunk joined
    in chunk order (so they hold only those rows), and each count summed in
    chunk order.  With
    threads > 1 and more than one chunk, on Linux, the chunks run in
    min(threads, chunks) worker processes forked from the caller: each
    worker inherits ``task`` (and through it the model, the rules and the
    module constants) and returns only its chunks' results.  Otherwise they
    run inline.  Either way the same chunks run and merge in chunk order,
    so the result is identical for any thread count.
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    starts = range(0, N, CHUNK_SIZE)
    sizes = [min(CHUNK_SIZE, N - s) for s in starts]
    workers = min(threads, len(sizes))
    if workers <= 1 or sys.platform != "linux":
        # inline: one worker would only add a fork and a copy of every
        # result, and off Linux fork is missing (Windows) or unsafe under
        # the system BLAS (macOS)
        pool = contextlib.nullcontext()
    else:
        # imported here, so that a run without workers never holds these
        # modules (0.8 MB resident)
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # a fork pool starts all its workers at once, so never more than chunks
        pool = ProcessPoolExecutor(max_workers=workers, mp_context=multiprocessing.get_context("fork"),
                                   initializer=_set_task, initargs=(task,))
    vectors, kept, counts = [], [], []
    with pool as executor:
        results = executor.map(_call_task, starts, sizes) if executor else map(task, starts, sizes)
        for start, (arrays, chunk_counts, *rows) in zip(starts, results):
            vectors = vectors or [np.empty(N, dtype=a.dtype) for a in arrays]
            for vec, a in zip(vectors, arrays):
                vec[start:start + a.size] = a
            kept.append(rows[0] if rows else ())
            counts.append(chunk_counts)
    return vectors + [np.concatenate(chunks) for chunks in zip(*kept)], [sum(c) for c in zip(*counts)]


def _mean_var(x: np.ndarray) -> tuple[float, float]:
    """np.mean(x) and np.var(x, ddof=1), bit for bit, overwriting x.

    These are np.var's own steps, but the squared deviations go into x
    instead of a second array the size of x.
    """
    m = np.mean(x)
    np.square(np.subtract(x, m, out=x), out=x)
    return float(m), float(x.sum() / (len(x) - 1))


def estimate(model, ruleA, ruleB, N: int, R: int, seed: int, threads: int = 1,
             trunks: Optional[Trunks] = None) -> NestedEstimate:
    """Full two-stage run: N trunks, R replications per differing trunk.

    delta_hat averages the per-trunk replication means (zero where the rules
    coincide).  v2_hat is the across-trunk average of the within-trunk sample
    variance (needs R >= 2); v1_hat is the variance of the per-trunk means
    minus v2_hat/R, floored at zero.  Deterministic for fixed seed whatever
    the thread count.  ``trunks``, the pair's stage one over N paths from
    ``estimate_value``'s pass at this seed, replaces stage one: only stage
    two runs, with the same bits, and ``work_trunk`` is zero (the pass
    reports that work, and ``trunks.work`` the pair's share).
    """
    if R < 1:
        raise ValueError("R must be >= 1")
    if trunks is not None and trunks.N != N:
        raise ValueError("trunks must hold a pass over N paths")

    def task(start: int, n: int):
        if trunks is None:
            # rule A runs until the pair freezes: B watched on every lane
            _, _, _, rows, work = _trunk_chunk(model, ruleA, ((ruleB, N),), seed, start, n, until_frozen=True)
        else:
            lo, hi = np.searchsorted(trunks.paths, (start, start + n))
            rows = tuple(a[lo:hi] for a in (trunks.paths, trunks.tau, trunks.sign, trunks.x_wedge, trunks.resume))
            work = [0, 0]
        m, v, s_steps, s_evals = _sub_block(model, ruleA, ruleB, seed, *rows, R)
        means, variances = np.zeros(n), np.zeros(n)
        means[rows[0] - start], variances[rows[0] - start] = m, v
        return (means, variances), (*work, s_steps, s_evals, m.size)

    (means, variances), (t_steps, t_evals, s_steps, s_evals, differ) = _run_chunked(task, N, threads)
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


def estimate_value(model, rule, N: int, seed: int, threads: int = 1, against=()) -> ValueEstimate:
    """Plain Monte Carlo for E[X_tau] of one rule over N paths.

    Runs stage one against that rule alone, so each path's x_wedge is its
    payoff at the rule's stopping date.  ``against`` holds (rule B, N_B)
    pairs; the same pass then watches each rule B on the first N_B paths,
    each until B first stops or the rule does, where the pair (rule, B)
    freezes in its own stage one.  So one pass serves every pair: ``pairs``
    holds each one's ``Trunks`` over its first N_B paths, as its own stage
    one at this seed would find them, for ``estimate(..., trunks=)``.  The
    pass runs max(N, every N_B) paths and ``work`` counts all of it; the
    value reads the first N.
    """
    # _run_chunked checks only the longest, max(N, every N_B)
    if min((N, *(n_b for _, n_b in against))) < 2:
        raise ValueError("N must be >= 2")
    # a jump over a different span would move the value's bits and the pairs'
    if max(_skip_to(model, (rule, *(rule_b for rule_b, _ in against))), 1) != max(_skip_to(model, (rule,)), 1):
        raise ValueError("a watched rule must not stop before the rule can")

    def task(start: int, n: int):
        payoff, steps, evals, kept, work = _trunk_chunk(model, rule, against, seed, start, n)
        return (payoff,), [steps, evals, *work], kept

    (values, *kept), (steps, evals, *work) = _run_chunked(task, max((N, *(n_b for _, n_b in against))), threads)
    mean, var_hat = _mean_var(values[:N])
    pairs = tuple(Trunks(n_b, *kept[5 * i:5 * i + 5], WorkMeter(*work[2 * i:2 * i + 2]))
                  for i, (_, n_b) in enumerate(against))
    return ValueEstimate(mean=mean, var_hat=var_hat, stderr=float(np.sqrt(var_hat / N)), N=N,
                         work=WorkMeter(steps, evals), pairs=pairs)


def floored(x: float, *kind: float) -> float:
    """x, or 1e-12 times the largest of its kind's values and 1 when x is at or below zero."""
    return 1e-12 * max((*kind, 1.0)) if x <= 0.0 else x


def floored_params(est: NestedEstimate) -> CalibParams:
    """Calibration parameters (v1, v2, rho1, rho2) measured from a finished run.

    rho1 is trunk work per trunk; rho2 is subsample work per replication slot
    (averaged over all N*R slots, so coinciding trunks dilute it, exactly as
    they dilute realized cost).  Estimates at or below zero (the rules never
    disagreed, a variance vanished, or every trunk stopped at date 0) are
    floored at a tiny positive value and the result is flagged degenerate.
    """
    v = (est.v1_hat, est.v2_hat if est.v2_hat is not None else 0.0)
    rho = (est.work_trunk.units() / est.N, est.work_sub.units() / (est.N * est.R))
    # each floor is 1e-12 times the scale of its kind (variance or cost)
    v1, v2, rho1, rho2 = (floored(x, *kind) for kind in (v, rho) for x in kind)
    return CalibParams(v1=v1, v2=v2, rho1=rho1, rho2=rho2, p_differ=est.p_differ,
                       degenerate=any(x <= 0.0 for x in v + rho))


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
