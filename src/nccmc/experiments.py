"""Run settings, the one calibration step, and the benchmark experiment drivers.

``calibrate`` turns a pilot into a run's R and trunk count under one
``RunSettings``; the CLI and every study size their runs with it.  Three
studies on the Bermudan max-call benchmark, each built from the same
ingredients: train rules on one stream namespace, run the two-stage
estimator on the other at a pilot-calibrated R, and report variances next
to realized work so budget comparisons are honest.

``param_uncertainty_study`` prices the gap between the rule trained at the
true volatility and rules trained at perturbed volatilities.  The same
driving noise trains every rule: re-simulating with a different volatility
reuses the Brownian increments, so two fitted rules differ only through the
volatility and stay highly correlated.

``qcv_estimate`` treats a cheap rule's value as a control variate with
unknown mean for a costly rule: price the cheap rule on many paths, the
difference on few, and compare against pricing the costly rule directly.

``multilevel_estimate`` telescopes the costliest rule in a fidelity ladder
into a cheap base estimate plus per-level increment corrections, each with
its own calibrated replication count and a global budget allocation.
Control variates are the two-level case of that ladder, so both studies run
one driver, ``_telescope``, which also simulates the pool their rules train on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from . import rng
from .calibration import (
    CalibParams,
    CalibReport,
    choose_R,
    ml_allocation,
    trunks_for_budget,
    v_profile,
)
from .nested_cmc import (NestedEstimate, ValueEstimate, estimate, estimate_value, floored, floored_params,
                         pilot)
from .process_models import GbmModel, GbmParams, simulate_training_paths
from .stopping_rules import basis_size, train_committee, train_tvr


@dataclass(frozen=True, slots=True, kw_only=True)
class RunSettings:
    """Seeds, path counts, pilot size and threads of a run.

    ``replications`` overrides the pilot-calibrated R when set; ``budget``,
    in work units, buys the trunk count in place of ``testing_paths``.
    """

    seed_training: int
    seed_testing: int
    training_paths: int = 100_000
    testing_paths: int = 100_000
    n_pilot: int = 2000
    r_pilot: int = 64
    replications: Optional[int] = None
    budget: Optional[float] = None
    threads: int = 1

    def __post_init__(self) -> None:
        if self.testing_paths < 2:
            raise ValueError("testing_paths must be >= 2")
        if self.n_pilot < 100:
            raise ValueError("n_pilot must be >= 100")
        if self.r_pilot < 2:
            raise ValueError("r_pilot must be >= 2")
        if self.replications is not None and self.replications < 1:
            raise ValueError("replications must be >= 1 when set")
        if self.budget is not None and not 0 < self.budget < math.inf:
            raise ValueError("budget must be positive and finite when set")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")


@dataclass(frozen=True, slots=True, kw_only=True)
class ExperimentConfig(RunSettings):
    """Run settings plus the model and the study knobs a driver may ignore.

    Drivers that compare estimators at matched budget require ``budget``.
    """

    params: GbmParams
    sigma_hats: tuple[float, ...] = ()
    ladder: tuple[int, ...] = ()
    committee_members: int = 1000
    member_size: int = 4000

    def __post_init__(self) -> None:
        if self.training_paths < basis_size(self.params.d):
            raise ValueError("training_paths smaller than the regression basis")
        # zero-argument super() fails in a slotted dataclass
        RunSettings.__post_init__(self)
        if not all(0 < s < math.inf for s in self.sigma_hats):
            raise ValueError("sigma_hats must be positive finite volatilities")
        if any(b >= a for a, b in zip(self.ladder[1:], self.ladder)):
            raise ValueError("ladder must be strictly increasing")
        if self.ladder and self.ladder[0] < 1:
            raise ValueError("ladder entries must be >= 1")
        if self.committee_members < 1:
            raise ValueError("committee_members must be >= 1")
        if self.member_size < basis_size(self.params.d):
            raise ValueError("member_size smaller than the regression basis")


def calibrate(model, ruleA, ruleB, run: RunSettings, tag: str) -> tuple[CalibParams, int, CalibReport, int]:
    """Pilot a rule pair at seed tag ``tag`` and size its run: (pilot, R, report, N).

    R is ``choose_R``'s; N is the trunk count ``run.budget`` buys at R, or
    ``run.testing_paths`` without a budget.
    """
    cal = pilot(model, ruleA, ruleB, run.n_pilot, run.r_pilot,
                rng.derive_seed(run.seed_testing, tag), threads=run.threads)
    R, rep = choose_R(cal, run.replications)
    N = run.testing_paths if run.budget is None else trunks_for_budget(cal, R, run.budget)
    return cal, R, rep, N


# --- parameter-uncertainty study -------------------------------------------

@dataclass(slots=True)
class Table1Row:
    """One study column: the price impact of one misestimated volatility."""

    sigma_hat: float
    delta_hat: float
    stderr: float
    value_a: float
    value_a_stderr: float
    value_b: float
    p_differ: float
    v1: float
    v2: float
    rho1: float
    rho2: float
    R_star: float
    R_used: int
    gamma_star: float
    speedup: float
    N: int
    work_units: float
    degenerate: bool


def param_uncertainty_study(cfg: ExperimentConfig) -> list[Table1Row]:
    """Price E[X at the true-volatility rule minus X at each perturbed rule].

    Trains the reference rule, then one rule per other distinct perturbed
    volatility on the same driving noise (a volatility equal to the true
    one is the reference rule itself).  Pilots each pair and calibrates its
    R and trunk count, then runs one stage-one pass: the reference rule's
    value run, watching every perturbed rule, which yields each pair's
    trunks; each pair's stage two runs on its own trunks.  Every run after
    the pilots shares the value run's seed, so each row equals the pair's
    own ``estimate`` at that seed, and its ``work_units`` is that run's
    cost.  The perturbed rule's own value is reported as the reference
    value minus the estimated difference.
    """
    if not cfg.sigma_hats:
        raise ValueError("sigma_hats must be nonempty")
    p = cfg.params
    model = GbmModel(p)
    rules = {}
    for sigma in (p.sigma, *cfg.sigma_hats):
        if sigma not in rules:
            rules[sigma] = train_tvr(simulate_training_paths(replace(p, sigma=sigma), cfg.training_paths,
                                                             cfg.seed_training))
    ruleA = rules[p.sigma]
    cals = [calibrate(model, ruleA, rules[sh], cfg, f"study-pilot-{i}") for i, sh in enumerate(cfg.sigma_hats)]
    seed = rng.derive_seed(cfg.seed_testing, "study-value")
    val = estimate_value(model, ruleA, cfg.testing_paths, seed, threads=cfg.threads,
                         against=[(rules[sh], N) for sh, (*_, N) in zip(cfg.sigma_hats, cals)])

    rows: list[Table1Row] = []
    for sh, (cal, R_used, rep, N), trunks in zip(cfg.sigma_hats, cals, val.pairs):
        est = estimate(model, ruleA, rules[sh], N, R_used, seed, threads=cfg.threads, trunks=trunks)
        rows.append(Table1Row(
            sigma_hat=sh,
            delta_hat=est.delta_hat,
            stderr=est.stderr,
            value_a=val.mean,
            value_a_stderr=val.stderr,
            value_b=val.mean - est.delta_hat,
            p_differ=est.p_differ,
            v1=cal.v1,
            v2=cal.v2,
            rho1=cal.rho1,
            rho2=cal.rho2,
            R_star=rep.R_star,
            R_used=R_used,
            gamma_star=rep.gamma_star,
            speedup=1.0 / rep.gamma_star,
            N=est.N,
            work_units=trunks.work.units() + est.work_sub.units(),
            degenerate=cal.degenerate,
        ))
    return rows


# --- telescoping driver -------------------------------------------------------

# derive_seed tags of each study's runs: {i} is the increment, {run} the pass
# (the R = 1 one first, then the calibrated one)
_QCV_TAGS = dict(probe_base="qcv-probe-b", probe_fine="qcv-probe-a", pilot="qcv-pilot",
                 base="qcv-base-{run}", inc="qcv-corr-{run}", direct="qcv-simple",
                 runs=("r1", "rstar"))
_ML_TAGS = dict(probe_base="ml-probe-base", probe_fine="ml-probe-fine", pilot="ml-pilot-{i}",
                base="ml-base-{run}", inc="ml-inc-{i}-{run}", direct="ml-direct",
                runs=("plain", "nested"))


@dataclass(slots=True)
class _LadderRun:
    """One telescoping pass: base value plus one correction per increment."""

    base: ValueEstimate
    incs: list[NestedEstimate]
    mean: float
    var: float


def _telescope(cfg: ExperimentConfig, train, tags: dict):
    """Price the last rule ``train`` fits (cheapest first) by telescoping, and directly.

    ``train(pool)`` fits the study's rules on ``cfg.training_paths`` paths
    simulated at ``cfg.seed_training``; the pool is freed before any
    estimator runs.  Increment i corrects rule i-1's value to rule i's with
    a nested run at its own pilot-calibrated R.  Path counts come from one
    budget allocation over the base level's probed variance and cost and
    each increment's v1 + v2/R and rho1 + rho2 R; a base variance at or
    below zero is floored by ``floored`` at 1e-12, as a pilot's are.  The
    ladder runs once at R = 1 everywhere and once calibrated; the finest
    rule is also priced directly at the same budget.  Returns (each
    increment's ``calibrate`` result, R = 1 pass, calibrated pass, direct
    value).
    """
    if cfg.budget is None:
        raise ValueError("a telescoping study needs a work budget")
    # the pool is an argument only: it dies when train returns
    rules = train(simulate_training_paths(cfg.params, cfg.training_paths, cfg.seed_training))
    model = GbmModel(cfg.params)

    def seed(key: str, **kw) -> int:
        return rng.derive_seed(cfg.seed_testing, tags[key].format(**kw))

    L = len(rules) - 1
    probe0 = estimate_value(model, rules[0], cfg.n_pilot, seed("probe_base"), threads=cfg.threads)
    probeL = probe0 if L == 0 else estimate_value(
        model, rules[-1], cfg.n_pilot, seed("probe_fine"), threads=cfg.threads)
    cals = [calibrate(model, rules[i], rules[i - 1], cfg, tags["pilot"].format(i=i))
            for i in range(1, L + 1)]

    def run_ladder(Rs: list[int], run: str) -> _LadderRun:
        levels = [(floored(probe0.var_hat),
                   probe0.work.units() / probe0.N)]
        levels += [(cal.v1 + cal.v2 / R, cal.rho1 + cal.rho2 * R) for (cal, *_), R in zip(cals, Rs)]
        # the estimators need two samples for a variance
        counts = [max(2, c) for c in ml_allocation(levels, cfg.budget)]
        base = estimate_value(model, rules[0], counts[0], seed("base", run=run),
                              threads=cfg.threads)
        incs = [
            estimate(model, rules[i], rules[i - 1], counts[i], Rs[i - 1],
                     seed("inc", i=i, run=run), threads=cfg.threads)
            for i in range(1, L + 1)
        ]
        return _LadderRun(base, incs,
                          mean=base.mean + sum(e.delta_hat for e in incs),
                          var=base.stderr ** 2 + sum(e.stderr ** 2 for e in incs))

    plain = run_ladder([1] * L, tags["runs"][0])
    nested = run_ladder([R for _, R, _, _ in cals], tags["runs"][1])
    n_direct = max(2, int(cfg.budget / (probeL.work.units() / probeL.N)))
    direct = estimate_value(model, rules[-1], n_direct, seed("direct"), threads=cfg.threads)
    return cals, plain, nested, direct


# --- quasi-control-variate study --------------------------------------------

@dataclass(slots=True)
class QcvReport:
    """Three estimators of the costly rule's value at one budget."""

    mu_b: float
    mu_b_stderr: float
    mu_simple: float
    mu_qcv: float
    mu_qcv_nested: float
    var_simple: float
    var_qcv: float
    var_qcv_nested: float
    work_simple: float
    work_qcv: float
    work_qcv_nested: float
    budget: float
    n_simple: int
    alloc_qcv: tuple[int, int]
    alloc_qcv_nested: tuple[int, int]
    R_used: int
    pilot_params: CalibParams
    calibration: CalibReport
    measured_gain: float


def qcv_estimate(cfg: ExperimentConfig) -> QcvReport:
    """Price a costly committee rule three ways at one work budget.

    Direct Monte Carlo on the costly rule; a cheap-rule baseline plus a
    coupled difference correction at R=1; and the same with the pilot-
    calibrated R.  This is the two-level telescoping ladder (cheap rule,
    costly rule).  ``measured_gain`` recomputes the matched-budget variance
    ratio from the main run's own component estimates, for comparison
    against the pilot's prediction.
    """
    ((cal, R, rep, _),), plain, nested, simple = _telescope(
        cfg, lambda pool: [train_tvr(pool), train_committee(pool, cfg.committee_members, cfg.member_size)],
        _QCV_TAGS)

    if R >= 2 and not cal.degenerate:
        run_params = floored_params(nested.incs[0])
        measured_gain = v_profile(run_params, R) / v_profile(run_params, 1)
    else:
        measured_gain = 1.0

    def work(run: _LadderRun) -> float:  # (base + trunk) + sub: the order sets the last bit
        corr, = run.incs
        return run.base.work.units() + corr.work_trunk.units() + corr.work_sub.units()

    return QcvReport(
        mu_b=nested.base.mean,
        mu_b_stderr=nested.base.stderr,
        mu_simple=simple.mean,
        mu_qcv=plain.mean,
        mu_qcv_nested=nested.mean,
        var_simple=simple.stderr ** 2,
        var_qcv=plain.var,
        var_qcv_nested=nested.var,
        work_simple=simple.work.units(),
        work_qcv=work(plain),
        work_qcv_nested=work(nested),
        budget=cfg.budget,
        n_simple=simple.N,
        alloc_qcv=(plain.base.N, plain.incs[0].N),
        alloc_qcv_nested=(nested.base.N, nested.incs[0].N),
        R_used=R,
        pilot_params=cal,
        calibration=rep,
        measured_gain=measured_gain,
    )


# --- multilevel study --------------------------------------------------------

@dataclass(slots=True)
class MlLevelRow:
    """One ladder level of the nested-replication multilevel run."""

    level: int
    members: int
    N: int
    R: int
    estimate: float
    stderr: float
    v1: float
    v2: float
    rho1: float
    rho2: float
    R_star: float
    gamma_star: float
    work_units: float


@dataclass(slots=True)
class MultilevelReport:
    """Ladder telescoping versus direct pricing of the finest rule."""

    rows: list[MlLevelRow]
    combined: float
    combined_stderr: float
    direct: float
    direct_stderr: float
    telescoping_z: float
    var_simple: float
    var_ml: float
    var_ml_nested: float
    work_simple: float
    work_ml: float
    work_ml_nested: float
    budget: float


def multilevel_estimate(cfg: ExperimentConfig) -> MultilevelReport:
    """Telescope a committee ladder's finest value into base plus increments.

    The ladder entries are committee sizes; each level's rule is a prefix of
    one trained committee, so coarser rules reuse the finer rule's training
    draws.  Each increment gets its own pilot and calibrated R; path counts
    come from the global budget allocation.  Runs the same telescoping with
    R=1 everywhere and a direct estimate of the finest rule at the same
    budget, reporting all three variances, and checks the combined estimate
    against the direct one.
    """
    if not cfg.ladder:
        raise ValueError("ladder must be nonempty")

    def train(pool) -> list:
        committee = train_committee(pool, cfg.ladder[-1], cfg.member_size)
        return [committee.prefix(k) for k in cfg.ladder]

    cals, plain, nested, direct = _telescope(cfg, train, _ML_TAGS)

    def work(run: _LadderRun) -> float:  # base + sum(trunk + sub): the order sets the last bit
        return run.base.work.units() + sum(
            e.work_trunk.units() + e.work_sub.units() for e in run.incs)

    base = nested.base
    rows = [MlLevelRow(
        level=0,
        members=cfg.ladder[0],
        N=base.N,
        R=0,
        estimate=base.mean,
        stderr=base.stderr,
        v1=base.var_hat,
        v2=0.0,
        rho1=base.work.units() / base.N,
        rho2=0.0,
        R_star=1.0,
        gamma_star=1.0,
        work_units=base.work.units(),
    )]
    for i, ((cal, R, rep, _), e) in enumerate(zip(cals, nested.incs), start=1):
        rows.append(MlLevelRow(
            level=i,
            members=cfg.ladder[i],
            N=e.N,
            R=R,
            estimate=e.delta_hat,
            stderr=e.stderr,
            v1=cal.v1,
            v2=cal.v2,
            rho1=cal.rho1,
            rho2=cal.rho2,
            R_star=rep.R_star,
            gamma_star=rep.gamma_star,
            work_units=e.work_trunk.units() + e.work_sub.units(),
        ))

    se = (nested.var + direct.stderr ** 2) ** 0.5
    return MultilevelReport(
        rows=rows,
        combined=nested.mean,
        combined_stderr=nested.var ** 0.5,
        direct=direct.mean,
        direct_stderr=direct.stderr,
        telescoping_z=abs(nested.mean - direct.mean) / se if se > 0 else 0.0,
        var_simple=direct.stderr ** 2,
        var_ml=plain.var,
        var_ml_nested=nested.var,
        work_simple=direct.work.units(),
        work_ml=work(plain),
        work_ml_nested=work(nested),
        budget=cfg.budget,
    )
