"""Benchmark experiment drivers.

Three studies on the Bermudan max-call benchmark, each built from the same
ingredients: train rules on one stream namespace, run the two-stage
estimator on the other, calibrate the replication count from a pilot, and
report variances next to realized work so budget comparisons are honest.

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
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from . import rng
from .calibration import (
    CalibParams,
    CalibReport,
    choose_R,
    ml_allocation,
    qcv_allocation,
    trunks_for_budget,
    v_profile,
)
from .nested_cmc import NestedEstimate, ValueEstimate, estimate, estimate_value, floored_params, pilot
from .process_models import GbmModel, GbmParams, simulate_training_paths
from .stopping_rules import basis_size, train_committee, train_tvr


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    """Shared knobs for the experiment drivers.

    ``replications`` overrides the pilot-calibrated R when set.  ``budget``
    is in work units; drivers that compare estimators at matched budget
    require it, the others fall back to ``testing_paths`` trunks.  The
    fields a driver does not use are ignored by it.
    """

    params: GbmParams
    seed_training: int
    seed_testing: int
    training_paths: int = 100_000
    testing_paths: int = 100_000
    n_pilot: int = 2000
    r_pilot: int = 64
    replications: Optional[int] = None
    budget: Optional[float] = None
    sigma_hats: tuple[float, ...] = ()
    ladder: tuple[int, ...] = ()
    committee_members: int = 1000
    member_size: int = 4000
    threads: int = 1

    def __post_init__(self) -> None:
        if self.training_paths < basis_size(self.params.d):
            raise ValueError("training_paths smaller than the regression basis")
        if self.testing_paths < 2:
            raise ValueError("testing_paths must be >= 2")
        if self.n_pilot < 100:
            raise ValueError("n_pilot must be >= 100")
        if self.r_pilot < 2:
            raise ValueError("r_pilot must be >= 2")
        if self.replications is not None and self.replications < 1:
            raise ValueError("replications must be >= 1 when set")
        if self.budget is not None and not self.budget > 0:
            raise ValueError("budget must be positive when set")
        if any(s <= 0 for s in self.sigma_hats):
            raise ValueError("sigma_hats must be positive volatilities")
        if any(b >= a for a, b in zip(self.ladder[1:], self.ladder)):
            raise ValueError("ladder must be strictly increasing")
        if self.ladder and self.ladder[0] < 1:
            raise ValueError("ladder entries must be >= 1")
        if self.committee_members < 1:
            raise ValueError("committee_members must be >= 1")
        if self.member_size < basis_size(self.params.d):
            raise ValueError("member_size smaller than the regression basis")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")


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

    Trains the reference rule once, then per perturbed volatility: train on
    the same driving noise, pilot, calibrate R, and run the full two-stage
    estimate.  The perturbed rule's own value is reported as the reference
    value minus the estimated difference.
    """
    if not cfg.sigma_hats:
        raise ValueError("sigma_hats must be nonempty")
    p = cfg.params
    model = GbmModel(p)
    ruleA = train_tvr(simulate_training_paths(p, cfg.training_paths, cfg.seed_training), p)
    val = estimate_value(
        model, ruleA, cfg.testing_paths,
        rng.derive_seed(cfg.seed_testing, "study-value"), threads=cfg.threads,
    )

    rows: list[Table1Row] = []
    for i, sh in enumerate(cfg.sigma_hats):
        ph = replace(p, sigma=sh)
        ruleB = train_tvr(simulate_training_paths(ph, cfg.training_paths, cfg.seed_training), ph)
        cal = pilot(
            model, ruleA, ruleB, cfg.n_pilot, cfg.r_pilot,
            rng.derive_seed(cfg.seed_testing, f"study-pilot-{i}"), threads=cfg.threads,
        )
        R_used, rep = choose_R(cal, cfg.replications)
        N = cfg.testing_paths if cfg.budget is None else trunks_for_budget(cal, R_used, cfg.budget)
        est = estimate(
            model, ruleA, ruleB, N, R_used,
            rng.derive_seed(cfg.seed_testing, f"study-main-{i}"), threads=cfg.threads,
        )
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
            work_units=est.work_trunk.units() + est.work_sub.units(),
            degenerate=cal.degenerate,
        ))
    return rows


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
    calibrated R.  Baseline/correction path counts come from the
    variance-optimal budget split.  ``measured_gain`` recomputes the
    matched-budget variance ratio from the main run's own component
    estimates, for comparison against the pilot's prediction.
    """
    if cfg.budget is None:
        raise ValueError("qcv_estimate needs a work budget")
    p = cfg.params
    model = GbmModel(p)
    pool = simulate_training_paths(p, cfg.training_paths, cfg.seed_training)
    ruleB = train_tvr(pool, p)
    ruleA = train_committee(pool, p, cfg.committee_members, cfg.member_size, cfg.seed_training)

    probeA = estimate_value(
        model, ruleA, cfg.n_pilot,
        rng.derive_seed(cfg.seed_testing, "qcv-probe-a"), threads=cfg.threads,
    )
    probeB = estimate_value(
        model, ruleB, cfg.n_pilot,
        rng.derive_seed(cfg.seed_testing, "qcv-probe-b"), threads=cfg.threads,
    )
    cal = pilot(
        model, ruleA, ruleB, cfg.n_pilot, cfg.r_pilot,
        rng.derive_seed(cfg.seed_testing, "qcv-pilot"), threads=cfg.threads,
    )
    R, rep = choose_R(cal, cfg.replications)

    rhoA = probeA.work.units() / probeA.N
    vB = probeB.var_hat
    rhoB = probeB.work.units() / probeB.N

    n_simple = max(2, int(cfg.budget / rhoA))
    simple = estimate_value(
        model, ruleA, n_simple,
        rng.derive_seed(cfg.seed_testing, "qcv-simple"), threads=cfg.threads,
    )

    def corrected(R_run: int, tag: str) -> tuple[ValueEstimate, NestedEstimate, tuple[int, int]]:
        nB, n = qcv_allocation(vB, rhoB, cal, R_run, cfg.budget)
        n = max(2, n)
        base = estimate_value(
            model, ruleB, nB,
            rng.derive_seed(cfg.seed_testing, f"qcv-base-{tag}"), threads=cfg.threads,
        )
        corr = estimate(
            model, ruleA, ruleB, n, R_run,
            rng.derive_seed(cfg.seed_testing, f"qcv-corr-{tag}"), threads=cfg.threads,
        )
        return base, corr, (nB, n)

    base1, corr1, alloc1 = corrected(1, "r1")
    baser, corrr, allocr = corrected(R, "rstar")

    if R >= 2 and not cal.degenerate:
        run_params = floored_params(corrr)
        measured_gain = v_profile(run_params, R) / v_profile(run_params, 1)
    else:
        measured_gain = 1.0

    return QcvReport(
        mu_b=baser.mean,
        mu_b_stderr=baser.stderr,
        mu_simple=simple.mean,
        mu_qcv=base1.mean + corr1.delta_hat,
        mu_qcv_nested=baser.mean + corrr.delta_hat,
        var_simple=simple.stderr ** 2,
        var_qcv=base1.stderr ** 2 + corr1.stderr ** 2,
        var_qcv_nested=baser.stderr ** 2 + corrr.stderr ** 2,
        work_simple=simple.work.units(),
        work_qcv=base1.work.units() + corr1.work_trunk.units() + corr1.work_sub.units(),
        work_qcv_nested=baser.work.units() + corrr.work_trunk.units() + corrr.work_sub.units(),
        budget=cfg.budget,
        n_simple=n_simple,
        alloc_qcv=alloc1,
        alloc_qcv_nested=allocr,
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
    if cfg.budget is None:
        raise ValueError("multilevel_estimate needs a work budget")
    if not cfg.ladder:
        raise ValueError("ladder must be nonempty")
    p = cfg.params
    model = GbmModel(p)
    pool = simulate_training_paths(p, cfg.training_paths, cfg.seed_training)
    committee = train_committee(pool, p, cfg.ladder[-1], cfg.member_size, cfg.seed_training)
    rules = [committee.prefix(k) for k in cfg.ladder]
    L = len(rules) - 1

    probe0 = estimate_value(
        model, rules[0], cfg.n_pilot,
        rng.derive_seed(cfg.seed_testing, "ml-probe-base"), threads=cfg.threads,
    )
    probeL = probe0 if L == 0 else estimate_value(
        model, rules[-1], cfg.n_pilot,
        rng.derive_seed(cfg.seed_testing, "ml-probe-fine"), threads=cfg.threads,
    )
    rho0 = probe0.work.units() / probe0.N
    rhoL = probeL.work.units() / probeL.N

    pilots = [
        pilot(
            model, rules[i], rules[i - 1], cfg.n_pilot, cfg.r_pilot,
            rng.derive_seed(cfg.seed_testing, f"ml-pilot-{i}"), threads=cfg.threads,
        )
        for i in range(1, L + 1)
    ]
    calibrated = [choose_R(cal, cfg.replications) for cal in pilots]
    Rs = [R for R, _ in calibrated]

    def run_ladder(R_list: list[int], tag: str):
        levels = [(probe0.var_hat, rho0)]
        for cal, R in zip(pilots, R_list):
            levels.append((cal.v1 + cal.v2 / R, cal.rho1 + cal.rho2 * R))
        counts = ml_allocation(levels, cfg.budget)
        counts = [max(2, c) for c in counts]  # estimator needs two samples for a variance
        base = estimate_value(
            model, rules[0], counts[0],
            rng.derive_seed(cfg.seed_testing, f"ml-base-{tag}"), threads=cfg.threads,
        )
        incs = [
            estimate(
                model, rules[i], rules[i - 1], counts[i], R_list[i - 1],
                rng.derive_seed(cfg.seed_testing, f"ml-inc-{i}-{tag}"), threads=cfg.threads,
            )
            for i in range(1, L + 1)
        ]
        mean = base.mean + sum(e.delta_hat for e in incs)
        var = base.stderr ** 2 + sum(e.stderr ** 2 for e in incs)
        work = base.work.units() + sum(
            e.work_trunk.units() + e.work_sub.units() for e in incs
        )
        return counts, base, incs, mean, var, work

    counts_n, base_n, incs_n, mean_n, var_n, work_n = run_ladder(Rs, "nested")
    counts_1, base_1, incs_1, mean_1, var_1, work_1 = run_ladder([1] * L, "plain")

    n_direct = max(2, int(cfg.budget / rhoL))
    direct = estimate_value(
        model, rules[-1], n_direct,
        rng.derive_seed(cfg.seed_testing, "ml-direct"), threads=cfg.threads,
    )

    rows = [MlLevelRow(
        level=0,
        members=cfg.ladder[0],
        N=counts_n[0],
        R=0,
        estimate=base_n.mean,
        stderr=base_n.stderr,
        v1=base_n.var_hat,
        v2=0.0,
        rho1=base_n.work.units() / base_n.N,
        rho2=0.0,
        R_star=1.0,
        gamma_star=1.0,
        work_units=base_n.work.units(),
    )]
    for i in range(1, L + 1):
        cal, (R, rep), e = pilots[i - 1], calibrated[i - 1], incs_n[i - 1]
        rows.append(MlLevelRow(
            level=i,
            members=cfg.ladder[i],
            N=counts_n[i],
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

    se = (var_n + direct.stderr ** 2) ** 0.5
    return MultilevelReport(
        rows=rows,
        combined=mean_n,
        combined_stderr=var_n ** 0.5,
        direct=direct.mean,
        direct_stderr=direct.stderr,
        telescoping_z=abs(mean_n - direct.mean) / se if se > 0 else 0.0,
        var_simple=direct.stderr ** 2,
        var_ml=var_1,
        var_ml_nested=var_n,
        work_simple=direct.work.units(),
        work_ml=work_1,
        work_ml_nested=work_n,
        budget=cfg.budget,
    )
