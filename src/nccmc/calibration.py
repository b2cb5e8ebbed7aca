"""Calibration algebra for the nested estimator.

Given per-trunk/per-replication variance components (v1, v2) and costs
(rho1, rho2), the budget-constrained variance of the estimator at
replication count R is V(R)/C with

    V(R) = (rho1 + rho2 * R) * (v1 + v2 / R).

Everything here is closed form: the optimal R, the achievable variance
ratio against plain Monte Carlo, how flat the optimum is (so pilot noise in
R is harmless), and the path-count allocation of a telescoping ladder, of
which the control-variate composition is the two-level case.  All functions
are pure.  ``choose_R`` is the one place that decides the R a run uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence


class DegenerateParamsError(ValueError):
    """Raised when a variance or cost component is not strictly positive."""


@dataclass(frozen=True, slots=True)
class CalibParams:
    """Pilot-estimated variance components and per-sample costs.

    All four components must be strictly positive.  ``degenerate`` marks
    parameter sets where a pilot had to floor an exactly-zero estimate (for
    instance when the two rules never disagreed); the algebra still runs,
    but R* means nothing there, so ``choose_R`` runs R = 1.
    """

    v1: float
    v2: float
    rho1: float
    rho2: float
    p_differ: Optional[float] = None
    degenerate: bool = False

    def __post_init__(self) -> None:
        for name in ("v1", "v2", "rho1", "rho2"):
            x = getattr(self, name)
            if not (x > 0.0 and math.isfinite(x)):
                raise DegenerateParamsError(f"{name} must be strictly positive, got {x!r}")


@dataclass(frozen=True, slots=True)
class CalibReport:
    """Outcome of the R calibration.

    R_star is the real-valued optimum (1 when the gain condition fails),
    R_rounded the integer actually used.  gamma_star = V(R_star)/V(1) is the
    variance ratio at matched budget; (gain_lower, gain_upper) bracket it.
    n_star_per_budget is the trunk count per unit of budget at R_star.
    """

    R_star: float
    R_rounded: int
    gamma_star: float
    gain_lower: float
    gain_upper: float
    condition_holds: bool
    n_star_per_budget: float


def v_profile(p: CalibParams, R: float) -> float:
    """Budget-normalized variance profile V(R) = (rho1+rho2 R)(v1+v2/R)."""
    if R < 1:
        raise ValueError(f"R must be >= 1, got {R!r}")
    return (p.rho1 + p.rho2 * R) * (p.v1 + p.v2 / R)


def _condition_holds(p: CalibParams) -> bool:
    # Replication pays off iff (rho1/rho2) * (v2/v1) > 1.
    return p.rho1 * p.v2 > p.rho2 * p.v1


def gain(p: CalibParams) -> float:
    """Variance ratio V(R*)/V(1) at matched budget; 1 if replication cannot help."""
    if not _condition_holds(p):
        return 1.0
    a = math.sqrt(p.v1 / p.v2) + math.sqrt(p.rho2 / p.rho1)
    return a * a / ((1.0 + p.v1 / p.v2) * (1.0 + p.rho2 / p.rho1))


def optimal_R(p: CalibParams) -> CalibReport:
    """Optimal replication count, rounded to the integer grid, with bounds.

    Rounding is to the nearest integer with ties up: overshooting R* is
    always at least as good as undershooting by the same factor.
    """
    cond = _condition_holds(p)
    if cond:
        R_star = math.sqrt((p.rho1 / p.rho2) * (p.v2 / p.v1))
    else:
        R_star = 1.0
    R_rounded = max(1, math.floor(R_star + 0.5))
    lower = max(p.rho2 / (p.rho1 + p.rho2), p.v1 / (p.v1 + p.v2))
    return CalibReport(
        R_star=R_star,
        R_rounded=R_rounded,
        gamma_star=gain(p),
        gain_lower=lower,
        gain_upper=4.0 * lower,
        condition_holds=cond,
        n_star_per_budget=1.0 / (p.rho1 + p.rho2 * R_star),
    )


def choose_R(p: CalibParams, override: Optional[int]) -> tuple[int, CalibReport]:
    """The replication count to run, and the calibration behind it.

    ``override`` wins when set.  A degenerate pilot cannot identify R*, so
    its report is the no-nesting one (R* = 1, no gain) and R is 1;
    otherwise the report is ``optimal_R``'s and R its rounded optimum.
    """
    if p.degenerate:
        rep = CalibReport(R_star=1.0, R_rounded=1, gamma_star=1.0, gain_lower=1.0, gain_upper=1.0,
                          condition_holds=False, n_star_per_budget=1.0 / (p.rho1 + p.rho2))
    else:
        rep = optimal_R(p)
    return (rep.R_rounded if override is None else override), rep


def trunks_for_budget(p: CalibParams, R: int, budget: float) -> int:
    """Trunk count a work budget buys at R replications (at least two)."""
    return max(2, int(budget / (p.rho1 + p.rho2 * R)))


def robustness_bound(alpha: float) -> float:
    """Worst-case V(R)/V(R*) over R in [R*/alpha, alpha*R*].

    Equals 1/2 + (alpha + 1/alpha)/4; 1 at alpha = 1.  The profile is so
    flat near the optimum that a factor-2 error in R costs only 12.5%.
    """
    if alpha < 1:
        raise ValueError(f"alpha must be >= 1, got {alpha!r}")
    return 0.5 + (alpha + 1.0 / alpha) / 4.0


def ml_allocation(levels: Sequence[tuple[float, float]], budget: float) -> list[int]:
    """Per-level path counts N_i proportional to sqrt(variance_i / cost_i).

    Scaled so that sum N_i * cost_i meets the budget to within one sample's
    cost; each level gets at least one path.  levels is a sequence of
    (variance per sample, cost per sample) pairs.
    """
    if not levels:
        raise ValueError("need at least one level")
    for k, (v, c) in enumerate(levels):
        if not (v > 0 and c > 0):
            raise ValueError(f"level {k}: variance and cost must be strictly positive")
    total_cost = sum(c for _, c in levels)
    if budget < total_cost:
        raise ValueError(f"budget {budget!r} cannot afford one sample per level")
    lam = budget / sum(math.sqrt(v * c) for v, c in levels)
    counts = [max(1, math.floor(lam * math.sqrt(v / c))) for v, c in levels]
    variances = tuple(v for v, _ in levels)
    costs = tuple(c for _, c in levels)
    _greedy_fill(counts, variances, costs, budget)
    return counts


def _greedy_fill(counts: list[int], variances, costs, budget: float) -> None:
    """Spend leftover budget one sample at a time, best variance drop first.

    Adding a path to component i at count N removes variance
    v_i/N - v_i/(N+1) = v_i/(N(N+1)) at cost c_i; pick the affordable
    component maximizing that ratio.  Once a single component is affordable
    it takes every sample that remains, so it gets all but the last of them
    in one step.  Mutates counts in place.
    """
    remaining = budget - sum(n * c for n, c in zip(counts, costs))
    while True:
        affordable = [k for k, c in enumerate(costs) if c <= remaining]
        if not affordable:
            break
        if len(affordable) == 1:
            k = affordable[0]
            bulk = int(remaining // costs[k]) - 1
            if bulk > 0:
                counts[k] += bulk
                remaining -= bulk * costs[k]
        best = max(affordable, key=lambda k: variances[k] / (counts[k] * (counts[k] + 1)) / costs[k])
        counts[best] += 1
        remaining -= costs[best]
