"""Reference values computed apart from the program.

Nothing here calls into the package except a rule's public ``decide_batch``:
the European price is a one-dimensional integral, the coupled difference
simulates its own paths with its own generator, and the Bermudan prices are
published numbers.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, stats

# Bermudan max-call prices for S0 = 90 in the market of workloads.MARKET,
# from L. Andersen and M. Broadie, "Primal-dual simulation algorithm for
# pricing multidimensional American options", Management Science 50(9),
# 2004.  d = 2 and d = 3 are point values; d = 5 is the interval between
# the published lower and upper bound estimates.
BERMUDAN_MAX_CALL = {2: (8.08, 8.08), 3: (11.29, 11.29), 5: (16.602, 16.655)}


def european_max_call(d: int, r: float, delta: float, sigma: float, K: float,
                      y0: float, T: float, **_) -> float:
    """Price of a European call on the maximum of d iid GBM assets.

    With M the maximum at T, P(M <= m) = Phi(z(m))^d where
    z(m) = (ln(m / y0) - (r - delta - sigma^2 / 2) T) / (sigma sqrt T), so
    the price is e^{-rT} * integral over m > K of (1 - Phi(z(m))^d).
    """
    mu = (r - delta - 0.5 * sigma**2) * T
    s = sigma * math.sqrt(T)

    def tail(m: float) -> float:
        return -math.expm1(d * stats.norm.logcdf((math.log(m / y0) - mu) / s))

    value, _ = integrate.quad(tail, K, math.inf, epsabs=1e-10, epsrel=1e-10)
    return math.exp(-r * T) * value


def black_scholes_call(r: float, delta: float, sigma: float, K: float, y0: float,
                       T: float, **_) -> float:
    """Black-Scholes call with a continuous dividend yield."""
    s = sigma * math.sqrt(T)
    d1 = (math.log(y0 / K) + (r - delta + 0.5 * sigma**2) * T) / s
    return (y0 * math.exp(-delta * T) * stats.norm.cdf(d1)
            - K * math.exp(-r * T) * stats.norm.cdf(d1 - s))


def coupled_difference(ruleA, ruleB, d: int, market: dict, n_paths: int, seed: int,
                       block: int = 250_000) -> tuple[float, float]:
    """Plain Monte Carlo of E[X_{tau_A} - X_{tau_B}] on common paths.

    Both rules see the same simulated paths; each stops at the first date it
    says so, and at maturity otherwise.  Returns (mean, stderr).
    """
    r, delta, sigma = market["r"], market["delta"], market["sigma"]
    K, y0, T, n_dates = market["K"], market["y0"], market["T"], market["n_dates"]
    J = n_dates - 1
    dt = T / J
    drift = (r - delta - 0.5 * sigma**2) * dt
    vol = sigma * math.sqrt(dt)
    gen = np.random.default_rng(seed)
    total = total_sq = 0.0
    for start in range(0, n_paths, block):
        n = min(block, n_paths - start)
        y = np.full((n, d), y0)
        value = {}
        for j in range(J + 1):
            if j > 0:
                y = y * np.exp(drift + vol * gen.standard_normal((n, d)))
            pay = math.exp(-r * j * dt) * np.maximum(y.max(axis=1) - K, 0.0)
            for name, rule in (("A", ruleA), ("B", ruleB)):
                stopped = value.setdefault(name, np.full(n, np.nan))
                live = np.isnan(stopped)
                if j == J:
                    stop = live
                else:
                    stop = live.copy()
                    stop[live] = rule.decide_batch(j, y[live], pay[live])
                stopped[stop] = pay[stop]
        diff = value["A"] - value["B"]
        total += float(diff.sum())
        total_sq += float((diff * diff).sum())
    mean = total / n_paths
    var = (total_sq - n_paths * mean * mean) / (n_paths - 1)
    return mean, math.sqrt(max(var, 0.0) / n_paths)
