"""Exact ground truth on finite trees by full enumeration.

For tree models every quantity the estimator targets has a closed value: the
atoms of the stopped sigma-field are the nodes where the earlier rule stops,
and conditional moments of the survivor's payoff are finite sums over the
subtree.  These exact values anchor the estimator and pilot tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .process_models import TreeModel

MAX_PATHS = 10**6


class TreeSizeError(RuntimeError):
    """Raised when a tree is too large to enumerate exactly."""


@dataclass(frozen=True, slots=True)
class EnumeratedAtom:
    """One atom of the information available at the earlier stopping date.

    prefix labels the node where the first rule stopped; conditional_mean
    and conditional_var are the exact moments of S*(X_stop - x_wedge) given
    the atom (identically zero when the rules coincide there).
    """

    prefix: str
    probability: float
    S: int
    x_wedge: float
    conditional_mean: float
    conditional_var: float


def _check_size(tree: TreeModel) -> None:
    leaves = sum(1 for i in range(tree.n_nodes) if not tree.children(i))
    if leaves > MAX_PATHS:
        raise TreeSizeError(f"{leaves} paths exceed the enumeration limit of {MAX_PATHS}")


def _stops(rule, j: int, node: int, payoff: float, J: int) -> bool:
    return j >= J or bool(rule.decide_batch(j, np.array([node]), np.array([payoff]))[0])


def _continuation_moments(tree: TreeModel, rule, node: int, j: int) -> tuple[float, float]:
    """Exact (E[X_stop], E[X_stop^2]) of a continuation branched below node.

    The continuation starts stepping at date j+1; the rule is consulted at
    each date reached after j, maturity stops unconditionally.
    """

    def rec(n: int, depth: int) -> tuple[float, float]:
        pay = float(tree.payoffs[n])
        if depth > j and _stops(rule, depth, n, pay, tree.J):
            return pay, pay * pay
        m1 = 0.0
        m2 = 0.0
        for child, p in zip(tree.children(n), tree.branch_probs(n)):
            c1, c2 = rec(child, depth + 1)
            m1 += p * c1
            m2 += p * c2
        return m1, m2

    return rec(node, j)


def enumerate_atoms(tree: TreeModel, ruleA, ruleB) -> list[EnumeratedAtom]:
    """All atoms of the earlier-stop sigma-field, with exact moments."""
    _check_size(tree)
    atoms: list[EnumeratedAtom] = []

    def walk(node: int, j: int, prob: float) -> None:
        pay = float(tree.payoffs[node])
        sA = _stops(ruleA, j, node, pay, tree.J)
        sB = _stops(ruleB, j, node, pay, tree.J)
        if sA or sB:
            if sA and sB:
                atoms.append(EnumeratedAtom(tree.labels[node], prob, 0, pay, 0.0, 0.0))
            else:
                S = -1 if sA else 1
                survivor = ruleA if S > 0 else ruleB
                m1, m2 = _continuation_moments(tree, survivor, node, j)
                mean = S * (m1 - pay)
                var = max(m2 - m1 * m1, 0.0)
                atoms.append(EnumeratedAtom(tree.labels[node], prob, S, pay, mean, var))
            return
        for child, p in zip(tree.children(node), tree.branch_probs(node)):
            walk(child, j + 1, prob * p)

    walk(0, 0, 1.0)
    total = sum(a.probability for a in atoms)
    if abs(total - 1.0) > 1e-12:
        raise AssertionError(f"atom probabilities sum to {total!r}")
    return atoms


def exact_delta(tree: TreeModel, ruleA, ruleB) -> float:
    """Exact E[X_{tau_A} - X_{tau_B}] as a probability-weighted sum."""
    return sum(a.probability * a.conditional_mean for a in enumerate_atoms(tree, ruleA, ruleB))


def exact_components(tree: TreeModel, ruleA, ruleB) -> tuple[float, float]:
    """Exact (v1, v2): variance of the conditional mean of the difference
    given the earlier-stop information, and mean of its conditional variance."""
    atoms = enumerate_atoms(tree, ruleA, ruleB)
    mean = sum(a.probability * a.conditional_mean for a in atoms)
    v1 = sum(a.probability * a.conditional_mean**2 for a in atoms) - mean * mean
    v2 = sum(a.probability * a.conditional_var for a in atoms)
    return max(v1, 0.0), v2


def exact_total_variance(tree: TreeModel, ruleA, ruleB) -> float:
    """Exact Var(X_{tau_A} - X_{tau_B}) by direct full-path enumeration.

    Independent of the atom decomposition, so it can check v1 + v2 against
    the law of total variance.
    """
    _check_size(tree)
    moments = [0.0, 0.0]

    def walk(node: int, j: int, prob: float, tauA: int, xA: float, tauB: int, xB: float) -> None:
        pay = float(tree.payoffs[node])
        if tauA < 0 and _stops(ruleA, j, node, pay, tree.J):
            tauA, xA = j, pay
        if tauB < 0 and _stops(ruleB, j, node, pay, tree.J):
            tauB, xB = j, pay
        if tauA >= 0 and tauB >= 0:
            d = xA - xB
            moments[0] += prob * d
            moments[1] += prob * d * d
            return
        for child, p in zip(tree.children(node), tree.branch_probs(node)):
            walk(child, j + 1, prob * p, tauA, xA, tauB, xB)

    walk(0, 0, 1.0, -1, 0.0, -1, 0.0)
    return moments[1] - moments[0] ** 2
