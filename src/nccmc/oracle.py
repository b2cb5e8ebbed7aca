"""Exact ground truth on finite trees by full enumeration.

For tree models every quantity the estimator targets has a closed value: the
atoms of the stopped sigma-field are the nodes where the earlier rule stops,
and conditional moments of the survivor's payoff are finite sums over the
subtree.  Each rule is asked once per date about every node of that depth,
one sweep from the leaves back to the root gives those moments below
every node, and one walk down from the root adds each atom's terms as it
reaches the atom.  These exact values anchor the estimator and pilot tests.
"""

from __future__ import annotations

import math

import numpy as np

from .process_models import TreeModel

MAX_PATHS = 10**6


class TreeSizeError(RuntimeError):
    """Raised when a tree is too large to enumerate exactly."""


def _check_size(tree: TreeModel) -> None:
    leaves = int(np.count_nonzero(tree.n_children == 0))
    if leaves > MAX_PATHS:
        raise TreeSizeError(f"{leaves} paths exceed the enumeration limit of {MAX_PATHS}")


def _stop_table(tree: TreeModel, rule) -> list[bool]:
    """Whether the rule stops at each node, asked once per date j < J about
    every node at depth j; every leaf stops."""
    stops = np.ones(tree.n_nodes, dtype=bool)
    for j in range(tree.J):
        nodes = np.flatnonzero(tree.depths == j)
        stops[nodes] = rule.decide_batch(j, nodes, tree.payoffs[nodes])
    return stops.tolist()


def _branches(tree: TreeModel, node: int):
    return zip(tree.children(node).tolist(), tree.branch_probs(node).tolist())


def _continuations(tree: TreeModel, stops: list[bool]) -> tuple[list[float], list[float]]:
    """(E[X_stop], E[X_stop^2]) from each node on, stopping at the first node of
    ``stops``: one sweep from the last preorder node back to the root."""
    pay = tree.payoffs.tolist()
    m1, m2 = [0.0] * tree.n_nodes, [0.0] * tree.n_nodes
    for n in reversed(range(tree.n_nodes)):
        if stops[n]:
            m1[n], m2[n] = pay[n], pay[n] * pay[n]
            continue
        for child, p in _branches(tree, n):
            m1[n] += p * m1[child]
            m2[n] += p * m2[child]
    return m1, m2


def exact_moments(tree: TreeModel, ruleA, ruleB) -> tuple[float, float, float]:
    """Exact (delta, v1, v2) from one walk over the atoms of the earlier-stop
    sigma-field: delta = E[X_{tau_A} - X_{tau_B}], v1 the variance of the
    difference's conditional mean given that information, v2 the mean of its
    conditional variance."""
    _check_size(tree)
    sA, sB = _stop_table(tree, ruleA), _stop_table(tree, ruleB)
    # S > 0: tau_A > tau_B, so rule A survives, and does not stop at the atom
    conts = {1: _continuations(tree, sA), -1: _continuations(tree, sB)}
    pay = tree.payoffs.tolist()
    # each atom adds its terms as the walk reaches it; an atom where the
    # rules coincide adds zero to each
    delta = second = v2 = 0.0
    masses = []
    # each node's path probability while no rule has stopped above it;
    # preorder reaches a node after its parent
    reach = [1.0] + [None] * (tree.n_nodes - 1)
    for node, prob in enumerate(reach):
        if prob is None:
            continue
        if not (sA[node] or sB[node]):
            for child, p in _branches(tree, node):
                reach[child] = prob * p
            continue
        masses.append(prob)
        S = sB[node] - sA[node]
        if S:
            m1, m2 = conts[S][0][node], conts[S][1][node]
            mean = S * (m1 - pay[node])
            delta += prob * mean
            second += prob * mean**2
            v2 += prob * max(m2 - m1 * m1, 0.0)
    # TreeModel lets a node's probabilities miss 1 by 1e-12, branch_probs adds
    # 2 b eps (b children) and a path's product rounds once a date; over J dates,
    # twice J times that bounds the compounding while J times it is below 1,
    # and fsum rounds once
    eps = np.finfo(float).eps
    bound = 2 * tree.J * (1e-12 + (2 * int(tree.n_children.max()) + 1) * eps) + eps
    total = math.fsum(masses)
    if abs(total - 1.0) > bound:
        raise AssertionError(f"atom probabilities sum to {total!r}")
    return delta, max(second - delta * delta, 0.0), v2


def exact_delta(tree: TreeModel, ruleA, ruleB) -> float:
    """Exact E[X_{tau_A} - X_{tau_B}]: the first of ``exact_moments``."""
    return exact_moments(tree, ruleA, ruleB)[0]
