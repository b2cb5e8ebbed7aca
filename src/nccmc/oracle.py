"""Exact ground truth on finite trees by full enumeration.

For tree models every quantity the estimator targets has a closed value: the
atoms of the stopped sigma-field are the nodes where the earlier rule stops,
and conditional moments of the survivor's payoff are finite sums over the
subtree.  Each rule is asked once per date about every node of that depth,
and one sweep from the leaves back to the root gives those moments below
every node.  These exact values anchor the estimator and pilot tests.
"""

from __future__ import annotations

import math
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


def enumerate_atoms(tree: TreeModel, ruleA, ruleB) -> list[EnumeratedAtom]:
    """All atoms of the earlier-stop sigma-field, with exact moments."""
    _check_size(tree)
    sA, sB = _stop_table(tree, ruleA), _stop_table(tree, ruleB)
    # S > 0: tau_A > tau_B, so rule A survives, and does not stop at the atom
    conts = {1: _continuations(tree, sA), -1: _continuations(tree, sB)}
    pay = tree.payoffs.tolist()
    atoms = []
    # each node's path probability while no rule has stopped above it;
    # preorder reaches a node after its parent and lists the atoms in walk order
    reach = [1.0] + [None] * (tree.n_nodes - 1)
    for node, prob in enumerate(reach):
        if prob is None:
            continue
        if not (sA[node] or sB[node]):
            for child, p in _branches(tree, node):
                reach[child] = prob * p
            continue
        S = sB[node] - sA[node]
        mean = var = 0.0
        if S:
            m1, m2 = conts[S][0][node], conts[S][1][node]
            mean, var = S * (m1 - pay[node]), max(m2 - m1 * m1, 0.0)
        atoms.append(EnumeratedAtom(tree.labels[node], prob, S, pay[node], mean, var))
    # load_tree lets a node's probabilities miss 1 by 1e-12, branch_probs adds
    # 2 b eps (b children) and a path's product rounds once a date; over J dates,
    # twice J times that bounds the compounding while J times it is below 1,
    # and fsum rounds once
    eps = np.finfo(float).eps
    bound = 2 * tree.J * (1e-12 + (2 * int(tree.n_children.max()) + 1) * eps) + eps
    total = math.fsum(a.probability for a in atoms)
    if abs(total - 1.0) > bound:
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

