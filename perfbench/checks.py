"""Output checks run after a workload's jobs finish, outside the timed part.

Each check returns a list of failure messages; an empty list passes.  The
checks compare against the references in references.py and against
properties the method guarantees, never against a stored copy of an
earlier run's output.
"""

from __future__ import annotations

import csv
import io
import json
import math

from references import BERMUDAN_MAX_CALL

Z = 4.0  # agreement band, in combined standard errors


def _lower_bound_price(name: str, x: float, se: float, ref: float) -> list[str]:
    # a trained rule's value is a lower bound on the Bermudan price: it may
    # fall short by its training bias (at most 2 % here) and exceed it only
    # by noise
    if not 0.98 * ref <= x <= ref + Z * se:
        return [f"{name} = {x:.6g} outside [{0.98 * ref:.6g}, {ref:.4g} + {Z:g}*{se:.3g}]"]
    return []


def _agree(name: str, a: float, b: float, se: float) -> list[str]:
    if not abs(a - b) <= Z * se:
        return [f"{name}: |{a:.6g} - {b:.6g}| > {Z:g} * {se:.3g}"]
    return []


def r_star(v1: float, v2: float, rho1: float, rho2: float) -> float:
    """R* = sqrt((rho1/rho2)(v2/v1)) where replication pays, else 1."""
    if rho1 * v2 > rho2 * v1:
        return math.sqrt((rho1 / rho2) * (v2 / v1))
    return 1.0


def check_vol(result: dict, refs: list[tuple[float, float]], replications: int) -> list[str]:
    """refs: coupled plain-MC (mean, stderr) of each row's rule pair."""
    fails: list[str] = []
    ref_value = BERMUDAN_MAX_CALL[2][0]
    for row, (ref, ref_se) in zip(result["rows"], refs, strict=True):
        tag = f"sigma_hat={row['sigma_hat']}"
        fails += _lower_bound_price(f"{tag} value_a", row["value_a"], row["value_a_stderr"], ref_value)
        fails += _agree(f"{tag} delta_hat vs coupled plain MC", row["delta_hat"], ref,
                        math.hypot(row["stderr"], ref_se))
        if row["R_used"] != replications:
            fails.append(f"{tag} R_used = {row['R_used']}, configured {replications}")
        want = 1.0 if row["degenerate"] else r_star(row["v1"], row["v2"], row["rho1"], row["rho2"])
        if not math.isclose(row["R_star"], want, rel_tol=1e-12):
            fails.append(f"{tag} R_star = {row['R_star']!r}, pilot components give {want!r}")
    return fails


def check_qcv(rep: dict) -> list[str]:
    fails: list[str] = []
    mus = {k: (rep[f"mu_{k}"], rep[f"var_{k}"]) for k in ("simple", "qcv", "qcv_nested")}
    names = list(mus)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            fails += _agree(f"mu_{a} vs mu_{b}", mus[a][0], mus[b][0],
                            math.sqrt(mus[a][1] + mus[b][1]))
    fails += _lower_bound_price("mu_b", rep["mu_b"], rep["mu_b_stderr"], BERMUDAN_MAX_CALL[3][0])
    if not rep["var_qcv_nested"] < rep["var_qcv"] < rep["var_simple"]:
        fails.append(f"variances not ordered: nested {rep['var_qcv_nested']:.3g}, "
                     f"qcv {rep['var_qcv']:.3g}, simple {rep['var_simple']:.3g}")
    ratio = rep["measured_gain"] / rep["calibration"]["gamma_star"]
    if not 0.5 <= ratio <= 2.0:
        fails.append(f"measured_gain / gamma_star = {ratio:.3g} outside [0.5, 2]")
    return fails


def check_cli(result: dict, european: float) -> list[str]:
    """european: closed-form price of the hold-to-maturity rule."""
    if result["rc"] != 0:
        return [f"nccmc estimate exited with {result['rc']}"]
    fails: list[str] = []
    info = json.loads(result["estimate.json"])
    rows = list(csv.DictReader(io.StringIO(result["estimate.csv"])))
    if len(rows) != 1:
        return [f"estimate.csv has {len(rows)} rows, expected 1"]
    for key, text in rows[0].items():
        want = info[key]
        if key == "v2_hat" and want is None:
            want = -1.0
        if type(want)(text) != want:
            fails.append(f"estimate.csv {key} = {text} but estimate.json has {want!r}")
    delta, se = info["delta_hat"], info["stderr"]
    if not delta > 0:
        fails.append(f"early-exercise premium delta_hat = {delta:.6g} is not positive")
    lo, hi = BERMUDAN_MAX_CALL[5]
    price = european + delta
    mid = 0.5 * (lo + hi)
    if not price <= hi + Z * se:
        fails.append(f"European + delta_hat = {price:.6g} above {hi} + {Z:g}*{se:.3g}")
    if not abs(price - mid) <= 0.02 * mid:
        fails.append(f"European + delta_hat = {price:.6g} not within 2 % of {mid:.6g}")
    return fails


def check_identical(results: list[dict]) -> list[str]:
    """Every job of one invocation must return the same bits."""
    texts = [json.dumps(r, sort_keys=True) for r in results]
    odd = [i for i, t in enumerate(texts) if t != texts[0]]
    return [f"jobs {odd} returned results that differ from job 0"] if odd else []
