"""Fast tests of the benchmark itself: references, checks and harness.

Every workload runs once at its tiny size through the traced harness (three
jobs each), and the checks are shown to reject perturbed copies of those
results.  Statistical assertions run at one frozen seed.
"""

import copy
import json
import math
import os
import sys

import time
from types import SimpleNamespace

import pytest

import checks
import references
import run
import spans
import workloads

sys.path.insert(0, os.path.join(run.ROOT, "src"))

from nccmc.nested_cmc import estimate  # noqa: E402
from nccmc.oracle import exact_delta  # noqa: E402
from nccmc.process_models import bundled_tree  # noqa: E402
from nccmc.stopping_rules import FixedDateRule, TreeRule  # noqa: E402

SEED = 7
MARKET = workloads.MARKET


# --- references ----------------------------------------------------------------

def test_european_max_call_reduces_to_black_scholes_at_one_asset():
    assert references.european_max_call(1, **MARKET) == pytest.approx(
        references.black_scholes_call(**MARKET), rel=1e-9)


@pytest.mark.parametrize("d, price", [(2, 6.6551), (3, 9.5380), (5, 14.5856)])
def test_european_max_call_values(d, price):
    assert references.european_max_call(d, **MARKET) == pytest.approx(price, abs=5e-5)


def test_bermudan_references_are_at_least_the_european_price():
    for d, (lo, hi) in references.BERMUDAN_MAX_CALL.items():
        assert references.european_max_call(d, **MARKET) < lo <= hi


def test_coupled_difference_prices_exercise_now_against_hold_to_maturity():
    # stopping at date 0 pays nothing out of the money (S0 < K), so the
    # difference is minus the European price
    mean, se = references.coupled_difference(FixedDateRule(0), FixedDateRule(9), 2, MARKET,
                                             200_000, SEED)
    assert abs(mean + references.european_max_call(2, **MARKET)) < 4 * se
    assert references.coupled_difference(FixedDateRule(3), FixedDateRule(3), 2, MARKET,
                                         10_000, SEED) == (0.0, 0.0)


def test_tree_estimate_agrees_with_exact_enumeration():
    tree = bundled_tree("tree_2period")
    a, b = TreeRule(tree, ["0"]), TreeRule(tree, ["1"])
    est = estimate(tree, a, b, 20_000, 5, seed=SEED)
    assert abs(est.delta_hat - exact_delta(tree, a, b)) < 4 * est.stderr


# --- the harness at tiny sizes ----------------------------------------------------------

@pytest.fixture(scope="module")
def traced():
    return {w: run.measure(w, SEED, 0, trace=True, size="tiny") for w in workloads.WORKLOADS}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_passes_checks_and_reports_every_layer(traced, workload):
    res = traced[workload]
    assert res["failures"] == []
    # a traced round is a traced and an untraced job at one thread, plus one
    # at nproc threads when there is more than one CPU
    assert res["correct"] and res["failed"] == 0
    assert res["attempted"] == 2 + (workloads.nproc() > 1)
    names = {m["name"] for m in run.load_spec()["per_layer"]}
    assert names == set(res["metrics"])
    assert res["metrics"]["trace.attributed_share"] >= 0.9
    # only a committee decision builds a prediction matrix
    assert (res["metrics"]["stopping_rules.pred_matrix_mb"] > 0) == (workload == "qcv_committee")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_metrics_are_positive(traced, workload):
    jobs = [j for jobs in traced[workload]["jobs"].values() for j in jobs]
    metrics = run.end_to_end_metrics(jobs)
    assert set(metrics) == {m["name"] for m in run.load_spec()["end_to_end"]}
    assert all(v > 0 and math.isfinite(v) for v in metrics.values())


@pytest.mark.skipif(workloads.nproc() == 1, reason="one CPU: no second thread count to compare")
def test_estimate_files_are_byte_identical_across_thread_counts(traced):
    jobs = traced["cli_premium"]["jobs"]
    one, wide = jobs[(1, False)][0]["result"], jobs[(workloads.nproc(), False)][0]["result"]
    assert one["estimate.csv"] == wide["estimate.csv"]
    assert one["estimate.json"] == wide["estimate.json"]


def test_attributed_share_leaves_out_time_no_layer_covers():
    # an entry point that spends most of its time outside the named layers
    rec = spans.Recorder()
    mod = SimpleNamespace(pilot=lambda: time.sleep(0.02))

    def entry():
        time.sleep(0.08)
        mod.pilot()

    mod.entry = entry
    rec.wrap(mod, "pilot", "nested_cmc.pilot")
    rec.wrap(mod, "entry", "experiments")
    t0 = time.perf_counter()
    mod.entry()
    layers = spans.layer_metrics(rec, time.perf_counter() - t0)
    assert layers["experiments.self_s"] >= 0.08
    assert layers["trace.attributed_share"] < 0.5


def test_missing_package_exits_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", str(tmp_path))
    assert run.main(["--workload", "vol_study", "--seconds", "0"]) == 2
    assert capsys.readouterr().out == ""


# --- every check rejects a perturbed result ----------------------------------------

def _first(traced, workload):
    jobs = [j for jobs in traced[workload]["jobs"].values() for j in jobs]
    return copy.deepcopy(next((j for j in jobs if "reference" in j), jobs[0]))


def _vol(job):
    return checks.check_vol(job["result"], job["reference"],
                            workloads.SIZES["vol_study"]["tiny"]["replications"])


def _qcv(job):
    return checks.check_qcv(job["result"])


def _cli(job):
    return checks.check_cli(job["result"], references.european_max_call(5, **MARKET))


def _set_premium(job, delta, in_json=True):
    """Rewrite delta_hat in the CSV and, unless told otherwise, in the JSON."""
    res = job["result"]
    info = json.loads(res["estimate.json"])
    res["estimate.csv"] = res["estimate.csv"].replace(format(info["delta_hat"], ".17g"),
                                                      format(delta, ".17g"))
    if in_json:
        info["delta_hat"] = delta
        res["estimate.json"] = json.dumps(info)


def _perturb_vol(job, what):
    row = job["result"]["rows"][-1]
    if what == "value_a":
        row["value_a"] *= 0.95
    elif what == "delta_hat":
        row["delta_hat"] += 10 * math.hypot(row["stderr"], job["reference"][-1][1])
    elif what == "R_used":
        row["R_used"] += 1
    elif what == "R_star":
        row["R_star"] *= 1.01


def _perturb_qcv(job, what):
    rep = job["result"]
    if what == "mu_simple":
        rep["mu_simple"] += 10 * math.sqrt(rep["var_simple"])
    elif what == "mu_b":
        rep["mu_b"] *= 0.97
    elif what == "variance_order":
        rep["var_qcv"] = 2 * rep["var_simple"]
    elif what == "gain_ratio":
        rep["measured_gain"] *= 3


def _perturb_cli(job, what):
    delta = json.loads(job["result"]["estimate.json"])["delta_hat"]
    if what == "exit_code":
        job["result"]["rc"] = 3
    elif what == "csv":
        _set_premium(job, delta + 1e-9, in_json=False)
    elif what == "negative_premium":
        _set_premium(job, -delta)
    elif what == "premium_too_large":
        _set_premium(job, delta + 1.0)


CASES = [("vol_study", _vol, _perturb_vol, w) for w in ("value_a", "delta_hat", "R_used", "R_star")]
CASES += [("qcv_committee", _qcv, _perturb_qcv, w)
          for w in ("mu_simple", "mu_b", "variance_order", "gain_ratio")]
CASES += [("cli_premium", _cli, _perturb_cli, w)
          for w in ("exit_code", "csv", "negative_premium", "premium_too_large")]


@pytest.mark.parametrize("workload, check, perturb, what", CASES,
                         ids=[f"{c[0]}-{c[3]}" for c in CASES])
def test_check_rejects_perturbed_result(traced, workload, check, perturb, what):
    job = _first(traced, workload)
    assert check(job) == []
    perturb(job, what)
    assert check(job) != []


def test_identical_results_check_rejects_one_changed_bit(traced):
    jobs = [j for jobs in traced["qcv_committee"]["jobs"].values() for j in jobs]
    results = [copy.deepcopy(j["result"]) for j in jobs]
    assert checks.check_identical(results) == []
    results[-1]["mu_b"] = math.nextafter(results[-1]["mu_b"], math.inf)
    assert checks.check_identical(results) != []


def test_trace_check_rejects_counts_that_miss_the_work_meters(traced):
    job = copy.deepcopy(traced["vol_study"]["jobs"][(1, True)][0])
    assert run.trace_checks(job) == []
    job["layers"]["process_models.path_steps"] += 2
    assert run.trace_checks(job) != []
