"""The three benchmark workloads: configs, and one job run of each.

Every job takes the package (already imported and, in traced runs,
wrapped) as an argument, so this module imports nothing of the package
itself and the child process can time the package import on its own.

Seeds: the benchmark seed is the testing seed, which drives the pilot and
every estimator run.  The training seed is fixed per workload, so every
seed prices the same trained rules and moves only the Monte Carlo sample;
the work a job does then hardly depends on the seed, and neither do its
timings.  The fixed training seeds are those of the package's acceptance
criteria 4 and 5 (20260816, testing seed 20260817; 101, testing seed 102).
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict

WORKLOADS = ("vol_study", "qcv_committee", "cli_premium")

# The max-call market of Andersen & Broadie (2004): r = 5 %, delta = 10 %,
# sigma = 20 %, K = 100, T = 3, S0 = 90, ten exercise dates.
MARKET = dict(r=0.05, delta=0.1, sigma=0.2, K=100.0, y0=90.0, T=3.0, n_dates=10)

# Sizes.  "full" is what the benchmark measures; "tiny" runs the same code
# paths through the same checks in about a second, for the benchmark's tests.
SIZES = {
    "vol_study": {
        "full": dict(training_paths=100_000, testing_paths=400_000, n_pilot=6000,
                     r_pilot=128, replications=200),
        "tiny": dict(training_paths=20_000, testing_paths=50_000, n_pilot=1000,
                     r_pilot=16, replications=20),
    },
    "qcv_committee": {
        "full": dict(training_paths=100_000, n_pilot=8000, r_pilot=64,
                     committee_members=2000, member_size=500, budget=50e6),
        "tiny": dict(training_paths=20_000, n_pilot=500, r_pilot=16,
                     committee_members=200, member_size=500, budget=2e6),
    },
    "cli_premium": {
        "full": {"run.budget": "43e6", "run.replications": "10"},
        "tiny": {"run.budget": "2e6", "run.replications": "10", "rules.a.training_paths": "20000",
                 "run.n_pilot": "500", "run.r_pilot": "8"},
    },
}

SEED_TRAINING = {"vol_study": 20260816, "qcv_committee": 101, "cli_premium": 2718}
VOL_SIGMA_HATS = (0.205, 0.21)
# Paths of the coupled plain Monte Carlo reference for vol_study's rule pairs.
REFERENCE_PATHS = {"full": 1_000_000, "tiny": 200_000}
CLI_CONFIG = {"model.d": "5", "rules.b.kind": "fixed", "rules.b.stop_from": "9",
              "run.seed_training": str(SEED_TRAINING["cli_premium"])}


def nproc() -> int:
    """CPUs this process may run on (its affinity mask, as nproc reports)."""
    return len(os.sched_getaffinity(0))


def default_threads(workload: str) -> int:
    """Thread count of the end-to-end run: nproc for the CLI, else one."""
    return nproc() if workload == "cli_premium" else 1


def cli_config_text(size: str) -> str:
    cfg = {**CLI_CONFIG, **SIZES["cli_premium"][size]}
    return "".join(f"{k}={v}\n" for k, v in cfg.items())


def vol_config(nccmc, seed: int, size: str, threads: int):
    p = nccmc.process_models.GbmParams(d=2, **MARKET)
    return nccmc.experiments.ExperimentConfig(
        params=p, seed_training=SEED_TRAINING["vol_study"], seed_testing=seed,
        sigma_hats=VOL_SIGMA_HATS, threads=threads, **SIZES["vol_study"][size])


def qcv_config(nccmc, seed: int, size: str, threads: int):
    p = nccmc.process_models.GbmParams(d=3, **MARKET)
    return nccmc.experiments.ExperimentConfig(
        params=p, seed_training=SEED_TRAINING["qcv_committee"], seed_testing=seed,
        threads=threads, **SIZES["qcv_committee"][size])


def run_job(nccmc, workload: str, seed: int, size: str, threads: int, out_dir: str):
    """Run one job; returns (result, headline variance).

    The result holds every number the job returned, in JSON-ready form, so
    two jobs can be compared bit for bit.
    """
    if workload == "vol_study":
        rows = nccmc.experiments.param_uncertainty_study(vol_config(nccmc, seed, size, threads))
        result = {"rows": [asdict(r) for r in rows]}
        return result, rows[-1].stderr ** 2
    if workload == "qcv_committee":
        rep = nccmc.experiments.qcv_estimate(qcv_config(nccmc, seed, size, threads))
        result = asdict(rep)
        return result, rep.var_qcv_nested
    if workload == "cli_premium":
        cfg = os.path.join(out_dir, "run.cfg")
        out = os.path.join(out_dir, "out")
        rc = nccmc.cli.main(["estimate", "--config", cfg, "--seed", str(seed),
                             "--threads", str(threads), "--out", out])
        result = {"rc": rc}
        if rc == 0:
            for name in ("estimate.csv", "estimate.json"):
                with open(os.path.join(out, name)) as fh:
                    result[name] = fh.read()
        info = json.loads(result["estimate.json"]) if rc == 0 else {}
        return result, info.get("stderr", float("nan")) ** 2
    raise ValueError(f"unknown workload {workload!r}")
