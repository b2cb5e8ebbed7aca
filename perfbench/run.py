"""The benchmark command.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout that holds ``src/nccmc``.  Each job runs in
a fresh process (child.py), one after another, in whole rounds until
``--seconds`` have passed (and for at least three rounds).  Every metric
reported is the median over the round's jobs.

With ``--trace 0`` a round is one untraced job at the workload's own thread
count, and the end-to-end metrics of BENCHMARK.json are reported.  With
``--trace 1`` a round is a traced job at one thread, an untraced job at one
thread (the difference is the tracing overhead) and an untraced job at
nproc threads (for the thread speed-up), and the per-layer metrics are
reported.

After the jobs, the outputs are checked (checks.py); every job of the
invocation must also return the same bits.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; an operation is one job.  The exit code is 0 when the outputs
are correct, 1 when a check failed and 2 when the checkout has no package
to run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = os.path.join(ROOT, ".perfbench_runs")
CHILD_TIMEOUT_S = 150

sys.path.insert(0, HERE)
import checks  # noqa: E402
import references  # noqa: E402
import workloads  # noqa: E402


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_child(workload: str, seed: int, size: str, threads: int, trace: bool,
              reference: bool, tag: str):
    """One job in a fresh process; returns (measurements, error message)."""
    out_dir = os.path.join(RUNS, f"{workload}-{os.getpid()}-{tag}")
    os.makedirs(out_dir)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), workload, str(seed), size,
           str(threads), "1" if trace else "0", "1" if reference else "0", out_dir]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"job {tag} timed out after {CHILD_TIMEOUT_S} s"
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if proc.returncode != 0:
        return None, f"job {tag} exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), None
    except (IndexError, ValueError):
        return None, f"job {tag} printed no result"


def output_checks(workload: str, size: str, job: dict) -> list[str]:
    result = job["result"]
    if workload == "vol_study":
        return checks.check_vol(result, job["reference"], workloads.SIZES[workload][size]["replications"])
    if workload == "qcv_committee":
        return checks.check_qcv(result)
    european = references.european_max_call(int(workloads.CLI_CONFIG["model.d"]), **workloads.MARKET)
    return checks.check_cli(result, european)


def trace_checks(job: dict) -> list[str]:
    # the traced counts must match the work meters the program returned
    lay = job["layers"]
    fails = []
    if lay["process_models.path_steps"] != job["steps"]:
        fails.append(f"traced path steps {lay['process_models.path_steps']} != metered {job['steps']}")
    if lay["stopping_rules.member_evals"] != job["rule_evals"]:
        fails.append(f"traced member evals {lay['stopping_rules.member_evals']} != metered {job['rule_evals']}")
    return fails


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """Run the workload's rounds and checks; returns the result object."""
    nproc = workloads.nproc()
    if trace:
        plan = [(1, True), (1, False)] + ([(nproc, False)] if nproc > 1 else [])
        min_rounds = 1
    else:
        plan = [(workloads.default_threads(workload), False)]
        min_rounds = 3
    jobs: dict[tuple[int, bool], list[dict]] = {key: [] for key in plan}
    errors: list[str] = []
    attempted = rounds = 0
    t0 = time.monotonic()
    os.makedirs(RUNS, exist_ok=True)
    while rounds < min_rounds or time.monotonic() - t0 < seconds:
        for threads, traced in plan:
            job, err = run_child(workload, seed, size, threads, traced,
                                 reference=attempted == 0, tag=str(attempted))
            attempted += 1
            if job is None:
                errors.append(err)
            else:
                jobs[(threads, traced)].append(job)
        rounds += 1
    try:
        os.rmdir(RUNS)
    except OSError:
        pass

    done = [job for key in plan for job in jobs[key]]
    if not jobs[plan[0]] or (trace and not jobs[(1, False)]):
        return {"correct": False, "attempted": attempted, "failed": len(errors), "metrics": {},
                "failures": errors + ["no job of a kind the metrics need finished"], "samples": 0}
    fails = checks.check_identical([job["result"] for job in done])
    first = next((job for job in done if "reference" in job), None)
    if workload == "vol_study" and first is None:
        fails.append("the job computing the reference did not finish")
    else:
        fails += output_checks(workload, size, first or done[0])
    if trace:
        for job in jobs[(1, True)]:
            fails += trace_checks(job)
    metrics = trace_metrics(jobs, plan) if trace else end_to_end_metrics(jobs[plan[0]])
    return {"correct": not fails, "attempted": attempted, "failed": len(errors),
            "metrics": metrics, "failures": errors + fails, "samples": len(jobs[plan[0]]),
            "jobs": jobs}


def _median(jobs: list[dict], f) -> float:
    return statistics.median(f(job) for job in jobs)


def end_to_end_metrics(jobs: list[dict]) -> dict[str, float]:
    return {
        "setup_s": _median(jobs, lambda j: j["setup_s"]),
        "run_s": _median(jobs, lambda j: j["run_s"]),
        "work_units_per_s": _median(jobs, lambda j: j["work_units"] / j["run_s"]),
        "precision_per_s": _median(jobs, lambda j: 1.0 / (j["variance"] * j["run_s"])),
        "peak_rss_mb": _median(jobs, lambda j: j["rss_mb"]),
    }


def trace_metrics(jobs: dict, plan: list) -> dict[str, float]:
    traced, plain = jobs[plan[0]], jobs[(1, False)]
    wide = jobs[plan[-1]] or plain
    out = {name: _median(traced, lambda j: j["layers"][name]) for name in traced[0]["layers"]}
    out["trace.overhead_s"] = _median(traced, lambda j: j["run_s"]) - _median(plain, lambda j: j["run_s"])
    out["nested_cmc.thread_speedup"] = (_median(plain, lambda j: j["estimate_s"])
                                        / _median(wide, lambda j: j["estimate_s"]))
    return out


def report(workload: str, res: dict, spec: dict, trace: bool) -> dict:
    """Print the metric table; returns the JSON object for the last line."""
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    print(f"{workload}: {res['attempted']} jobs, {res['failed']} failed, "
          f"medians over {res['samples']} samples")
    for m in listed:
        if m["name"] not in res["metrics"]:
            continue
        value = float(res["metrics"][m["name"]])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<38} {value:>14.6g} {m['unit']:<12} n={res['samples']}")
    for f in res["failures"]:
        print(f"  FAILED: {f}", file=sys.stderr)
    return {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per workload (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "nccmc", "__init__.py")):
        print(f"error: no package to benchmark at {os.path.join(ROOT, 'src', 'nccmc')}",
              file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        res = measure(name, args.seed, seconds, bool(args.trace))
        line = report(name, res, spec, bool(args.trace))
        ok = ok and line["correct"]
        print(json.dumps(line), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
