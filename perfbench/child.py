"""Run one benchmark job in a fresh process and print its measurements.

    python3 perfbench/child.py WORKLOAD SEED SIZE THREADS TRACE REFERENCE OUT_DIR

Imports the package from the checkout's ``src/`` (timing the import), wraps
its calls (spans.py), runs one job of the workload and prints one JSON
object: set-up and run seconds, peak RSS of this process, the work units
of every estimator call, the headline variance, the job's full result and,
with TRACE=1, the per-layer numbers.  The job's own result files, if any,
go to OUT_DIR.  With REFERENCE=1 and ``vol_study``, the child also computes,
after everything above is measured, the coupled plain Monte Carlo
reference for the rule pairs the job trained.
"""

import json
import os
import resource
import sys
import time

import spans
import workloads


def main(argv: list[str]) -> int:
    workload, seed, size, threads, trace, reference, out_dir = argv[1:8]
    seed, threads, trace = int(seed), int(threads), trace == "1"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    sys.path.insert(0, src)

    t0 = time.perf_counter()
    import nccmc.cli  # noqa: F401  (loads every module of the package)
    import_s = time.perf_counter() - t0
    nccmc = sys.modules["nccmc"]
    if not os.path.abspath(nccmc.__file__).startswith(src + os.sep):
        raise RuntimeError(f"nccmc imported from {nccmc.__file__}, not from {src}")

    rec = spans.Recorder()
    spans.install_phases(rec, nccmc)
    if trace:
        spans.install_layers(rec, nccmc)
    rec.wrap(nccmc.experiments, "param_uncertainty_study", "experiments")
    rec.wrap(nccmc.experiments, "qcv_estimate", "experiments")
    rec.wrap(nccmc.cli, "main", "cli.main")
    if workload == "cli_premium":
        with open(os.path.join(out_dir, "run.cfg"), "w") as fh:
            fh.write(workloads.cli_config_text(size))

    t1 = time.perf_counter()
    result, variance = workloads.run_job(nccmc, workload, seed, size, threads, out_dir)
    wall = time.perf_counter() - t1
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rec.uninstall()

    setup_spans = sum(rec.total[label] for label in spans.SETUP)
    run_s = wall - setup_spans
    meters = [w for _, m in rec.meters
              for w in ((m.work,) if hasattr(m, "work") else (m.work_trunk, m.work_sub))]
    out = {
        "import_s": import_s,
        "setup_s": import_s + setup_spans,
        "run_s": run_s,
        "rss_mb": rss_mb,
        "work_units": sum(w.units() for w in meters),
        "steps": sum(w.steps for w in meters),
        "rule_evals": sum(w.rule_evals for w in meters),
        "variance": variance,
        "estimate_s": sum(rec.estimate_s),
        "result": result,
    }
    if trace:
        out["layers"] = spans.layer_metrics(rec, run_s)
    if reference == "1" and workload == "vol_study":
        import references
        rule_a, *rules_b = rec.rules
        out["reference"] = [
            references.coupled_difference(rule_a, rule_b, 2, workloads.MARKET,
                                          workloads.REFERENCE_PATHS[size], seed)
            for rule_b in rules_b]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
