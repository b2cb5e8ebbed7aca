"""Command-line front end.

Plumbing only: parse a flat key=value config, build models and rules, call
the library, and write CSV/JSON files whose bytes depend on nothing but the
config and seed.  Wall-clock timestamps go to the run manifest, never into
result files, so reruns and different --threads settings produce identical
outputs.

Exit codes: 0 success, 2 bad config or arguments, 3 runtime failure,
4 failed consistency check (oracle-check).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, fields, replace
from typing import Callable, NamedTuple, Optional

from . import __version__, rng
from .calibration import CalibParams, CalibReport, choose_R, trunks_for_budget, v_profile
from .experiments import (
    ExperimentConfig,
    MlLevelRow,
    Table1Row,
    multilevel_estimate,
    param_uncertainty_study,
    qcv_estimate,
)
from .nested_cmc import estimate, pilot
from .oracle import exact_components, exact_delta
from .process_models import GbmModel, GbmParams, TreeModel, bundled_tree, load_tree, simulate_training_paths
from .stopping_rules import FixedDateRule, TreeRule, shift_rule, train_committee, train_tvr


class ConfigError(Exception):
    """Anything wrong with the config file or flags; exits with code 2."""


class CheckFailure(Exception):
    """A consistency check that is supposed to stop the run; exits with 4."""


# --- config handling ---------------------------------------------------------

def _read_config(path: str) -> dict[str, str]:
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    out: dict[str, str] = {}
    for lineno, line in enumerate(lines, 1):
        s = line.strip()
        if not s or s.startswith("#"):
            continue
        if "=" not in s:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {s!r}")
        key, _, value = s.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in out:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _config_digest(cfg: dict[str, str]) -> str:
    canon = "\n".join(f"{k}={cfg[k]}" for k in sorted(cfg))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


class ConfigReader:
    """Typed access to the flat config; tracks which keys were consumed so
    a leftover (misspelled) key can be reported by name."""

    def __init__(self, raw: dict[str, str]):
        self.raw = raw
        self.seen: set[str] = set()

    def parse(self, key: str, convert, what: str, default=None):
        """convert(value) of key, or default when absent; a value convert
        rejects with ValueError is a config error saying it must be what."""
        if key not in self.raw:
            return default
        self.seen.add(key)
        v = self.raw[key]
        try:
            return convert(v)
        except ValueError:
            raise ConfigError(f"config key {key} must be {what}, got {v!r}") from None

    def str(self, key: str, default: Optional[str] = None) -> Optional[str]:
        return self.parse(key, str, "a string", default)

    def int(self, key: str, default: Optional[int] = None) -> Optional[int]:
        return self.parse(key, int, "an integer", default)

    def float(self, key: str, default: Optional[float] = None) -> Optional[float]:
        return self.parse(key, float, "a number", default)

    def floats(self, key: str, default: tuple[float, ...] = ()) -> tuple[float, ...]:
        return self.parse(key, lambda v: tuple(float(x) for x in v.split(",") if x.strip()),
                          "comma-separated numbers", default)

    def ints(self, key: str, default: tuple[int, ...] = ()) -> tuple[int, ...]:
        return self.parse(key, lambda v: tuple(int(x) for x in v.split(",") if x.strip()),
                          "comma-separated integers", default)

    def labels(self, key: str) -> Optional[tuple[str, ...]]:
        return self.parse(key, lambda v: tuple(x.strip() for x in v.split(",") if x.strip()),
                          "comma-separated labels")

    def require(self, key: str, kind: str = "str"):
        v = getattr(self, kind)(key)
        if v is None:
            raise ConfigError(f"missing required config key {key}")
        return v

    def finish(self) -> None:
        unknown = sorted(set(self.raw) - self.seen)
        if unknown:
            raise ConfigError(f"unknown config key {unknown[0]}")


def _gbm_params(r: ConfigReader) -> GbmParams:
    return GbmParams(
        d=r.int("model.d", 2),
        r=r.float("model.r", 0.05),
        delta=r.float("model.delta", 0.1),
        sigma=r.float("model.sigma", 0.2),
        K=r.float("model.strike", 100.0),
        y0=r.float("model.y0", 90.0),
        T=r.float("model.maturity", 3.0),
        n_dates=r.int("model.dates", 10),
    )


@dataclass(slots=True)
class RunSettings:
    seed_training: int
    seed_testing: int
    training_paths: int
    testing_paths: int
    n_pilot: int
    r_pilot: int
    replications: Optional[int]   # None means calibrate
    budget: Optional[float]
    threads: int


def _run_settings(r: ConfigReader, args) -> RunSettings:
    def seed(kind: str) -> Optional[int]:
        derived = None if args.seed is None else rng.derive_seed(args.seed, kind)
        return r.int(f"run.seed_{kind}", derived)

    seed_training, seed_testing = seed("training"), seed("testing")
    if seed_training is None or seed_testing is None:
        raise ConfigError("need --seed or run.seed_training and run.seed_testing")
    replications = r.parse("run.replications", lambda v: None if v == "auto" else int(v),
                           "'auto' or an integer")
    budget = r.float("run.budget")
    if budget is not None and not (math.isfinite(budget) and budget > 0):
        raise ConfigError(f"config key run.budget must be a positive finite number, got {budget!r}")
    rs = RunSettings(
        seed_training=seed_training,
        seed_testing=seed_testing,
        training_paths=r.int("run.training_paths", 100_000),
        testing_paths=r.int("run.testing_paths", 100_000),
        n_pilot=r.int("run.n_pilot", 2000),
        r_pilot=r.int("run.r_pilot", 64),
        replications=replications,
        budget=budget,
        threads=args.threads,
    )
    # the estimators' own lower bounds, checked before any output exists
    for name, low in (("replications", 1), ("testing_paths", 2), ("n_pilot", 100), ("r_pilot", 2)):
        value = getattr(rs, name)
        if value is not None and value < low:
            raise ConfigError(f"config key run.{name} must be >= {low}, got {value}")
    return rs


def _build_tree(r: ConfigReader) -> Optional[TreeModel]:
    name = r.str("tree.name")
    path = r.str("tree.file")
    if name and path:
        raise ConfigError("tree.name and tree.file are mutually exclusive")
    if name:
        try:
            return bundled_tree(name)
        except FileNotFoundError:
            raise ConfigError(f"no bundled tree named {name!r}") from None
    if path:
        try:
            with open(path) as fh:
                return load_tree(json.load(fh))
        except OSError as e:
            raise ConfigError(f"cannot read tree file {path}: {e}") from e
    return None


def _build_gbm_rule(r: ConfigReader, side: str, params: GbmParams, rs: RunSettings):
    """Read and check rules.<side>.*; the returned call trains the rule."""
    pre = f"rules.{side}."
    kind = r.str(pre + "kind", "tvr")
    sigma = r.float(pre + "sigma", params.sigma)
    n_train = r.int(pre + "training_paths", rs.training_paths)
    epsilon = r.float(pre + "epsilon", 0.0)
    if not math.isfinite(epsilon):
        raise ConfigError(f"config key {pre}epsilon must be a finite number, got {epsilon!r}")
    train_params = replace(params, sigma=sigma)
    # shared derivation tag: rules trained from the same seed share noise
    seed = rng.derive_seed(rs.seed_training, "train")
    if kind == "tvr":
        fit = lambda paths: train_tvr(paths, train_params)
    elif kind == "committee":
        members = r.int(pre + "members", 100)
        member_size = r.int(pre + "member_size", 4000)
        fit = lambda paths: train_committee(paths, train_params, members, member_size, seed)
    elif kind == "fixed":
        if epsilon != 0.0:
            raise ConfigError(f"config key {pre}epsilon applies to tvr and committee rules, not fixed")
        rule = FixedDateRule(r.int(pre + "stop_from", 0))
        return lambda: rule
    else:
        raise ConfigError(f"config key {pre}kind must be tvr, committee, or fixed, got {kind!r}")
    return lambda: shift_rule(fit(simulate_training_paths(train_params, n_train, seed)), epsilon)


def _build_problem(r: ConfigReader, args):
    """Model plus rule pair, either a JSON tree or the GBM benchmark."""
    rs = _run_settings(r, args)
    tree = _build_tree(r)
    if tree is not None:
        stop_a = r.labels("tree.stop_a")
        stop_b = r.labels("tree.stop_b")
        if stop_a is None or stop_b is None:
            raise ConfigError("tree configs need tree.stop_a and tree.stop_b")
        try:
            return tree, TreeRule(tree, stop_a), TreeRule(tree, stop_b), rs, True
        except ValueError as e:
            raise ConfigError(str(e)) from None
    params = _gbm_params(r)
    model = GbmModel(params)
    train_a = _build_gbm_rule(r, "a", params, rs)
    train_b = _build_gbm_rule(r, "b", params, rs)
    return model, train_a(), train_b(), rs, False


# --- output ------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


class Outputs:
    """Collects result files and writes the manifest at the end."""

    def __init__(self, args, raw_cfg: dict[str, str]):
        self.dir = args.out
        os.makedirs(self.dir, exist_ok=True)
        self.command = args.command
        self.digest = _config_digest(raw_cfg)
        self.seed = args.seed
        self.threads = args.threads
        self.started = time.strftime("%Y-%m-%dT%H:%M:%S%z")
        self.paths: list[str] = []

    def path(self, name: str) -> str:
        p = os.path.join(self.dir, name)
        self.paths.append(p)
        return p

    def csv(self, name: str, header: list[str], rows: list[list]) -> None:
        lines = [",".join(header)] + [",".join(_fmt(x) for x in row) for row in rows]
        with open(self.path(name), "w") as fh:
            fh.write("\n".join(lines) + "\n")

    def json(self, name: str, obj) -> None:
        _write_json(self.path(name), obj)

    def manifest(self) -> None:
        _write_json(os.path.join(self.dir, "manifest.json"), {
            "command": self.command,
            "config_digest": self.digest,
            "seed": self.seed,
            "threads": self.threads,
            "version": __version__,
            "started": self.started,
            "finished": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "outputs": self.paths,
        })


def _calib_dict(cal: CalibParams, rep: CalibReport) -> dict:
    out = {**asdict(cal), **asdict(rep), "speedup": 1.0 / rep.gamma_star}
    del out["n_star_per_budget"]
    return out


def _run_pilot(model, ruleA, ruleB, rs: RunSettings) -> tuple[CalibParams, int, CalibReport]:
    cal = pilot(
        model, ruleA, ruleB, rs.n_pilot, rs.r_pilot,
        rng.derive_seed(rs.seed_testing, "pilot"), threads=rs.threads,
    )
    return (cal, *choose_R(cal, rs.replications))


def _rows_csv(cls, rows: list) -> tuple[list[str], list[list]]:
    """One CSV column per field of the dataclass cls, one row per item."""
    cols = [f.name for f in fields(cls)]
    return cols, [[getattr(x, c) for c in cols] for x in rows]


def _experiment_config(r: ConfigReader, args, **extra) -> ExperimentConfig:
    rs = _run_settings(r, args)
    return ExperimentConfig(params=_gbm_params(r), **asdict(rs), **extra)


_NO_BUDGET = "missing required config key run.budget"


# --- subcommands --------------------------------------------------------------
#
# Each subcommand reads its config keys and returns a _Job; _run does the
# rest.  A job's run() computes everything and returns the files to write and
# the lines to print.

class _Result(NamedTuple):
    files: dict                     # name -> JSON object, or (header, rows) for .csv
    lines: list[str]                # printed to stdout
    failure: Optional[str] = None   # a failed check: exit 4 after the manifest


class _Job(NamedTuple):
    run: Callable[[], _Result]
    error: Optional[str] = None     # config error reported after unknown keys


def _pilot_job(r: ConfigReader, args) -> _Job:
    model, ruleA, ruleB, rs, is_tree = _build_problem(r, args)

    def run() -> _Result:
        cal, _, rep = _run_pilot(model, ruleA, ruleB, rs)
        info = _calib_dict(cal, rep)
        lines = [
            f"v1={cal.v1:.6g} v2={cal.v2:.6g} rho1={cal.rho1:.6g} rho2={cal.rho2:.6g} "
            f"P(differ)={cal.p_differ:.6g}",
            f"R*={rep.R_star:.6g} R_rounded={rep.R_rounded} "
            f"gamma*={rep.gamma_star:.6g} speedup={info['speedup']:.6g}"
            + (" (degenerate)" if cal.degenerate else ""),
        ]
        if is_tree:
            delta = exact_delta(model, ruleA, ruleB)
            v1x, v2x = exact_components(model, ruleA, ruleB)
            info["oracle"] = {"delta": delta, "v1": v1x, "v2": v2x}
            lines.append(f"oracle: delta={delta:.6g} v1={v1x:.6g} v2={v2x:.6g}")
        return _Result({"pilot.json": info}, lines)

    return _Job(run)


def _estimate_job(r: ConfigReader, args) -> _Job:
    model, ruleA, ruleB, rs, _ = _build_problem(r, args)

    def run() -> _Result:
        R, N, extra = rs.replications, rs.testing_paths, {}
        if R is None or rs.budget is not None:
            cal, R, rep = _run_pilot(model, ruleA, ruleB, rs)
            extra["pilot"] = _calib_dict(cal, rep)
            if rs.budget is not None:
                N = trunks_for_budget(cal, R, rs.budget)
        est = estimate(
            model, ruleA, ruleB, N, R,
            rng.derive_seed(rs.seed_testing, "estimate"), threads=rs.threads,
        )
        row = {
            "N": est.N, "R": est.R, "delta_hat": est.delta_hat, "stderr": est.stderr,
            "v1_hat": est.v1_hat, "v2_hat": est.v2_hat, "p_differ": est.p_differ,
            "work_units": est.work_trunk.units() + est.work_sub.units(),
        }
        csv_row = [-1.0 if x is None else x for x in row.values()]  # v2_hat at R = 1
        return _Result(
            {"estimate.csv": (list(row), [csv_row]), "estimate.json": {**row, **extra}},
            [f"delta_hat={est.delta_hat:.6g} stderr={est.stderr:.6g} N={est.N} R={est.R}"],
        )

    return _Job(run)


def _table1_job(r: ConfigReader, args) -> _Job:
    sigma_hats = r.floats("study.sigma_hats")
    if not sigma_hats:
        raise ConfigError("missing required config key study.sigma_hats")
    cfg = _experiment_config(r, args, sigma_hats=sigma_hats)

    def run() -> _Result:
        rows = param_uncertainty_study(cfg)
        return _Result(
            {"table1.csv": _rows_csv(Table1Row, rows),
             "table1.json": {"rows": [asdict(x) for x in rows]}},
            [f"sigma_hat={x.sigma_hat:.6g} delta={x.delta_hat:.6g} stderr={x.stderr:.6g} "
             f"P={x.p_differ:.6g} R*={x.R_star:.6g} speedup={x.speedup:.6g}" for x in rows],
        )

    return _Job(run)


def _qcv_job(r: ConfigReader, args) -> _Job:
    cfg = _experiment_config(
        r, args,
        committee_members=r.int("qcv.members", 1000),
        member_size=r.int("qcv.member_size", 4000),
    )

    def run() -> _Result:
        rep = qcv_estimate(cfg)
        header = ["estimator", "mu_hat", "variance", "work_units", "n_base", "n_trunks", "R"]
        rows = [
            ["simple", rep.mu_simple, rep.var_simple, rep.work_simple, 0, rep.n_simple, 0],
            ["qcv", rep.mu_qcv, rep.var_qcv, rep.work_qcv, rep.alloc_qcv[0], rep.alloc_qcv[1], 1],
            ["qcv_nested", rep.mu_qcv_nested, rep.var_qcv_nested, rep.work_qcv_nested,
             rep.alloc_qcv_nested[0], rep.alloc_qcv_nested[1], rep.R_used],
        ]
        info = asdict(rep)
        info["pilot_params"] = _calib_dict(rep.pilot_params, rep.calibration)
        del info["calibration"]
        return _Result(
            {"qcv.csv": (header, rows), "qcv.json": info},
            [f"mu_b={rep.mu_b:.6g} simple={rep.var_simple:.6g} qcv={rep.var_qcv:.6g} "
             f"nested={rep.var_qcv_nested:.6g} measured_gain={rep.measured_gain:.6g}"],
        )

    return _Job(run, _NO_BUDGET if cfg.budget is None else None)


def _multilevel_job(r: ConfigReader, args) -> _Job:
    ladder = r.ints("ml.ladder")
    if not ladder:
        raise ConfigError("missing required config key ml.ladder")
    cfg = _experiment_config(
        r, args,
        ladder=ladder,
        member_size=r.int("ml.member_size", 4000),
    )

    def run() -> _Result:
        rep = multilevel_estimate(cfg)
        return _Result(
            {"multilevel.csv": _rows_csv(MlLevelRow, rep.rows), "multilevel.json": asdict(rep)},
            [f"combined={rep.combined:.6g}+-{rep.combined_stderr:.6g} "
             f"direct={rep.direct:.6g}+-{rep.direct_stderr:.6g} z={rep.telescoping_z:.3g}",
             f"var simple={rep.var_simple:.6g} ml={rep.var_ml:.6g} nested={rep.var_ml_nested:.6g}"],
        )

    return _Job(run, _NO_BUDGET if cfg.budget is None else None)


def _oracle_check_job(r: ConfigReader, args) -> _Job:
    model, ruleA, ruleB, rs, is_tree = _build_problem(r, args)

    def run() -> _Result:
        R = rs.replications if rs.replications is not None else 5
        delta = exact_delta(model, ruleA, ruleB)
        est = estimate(
            model, ruleA, ruleB, rs.testing_paths, R,
            rng.derive_seed(rs.seed_testing, "oracle-check"), threads=rs.threads,
        )
        err = float(abs(est.delta_hat - delta))
        # stderr 0 happens when the rules agree everywhere; then the estimate
        # must be exact
        ok = bool(err < 4.0 * est.stderr) if est.stderr > 0 else err == 0.0
        info = {
            "delta_exact": delta, "delta_hat": est.delta_hat, "stderr": est.stderr,
            "abs_error": err, "N": est.N, "R": est.R, "passed": ok,
        }
        return _Result(
            {"oracle_check.json": info},
            [f"delta_exact={delta:.6g} delta_hat={est.delta_hat:.6g} stderr={est.stderr:.6g} "
             f"{'PASS' if ok else 'FAIL'}"],
            None if ok else
            f"|delta_hat - delta| = {err:.6g} exceeds 4*stderr = {4 * est.stderr:.6g}",
        )

    return _Job(run, None if is_tree else "oracle-check needs a tree config (tree.name or tree.file)")


def _vprofile_job(r: ConfigReader, args) -> _Job:
    model, ruleA, ruleB, rs, _ = _build_problem(r, args)
    r_max = r.int("vprofile.r_max", 0)
    points = r.int("vprofile.points", 64)
    if points < 2:
        raise ConfigError("vprofile.points must be >= 2")

    def run() -> _Result:
        cal, _, rep = _run_pilot(model, ruleA, ruleB, rs)
        top = r_max if r_max >= 1 else 4 * (64 if cal.degenerate else rep.R_rounded)
        grid = sorted({round(top ** (k / (points - 1))) for k in range(points)})
        return _Result(
            {"vprofile.csv": (["R", "V"], [[R, v_profile(cal, R)] for R in grid]),
             "vprofile.json": {"pilot": _calib_dict(cal, rep), "r_max": top}},
            [f"wrote {len(grid)} grid points up to R={top}"],
        )

    return _Job(run)


def _run(args) -> int:
    raw = _read_config(args.config)
    r = ConfigReader(raw)
    job = args.job(r, args)
    r.finish()
    if job.error:
        raise ConfigError(job.error)
    out = Outputs(args, raw)
    res = job.run()
    for name, payload in res.files.items():
        if name.endswith(".csv"):
            out.csv(name, *payload)
        else:
            out.json(name, payload)
    out.manifest()
    print("\n".join(res.lines))
    if res.failure:
        raise CheckFailure(res.failure)
    return 0


# --- entry point ---------------------------------------------------------------

_COLUMN_DOCS = """\
output columns (see docs/format.md for full details):
  estimate.csv    N, R, delta_hat, stderr, v1_hat, v2_hat (-1 when R=1),
                  p_differ, work_units
  table1.csv      sigma_hat, delta_hat, stderr, value_a, value_a_stderr,
                  value_b, p_differ, v1, v2, rho1, rho2, R_star, R_used,
                  gamma_star, speedup, N, work_units, degenerate
  qcv.csv         estimator, mu_hat, variance, work_units, n_base, n_trunks, R
  multilevel.csv  level, members, N, R, estimate, stderr, v1, v2, rho1, rho2,
                  R_star, gamma_star, work_units
  vprofile.csv    R, V (budget-normalized variance profile at R)
All floats are written with 17 significant digits; reruns with the same
config and seed are byte-identical, regardless of --threads.
"""


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nccmc",
        description="Coupled pricing of two stopping rules by nested conditional Monte Carlo.",
        epilog=_COLUMN_DOCS,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)
    cmds = {
        "pilot": (_pilot_job, "estimate variance components and calibrate R"),
        "estimate": (_estimate_job, "run the two-stage difference estimator"),
        "table1": (_table1_job, "parameter-uncertainty study over a sigma_hat grid"),
        "qcv": (_qcv_job, "control-variate pricing of a costly rule at matched budget"),
        "multilevel": (_multilevel_job, "fidelity-ladder telescoping at matched budget"),
        "oracle-check": (_oracle_check_job, "compare the estimator against exact tree enumeration"),
        "vprofile": (_vprofile_job, "export the V(R) variance-profile grid"),
    }
    for name, (fn, help_) in cmds.items():
        q = sub.add_parser(name, help=help_, epilog=_COLUMN_DOCS,
                           formatter_class=argparse.RawDescriptionHelpFormatter)
        q.add_argument("--config", required=True, help="flat key=value config file")
        q.add_argument("--seed", type=int, default=None,
                       help="base seed; run.seed_training/run.seed_testing override it")
        q.add_argument("--threads", type=int, default=None,
                       help="worker threads (default: NCCMC_THREADS or 1); never changes results")
        q.add_argument("--out", default=".", help="output directory (default: current)")
        q.set_defaults(job=fn)
    return p


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if args.threads is None:
        env = os.environ.get("NCCMC_THREADS", "1")
        try:
            args.threads = int(env)
        except ValueError:
            print(f"error: NCCMC_THREADS must be an integer, got {env!r}", file=sys.stderr)
            return 2
    if args.threads < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return 2
    try:
        return _run(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except CheckFailure as e:
        print(f"check failed: {e}", file=sys.stderr)
        return 4
    except Exception as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
