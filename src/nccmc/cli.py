"""Command-line front end.

Plumbing only: parse a flat key=value config into the library's
``RunSettings`` (an ``ExperimentConfig`` for a study), build models and
rules, call the library (every pilot through ``calibrate``), and write
CSV/JSON files whose bytes depend on nothing but the config and seed.
Wall-clock timestamps go to the run manifest, never into result files, so
reruns and different --threads settings produce identical outputs on one
numpy and BLAS install at one BLAS thread count.

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
from dataclasses import asdict, fields, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import __version__, rng
from .calibration import CalibParams, CalibReport, v_profile
from .experiments import (
    ExperimentConfig,
    MlLevelRow,
    RunSettings,
    Table1Row,
    calibrate,
    multilevel_estimate,
    param_uncertainty_study,
    qcv_estimate,
)
from .nested_cmc import estimate, floored
from .oracle import exact_delta, exact_moments
from .process_models import GbmModel, GbmParams, TreeModel, bundled_tree, simulate_training_paths
from .stopping_rules import FixedDateRule, TreeRule, basis_size, shift_rule, train_committee, train_tvr


class ConfigError(Exception):
    """Anything wrong with the config file or flags; exits with code 2."""


class CheckFailure(Exception):
    """A consistency check that is supposed to stop the run; exits with 4."""


# --- config handling ---------------------------------------------------------

def _read_config(path: str) -> dict[str, str]:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as e:
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


def _within(x, low=None, above=None, high=None):
    """x when it is finite, >= low, > above and <= high (each bound when given); else ValueError."""
    if (-math.inf < x < math.inf and (low is None or x >= low) and (above is None or x > above)
            and (high is None or x <= high)):
        return x
    raise ValueError(x)


def _bounds(what: str, low=None, above=None, high=None) -> str:
    return what + " and".join(f" {op} {x}" for op, x in ((">=", low), (">", above), ("<=", high)) if x is not None)


def _items(v: str, convert) -> tuple:
    """The non-empty comma-separated list v, each item converted."""
    xs = tuple(convert(x) for x in v.split(",") if x.strip())
    if not xs:
        raise ValueError(v)
    return xs


class ConfigReader:
    """Typed access to the flat config; tracks which keys were consumed so
    a leftover (misspelled) key can be reported by name.

    Every bad value is rejected here, where its key is read: numbers must
    be finite, and a key's bound is an argument of its read.
    """

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

    def int(self, key: str, default: Optional[int] = None, low=None, high=None) -> Optional[int]:
        return self.parse(key, lambda v: _within(int(v), low, high=high),
                          _bounds("an integer", low, high=high), default)

    def float(self, key: str, default: Optional[float] = None, low=None, above=None) -> Optional[float]:
        return self.parse(key, lambda v: _within(float(v), low, above),
                          _bounds("a finite number", low, above), default)

    def floats(self, key: str, above=None) -> Optional[tuple[float, ...]]:
        return self.parse(key, lambda v: _items(v, lambda x: _within(float(x), above=above)),
                          _bounds("comma-separated finite numbers", above=above))

    def ints(self, key: str, low=None) -> Optional[tuple[int, ...]]:
        """A strictly increasing list, such as a ladder of committee sizes."""
        def convert(v: str) -> tuple[int, ...]:
            xs = _items(v, lambda x: _within(int(x), low))
            if any(b <= a for a, b in zip(xs, xs[1:])):
                raise ValueError(v)
            return xs
        return self.parse(key, convert, _bounds("strictly increasing comma-separated integers", low))

    def labels(self, key: str) -> Optional[tuple[str, ...]]:
        return self.parse(key, lambda v: tuple(x.strip() for x in v.split(",") if x.strip()),
                          "comma-separated labels")

    def require(self, key: str, kind: str = "str", **bounds):
        """The read of key by method kind, for a key that must be present."""
        v = getattr(self, kind)(key, **bounds)
        if v is None:
            raise ConfigError(f"missing required config key {key}")
        return v

    def finish(self) -> None:
        unknown = sorted(set(self.raw) - self.seen)
        if unknown:
            raise ConfigError(f"unknown config key {unknown[0]}")


def _gbm_params(r: ConfigReader) -> GbmParams:
    return GbmParams(
        d=r.int("model.d", 2, 1),
        r=r.float("model.r", 0.05),
        delta=r.float("model.delta", 0.1),
        sigma=r.float("model.sigma", 0.2, low=0),
        K=r.float("model.strike", 100.0, above=0),
        y0=r.float("model.y0", 90.0, above=0),
        T=r.float("model.maturity", 3.0, above=0),
        n_dates=r.int("model.dates", 10, 2, rng.DATE_LIMIT),
    )


def _run_settings(r: ConfigReader, args, basis: Optional[int] = None, need_budget: bool = False,
                  cls=RunSettings, **more) -> RunSettings:
    """run.* keys as a ``cls``, a RunSettings built with the further fields
    ``more``; training paths must cover a GBM model's regression basis
    (tree models train nothing).  Only the fields a key sets are passed, so
    an absent key takes the default of ``cls``.  Both seeds derive from
    --seed; run.seed_training may set the training seed instead."""
    if args.seed is None:
        raise ConfigError("need --seed")
    given = dict(
        seed_training=r.int("run.seed_training", rng.derive_seed(args.seed, "training")),
        training_paths=r.int("run.training_paths", low=basis),
        testing_paths=r.int("run.testing_paths", low=2),
        n_pilot=r.int("run.n_pilot", low=100),
        r_pilot=r.int("run.r_pilot", low=2),
        replications=r.parse("run.replications", lambda v: None if v == "auto" else _within(int(v), 1),
                             "'auto' or an integer >= 1"),
        budget=r.require("run.budget", "float", above=0) if need_budget else r.float("run.budget", above=0),
        **more,
    )
    return cls(seed_testing=rng.derive_seed(args.seed, "testing"), threads=args.threads,
               **{k: v for k, v in given.items() if v is not None})


def _build_tree(r: ConfigReader) -> Optional[TreeModel]:
    name = r.str("tree.name")
    path = r.str("tree.file")
    if name and path:
        raise ConfigError("tree.name and tree.file are mutually exclusive")
    if name:
        try:
            return bundled_tree(name)
        except FileNotFoundError:
            raise ConfigError(f"config key tree.name: no bundled tree named {name!r}") from None
    if path:
        try:
            with open(path, encoding="utf-8") as fh:
                return TreeModel(json.load(fh))
        except OSError as e:
            raise ConfigError(f"config key tree.file: cannot read {path}: {e}") from e
        except (ValueError, RecursionError) as e:  # not JSON, not a tree, or nested too deeply
            raise ConfigError(f"config key tree.file: {path} is not a valid tree: {e}") from None
    return None


def _build_gbm_rule(r: ConfigReader, side: str, params: GbmParams, rs: RunSettings):
    """Read rules.<side>.*, only the keys the rule's kind reads: the rule's
    training set, (GBM parameters at its sigma, path count) or None for a
    fixed rule, and the call that fits the rule on that set's pool."""
    pre = f"rules.{side}."
    basis = basis_size(params.d)
    kind = r.str(pre + "kind", "tvr")
    if kind == "fixed":
        rule = FixedDateRule(r.int(pre + "stop_from", 0, 0))
        return None, lambda pool: rule
    if kind == "tvr":
        fit = train_tvr
    elif kind == "committee":
        members = r.int(pre + "members", 100, 1)
        member_size = r.int(pre + "member_size", 4000, basis)
        fit = lambda paths: train_committee(paths, members, member_size)
    else:
        raise ConfigError(f"config key {pre}kind must be tvr, committee, or fixed, got {kind!r}")
    training = (replace(params, sigma=r.float(pre + "sigma", params.sigma, low=0)),
                r.int(pre + "training_paths", rs.training_paths, basis))
    epsilon = r.float(pre + "epsilon", 0.0)
    return training, lambda pool: shift_rule(fit(pool), epsilon)


def _build_problem(r: ConfigReader, args):
    """The model (a JSON tree or the GBM benchmark), a call returning the
    rule pair, and the run settings.  GBM rules train only when the call is
    made: each distinct training set's pool is simulated once, and freed
    before the next one is."""
    tree = _build_tree(r)
    if tree is not None:
        rs = _run_settings(r, args)
        try:
            rules = (TreeRule(tree, r.require("tree.stop_a", "labels")),
                     TreeRule(tree, r.require("tree.stop_b", "labels")))
        except ValueError as e:
            raise ConfigError(str(e)) from None
        return tree, lambda: rules, rs
    params = _gbm_params(r)
    rs = _run_settings(r, args, basis_size(params.d))
    sides = [_build_gbm_rule(r, side, params, rs) for side in "ab"]

    def train():
        rules = {}
        for training in dict.fromkeys(key for key, _ in sides):
            pool = None if training is None else simulate_training_paths(*training, rs.seed_training)
            rules.update({i: fit(pool) for i, (key, fit) in enumerate(sides) if key == training})
            del pool
        return rules[0], rules[1]

    return GbmModel(params), train, rs


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
    """Collects result files and writes the manifest at the end.

    The directory is made when the first file is written, so a run that
    fails leaves none; ``started`` is the time the command started.
    """

    def __init__(self, args, raw_cfg: dict[str, str]):
        self.dir = args.out
        self.command = args.command
        self.digest = _config_digest(raw_cfg)
        self.seed = args.seed
        self.threads = args.threads
        self.started = time.strftime("%Y-%m-%dT%H:%M:%S%z")
        self.paths: list[str] = []

    def path(self, name: str) -> str:
        os.makedirs(self.dir, exist_ok=True)
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
        # numpy, its BLAS and LAPACK, and the BLAS threads: what trained
        # coefficients' bits depend on beyond the config
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        _write_json(os.path.join(self.dir, "manifest.json"), {
            "command": self.command,
            "config_digest": self.digest,
            "seed": self.seed,
            "threads": self.threads,
            "version": __version__,
            "numpy": np.__version__,
            **{lib: {key: deps[lib].get(key) for key in ("name", "version")} for lib in ("blas", "lapack")},
            "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "started": self.started,
            "finished": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "outputs": self.paths,
        })


def _calib_dict(cal: CalibParams, rep: CalibReport) -> dict:
    return {**asdict(cal), **asdict(rep), "speedup": 1.0 / rep.gamma_star}


def _rows_csv(cls, rows: list) -> tuple[list[str], list[list]]:
    """One CSV column per field of the dataclass cls, one row per item."""
    cols = [f.name for f in fields(cls)]
    return cols, [[getattr(x, c) for c in cols] for x in rows]


def _experiment_config(r: ConfigReader, args, study: Optional[str] = None, **extra) -> ExperimentConfig:
    """GBM parameters and run settings; a budget study (qcv or ml) also
    needs run.budget and reads <study>.member_size."""
    params = _gbm_params(r)
    basis = basis_size(params.d)
    if study:
        extra["member_size"] = r.int(f"{study}.member_size", low=basis)
    return _run_settings(r, args, basis, bool(study), ExperimentConfig, params=params, **extra)


# --- subcommands --------------------------------------------------------------
#
# Each subcommand reads and checks its config keys and returns its run; _run
# does the rest.  run() computes everything, training the rules first, and
# returns the files to write and the lines to print.

class _Result(NamedTuple):
    files: dict                     # name -> JSON object, or (header, rows) for .csv
    lines: list[str]                # printed to stdout
    failure: Optional[str] = None   # a failed check: exit 4 after the manifest


_Job = Callable[[], _Result]


def _pilot_job(r: ConfigReader, args) -> _Job:
    model, rules, rs = _build_problem(r, args)

    def run() -> _Result:
        ruleA, ruleB = rules()
        cal, _, rep, _ = calibrate(model, ruleA, ruleB, rs, "pilot")
        info = _calib_dict(cal, rep)
        lines = [
            f"v1={cal.v1:.6g} v2={cal.v2:.6g} rho1={cal.rho1:.6g} rho2={cal.rho2:.6g} "
            f"P(differ)={cal.p_differ:.6g}",
            f"R*={rep.R_star:.6g} R_rounded={rep.R_rounded} "
            f"gamma*={rep.gamma_star:.6g} speedup={info['speedup']:.6g}"
            + (" (degenerate)" if cal.degenerate else ""),
        ]
        if isinstance(model, TreeModel):
            delta, v1x, v2x = exact_moments(model, ruleA, ruleB)
            info["oracle"] = {"delta": delta, "v1": v1x, "v2": v2x}
            lines.append(f"oracle: delta={delta:.6g} v1={v1x:.6g} v2={v2x:.6g}")
        return _Result({"pilot.json": info}, lines)

    return run


def _run_estimate(model, ruleA, ruleB, rs: RunSettings) -> tuple[dict, dict]:
    """The estimate's row, and its extra fields: the pilot block when a pilot
    sized the run, as it does when R is auto or a budget is set."""
    R, N, extra = rs.replications, rs.testing_paths, {}
    if R is None or rs.budget is not None:
        cal, R, rep, N = calibrate(model, ruleA, ruleB, rs, "pilot")
        # both costs at the pilot's floor: no trunk did any work, and the
        # budget would buy some 10^12 trunks per work unit
        if rs.budget is not None and max(cal.rho1, cal.rho2) <= floored(0.0):
            raise ConfigError("config key run.budget cannot size this run: the pilot's trunks did no work "
                              "(both rules stop at date 0), so set run.testing_paths instead")
        extra["pilot"] = _calib_dict(cal, rep)
    est = estimate(
        model, ruleA, ruleB, N, R,
        rng.derive_seed(rs.seed_testing, "estimate"), threads=rs.threads,
    )
    row = {
        "N": est.N, "R": est.R, "delta_hat": est.delta_hat, "stderr": est.stderr,
        "v1_hat": est.v1_hat, "v2_hat": est.v2_hat, "p_differ": est.p_differ,
        "work_units": est.work_trunk.units() + est.work_sub.units(),
    }
    return row, extra


def _estimate_job(r: ConfigReader, args) -> _Job:
    model, rules, rs = _build_problem(r, args)

    def run() -> _Result:
        row, extra = _run_estimate(model, *rules(), rs)
        csv_row = [-1.0 if x is None else x for x in row.values()]  # v2_hat at R = 1
        return _Result(
            {"estimate.csv": (list(row), [csv_row]), "estimate.json": {**row, **extra}},
            [f"delta_hat={row['delta_hat']:.6g} stderr={row['stderr']:.6g} N={row['N']} R={row['R']}"],
        )

    return run


def _table1_job(r: ConfigReader, args) -> _Job:
    cfg = _experiment_config(r, args, sigma_hats=r.require("study.sigma_hats", "floats", above=0))

    def run() -> _Result:
        rows = param_uncertainty_study(cfg)
        return _Result(
            {"table1.csv": _rows_csv(Table1Row, rows),
             "table1.json": {"rows": [asdict(x) for x in rows]}},
            [f"sigma_hat={x.sigma_hat:.6g} delta={x.delta_hat:.6g} stderr={x.stderr:.6g} "
             f"P={x.p_differ:.6g} R*={x.R_star:.6g} speedup={x.speedup:.6g}" for x in rows],
        )

    return run


def _qcv_job(r: ConfigReader, args) -> _Job:
    cfg = _experiment_config(r, args, "qcv", committee_members=r.int("qcv.members", low=1))

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

    return run


def _multilevel_job(r: ConfigReader, args) -> _Job:
    cfg = _experiment_config(r, args, "ml", ladder=r.require("ml.ladder", "ints", low=1))

    def run() -> _Result:
        rep = multilevel_estimate(cfg)
        return _Result(
            {"multilevel.csv": _rows_csv(MlLevelRow, rep.rows), "multilevel.json": asdict(rep)},
            [f"combined={rep.combined:.6g}+-{rep.combined_stderr:.6g} "
             f"direct={rep.direct:.6g}+-{rep.direct_stderr:.6g} z={rep.telescoping_z:.3g}",
             f"var simple={rep.var_simple:.6g} ml={rep.var_ml:.6g} nested={rep.var_ml_nested:.6g}"],
        )

    return run


def _oracle_check_job(r: ConfigReader, args) -> _Job:
    model, rules, rs = _build_problem(r, args)
    if not isinstance(model, TreeModel):
        raise ConfigError("oracle-check needs a tree config (tree.name or tree.file)")

    def run() -> _Result:
        ruleA, ruleB = rules()
        row, extra = _run_estimate(model, ruleA, ruleB, rs)
        delta, delta_hat, stderr = exact_delta(model, ruleA, ruleB), row["delta_hat"], row["stderr"]
        err = float(abs(delta_hat - delta))
        # stderr 0 happens when the rules agree everywhere; then the estimate
        # must be exact
        ok = bool(err < 4.0 * stderr) if stderr > 0 else err == 0.0
        return _Result(
            {"oracle_check.json": {**row, **extra, "delta_exact": delta, "abs_error": err, "passed": ok}},
            [f"delta_exact={delta:.6g} delta_hat={delta_hat:.6g} stderr={stderr:.6g} "
             f"{'PASS' if ok else 'FAIL'}"],
            None if ok else
            f"|delta_hat - delta| = {err:.6g} exceeds 4*stderr = {4 * stderr:.6g}",
        )

    return run


def _vprofile_job(r: ConfigReader, args) -> _Job:
    model, rules, rs = _build_problem(r, args)
    r_max = r.int("vprofile.r_max", low=1)
    points = r.int("vprofile.points", 64, 2)

    def run() -> _Result:
        ruleA, ruleB = rules()
        cal, _, rep, _ = calibrate(model, ruleA, ruleB, rs, "pilot")
        top = r_max if r_max is not None else 4 * (64 if cal.degenerate else rep.R_rounded)
        grid = sorted({round(top ** (k / (points - 1))) for k in range(points)})
        return _Result(
            {"vprofile.csv": (["R", "V"], [[R, v_profile(cal, R)] for R in grid]),
             "vprofile.json": {"pilot": _calib_dict(cal, rep), "r_max": top}},
            [f"wrote {len(grid)} grid points up to R={top}"],
        )

    return run


def _run(args) -> int:
    if args.threads < 1:
        raise ConfigError("--threads must be >= 1")
    raw = _read_config(args.config)
    r = ConfigReader(raw)
    run = args.job(r, args)
    r.finish()
    out = Outputs(args, raw)
    res = run()
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
config and seed, on one numpy and BLAS install at one BLAS thread count,
are byte-identical, regardless of --threads.
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
        "oracle-check": (_oracle_check_job, "run estimate and compare it with exact tree enumeration"),
        "vprofile": (_vprofile_job, "export the V(R) variance-profile grid"),
    }
    for name, (fn, help_) in cmds.items():
        q = sub.add_parser(name, help=help_, epilog=_COLUMN_DOCS,
                           formatter_class=argparse.RawDescriptionHelpFormatter)
        q.add_argument("--config", required=True, help="flat key=value config file")
        q.add_argument("--seed", type=int, default=None,
                       help="base seed (required): the testing seed is derived from it, "
                            "and so is the training seed unless run.seed_training sets it")
        q.add_argument("--threads", type=int, default=1,
                       help="worker processes (default: 1): forked on Linux, "
                            "inline elsewhere; never changes results")
        q.add_argument("--out", default=".", help="output directory (default: current)")
        q.set_defaults(job=fn)
    return p


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
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
