"""Timing wrappers installed around the package's public calls.

The program has no tracing of its own.  The benchmark replaces selected
module attributes and class methods with wrappers that time each call and
record counts at the call boundary, then derives per-layer numbers from
those records.  Two sets of wrappers exist:

- ``install_phases`` wraps only the handful of calls that split a job into
  set-up (training, config reading) and run, and the estimator entry points
  whose returned ``WorkMeter``s give the run's work units.  These are a few
  dozen calls per job, so end-to-end runs keep them on.
- ``install_layers`` adds the inner layers: every random stream opened, every
  model step, payoff and rule decision.  That costs time on hot paths, so it
  runs only in the separate traced run, at one thread.

Stage attribution follows the calls the estimator makes into the model
interface: inside ``nested_cmc.estimate``, ``init_states`` begins stage one
of a chunk and the first draw from a SUB stream begins stage two; time runs
to the current stage until the next boundary or the estimator's return.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

_perf = time.perf_counter

# Labels whose spans are set-up work rather than run work.
SETUP = ("process_models.simulate_training_paths", "stopping_rules.train_tvr",
         "stopping_rules.train_committee", "cli.config")
ESTIMATORS = ("nested_cmc.estimate", "nested_cmc.estimate_value", "nested_cmc.pilot")


class Recorder:
    """Accumulates spans and counters from the installed wrappers."""

    def __init__(self):
        self.total = defaultdict(float)      # label -> seconds in outermost spans
        self.covered = defaultdict(float)    # label -> seconds its child spans cover
        self.count = defaultdict(float)      # named counters
        self.stack: list[str] = []
        self.meters: list[tuple[str, object]] = []   # (label, result) of estimator calls
        self.estimate_s: list[float] = []            # main (non-pilot) estimate call times
        self.rules: list[object] = []                # regression rules trained, in order
        self._undo: list[tuple[object, str, object]] = []
        self._stage = 0
        self._stage_t = 0.0
        self._R = 0

    # -- installation -----------------------------------------------------------

    def wrap(self, owner, attr: str, label: str, before=None, after=None) -> None:
        """Replace owner.attr by a timed wrapper recorded under label."""
        fn = getattr(owner, attr)
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            outer = label not in rec.stack
            rec.stack.append(label)
            t0 = _perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = _perf() - t0
                rec.stack.pop()
                if outer:
                    rec.total[label] += dt
                    if rec.stack:
                        rec.covered[rec.stack[-1]] += dt
            if after is not None:
                after(args, kwargs, out, dt)
            return out

        self._undo.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    # -- queries ------------------------------------------------------------------

    def inside(self, *labels: str) -> bool:
        return any(lab in self.stack for lab in labels)

    def self_s(self, label: str) -> float:
        return self.total[label] - self.covered[label]

    # -- stage attribution ------------------------------------------------------------

    def _switch(self, stage: int) -> None:
        now = _perf()
        if self._stage:
            self.count[f"stage{self._stage}_s"] += now - self._stage_t
        self._stage, self._stage_t = stage, now

    def _in_main_estimate(self) -> bool:
        # the innermost estimator on the stack decides who owns model calls
        for lab in reversed(self.stack):
            if lab in ESTIMATORS:
                return lab == "nested_cmc.estimate"
        return False


def install_phases(rec: Recorder, nccmc) -> None:
    """Set-up/run split and estimator work meters; cheap enough to stay on."""
    cli, experiments, nested_cmc = nccmc.cli, nccmc.experiments, nccmc.nested_cmc

    def estimate_before(args, kwargs):
        rec._R = args[4] if len(args) > 4 else kwargs["R"]
        rec._switch(0)

    def estimate_after(args, kwargs, out, dt):
        rec._switch(0)
        in_pilot = rec.inside("nested_cmc.pilot")
        rec.meters.append(("pilot" if in_pilot else "estimate", out))
        if not in_pilot:
            rec.estimate_s.append(dt)

    def value_after(args, kwargs, out, dt):
        rec.meters.append(("value", out))

    for mod in (nested_cmc, experiments, cli):
        if hasattr(mod, "estimate"):
            rec.wrap(mod, "estimate", "nested_cmc.estimate", estimate_before, estimate_after)
        if hasattr(mod, "estimate_value"):
            rec.wrap(mod, "estimate_value", "nested_cmc.estimate_value", after=value_after)
        if hasattr(mod, "pilot"):
            rec.wrap(mod, "pilot", "nested_cmc.pilot")

    def trained(args, kwargs, out, dt):
        rec.rules.append(out)

    for mod in (experiments, cli):
        rec.wrap(mod, "simulate_training_paths", "process_models.simulate_training_paths")
        rec.wrap(mod, "train_tvr", "stopping_rules.train_tvr", after=trained)
        rec.wrap(mod, "train_committee", "stopping_rules.train_committee")
    rec.wrap(cli, "_read_config", "cli.config")
    for name in ("str", "int", "float", "floats", "ints", "labels", "require", "finish"):
        rec.wrap(cli.ConfigReader, name, "cli.config")


def install_layers(rec: Recorder, nccmc) -> None:
    """Inner-layer spans and counters for the traced run (one thread only)."""
    cli, experiments = nccmc.cli, nccmc.experiments
    rng, pm, sr = nccmc.rng, nccmc.process_models, nccmc.stopping_rules

    def in_run() -> bool:
        return not rec.inside(*SETUP)

    def rng_after(args, kwargs, out, dt):
        # normals calls uniforms: count the outermost stream opening only
        if in_run() and "rng" not in rec.stack:
            rec.count["rng.calls"] += 1
            rec.count["rng.busy_s"] += dt
            rec.count["rng.variates"] += out.size

    for name in ("normals", "uniforms"):
        rec.wrap(rng, name, "rng", after=rng_after)

    def init_before(args, kwargs):
        if rec._in_main_estimate():
            rec._switch(1)

    def draw_before(args, kwargs):
        stream_class = args[3] if len(args) > 3 else kwargs["stream_class"]
        if stream_class == rng.SUB and rec._in_main_estimate():
            if rec._stage != 2:
                rec._switch(2)
            rec.count["stage2_trunks"] += 1
            rec.count["stage2_lanes"] += rec._R

    def step_after(args, kwargs, out, dt):
        if in_run():
            rec.count["process_models.step_s"] += dt
            rec.count["process_models.path_steps"] += len(out) * args[0].step_units

    def payoff_after(args, kwargs, out, dt):
        if in_run():
            rec.count["process_models.payoff_s"] += dt

    model = pm.GbmModel
    rec.wrap(model, "init_states", "process_models.init_states", before=init_before)
    rec.wrap(model, "draw", "process_models.draw", before=draw_before)
    rec.wrap(model, "step_batch", "process_models.step_batch", after=step_after)
    rec.wrap(model, "payoff_batch", "process_models.payoff_batch", after=payoff_after)

    def decide_after(kind):
        def after(args, kwargs, out, dt):
            rule, payoffs = args[0], args[3] if len(args) > 3 else kwargs["payoffs"]
            rows = len(payoffs)
            rec.count[f"stopping_rules.{kind}_decide_s"] += dt
            rec.count["stopping_rules.member_evals"] += rows * rule.eval_cost
            if kind == "committee":
                # the (rows, members) prediction matrix of one committee decision
                mb = rows * rule.eval_cost * 8 / 2**20
                rec.count["stopping_rules.pred_matrix_mb"] = max(
                    rec.count["stopping_rules.pred_matrix_mb"], mb)
        return after

    for cls, kind in ((sr.RegressionRule, "regression"), (sr.CommitteeRule, "committee"),
                      (sr.FixedDateRule, "fixed")):
        rec.wrap(cls, "decide_batch", f"stopping_rules.{kind}_decide", after=decide_after(kind))

    for mod in (experiments, cli):
        for name in ("optimal_R", "qcv_allocation", "v_profile"):
            if hasattr(mod, name):
                rec.wrap(mod, name, "calibration.busy")
    for name in ("__init__", "csv", "json", "manifest"):
        rec.wrap(cli.Outputs, name, "cli.write")


def layer_metrics(rec: Recorder, run_s: float) -> dict[str, float]:
    """Per-layer numbers of one traced job; run_s is its traced run time."""
    c = rec.count
    meters = [(kind, m) for kind, m in rec.meters if kind != "value"]
    units1 = sum(m.work_trunk.units() for _, m in meters)
    units2 = sum(m.work_sub.units() for _, m in meters)
    s1, s2 = c["stage1_s"], c["stage2_s"]
    decide_s = c["stopping_rules.regression_decide_s"] + c["stopping_rules.committee_decide_s"]
    per1 = s1 / units1 if units1 else 0.0
    per2 = s2 / units2 if units2 else 0.0
    pilot_s = rec.total["nested_cmc.pilot"]
    estimate_s = rec.total["nested_cmc.estimate"] - rec.covered["nested_cmc.pilot"]
    value_s = rec.total["nested_cmc.estimate_value"]
    out = {
        "rng.calls": c["rng.calls"],
        "rng.busy_s": c["rng.busy_s"],
        "rng.variates_per_s": c["rng.variates"] / c["rng.busy_s"] if c["rng.busy_s"] else 0.0,
        "process_models.step_s": c["process_models.step_s"],
        "process_models.payoff_s": c["process_models.payoff_s"],
        "process_models.path_steps": c["process_models.path_steps"],
        "process_models.training_s": rec.total["process_models.simulate_training_paths"],
        "stopping_rules.regression_decide_s": c["stopping_rules.regression_decide_s"],
        "stopping_rules.committee_decide_s": c["stopping_rules.committee_decide_s"],
        "stopping_rules.member_evals": c["stopping_rules.member_evals"],
        "stopping_rules.member_evals_per_s": c["stopping_rules.member_evals"] / decide_s if decide_s else 0.0,
        "stopping_rules.pred_matrix_mb": c["stopping_rules.pred_matrix_mb"],
        "stopping_rules.fit_s": rec.total["stopping_rules.train_tvr"] + rec.total["stopping_rules.train_committee"],
        "nested_cmc.pilot_s": pilot_s,
        "nested_cmc.estimate_s": estimate_s,
        "nested_cmc.value_s": value_s,
        "nested_cmc.stage1_s": s1,
        "nested_cmc.stage2_s": s2,
        "nested_cmc.stage1_units": units1,
        "nested_cmc.stage2_units": units2,
        "nested_cmc.stage1_s_per_unit": per1,
        "nested_cmc.stage2_s_per_unit": per2,
        "nested_cmc.stage2_cost_ratio": per2 / per1 if per1 else 0.0,
        "nested_cmc.stage2_trunks": c["stage2_trunks"],
        "nested_cmc.stage2_lanes": c["stage2_lanes"],
        "calibration.busy_s": rec.total["calibration.busy"],
        "experiments.self_s": rec.self_s("experiments"),
        "cli.config_s": rec.total["cli.config"],
        "cli.write_s": rec.total["cli.write"],
        "cli.self_s": rec.self_s("cli.main"),
    }
    # named layers only: the entry points' own leftover time (the *.self_s
    # figures) is what the layers fail to cover, so it must not count here
    attributed = pilot_s + estimate_s + value_s + out["calibration.busy_s"] + out["cli.write_s"]
    out["trace.attributed_share"] = attributed / run_s if run_s else 0.0
    return out
