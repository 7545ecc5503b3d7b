"""The benchmark's workloads: inputs made from a seed, one op, its checks.

An op is one user drop (one CSV row for the sweep workloads). Drops come
from ``make_scenario(seed0 + i, params)``, seed0 being the ``--seed`` of
the run, so runs with nearby seeds share most of their drops. Every op is
checked, and a failure is counted, never raised: an op fails if it raises,
or returns a non-finite result, a result with any C1-C8 flag false, or a
BCD trace that goes down.

The three workloads named in BENCHMARK.json:

- ``drops_n4m8`` is the criterion-1 drop, the main single-drop solve.
  About half its time is link-layer probes of the placement block and a
  third is the SCA block, so both a link-layer and an SCA change show.
- ``es_oracle_n2m4`` is the criterion-7 exhaustive search alone: the
  baselines layer and 121 link states per drop, at an almost fixed cost.
  A batched oracle or link-layer kernel shows here; an SCA, game or
  placement change should not.
- ``fig10_sweep`` is ``uavnoma run --experiment fig10_tau`` at the
  defaults: the CLI's sweep, CSV and manifest code around one link state
  per row, so a CLI change or a cheaper link state shows here.

Three more run under the same command but are not in BENCHMARK.json,
because a 30 s run cannot make their figures steady:

- ``es_gap_n2m4``: 7-start multistart plus the oracle, criterion 7. The
  multistart cost varies 1.8-12 s between drops, so about ten drops per
  run cannot average it. It carries the EE ratio against the oracle.
- ``wide_n10m64``: the four criterion-8 variants at N=10, M=64, where
  placement and null-space SVDs take nearly all the time; 1-18 s per drop.
- ``fig3_sweep``: ``uavnoma run --experiment fig3_users`` at the defaults
  (R_min=0.1). The only path with rate floors, the alpha-relaxation retry
  and battery operation. Nearly every row fails with the sources this
  benchmark was written against, so its throughput counts a handful of
  rows; the failures are listed.
"""

from __future__ import annotations

import contextlib
import math
import os
import time
from dataclasses import dataclass, field

MONOTONE_TOL = 1e-9   # criterion 1's allowance on the BCD trace


@dataclass
class Op:
    label: str
    seconds: float
    ee: float            # bit/J/Hz; 0.0 for a failed op
    error: str = ""      # empty when the op succeeded
    extra: dict = field(default_factory=dict)

    @property
    def ok(self):
        return not self.error


def error_name(exc):
    """Short failure reason of an exception raised by an op."""
    constraint = getattr(exc, "constraint", None)
    return f"{type(exc).__name__}({constraint})" if constraint else \
        type(exc).__name__


def check_result(res):
    """Reason a PipelineResult is unacceptable, or '' when it is fine."""
    numbers = [res.ee, res.report.R_sum, res.report.E_sum, res.alloc.tau,
               *res.alloc.p, *res.alloc.alpha_cc, *res.alloc.alpha_ce]
    if not all(math.isfinite(float(v)) for v in numbers):
        return "non-finite result"
    bad = sorted(k for k, v in res.report.feasible.items() if not v)
    if bad:
        return "flag " + "+".join(bad) + " false"
    ees = res.trace.ee_values()
    if any(b < a - MONOTONE_TOL for a, b in zip(ees, ees[1:])):
        return "non-monotone BCD trace"
    return ""


def es_grid(baselines):
    """The criterion-7 exhaustive-search grid."""
    return baselines.GridSpec(alpha_steps=21, power_steps=21, tau_steps=11,
                              x_steps=11, y_steps=11)


def check_oracle(linklayer, scn, alloc, ee):
    """Reason an exhaustive-search optimum is unacceptable, or ''."""
    if not (math.isfinite(ee) and ee > 0.0):
        return "non-finite oracle EE"
    report = linklayer.build_report(scn, alloc)
    if abs(report.EE - ee) > 1e-9 * ee:
        return "oracle EE disagrees with its report"
    bad = sorted(k for k, v in report.feasible.items() if not v)
    return "oracle flag " + "+".join(bad) + " false" if bad else ""


class Workload:
    """Base: subclasses build params in setup() and run one step(i).

    A step is one call the user makes; it yields one op for the drop
    workloads and one op per CSV row for the sweep. The first
    ``quality_steps`` steps are run by every measured phase, so metrics
    over them (mean EE, the oracle ratio, the traced layer counts) are
    deterministic for a seed.
    """

    name = ""
    why = ""
    quality_steps = 1
    # a traced replay swaps in a context that stops recording spans, so the
    # checks' own calls into uavnoma are not charged to any layer
    untraced = staticmethod(contextlib.nullcontext)

    def __init__(self, seed0, workdir):
        self.seed0 = int(seed0)
        self.workdir = workdir

    def setup(self):
        raise NotImplementedError

    def step(self, i):
        raise NotImplementedError

    @staticmethod
    def fingerprint(ops):
        """Everything of a step's outcome that must repeat bit for bit."""
        return tuple((o.label, o.error, float(o.ee).hex()) for o in ops)


class _DropWorkload(Workload):
    """Workloads whose step is one drop, timed around the solver calls."""

    def setup(self):
        from uavnoma import bcd, scenario
        self.bcd, self.scenario_mod = bcd, scenario
        self.params = self.make_params()
        self.scenarios = [self.scenario_mod.make_scenario(self.seed0 + i,
                                                          self.params)
                          for i in range(self.quality_steps)]

    def scenario(self, i):
        if i < len(self.scenarios):
            return self.scenarios[i]
        return self.scenario_mod.make_scenario(self.seed0 + i, self.params)

    def step(self, i):
        scn = self.scenario(i)
        extra = {}
        t0 = time.perf_counter()
        try:
            ee, error = self.solve(scn, extra)
        except Exception as exc:   # every failure is counted, none aborts
            ee, error = 0.0, error_name(exc)
        seconds = time.perf_counter() - t0
        return [Op(f"seed={self.seed0 + i}", seconds, ee if not error else 0.0,
                   error, extra)]


class DropsN4M8(_DropWorkload):
    name = "drops_n4m8"
    why = ("criterion-1 drop: run_algorithm4 at N=4, M=8; link-layer probes "
           "and SCA dominate, so both kinds of change show")
    quality_steps = 24

    def make_params(self):
        from uavnoma import SystemParams
        return SystemParams(N=4, M=8, R_min=0.0)

    def solve(self, scn, extra):
        res = self.bcd.run_algorithm4(scn, self.params)
        return res.ee, check_result(res)


class EsOracleN2M4(_DropWorkload):
    name = "es_oracle_n2m4"
    why = ("the criterion-7 exhaustive search alone at N=2, M=4: 121 link "
           "states and one vectorised grid pass per drop, at a steady cost")
    quality_steps = 10

    def make_params(self):
        from uavnoma import SystemParams
        return SystemParams(N=2, M=4, R_min=0.0)

    def setup(self):
        super().setup()
        from uavnoma import baselines, linklayer
        self.baselines, self.linklayer = baselines, linklayer
        self.spec = es_grid(baselines)

    def solve(self, scn, extra):
        best_scn, alloc, ee = self.baselines.exhaustive_search(
            scn, grid_spec=self.spec)
        with self.untraced():
            return ee, check_oracle(self.linklayer, best_scn, alloc, ee)


class EsGapN2M4(EsOracleN2M4):
    name = "es_gap_n2m4"
    why = ("criterion 7: 7-start multistart plus the exhaustive-search "
           "oracle at N=2, M=4, with the EE ratio against the oracle")
    quality_steps = 4

    def solve(self, scn, extra):
        res = self.bcd.run_pipeline_multistart(scn, params=self.params,
                                               scheme="noma")
        best_scn, alloc, ee_es = self.baselines.exhaustive_search(
            scn, grid_spec=self.spec)
        with self.untraced():
            error = check_result(res) or check_oracle(
                self.linklayer, best_scn, alloc, ee_es)
        if not error:
            extra["es_ratio"] = res.ee / ee_es
        return res.ee, error


WIDE_VARIANTS = (
    ("noma_ld", dict(scheme="noma")),
    ("noma", dict(scheme="noma", use_placement=False)),
    ("oma_ld", dict(scheme="oma")),
    ("oma", dict(scheme="oma", use_placement=False)),
)


class WideN10M64(_DropWorkload):
    name = "wide_n10m64"
    why = ("criterion 8: four NOMA/OMA variants at N=10, M=64; placement "
           "and null-space SVDs dominate, SCA is under 1%")
    quality_steps = 6

    def make_params(self):
        from uavnoma import SystemParams
        return SystemParams(N=10, M=64, R_min=0.0, h=10.0, disc_radius=50.0,
                            box=(-5.0, 5.0, -5.0, 5.0), P_user=5.0,
                            grid_init_placement=False)

    def solve(self, scn, extra):
        """The op's EE is the mean over the four variants."""
        ees = []
        for label, kw in WIDE_VARIANTS:
            res = self.bcd.run_pipeline(scn, params=self.params,
                                        fixed_P_T=5.0, **kw)
            error = check_result(res)
            if error:
                return 0.0, f"{label}: {error}"
            ees.append(res.ee)
        return sum(ees) / len(ees), ""


def _cli_scheme(kwargs):
    """Which fig3_users scheme a CLI call of run_pipeline serves."""
    if kwargs.get("fixed_P_T") is not None:
        return "no_eh"
    return "oma_ld" if kwargs.get("scheme") == "oma" else "noma_ld"


class _SweepWorkload(Workload):
    """One step is ``cli.run_experiment(experiment, ...)`` for one seed.

    An op is one CSV row, timed by the CLI's own ``wall_ms`` column. The
    CLI writes a row even for a result whose flags are false, so the
    ``bcd.run_pipeline`` it calls is wrapped by a checker (no timing) in
    every phase. A sweep that raises writes no CSV, so each of the
    ``rows_per_sweep`` rows it owed counts as failed.
    """

    experiment = ""
    rows_per_sweep = 0

    @staticmethod
    def row_key(axis, scheme, seed):
        """Key of the checker verdict behind a CSV row, if the row has one."""
        return None

    def setup(self):
        from uavnoma import SystemParams, bcd, cli
        self.bcd, self.cli = bcd, cli
        self.params = SystemParams()
        self.out_dir = os.path.join(self.workdir, self.experiment)
        os.makedirs(self.out_dir, exist_ok=True)

    def _checked(self, inner, verdicts):
        def run_pipeline(scenario, *args, **kwargs):
            key = (scenario.params.N, _cli_scheme(kwargs), scenario.seed)
            try:
                res = inner(scenario, *args, **kwargs)
            except Exception as exc:
                verdicts[key] = (error_name(exc), 0.0)
                raise
            verdicts[key] = (check_result(res), res.ee)
            return res
        return run_pipeline

    def step(self, i):
        seed = self.seed0 + i
        verdicts = {}
        inner = self.bcd.run_pipeline
        self.bcd.run_pipeline = self._checked(inner, verdicts)
        t0 = time.perf_counter()
        try:
            csv_path, manifest_path, _ = self.cli.run_experiment(
                self.experiment, self.params, [seed], self.out_dir, jobs=1)
        except Exception as exc:   # the whole sweep is lost to its user
            where = next((f" at N={k[0]} {k[1]}" for k, v in verdicts.items()
                          if v[0] == error_name(exc)), "")
            reason = f"sweep aborted by {error_name(exc)}{where}"
            seconds = time.perf_counter() - t0
            return [Op(f"seed={seed} row={k}", seconds, 0.0, reason)
                    for k in range(self.rows_per_sweep)]
        finally:
            self.bcd.run_pipeline = inner
        ops = []
        with open(csv_path) as fh:
            lines = fh.readlines()[1:]
        # fresh files each step: truncating a just-written file makes ext4
        # flush it, which would time the disk instead of the solver
        for path in (csv_path, manifest_path):
            os.remove(path)
        for line in lines:
            axis, scheme, row_seed, ee, _, wall_ms, err = \
                line.rstrip("\n").split(",")
            check, exact_ee = verdicts.get(
                self.row_key(axis, scheme, row_seed), ("", float(ee)))
            error = check or err
            if not error and not (math.isfinite(exact_ee)
                                  and exact_ee > 0.0):
                error = "non-finite or zero EE"
            ops.append(Op(f"{axis} {scheme} seed={row_seed}",
                          float(wall_ms) / 1e3,
                          0.0 if error else exact_ee, error))
        return ops


class Fig3Sweep(_SweepWorkload):
    name = "fig3_sweep"
    why = ("uavnoma run fig3_users at the defaults (R_min=0.1, N=2..8, "
           "3 schemes): rate floors, retries, no_eh and the CLI; most rows "
           "fail today")
    experiment = "fig3_users"
    rows_per_sweep = 12
    quality_steps = 12

    @staticmethod
    def row_key(axis, scheme, seed):
        return int(axis), scheme, int(seed)


class Fig10Sweep(_SweepWorkload):
    name = "fig10_sweep"
    why = ("uavnoma run fig10_tau at the defaults: the CLI's sweep, CSV and "
           "manifest path over 19 harvest times, one link state per row")
    experiment = "fig10_tau"
    rows_per_sweep = 19
    quality_steps = 200


WORKLOADS = {w.name: w for w in (DropsN4M8, EsOracleN2M4, Fig10Sweep,
                                 EsGapN2M4, WideN10M64, Fig3Sweep)}
