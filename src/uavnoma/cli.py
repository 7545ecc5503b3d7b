"""Experiment runner: sweeps, CSV/JSON emission and manifest comparison."""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
import yaml

from . import baselines, bcd
from .linklayer import cycle_ee, link_gains, tx_budget
from .params import ConfigError, SystemParams, load_params
from .scenario import make_scenario

VERSION = "uavnoma-0.1.0"


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)


# -- scheme runners ---------------------------------------------------------

# CLI scheme name -> run_pipeline options; a sweep that fixes the battery
# budget (fixed_P_T) overrides the table's
PIPELINE_SCHEMES = {
    "noma_ld": dict(scheme="noma"),
    "noma_no_ld": dict(scheme="noma", use_placement=False),
    "oma_ld": dict(scheme="oma"),
    "oma_no_ld": dict(scheme="oma", use_placement=False),
    "etpa_ld": dict(scheme="etpa"),
    "no_eh": dict(scheme="noma", fixed_P_T=1.0),
}


def _run_scheme(scheme, params, seed, fixed_P_T=None):
    scenario = make_scenario(seed, params)
    if scheme == "es":
        spec = baselines.GridSpec(alpha_steps=11, power_steps=11, tau_steps=7,
                                  x_steps=7, y_steps=7)
        _, _, ee = baselines.exhaustive_search(scenario, grid_spec=spec)
        return ee, 1, None
    if scheme not in PIPELINE_SCHEMES:
        raise ConfigError(f"unknown scheme {scheme!r}")
    opts = dict(PIPELINE_SCHEMES[scheme])
    if fixed_P_T is not None:
        opts["fixed_P_T"] = fixed_P_T
    res = bcd.run_pipeline(scenario, **opts)
    return res.ee, res.counters["rounds"], res


def _neutral_ee(scenario, tau, xy):
    """EE of the neutral allocation at UAV positions xy (K x 2): the budget
    split equally over the pairs, alpha_cc = 0.3, harvest time tau."""
    params = scenario.params
    g_cc, g_ce, _, beacon_gain = link_gains(scenario, xy)
    P_T = tx_budget(tau, beacon_gain, params)
    return cycle_ee((P_T / params.N)[:, None], 0.3, tau, g_cc, g_ce,
                    beacon_gain, params)


def _fixed_tau_ee(params, seed, tau):
    """Reference EE curve point: the neutral allocation at harvest time tau."""
    scenario = make_scenario(seed, params)
    return float(_neutral_ee(scenario, tau, scenario.uav_xy)[0])


# -- experiment definitions -------------------------------------------------

@dataclass
class Sweep:
    axis: str
    values: list
    schemes: list
    apply: object                 # (params, value) -> (params, fixed_P_T)


def _ax_param(name, extra=None):
    def apply(params, value):
        params = params.replace(**{name: value})
        if extra:
            params = params.replace(**extra)
        return params, None
    return apply


def _experiments():
    return {
        "fig3_users": Sweep(
            axis="N", values=[2, 4, 6, 8],
            schemes=["noma_ld", "oma_ld", "no_eh"],
            apply=_ax_param("N")),
        "fig4_beacon_power": Sweep(
            axis="P_beacon", values=[5.0, 10.0, 20.0, 30.0, 40.0],
            schemes=["noma_ld", "etpa_ld"],
            apply=_ax_param("P_beacon")),
        "fig5_uav_power": Sweep(
            axis="P_uav_tx", values=[1.0, 2.0, 5.0, 10.0],
            schemes=["noma_ld", "noma_no_ld", "oma_ld", "oma_no_ld"],
            apply=lambda params, v: (params, v)),
        "fig6_user_power": Sweep(
            axis="P_user", values=[0.05, 0.1, 0.2, 0.4],
            schemes=["noma_ld", "etpa_ld"],
            apply=_ax_param("P_user")),
        "fig7_antennas": Sweep(
            axis="M", values=[1, 8, 16],
            schemes=["noma_ld", "etpa_ld"],
            apply=_ax_param("M", extra={"N": 1})),
        "fig8_convergence": Sweep(
            axis="round", values=[None],
            schemes=["noma_ld", "noma_no_ld", "oma_ld", "etpa_ld"],
            apply=lambda params, v: (params, None)),
        "fig9_altitude": Sweep(
            axis="h", values=[5.0, 10.0, 20.0, 50.0],
            schemes=["noma_ld", "etpa_ld"],
            apply=_ax_param("h")),
        "fig10_tau": Sweep(
            axis="tau", values=[round(t, 2) for t in np.arange(0.05, 1.0, 0.05)],
            schemes=["fixed_tau"],
            apply=lambda params, v: (params, None)),
        "fig11_placement_heatmap": Sweep(
            axis="xy", values=None, schemes=["grid_ee"],
            apply=lambda params, v: (params, None)),
        "fig12_es_gap": Sweep(
            axis="P_beacon", values=[10.0, 20.0, 30.0],
            schemes=["noma_ld", "es"],
            apply=lambda params, v: (params.replace(P_beacon=v, N=2), None)),
    }


def _run_point(name, axis_value, scheme, seed, params, fixed_P_T):
    """One (experiment, axis value, scheme, seed) cell; returns a CSV row."""
    t0 = time.perf_counter()
    try:
        if scheme == "fixed_tau":
            ee, rounds = _fixed_tau_ee(params, seed, axis_value), 0
        else:
            ee, rounds, _ = _run_scheme(scheme, params, seed,
                                        fixed_P_T=fixed_P_T)
        err = ""
    except (bcd.PipelineInfeasible, ValueError) as e:
        ee, rounds, err = float("nan"), -1, type(e).__name__
    wall_ms = (time.perf_counter() - t0) * 1e3
    return (axis_value, scheme, seed, ee, rounds, wall_ms, err)


def _heatmap_rows(params, seed):
    """The 11 x 11 position grid of one seed, at harvest time T/2."""
    X, Y = np.meshgrid(np.linspace(params.box[0], params.box[1], 11),
                       np.linspace(params.box[2], params.box[3], 11),
                       indexing="ij")
    X, Y = X.ravel(), Y.ravel()
    ees = _neutral_ee(make_scenario(seed, params), params.T / 2,
                      np.stack([X, Y], axis=1))
    return [(f"{x:.10g}:{y:.10g}", "grid_ee", seed, ee, 0, 0.0, "")
            for x, y, ee in zip(X.tolist(), Y.tolist(), ees.tolist())]


def _convergence_rows(scheme, params, seed):
    """One row per BCD round of one (scheme, seed), or one error row."""
    try:
        _, _, res = _run_scheme(scheme, params, seed)
    except (bcd.PipelineInfeasible, ValueError) as e:
        return [(None, scheme, seed, float("nan"), -1, 0.0, type(e).__name__)]
    return [(rec["r"], scheme, seed, rec["EE"], rec["r"], 0.0, "")
            for rec in res.trace.rounds]


def _map(fn, tasks, jobs):
    """[fn(*t) for t in tasks], in `jobs` worker processes when jobs > 1."""
    if jobs > 1 and tasks:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, *zip(*tasks)))
    return [fn(*t) for t in tasks]


def run_experiment(name, params, seeds, out_dir, jobs=1):
    exps = _experiments()
    if name not in exps:
        raise ConfigError(f"unknown experiment {name!r}; "
                          f"choose from {sorted(exps)}")
    sweep = exps[name]
    if name == "fig11_placement_heatmap":
        rows = [r for cell in _map(_heatmap_rows,
                                   [(params, seed) for seed in seeds], jobs)
                for r in cell]
    elif name == "fig8_convergence":
        tasks = [(scheme, params, seed)
                 for seed in seeds for scheme in sweep.schemes]
        rows = [r for cell in _map(_convergence_rows, tasks, jobs)
                for r in cell]
    else:
        tasks = []
        for value in sweep.values:
            pt_params, fixed = sweep.apply(params, value)
            for scheme in sweep.schemes:
                for seed in seeds:
                    tasks.append((name, value, scheme, seed, pt_params,
                                  fixed))
        rows = _map(_run_point, tasks, jobs)
    rows.sort(key=lambda r: (str(r[0]), r[1], r[2]))
    warnings = sum(1 for r in rows if r[6])

    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{name}.csv")
    with open(csv_path, "w", newline="\n") as fh:
        fh.write(f"{sweep.axis},scheme,seed,EE,rounds,wall_ms,error\n")
        for axis_value, scheme, seed, ee, rounds, wall_ms, err in rows:
            fh.write(f"{_fmt(axis_value)},{scheme},{seed},{_fmt(float(ee))},"
                     f"{rounds},{_fmt(wall_ms)},{err}\n")

    cfg = params.to_config()
    cfg_hash = hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode()).hexdigest()
    manifest = {
        "experiment": name, "axis": sweep.axis, "schemes": sweep.schemes,
        "seeds": list(seeds), "config": cfg, "config_hash": cfg_hash,
        "version": VERSION, "csv": os.path.basename(csv_path),
        "warnings": warnings,
        "environment": {"python": platform.python_version(),
                        "numpy": np.__version__,
                        "scipy": importlib.metadata.version("scipy")},
    }
    manifest_path = os.path.join(out_dir, f"{name}.manifest.json")
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return csv_path, manifest_path, warnings


# -- compare ----------------------------------------------------------------

def _load_manifest_rows(path):
    with open(path) as fh:
        manifest = json.load(fh)
    csv_path = os.path.join(os.path.dirname(path), manifest["csv"])
    rows = {}
    with open(csv_path) as fh:
        header = fh.readline().strip().split(",")
        for line in fh:
            vals = line.rstrip("\n").split(",")
            rec = dict(zip(header, vals))
            key = (vals[0], rec["scheme"], rec["seed"])
            rows[key] = float(rec["EE"])
    return manifest, rows


def compare_manifests(paths):
    """Paired statistics of the first manifest against the second."""
    if len(paths) < 2:
        raise ConfigError("compare needs at least two manifests")
    (m_a, rows_a), (m_b, rows_b) = (_load_manifest_rows(p) for p in paths[:2])
    common = sorted(set(rows_a) & set(rows_b))
    if not common:
        raise ConfigError("manifests have no overlapping (axis, scheme, seed) rows")
    by_axis = {}
    for key in common:
        by_axis.setdefault(key[0], []).append(key)
    table = []
    for axis_value in sorted(by_axis):
        keys = by_axis[axis_value]
        ee_a = np.array([rows_a[k] for k in keys])
        ee_b = np.array([rows_b[k] for k in keys])
        wins = np.where(ee_a > ee_b, 1.0, np.where(ee_a < ee_b, 0.0, 0.5))
        table.append({
            "axis": axis_value, "n": len(keys),
            "mean_EE_a": float(np.nanmean(ee_a)),
            "mean_EE_b": float(np.nanmean(ee_b)),
            "win_rate_a": float(np.mean(wins)),
        })
    return table


# -- entry point ------------------------------------------------------------

def _parse_overrides(pairs):
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"override {pair!r} is not key=value")
        key, raw = pair.split("=", 1)
        value = yaml.safe_load(raw)
        node = out
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = value
    return out


def _merge(base, extra):
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            _merge(base[key], value)
        else:
            base[key] = value
    return base


def main(argv=None):
    parser = argparse.ArgumentParser(prog="uavnoma")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment sweep")
    p_run.add_argument("--config", default=None)
    p_run.add_argument("--experiment", required=True)
    p_run.add_argument("--seeds", type=int, default=3,
                       help="number of seeds (0..K-1)")
    p_run.add_argument("--out", default="out")
    p_run.add_argument("--override", action="append", default=[],
                       metavar="key=value")
    p_run.add_argument("--jobs", type=int, default=1)

    p_cmp = sub.add_parser("compare", help="paired statistics of manifests")
    p_cmp.add_argument("manifests", nargs="+")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            params = load_params(args.config) if args.config else SystemParams()
            overrides = _parse_overrides(args.override)
            if overrides:
                params = SystemParams.from_config(
                    _merge(params.to_config(), overrides))
            out_dir = os.environ.get("UAVNOMA_OUT", args.out)
            seeds = list(range(args.seeds))
            csv_path, manifest_path, warnings = run_experiment(
                args.experiment, params, seeds, out_dir, jobs=args.jobs)
            print(f"wrote {csv_path} and {manifest_path}")
            if warnings:
                print(f"warning: {warnings} point(s) failed")
            return 0
        table = compare_manifests(args.manifests)
        print(f"{'axis':>12} {'n':>4} {'mean_EE_a':>12} {'mean_EE_b':>12} "
              f"{'win_rate_a':>10}")
        for row in table:
            print(f"{row['axis']:>12} {row['n']:>4} {row['mean_EE_a']:>12.6g} "
                  f"{row['mean_EE_b']:>12.6g} {row['win_rate_a']:>10.3f}")
        return 0
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except bcd.PipelineInfeasible as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
