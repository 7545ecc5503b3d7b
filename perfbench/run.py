"""Solver benchmark for uavnoma.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload drops_n4m8 --seed 1 --seconds 30 --trace 0

One process runs the workload as a closed loop, one op at a time, with
BLAS pinned to one thread. With ``--trace 0`` it reports the end-to-end
metrics; with ``--trace 1`` it then replays the first steps of the same
seed with a span around every call into each uavnoma module and reports
the per-layer metrics and the tracing overhead. A readable report comes
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full record,
and in a traced run every span, is also written under ``.perfbench_out/``.

Phases of a run:

1. set-up, timed ``SETUP_SAMPLES`` times in fresh interpreters: import
   uavnoma (with numpy, scipy and yaml) and build the params and scenarios;
2. one warm-up step (the first step of the seed), excluded from metrics;
3. the measured phase: steps ``seed0, seed0 + 1, ...`` until ``--seconds``
   have passed and at least the workload's ``quality_steps`` have run.
   Its first step repeats the warm-up and must give a bit-identical EE;
4. with ``--trace 1``, the first ``quality_steps`` steps once more, each
   run untraced and then traced; the wall-time difference is the tracing
   overhead.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported here or in a set-up probe: the solver, not
# the scheduler of a small shared machine, is what is measured.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from array import array  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 7
PROBE_TIMEOUT_S = 60
CRITERION_BUDGETS = {"drops_n4m8": ("criterion 1", 100, 120.0),
                     "es_gap_n2m4": ("criterion 7", 20, 600.0)}

E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_s_p50": "s",
             "mean_ee": "bit/J/Hz", "peak_rss_mb": "MB"}
# reported beside the metrics, in the record and the readable report
EXTRA_UNITS = {"failed_share": "share", "op_s_tail": "s",
               "op_s_tail_percentile": "%", "op_samples": "count",
               "quality_ops": "count", "steps": "count",
               "measured_wall_s": "s", "es_ratio_min": "ratio",
               "traced_steps": "count", "untraced_wall_s": "s",
               "traced_wall_s": "s"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="a workload name, or 'all' to run each in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# -- set-up ------------------------------------------------------------------

def setup_probe(args):
    """Child process: time import plus set-up once and print the seconds."""
    t0 = time.perf_counter()
    from workloads import WORKLOADS
    WORKLOADS[args.workload](args.seed, str(OUT)).setup()
    print(repr(time.perf_counter() - t0))
    return 0


def setup_seconds(args):
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError("set-up probe failed:\n" + done.stderr)
        samples.append(float(done.stdout.split()[-1]))
    return samples


# -- measuring ---------------------------------------------------------------

@dataclass
class Phase:
    """What a measured phase keeps: the quality steps whole, the rest as
    counts, so memory does not grow with the number of ops run."""

    quality: list = field(default_factory=list)   # ops of the first steps
    walls: array = field(default_factory=lambda: array("d"))  # per step
    good_seconds: array = field(default_factory=lambda: array("d"))
    attempted: int = 0
    failures: list = field(default_factory=list)
    wall: float = 0.0


def measure(workload, seconds):
    """Closed loop: steps until `seconds` passed and the quality set ran."""
    phase = Phase()
    t_start = time.perf_counter()
    while True:
        i = len(phase.walls)
        t0 = time.perf_counter()
        ops = workload.step(i)
        phase.walls.append(time.perf_counter() - t0)
        if i < workload.quality_steps:
            phase.quality.append(ops)
        phase.attempted += len(ops)
        for op in ops:
            if op.ok:
                phase.good_seconds.append(op.seconds)
            else:
                phase.failures.append(
                    {"step": i, "label": op.label, "error": op.error})
        if (time.perf_counter() - t_start >= seconds
                and len(phase.walls) >= workload.quality_steps):
            break
    phase.wall = time.perf_counter() - t_start
    return phase


def tail_percentile(times):
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(times)
    p = math.floor(100.0 * (1.0 - 10.0 / n)) if n else 0
    if p <= 50:
        return None, None
    return p, statistics.quantiles(times, n=100, method="inclusive")[p - 1]


def end_to_end(workload, phase, setup_samples):
    good = phase.good_seconds
    quality = [o for ops in phase.quality for o in ops]
    p_tail, tail = tail_percentile(good)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": len(good) / phase.wall,
        # with no successful op, the whole phase bounds the latency from below
        "op_s_p50": statistics.median(good) if good else phase.wall,
        "mean_ee": sum(o.ee for o in quality) / len(quality),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    extra = {
        "failed_share": len(phase.failures) / phase.attempted,
        "op_s_tail": tail, "op_s_tail_percentile": p_tail,
        "op_samples": len(good), "quality_ops": len(quality),
        "steps": len(phase.walls), "measured_wall_s": phase.wall,
        "setup_samples_s": list(setup_samples),
    }
    if workload.name == "es_gap_n2m4":
        extra["es_ratio_min"] = min(o.extra.get("es_ratio", 0.0)
                                    for o in quality)
    if workload.name in CRITERION_BUDGETS:
        label, count, budget = CRITERION_BUDGETS[workload.name]
        rate = metrics["ops_per_s"]
        extra["projection"] = {
            "criterion": label, "ops": count, "budget_s": budget,
            "projected_s": count / rate if rate else float("inf")}
    return metrics, extra


def traced_replay(workload, args, n_steps):
    """Run the first steps again, each once untraced and once traced.

    The two runs of a step follow each other, so a change of machine
    speed during the run does not pass for tracing overhead. Returns the
    tracer, the traced steps and the untraced and traced wall times.
    """
    from tracer import Tracer, instrument
    tr = Tracer()
    workload_cls = type(workload)
    instrument(tr)
    try:
        idx = tr.open("setup")
        traced = workload_cls(args.seed, str(OUT))
        traced.untraced = tr.paused
        traced.setup()
        tr.close(idx)
    finally:
        tr.unpatch()
    steps, plain_s, traced_s = [], 0.0, 0.0
    for i in range(n_steps):
        t0 = time.perf_counter()
        workload.step(i)
        plain_s += time.perf_counter() - t0
        instrument(tr)
        try:
            t0 = time.perf_counter()
            idx = tr.open("op")
            steps.append(traced.step(i))
            tr.close(idx)
            traced_s += time.perf_counter() - t0
        finally:
            tr.unpatch()
    return tr, steps, plain_s, traced_s


# -- reporting ---------------------------------------------------------------

def environment():
    import numpy
    import scipy
    lines = sum(len(p.read_text().splitlines())
                for p in (SRC / "uavnoma").glob("*.py"))
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "src_uavnoma_lines": lines, "machine": platform.machine(),
    }


def print_report(name, metrics, units, extra, failures, env):
    print(f"== {name}")
    for key, value in metrics.items():
        print(f"  {key:<44} {value:>14.6g} {units[key]}")
    for key, value in extra.items():
        if key in EXTRA_UNITS:
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"  {key:<44} {shown:>14} {EXTRA_UNITS[key]}")
        elif isinstance(value, dict):
            print(f"  {key:<44} {json.dumps(value, sort_keys=True)}")
    print(f"  environment: {json.dumps(env, sort_keys=True)}")
    if failures:
        print(f"  failed ops: {len(failures)}")
        for f in failures[:40]:
            print(f"    step {f['step']:>3} {f['label']}: {f['error']}")
        if len(failures) > 40:
            print(f"    ... {len(failures) - 40} more in the JSON record")


def run(args):
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    setup_samples = setup_seconds(args) if not args.trace else []

    workload = cls(args.seed, str(OUT))
    workload.setup()
    warm = workload.step(0)
    phase = measure(workload, args.seconds)
    rerun_identical = cls.fingerprint(warm) == cls.fingerprint(
        phase.quality[0])
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(),
              "rerun_bit_identical": rerun_identical,
              "failures": phase.failures}
    correct = rerun_identical
    if args.trace:
        from tracer import LAYER_UNITS, layer_metrics
        k = cls.quality_steps
        tr, traced, untraced_s, traced_s = traced_replay(workload, args, k)
        replay_identical = [cls.fingerprint(s) for s in phase.quality] == \
            [cls.fingerprint(s) for s in traced]
        correct = correct and replay_identical
        metrics = layer_metrics(tr, untraced_s, traced_s)
        units = LAYER_UNITS
        extra = {"traced_steps": k, "untraced_wall_s": untraced_s,
                 "traced_wall_s": traced_s,
                 "traced_replay_identical": replay_identical}
        tr.save(OUT / f"spans_{args.workload}.npz")
    else:
        metrics, extra = end_to_end(workload, phase, setup_samples)
        units = E2E_UNITS
    record.update(metrics=metrics, extra=extra)
    print_report(args.workload, metrics, units, extra, phase.failures,
                 record["environment"])
    print(f"  rerun bit-identical: {rerun_identical}")
    path = OUT / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(f"  full record: {OUT.name}/{path.name}")
    print(json.dumps({
        "correct": bool(correct), "attempted": phase.attempted,
        "failed": len(phase.failures),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


def run_all(args):
    """Every workload in its own process, then one summary table."""
    from workloads import WORKLOADS
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0 or not lines:
            print(f"workload {name} exited with {done.returncode}",
                  file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print("== summary")
    for name, res in results.items():
        print(f"  {name:<16} correct={res['correct']} "
              f"attempted={res['attempted']} failed={res['failed']}")
        for key, m in res["metrics"].items():
            print(f"    {key:<44} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"workloads": results}))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "uavnoma" / "__init__.py").is_file():
        print(f"uavnoma sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args)
    if args.workload == "all":
        return run_all(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
