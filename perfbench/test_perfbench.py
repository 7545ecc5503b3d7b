"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import sys
from types import SimpleNamespace

import pytest

import run
from workloads import WORKLOADS

sys.path.insert(0, str(run.SRC))


def args_for(name, seed=3, seconds=0.0, trace=0):
    return run.parse_args(["--workload", name, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)])


def fake_result(ee=0.3, flags=None):
    feasible = {f"C{i}": True for i in range(1, 9)}
    feasible.update(flags or {})
    return SimpleNamespace(
        ee=ee, counters={"rounds": 1},
        report=SimpleNamespace(R_sum=1.0, E_sum=1.0 / ee, feasible=feasible),
        alloc=SimpleNamespace(tau=0.5, p=[1.0], alpha_cc=[0.3],
                              alpha_ce=[0.7]),
        trace=SimpleNamespace(ee_values=lambda: [ee / 2, ee]))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_op_smoke(name, tmp_path):
    wl = WORKLOADS[name](5, str(tmp_path))
    wl.setup()
    ops = wl.step(0)
    assert ops
    for op in ops:
        assert op.seconds >= 0.0 and op.ee >= 0.0
        assert isinstance(op.error, str)
        assert op.ok == (op.error == "")
        if op.ok:
            assert op.ee > 0.0


def test_command_prints_result_line_last(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 2)
    monkeypatch.setattr(WORKLOADS["drops_n4m8"], "quality_steps", 1)
    assert run.run(args_for("drops_n4m8")) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] >= 1
    assert set(last["metrics"]) == set(run.E2E_UNITS)
    for m in last["metrics"].values():
        assert m["value"] > 0.0


def test_layer_self_times_account_for_traced_wall(tmp_path, monkeypatch):
    from tracer import LAYERS, layer_metrics
    monkeypatch.setattr(run, "OUT", tmp_path)
    args = args_for("drops_n4m8")
    wl = WORKLOADS["drops_n4m8"](args.seed, str(tmp_path))
    wl.setup()
    tr, steps, untraced, traced = run.traced_replay(wl, args, 1)
    metrics = layer_metrics(tr, untraced, traced)
    assert set(metrics) == set(LAYERS)
    agg = tr.aggregate()
    op_wall, op_self = agg["op"]["busy_s"], agg["op"]["self_s"]
    # the self times of every layer under the op span, bcd's included,
    # sum to the op span less its own self time
    accounted = op_wall - op_self
    overhead = max(traced - untraced, 0.0)
    assert abs(accounted - untraced) <= overhead + 0.1 * untraced
    assert metrics["linklayer.build_link_state.calls"] > 0
    assert metrics["bcd.run_pipeline.calls"] == 1
    assert metrics["trace.unaccounted_share"] < 0.05
    # the wrappers are gone once the replay ends
    assert not hasattr(wl.bcd.run_pipeline, "__wrapped__")


def test_failing_ops_raise_failed_share_not_the_run(tmp_path, monkeypatch):
    wl = WORKLOADS["drops_n4m8"](0, str(tmp_path))
    wl.setup()
    outcomes = iter([
        lambda: (_ for _ in ()).throw(ValueError("boom")),
        lambda: fake_result(flags={"C8": False}),
        lambda: fake_result(ee=float("nan")),
        lambda: fake_result(ee=0.4),
    ])
    monkeypatch.setattr(wl.bcd, "run_algorithm4",
                        lambda scn, params: next(outcomes)())
    monkeypatch.setattr(wl, "quality_steps", 4)
    phase = run.measure(wl, 0.0)
    metrics, extra = run.end_to_end(wl, phase, [0.1])
    errors = [s[0].error for s in phase.quality]
    assert errors == ["ValueError", "flag C8 false", "non-finite result", ""]
    assert extra["failed_share"] == 0.75
    assert metrics["mean_ee"] == pytest.approx(0.1)


@pytest.mark.parametrize("stub, reason", [
    (lambda *a, **k: fake_result(flags={"C1": False}), "flag C1 false"),
    (lambda *a, **k: [][0], "sweep aborted by IndexError at N=2 noma_ld"),
])
def test_sweep_failures_are_counted_per_row(tmp_path, stub, reason):
    wl = WORKLOADS["fig3_sweep"](0, str(tmp_path))
    wl.setup()
    original = wl.bcd.run_pipeline
    wl.bcd.run_pipeline = stub
    try:
        ops = wl.step(0)
    finally:
        wl.bcd.run_pipeline = original
    assert len(ops) == wl.rows_per_sweep
    assert {op.error for op in ops} == {reason}
    assert all(op.ee == 0.0 for op in ops)


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(list(range(20))) == (None, None)
    p, value = run.tail_percentile([float(i) for i in range(100)])
    assert p == 90 and value == pytest.approx(89.1)


def test_benchmark_json_matches_the_code():
    from tracer import LAYERS
    with open(run.ROOT / "BENCHMARK.json") as fh:
        doc = json.load(fh)
    assert {w["name"]: w["why"] for w in doc["workloads"]} == {
        w["name"]: WORKLOADS[w["name"]].why for w in doc["workloads"]}
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} \
        == LAYERS
