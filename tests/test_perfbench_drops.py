"""The benchmark's drop workload runs its checks on the solver blocks.

perfbench/workloads.py checks every run_algorithm4 result for finiteness,
the C1-C8 flags and a monotone BCD trace (check_result); a block that fails
them would otherwise surface only as failed ops in a benchmark run.
"""

import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_drops_workload_ops_pass_their_checks(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    wl = workloads.DropsN4M8(seed0=1, workdir=tmp_path)
    wl.setup()
    ops = [op for i in range(3) for op in wl.step(i)]
    assert len(ops) == 3
    assert [op.error for op in ops] == ["", "", ""]
    assert all(op.ee > 0.0 for op in ops)
