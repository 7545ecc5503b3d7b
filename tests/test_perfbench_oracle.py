"""The benchmark's oracle workload runs its checks on the search kernel.

perfbench/workloads.py checks every exhaustive-search optimum against its
own report and the C1-C8 flags (check_oracle); a kernel that fails them
would otherwise surface only as failed ops in a benchmark run.
"""

import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_es_oracle_workload_ops_pass_their_checks(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    wl = workloads.EsOracleN2M4(seed0=1, workdir=tmp_path)
    wl.setup()
    ops = [op for i in range(3) for op in wl.step(i)]
    assert len(ops) == 3
    assert [op.error for op in ops] == ["", "", ""]
    assert all(op.ee > 0.0 for op in ops)
