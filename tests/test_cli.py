import json
import os

import pytest

from uavnoma import cli


def read_without_timing(csv_path):
    """CSV contents with the wall-clock column blanked."""
    out = []
    with open(csv_path) as fh:
        header = fh.readline().strip().split(",")
        k = header.index("wall_ms")
        out.append(",".join(header))
        for line in fh:
            cols = line.rstrip("\n").split(",")
            cols[k] = ""
            out.append(",".join(cols))
    return "\n".join(out)


FAST = ["--override", "N=2", "--override", "M=4", "--override", "R_min=0.0",
        "--override", "iters={rounds: 1}"]


def test_run_writes_csv_and_manifest(tmp_path):
    out = tmp_path / "a"
    rc = cli.main(["run", "--experiment", "fig10_tau", "--seeds", "2",
                   "--out", str(out)] + FAST)
    assert rc == 0
    csv_path = out / "fig10_tau.csv"
    manifest_path = out / "fig10_tau.manifest.json"
    assert csv_path.exists() and manifest_path.exists()
    manifest = json.loads(manifest_path.read_text())
    assert manifest["seeds"] == [0, 1]
    assert manifest["csv"] == "fig10_tau.csv"
    assert len(manifest["config_hash"]) == 64
    assert set(manifest["environment"]) == {"python", "numpy", "scipy"}
    header = csv_path.read_text().splitlines()[0]
    assert header == "tau,scheme,seed,EE,rounds,wall_ms,error"


def test_rerun_byte_identical_excluding_timing(tmp_path):
    args = ["run", "--experiment", "fig10_tau", "--seeds", "2"] + FAST
    assert cli.main(args + ["--out", str(tmp_path / "a")]) == 0
    assert cli.main(args + ["--out", str(tmp_path / "b")]) == 0
    a = read_without_timing(tmp_path / "a" / "fig10_tau.csv")
    b = read_without_timing(tmp_path / "b" / "fig10_tau.csv")
    assert a == b
    ma = json.loads((tmp_path / "a" / "fig10_tau.manifest.json").read_text())
    mb = json.loads((tmp_path / "b" / "fig10_tau.manifest.json").read_text())
    assert ma == mb


def test_unknown_experiment_exit_code():
    assert cli.main(["run", "--experiment", "nope"]) == 1


def test_unknown_override_key_named(tmp_path, capsys):
    rc = cli.main(["run", "--experiment", "fig10_tau", "--seeds", "1",
                   "--out", str(tmp_path), "--override", "warp_drive=1"])
    assert rc == 1
    assert "warp_drive" in capsys.readouterr().err


def test_malformed_override(tmp_path):
    rc = cli.main(["run", "--experiment", "fig10_tau", "--seeds", "1",
                   "--out", str(tmp_path), "--override", "oops"])
    assert rc == 1


def test_env_out_dir_wins(tmp_path, monkeypatch):
    env_dir = tmp_path / "env"
    monkeypatch.setenv("UAVNOMA_OUT", str(env_dir))
    rc = cli.main(["run", "--experiment", "fig10_tau", "--seeds", "1",
                   "--out", str(tmp_path / "cli")] + FAST)
    assert rc == 0
    assert (env_dir / "fig10_tau.csv").exists()
    assert not (tmp_path / "cli").exists()


def test_config_file_loading(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("N: 2\nM: 4\nR_min: 0.0\n")
    rc = cli.main(["run", "--config", str(cfg), "--experiment", "fig10_tau",
                   "--seeds", "1", "--out", str(tmp_path / "o")])
    assert rc == 0
    manifest = json.loads((tmp_path / "o" / "fig10_tau.manifest.json").read_text())
    assert manifest["config"]["N"] == 2


def test_compare_same_manifest_ties(tmp_path, capsys):
    out = tmp_path / "a"
    cli.main(["run", "--experiment", "fig10_tau", "--seeds", "2",
              "--out", str(out)] + FAST)
    m = str(out / "fig10_tau.manifest.json")
    capsys.readouterr()  # drop the run command's output
    rc = cli.main(["compare", m, m])
    assert rc == 0
    text = capsys.readouterr().out
    # identical data: every win rate is the 0.5 tie value
    for line in text.splitlines()[1:]:
        assert line.strip().endswith("0.500")


def test_compare_non_overlapping_errors(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    cli.main(["run", "--experiment", "fig10_tau", "--seeds", "1",
              "--out", str(a)] + FAST)
    cli.main(["run", "--experiment", "fig9_altitude", "--seeds", "1",
              "--out", str(b)] + FAST)
    rc = cli.main(["compare", str(a / "fig10_tau.manifest.json"),
                   str(b / "fig9_altitude.manifest.json")])
    assert rc == 1


def test_compare_needs_two():
    assert cli.main(["compare", "only_one.json"]) == 1


def test_jobs_flag_deterministic(tmp_path):
    args = ["run", "--experiment", "fig10_tau", "--seeds", "2"] + FAST
    cli.main(args + ["--out", str(tmp_path / "serial")])
    cli.main(args + ["--out", str(tmp_path / "par"), "--jobs", "2"])
    a = read_without_timing(tmp_path / "serial" / "fig10_tau.csv")
    b = read_without_timing(tmp_path / "par" / "fig10_tau.csv")
    assert a == b


@pytest.mark.parametrize("experiment", ["fig8_convergence",
                                        "fig11_placement_heatmap"])
def test_jobs_flag_deterministic_per_cell_sweeps(tmp_path, monkeypatch,
                                                 experiment):
    pools = []
    executor = cli.ProcessPoolExecutor

    def pool(max_workers):
        pools.append(max_workers)
        return executor(max_workers=max_workers)
    monkeypatch.setattr(cli, "ProcessPoolExecutor", pool)
    args = ["run", "--experiment", experiment, "--seeds", "2"] + FAST
    assert cli.main(args + ["--out", str(tmp_path / "serial")]) == 0
    assert cli.main(args + ["--out", str(tmp_path / "par"),
                            "--jobs", "2"]) == 0
    assert pools == [2]
    a = read_without_timing(tmp_path / "serial" / f"{experiment}.csv")
    b = read_without_timing(tmp_path / "par" / f"{experiment}.csv")
    assert a == b and len(a.splitlines()) > 2


def test_convergence_sweep_writes_error_rows(tmp_path):
    # R_min = 5 puts the CE floor above every NOMA SINR ceiling at the
    # start, while OMA still runs
    rc = cli.main(["run", "--experiment", "fig8_convergence", "--seeds", "1",
                   "--out", str(tmp_path), "--override", "N=2", "--override",
                   "M=4", "--override", "R_min=5.0"])
    assert rc == 0
    lines = (tmp_path / "fig8_convergence.csv").read_text().splitlines()
    errors = sorted(line for line in lines[1:] if not line.endswith(","))
    assert errors == [f"None,{s},0,nan,-1,0,PipelineInfeasible"
                      for s in ("etpa_ld", "noma_ld", "noma_no_ld")]
    assert any(",oma_ld," in line for line in lines)


@pytest.mark.parametrize("name", sorted(cli._experiments()))
def test_every_experiment_runs_at_the_defaults(name, tmp_path, monkeypatch):
    """Each sweep exits 0 and writes its CSV header; failed points are rows."""
    monkeypatch.delenv("UAVNOMA_OUT", raising=False)
    rc = cli.main(["run", "--experiment", name, "--seeds", "1",
                   "--out", str(tmp_path)])
    assert rc == 0
    axis = cli._experiments()[name].axis
    header = (tmp_path / f"{name}.csv").read_text().splitlines()[0]
    assert header == f"{axis},scheme,seed,EE,rounds,wall_ms,error"
