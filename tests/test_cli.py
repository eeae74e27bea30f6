"""Command-line front end: parsing, exit codes, output formats, determinism."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sepmech import DensityMatrix, werner_state
from sepmech.cli import main, parse_beta, parse_p_grid, CliError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_beta_forms():
    assert parse_beta("10") == [10.0]
    assert parse_beta("1,10,100") == [1.0, 10.0, 100.0]
    grid = parse_beta("10:10000:4")
    assert np.allclose(grid, [10.0, 100.0, 1000.0, 10000.0])
    with pytest.raises(CliError):
        parse_beta("10:5:3")
    with pytest.raises(CliError):
        parse_beta("-1")


def test_parse_p_grid_forms():
    grid = parse_p_grid("0.50:0.01:0.53")
    assert grid == [0.5, 0.51, 0.52, 0.53]
    with pytest.raises(CliError):
        parse_p_grid("0.9:0.1:0.5")
    with pytest.raises(CliError):
        parse_p_grid("0:0.1:0.5")
    with pytest.raises(CliError):
        parse_p_grid("junk")


def test_ppt_command_werner(capsys):
    code, out, _ = run(capsys, "ppt", "--werner", "0.5")
    assert code == 0
    rep = json.loads(out)
    assert rep["ppt_entangled"] is True and rep["conclusive"] is True
    code, out, _ = run(capsys, "ppt", "--werner", "0.8")
    assert json.loads(out)["ppt_entangled"] is False


def test_ppt_state_file(tmp_path, capsys):
    path = tmp_path / "rho.json"
    path.write_text(werner_state(0.3).to_json())
    code, out, _ = run(capsys, "ppt", "--state", str(path))
    assert code == 0
    assert json.loads(out)["ppt_entangled"] is True


def test_state_source_must_be_unique(capsys):
    code, _, err = run(capsys, "ppt", "--werner", "0.5", "--state", "x.json")
    assert code == 2
    assert "exactly one" in err


def test_probe_requires_seed(capsys):
    code, _, err = run(capsys, "probe", "--werner", "0.5")
    assert code == 2
    assert "--seed" in err


def test_probe_rejects_invalid_state_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dimA": 2, "dimB": 2,
                               "re": (np.eye(4) / 2).ravel().tolist(),
                               "im": np.zeros(16).tolist()}))
    code, _, err = run(capsys, "probe", "--state", str(bad), "--seed", "1")
    assert code == 2
    assert "invalid density matrix" in err


def test_probe_report_structure(capsys):
    code, out, _ = run(capsys, "probe", "--werner", "0.5", "--seed", "7",
                       "--samples", "3000", "--beta", "1,10")
    assert code == 0
    rep = json.loads(out)
    assert rep["dims"] == [2, 2]
    assert rep["ppt_entangled"] is True
    assert rep["mc"]["ensemble_length"] == 16
    assert rep["mc"]["min_energy"] > 0
    assert [pt["beta"] for pt in rep["mc"]["mean_energy"]] == [1.0, 10.0]
    # recognizable Werner input gets a saddle summary; p=0.5 sits outside
    assert rep["saddle"]["region_member"] is False
    assert rep["saddle"]["residual_norm"] > 1e-2


def test_probe_werner_region_member(capsys):
    code, out, _ = run(capsys, "probe", "--werner", "0.95", "--seed", "7",
                       "--samples", "500", "--beta", "1")
    rep = json.loads(out)
    assert rep["saddle"]["region_member"] is True
    assert rep["saddle"]["interior"] is True


def test_probe_is_deterministic(capsys):
    args = ("probe", "--werner", "0.4", "--seed", "11", "--samples", "2000")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_scan_csv_format_and_onset(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code, stdout, _ = run(capsys, "scan", "--p-grid", "0.86:0.01:0.92",
                          "--beta", "10", "--out", str(out))
    assert code == 0
    assert "region_start=0.89" in stdout
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# ")
    header = json.loads(lines[0][2:])
    assert header["command"] == "scan" and header["seed"] == 0
    assert lines[1] == "p,residual,gamma_star,lambda_star,interior"
    rows = [ln.split(",") for ln in lines[2:-1]]
    assert len(rows) == 7
    assert lines[-1].startswith("# region_start=")
    assert float(lines[-1].split("=")[1]) == pytest.approx(0.89, abs=1e-12)
    resid = {round(float(r[0]), 12): float(r[1]) for r in rows}
    assert resid[0.86] > 1e-6 and resid[0.9] < 1e-6


def test_scan_rerun_is_byte_identical(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    args = ("scan", "--p-grid", "0.88:0.01:0.90", "--beta", "10",
            "--out", str(out))
    run(capsys, *args)
    first = out.read_bytes()
    run(capsys, *args)
    assert out.read_bytes() == first


def test_scan_rejects_bad_grid(capsys):
    code, _, err = run(capsys, "scan", "--p-grid", "0.9:0.1:0.5")
    assert code == 2
    code, _, err = run(capsys, "scan", "--p-grid", "0:0.05:0.5")
    assert code == 2
    code, _, err = run(capsys, "scan", "--beta", "1,10")
    assert code == 2
    assert "single beta" in err


@pytest.mark.parametrize("value", ["0", "-1e-6", "nan", "inf"])
def test_scan_rejects_bad_threshold(capsys, value):
    code, _, err = run(capsys, "scan", "--p-grid", "0.9:0.1:1.0",
                       f"--threshold={value}")
    assert code == 2
    assert "threshold" in err


@pytest.mark.parametrize("argv", [["scan"], ["probe", "--werner", "0.9", "--seed", "1"],
                                  ["scaling", "--werner", "0.9"]])
def test_tol_flag_is_gone(argv):
    # the saddle solve has no tolerance: it iterates to rounding
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--tol", "1e-9"])
    assert exc.value.code == 2


def test_cli_import_does_not_load_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, sepmech.cli; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    assert out.strip() == "[]"


def test_scaling_self_test_recovers_injected_law(tmp_path, capsys):
    out = tmp_path / "fit.csv"
    code, stdout, _ = run(capsys, "scaling", "--self-test",
                          "--beta", "10:10000:12", "--out", str(out))
    assert code == 0
    assert "slope=-1.000000" in stdout
    lines = out.read_text().splitlines()
    assert lines[1] == "beta,avg_energy,analytic_flag"
    assert all(ln.endswith(",0") for ln in lines[2:-1])
    footer = json.loads(lines[-1][2:])
    assert abs(footer["slope"] + 1.0) < 1e-9
    assert abs(footer["delta"] - 1.75) < 1e-9


def test_scaling_inside_region(tmp_path, capsys):
    out = tmp_path / "sc.csv"
    code, _, _ = run(capsys, "scaling", "--werner", "0.9",
                     "--beta", "10:1000:5", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    footer = json.loads(lines[-1][2:])
    assert abs(footer["slope"] + 1.0) < 0.05
    rows = [ln.split(",") for ln in lines[2:-1]]
    assert len(rows) == 5
    assert all(r[2] == "1" for r in rows)
    energies = [float(r[1]) for r in rows]
    assert all(a > b for a, b in zip(energies, energies[1:]))


def test_scaling_outside_region_exits_3(capsys):
    code, _, err = run(capsys, "scaling", "--werner", "0.5", "--beta", "10:100:3")
    assert code == 3
    assert "unsatisfiable" in err


def test_scaling_requires_p(capsys):
    code, _, err = run(capsys, "scaling", "--beta", "10:100:3")
    assert code == 2
    assert "--werner" in err


def test_mc_writes_density_and_energy_files(tmp_path, capsys):
    base = tmp_path / "run"
    code, _, _ = run(capsys, "mc", "--werner", "0.2", "--seed", "3",
                     "--samples", "2000", "--beta", "1:100:5",
                     "--out", str(base))
    assert code == 0
    dens = (tmp_path / "run_density.csv").read_text().splitlines()
    ener = (tmp_path / "run_energy.csv").read_text().splitlines()
    assert dens[1] == "bin_lo,bin_hi,frequency"
    freq = sum(float(ln.split(",")[2]) for ln in dens[2:])
    assert abs(freq - 1.0) < 1e-12
    assert ener[1] == "beta,mean_energy,std_error,ess,min_energy"
    assert len(ener) == 2 + 5
    mins = {ln.split(",")[4] for ln in ener[2:]}
    assert len(mins) == 1 and float(mins.pop()) > 0


def test_mc_rerun_is_byte_identical(tmp_path, capsys):
    base = tmp_path / "re"
    args = ("mc", "--werner", "1.0", "--seed", "5", "--samples", "1000",
            "--beta", "1,10", "--out", str(base))
    run(capsys, *args)
    first = (tmp_path / "re_energy.csv").read_bytes()
    run(capsys, *args)
    assert (tmp_path / "re_energy.csv").read_bytes() == first


def test_mc_sample_floor(capsys):
    code, _, err = run(capsys, "mc", "--werner", "0.5", "--seed", "1",
                       "--samples", "10")
    assert code == 2
    assert "samples" in err


def test_config_file_supplies_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"werner": 0.5, "seed": 9, "samples": 1500,
                               "beta": "1,10"}))
    code, out, _ = run(capsys, "probe", "--config", str(cfg))
    assert code == 0
    rep = json.loads(out)
    assert rep["mc"]["samples"] == 1500
    assert rep["ppt_entangled"] is True


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"werner": 0.5}))
    code, out, _ = run(capsys, "ppt", "--config", str(cfg), "--werner", "0.8")
    assert code == 0
    assert json.loads(out)["ppt_entangled"] is False


def test_config_must_be_object(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1,2,3]")
    code, _, err = run(capsys, "ppt", "--config", str(cfg), "--werner", "0.5")
    assert code == 2
    assert "JSON object" in err


def test_config_rejects_unknown_key(tmp_path, capsys):
    # the removed --tol, or any misspelt key, must not pass silently
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tol": 1e-9}))
    code, out, err = run(capsys, "scan", "--p-grid", "0.90:0.01:0.91",
                         "--config", str(cfg))
    assert code == 2
    assert "'tol'" in err and out == ""


def test_config_long_name_is_honoured_and_null_is_absent(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p-grid": "0.90:0.01:0.91", "beta": 100,
                               "seed": None}))
    code, out, _ = run(capsys, "scan", "--config", str(cfg))
    assert code == 0
    header = json.loads(out.splitlines()[0][2:])
    assert header["p_grid"] == "0.90:0.01:0.91" and header["beta"] == 100.0
    assert header["seed"] == 0
    assert len(out.splitlines()) == 2 + 2 + 1


_VALUE_BASE = {
    "probe": ["probe", "--werner=0.5", "--seed=1", "--samples=200", "--beta=1"],
    "scan": ["scan", "--p-grid=0.90:0.01:0.91", "--beta=10"],
    "scaling": ["scaling", "--werner=0.9", "--beta=10:100:3"],
    "mc": ["mc", "--werner=0.5", "--seed=1", "--samples=200", "--beta=1"],
    "ppt": ["ppt", "--werner=0.5"],
}


def _echoed(command, flag, out):
    """The value of flag as the command's output reports it."""
    if command in ("probe", "ppt"):
        rep = json.loads(out)
        return {"--werner": lambda: rep["state"]["p"],
                "--seed": lambda: rep["mc"]["seed"],
                "--beta": lambda: rep["mc"]["mean_energy"][0]["beta"]}[flag]()
    header = json.loads(out.splitlines()[0][2:])
    return header[flag[2:]]


@pytest.mark.parametrize("command,flag,value,code", [
    ("probe", "--werner", "0", 0), ("probe", "--werner", "-1", 2),
    ("probe", "--seed", "0", 0), ("probe", "--seed", "-1", 2),
    ("probe", "--samples", "0", 2), ("probe", "--samples", "-1", 2),
    ("probe", "--beta", "0", 0), ("probe", "--beta", "-1", 2),
    ("probe", "--threshold", "0", 2), ("probe", "--threshold", "-1", 2),
    ("scan", "--seed", "0", 0), ("scan", "--seed", "-1", 2),
    ("scan", "--beta", "0", 2), ("scan", "--beta", "-1", 2),
    ("scan", "--threshold", "0", 2), ("scan", "--threshold", "-1", 2),
    ("scaling", "--werner", "0", 2), ("scaling", "--werner", "-1", 2),
    ("scaling", "--seed", "0", 0), ("scaling", "--seed", "-1", 2),
    ("scaling", "--beta", "0", 2), ("scaling", "--beta", "-1", 2),
    ("scaling", "--threshold", "0", 2), ("scaling", "--threshold", "-1", 2),
    ("mc", "--werner", "0", 0), ("mc", "--werner", "-1", 2),
    ("mc", "--seed", "0", 0), ("mc", "--seed", "-1", 2),
    ("mc", "--samples", "0", 2), ("mc", "--samples", "-1", 2),
    ("mc", "--beta", "0", 0), ("mc", "--beta", "-1", 2),
    ("ppt", "--werner", "0", 0), ("ppt", "--werner", "-1", 2),
])
def test_zero_or_negative_value_is_honoured_or_rejected(capsys, command, flag, value, code):
    # never replaced by a default: exit 0 with the value in the output, or exit 2
    argv = [a for a in _VALUE_BASE[command] if not a.startswith(flag + "=")]
    rc, out, err = run(capsys, *argv, f"{flag}={value}")
    assert rc == code, err
    if code == 0:
        assert float(_echoed(command, flag, out)) == float(value)
    else:
        assert err.startswith("error: ")
