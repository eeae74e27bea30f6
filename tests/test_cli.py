"""Command-line front end: parsing, exit codes, output formats, determinism."""
import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from sepmech import (DensityMatrix, cost_operator, eigen_ensemble,
                     estimate_state_density, mc_energy_curve, sample_energies,
                     saddle_search, statmech, werner, werner_state)
from sepmech.cli import (MC_HISTOGRAM_BINS, _OPTIONS, _build_parser, _fmt, main,
                         parse_beta, parse_p_grid)
from sepmech.quantum_core import InvalidInput


def run(capsys, *argv):
    """(exit code, stdout, stderr) of main, an exit by argparse included."""
    try:
        code = main(list(argv))
    except SystemExit as e:
        code = e.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_beta_forms():
    assert parse_beta("10") == [10.0]
    assert parse_beta("1,10,100") == [1.0, 10.0, 100.0]
    grid = parse_beta("10:10000:4")
    assert np.allclose(grid, [10.0, 100.0, 1000.0, 10000.0])
    with pytest.raises(InvalidInput):
        parse_beta("10:5:3")
    with pytest.raises(InvalidInput):
        parse_beta("-1")
    with pytest.raises(InvalidInput, match="bad beta '1,abc'"):
        parse_beta("1,abc")


def test_a_beta_grid_reaches_the_solver_as_python_floats(capsys):
    # a numpy beta of 1e308 overflowed in the solver with a RuntimeWarning
    # (an error in this suite) before its QuadratureError
    assert all(type(b) is float for b in parse_beta("1:100:9"))
    code, out, err = run(capsys, "scaling", "--werner", "0.9", "--beta", "1:1e308:3")
    assert code == 4 and out == ""
    assert err.startswith("error: quadrature scales") and err.count("\n") == 1


def test_parse_p_grid_forms():
    grid = parse_p_grid("0.50:0.01:0.53")
    assert grid == [0.5, 0.51, 0.52, 0.53]
    with pytest.raises(InvalidInput):
        parse_p_grid("0.9:0.1:0.5")
    with pytest.raises(InvalidInput):
        parse_p_grid("junk")
    # the range of p is the library's rule (scan exits 2 on it), not the parser's
    assert parse_p_grid("0:0.25:0.5") == [0.0, 0.25, 0.5]


@pytest.mark.parametrize("argv", [["--p-grid=-inf:0.01:1"], ["--p-grid", "0.5:0.01:inf"],
                                  ["--p-grid", "0.5:nan:1"]])
def test_scan_rejects_a_non_finite_p_grid(capsys, argv):
    code, out, err = run(capsys, "scan", *argv)
    assert code == 2 and out == "" and "must be finite" in err


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


@pytest.mark.parametrize("f, entangled, conclusive, probe_verdict",
                         [(0.5, True, True, True), (0.0, False, False, None)])
def test_ppt_and_probe_verdict_on_a_3x3_state(tmp_path, capsys, f, entangled,
                                              conclusive, probe_verdict):
    # f |Phi_3><Phi_3| + (1 - f) 1/9: NPT (entangled) at f = 0.5; at f = 0 it is
    # PPT, which leaves a 3x3 state unresolved
    phi = np.eye(3).ravel() / np.sqrt(3)
    path = tmp_path / "rho.json"
    path.write_text(DensityMatrix(3, 3, f * np.outer(phi, phi)
                                  + (1 - f) * np.eye(9) / 9).to_json())
    code, out, _ = run(capsys, "ppt", "--state", str(path))
    assert code == 0
    rep = json.loads(out)
    assert rep["ppt_entangled"] is entangled and rep["conclusive"] is conclusive
    code, out, _ = run(capsys, "probe", "--state", str(path), "--seed", "1",
                       "--samples", "200", "--beta", "1")
    assert code == 0 and json.loads(out)["ppt_entangled"] is probe_verdict


def test_state_source_must_be_unique(capsys):
    code, _, err = run(capsys, "ppt", "--werner", "0.5", "--state", "x.json")
    assert code == 2
    assert "exactly one" in err


def test_probe_requires_seed(capsys):
    code, _, err = run(capsys, "probe", "--werner", "0.5")
    assert code == 2
    assert "--seed" in err


def test_probe_rejects_invalid_state_file(tmp_path, capsys):
    for entry, why in [(0.5, "density matrix trace is not 1"),
                       (float("nan"), "non-finite entries")]:
        re = (np.eye(4) / 4).ravel()
        re[0] = entry
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"dimA": 2, "dimB": 2, "re": re.tolist(),
                                   "im": np.zeros(16).tolist()}))
        code, out, err = run(capsys, "probe", "--state", str(bad), "--seed", "1")
        assert code == 2 and out == ""
        assert f"invalid density matrix: {why}" in err


@pytest.mark.parametrize("dims, why", [
    ({"dimA": 2.5, "dimB": 2}, "dimA must be an integer, got 2.5"),
    ({"dimA": -2, "dimB": -2}, "dimA must be >= 1, got -2"),
    ({"dimA": True, "dimB": 4}, "dimA must be an integer, got True"),
    ({"dimA": "2", "dimB": 2}, "dimA must be an integer, got '2'"),
], ids=["fraction", "negative", "bool", "string"])
def test_state_file_dimensions_are_checked_not_coerced(tmp_path, capsys, dims, why):
    # each names a 4 x 4 matrix that W(1) fills, so only the check can refuse it
    path = tmp_path / "state.json"
    path.write_text(json.dumps({**dims, "re": (np.eye(4) / 4).ravel().tolist(),
                                "im": np.zeros(16).tolist()}))
    code, out, err = run(capsys, "ppt", "--state", str(path))
    assert code == 2 and out == ""
    assert f"invalid density matrix: {why}" in err


def test_malformed_state_file_exits_2(tmp_path, capsys, malformed_state_document):
    path = tmp_path / "state.json"
    if isinstance(malformed_state_document, bytes):
        path.write_bytes(malformed_state_document)
    else:
        path.write_text(malformed_state_document)
    code, out, err = run(capsys, "ppt", "--state", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: invalid density matrix: ")


def test_a_bug_while_loading_a_state_file_keeps_its_traceback(tmp_path, monkeypatch):
    # only unreadable, binary and malformed files are refused with exit 2
    path = tmp_path / "state.json"
    path.write_text(werner_state(0.3).to_json())

    def broken(text):
        raise TypeError("a bug")

    monkeypatch.setattr(DensityMatrix, "from_json", staticmethod(broken))
    with pytest.raises(TypeError, match="a bug"):
        main(["ppt", "--state", str(path)])


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


def test_probe_report_is_strict_json_when_the_error_is_undefined(capsys):
    # at beta = 1e7 one jackknife block carries all the weight
    code, out, _ = run(capsys, "probe", "--werner", "0.2", "--seed", "1",
                       "--samples", "20000", "--beta", "1e7")
    assert code == 0

    def reject(name):
        raise ValueError(f"non-JSON constant {name}")

    rep = json.loads(out, parse_constant=reject)
    assert rep["mc"]["mean_energy"][0]["std_error"] is None


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
    assert header["command"] == "scan"
    assert "seed" not in header and "threshold" not in header
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


@pytest.mark.parametrize("argv", [["scan"], ["probe", "--werner", "0.9", "--seed", "1"],
                                  ["scaling", "--werner", "0.9"]])
def test_tol_flag_is_gone(argv):
    # the saddle solve has no tolerance: it iterates to rounding
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--tol", "1e-9"])
    assert exc.value.code == 2


_VALUE_BASE = {
    "probe": ["probe", "--werner=0.5", "--seed=1", "--samples=200", "--beta=1"],
    "scan": ["scan", "--p-grid=0.90:0.01:0.91", "--beta=10"],
    "scaling": ["scaling", "--werner=0.9", "--beta=10:100:3"],
    "mc": ["mc", "--werner=0.5", "--seed=1", "--samples=200", "--beta=1"],
    "ppt": ["ppt", "--werner=0.5"],
}


@pytest.mark.parametrize("command,flag,value", [
    ("scaling", "--threshold", "0.1"), ("scaling", "--self-test", None),
    ("ppt", "--seed", "7"), ("scan", "--threshold", "0.1"), ("scan", "--seed", "7"),
    ("probe", "--threshold", "0.1"),
    *((command, "--config", "run.json") for command in _VALUE_BASE),
])
def test_removed_flag_is_gone(command, flag, value):
    # region membership is the library's own test; ppt and scan draw no random
    # numbers; options come from flags or an argument file, not a JSON config
    with pytest.raises(SystemExit) as exc:
        main(_VALUE_BASE[command] + [flag] + ([value] if value else []))
    assert exc.value.code == 2


LONG_OPTIONS = {
    "mc": ["--beta", "--out", "--samples", "--seed", "--state", "--werner"],
    "ppt": ["--out", "--state", "--werner"],
    "probe": ["--beta", "--out", "--samples", "--seed", "--state", "--werner"],
    "scaling": ["--beta", "--out", "--seed", "--werner"],
    "scan": ["--beta", "--out", "--p-grid"],
}


def test_main_reuses_one_parser_and_no_option_carries_over(capsys):
    assert _build_parser() is _build_parser()
    assert run(capsys, "ppt", "--werner", "0.3", "--out", os.devnull) == (0, "", "")
    code, out, _ = run(capsys, "ppt", "--werner", "0.7")
    assert code == 0 and json.loads(out)["state"] == {"kind": "werner", "p": 0.7}


def test_each_command_takes_exactly_its_options():
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    got = {name: sorted(opt for a in sp._actions for opt in a.option_strings
                        if opt.startswith("--") and opt != "--help")
           for name, sp in sub.choices.items()}
    assert got == LONG_OPTIONS


@pytest.mark.parametrize("command", sorted(LONG_OPTIONS))
def test_help_lists_each_option_with_its_help_text(capsys, command):
    code, out, _ = run(capsys, command, "--help")
    assert code == 0
    text = " ".join(out.split())  # argparse wraps to the terminal width
    for flag in LONG_OPTIONS[command]:
        assert re.search(rf"{flag} \S+ {re.escape(_OPTIONS[flag]['help'])}", text), flag


@pytest.mark.parametrize("argv", [
    ["ppt", "--werner", "0.5", "--out", "{tmp}/missing/x.json"],
    ["scan", "--p-grid", "0.9:0.1:1", "--out", "{tmp}"],
], ids=["missing-directory", "a-directory"])
def test_an_unwritable_out_exits_2(tmp_path, capsys, argv):
    # the file is opened after the work succeeds: nothing is written or printed
    argv = [a.format(tmp=tmp_path) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and list(tmp_path.iterdir()) == []
    assert err.startswith(f"error: cannot write {argv[-1]}: ") and err.count("\n") == 1


def test_mc_writes_both_out_files_or_neither(tmp_path, capsys):
    # the energy file cannot be opened, so the density file written before
    # it is removed again
    (tmp_path / "d_energy.csv").mkdir()
    out = str(tmp_path / "d")
    code, stdout, err = run(capsys, "mc", "--werner", "0.2", "--seed", "3",
                            "--samples", "200", "--out", out)
    assert code == 2 and stdout == ""
    assert [p.name for p in tmp_path.iterdir()] == ["d_energy.csv"]
    assert err.startswith(f"error: cannot write {out}_energy.csv: ") and err.count("\n") == 1


def _args_file(path, tokens):
    """An argument file: one token per line."""
    path.write_text("".join(f"{t}\n" for t in tokens))
    return f"@{path}"


@pytest.mark.parametrize("command", sorted(_VALUE_BASE))
def test_argument_file_run_matches_the_inline_flags(tmp_path, capsys, command):
    # the file may hold the options, or the command with them
    argv = _VALUE_BASE[command]
    inline = run(capsys, *argv)
    assert inline[0] == 0
    assert run(capsys, command, _args_file(tmp_path / "opts.args", argv[1:])) == inline
    assert run(capsys, _args_file(tmp_path / "all.args", argv)) == inline


def test_a_later_token_wins_over_the_argument_file(tmp_path, capsys):
    args = _args_file(tmp_path / "run.args", ["--werner", "0.5"])
    for argv, p in [(["--werner", "0.8", args], 0.5), ([args, "--werner", "0.8"], 0.8)]:
        code, out, _ = run(capsys, "ppt", *argv)
        assert code == 0 and json.loads(out)["state"]["p"] == p


def test_a_missing_argument_file_exits_2(tmp_path, capsys):
    code, out, err = run(capsys, "scan", f"@{tmp_path / 'missing.args'}")
    assert code == 2 and out == "" and "No such file" in err


@pytest.mark.parametrize("command,token", [
    ("mc", "--seed=2.7"), ("probe", "--samples=0"), ("mc", "--samples=0"),
    ("ppt", "--werner=abc"), ("probe", "--werner=abc"), ("mc", "--werner=abc"),
    ("scaling", "--werner=abc"),
])
def test_argument_file_value_is_checked_as_on_the_command_line(tmp_path, capsys,
                                                               command, token):
    # the same parser reads both: no value is coerced or replaced by a default
    inline = run(capsys, *_VALUE_BASE[command], token)
    assert inline[0] == 2 and inline[1] == ""
    args = _args_file(tmp_path / "run.args", [token])
    assert run(capsys, *_VALUE_BASE[command], args) == inline


def _env() -> dict:
    """The environment with this checkout's src first on PYTHONPATH."""
    src = Path(__file__).resolve().parents[1] / "src"
    return dict(os.environ,
                PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))


@pytest.mark.parametrize("argv, code", [
    (["ppt", "--werner", "0.7"], 0),
    (["scan", "--beta", "0"], 2),
    (["scan", "@missing.args"], 2),
    (["scaling", "--werner", "0.5", "--beta", "10:100:3"], 3),
    (["scan", "--beta", "1e-318", "--p-grid", "0.9:0.05:1.0"], 4),
], ids=["ppt", "scan-beta-0", "missing-args-file", "scaling-outside-region",
        "scan-subnormal-beta"])
def test_entry_point_exit_code(tmp_path, argv, code):
    # sys.exit(main()), as the sepmech console script runs it
    done = subprocess.run([sys.executable, "-m", "sepmech.cli", *argv], cwd=tmp_path,
                          env=_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == code, done.stderr
    assert (done.stderr == "") == (code == 0)


def _modules_around_cli_import() -> tuple:
    """(the modules of a fresh interpreter, its modules after `import sepmech.cli`)."""
    code = ("import json, sys; before = sorted(sys.modules); import sepmech.cli; "
            "print(json.dumps([before, sorted(sys.modules)]))")
    out = subprocess.run([sys.executable, "-c", code], env=_env(), capture_output=True,
                         text=True, timeout=120, check=True).stdout
    before, after = json.loads(out)
    return set(before), set(after)


def test_cli_import_loads_no_package_outside_the_standard_library_but_numpy():
    # numpy is the one dependency; scipy and every other third-party package
    # stay out (packages a site .pth file imports at start-up come before)
    before, after = _modules_around_cli_import()
    tops = {m.partition(".")[0] for m in after - before}
    assert tops - set(sys.stdlib_module_names) - {"numpy"} == {"sepmech"}


def test_cli_import_does_not_load_the_thread_pool():
    # the sampler imports its thread pool on first use, not at import time
    assert not {"queue", "concurrent.futures"} & _modules_around_cli_import()[1]


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
    assert lines[1] == "beta,avg_energy" and all(len(r) == 2 for r in rows)
    energies = [float(r[1]) for r in rows]
    assert all(a > b for a, b in zip(energies, energies[1:]))


def test_scaling_outside_region_exits_3(capsys):
    code, _, err = run(capsys, "scaling", "--werner", "0.5", "--beta", "10:100:3")
    assert code == 3
    assert "unsatisfiable" in err


def test_scaling_runs_one_saddle_per_beta(capsys, monkeypatch):
    betas = parse_beta("10:100000:6")
    iterations = sum(saddle_search(b, 0.95).iterations for b in betas)
    points = []  # the points of each _moments call
    moments = werner._moments

    def counted(*args):
        points.extend(args[0])
        return moments(*args)

    monkeypatch.setattr(werner, "_moments", counted)
    code, _, err = run(capsys, "scaling", "--werner", "0.95", "--beta", "10:100000:6")
    assert code == 0, err
    assert len(points) == iterations


def test_region_membership_follows_the_library_threshold(capsys, monkeypatch):
    # the CLI keeps no threshold of its own: moving werner's moves all three
    monkeypatch.setattr(werner, "RESIDUAL_THRESHOLD", 1.0)
    code, out, _ = run(capsys, "scan", "--p-grid", "0.50:0.05:0.60")
    assert code == 0 and out.endswith("# region_start=0.5\n")
    code, out, _ = run(capsys, "probe", "--werner", "0.5", "--seed", "1",
                       "--samples", "200", "--beta", "1")
    assert code == 0 and json.loads(out)["saddle"]["region_member"] is True
    code, _, err = run(capsys, "scaling", "--werner", "0.5", "--beta", "10:100:3")
    assert code == 0, err


@pytest.mark.parametrize("exc, code", [(InvalidInput, 2),
                                       (werner.ConstraintsUnsatisfiable, 3),
                                       (werner.QuadratureError, 4)])
def test_error_subclass_keeps_its_exit_code(capsys, monkeypatch, exc, code):
    class Sub(exc):
        pass

    def fail(*args):
        raise Sub("injected")

    monkeypatch.setattr("sepmech.cli.equipartition_scan", fail)
    assert run(capsys, "scan") == (code, "", "error: injected\n")


def test_scan_exits_4_when_the_quadrature_does_not_converge(capsys, monkeypatch):
    moments = werner._moments
    monkeypatch.setattr(werner, "_moments", lambda *a: [(*row[:-1], 1.0) for row in moments(*a)])
    code, out, err = run(capsys, "scan", "--p-grid", "0.85:0.05:0.90")
    assert code == 4 and "did not converge" in err and out == ""


def test_scan_exits_4_when_a_saddle_solve_ends_without_a_certificate(capsys, monkeypatch):
    # at beta 10, p = 0.5 needs 6 passes; allowed one, its solve ends uncertified
    monkeypatch.setattr(werner, "_MAX_EVALS", 1)
    code, out, err = run(capsys, "scan", "--p-grid", "0.50:0.05:0.60")
    assert code == 4 and out == ""
    assert err.startswith("error: saddle solve ended without a certificate after 1 passes")
    assert err.count("\n") == 1


@pytest.mark.parametrize("beta", ["10", "10,20", "10,10,10", "10,20,20,10"])
def test_scaling_needs_three_distinct_betas(capsys, monkeypatch, beta):
    # fewer leave the fitted slope undetermined: exit 2 before any saddle
    # solve (with _moments gone, a solve would end in a TypeError)
    monkeypatch.setattr(werner, "_moments", None)
    code, out, err = run(capsys, "scaling", "--werner", "0.9", "--beta", beta)
    assert code == 2 and out == ""
    assert err == "error: need at least 3 distinct betas\n"


@pytest.mark.parametrize("beta", ["1e-300,1e-299,1e-298", "1e-10,1e-9,1e-8"])
def test_scaling_exits_4_where_the_energy_is_lost_to_cancellation(capsys, beta):
    # 256 beta^2 underflows at 1e-300; at 1e-10 and 1e-9 the terms 1/beta and
    # <x>/(256 beta^2) cancel more than 8 of their 16 digits
    code, out, err = run(capsys, "scaling", "--werner", "0.9", "--beta", beta)
    assert code == 4 and out == "" and "cancellation" in err


def test_scaling_default_grid_keeps_the_energy_expression(capsys):
    code, out, _ = run(capsys, "scaling", "--werner", "0.9")
    assert code == 0
    rows = [ln.split(",") for ln in out.splitlines()[2:-1]]
    want = [1.0 / b - saddle_search(b, 0.9).mean_x / (256.0 * b * b)
            for b in parse_beta("10:10000:12")]
    assert [r[1] for r in rows] == [_fmt(e) for e in want]


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


def test_mc_output_does_not_depend_on_the_cpu_count(tmp_path, capsys, monkeypatch):
    # what `taskset` changes: the sampler's pool size
    outputs = []
    for cpus in (1, 2):
        monkeypatch.setattr(statmech, "_cpu_count", lambda: cpus)
        code, _, err = run(capsys, "mc", "--werner", "0.2", "--seed", "3",
                           "--samples", "3000", "--out", str(tmp_path / "run"))
        assert code == 0, err
        outputs.append([(tmp_path / f"run_{kind}.csv").read_bytes()
                        for kind in ("density", "energy")])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("argv", [
    ["mc", "--werner", "0.2", "--seed", "3", "--samples", "1000", "--beta", "1,10"],
    ["probe", "--werner", "0.5", "--seed", "1", "--samples", "1000", "--beta", "1,10"],
])
def test_one_energy_draw_per_command(capsys, monkeypatch, argv):
    calls = []
    batch = statmech._batch_energies

    def counted(*args, **kwargs):
        calls.append(args)
        return batch(*args, **kwargs)

    monkeypatch.setattr(statmech, "_batch_energies", counted)
    code, _, err = run(capsys, *argv)
    assert code == 0, err
    assert len(calls) == 1


def test_mc_rows_reduce_one_sample_set(tmp_path, capsys):
    base = tmp_path / "one"
    betas = parse_beta("1:100:5")
    code, _, _ = run(capsys, "mc", "--werner", "0.2", "--seed", "3",
                     "--samples", "2000", "--beta", "1:100:5", "--out", str(base))
    assert code == 0
    e = sample_energies(cost_operator(eigen_ensemble(werner_state(0.2))), 16, 2000, 3)
    hist = estimate_state_density(e, MC_HISTOGRAM_BINS)
    dens = [",".join(map(_fmt, row)) for row in
            zip(hist.bin_edges[:-1], hist.bin_edges[1:], hist.counts)]
    ener = [",".join(map(_fmt, (est.beta, est.mean_energy, est.std_error,
                                est.effective_sample_size, est.min_energy_seen)))
            for est in mc_energy_curve(e, betas)]
    assert (tmp_path / "one_density.csv").read_text().splitlines()[2:] == dens
    assert (tmp_path / "one_energy.csv").read_text().splitlines()[2:] == ener


def _seeded_3x3_state(path):
    rng = np.random.default_rng(29)
    g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    mat = g @ g.conj().T
    path.write_text(DensityMatrix(3, 3, mat / np.trace(mat).real).to_json())
    return ["--state", str(path)]


@pytest.mark.parametrize("state", ["werner", "3x3"])
def test_probe_and_mc_sample_the_same_energies_from_one_seed(tmp_path, capsys, state):
    source = (["--werner", "0.2"] if state == "werner"
              else _seeded_3x3_state(tmp_path / "rho.json"))
    common = [*source, "--seed", "4", "--samples", "300", "--beta", "1,10,100"]
    code, out, err = run(capsys, "probe", *common)
    assert code == 0, err
    rep = json.loads(out)["mc"]
    code, _, err = run(capsys, "mc", *common, "--out", str(tmp_path / "mc"))
    assert code == 0, err
    rows = [[float(x) for x in ln.split(",")] for ln in
            (tmp_path / "mc_energy.csv").read_text().splitlines()[2:]]
    assert len(rows) == len(rep["mean_energy"]) == 3
    for (beta, value, std_error, ess, min_energy), pt in zip(rows, rep["mean_energy"]):
        assert (beta, value, std_error, ess) == (pt["beta"], pt["value"],
                                                 pt["std_error"], pt["ess"])
        assert min_energy == rep["min_energy"]


def test_mc_of_a_product_state_reads_zero_energy(tmp_path, capsys):
    # every sampled energy of |00><00| is exactly 0: all of the histogram
    # falls in its first bin, which runs from 0 to 1e-300 / 48
    path = tmp_path / "rho.json"
    path.write_text(DensityMatrix(2, 2, np.diag([1.0, 0.0, 0.0, 0.0])).to_json())
    code, _, err = run(capsys, "mc", "--state", str(path), "--seed", "3",
                       "--samples", "1000", "--out", str(tmp_path / "run"))
    assert code == 0, err
    dens = [[float(x) for x in ln.split(",")] for ln in
            (tmp_path / "run_density.csv").read_text().splitlines()[2:]]
    edges = [row[0] for row in dens] + [dens[-1][1]]
    assert edges == np.linspace(0.0, 1e-300, MC_HISTOGRAM_BINS + 1).tolist()
    assert [row[2] for row in dens] == [1.0] + [0.0] * (MC_HISTOGRAM_BINS - 1)
    ener = [[float(x) for x in ln.split(",")] for ln in
            (tmp_path / "run_energy.csv").read_text().splitlines()[2:]]
    assert len(ener) == 9
    assert all(row[1] == 0.0 and row[4] == 0.0 for row in ener)


@pytest.mark.parametrize("command", ["mc", "probe"])
@pytest.mark.parametrize("dims", [(1, 3), (2, 1), (3, 1)])
def test_one_dimensional_factor_exits_2(tmp_path, capsys, command, dims):
    # such a state is a product with no h matrices; ppt still answers for it.
    # The error names the factor of dimension 1, in the library and on exit 2
    d = dims[0] * dims[1]
    rho = DensityMatrix(*dims, np.eye(d) / d)
    want = f"{'dimA' if dims[0] == 1 else 'dimB'} must be >= 2, got 1: a one-dimensional factor"
    with pytest.raises(InvalidInput, match=want):
        cost_operator(eigen_ensemble(rho))
    path = tmp_path / "rho.json"
    path.write_text(rho.to_json())
    code, out, err = run(capsys, command, "--state", str(path), "--seed", "1",
                         "--samples", "200")
    assert code == 2 and out == ""
    assert err.startswith(f"error: {want}")
    code, out, _ = run(capsys, "ppt", "--state", str(path))
    assert code == 0 and json.loads(out)["ppt_entangled"] is False


def test_mc_sample_floor(capsys):
    code, _, err = run(capsys, "mc", "--werner", "0.5", "--seed", "1",
                       "--samples", "10")
    assert code == 2
    assert "samples" in err


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
    ("scan", "--beta", "0", 2), ("scan", "--beta", "-1", 2),
    ("scaling", "--werner", "0", 2), ("scaling", "--werner", "-1", 2),
    ("scaling", "--seed", "0", 0), ("scaling", "--seed", "-1", 2),
    ("scaling", "--beta", "0", 2), ("scaling", "--beta", "-1", 2),
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


@pytest.mark.parametrize("argv", [
    ["scan", "--beta", "1e-318", "--p-grid", "0.9:0.05:1.0"],
    ["scan", "--beta", "1e-316", "--p-grid", "0.85:0.05:1"],
    ["scaling", "--werner", "0.9", "--beta", "5e-324,1e-8,1e-7"],
    ["scaling", "--werner", "0.9", "--beta", "1e-320:1e-300:3"],
])
def test_subnormal_beta_exits_4(capsys, argv):
    # 256 beta below the smallest normal float leaves the quadrature no
    # panel scale: it is refused before the weight's exponent overflows
    with np.errstate(over="raise"):
        code, out, err = run(capsys, *argv)
    assert code == 4 and out == "" and "normal positive floats" in err


BELOW_BETA_STAR = ("warning: beta below 0.1020004: region members may be entangled, "
                   "so region_start is no separability certificate\n")


def test_tiny_normal_beta_keeps_the_scan_onset(capsys):
    # below ~1e-308 (256 beta still normal) x / 4bt in the quadrature weight
    # would overflow; the suite turns such a RuntimeWarning into an error
    for beta in ("1e-300", "1e-308", "1e-310"):
        code, out, err = run(capsys, "scan", "--beta", beta, "--p-grid", "0.85:0.05:1")
        assert code == 0 and err == BELOW_BETA_STAR
        assert out.endswith(f"# region_start={_fmt(0.85)}\n")


def test_scan_warns_below_beta_star_on_stderr_only(capsys, tmp_path):
    # the warning line is all that changes: stdout, and the --out file and
    # its summary line, are the scan's as above beta*
    for beta, err_want in (("0.102", BELOW_BETA_STAR), ("0.1020004", "")):
        argv = ["scan", "--beta", beta, "--p-grid", "0.6:0.05:0.7"]
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == err_want and "warning" not in out
        path = tmp_path / "scan.csv"
        code, printed, err = run(capsys, *argv, "--out", str(path))
        assert code == 0 and err == err_want
        assert path.read_text().splitlines()[1:] == out.splitlines()[1:]
        assert printed == out.splitlines()[-1][2:] + "\n"


def test_p_grid_with_too_many_steps_exits_2(capsys):
    # (b - a) / step overflows to inf
    code, out, err = run(capsys, "scan", "--p-grid", "0.5:1e-320:1")
    assert code == 2 and out == "" and "overflows" in err


@given(a=st.floats(allow_nan=False, allow_infinity=False),
       step=st.floats(min_value=5e-324, allow_infinity=False),
       steps=st.integers(0, 200), frac=st.floats(0.0, 1.0))
@settings(max_examples=300, deadline=None)
def test_p_grid_is_never_empty_and_starts_at_a(a, step, steps, frac):
    # b - a is kept within 201 steps so the grid stays small
    b = a + (steps + frac) * step
    assume(np.isfinite(b))
    grid = parse_p_grid(f"{a!r}:{step!r}:{b!r}")
    assert grid and grid[0] == round(a, 12)


@pytest.mark.parametrize("argv, message", [
    (["scan", "--beta", "1e-320", "--p-grid", "0.5:0.1:1.5"], "p must lie in (0, 1]"),
    (["scaling", "--werner", "0.5", "--beta", "10,100,0"], "beta must be positive and finite"),
])
def test_a_bad_later_input_exits_2_before_any_solve(capsys, monkeypatch, argv, message):
    # p = 1.1 in the grid, beta = 0 in the list: the library checks every
    # input first, so an earlier point cannot end the run with exit 3 or 4
    # (with _moments gone, a solve would end in a TypeError)
    monkeypatch.setattr(werner, "_moments", None)
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("command, floor", [("probe", 1), ("mc", 100)])
def test_probe_and_mc_check_state_seed_samples_then_beta(capsys, command, floor):
    # each run mends the first bad input of the one before, so the message
    # moves through the shared order of checks
    state, seed, samples = ["--werner", "0.5"], ["--seed", "1"], ["--samples", str(floor)]
    runs = [([], "specify exactly one of --werner and --state"),
            (state, "seed must be >= 0, got -1"),
            (state + seed, f"samples must be >= {floor}, got 0"),
            (state + seed + samples, "beta must be finite and >= 0")]
    bad = ["--seed", "-1", "--samples", "0", "--beta", "-1"]
    for good, message in runs:
        assert run(capsys, command, *bad, *good) == (2, "", f"error: {message}\n")
