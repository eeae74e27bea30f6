"""Golden outputs: eleven commands, run through cli.main in-process, must
reproduce byte for byte the stdout, stderr, exit code and --out files kept
in tests/golden/<name>/.  A mismatch writes <file>.actual next to each
golden file that differs.  A change that alters an output on purpose
rewrites the golden files with `PYTHONPATH=src python tests/test_golden.py`
and says why in CHANGES.md; tests/golden/README.md records the platform
they were made on."""
import io
import os
import shutil
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from sepmech.cli import main

GOLDEN = Path(__file__).parent / "golden"
STATES = ("qutrit.json", "product00.json")  # copied into the run's directory

COMMANDS = {
    "scan": ["scan", "--out", "scan.csv"],
    "scan_grid": ["scan", "--p-grid", "0.80:0.01:0.95", "--beta", "10", "--out", "scan.csv"],
    "scaling": ["scaling", "--werner", "0.9", "--out", "scaling.csv"],
    "ppt": ["ppt", "--werner", "0.7", "--out", "ppt.json"],
    "probe": ["probe", "--werner", "0.5", "--seed", "1", "--out", "probe.json"],
    "mc_werner": ["mc", "--werner", "0.2", "--seed", "3", "--out", "mc"],
    "mc_qutrit": ["mc", "--state", "qutrit.json", "--samples", "3000", "--seed", "5",
                  "--out", "mc"],
    "mc_product": ["mc", "--state", "product00.json", "--seed", "3", "--out", "mc"],
    # no --out: the output goes to stdout
    "scan_stdout": ["scan", "--p-grid", "0.80:0.01:0.95", "--beta", "10"],
    "scaling_stdout": ["scaling", "--werner", "0.9"],
    "mc_stdout": ["mc", "--werner", "0.2", "--seed", "3", "--samples", "2000"],
}


def outputs(argv, workdir: Path) -> dict:
    """{file name: bytes} of one run of main in workdir: its stdout, stderr
    and exit code, and every file it writes there."""
    for state in STATES:
        shutil.copy(GOLDEN / state, workdir)
    out, err = io.StringIO(), io.StringIO()
    home = os.getcwd()
    os.chdir(workdir)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(home)
    written = {p.name: p.read_bytes() for p in workdir.iterdir() if p.name not in STATES}
    return {"stdout": out.getvalue().encode(), "stderr": err.getvalue().encode(),
            "exit": f"{code}\n".encode(), **written}


@pytest.mark.parametrize("name", COMMANDS)
def test_command_reproduces_its_golden_output(name, tmp_path):
    folder = GOLDEN / name
    for stale in folder.glob("*.actual"):
        stale.unlink()
    want = {p.name: p.read_bytes() for p in folder.iterdir()}
    got = outputs(COMMANDS[name], tmp_path)
    differ = sorted(f for f in want.keys() | got.keys() if want.get(f) != got.get(f))
    for f in differ:
        if f in got:
            (folder / f"{f}.actual").write_bytes(got[f])
    assert differ == [], f"tests/golden/{name}: {differ} differ (see the .actual files)"


if __name__ == "__main__":
    for name, argv in COMMANDS.items():
        folder = GOLDEN / name
        shutil.rmtree(folder, ignore_errors=True)
        folder.mkdir()
        with tempfile.TemporaryDirectory() as workdir:
            for f, data in outputs(argv, Path(workdir)).items():
                (folder / f).write_bytes(data)
        print(f"wrote {folder}", file=sys.stderr)
