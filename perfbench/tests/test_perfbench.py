"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/tests

Each test runs the worker in-process inside a temporary directory.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import worker  # noqa: E402
from workloads import NAMES  # noqa: E402


@pytest.fixture(autouse=True)
def _in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("name", NAMES)
def test_tiny_workload_passes_its_checks(name):
    res = worker.run(name, seed=3, seconds=0, trace=False, tiny=True)
    assert res["failed"] == 0, res["errors"]
    assert len(res["passes"]) == 1 and res["attempted"] == len(res["passes"][0]["commands"])


@pytest.mark.parametrize("name", ["werner-mc", "qutrit-mc"])
def test_doubled_energies_are_caught(name, monkeypatch):
    import sepmech.statmech as sm
    batch = sm._batch_energies
    monkeypatch.setattr(sm, "_batch_energies", lambda *a, **k: 2.0 * batch(*a, **k))
    res = worker.run(name, seed=3, seconds=0, trace=False, tiny=True)
    assert res["failed"] == res["attempted"] == 1
    assert "Haar oracle" in res["errors"][0]


def test_wrong_region_onset_is_caught(monkeypatch):
    monkeypatch.setattr("sepmech.cli.RESIDUAL_THRESHOLD", 1.0)
    res = worker.run("werner-scan", seed=3, seconds=0, trace=False, tiny=True)
    assert res["failed"] == 2  # scan onset moves, probe calls W(0.5) a member


def test_traced_outputs_match_untraced(monkeypatch):
    """Traced passes must reproduce the untraced bytes, and the tracer must
    find the kernels through every module that bound them."""
    res = worker.run("werner-scan", seed=4, seconds=0, trace=True, tiny=True)
    assert res["failed"] == 0, res["errors"]
    assert [p["traced"] for p in res["passes"]] == [False, True]
    layer = res["per_layer"]
    assert layer["werner.saddle_search.calls"] == 3  # two scan points and the probe, via sepmech.cli
    assert layer["werner._moments.calls"] > 0 and layer["statmech._stiefel_batch.rows"] == 1000
    assert layer["cli.bytes_out"] > 0

    import sepmech.cli
    import sepmech.werner
    assert sepmech.cli.saddle_search is sepmech.werner.saddle_search
    assert not hasattr(sepmech.werner._moments, "__wrapped__")


def test_per_layer_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    res = worker.run("werner-mc", seed=5, seconds=0, trace=True, tiny=True)
    assert set(res["per_layer"]) == {m["name"] for m in spec["per_layer"]}
    assert res["per_layer"]["statmech.draws_per_requested"] == 2.0


def test_run_refuses_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in BENCH.glob("*.py"):
        (bench / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "werner-mc",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


@pytest.mark.xfail(strict=True, raises=worker.InvocationTimeout,
                   reason="program defect: the saddle polish can underflow gamma to 0, "
                          "and _panel_edges then never returns (see workloads.HANGING_SCAN_SEED)")
def test_known_hanging_scan_seed_still_hangs():
    """werner-scan avoids scan seeds because of this defect; when the program
    is fixed this test passes, fails as strict, and the scan seed can come
    from the workload seed again."""
    import numpy as np
    from sepmech.werner import saddle_search
    from workloads import HANGING_SCAN_SEED
    seed = np.random.SeedSequence(HANGING_SCAN_SEED).spawn(51)[13]
    with worker.time_limit(10.0):
        saddle_search(10.0, 0.63, seed=seed)
