"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import bench
import run
from tracer import TARGETS, resolve_targets

TINY = (("timestamps", "40"), ("net.m", "4"))

BENCHMARK = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def tiny(workload):
    return dataclasses.replace(workload, overrides=workload.overrides + TINY)


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_every_metric_reported_and_traced_digests_match(name, tmp_path):
    workload = tiny(bench.WORKLOADS[name])
    plain = bench.measure(workload, 1, 0, False, str(tmp_path), golden=None)
    traced = bench.measure(workload, 1, 0, True, str(tmp_path), golden=None)
    for record in (plain, traced):
        assert record["result"]["correct"], record["failures"]
        assert record["result"]["failed"] == 0
    # the traced passes are checked against the untraced ones run by seed
    assert traced["result"]["attempted"] == 1 + 2 * bench.RUNS_PER_PASS
    assert plain["digests"] == traced["digests"]
    assert plain["counts"] == traced["counts"]
    for record, kind in ((plain, "end_to_end"), (traced, "per_layer")):
        declared = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
        reported = {k: m["unit"] for k, m in record["result"]["metrics"].items()}
        assert reported == declared
    assert traced["result"]["metrics"]["sampling.samples"]["value"] > 0


def test_frozen_digest_mismatch_fails_the_run(tmp_path, monkeypatch, capsys):
    workload = tiny(bench.WORKLOADS["linear_m200"])
    wrong = {"summary": "0" * 64, "trace": "0" * 64, "json": "0" * 64}
    golden = {workload.name: {str(bench.run_seeds(bench.DEFAULT_SEED)[0]): wrong}}
    monkeypatch.setitem(bench.WORKLOADS, workload.name, workload)
    monkeypatch.setattr(bench, "load_golden", lambda: golden)
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
    monkeypatch.chdir(tmp_path)  # restores the directory run.main changes
    code = run.main(["--workload", workload.name, "--seed", "1", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] == 1
    assert code == 1


def test_gated_workloads_exist_and_have_frozen_digests():
    golden = bench.load_golden()
    for entry in BENCHMARK["workloads"]:
        assert entry["name"] in bench.WORKLOADS
        assert golden[entry["name"]]


def test_missing_traced_name_is_reported():
    with pytest.raises(LookupError) as err:
        resolve_targets(types.SimpleNamespace())
    assert f"dpcrowd.{TARGETS[0][0]}.{TARGETS[0][1]}" in str(err.value)


def test_run_without_sources_fails_without_result(tmp_path):
    shutil.copytree(Path(bench.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", BENCHMARK["workloads"][0]["name"],
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
