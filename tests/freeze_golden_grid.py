"""Golden variant grid: output digests of small runs, frozen in golden_grid.json.

    PYTHONPATH=src python3 tests/freeze_golden_grid.py

re-freezes tests/golden_grid.json from the current code, which
tests/test_golden.py then compares every run against. A re-freeze is an
output change: run it only when a change alters outputs on purpose, and give
the reason where the change is described (CHANGES.md).

The grid runs every algorithm at d = 1 and d = 3 (dpcrowd is one-dimensional
only) under each variant in VARIANTS, at T <= 60. A run's record holds the
SHA-256 of each output array, the communication counters (the max latency
as float.hex) and the SHA-256 of the ledger spends. It also freezes the
report bytes (summary CSV, trace CSV, JSON) of every bundled config.
"""

from __future__ import annotations

import os
import sys

if __name__ == "__main__":
    # one BLAS thread before numpy loads, the way the digests are frozen
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402

from dpcrowd.cli import expand_runs  # noqa: E402
from dpcrowd.config import ALGORITHMS, ConfigError, config_from_mapping, load_config  # noqa: E402
from dpcrowd.privacy import BudgetError  # noqa: E402
from dpcrowd.report import write_report  # noqa: E402
from dpcrowd.runners import run_experiment  # noqa: E402

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(TESTS_DIR)
GOLDEN_PATH = os.path.join(TESTS_DIR, "golden_grid.json")

# Values around the grouping threshold eta1 = 2 sqrt(2) / (epsilon / w), so
# dpcrowd_plus both merges dimensions and sends large ones solo.
BASE = {
    "seed": "11", "timestamps": "60", "users": "2000", "epsilon": "1.0", "w": "10",
    "net.m": "6", "net.rho": "0.4", "net.seed": "7",
    "model.q": "50", "data.initial": "200",
}

# name -> dotted keys over BASE; None removes a key (back to its default)
VARIANTS = {
    "default": {},  # grouping.tau = 3
    "tau12": {"grouping.tau": "12"},
    "dynamic": {"net.dynamic": "true"},
    "dynamic_unseeded": {"net.dynamic": "true", "net.seed": None},
    "m1": {"net.m": "1"},
    "grouping_off": {"grouping.enabled": "false"},
    "fixed1": {"sampling.mode": "fixed", "sampling.interval": "1"},
    "fixed3": {"sampling.mode": "fixed", "sampling.interval": "3"},
    "eps0.1_w5": {"epsilon": "0.1", "w": "5"},
    "w1": {"w": "1"},
    "T45_w20": {"timestamps": "45", "w": "20"},
    "stale_self": {"kcif.fuse_stale_self": "true"},
    "repartition": {"model.freeze_partition": "false"},
    "m12_rho0.9": {"net.m": "12", "net.rho": "0.9"},
    # a low start, so that clamping zeroes some releases and keeps others
    "clamp": {"kcif.clamp_releases": "true", "data.initial": "50"},
}

CONFIGS = sorted(glob.glob(os.path.join(ROOT, "configs", "*.cfg")))


def grid() -> dict[str, dict[str, str]]:
    """Run name -> flat config mapping, for every algorithm, d and variant."""
    runs = {}
    for algorithm in ALGORITHMS:
        for d in (1,) if algorithm == "dpcrowd" else (1, 3):
            for variant, changes in VARIANTS.items():
                flat = {**BASE, "algorithm": algorithm, "model.d": str(d), **changes}
                runs[f"{algorithm}/d{d}/{variant}"] = {
                    k: v for k, v in flat.items() if v is not None
                }
    return runs


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_record(flat: dict[str, str]) -> dict[str, object]:
    """Field -> digest or value for one run; a refused run records its error."""
    try:
        result = run_experiment(config_from_mapping(flat))
    except (ConfigError, BudgetError) as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    stats = result.stats
    record: dict[str, object] = {
        name: _sha256(np.ascontiguousarray(getattr(result, name)).tobytes())
        for name in ("truth", "releases", "observations", "posterior_var", "sampled", "broadcast")
    }
    record.update(
        packets=stats.packets,
        payload_bytes=stats.payload_bytes,
        max_latency_ms=float(stats.max_latency_ms).hex(),
        broadcasts=_sha256(np.asarray(stats.broadcasts, dtype=np.int64).tobytes()),
        packets_by_t=_sha256(json.dumps(stats.packets_by_t).encode()),
    )
    if result.ledgers is not None:
        spends = [
            [[ts, float(e).hex()] for ts, e in dim]
            for ledger in result.ledgers for dim in ledger.spends
        ]
        record["ledger_spends"] = _sha256(json.dumps(spends).encode())
    return record


def report_record(path: str) -> dict[str, str]:
    """Report file -> SHA-256 for one bundled config, run from the repo root."""
    cwd = os.getcwd()
    os.chdir(ROOT)  # data.path in the configs and the JSON echo are relative
    try:
        results = [run_experiment(cfg) for cfg in expand_runs(load_config(path, False))]
        with tempfile.TemporaryDirectory() as tmp:
            files = {name: os.path.join(tmp, name) for name in ("summary.csv", "trace.csv",
                                                                "report.json")}
            write_report(results, "csv", files["summary.csv"], trace_path=files["trace.csv"])
            write_report(results, "json", files["report.json"])
            digests = {}
            for name, file in files.items():
                with open(file, "rb") as fh:
                    digests[name] = _sha256(fh.read())
    finally:
        os.chdir(cwd)
    return digests


def compute() -> dict[str, dict]:
    return {
        "runs": {name: run_record(flat) for name, flat in grid().items()},
        "reports": {os.path.basename(p): report_record(p) for p in CONFIGS},
    }


def main() -> int:
    frozen = compute()
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(frozen, fh, indent=1, sort_keys=True)
        fh.write("\n")
    refused = sum("error" in r for r in frozen["runs"].values())
    print(f"froze {len(frozen['runs'])} runs ({refused} refused) and "
          f"{len(frozen['reports'])} configs into {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
