"""Freeze the report digests of the default seed's runs into golden.json.

    python3 perfbench/freeze_golden.py

Run it only when a change alters the reports on purpose, and say why where
the change is described: the benchmark counts any run whose digests differ
from these as failed.
"""

from __future__ import annotations

import json
import os
import sys

import run  # first: pins the BLAS threads before bench loads numpy
import bench


def main() -> int:
    os.chdir(bench.ROOT)
    dp = bench.import_dpcrowd()
    digests = {}
    for workload in bench.WORKLOADS.values():
        cfgs = bench.build_inputs(dp, workload, bench.run_seeds(bench.DEFAULT_SEED), run.OUT_DIR)
        result = bench.run_pass(dp, cfgs, run.OUT_DIR, workload)
        if result.errors:
            for seed, error in result.errors.items():
                print(f"{workload.name} seed {seed} failed:\n{error}", file=sys.stderr)
            return 1
        digests[workload.name] = {str(s): d for s, d in result.digests.items()}
        print(f"{workload.name}: froze seeds {sorted(result.digests)}")
    with open(bench.GOLDEN_PATH, "w") as fh:
        json.dump({"seed": bench.DEFAULT_SEED, "digests": digests}, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
