"""Run one dpcrowd benchmark workload and print its result as JSON.

    python3 perfbench/run.py --workload linear_m200 --seed 0 --seconds 20 --trace 0

With --trace 0 the last line of standard output holds the end-to-end
metrics; with --trace 1 the per-layer metrics of a separate traced pass.
Everything the run writes goes under perfbench/out/, including a full record
(manifest, digests, counts, span table) in perfbench/out/results/.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread, set before numpy loads: the engine is measured on one
# thread, and the frozen digests were taken that way.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402

import bench  # noqa: E402

OUT_DIR = "perfbench/out"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    parser.add_argument("--seed", type=int, default=bench.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(bench.ROOT)  # report JSON echoes the relative input paths
    for needed in ("src/dpcrowd/__init__.py", *{w.config for w in bench.WORKLOADS.values()}):
        if not os.path.isfile(needed):
            print(f"error: {needed} not found under {bench.ROOT}", file=sys.stderr)
            return 2
    workload = bench.WORKLOADS[args.workload]
    try:
        record = bench.measure(workload, args.seed, args.seconds, bool(args.trace),
                               OUT_DIR, bench.load_golden())
    except (ImportError, LookupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    os.makedirs(f"{OUT_DIR}/results", exist_ok=True)
    path = f"{OUT_DIR}/results/{workload.name}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    for failure in record["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)

    result = record["result"]
    print(f"{workload.name} seed={args.seed} trace={args.trace} "
          f"runs={record['manifest']['timed_runs']} "
          f"passes={record['manifest']['timed_passes']} "
          f"failed={result['failed']}/{result['attempted']}")
    rows = [(k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
    rows += [(k, v, bench.RECORDED_UNITS[k]) for k, v in record["recorded"].items()]
    for name, value, unit in rows:
        print(f"  {name:<24} {value:>16.6g} {unit}")
    print(f"record: {path}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
