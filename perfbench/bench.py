"""dpcrowd benchmark: workloads, timed passes, golden digests and metrics.

A pass runs ``run_experiment`` once for each of RUNS_PER_PASS configs seeded
from the benchmark seed, then writes each run's summary CSV, trace CSV and
JSON report. Every run is checked: it must not raise (``run_experiment``
ends in ``verify()``, which includes the ledger audit), its report digests
must match the frozen ones where a digest is frozen for its config seed, and
its digests and counts must equal those of every other run of that seed in
the same invocation, traced or not.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from tracer import CALL_METRICS, Tracer, layer_metrics, resolve_targets

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_PATH = Path(__file__).with_name("golden.json")

RUNS_PER_PASS = 3
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    config: str  # bundled config, relative to the repository root
    overrides: tuple[tuple[str, str], ...] = ()
    # replay a stream generated at setup, dimensions 4-5 scaled to 1%
    sparse_csv: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("linear_m200", "configs/linear_dpcrowd.cfg", (("net.m", "200"),)),
        Workload("plus_sparse", "configs/multilinear_plus.cfg", sparse_csv=True),
        Workload("dfast_flood", "configs/linear_dpcrowd.cfg", (("algorithm", "dfast"),)),
    )
}

REPORT_FILES = ("summary", "trace", "json")

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s_p50": "s",
    "server_steps_per_s": "steps/s",
    "peak_rss_mb": "MB",
}
# Printed and recorded, but not in the result line: report_s (about 20 ms)
# spread by 5-33% between runs on a 2-vCPU Xeon VM, and failed_runs is 0
# when all is well.
RECORDED_UNITS = {"report_s": "s", "failed_runs": "ratio"}


def run_seeds(seed: int) -> list[int]:
    """Config seeds of one pass for a benchmark seed."""
    return [seed * RUNS_PER_PASS + i for i in range(RUNS_PER_PASS)]


def import_dpcrowd():
    """Import dpcrowd afresh from ROOT/src (drops any copy already imported)."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "dpcrowd" or n.startswith("dpcrowd.")]:
        del sys.modules[name]
    dp = importlib.import_module("dpcrowd")
    if not Path(dp.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"dpcrowd imported from {dp.__file__}, not from {src}")
    return dp


def write_sparse_stream(dp, cfg, path: str) -> None:
    """The acceptance gate's criterion-10 stream: the config's process model,
    seeded by the config seed, with dimensions 4-5 scaled to 1%."""
    model = cfg.model
    prefix = dp.datasets.gen_multilinear(
        np.random.default_rng(cfg.seed), timestamps=cfg.timestamps, d=model.d,
        initial=cfg.data.initial, diag=model.a, offdiag=model.a_offdiag,
        noise_var=model.q,
    )
    values = prefix.values.copy()
    values[:, 4:6] *= 0.01
    dp.datasets.save_csv(dp.model.StreamPrefix(values=values), path)


def build_inputs(dp, workload: Workload, seeds, out_dir: str) -> list:
    """One validated config per seed, plus its generated CSV where needed."""
    base = dp.config.load_config(ROOT / workload.config, apply_env_seed=False)
    for key, value in workload.overrides:
        base = dp.config.apply_override(base, key, value)
    os.makedirs(f"{out_dir}/inputs", exist_ok=True)
    cfgs = []
    for seed in seeds:
        cfg = dp.config.apply_override(base, "seed", str(seed))
        if workload.sparse_csv:
            path = f"{out_dir}/inputs/{workload.name}-{seed}.csv"
            write_sparse_stream(dp, cfg, path)
            cfg = dp.config.apply_override(cfg, "data.path", path)
            cfg = dp.config.apply_override(cfg, "data.source", "csv")
        cfgs.append(cfg)
    return cfgs


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def result_counts(result) -> dict[str, int]:
    return {
        "samples": int(result.sampled.sum()),
        "packets": int(result.stats.packets),
        "bytes": int(result.stats.payload_bytes),
        "broadcasts": int(np.asarray(result.stats.broadcasts).sum()),
    }


@dataclass
class Pass:
    run_s: list[float]
    report_s: list[float]  # per run: its summary CSV, trace CSV and JSON
    wall_s: float  # runs plus reports
    steps: int  # sum of m * T over the runs
    digests: dict[int, dict[str, str]]  # config seed -> report file -> sha256
    counts: dict[int, dict[str, int]]
    errors: dict[int, str] = field(default_factory=dict)
    # traced passes only: per-layer self times, exact per-layer counts, spans
    layer_s: dict[str, float] = field(default_factory=dict)
    layer_counts: dict[str, int] = field(default_factory=dict)
    spans: dict = field(default_factory=dict)


def run_pass(dp, cfgs, out_dir: str, workload: Workload) -> Pass:
    report_dir = f"{out_dir}/reports/{workload.name}"
    os.makedirs(report_dir, exist_ok=True)
    results, errors, run_s = {}, {}, []
    start = perf_counter()
    for cfg in cfgs:
        t0 = perf_counter()
        try:
            results[cfg.seed] = dp.runners.run_experiment(cfg)
        except Exception:  # a failing run is counted, not fatal
            errors[cfg.seed] = traceback.format_exc()
        run_s.append(perf_counter() - t0)
    written, report_s = {}, []
    for seed, result in results.items():
        paths = {name: f"{report_dir}/{seed}.{name}" for name in REPORT_FILES}
        t0 = perf_counter()
        try:
            dp.report.write_report([result], "csv", paths["summary"], trace_path=paths["trace"])
            dp.report.write_report([result], "json", paths["json"])
            written[seed] = paths
        except Exception:
            errors[seed] = traceback.format_exc()
        report_s.append(perf_counter() - t0)
    end = perf_counter()
    return Pass(
        run_s=run_s,
        report_s=report_s,
        wall_s=end - start,
        steps=sum(c.net.m * c.timestamps for c in cfgs),
        digests={s: {k: _sha256(p) for k, p in paths.items()} for s, paths in written.items()},
        counts={s: result_counts(r) for s, r in results.items() if s in written},
        errors=errors,
    )


def traced_pass(dp, tracer: Tracer, workload: Workload, seeds, out_dir: str) -> Pass:
    """Set up and run one pass with every target wrapped."""
    tracer.reset()
    with tracer.installed(dp):
        cfgs = build_inputs(dp, workload, seeds, out_dir)
        result = run_pass(dp, cfgs, out_dir, workload)
    result.spans = tracer.span_table()
    result.layer_s, calls = layer_metrics(result.spans)
    result.layer_counts = {**calls, **tracer.counts}
    return result


class Checker:
    """Marks runs failed: errors, frozen-digest mismatches, and digests or
    counts that differ from an earlier run of the same config seed."""

    def __init__(self, frozen: dict | None) -> None:
        self.frozen = frozen
        self.seen: dict[int, tuple] = {}  # config seed -> (digests, counts)
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, p: Pass, require_frozen: bool = False) -> None:
        for seed in [*p.digests, *p.errors]:
            self.attempted += 1
            if seed in p.errors:
                self.failures.append(f"seed {seed} raised:\n{p.errors[seed]}")
                continue
            observed = (p.digests[seed], p.counts[seed])
            frozen = None if self.frozen is None else self.frozen.get(str(seed))
            if frozen is not None and frozen != p.digests[seed]:
                self.failures.append(f"seed {seed}: report digests differ from the frozen ones")
            elif frozen is None and require_frozen:
                self.failures.append(f"seed {seed}: no frozen digest to check against")
            elif self.seen.setdefault(seed, observed) != observed:
                self.failures.append(f"seed {seed}: digests or counts changed between runs")


def _median(values) -> float:
    return float(statistics.median(values))


def end_to_end(setup_s, passes: list[Pass]) -> dict[str, float]:
    return {
        "setup_s": _median(setup_s),
        "run_s_p50": _median([t for p in passes for t in p.run_s]),
        "server_steps_per_s": sum(p.steps for p in passes) / sum(p.wall_s for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(untraced: list[Pass], traced: list[Pass]) -> tuple[dict, dict]:
    """Per-layer metrics over one pass, and their units. Times are medians
    over the traced passes; counts repeat exactly from pass to pass."""
    values: dict[str, float] = {
        name: _median([p.layer_s[name] for p in traced]) for name in traced[0].layer_s
    }
    counts = traced[0].layer_counts
    results = {key: sum(c[key] for c in traced[0].counts.values())
               for key in ("samples", "packets", "bytes")}
    draws = counts.get("noise_draws", 0)
    values.update({name: counts[name] for name in CALL_METRICS})
    values.update({
        "sampling.samples": results["samples"],
        "privacy.grant_ratio": results["samples"] / max(counts.get("due", 0), 1),
        "privacy.refusals": counts.get("refusals", 0),
        "privacy.noise_draws": draws,
        "grouping.groups": counts.get("groups", 0),
        "grouping.dims_per_draw": counts.get("dims_released", 0) / draws if draws else 0.0,
        "netsim.packets": results["packets"],
        "netsim.bytes": results["bytes"],
        "report.bytes": counts.get("report_bytes", 0),
        "trace.overhead_s": _median([p.wall_s for p in traced])
        - _median([p.wall_s for p in untraced]),
    })
    units = {}
    for name in values:
        if name.endswith("_s"):
            units[name] = "s"
        elif name.endswith(("_ratio", "_per_draw")):
            units[name] = "ratio"
        elif name.endswith("bytes"):
            units[name] = "bytes"
        else:
            units[name] = "count"
    return values, units


def manifest(dp, workload: Workload, seed: int, seconds: float, trace: bool,
             passes: int, runs: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "dpcrowd": dp.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "thread_settings": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
        "workload": workload.name,
        "seed": seed,
        "config_seeds": run_seeds(seed),
        "golden_config_seed": run_seeds(DEFAULT_SEED)[0],
        "seconds": seconds,
        "trace": trace,
        "timed_passes": passes,
        "timed_runs": runs,
    }


def measure(workload: Workload, seed: int, seconds: float, trace: bool, out_dir: str,
            golden: dict | None) -> dict:
    """Set up, warm up on the golden config, then run timed passes.

    golden maps workload name -> config seed -> frozen digests; None skips
    the frozen check (for workloads resized in tests). Returns the full
    record; its "result" entry is the benchmark's one-line JSON result.
    """
    setup_s = []

    def setup():
        # repeated before every pass, so that the median spans the whole run;
        # the earlier passes' garbage is collected outside the timer
        gc.collect()
        t0 = perf_counter()
        dp = import_dpcrowd()
        cfgs = build_inputs(
            dp, workload, run_seeds(DEFAULT_SEED)[:1] + run_seeds(seed), out_dir
        )
        setup_s.append(perf_counter() - t0)
        return dp, cfgs[0], cfgs[1:]

    dp, golden_cfg, _ = setup()
    resolve_targets(dp)  # a renamed layer fails the untraced run too

    checker = Checker(None if golden is None else golden.get(workload.name, {}))
    # the first run in a process is slower; this untimed run also checks the
    # frozen digests whatever the benchmark seed
    checker.check(run_pass(dp, [golden_cfg], out_dir, workload),
                  require_frozen=golden is not None)

    tracer = Tracer()
    untraced: list[Pass] = []
    traced: list[Pass] = []
    start = perf_counter()
    last = 0.0  # duration of the last round; stop at the round ending nearest the deadline
    while not untraced or perf_counter() - start + last / 2 < seconds:
        t0 = perf_counter()
        dp, _, cfgs = setup()
        untraced.append(run_pass(dp, cfgs, out_dir, workload))
        checker.check(untraced[-1])
        if trace:
            traced.append(traced_pass(dp, tracer, workload, run_seeds(seed), out_dir))
            checker.check(traced[-1])
        last = perf_counter() - t0
    problems = []
    if trace and any(p.layer_counts != traced[0].layer_counts for p in traced):
        problems.append("traced counts changed between passes")

    e2e = end_to_end(setup_s, untraced)
    units = dict(END_TO_END_UNITS)
    record = {
        "manifest": manifest(dp, workload, seed, seconds, trace, len(untraced),
                             sum(len(p.run_s) for p in untraced)),
        "end_to_end": e2e,
        "recorded": {
            "report_s": _median([t for p in untraced for t in p.report_s]),
            "failed_runs": len(checker.failures) / checker.attempted,
        },
        "setup_s": setup_s,
        "timed_passes": [
            {"run_s": p.run_s, "report_s": p.report_s, "wall_s": p.wall_s} for p in untraced
        ],
        "failures": checker.failures + problems,
        "digests": {str(s): seen[0] for s, seen in sorted(checker.seen.items())},
        "counts": {str(s): seen[1] for s, seen in sorted(checker.seen.items())},
    }
    if trace:
        layers, layer_units = per_layer(untraced, traced)
        record["per_layer"] = layers
        record["layer_counts"] = traced[0].layer_counts
        record["spans"] = traced[-1].spans
        reported, units = layers, layer_units
    else:
        reported = e2e
    record["result"] = {
        "correct": not (checker.failures or problems),
        "attempted": checker.attempted,
        "failed": len(checker.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in reported.items()},
    }
    return record


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)["digests"]
