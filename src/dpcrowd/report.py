"""Machine-readable result emission: summary CSV/JSON and per-timestamp traces.

Reports are byte-deterministic for a given config + seed: no wall clock,
fixed column order, and floats printed at 17 significant digits so every
value round-trips exactly.
"""

from __future__ import annotations

import csv
import json
from typing import Iterable

import numpy as np

from .config import config_to_flat
from .metrics import MetricsSummary, summarize
from .runners import RunResult

__all__ = [
    "SCHEMA_VERSION",
    "SUMMARY_COLUMNS",
    "TRACE_COLUMNS",
    "format_float",
    "summary_record",
    "write_summary_csv",
    "json_payload",
    "write_json",
    "write_report",
]

SCHEMA_VERSION = 1

SUMMARY_COLUMNS = (
    "schema_version",
    "algorithm",
    "seed",
    "epsilon",
    "w",
    "rho",
    "m",
    "are",
    "ace",
    "packets",
    "bytes",
    "max_latency_ms",
    "broadcasts",
)

TRACE_COLUMNS = ("seed", "t", "are", "ace", "packets")


def format_float(value: float) -> str:
    """17 significant digits: enough that float(format_float(x)) == x."""
    return "%.17g" % float(value)


def _cell(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format_float(value)
    return str(value)


def summary_record(result: RunResult, metrics: MetricsSummary) -> dict:
    """Flatten one finished run, with its summarize() metrics, into the fixed summary schema."""
    cfg = result.config
    stats = result.stats
    return {
        "schema_version": SCHEMA_VERSION,
        "algorithm": cfg.algorithm,
        "seed": cfg.seed,
        "epsilon": float(cfg.epsilon),
        "w": cfg.w,
        "rho": float(cfg.net.rho),
        "m": cfg.net.m,
        "are": metrics.are,
        "ace": metrics.ace,
        "packets": stats.packets,
        "bytes": stats.payload_bytes,
        "max_latency_ms": float(stats.max_latency_ms),
        "broadcasts": int(np.asarray(stats.broadcasts).sum()),
    }


def write_summary_csv(records: Iterable[dict], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SUMMARY_COLUMNS)
        for rec in records:
            writer.writerow([_cell(rec[col]) for col in SUMMARY_COLUMNS])


def trace_rows(result: RunResult, metrics: MetricsSummary) -> list[tuple]:
    """(seed, t, are, ace, packets) per timestamp; metrics as in summary_record."""
    timestamps = len(metrics.are_trace)
    return list(zip(
        [result.config.seed] * timestamps, range(1, timestamps + 1),
        metrics.are_trace.tolist(), metrics.ace_trace.tolist(), result.stats.packets_by_t,
    ))


# one trace row: its cells as _cell writes them, none of which csv quotes
_TRACE_LINE = "%d,%d,%.17g,%.17g,%d\n"


def json_payload(results: Iterable[RunResult], records: list[dict]) -> dict:
    """Nested report: the runs' summary records plus a full config echo per run."""
    reports = []
    for result, rec in zip(results, records):
        reports.append(
            {
                "algorithm": rec["algorithm"],
                "seed": rec["seed"],
                "epsilon": rec["epsilon"],
                "w": rec["w"],
                "rho": rec["rho"],
                "m": rec["m"],
                "metrics": {"are": rec["are"], "ace": rec["ace"]},
                "comm": {
                    "packets": rec["packets"],
                    "bytes": rec["bytes"],
                    "max_latency_ms": rec["max_latency_ms"],
                    "broadcasts": rec["broadcasts"],
                },
                "config": {k: _cell(v) for k, v in config_to_flat(result.config).items()},
            }
        )
    return {"schema_version": SCHEMA_VERSION, "reports": reports}


def write_json(results: Iterable[RunResult], path, records: list[dict]) -> None:
    payload = json_payload(results, records)
    with open(path, "w", newline="") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def write_report(results, fmt: str, path, trace_path=None) -> list[dict]:
    """Write the report (and trace) of results; returns their summary records.

    Each run is summarized once, for its record and its trace alike.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown report format: {fmt!r}")
    results = list(results)
    metrics = [summarize(r.releases, r.truth) for r in results]
    records = [summary_record(r, s) for r, s in zip(results, metrics)]
    if fmt == "csv":
        write_summary_csv(records, path)
    else:
        write_json(results, path, records)
    if trace_path is not None:
        # long format, one block of rows per run
        with open(trace_path, "w", newline="") as fh:
            fh.write(",".join(TRACE_COLUMNS) + "\n")
            for result, summary in zip(results, metrics):
                fh.writelines(_TRACE_LINE % row for row in trace_rows(result, summary))
    return records
