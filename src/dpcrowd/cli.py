"""Command-line entry point: run experiments, sweep parameters, generate data.

Exit status is 0 on success and 2 on any diagnosed failure (bad config,
unreadable data, exhausted budget, a diverged run), with the reason printed
to stderr.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from .config import ConfigError, ExperimentConfig, apply_override, load_config
from .datasets import CsvFormatError, gen_linear, gen_multilinear, save_csv
from .privacy import BudgetError
from .report import summary_record, write_report
from .runners import RunDivergedError, RunResult, run_experiment

__all__ = ["main", "expand_runs"]


def expand_runs(cfg: ExperimentConfig) -> list[ExperimentConfig]:
    """`runs = k` means k independent repetitions seeded seed, seed+1, ..., seed+k-1."""
    return [replace(cfg, seed=cfg.seed + i, runs=1) for i in range(cfg.runs)]


def _run_all(cfg: ExperimentConfig) -> list[RunResult]:
    return [run_experiment(c) for c in expand_runs(cfg)]


def _print_summaries(results: list[RunResult]) -> None:
    for result in results:
        rec = summary_record(result)
        print(
            f"{rec['algorithm']} seed={rec['seed']} eps={rec['epsilon']:g} "
            f"are={rec['are']:.6g} ace={rec['ace']:.6g} packets={rec['packets']}"
        )


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    results = _run_all(cfg)
    out = args.out if args.out else f"report.{args.format}"
    write_report(results, args.format, out, trace_path=args.trace)
    _print_summaries(results)
    print(f"wrote {out}" + (f" and {args.trace}" if args.trace else ""))
    return 0


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise ConfigError("--values must list at least one value")
    results: list[RunResult] = []
    for value in values:
        swept = apply_override(cfg, args.param, value)
        results.extend(_run_all(swept))
    out = args.out if args.out else f"sweep.{args.format}"
    write_report(results, args.format, out)
    _print_summaries(results)
    print(f"wrote {out} ({len(results)} rows over {args.param} in {values})")
    return 0


def _cmd_gen(args) -> int:
    rng = np.random.default_rng(args.seed)
    if args.kind == "linear":
        prefix = gen_linear(rng, timestamps=args.timestamps)
    else:
        prefix = gen_multilinear(rng, timestamps=args.timestamps, d=args.dims)
    save_csv(prefix, args.out)
    print(f"wrote {args.out} ({prefix.timestamps} rows, {prefix.d} columns)")
    return 0


def _cmd_validate(args) -> int:
    cfg = load_config(args.config)
    print(f"ok: {cfg.algorithm}, T={cfg.timestamps}, m={cfg.net.m}, eps={cfg.epsilon:g}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpcrowd",
        description="Decentralized private stream estimation simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one config (runs>1 repeats with seed+i)")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="report path (default report.<format>)")
    p_run.add_argument("--format", choices=("csv", "json"), default="csv")
    p_run.add_argument("--trace", default=None, help="also write per-timestamp trace CSV here")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="rerun a config over a grid of one parameter")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--param", required=True, help="dotted config key, e.g. epsilon or net.rho")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--out", default=None, help="report path (default sweep.<format>)")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_gen = sub.add_parser("gen", help="generate a synthetic stream CSV")
    p_gen.add_argument("kind", choices=("linear", "multilinear"))
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--timestamps", type=int, default=1000)
    p_gen.add_argument("--dims", type=int, default=6, help="dimensions (multilinear only)")
    p_gen.set_defaults(func=_cmd_gen)

    p_val = sub.add_parser("validate", help="parse and validate a config, run nothing")
    p_val.add_argument("config")
    p_val.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, CsvFormatError, BudgetError, RunDivergedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
