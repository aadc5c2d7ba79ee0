"""Decentralized privacy-preserving stream estimation.

Simulates a crowd of aggregation servers that each hold a slice of a user
population, perturb their local counts for differential privacy, and fuse
one-hop neighbor information with a consensus Kalman filter — publishing an
estimate stream under a fixed privacy budget with intermittent communication.
"""

from .config import (
    ALGORITHMS,
    ConfigError,
    ExperimentConfig,
    SEED_ENV_VAR,
    apply_override,
    load_config,
)
from .datasets import CsvFormatError, gen_linear, gen_multilinear, load_csv, save_csv
from .metrics import compute_ace, compute_are, summarize
from .privacy import BudgetError, PrivacyLedger, laplace_sample, perturb_count
from .report import write_report
from .runners import (
    RunDivergedError,
    RunResult,
    run_dfast,
    run_dpcrowd,
    run_dpcrowd_plus,
    run_dpcrowd_w,
    run_experiment,
    run_fast,
    run_nonprivate,
)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "BudgetError",
    "ConfigError",
    "CsvFormatError",
    "ExperimentConfig",
    "PrivacyLedger",
    "RunDivergedError",
    "RunResult",
    "SEED_ENV_VAR",
    "apply_override",
    "compute_ace",
    "compute_are",
    "gen_linear",
    "gen_multilinear",
    "laplace_sample",
    "load_config",
    "load_csv",
    "perturb_count",
    "run_dfast",
    "run_dpcrowd",
    "run_dpcrowd_plus",
    "run_dpcrowd_w",
    "run_experiment",
    "run_fast",
    "run_nonprivate",
    "save_csv",
    "summarize",
    "write_report",
    "__version__",
]
