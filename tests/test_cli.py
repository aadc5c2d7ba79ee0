import csv
import json
import math
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpcrowd import cli, report
from dpcrowd.cli import expand_runs, main
from dpcrowd.config import _KEYS, ALGORITHMS, ConfigError, ExperimentConfig, apply_override, \
    config_from_mapping, config_to_flat, parse_config_text
from dpcrowd.datasets import load_csv
from dpcrowd.runners import run_experiment

LINEAR_DEMO = Path(__file__).resolve().parents[1] / "data" / "linear_demo.csv"


BASE_CFG = """
algorithm = dpcrowd
seed = 5
timestamps = 25
users = 400
epsilon = 1.0
model.q = 100
net.m = 4
net.rho = 0.6
"""


def _write_cfg(tmp_path, text=BASE_CFG, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_expand_runs_seeds():
    cfg = ExperimentConfig(algorithm="fast", seed=10, runs=3)
    seeds = [c.seed for c in expand_runs(cfg)]
    assert seeds == [10, 11, 12]
    assert all(c.runs == 1 for c in expand_runs(cfg))


def test_run_writes_report(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "report.csv"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    assert out.exists()
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["algorithm"] == "dpcrowd"


def test_run_json_format(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "report.json"
    assert main(["run", str(cfg), "--out", str(out), "--format", "json"]) == 0
    payload = json.loads(out.read_text())
    assert payload["reports"][0]["seed"] == 5


def test_run_trace_file(tmp_path):
    cfg = _write_cfg(tmp_path)
    out, trace = tmp_path / "r.csv", tmp_path / "t.csv"
    assert main(["run", str(cfg), "--out", str(out), "--trace", str(trace)]) == 0
    with open(trace, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 25


def test_run_repeats_with_runs_key(tmp_path):
    cfg = _write_cfg(tmp_path, BASE_CFG + "runs = 3\n")
    out = tmp_path / "report.csv"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        seeds = [int(r["seed"]) for r in csv.DictReader(fh)]
    assert seeds == [5, 6, 7]


def test_sweep_grid_rows(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "sweep.csv"
    code = main(["sweep", str(cfg), "--param", "epsilon",
                 "--values", "0.1,0.3,0.5,0.7,1.0", "--out", str(out)])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    assert [float(r["epsilon"]) for r in rows] == [0.1, 0.3, 0.5, 0.7, 1.0]


@pytest.mark.parametrize("command", [["run"], ["sweep", "--param", "epsilon", "--values", "0.5"]])
def test_summaries_print_from_the_report_records(tmp_path, capsys, monkeypatch, command):
    # each run is summarized once, by the report; stdout prints its records
    cfg = _write_cfg(tmp_path, BASE_CFG + "runs = 2\n")
    calls = []
    summarize = report.summarize
    monkeypatch.setattr(report, "summarize", lambda *a: calls.append(a) or summarize(*a))
    out = tmp_path / "r.csv"
    assert main([command[0], str(cfg), *command[1:], "--out", str(out)]) == 0
    assert len(calls) == 2
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert capsys.readouterr().out.splitlines()[:2] == [
        f"dpcrowd seed={r['seed']} eps={float(r['epsilon']):g} are={float(r['are']):.6g} "
        f"ace={float(r['ace']):.6g} packets={r['packets']}"
        for r in rows
    ]


def test_sweep_bad_value_fails(tmp_path):
    cfg = _write_cfg(tmp_path)
    assert main(["sweep", str(cfg), "--param", "epsilon", "--values", "-1",
                 "--out", str(tmp_path / "s.csv")]) == 2


def test_gen_linear(tmp_path):
    out = tmp_path / "lin.csv"
    assert main(["gen", "linear", "--out", str(out), "--seed", "3",
                 "--timestamps", "40"]) == 0
    series = load_csv(out)
    assert series.timestamps == 40 and series.d == 1


def test_gen_multilinear_dims(tmp_path):
    out = tmp_path / "ml.csv"
    assert main(["gen", "multilinear", "--out", str(out), "--timestamps", "30",
                 "--dims", "4"]) == 0
    assert load_csv(out).d == 4


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["gen", "linear", "--out", str(a), "--seed", "9", "--timestamps", "20"])
    main(["gen", "linear", "--out", str(b), "--seed", "9", "--timestamps", "20"])
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("argv, message", [
    (["linear", "--timestamps", "0"], "--timestamps must be >= 1, got 0"),
    (["linear", "--timestamps", "-3"], "--timestamps must be >= 1, got -3"),
    (["multilinear", "--dims", "0"], "--dims must be >= 1, got 0"),
    (["multilinear", "--dims", "-2"], "--dims must be >= 1, got -2"),
], ids=["zero_timestamps", "negative_timestamps", "zero_dims", "negative_dims"])
def test_gen_bad_size_is_diagnosed(tmp_path, capsys, argv, message):
    # used to end in "ValueError: need at least one timestamp" or
    # "ValueError: dimension must be >= 1"
    out = tmp_path / "g.csv"
    assert main(["gen", argv[0], "--out", str(out), *argv[1:]]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_validate_accepts_good_config(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    assert main(["validate", str(cfg)]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_rejects_zero_window(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "algorithm = dpcrowd_plus\nw = 0\n", name="bad.cfg")
    assert main(["validate", str(cfg)]) == 2
    assert "w >= 1" in capsys.readouterr().err


def test_config_that_is_not_utf8_is_diagnosed(tmp_path, capsys):
    # used to exit 1 with a UnicodeDecodeError traceback
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"algorithm = fast\n# caf\xe9\n")
    assert main(["validate", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        f"error: {cfg}: byte 22 is not UTF-8 (invalid continuation byte)\n"
    )
    out = tmp_path / "r.csv"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


def test_csv_that_is_not_utf8_is_diagnosed(tmp_path, capsys):
    data = tmp_path / "s.csv"
    data.write_bytes(b"1\n2\n\xff\n")
    err = _run_diagnosed(tmp_path, capsys, f"algorithm = fast\nmodel.d = 1\ntimestamps = 3\n"
                                           f"data.source = csv\ndata.path = {data}\n")
    assert err == f"error: {data}: byte 4 is not UTF-8 (invalid start byte)\n"


def test_csv_field_over_the_size_limit_is_diagnosed(tmp_path, capsys):
    # used to exit 1 with a _csv.Error traceback
    data = tmp_path / "s.csv"
    data.write_text('1\n2\n"' + "7" * 200_000 + '"\n')
    err = _run_diagnosed(tmp_path, capsys, f"algorithm = fast\nmodel.d = 1\ntimestamps = 3\n"
                                           f"data.source = csv\ndata.path = {data}\n")
    assert err == f"error: {data}: line 3: field larger than field limit (131072)\n"


@pytest.mark.parametrize("line, expected", [
    ("timestamps = yes", "expected an integer"),
    ("net.m = on", "expected an integer"),
    ("epsilon = true", "expected a number"),
])
def test_boolean_word_for_numeric_key_is_diagnosed(tmp_path, capsys, line, expected):
    cfg = _write_cfg(tmp_path, BASE_CFG + line + "\n")
    out = tmp_path / "r.csv"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert expected in capsys.readouterr().err
    assert not out.exists()


def test_missing_config_is_diagnosed(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.cfg")]) == 2
    assert "error" in capsys.readouterr().err


def test_env_seed_override(tmp_path, monkeypatch):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "r.csv"
    monkeypatch.setenv("DPCROWD_SEED", "77")
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["seed"] == "77"


LINEAR_CFG = """
algorithm = dpcrowd
seed = 100
timestamps = 1000
users = 100000
epsilon = 0.1
net.m = 50
net.rho = 0.3
model.a = 1.0
model.q = 100000
sampling.mode = adaptive
sampling.max_fraction = 0.3
"""


def test_large_consensus_step_is_refused(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, LINEAR_CFG + "kcif.beta = 1.0\n")
    out = tmp_path / "r.csv"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "kcif.beta" in err and "lambda_max" in err
    assert not out.exists()


def test_dense_graph_consensus_step_is_refused(tmp_path, capsys):
    # beta = 0.05 is stable at rho = 0.3 but diverges (ARE ~ 1e49) at rho = 0.9
    cfg = _write_cfg(tmp_path, LINEAR_CFG + "net.rho = 0.9\nkcif.beta = 0.05\n")
    out = tmp_path / "r.csv"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert "kcif.beta" in capsys.readouterr().err
    assert not out.exists()


NONPRIVATE_CFG = """
algorithm = nonprivate
seed = 5
timestamps = 20
users = 3
net.m = 4
net.rho = 0.6
"""


def test_zero_variance_floor_is_refused(tmp_path, capsys):
    # with 3 users on 4 servers some server is empty, and its R_hat is 0
    cfg = _write_cfg(tmp_path, NONPRIVATE_CFG + "kcif.variance_floor = 0\n")
    out = tmp_path / "r.csv"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert "kcif.variance_floor" in capsys.readouterr().err
    assert not out.exists()


def test_fuse_stale_self_is_diagnosed(tmp_path, capsys):
    # the key stays in the schema (and the report echo), pinned to false
    message = r"^kcif.fuse_stale_self = true is not supported: .* the estimates diverge$"
    flat = parse_config_text(BASE_CFG)
    with pytest.raises(ConfigError, match=message):
        config_from_mapping({**flat, "kcif.fuse_stale_self": "true"})
    with pytest.raises(ConfigError, match=message):
        apply_override(config_from_mapping(flat), "kcif.fuse_stale_self", "on")
    cfg = _write_cfg(tmp_path, BASE_CFG + "kcif.fuse_stale_self = true\n")
    out = tmp_path / "r.csv"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert "kcif.fuse_stale_self" in capsys.readouterr().err
    assert not out.exists()


def test_nonprivate_runs_at_zero_epsilon(tmp_path):
    cfg = _write_cfg(tmp_path, NONPRIVATE_CFG + "epsilon = 0\n")
    out = tmp_path / "r.csv"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    assert out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverged_run_is_diagnosed(tmp_path, capsys):
    # a subnormal floor passes validation, but coeff**2 / R_hat overflows
    cfg = _write_cfg(
        tmp_path,
        NONPRIVATE_CFG.replace("users = 3", "users = 300")
        + "model.q = 0\nkcif.variance_floor = 1e-310\n",
    )
    out = tmp_path / "r.csv"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert "diverged" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("lines, key", [
    ("epsilon = nan\n", "epsilon"),
    ("epsilon = inf\n", "epsilon"),
    ("algorithm = dpcrowd_plus\nw = 5\nmu = nan\n", "mu"),
    ("model.d = 2\nalgorithm = dpcrowd_plus\nw = 5\nmodel.q = 1,nan\n", "model.q"),
], ids=["epsilon_nan", "epsilon_inf", "mu_nan", "q_entry_nan"])
def test_non_finite_number_is_diagnosed(tmp_path, capsys, lines, key):
    cfg = _write_cfg(tmp_path, BASE_CFG + lines)
    out = tmp_path / "r.csv"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert f"{key} must be a finite number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("lines, key", [
    ("model = 3\n", "unknown config key 'model'"),
    ("seed = -1\n", "seed must be >= 0"),
    ("net.seed = -5\n", "net.seed must be >= 0"),
], ids=["section_as_key", "negative_seed", "negative_net_seed"])
def test_bad_key_or_seed_is_diagnosed(tmp_path, capsys, lines, key):
    cfg = _write_cfg(tmp_path, BASE_CFG + lines)
    out = tmp_path / "r.csv"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()



def test_sweep_over_section_name_is_diagnosed(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "s.csv"
    assert main(["sweep", str(cfg), "--param", "model", "--values", "3",
                 "--out", str(out)]) == 2
    assert "unknown config key 'model'" in capsys.readouterr().err
    assert not out.exists()


def test_negative_env_seed_is_diagnosed(tmp_path, capsys, monkeypatch):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "r.csv"
    monkeypatch.setenv("DPCROWD_SEED", "-4")
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


OVERFLOW_CFG = """
seed = 0
timestamps = 40
users = 1000
net.m = 4
w = 10
"""


@pytest.mark.parametrize("algorithm", ["dpcrowd", "dpcrowd_w"])
@pytest.mark.parametrize("line", ["pid.xi = 1e-320", "pid.cp = 1e300",
                                  "pid.xi = 1e-320\npid.theta = 0"])
def test_overflowing_interval_law_runs(tmp_path, algorithm, line):
    # (control / xi)^2 overflows to inf: the interval floors at 1 (or, with
    # theta = 0, stays as it is) and the run completes
    cfg = _write_cfg(tmp_path, OVERFLOW_CFG + f"algorithm = {algorithm}\n{line}\n")
    out = tmp_path / "r.csv"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["algorithm"] for r in rows] == [algorithm]


@pytest.mark.parametrize("lines", ["pid.theta = -1\n", "pid.xi = 1e-320\npid.theta = -1\n"],
                         ids=["negative_theta", "negative_theta_overflowed_law"])
def test_negative_theta_is_diagnosed(tmp_path, capsys, lines):
    # a negative theta inverts the interval law; with an overflowed law it
    # used to end in an OverflowError
    cfg = _write_cfg(tmp_path, OVERFLOW_CFG + "algorithm = dpcrowd\n" + lines)
    out = tmp_path / "r.csv"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert "pid.theta must be >= 0, got -1.0" in capsys.readouterr().err
    assert not out.exists()


# The shape of the extreme-value probe: every numeric key set to 0, +-5e-324,
# +-1e300 or -1 (int keys -1, 0, 1, 2) on dpcrowd_plus, dpcrowd_w and dfast.
PROBE_CFG = """
seed = 0
timestamps = 40
users = 1000
net.m = 4
model.d = 2
w = 5
"""


def _run_diagnosed(tmp_path, capsys, text):
    """Run a config that must end in exit 2 with no report; returns stderr."""
    cfg = _write_cfg(tmp_path, text)
    out = tmp_path / "r.csv"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    return capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("algorithm", ["dpcrowd_plus", "dpcrowd_w", "dfast"])
@pytest.mark.parametrize("key", ["model.a", "model.a_offdiag"])
def test_overflowing_stream_is_diagnosed(tmp_path, capsys, algorithm, key):
    # used to end in "ValueError: stream values must be finite"
    err = _run_diagnosed(tmp_path, capsys, PROBE_CFG + f"algorithm = {algorithm}\n{key} = 1e300\n")
    assert "model.a = " in err and "model.a_offdiag = " in err and "non-finite stream" in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_transition_is_diagnosed(tmp_path, capsys):
    # model.a - model.a_offdiag overflows; used to end in a ValueError
    err = _run_diagnosed(tmp_path, capsys, PROBE_CFG + "algorithm = dpcrowd_plus\n"
                         "model.a = 1e308\nmodel.a_offdiag = -1e308\n")
    assert "non-finite transition matrix" in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("lines", [
    "algorithm = dfast\nmodel.a_offdiag = -1e300\n",
    f"algorithm = dpcrowd\nmodel.d = 1\ndata.source = csv\ndata.path = {LINEAR_DEMO}\n"
    "model.a = 1e50\n",
], ids=["dfast_negative_coupling", "csv_large_transition"])
def test_diverging_feedback_is_diagnosed(tmp_path, capsys, lines):
    # used to end in "ValueError: feedback error must be finite" in PidController.update
    err = _run_diagnosed(tmp_path, capsys, PROBE_CFG + lines)
    assert "run diverged: non-finite feedback error" in err
    assert "server" in err and "t=" in err and "dimension" in err


def _weight_refusal(tmp_path, capsys, text):
    """The stderr of a config whose first grant overflows R_hat; it must end
    in exit 2 with no report, and in the same diagnosis whether numpy's
    RuntimeWarning is ignored or raised as an error."""
    errs = []
    for action in ("ignore", "error"):
        case_path = tmp_path / action
        case_path.mkdir()
        with warnings.catch_warnings():
            warnings.simplefilter(action, RuntimeWarning)
            errs.append(_run_diagnosed(case_path, capsys, text))
    assert errs[0] == errs[1]
    return errs[0]


@pytest.mark.parametrize("lines", [
    "algorithm = dpcrowd_plus\nmu = 5e-324\n",
    "algorithm = dpcrowd_plus\np_max = 5e-324\n",
    "algorithm = dpcrowd_w\nepsilon = 5e-324\n",
], ids=["plus_subnormal_mu", "plus_subnormal_p_max", "w_subnormal_epsilon"])
def test_subnormal_grant_is_diagnosed(tmp_path, capsys, lines):
    # a grant of 5e-324 overflows c / grant; these runs used to reach the
    # feedback check with an observation the filter weighed out
    err = _weight_refusal(tmp_path, capsys, PROBE_CFG + lines)
    assert err == ("error: run diverged: non-finite observation weight at server 0, t=1,"
                   " dimension 0 (grant 5e-324, R_hat inf)\n")


def test_unallocatable_run_is_diagnosed(tmp_path, capsys):
    # validate accepts the config, but its stream needs 800 PB, more than any
    # address space holds, so the first allocation fails; this used to end in
    # numpy's _ArrayMemoryError traceback
    text = BASE_CFG.replace("timestamps = 25", "timestamps = 100000000000000000")
    assert main(["validate", str(_write_cfg(tmp_path, text))]) == 0
    capsys.readouterr()
    err = _run_diagnosed(tmp_path, capsys, text)
    assert err.startswith("error: MemoryError: Unable to allocate") and err.count("\n") == 1


# Between the samples at t = 1 and 151 of a replayed stream the prediction
# leaves the float range: the variance overflows and the posterior turns NaN
# at t = 39, inside a stretch with nothing due.
IDLE_DIVERGENCE_CFG = f"""
seed = 3
timestamps = 300
users = 1000
net.m = 4
model.a = 1e4
data.source = csv
data.path = {LINEAR_DEMO}
sampling.mode = fixed
sampling.interval = 150
"""


@pytest.mark.parametrize("algorithm", ["dpcrowd", "dfast"])
def test_divergence_inside_an_idle_stretch_is_diagnosed(tmp_path, capsys, algorithm):
    text = IDLE_DIVERGENCE_CFG + f"algorithm = {algorithm}\n"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        err = _run_diagnosed(tmp_path, capsys, text)
    assert err == ("error: run diverged: non-finite release nan at server 0, t=39, dimension 0"
                   " (1048 non-finite values in all)\n")
    with warnings.catch_warnings():  # as under PYTHONWARNINGS=error
        warnings.simplefilter("error")
        err = _run_diagnosed(tmp_path, capsys, text)
    assert err == "error: RuntimeWarning: overflow encountered in multiply\n"


def test_runtime_warning_raised_as_error_is_diagnosed(tmp_path, capsys):
    # with warnings as errors, numpy's overflow warning in
    # kcif.effective_variance (a subnormal grant) used to end in a traceback
    # before the engine's own divergence check ran; the engine now checks
    # the observation's weight itself, before numpy sees its R_hat
    err = _weight_refusal(tmp_path, capsys, PROBE_CFG + "algorithm = dpcrowd_plus\n"
                          "mu = 5e-324\n")
    assert err == ("error: run diverged: non-finite observation weight at server 0, t=1,"
                   " dimension 0 (grant 5e-324, R_hat inf)\n")


# c / grant is finite, but its square in R_hat overflows to inf. These runs
# used to exit 0 (with RuntimeWarning ignored) and freeze their absurd report
# rows, fast at ARE 2.4e151; the engine now refuses the observation.
OVERFLOWING_PERTURBATION_RUNS = [
    # mu = 1e-160 grants dpcrowd_plus about 1e-160
    ("algorithm = dpcrowd_plus\nmu = 1e-160\n", "6.9314718055994525e-161"),
    # at epsilon = 1e-155 a uniform policy's eps_uniform overflows R_hat too;
    # dpcrowd_w restarts its blocks every w = 5 timestamps, frozen or
    # repartitioned
    ("algorithm = fast\nepsilon = 1e-155\n", "8.333333333333334e-157"),
    ("algorithm = dpcrowd_w\nepsilon = 1e-155\n", "1e-155"),
    ("algorithm = dpcrowd_w\nepsilon = 1e-155\nmodel.freeze_partition = false\n", "1e-155"),
]


def test_overflowing_perturbation_term_is_diagnosed(tmp_path, capsys):
    for n, (extra, grant) in enumerate(OVERFLOWING_PERTURBATION_RUNS):
        case_path = tmp_path / str(n)
        case_path.mkdir()
        err = _weight_refusal(case_path, capsys, PROBE_CFG + extra)
        assert err == ("error: run diverged: non-finite observation weight at server 0, t=1,"
                       f" dimension 0 (grant {grant}, R_hat inf)\n"), extra


@pytest.mark.parametrize("algorithm, center", [("dfast", "1e308"), ("dpcrowd_plus", "1.6e308")])
def test_overflowing_latency_center_is_diagnosed(tmp_path, capsys, algorithm, center):
    # a flood's latency sum (dfast), or a single round's 1.2 c (dpcrowd_plus),
    # used to overflow into "max_latency_ms": Infinity, which is not JSON
    cfg = _write_cfg(tmp_path, PROBE_CFG + f"algorithm = {algorithm}\n"
                     f"net.latency_ms_center = {center}\n")
    out = tmp_path / "r.json"
    assert main(["run", str(cfg), "--out", str(out), "--format", "json"]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert f"net.latency_ms_center = {float(center):g} " in err and "net.m = 4" in err


def test_underflowing_window_budget_is_diagnosed(tmp_path, capsys):
    # epsilon / w underflowed to 0 and the default grouping.eta1 divided by it
    err = _run_diagnosed(tmp_path, capsys, PROBE_CFG + "algorithm = dpcrowd_plus\n"
                         "epsilon = 5e-324\n")
    assert "epsilon / w underflows to 0" in err


# --------------------------------------------------------------- schema fuzz

FUZZ_CFG = PROBE_CFG + "algorithm = dpcrowd_plus\n"
_FUZZ_BASE = config_to_flat(config_from_mapping(parse_config_text(FUZZ_CFG)))
FUZZ_FLOATS = ("0", "5e-324", "-5e-324", "1e300", "-1e300", "-1")
# small ints only, so that no run allocates large arrays
FUZZ_INTS = ("-1", "0", "1", "2")
FUZZ_TEXT = {
    "algorithm": ALGORITHMS + ("bogus",),
    "data.source": ("synthetic", "csv", "bogus"),
    "data.path": (str(LINEAR_DEMO), "", "missing.csv"),
    "sampling.mode": ("adaptive", "fixed", "bogus"),
}


def _fuzz_values(key):
    """A key's candidate raw values, its value in FUZZ_CFG among them."""
    kind = _KEYS[key][2]
    if kind is bool:
        choices = st.sampled_from(("true", "false"))
    elif kind is int:
        choices = st.sampled_from(FUZZ_INTS)
    elif kind is float:
        choices = st.sampled_from(FUZZ_FLOATS)
    elif kind is tuple:
        choices = st.lists(st.sampled_from(FUZZ_FLOATS), min_size=1, max_size=2).map(",".join)
    else:
        choices = st.sampled_from(FUZZ_TEXT.get(key, ("", "x")))
    default = _FUZZ_BASE[key]
    if default is None:  # unset optional key: leaving it out is its default
        return choices
    return choices | st.just(str(default))


# the algorithm decides which engine paths run, so every example draws it
_fuzz_overrides = st.lists(st.sampled_from(sorted(_KEYS)), max_size=6, unique=True).flatmap(
    lambda keys: st.fixed_dictionaries({key: _fuzz_values(key) for key in ["algorithm", *keys]})
)

# the 17 runs of the probe that ended in a traceback, and two more causes
_PROBE_FAILURES = [
    ("dpcrowd_plus", "epsilon", "5e-324"), ("dpcrowd_plus", "mu", "5e-324"),
    ("dpcrowd_plus", "p_max", "5e-324"), ("dpcrowd_plus", "eps_max_fraction", "5e-324"),
    ("dpcrowd_plus", "model.a", "1e300"), ("dpcrowd_plus", "model.a", "-1e300"),
    ("dpcrowd_plus", "model.a_offdiag", "1e300"), ("dpcrowd_plus", "model.a_offdiag", "-1e300"),
    ("dpcrowd_w", "epsilon", "5e-324"),
    ("dpcrowd_w", "model.a", "1e300"), ("dpcrowd_w", "model.a", "-1e300"),
    ("dpcrowd_w", "model.a_offdiag", "1e300"), ("dpcrowd_w", "model.a_offdiag", "-1e300"),
    ("dfast", "model.a", "1e300"), ("dfast", "model.a", "-1e300"),
    ("dfast", "model.a_offdiag", "1e300"), ("dfast", "model.a_offdiag", "-1e300"),
]


def _with_examples(test):
    for algorithm, key, value in _PROBE_FAILURES:
        test = example(overrides={"algorithm": algorithm, key: value})(test)
    test = example(overrides={"model.a": "1e308", "model.a_offdiag": "-1e308"})(test)
    # a latency sum that overflowed wrote "max_latency_ms": Infinity
    test = example(overrides={"algorithm": "dfast", "net.latency_ms_center": "1e308"})(test)
    # a first grant that underflows to 0 used to exit 0 without a sample
    test = example(overrides={"algorithm": "fast", "epsilon": "5e-324", "model.d": "1"})(test)
    test = example(overrides={"algorithm": "dpcrowd_plus", "epsilon": "5e-324",
                              "grouping.enabled": "false"})(test)
    return example(overrides={"algorithm": "dpcrowd", "model.d": "1", "data.source": "csv",
                              "data.path": str(LINEAR_DEMO), "model.a": "1e50"})(test)


def _reject_constant(name):
    raise AssertionError(f"report holds {name}")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=400, deadline=None)
@given(overrides=_fuzz_overrides)
@_with_examples
def test_any_small_config_runs_or_is_diagnosed(overrides):
    # every key of the schema is drawn; a run ends in exit 0 with a finite
    # report or in a diagnosed exit 2 with none, never in a traceback
    results = []

    def recording_run(cfg):
        results.append(run_experiment(cfg))
        return results[-1]

    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "fuzz.cfg"
        cfg.write_text(FUZZ_CFG + "".join(f"{k} = {v}\n" for k, v in overrides.items()))
        out, trace = Path(tmp) / "r.json", Path(tmp) / "t.csv"
        with mock.patch.object(cli, "run_experiment", recording_run):
            code = main(["run", str(cfg), "--out", str(out), "--format", "json",
                         "--trace", str(trace)])
        assert code in (0, 2)
        if code == 2:
            assert not out.exists() and not trace.exists()
            return
        # a private run that exits 0 took at least one sample
        assert results and all(r.ledgers is None or r.sampled.any() for r in results)
        json.loads(out.read_text(), parse_constant=_reject_constant)
        with open(trace, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert rows and all(math.isfinite(float(cell)) for row in rows for cell in row)
