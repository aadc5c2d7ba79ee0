import csv
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpcrowd.cli import expand_runs, main
from dpcrowd.config import _KEYS, ALGORITHMS, ExperimentConfig, config_from_mapping, \
    config_to_flat, parse_config_text
from dpcrowd.datasets import load_csv

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


def test_validate_accepts_good_config(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    assert main(["validate", str(cfg)]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_rejects_zero_window(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "algorithm = dpcrowd_plus\nw = 0\n", name="bad.cfg")
    assert main(["validate", str(cfg)]) == 2
    assert "w >= 1" in capsys.readouterr().err


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
    "algorithm = dpcrowd_plus\nmu = 5e-324\n",
    "algorithm = dpcrowd_plus\np_max = 5e-324\n",
    "algorithm = dpcrowd_w\nepsilon = 5e-324\n",
    "algorithm = dfast\nmodel.a_offdiag = -1e300\n",
    f"algorithm = dpcrowd\nmodel.d = 1\ndata.source = csv\ndata.path = {LINEAR_DEMO}\n"
    "model.a = 1e50\n",
], ids=["plus_subnormal_mu", "plus_subnormal_p_max", "w_subnormal_epsilon",
        "dfast_negative_coupling", "csv_large_transition"])
def test_diverging_feedback_is_diagnosed(tmp_path, capsys, lines):
    # used to end in "ValueError: feedback error must be finite" in PidController.update
    err = _run_diagnosed(tmp_path, capsys, PROBE_CFG + lines)
    assert "run diverged: non-finite feedback error" in err
    assert "server" in err and "t=" in err and "dimension" in err


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
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "fuzz.cfg"
        cfg.write_text(FUZZ_CFG + "".join(f"{k} = {v}\n" for k, v in overrides.items()))
        out, trace = Path(tmp) / "r.json", Path(tmp) / "t.csv"
        code = main(["run", str(cfg), "--out", str(out), "--format", "json",
                     "--trace", str(trace)])
        assert code in (0, 2)
        if code == 2:
            assert not out.exists() and not trace.exists()
            return
        json.loads(out.read_text(), parse_constant=_reject_constant)
        with open(trace, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert rows and all(math.isfinite(float(cell)) for row in rows for cell in row)
