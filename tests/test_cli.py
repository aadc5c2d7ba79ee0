import csv
import json

import pytest

from dpcrowd.cli import expand_runs, main
from dpcrowd.config import ExperimentConfig
from dpcrowd.datasets import load_csv


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
