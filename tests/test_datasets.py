import csv
from pathlib import Path

import numpy as np
import pytest

from dpcrowd.cli import main
from dpcrowd.datasets import (
    CsvFormatError,
    build_transition,
    gen_linear,
    gen_multilinear,
    generate_stream,
    load_csv,
    save_csv,
)
from dpcrowd.model import ProcessModel, StreamPrefix


def test_linear_constant_when_noiseless():
    series = gen_linear(np.random.default_rng(0), timestamps=20, noise_var=0.0)
    assert np.all(series.values == 1e5)


def test_linear_default_length():
    series = gen_linear(np.random.default_rng(0))
    assert series.timestamps == 1000 and series.d == 1


def test_linear_first_difference_variance():
    # A=1: consecutive differences are the process noise, Var = 1e5 (10% tol)
    series = gen_linear(np.random.default_rng(12), timestamps=1000)
    diffs = np.diff(series.values[:, 0])
    assert abs(diffs.var() / 1e5 - 1.0) < 0.10


def test_linear_clamps_counts_at_zero():
    series = gen_linear(np.random.default_rng(3), timestamps=500, initial=10.0, noise_var=1e4)
    assert series.values.min() >= 0.0


def test_build_transition_row_sums():
    a = build_transition(6, 0.8, 0.04)
    assert np.allclose(a.sum(axis=1), 1.0)
    assert a[0, 0] == 0.8 and a[0, 1] == 0.04


def test_multilinear_identity_constant():
    series = gen_multilinear(np.random.default_rng(0), timestamps=10, d=3,
                             diag=1.0, offdiag=0.0, noise_var=0.0)
    assert np.all(series.values == 1e5)


def test_multilinear_no_mean_drift():
    """With row-stochastic A the cross-dimension mean performs a random walk
    whose variance is t*q/d (the uniform direction has eigenvalue 1 and every
    step adds isotropic noise); drift beyond 3 sigma flags a generator bug."""
    t, d, q = 1000, 6, 1e4
    series = gen_multilinear(np.random.default_rng(21), timestamps=t, d=d, noise_var=q)
    final_mean = series.values[-1].mean()
    sigma = np.sqrt(t * q / d)
    assert abs(final_mean - 1e5) < 3 * sigma


def _reference_stream(model, initial, timestamps, rng, clamp=True):
    """One noise draw per row: the per-row loop the whole-array draw replaced."""
    values = np.empty((timestamps, model.d))
    values[0] = np.broadcast_to(np.asarray(initial, dtype=float), (model.d,))
    sd = np.sqrt(model.noise_var)
    for row in range(1, timestamps):
        values[row] = model.transition @ values[row - 1] + rng.normal(0.0, sd)
        if clamp:
            np.maximum(values[row], 0.0, out=values[row])
    return values


@pytest.mark.parametrize("d", [1, 3, 6])
@pytest.mark.parametrize("timestamps", [1, 2, 1000])
@pytest.mark.parametrize("clamp", [True, False])
@pytest.mark.parametrize("noiseless", [False, True])
def test_generate_stream_matches_per_row_draws(d, timestamps, clamp, noiseless):
    # started near zero with noise of up to 100 sd, the clamp binds often
    noise_var = np.zeros(d) if noiseless else np.linspace(1e2, 1e4, d)
    model = ProcessModel(transition=build_transition(d, 0.9, 0.02), noise_var=noise_var)
    initial = np.linspace(50.0, 500.0, d)
    rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
    values = generate_stream(model, initial, timestamps, rng, clamp=clamp).values
    expected = _reference_stream(model, initial, timestamps, ref_rng, clamp=clamp)
    assert values.shape == expected.shape
    assert values.tobytes() == expected.tobytes()
    # the generator is left at the same position in its stream
    assert rng.standard_normal() == ref_rng.standard_normal()


def test_generate_stream_row_zero_is_initial():
    model = ProcessModel(transition=np.array([[1.0]]), noise_var=np.array([1.0]))
    series = generate_stream(model, [42.0], 5, np.random.default_rng(0))
    assert series.values[0, 0] == 42.0


# -------------------------------------------------------------------- csv

def test_load_csv_plain_column(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("1\n2\n3\n")
    series = load_csv(p)
    assert series.values[:, 0].tolist() == [1.0, 2.0, 3.0]


def test_load_csv_skips_header(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("week,count\n1,10\n2,20\n")
    series = load_csv(p)
    assert series.d == 2 and series.timestamps == 2


def test_load_csv_ragged_row_names_row(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("1,2\n3\n")
    with pytest.raises(CsvFormatError, match="row 2"):
        load_csv(p)


def test_load_csv_rejects_negative(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("1\n-2\n")
    with pytest.raises(CsvFormatError, match="non-negative"):
        load_csv(p)


def test_load_csv_rejects_non_numeric_body(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("1\nx\n")
    with pytest.raises(CsvFormatError):
        load_csv(p)


@pytest.mark.parametrize("text, message", [
    ("1,2\n3,x\n", "row 2, column 2: 'x' is not a number"),
    ("1\nnan\n", "row 2, column 1: value must be finite, got 'nan'"),
    ("1\n-inf\n", "row 2, column 1: value must be finite, got '-inf'"),
    ("1,2\n3,inf\n", "row 2, column 2: value must be finite, got 'inf'"),
    ("1\n-2\n", "row 2, column 1: counts must be non-negative, got '-2'"),
    ("1,2\n3\n", "row 2: expected 2 columns, got 1"),
    ("1,2\n3,4,5\n", "row 2: expected 2 columns, got 3"),
    # the header is row 1; row 3 is named, not the ragged row 5 after it
    ("x1,x2\n1,2\n3,x\n4,5\n6\n", "row 3, column 2: 'x' is not a number"),
    # a first row with any number in it is data, not a header
    ("1,x\n2,3\n4,5\n", "row 1, column 2: 'x' is not a number"),
    ("1, 2\n3, -4 \n", "row 2, column 2: counts must be non-negative, got '-4'"),
    ("1\n y \n", "row 2, column 1: 'y' is not a number"),
    (" 1 , 2\n3 ,\t4 \n", None),
])
def test_load_csv_diagnostics(tmp_path, text, message):
    p = tmp_path / "s.csv"
    p.write_text(text)
    if message is None:
        assert load_csv(p).values.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    else:
        with pytest.raises(CsvFormatError) as err:
            load_csv(p)
        assert str(err.value) == message


def test_load_csv_empty_file(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("")
    with pytest.raises(CsvFormatError):
        load_csv(p)


def test_save_load_round_trip(tmp_path):
    series = gen_multilinear(np.random.default_rng(5), timestamps=30, d=4)
    p = tmp_path / "round.csv"
    save_csv(series, p)
    back = load_csv(p)
    np.testing.assert_array_equal(back.values, series.values)


DATA = Path(__file__).resolve().parent.parent / "data"


def _csv_writer_reference(values, path):
    """save_csv as written through csv.writer, the format's first writer."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"x{k + 1}" for k in range(values.shape[1])])
        for row in values:
            writer.writerow(["%.17g" % v for v in row])


def test_save_csv_bytes(tmp_path):
    """data/ regenerates byte for byte, and save_csv writes what csv.writer wrote."""
    for argv, name in (
        (["linear"], "linear_demo.csv"),
        (["multilinear", "--dims", "6"], "multilinear_demo.csv"),
    ):
        out = tmp_path / name
        assert main(["gen", *argv, "--out", str(out), "--seed", "7", "--timestamps", "300"]) == 0
        assert out.read_bytes() == (DATA / name).read_bytes()
    seventeen = [0.1, 1 / 3, 2 ** 0.5 * 1e5, 1.2345678901234567e20, np.nextafter(1.0, 2.0)]
    for values in (
        np.array([seventeen, [0.0, 1e-300, 5e-324, 1.7976931348623157e308, 12345.0]]),
        np.array([[1 / 3], [0.0], [1e-300]]),
    ):
        got, expected = tmp_path / "got.csv", tmp_path / "expected.csv"
        save_csv(StreamPrefix(values=values), got)
        _csv_writer_reference(values, expected)
        assert got.read_bytes() == expected.read_bytes()
        assert load_csv(got).values.tobytes() == values.tobytes()
