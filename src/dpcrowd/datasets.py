"""Synthetic stream generators and CSV loading.

Synthetic true statistics model counts, so they are clamped at zero as they
evolve. Released estimates are never clamped here; that is a separate,
default-off engine option.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

from .model import ProcessModel, StreamPrefix

__all__ = [
    "CsvFormatError",
    "build_transition",
    "generate_stream",
    "gen_linear",
    "gen_multilinear",
    "load_csv",
    "read_text",
    "save_csv",
]


class CsvFormatError(ValueError):
    """The CSV does not parse into a (T, d) stream; the message names the spot."""


def build_transition(d: int, diag: float, offdiag: float = 0.0) -> np.ndarray:
    """Uniform transition matrix: `diag` on the diagonal, `offdiag` elsewhere."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return np.full((d, d), offdiag) + np.eye(d) * (diag - offdiag)


def generate_stream(
    model: ProcessModel,
    initial,
    timestamps: int,
    rng: np.random.Generator,
    clamp: bool = True,
) -> StreamPrefix:
    """Roll the process model forward; row 0 is the initial value itself."""
    if timestamps < 1:
        raise ValueError("need at least one timestamp")
    values = np.empty((timestamps, model.d))
    values[0] = np.broadcast_to(np.asarray(initial, dtype=float), (model.d,))
    # one call draws the same values in the same stream order as one call a row
    noise = rng.normal(0.0, np.sqrt(model.noise_var), size=(timestamps - 1, model.d))
    for row in range(1, timestamps):
        values[row] = model.transition @ values[row - 1] + noise[row - 1]
        if clamp:
            np.maximum(values[row], 0.0, out=values[row])
    return StreamPrefix(values=values)


def gen_linear(
    rng: np.random.Generator,
    timestamps: int = 1000,
    initial: float = 1e5,
    transition: float = 1.0,
    noise_var: float = 1e5,
    clamp: bool = True,
) -> StreamPrefix:
    """Scalar random-walk count stream (the Linear benchmark shape)."""
    model = ProcessModel(transition=np.array([[transition]]), noise_var=np.array([noise_var]))
    return generate_stream(model, [initial], timestamps, rng, clamp=clamp)


def gen_multilinear(
    rng: np.random.Generator,
    timestamps: int = 1000,
    d: int = 6,
    initial=1e5,
    diag: float = 0.8,
    offdiag: float = 0.04,
    noise_var=1e4,
    clamp: bool = True,
) -> StreamPrefix:
    """Coupled multi-dimensional stream; default transition rows sum to 1."""
    model = ProcessModel(
        transition=build_transition(d, diag, offdiag),
        noise_var=np.broadcast_to(np.asarray(noise_var, dtype=float), (d,)).copy(),
    )
    return generate_stream(model, initial, timestamps, rng, clamp=clamp)


def _parse_cell(cell: str, row: int, col: int) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise CsvFormatError(f"row {row}, column {col}: {cell!r} is not a number") from None
    if not math.isfinite(value):
        raise CsvFormatError(f"row {row}, column {col}: value must be finite, got {cell!r}")
    if value < 0:
        raise CsvFormatError(f"row {row}, column {col}: counts must be non-negative, got {cell!r}")
    return value


def _raise_first_bad_cell(rows: list[list[str]], start: int, width: int) -> None:
    """Raise CsvFormatError for the first ragged row or bad cell in row order."""
    for r, row in enumerate(rows[start:], start=start + 1):
        if len(row) != width:
            raise CsvFormatError(f"row {r}: expected {width} columns, got {len(row)}")
        for c, cell in enumerate(row, start=1):
            _parse_cell(cell.strip(), r, c)


def read_text(path, error: type[ValueError]) -> str:
    """A UTF-8 file's text, a leading byte-order mark dropped.

    A byte that is not UTF-8 raises error, naming the path and the byte's
    offset in the file.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # exc.object is what follows the byte-order mark, if there is one
        offset = len(data) - len(exc.object) + exc.start
        raise error(f"{path}: byte {offset} is not UTF-8 ({exc.reason})") from None


def load_csv(path) -> StreamPrefix:
    """Read a (T, d) stream: one row per timestamp, one column per dimension.

    A first row in which no cell is a number is a header and is skipped; a
    first row that mixes numbers and text is data with a bad cell. Ragged or
    non-numeric data raises CsvFormatError naming the row, and text the csv
    module cannot split into fields names the file and its line.
    """
    text = read_text(path, CsvFormatError)
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        rows = [row for row in reader if row]
    except csv.Error as exc:  # such as a field over csv.field_size_limit()
        raise CsvFormatError(f"{path}: line {reader.line_num}: {exc}") from None
    if not rows:
        raise CsvFormatError(f"{path}: no data rows")

    def _is_number(cell: str) -> bool:
        try:
            float(cell)
        except ValueError:
            return False
        return True

    start = 0
    if not any(map(_is_number, rows[0])):
        start = 1
        if len(rows) == 1:
            raise CsvFormatError(f"{path}: header only, no data rows")
    width = len(rows[start])
    data = None
    if all(len(row) == width for row in rows[start:]):
        # float() ignores the surrounding whitespace that _parse_cell strips
        try:
            data = np.array([list(map(float, row)) for row in rows[start:]])
        except ValueError:  # a cell that is not a number
            pass
    if data is None or not np.isfinite(data).all() or (data < 0).any():
        _raise_first_bad_cell(rows, start, width)
    return StreamPrefix(values=data)


def save_csv(prefix: StreamPrefix, path) -> None:
    """Write a stream with an x1..xd header; load_csv reads it back exactly.

    Each value is written as "%.17g", which round-trips every float64.
    """
    line = ",".join(["%.17g"] * prefix.d) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(f"x{k + 1}" for k in range(prefix.d)) + "\n")
        fh.writelines(line % tuple(row) for row in prefix.values.tolist())
