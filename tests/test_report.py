import csv
import io
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpcrowd import report
from dpcrowd.config import ExperimentConfig, ModelConfig, NetConfig
from dpcrowd.report import (
    SUMMARY_COLUMNS,
    _TRACE_LINE,
    _cell,
    format_float,
    json_payload,
    summary_record,
    trace_rows,
    write_report,
    write_summary_csv,
)
from dpcrowd.metrics import summarize
from dpcrowd.runners import run_experiment


def _small_cfg(**kw):
    base = dict(
        algorithm="dpcrowd",
        seed=11,
        timestamps=30,
        users=500,
        epsilon=1.0,
        net=NetConfig(m=4, rho=0.6),
        model=ModelConfig(q=(100.0,)),
    )
    base.update(kw)
    return ExperimentConfig(**base)


def _record(result):
    return summary_record(result, summarize(result.releases, result.truth))


def test_format_float_round_trips():
    for x in (0.1, 1 / 3, 2.5e-17, 123456.789, 1e300):
        assert float(format_float(x)) == x


def test_summary_record_schema():
    rec = _record(run_experiment(_small_cfg()))
    assert set(rec) == set(SUMMARY_COLUMNS)
    assert rec["algorithm"] == "dpcrowd"
    assert rec["are"] >= 0 and rec["ace"] >= 0
    assert isinstance(rec["packets"], int) and isinstance(rec["broadcasts"], int)


def test_csv_round_trip(tmp_path):
    rec = _record(run_experiment(_small_cfg()))
    path = tmp_path / "r.csv"
    write_summary_csv([rec], path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert float(rows[0]["are"]) == rec["are"]
    assert float(rows[0]["ace"]) == rec["ace"]
    assert int(rows[0]["packets"]) == rec["packets"]


def test_csv_header_fixed(tmp_path):
    path = tmp_path / "r.csv"
    write_summary_csv([], path)
    header = path.read_text().splitlines()[0]
    assert header == ",".join(SUMMARY_COLUMNS)


def test_json_round_trip(tmp_path):
    result = run_experiment(_small_cfg())
    path = tmp_path / "r.json"
    write_report([result], "json", path)
    payload = json.loads(path.read_text())
    rec = _record(result)
    assert payload["schema_version"] == 1
    assert payload["reports"][0]["metrics"]["are"] == rec["are"]
    assert payload["reports"][0]["config"]["seed"] == "11"


def test_json_payload_echoes_config():
    result = run_experiment(_small_cfg())
    echo = json_payload([result], [_record(result)])["reports"][0]["config"]
    assert echo["algorithm"] == "dpcrowd"
    assert echo["net.m"] == "4"


def test_trace_rows_cover_every_timestamp(tmp_path):
    result = run_experiment(_small_cfg(timestamps=25))
    rows = trace_rows(result, summarize(result.releases, result.truth))
    assert len(rows) == 25
    assert [r[1] for r in rows] == list(range(1, 26))
    path = tmp_path / "t.csv"
    write_report([result], "csv", tmp_path / "r.csv", trace_path=path)
    with open(path, newline="") as fh:
        parsed = list(csv.DictReader(fh))
    assert len(parsed) == 25
    assert sum(int(r["packets"]) for r in parsed) == result.stats.packets


def test_reports_byte_identical_for_same_seed(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_report([run_experiment(_small_cfg())], "csv", a)
    write_report([run_experiment(_small_cfg())], "csv", b)
    assert a.read_bytes() == b.read_bytes()


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_report([run_experiment(_small_cfg())], "xml", tmp_path / "r.xml")


def test_dfast_report_has_zero_ace():
    rec = _record(run_experiment(_small_cfg(algorithm="dfast")))
    assert rec["ace"] == 0.0


_SMALLEST_NORMAL = 2.2250738585072014e-308


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.tuples(
    st.integers(-2**63, 2**64), st.integers(1, 10**9), st.floats(), st.floats(),
    st.integers(0, 2**63),
), max_size=20))
@example(rows=[
    (0, 1, -0.0, 5e-324, 0),
    (7, 2, math.nan, math.inf, 12),
    (-3, 3, -math.inf, _SMALLEST_NORMAL / 3, 1),
    (1, 4, 0.1, -_SMALLEST_NORMAL, 2**40),
])
def test_trace_lines_match_csv_writer(rows):
    # each trace row is one format string, byte for byte what csv.writer
    # writes for the row's _cell strings
    want = io.StringIO(newline="")
    csv.writer(want, lineterminator="\n").writerows([_cell(v) for v in row] for row in rows)
    assert "".join(_TRACE_LINE % row for row in rows) == want.getvalue()


def test_write_report_summarizes_each_run_once(tmp_path, monkeypatch):
    results = [run_experiment(_small_cfg(seed=s)) for s in (1, 2)]
    calls = []
    summarize = report.summarize

    def counting(releases, truth):
        calls.append(1)
        return summarize(releases, truth)

    monkeypatch.setattr(report, "summarize", counting)
    records = write_report(results, "csv", tmp_path / "r.csv", trace_path=tmp_path / "t.csv")
    assert len(calls) == 2
    assert records == [_record(r) for r in results]
