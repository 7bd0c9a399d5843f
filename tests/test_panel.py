import io

import numpy as np
import pytest
from numpy.testing import assert_allclose

from factorlens import ingest_csv, export_panel_csv
from factorlens.panel import ReturnsPanel, _parse_cells
from factorlens.errors import (
    BadDimension,
    MissingColumn,
    MissingValue,
    ParseError,
    TooFewRows,
)

CSV_SMALL = """date,asset,factor
2020-01-03,0.01,0.02
2020-01-10,-0.005,0.001
2020-01-17,0.003,-0.01
2020-01-24,0.012,0.004
2020-01-31,-0.02,0.003
2020-02-07,0.004,0.009
2020-02-14,0.001,-0.002
2020-02-21,-0.013,0.005
2020-02-28,0.009,0.001
2020-03-06,0.002,0.008
"""


def test_ingest_small_panel():
    panel = ingest_csv(io.StringIO(CSV_SMALL), ["asset"], ["factor"])
    assert panel.T == 10 and panel.p == 1 and panel.K == 1
    assert panel.times[0] == "2020-01-03"
    assert panel.asset_names == ("asset",)
    assert panel.factor_names == ("factor",)
    assert_allclose(panel.values[0], [0.01, 0.02])


def test_ingest_missing_value_location():
    text = CSV_SMALL.replace("2020-01-17,0.003", "2020-01-17,NA")
    with pytest.raises(MissingValue) as err:
        ingest_csv(io.StringIO(text), ["asset"], ["factor"])
    assert "row 4" in str(err.value)
    assert "asset" in str(err.value)


def test_ingest_parse_error_location():
    text = CSV_SMALL.replace("0.004,0.009", "0.004,oops")
    with pytest.raises(ParseError) as err:
        ingest_csv(io.StringIO(text), ["asset"], ["factor"])
    assert "row 7" in str(err.value)
    assert "factor" in str(err.value)


def test_ingest_missing_column():
    with pytest.raises(MissingColumn):
        ingest_csv(io.StringIO(CSV_SMALL), ["asset", "ghost"], ["factor"])


def test_ingest_too_few_rows():
    lines = CSV_SMALL.strip().splitlines()
    text = "\n".join(lines[:3]) + "\n"  # header + 2 rows, p + K = 2
    with pytest.raises(TooFewRows):
        ingest_csv(io.StringIO(text), ["asset"], ["factor"])


def test_ingest_rejects_overlapping_names():
    duplicate_header = "t,a,b,a\n" + "".join(
        f"{i},{i * 0.01},{i * -0.02},{i * 0.03}\n" for i in range(8)
    )
    for text, assets, factors, column in (
        (CSV_SMALL, ["asset"], ["asset"], "asset"),
        (CSV_SMALL, ["asset", "asset"], ["factor"], "asset"),
        (CSV_SMALL, ["asset"], ["factor", "factor"], "factor"),
        (duplicate_header, ["a"], ["b"], "a"),
    ):
        with pytest.raises(BadDimension, match=repr(column)):
            ingest_csv(io.StringIO(text), assets, factors)


def test_ingest_without_time_column():
    text = "a,b\n" + "\n".join(f"{i * 0.01},{-i * 0.02}" for i in range(1, 8)) + "\n"
    panel = ingest_csv(io.StringIO(text), ["a"], ["b"])
    assert panel.T == 7
    assert panel.times == tuple(str(i) for i in range(7))


def test_ingest_ragged_row():
    text = CSV_SMALL.replace("2020-02-07,0.004,0.009", "2020-02-07,0.004")
    with pytest.raises(ParseError) as err:
        ingest_csv(io.StringIO(text), ["asset"], ["factor"])
    assert "row 7" in str(err.value)


def test_ingest_from_path(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text(CSV_SMALL)
    panel = ingest_csv(path, ["asset"], ["factor"], demean=True)
    assert panel.demean
    assert panel.T == 10


def test_ingest_odd_cells_parse_as_the_per_cell_path_does():
    odd = [" 1.5", "1_0", "+.5", "-0", "5e-324", "\t-2.25e-3 ", "1E2", "0.1"]
    rows = [[f"t{i}", odd[i % len(odd)], odd[(3 * i + 1) % len(odd)], "junk", f"{i}.25"]
            for i in range(12)]
    text = "time,a,b,skip,f\n" + "\n".join(",".join(r) for r in rows)
    panel = ingest_csv(io.StringIO(text), ["a", "b"], ["f"])
    header = ["time", "a", "b", "skip", "f"]
    slow = _parse_cells(rows, header, {"a": 1, "b": 2, "f": 4}, ["a", "b", "f"])
    assert panel.values.tobytes() == slow.tobytes()  # -0.0 and the subnormal bit for bit
    assert panel.values[3, 0] == 0.0 and np.signbit(panel.values[3, 0])
    assert panel.values[1, 0] == 10.0 and panel.values[4, 0] == 5e-324
    # cells float() accepts as non-finite still get their located errors
    for cell, error in (("-inf", ParseError), (" NaN ", MissingValue)):
        bad = [list(r) for r in rows]
        bad[5][1] = cell
        bad_text = "time,a,b,skip,f\n" + "\n".join(",".join(r) for r in bad)
        with pytest.raises(error, match="row 7, column 'a'"):
            ingest_csv(io.StringIO(bad_text), ["a", "b"], ["f"])


def test_roundtrip_export_ingest():
    rng = np.random.default_rng(8)
    text = "time,x1,x2,f1\n" + "\n".join(
        f"t{i}," + ",".join(f"{v:.6f}" for v in rng.standard_normal(3)) for i in range(12)
    )
    panel = ingest_csv(io.StringIO(text), ["x1", "x2"], ["f1"])
    buffer = io.StringIO()
    export_panel_csv(panel, buffer)
    buffer.seek(0)
    again = ingest_csv(buffer, ["x1", "x2"], ["f1"])
    assert again.times == panel.times
    assert np.array_equal(again.values, panel.values)
    assert again.asset_names == panel.asset_names


def test_subset_restricts_assets():
    rng = np.random.default_rng(9)
    text = "t,a,b,c,f\n" + "\n".join(
        f"r{i}," + ",".join(f"{v:.5f}" for v in rng.standard_normal(4)) for i in range(20)
    )
    panel = ingest_csv(io.StringIO(text), ["a", "b", "c"], ["f"])
    sub = panel.subset([2, 0])
    assert sub.p == 2 and sub.K == 1
    assert sub.asset_names == ("c", "a")
    assert_allclose(sub.values[:, 0], panel.values[:, 2])
    assert_allclose(sub.values[:, 2], panel.values[:, 3])
    with pytest.raises(BadDimension):
        panel.subset([0, 0])
    with pytest.raises(BadDimension):
        panel.subset([5])


def test_panel_leaves_the_callers_array_writeable():
    values = np.arange(12.0).reshape(4, 3)
    panel = ReturnsPanel(
        labels=("a", "b", "f"),
        times=("0", "1", "2", "3"),
        values=values,
        asset_columns=(0, 1),
        factor_columns=(2,),
    )
    assert values.flags.writeable
    assert np.array_equal(values, np.arange(12.0).reshape(4, 3))
    assert not panel.values.flags.writeable
    values[0, 0] = -1.0
    assert panel.values[0, 0] == 0.0
