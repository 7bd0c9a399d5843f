import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from factorlens import batch_subset_test, export_panel_csv, ingest_csv, run_tests
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
    with pytest.raises(TooFewRows, match="no data rows"):
        ingest_csv(io.StringIO(CSV_SMALL.splitlines()[0] + "\n"), ["asset"], ["factor"])
    # a panel wider than it is long ingests: the dimension rule is the tested
    # model's, so all 31 columns fail it and every 5-asset subset passes
    p, T = 30, 20
    values = np.random.default_rng(0).normal(size=(T, p + 1))
    names = [f"A{i}" for i in range(p)]
    text = ",".join(names) + ",F\n" + "".join(",".join(map(repr, row)) + "\n" for row in values.tolist())
    panel = ingest_csv(io.StringIO(text), names, ["F"])
    assert (panel.T, panel.p, panel.K) == (T, p, 1)
    with pytest.raises(BadDimension, match=r"^need p >= 2, K >= 0, p \+ K < T_eff; got p=30, K=1, T_eff=20$"):
        run_tests(panel, critical_source="closed-form")
    summary = batch_subset_test(panel, 5, 20, critical_source="closed-form")
    assert summary.num_subsets == 20 and set(summary.quantiles) == {"T_el", "T_pr", "T_LR"}


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


def _per_cell(text, wanted):
    """The per-cell path on every row: csv.reader, then _parse_cells."""
    rows = list(csv.reader(io.StringIO(text, newline="")))
    header = [h.strip() for h in rows[0]]
    return _parse_cells(rows[1:], header, {n: i for i, n in enumerate(header)}, wanted)


_WS = st.sampled_from(["", " ", "\t", "  ", "\u00a0", "\x0c", "\x1c"])
_NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: f"{v:.6E}"),
    st.from_regex(r"[+-]?([0-9]{1,3}(\.[0-9]{0,3})?|\.[0-9]{1,3})([eE][+-]?[0-9]{1,2})?",
                  fullmatch=True),
)
# at most one odd cell per file, so that most files stay plain
_ODD = st.sampled_from([
    "1_0", "-2_5.5", "\uff11.\uff15", "\uff12\uff13", "1e999", "0x1p-2", "1.5.2",
    '"0.25"', ' "0.25"', '" 1e-3 "',
])


@settings(max_examples=150, deadline=None)
@given(
    cells=st.lists(
        st.lists(st.tuples(_WS, _NUMBER, _WS).map("".join), min_size=3, max_size=3),
        min_size=5, max_size=12,
    ),
    odd=st.none() | st.tuples(st.integers(0, 35), _ODD),
    newline=st.sampled_from(["\n", "\r\n"]),
    trailing_newline=st.booleans(),
)
def test_ingest_equals_float_cell_for_cell(cells, odd, newline, trailing_newline):
    # a cell's value is float() of the stripped cell, as _parse_cell gives it;
    # a file with any cell it rejects gets the per-cell path's located error
    if odd is not None:
        k, cell = odd
        cells[k // 3 % len(cells)][k % 3] = cell
    lines = ["t,a,b,f"] + [f"d{i}," + ",".join(row) for i, row in enumerate(cells)]
    text = newline.join(lines) + (newline if trailing_newline else "")
    try:
        want = np.array([
            [float(cell.strip()) for cell in row[1:]]
            for row in list(csv.reader(io.StringIO(text, newline="")))[1:]
        ])
    except ValueError:
        want = None
    if want is not None and np.isfinite(want).all():
        panel = ingest_csv(io.StringIO(text, newline=""), ["a", "b"], ["f"])
        assert panel.values.tobytes() == want.tobytes()
        assert panel.times == tuple(f"d{i}" for i in range(len(cells)))
        return
    with pytest.raises((ParseError, MissingValue)) as per_cell:
        _per_cell(text, ["a", "b", "f"])
    with pytest.raises(type(per_cell.value)) as got:
        ingest_csv(io.StringIO(text, newline=""), ["a", "b"], ["f"])
    assert str(got.value) == str(per_cell.value)


_ROWS = [f"d{i},{0.01 * i + 0.003},{-0.02 * i + 0.001},{0.005 * i - 0.004}" for i in range(1, 7)]


def _text(rows=_ROWS, end="\n", header="date,a,b,f"):
    return header + "\n" + "\n".join(rows) + end


def _replace(i, row):
    rows = list(_ROWS)
    rows[i] = row
    return rows


@pytest.mark.parametrize(
    "text, assets, error, message",
    [
        (_text(_ROWS[:2] + [""] + _ROWS[2:]), ["a", "b"], ParseError,
         "row 4 has 0 cells, header has 4"),
        (_text() + "\n", ["a", "b"], ParseError, "row 8 has 0 cells, header has 4"),
        (_text(_replace(3, _ROWS[3] + ",0.5")), ["a", "b"], ParseError,
         "row 5 has 5 cells, header has 4"),
        (_text(_replace(3, _ROWS[3].rsplit(",", 1)[0])), ["a", "b"], ParseError,
         "row 5 has 3 cells, header has 4"),
        (_text(_replace(2, "d3,#0.5,0.1,0.2")), ["a", "b"], ParseError,
         "cannot parse '#0.5' as a number at row 4, column 'a'"),
        # one column: np.loadtxt skips a blank line, the per-cell path does not
        ("a\n0.1\n0.2\n\n0.3\n", ["a"], ParseError, "row 4 has 0 cells, header has 1"),
        ("a\n0.1\n0.2\n \n0.3\n", ["a"], MissingValue, "missing value at row 4, column 'a'"),
    ]
    + [
        (_text(_replace(4, f"d5,0.1,{token},0.2")), ["a", "b"], MissingValue,
         "missing value at row 6, column 'b'")
        for token in ("", "na", "n/a", "nan", "null", "none", ".", " NA ", "NaN", "None", "N/A")
    ],
)
def test_ingest_guard_cases_keep_their_errors(text, assets, error, message):
    factors = ["f"] if "f" in text.split("\n")[0] else []
    with pytest.raises(error) as err:
        ingest_csv(io.StringIO(text, newline=""), assets, factors)
    assert str(err.value) == message


def test_ingest_guard_cases_keep_their_values(tmp_path):
    base = ingest_csv(io.StringIO(_text()), ["a", "b"], ["f"])
    assert base.times == tuple(f"d{i}" for i in range(1, 7))
    assert base.values.tobytes() == _per_cell(_text(), ["a", "b", "f"]).tobytes()
    same = {
        "crlf": _text().replace("\n", "\r\n"),
        "cr": _text().replace("\n", "\r"),
        "no trailing newline": _text(end=""),
    }
    for name, text in same.items():
        path = tmp_path / "panel.csv"
        path.write_bytes(text.encode("utf-8"))
        sources = [io.StringIO(text, newline=""), path, str(path)]
        with open(path, encoding="utf-8") as universal, \
                open(path, encoding="utf-8", newline="") as untranslated:
            sources += [universal, untranslated]
            for source in sources:
                panel = ingest_csv(source, ["a", "b"], ["f"])
                assert panel.values.tobytes() == base.values.tobytes(), name
                assert panel.times == base.times, name

    quoted = _text(_replace(0, '"2020-01-03, Fri",0.013,0.02,0.03'))
    panel = ingest_csv(io.StringIO(quoted), ["a", "b"], ["f"])
    assert panel.times[:2] == ("2020-01-03, Fri", "d2")
    assert panel.values.tobytes() == _per_cell(quoted, ["a", "b", "f"]).tobytes()

    hashed = _text(_replace(2, "#d3,0.5,0.1,0.2"))
    panel = ingest_csv(io.StringIO(hashed), ["a", "b"], ["f"])
    assert panel.times[2] == "#d3"
    assert panel.values[2].tolist() == [0.5, 0.1, 0.2]


@pytest.mark.parametrize(
    "text",
    [
        _text(),
        _text(header='"date","a","b","f"'),  # quoted: the per-cell path
        _text([row.split(",", 1)[1] for row in _ROWS], header="a,b,f"),  # no time column
    ],
)
def test_ingest_drops_a_leading_byte_order_mark(tmp_path, text):
    base = ingest_csv(io.StringIO(text, newline=""), ["a", "b"], ["f"])
    path = tmp_path / "bom.csv"
    path.write_bytes(("\ufeff" + text).encode("utf-8"))
    with open(path, encoding="utf-8", newline="") as fh:
        for source in (io.StringIO("\ufeff" + text, newline=""), path, str(path), fh):
            panel = ingest_csv(source, ["a", "b"], ["f"])
            assert panel.labels == base.labels
            assert panel.times == base.times
            assert panel.values.tobytes() == base.values.tobytes()


def test_ingest_cell_over_the_csv_field_limit_takes_the_per_cell_path():
    # csv.reader refuses a cell longer than its field size limit, plain file or not
    long_cell = "1" + "0" * csv.field_size_limit()
    text = _text(_replace(1, f"d2,{long_cell},0.1,0.2"))
    with pytest.raises(ParseError, match=r"^field larger than field limit \(\d+\) at row 3$"):
        ingest_csv(io.StringIO(text), ["a", "b"], ["f"])


@pytest.mark.parametrize("row", [1, 2, len(_ROWS) + 1])
def test_ingest_csv_reader_error_is_a_parse_error_naming_the_file_row(tmp_path, row):
    # a cell too long for csv.reader in the header, the first or the last data row
    lines = _text().splitlines(keepends=True)
    cells = lines[row - 1].split(",")
    cells[1] = "9" * (csv.field_size_limit() + 1)
    lines[row - 1] = ",".join(cells)
    path = tmp_path / "panel.csv"
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(ParseError, match=rf"^field larger than field limit \(\d+\) at row {row}$"):
        ingest_csv(path, ["a", "b"], ["f"])


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


def _reference_export(panel, fh):
    """The cell-by-cell export: csv.writer, with repr(float(v)) per value."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["time"] + list(panel.asset_names) + list(panel.factor_names))
    for t in range(panel.T):
        writer.writerow([panel.times[t]] + [repr(float(v)) for v in panel.values[t]])


def _panel(times, values, labels=("date", "a", "b", "f")):
    return ReturnsPanel(
        labels=labels,
        times=tuple(times),
        values=values,
        asset_columns=tuple(range(1, len(labels) - 1)),
        factor_columns=(len(labels) - 1,),
    )


_ODD_TIMES = ["", ",", '"', "\n", "\r\n", " lead", "trail ", "  both  ", "\u00fc\u00df", "\u65e5\u672c", "plain"]
_ODD_VALUES = [-0.0, 5e-324, 2.2250738585072014e-308, 1e308, 0.1, 1.0, -123456789.0]


def test_export_writes_the_reference_bytes_to_a_path_and_an_open_file(tmp_path):
    values = np.resize(_ODD_VALUES + [-v for v in _ODD_VALUES[1:]], (len(_ODD_TIMES), 3))
    panel = _panel(_ODD_TIMES, values)
    reference = tmp_path / "reference.csv"
    with open(reference, "w", encoding="utf-8", newline="") as fh:
        _reference_export(panel, fh)
    to_path, to_file = tmp_path / "path.csv", tmp_path / "file.csv"
    export_panel_csv(panel, to_path)
    with open(to_file, "w", encoding="utf-8", newline="") as fh:
        export_panel_csv(panel, fh)
    assert to_path.read_bytes() == reference.read_bytes()
    assert to_file.read_bytes() == reference.read_bytes()
    # every time comes back less what ingest strips, and every value bit for bit
    back = ingest_csv(to_path, ["a", "b"], ["f"])
    assert back.times == tuple(t.strip() for t in _ODD_TIMES)
    assert np.array_equal(back.values.view(np.int64), panel.values.view(np.int64))


@settings(max_examples=100, deadline=None)
@given(
    times=st.lists(st.text(max_size=6), min_size=4, max_size=8),
    data=st.data(),
)
def test_export_equals_the_reference_for_any_times_and_values(times, data):
    values = data.draw(st.lists(
        st.floats(allow_nan=False, allow_infinity=False), min_size=3 * len(times), max_size=3 * len(times),
    ))
    panel = _panel(times, np.reshape(values, (len(times), 3)))
    got, want = io.StringIO(), io.StringIO()
    export_panel_csv(panel, got)
    _reference_export(panel, want)
    assert got.getvalue() == want.getvalue()


@pytest.mark.parametrize("labels, assets, factors, header", [
    (("date", "time", "b", "f"), ["time", "b"], ["f"], "time_,time,b,f"),
    (("date", "a", "b", "time"), ["a", "b"], ["time"], "time_,a,b,time"),
    (("date", "time_", "time", "f"), ["time_", "time"], ["f"], "time__,time_,time,f"),
    (("date", "a", " time ", "f"), ["a", "time"], ["f"], "time_,a, time ,f"),  # ingest strips names
])
def test_export_names_the_time_column_apart_from_every_series(labels, assets, factors, header):
    rng = np.random.default_rng(4)
    panel = _panel([f"t{i}" for i in range(8)], rng.standard_normal((8, 3)), labels)
    buffer = io.StringIO()
    export_panel_csv(panel, buffer)
    assert buffer.getvalue().splitlines()[0] == header
    buffer.seek(0)
    back = ingest_csv(buffer, assets, factors)
    assert back.asset_names == tuple(assets) and back.factor_names == tuple(factors)
    assert back.times == panel.times
    assert np.array_equal(back.values, panel.values)


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
