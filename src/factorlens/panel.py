"""CSV ingestion and export of return panels: assets plus named factor columns.

Input files are UTF-8, less one leading byte-order mark, comma-separated,
with a header row and one column per series; an optional leading column of
timestamps (any string) is kept only for ordering. Rows are ascending in
time. Every referenced cell must parse as a finite decimal; errors report
the offending row and column.

A file is read once, and its cells take one of two paths. A plain file
(no quote, NUL or bare carriage return, one record per line, every line
as many cells as the header, every value finite) is parsed by numpy's C
loadtxt. Any other file, or a plain one the C parser declines, goes
through csv.reader and _parse_cells, one cell at a time, which raises the
located ParseError or MissingValue. A value is float() of the stripped
cell on either path, bit for bit.

Export quotes each time and name through csv.writer, joins each row's
float reprs in C (map and str.join over the values' tolist()), and writes
the file as one string.
"""

from __future__ import annotations

import csv
import io
import math
import os
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadDimension,
    MissingColumn,
    MissingValue,
    ParseError,
    TooFewRows,
)

_NA_TOKENS = {"", "na", "n/a", "nan", "null", "none", "."}


@dataclass(frozen=True)
class ReturnsPanel:
    """Ingested data panel; value columns are assets first, then factors."""

    labels: tuple[str, ...]
    times: tuple[str, ...]
    values: np.ndarray  # T x (p + K)
    asset_columns: tuple[int, ...]  # indices into labels
    factor_columns: tuple[int, ...]
    demean: bool = False

    def __post_init__(self) -> None:
        # a copy, so that freezing it leaves the caller's array writeable
        values = np.array(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise BadDimension("panel values must be a T x (p+K) matrix")
        if set(self.asset_columns) & set(self.factor_columns):
            raise BadDimension("asset and factor column sets must be disjoint")
        if values.shape[1] != len(self.asset_columns) + len(self.factor_columns):
            raise BadDimension("value columns must match asset plus factor counts")
        if values.shape[0] != len(self.times):
            raise BadDimension("times must have one entry per row")
        if not np.all(np.isfinite(values)):
            raise MissingValue("panel contains non-finite values")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def p(self) -> int:
        return len(self.asset_columns)

    @property
    def K(self) -> int:
        return len(self.factor_columns)

    @property
    def T(self) -> int:
        return self.values.shape[0]

    @property
    def asset_names(self) -> tuple[str, ...]:
        return tuple(self.labels[i] for i in self.asset_columns)

    @property
    def factor_names(self) -> tuple[str, ...]:
        return tuple(self.labels[i] for i in self.factor_columns)

    def data_matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """(X, F) with X p-by-T and F K-by-T."""
        X = self.values[:, : self.p].T.copy()
        F = self.values[:, self.p :].T.copy()
        return X, F

    def subset(self, asset_indices) -> "ReturnsPanel":
        """Panel restricted to the given asset positions (0-based, into assets)."""
        asset_indices = tuple(int(i) for i in asset_indices)
        if not asset_indices:
            raise BadDimension("subset needs at least one asset")
        if len(set(asset_indices)) != len(asset_indices):
            raise BadDimension("subset indices must be distinct")
        if not all(0 <= i < self.p for i in asset_indices):
            raise BadDimension(f"subset indices must lie in [0, {self.p})")
        cols = list(asset_indices) + list(range(self.p, self.p + self.K))
        return ReturnsPanel(
            labels=self.labels,
            times=self.times,
            values=self.values[:, cols],
            asset_columns=tuple(self.asset_columns[i] for i in asset_indices),
            factor_columns=self.factor_columns,
            demean=self.demean,
        )


def _parse_cell(raw: str, row: int, column: str) -> float:
    text = raw.strip()
    if text.lower() in _NA_TOKENS:
        raise MissingValue(f"missing value at row {row}, column {column!r}")
    try:
        value = float(text)
    except ValueError:
        raise ParseError(
            f"cannot parse {raw!r} as a number at row {row}, column {column!r}"
        ) from None
    if not math.isfinite(value):
        raise ParseError(f"non-finite value at row {row}, column {column!r}")
    return value


def _parse_cells(records, header, positions, wanted) -> np.ndarray:
    """The referenced cells of each row, one at a time; raises at the first bad one."""
    values = np.empty((len(records), len(wanted)))
    for r, record in enumerate(records, start=2):  # 1-based file rows, row 1 = header
        if len(record) != len(header):
            raise ParseError(
                f"row {r} has {len(record)} cells, header has {len(header)}"
            )
        for k, name in enumerate(wanted):
            values[r - 2, k] = _parse_cell(record[positions[name]], r, name)
    return values


def _read_records(lines, first_row: int) -> list[list[str]]:
    """csv.reader's records of lines; its csv.Error becomes a ParseError naming the file row."""
    reader = csv.reader(lines)
    try:
        return list(reader)
    except csv.Error as exc:
        raise ParseError(f"{exc} at row {first_row + reader.line_num - 1}") from None


def _is_plain(lines) -> bool:
    """Whether csv.reader would split each line at its commas alone.

    A plain file has one record per line, each line ending in its only
    newline, and no quote, NUL or carriage return outside a CRLF ending.
    No line is longer than csv.reader's field size limit, so no cell is.
    """
    if not lines or max(map(len, lines)) > csv.field_size_limit():
        return False
    text = "".join(lines)
    if '"' in text or "\0" in text:
        return False
    if "\r" in text and text.count("\r") != text.count("\r\n"):
        return False
    return (
        all(0 <= line.find("\n") == len(line) - 1 for line in lines[:-1])
        and "\n" not in lines[-1][:-1]
    )


def _loadtxt_values(lines, n_cells: int, columns: list[int]):
    """The cells at columns of plain data lines, by numpy's C parser; None when in doubt.

    The parser strips what str.strip() strips and hands an ASCII cell to
    the routine float() uses, so a value it gives is _parse_cell's bit for
    bit. It skips blank lines, hence the shape check.
    """
    if not all(line.count(",") == n_cells - 1 for line in lines):
        return None
    try:
        values = np.loadtxt(
            lines, delimiter=",", usecols=columns, comments=None, quotechar=None, ndmin=2
        )
    except ValueError:
        return None
    if values.shape != (len(lines), len(columns)) or not np.isfinite(values).all():
        return None
    return values


def ingest_csv(source, asset_names, factor_names, demean: bool = False) -> ReturnsPanel:
    """Read a panel from a CSV path or open text file.

    asset_names and factor_names select header columns; a leading column
    not named by either list is treated as the time column. Row order is
    preserved as time order.
    """
    asset_names = list(asset_names)
    factor_names = list(factor_names)
    if not asset_names:
        raise BadDimension("at least one asset column is required")
    for kind, names in (("asset", asset_names), ("factor", factor_names)):
        repeated = [name for name, n in Counter(names).items() if n > 1]
        if repeated:
            raise BadDimension(f"{kind} column {repeated[0]!r} is listed more than once")
    overlap = set(asset_names) & set(factor_names)
    if overlap:
        raise BadDimension(f"columns listed as both asset and factor: {sorted(overlap)}")
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8", newline="") as fh:
            lines = list(fh)
    else:
        lines = list(source)
    if lines and lines[0].startswith("\ufeff"):  # as Excel's "CSV UTF-8" writes
        lines[0] = lines[0][1:]
    plain = _is_plain(lines)
    rows = _read_records(lines[:1] if plain else lines, 1)
    if not rows:
        raise ParseError("file is empty; a header row is required")
    header = [h.strip() for h in rows[0]]
    wanted = asset_names + factor_names
    in_header = Counter(header)
    for name in wanted:
        if name not in in_header:
            raise MissingColumn(f"column {name!r} not found in header {header}")
        if in_header[name] > 1:
            raise BadDimension(f"column {name!r} appears more than once in the header")
    positions = {name: i for i, name in enumerate(header)}
    has_time = header[0] not in wanted

    records = lines[1:] if plain else rows[1:]
    if not records:
        raise TooFewRows("file has a header but no data rows")
    columns = [positions[name] for name in wanted]
    values = _loadtxt_values(records, len(header), columns) if plain else None
    if values is None:  # the per-cell path, which raises the located error
        if plain:
            records = _read_records(records, 2)
        values = _parse_cells(records, header, positions, wanted)
        first_cells = (record[0] for record in records)
    else:
        first_cells = (line[: line.index(",")] for line in records)
    if has_time:
        times = [cell.strip() for cell in first_cells]
    else:
        times = [str(t) for t in range(len(records))]

    return ReturnsPanel(
        labels=tuple(header),
        times=tuple(times),
        values=values,
        asset_columns=tuple(positions[n] for n in asset_names),
        factor_columns=tuple(positions[n] for n in factor_names),
        demean=demean,
    )


def export_panel_csv(panel: ReturnsPanel, target) -> None:
    """Write a panel to a CSV path or open text file: a time column, then assets, then factors.

    The time column is named "time", or "time_", "time__", ... when an asset
    or factor name, stripped, is already that. Each time and name is written
    as csv.writer writes it in a row, with "\\n" line ends; each value is
    repr of the float. Re-ingesting the file with the panel's asset and
    factor names gives back its values bit for bit and its times, less what
    ingest strips from each cell: a time " t0" comes back "t0", and a name
    " a" must be asked for as "a".
    """
    names = panel.asset_names + panel.factor_names
    taken = {name.strip() for name in names}
    time = "time"
    while time in taken:
        time += "_"
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")

    def cell(text: str) -> str:
        buffer.seek(0)
        buffer.truncate()
        writer.writerow((text, ""))
        return buffer.getvalue()[:-2]  # less the empty last cell's "," and the line end

    # repr of a float holds no character csv.writer quotes, so the values of
    # a row are joined in C rather than scanned cell by cell by csv.writer
    lines = [",".join(map(cell, (time, *names)))]
    for t, row in zip(panel.times, panel.values.tolist()):
        lines.append(f"{cell(t)},{','.join(map(repr, row))}")
    text = "\n".join(lines) + "\n"
    if isinstance(target, (str, os.PathLike)):
        with open(target, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        target.write(text)
