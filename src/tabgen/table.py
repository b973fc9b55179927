"""Table data model: a grid checked when built, flat-format serialization/parsing, normalization.

Two layouts are supported, and both are stored as one grid. A matrix
table has a row-header axis and a column-header axis with one optional
value per (row, column) slot, as in sports box scores. An
attribute-value table, as in restaurant or biography summaries, is the
same grid with one row and no row header: its attributes are the column
headers, and its (header, value) pairs are derived from them. A `Table`
checks its grid when it is built, so every table in hand is rectangular
and no operation on one re-checks it.

The flat text format writes cells separated by "|" and rows separated by
the literal "<NEWLINE>" tag (a 9-character token, not a control
character), so a whole table is a single line of text.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple

NEWLINE_TOKEN = "<NEWLINE>"
COLUMN_SEPARATOR = "|"

_QUOTE_CHARS = "\"'`“”‘’«»"


class Orientation(str, Enum):
    ATTRIBUTE_VALUE = "attribute_value"
    MATRIX = "matrix"


class InvalidTable(ValueError):
    """A `Table` was built from a grid that is not rectangular; `violations` says how."""

    def __init__(self, violations: tuple[Violation, ...]):
        self.violations = violations
        super().__init__(f"invalid table: {violations}")


class EmptyInput(ValueError):
    """Flat-format input was blank."""


class StructuralError(ValueError):
    """Flat-format rows disagree on cell count; this is what the error-rate metric counts."""

    def __init__(self, widths: Iterable[int]):
        self.widths = list(widths)
        super().__init__(f"ragged flat table: row widths {self.widths}")


class Violation(NamedTuple):
    kind: str  # "row_width" | "row_count" | "row_headers"
    index: int  # row index, or -1 for a table-level violation
    expected: int
    observed: int


class CellTuple(NamedTuple):
    """Normalized (row header, column header, value); row header is "" for attribute-value."""

    row_header: str
    col_header: str
    value: str


def normalize_text(text: str) -> str:
    """Lowercase, collapse whitespace runs, strip outer whitespace and quotes."""
    stripped = text.strip().strip(_QUOTE_CHARS).lower()
    return " ".join(stripped.split())


def dedupe_headers(headers: Iterable[str]) -> list[str]:
    """Suffix repeated headers with " #2", " #3", ... (repeats judged after normalization).

    Suffixing instead of merging preserves the cell count, which both the
    validity check and exact-match F1 depend on.
    """
    result: list[str] = []
    seen: set[str] = set()
    # Suffixes already tried for a raw text stay taken, since `seen` only
    # grows, so a repeat resumes its search after the last one.
    last_suffix: dict[str, int] = {}
    for text in headers:
        n = last_suffix.get(text, 0)
        while True:
            n += 1
            candidate = text if n == 1 else f"{text} #{n}".strip()
            norm = normalize_text(candidate)
            if norm not in seen:
                break
        last_suffix[text] = n
        result.append(candidate)
        seen.add(norm)
    return result


@dataclass(frozen=True)
class Table:
    """Immutable table value; use the `matrix` / `attribute_value` constructors.

    Both layouts hold `row_headers`, `col_headers` and the `cells` grid
    (None = absent). An attribute-value table is a one-row grid with no
    row header: `row_headers` is (), its attributes are `col_headers`,
    and its values are the one row of `cells`; `rows` derives its
    (header, value) pairs. Absent is the canonical form of an empty cell;
    parsers map empty strings to absent.

    The grid must be rectangular: one row per row header, each as wide as
    `col_headers`; an attribute-value grid is exactly one row and has no
    row header. Any other grid raises InvalidTable with every violation.
    """

    orientation: Orientation
    row_headers: tuple[str, ...] = ()
    col_headers: tuple[str, ...] = ()
    cells: tuple[tuple[str | None, ...], ...] = ()

    def __post_init__(self):
        row_headers, col_headers = tuple(self.row_headers), tuple(self.col_headers)
        width = len(col_headers)
        cells = []
        violations = []
        for i, row in enumerate(self.cells):
            row = tuple(row)
            if len(row) != width:
                violations.append(Violation("row_width", i, width, len(row)))
            cells.append(row)
        height = len(row_headers)
        if self.orientation is Orientation.ATTRIBUTE_VALUE:
            if row_headers:
                violations.append(Violation("row_headers", -1, 0, height))
            height = 1
        if len(cells) != height:
            violations.append(Violation("row_count", -1, height, len(cells)))
        if violations:
            raise InvalidTable(tuple(violations))
        object.__setattr__(self, "row_headers", row_headers)
        object.__setattr__(self, "col_headers", col_headers)
        object.__setattr__(self, "cells", tuple(cells))

    @classmethod
    def attribute_value(cls, rows: Iterable[tuple[str, str | None]]) -> "Table":
        pairs = list(rows)
        return cls(Orientation.ATTRIBUTE_VALUE, (), [h for h, _ in pairs], [[v for _, v in pairs]])

    @classmethod
    def matrix(
        cls,
        row_headers: Iterable[str],
        col_headers: Iterable[str],
        cells: Iterable[Iterable[str | None]],
    ) -> "Table":
        return cls(Orientation.MATRIX, row_headers, col_headers, cells)

    @property
    def rows(self) -> tuple[tuple[str, str | None], ...]:
        """An attribute-value table's (header, value) pairs; () for a matrix."""
        if self.orientation is Orientation.MATRIX:
            return ()
        return tuple(zip(self.col_headers, self.cells[0]))

    @property
    def shape(self) -> tuple[int, int]:
        """(data rows, value columns); attribute-value tables have one value column."""
        if self.orientation is Orientation.ATTRIBUTE_VALUE:
            return (len(self.col_headers), 1)
        return (len(self.row_headers), len(self.col_headers))

    def present_cell_count(self) -> int:
        return sum(1 for row in self.cells for v in row if v is not None)


def header_issues(table: Table) -> list[str]:
    """Non-structural header problems: empty after normalization, or duplicates within an axis."""
    issues: list[str] = []
    col_label = "header" if table.orientation is Orientation.ATTRIBUTE_VALUE else "column header"
    for label, headers in [("row header", table.row_headers), (col_label, table.col_headers)]:
        seen: set[str] = set()
        for i, text in enumerate(headers):
            norm = normalize_text(text)
            if not norm:
                issues.append(f"{label} {i} is empty after normalization")
            elif norm in seen:
                issues.append(f"{label} {i} duplicates {norm!r}")
            seen.add(norm)
    return issues


def serialize_flat(table: Table) -> str:
    """Render the flat single-line format; the matrix corner is an empty leading cell."""
    if table.orientation is Orientation.ATTRIBUTE_VALUE:
        lines = [" | ".join([header, value or ""]) for header, value in table.rows]
    else:
        lines = [" | ".join(["", *table.col_headers])]
        for header, row in zip(table.row_headers, table.cells):
            lines.append(" | ".join([header, *(v or "" for v in row)]))
    return NEWLINE_TOKEN.join(lines)


def parse_flat(text: str, orientation: Orientation) -> Table:
    """Parse the flat format with no repair: ragged rows raise StructuralError.

    Cells are whitespace-trimmed around "|". Empty cells become absent.
    Duplicate headers are suffixed; empty header cells are kept verbatim
    so that model output is scored as produced.
    """
    if not text.strip():
        raise EmptyInput("blank flat-table text")

    grid = [
        [cell.strip() for cell in line.split(COLUMN_SEPARATOR)]
        for line in text.split(NEWLINE_TOKEN)
    ]
    widths = [len(row) for row in grid]
    if len(set(widths)) > 1:
        raise StructuralError(widths)

    if orientation is Orientation.ATTRIBUTE_VALUE:
        values = [" | ".join(row[1:]) or None for row in grid]
        return Table(orientation, (), dedupe_headers(row[0] for row in grid), [values])

    header_row, *data_rows = grid
    col_headers = dedupe_headers(header_row[1:])  # leading cell is the corner, dropped
    row_headers = dedupe_headers(row[0] for row in data_rows)
    cells = [[v or None for v in row[1:]] for row in data_rows]
    return Table.matrix(row_headers, col_headers, cells)


class _NormalizeMemo(dict):
    """`normalize_text` results for one call: each distinct string is normalized once.

    `normalize_text` is looked up when a string is first seen, not bound
    here. A memo lives for the call that made it; nothing is kept across
    calls.
    """

    __slots__ = ()

    def __missing__(self, text: str) -> str:
        norm = self[text] = normalize_text(text)
        return norm


def to_tuples(table: Table) -> set[CellTuple]:
    """One normalized tuple per present, non-empty cell; the unit of cell F1.

    Each call normalizes each distinct header and present value once, and
    keeps nothing across calls.
    """
    return _cell_tuples(table, _NormalizeMemo())


_new_tuple = tuple.__new__  # builds a CellTuple without the namedtuple's Python-level __new__


def _cell_tuples(table: Table, memo: _NormalizeMemo) -> set[CellTuple]:
    """`to_tuples` with every header and value normalized through the caller's memo."""
    if table.orientation is Orientation.ATTRIBUTE_VALUE:
        return {
            _new_tuple(CellTuple, ("", memo[header], norm))
            for header, value in zip(table.col_headers, table.cells[0])
            if value is not None and (norm := memo[value])
        }
    col_headers = [memo[h] for h in table.col_headers]
    return {
        _new_tuple(CellTuple, (row_header, col_header, norm))
        for row_header, row in zip(map(memo.__getitem__, table.row_headers), table.cells)
        for col_header, value in zip(col_headers, row)
        if value is not None and (norm := memo[value])
    }


def table_to_json(table: Table) -> dict:
    """Canonical JSON form, the interchange format for corpora and predictions."""
    if table.orientation is Orientation.ATTRIBUTE_VALUE:
        return {
            "orientation": table.orientation.value,
            "rows": [{"header": h, "value": v} for h, v in table.rows],
        }
    return {
        "orientation": table.orientation.value,
        "row_headers": list(table.row_headers),
        "col_headers": list(table.col_headers),
        "cells": [list(row) for row in table.cells],
    }


def table_from_json(data: object) -> Table:
    """Parse canonical JSON; raises ValueError on any schema problem."""
    if not isinstance(data, dict):
        raise ValueError("table JSON must be an object")

    orientation = data.get("orientation")
    if orientation is None:
        orientation = Orientation.ATTRIBUTE_VALUE.value if "rows" in data else Orientation.MATRIX.value
    if orientation not in (Orientation.ATTRIBUTE_VALUE.value, Orientation.MATRIX.value):
        raise ValueError(f"unknown orientation {orientation!r}")

    if orientation == Orientation.ATTRIBUTE_VALUE.value:
        rows = data.get("rows")
        if not isinstance(rows, list):
            raise ValueError('attribute-value table JSON requires a "rows" list')
        headers, values = [], []
        for i, item in enumerate(rows):
            if not isinstance(item, dict) or not isinstance(item.get("header"), str):
                raise ValueError(f'row {i} must be an object with a string "header"')
            value = item.get("value")
            if value is not None and not isinstance(value, str):
                raise ValueError(f"row {i} value must be a string or null")
            headers.append(item["header"])
            values.append(value)
        return Table(Orientation.ATTRIBUTE_VALUE, (), headers, [values])

    for key in ("row_headers", "col_headers", "cells"):
        if not isinstance(data.get(key), list):
            raise ValueError(f'matrix table JSON requires a "{key}" list')
    if not all(isinstance(h, str) for h in data["row_headers"] + data["col_headers"]):
        raise ValueError("headers must be strings")
    cells = []
    for i, row in enumerate(data["cells"]):
        if not isinstance(row, list):
            raise ValueError(f"cells row {i} must be a list")
        for v in row:
            if v is not None and not isinstance(v, str):
                raise ValueError(f"cells row {i} values must be strings or null")
        cells.append(tuple(row))
    return Table.matrix(data["row_headers"], data["col_headers"], cells)
