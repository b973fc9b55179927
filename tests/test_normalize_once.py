"""Exact-tuple extraction and header de-duplication normalize each string once per call.

The per-cell `to_tuples`, the join-and-split `_cell_tokens` and the
restart-from-one `dedupe_headers` are kept here as the references the
faster versions must agree with.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

import tabgen.table
from tabgen.metrics import _cell_tokens
from tabgen.table import (
    CellTuple,
    Orientation,
    Table,
    dedupe_headers,
    normalize_text,
    parse_flat,
    to_tuples,
)


def reference_to_tuples(table: Table) -> set[CellTuple]:
    """The per-cell version: header and value normalized again for every cell."""
    tuples: set[CellTuple] = set()
    if table.orientation is Orientation.ATTRIBUTE_VALUE:
        for header, value in table.rows:
            if value is not None and normalize_text(value):
                tuples.add(CellTuple("", normalize_text(header), normalize_text(value)))
        return tuples
    for r, row in enumerate(table.cells):
        for c, value in enumerate(row):
            if value is not None and normalize_text(value):
                tuples.add(
                    CellTuple(
                        normalize_text(table.row_headers[r]),
                        normalize_text(table.col_headers[c]),
                        normalize_text(value),
                    )
                )
    return tuples


def reference_cell_tokens(cells: set[CellTuple]) -> list[str]:
    parts = []
    for cell in sorted(cells):
        parts.extend(p for p in (cell.row_header, cell.col_header, cell.value) if p)
    return " ".join(parts).split()


def reference_dedupe_headers(headers) -> list[str]:
    """The restart-from-one version: every repeat searches its suffixes from " #2"."""
    result: list[str] = []
    seen: set[str] = set()
    for text in headers:
        candidate = text
        n = 1
        while normalize_text(candidate) in seen:
            n += 1
            candidate = f"{text} #{n}".strip()
        result.append(candidate)
        seen.add(normalize_text(candidate))
    return result


# Quotes, whitespace runs, case variants and pre-suffixed headers, so that
# texts collide after normalization and some normalize to nothing.
MESSY = st.one_of(
    st.sampled_from(["a", "A", " a ", '"a"', "'A'", "a  b", "A\tb", "a\nB", "", "  ", '""', "a #2", "A #2 "]),
    st.text(alphabet="aAbB #2\t\n\"'“”«» ", max_size=8),
)
MESSY_VALUES = st.one_of(st.none(), MESSY)


@st.composite
def messy_tables(draw) -> Table:
    if draw(st.booleans()):
        return Table.attribute_value(draw(st.lists(st.tuples(MESSY, MESSY_VALUES), max_size=6)))
    rows = draw(st.lists(MESSY, max_size=5))
    cols = draw(st.lists(MESSY, max_size=5))
    cells = [[draw(MESSY_VALUES) for _ in cols] for _ in rows]
    return Table.matrix(rows, cols, cells)


def counting_normalize(monkeypatch) -> list[str]:
    calls: list[str] = []

    def counted(text: str) -> str:
        calls.append(text)
        return normalize_text(text)

    monkeypatch.setattr(tabgen.table, "normalize_text", counted)
    return calls


class TestToTuples:
    @settings(max_examples=400, deadline=None)
    @given(messy_tables())
    def test_equals_the_per_cell_reference(self, table):
        assert to_tuples(table) == reference_to_tuples(table)

    def test_box_score_normalizes_each_header_and_present_value_once(self, monkeypatch):
        rows = [f"Player {r}" for r in range(26)]
        cols = [f"STAT {c}" for c in range(20)]
        cells = [[None if (r + c) % 5 == 0 else f" {r * c} " for c in range(20)] for r in range(26)]
        table = Table.matrix(rows, cols, cells)
        present = table.present_cell_count()
        expected = reference_to_tuples(table)

        calls = counting_normalize(monkeypatch)
        assert to_tuples(table) == expected
        assert len(calls) <= len(rows) + len(cols) + present

    def test_attribute_value_normalizes_each_present_value_and_kept_header_once(self, monkeypatch):
        table = Table.attribute_value([("Name", "The Eagle"), ("food", None), ("area", "  ")])
        calls = counting_normalize(monkeypatch)
        tuples = to_tuples(table)
        assert tuples == {CellTuple("", "name", "the eagle")}
        assert len(calls) <= table.present_cell_count() + len(tuples)


class TestCellTokens:
    @given(st.sets(st.tuples(MESSY, MESSY, MESSY).map(lambda t: CellTuple(*map(normalize_text, t)))))
    def test_equals_join_and_split(self, cells):
        assert _cell_tokens(cells) == reference_cell_tokens(cells)


class TestDedupeHeaders:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(MESSY, max_size=12))
    def test_equals_the_restart_from_one_reference(self, headers):
        assert dedupe_headers(headers) == reference_dedupe_headers(headers)

    @given(st.lists(st.sampled_from(["x", "X", '"x"', "x #2", "x #3", "x  #2", "y"]), max_size=30))
    def test_equals_the_reference_on_colliding_suffixes(self, headers):
        assert dedupe_headers(headers) == reference_dedupe_headers(headers)

    def test_two_thousand_copies_take_linear_normalizations(self, monkeypatch):
        headers = ["Points"] * 2000
        expected = reference_dedupe_headers(headers)
        calls = counting_normalize(monkeypatch)
        assert dedupe_headers(headers) == expected
        assert len(calls) <= 2 * len(headers)

    def test_flat_table_repeating_one_header_parses_in_linear_normalizations(self, monkeypatch):
        text = "<NEWLINE>".join(["name | 1"] * 2000)
        calls = counting_normalize(monkeypatch)
        table = parse_flat(text, Orientation.ATTRIBUTE_VALUE)
        assert [h for h, _ in table.rows[:3]] == ["name", "name #2", "name #3"]
        assert len(calls) <= 2 * 2000
