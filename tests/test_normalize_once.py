"""Exact-tuple extraction and header de-duplication normalize each string once per call.

The per-cell `to_tuples`, the join-and-split `_cell_tokens` and the
restart-from-one `dedupe_headers` are kept here as the references the
faster versions must agree with.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tabgen.table
from tabgen.metrics import _cell_tokens, evaluate_corpus, evaluate_sample
from tabgen.table import (
    CellTuple,
    InvalidTable,
    Orientation,
    Table,
    dedupe_headers,
    normalize_text,
    parse_flat,
    to_tuples,
    validate,
)


def reference_to_tuples(table: Table) -> set[CellTuple]:
    """The per-cell version: header and value normalized again for every cell."""
    report = validate(table)
    if not report.valid:
        raise InvalidTable(report)

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
    if rows and draw(st.integers(0, 5)) == 0:  # ragged: one row a cell short or long
        cells[-1] = cells[-1][:-1] if cols and draw(st.booleans()) else [*cells[-1], "x"]
    return Table.matrix(rows, cols, cells)


def counting_normalize(monkeypatch) -> list[str]:
    calls: list[str] = []

    def counted(text: str) -> str:
        calls.append(text)
        return normalize_text(text)

    monkeypatch.setattr(tabgen.table, "normalize_text", counted)
    return calls


def ragged(label: str) -> Table:
    return Table.matrix([f"{label} 1", f"{label} 2"], ["x", "y"], [["1", "2"], ["3"]])


GOOD = Table.matrix(["r"], ["x", "y"], [["1", "2"]])


class TestToTuples:
    @settings(max_examples=400, deadline=None)
    @given(messy_tables())
    def test_equals_the_per_cell_reference(self, table):
        try:
            expected = reference_to_tuples(table)
        except InvalidTable as err:
            with pytest.raises(InvalidTable) as raised:
                to_tuples(table)
            assert raised.value.report == err.report
        else:
            assert to_tuples(table) == expected

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


class TestRaggedTablesRaise:
    @pytest.mark.parametrize("pred_bad, gold_bad", [(True, False), (False, True), (True, True)])
    def test_evaluate_sample_reports_pred_first(self, pred_bad, gold_bad):
        pred = ragged("pred") if pred_bad else GOOD
        gold = ragged("gold") if gold_bad else GOOD
        with pytest.raises(InvalidTable) as raised:
            evaluate_sample(pred, gold)
        assert raised.value.report == validate(pred if pred_bad else gold)

    @pytest.mark.parametrize("pred_bad, gold_bad", [(True, False), (False, True), (True, True)])
    def test_evaluate_corpus_reports_pred_first(self, pred_bad, gold_bad):
        pred = Table.matrix(["a", "b"], ["x"], [["1"]]) if pred_bad else GOOD
        gold = ragged("gold") if gold_bad else GOOD
        with pytest.raises(InvalidTable) as raised:
            evaluate_corpus([(GOOD, GOOD), (pred, gold)])
        assert raised.value.report == validate(pred if pred_bad else gold)


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
