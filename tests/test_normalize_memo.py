"""`evaluate_corpus` and `evaluate_sample` normalize each distinct string once per call.

The reference evaluator kept here normalizes every table on its own, as
the evaluator did before the per-call memo: headers once for the header
sets and again for the cell tuples, and shared texts again for every
table. The memoized evaluator must agree with it exactly on exact
scoring and within 1e-12 on semantic scoring.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tabgen.table
from tabgen.backends import MockEmbedder
from tabgen.corpus import fixture_path, load_jsonl
from tabgen.metrics import (
    PREDICTED_HEADERS,
    PRF,
    EvalReport,
    SampleEval,
    evaluate_corpus,
    evaluate_sample,
    exact_f1,
    semantic_score,
)
from tabgen.table import (
    CellTuple,
    Orientation,
    Table,
    normalize_text,
    to_tuples,
)

from .conftest import ALL_KINDS


def reference_to_tuples(table: Table) -> set[CellTuple]:
    """Per-table normalization: a fresh normalization of every header and value."""
    if table.orientation is Orientation.ATTRIBUTE_VALUE:
        return {
            CellTuple("", normalize_text(header), normalize_text(value))
            for header, value in table.rows
            if value is not None and normalize_text(value)
        }
    return {
        CellTuple(normalize_text(row_header), normalize_text(col_header), normalize_text(value))
        for row_header, row in zip(table.row_headers, table.cells)
        for col_header, value in zip(table.col_headers, row)
        if value is not None and normalize_text(value)
    }


def reference_header_sets(table: Table):
    if table.orientation is Orientation.ATTRIBUTE_VALUE:
        return {normalize_text(h) for h, _ in table.rows}, None, None
    rows = {normalize_text(h) for h in table.row_headers}
    cols = {normalize_text(h) for h in table.col_headers}
    return rows | cols, rows, cols


def mean(values: list[PRF]) -> PRF:
    n = len(values)
    return PRF(
        sum(v.precision for v in values) / n,
        sum(v.recall for v in values) / n,
        sum(v.f1 for v in values) / n,
    )


def reference_sample(pred: Table, gold: Table, sample_id: str, embedder) -> SampleEval:
    pred_all, pred_rows, pred_cols = reference_header_sets(pred)
    gold_all, gold_rows, gold_cols = reference_header_sets(gold)
    row_prf = col_prf = None
    if gold.orientation is Orientation.MATRIX and pred.orientation is Orientation.MATRIX:
        row_prf = exact_f1(pred_rows, gold_rows)
        col_prf = exact_f1(pred_cols, gold_cols)
        header_prf = mean([row_prf, col_prf])
    else:
        header_prf = exact_f1(pred_all, gold_all)
    pred_cells = reference_to_tuples(pred)
    gold_cells = reference_to_tuples(gold)

    semantic_header = semantic_cell = None
    if embedder is not None:
        def header_tokens(headers):
            return " ".join(sorted(headers)).split()

        def cell_tokens(cells):
            return " ".join(part for cell in sorted(cells) for part in cell if part).split()

        semantic_header = semantic_score(header_tokens(pred_all), header_tokens(gold_all), embedder)
        semantic_cell = semantic_score(cell_tokens(pred_cells), cell_tokens(gold_cells), embedder)
    return SampleEval(sample_id, False, header_prf, exact_f1(pred_cells, gold_cells),
                      row_prf, col_prf, semantic_header, semantic_cell)


def reference_corpus(pairs, embedder=None) -> EvalReport:
    ids = [str(i) for i in range(len(pairs))]
    zeros = PRF.zeros()
    samples = []
    for sample_id, (pred, gold) in zip(ids, pairs):
        if pred is None:
            matrix = gold.orientation is Orientation.MATRIX
            semantic = zeros if embedder is not None else None
            samples.append(SampleEval(sample_id, True, zeros, zeros, zeros if matrix else None,
                                      zeros if matrix else None, semantic, semantic))
        else:
            samples.append(reference_sample(pred, gold, sample_id, embedder))

    def optional(name):
        values = [getattr(s, name) for s in samples if getattr(s, name) is not None]
        return mean(values) if values else None

    return EvalReport(
        mode=PREDICTED_HEADERS,
        sample_count=len(samples),
        error_rate=sum(s.errored for s in samples) / len(samples),
        per_sample=tuple(samples),
        header=mean([s.header for s in samples]),
        cell=mean([s.cell for s in samples]),
        row_header=optional("row_header"),
        col_header=optional("col_header"),
        semantic_header=optional("semantic_header"),
        semantic_cell=optional("semantic_cell"),
    )


# A small pool of messy texts, so tables of one corpus share strings, and
# texts collide after normalization (quotes, whitespace runs, case) or
# normalize to nothing.
MESSY = st.one_of(
    st.sampled_from(["a", "A", " a ", '"a"', "'A'", "a  b", "A\tb", "a\nB", "", "  ", '""', "b", "B "]),
    st.text(alphabet="aAbB \t\n\"'“”«»", max_size=6),
)
VALUES = st.one_of(st.none(), MESSY)


@st.composite
def tables(draw) -> Table:
    """Structurally valid (never ragged) tables of either orientation."""
    if draw(st.booleans()):
        return Table.attribute_value(draw(st.lists(st.tuples(MESSY, VALUES), max_size=5)))
    rows = draw(st.lists(MESSY, max_size=4))
    cols = draw(st.lists(MESSY, max_size=4))
    return Table.matrix(rows, cols, [[draw(VALUES) for _ in cols] for _ in rows])


PAIRS = st.lists(st.tuples(st.one_of(st.none(), tables()), tables()), min_size=1, max_size=5)


def assert_reports_close(actual: EvalReport, expected: EvalReport, tolerance: float = 1e-12) -> None:
    def close(a: PRF | None, b: PRF | None) -> None:
        assert (a is None) == (b is None)
        if a is not None:
            assert abs(a.precision - b.precision) <= tolerance
            assert abs(a.recall - b.recall) <= tolerance
            assert abs(a.f1 - b.f1) <= tolerance

    fields = ("header", "cell", "row_header", "col_header", "semantic_header", "semantic_cell")
    assert actual.sample_count == expected.sample_count
    assert actual.error_rate == expected.error_rate
    for name in fields:
        close(getattr(actual, name), getattr(expected, name))
    for a, b in zip(actual.per_sample, expected.per_sample, strict=True):
        assert (a.sample_id, a.errored) == (b.sample_id, b.errored)
        for name in fields:
            close(getattr(a, name), getattr(b, name))


class TestAgreesWithPerTableNormalization:
    @settings(max_examples=300, deadline=None)
    @given(PAIRS)
    def test_exact_report_is_identical(self, pairs):
        report = evaluate_corpus(pairs)
        expected = reference_corpus(pairs)
        assert report == expected
        assert report.to_json_text() == expected.to_json_text()

    @settings(max_examples=100, deadline=None)
    @given(PAIRS)
    def test_semantic_report_is_within_1e12(self, pairs):
        embedder = MockEmbedder()
        assert_reports_close(evaluate_corpus(pairs, embedder=embedder),
                             reference_corpus(pairs, embedder))

    @settings(max_examples=100, deadline=None)
    @given(tables(), tables())
    def test_evaluate_sample_is_identical(self, pred, gold):
        assert evaluate_sample(pred, gold) == reference_sample(pred, gold, "", None)

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_bundled_fixtures_against_perturbed_predictions(self, kind):
        samples = [
            *load_jsonl(fixture_path(f"{kind.value}_example.jsonl"), kind),
            *load_jsonl(fixture_path(f"{kind.value}_mini.jsonl"), kind),
        ]
        pairs = [(gold, gold) for gold in (s.gold for s in samples)]
        pairs += [(perturb(s.gold, i), s.gold) for i, s in enumerate(samples)]
        pairs.append((None, samples[0].gold))
        assert evaluate_corpus(pairs).to_json_text() == reference_corpus(pairs).to_json_text()
        embedder = MockEmbedder()
        assert_reports_close(evaluate_corpus(pairs, embedder=embedder),
                             reference_corpus(pairs, embedder))


def perturb(table: Table, seed: int) -> Table:
    """Re-case, re-quote and re-space some texts, drop a value, and change another."""
    def messy(text: str, i: int) -> str:
        return [text.upper(), f' "{text}" ', text.replace(" ", "  "), text][(seed + i) % 4]

    if table.orientation is Orientation.ATTRIBUTE_VALUE:
        rows = [(messy(h, i), None if i == seed % len(table.rows) else v and messy(v, i + 1))
                for i, (h, v) in enumerate(table.rows)]
        return Table.attribute_value(rows)
    cells = [[None if (r + c + seed) % 7 == 0 else v and (f"{v}0" if (r * c) % 5 == 1 else messy(v, c))
              for c, v in enumerate(row)]
             for r, row in enumerate(table.cells)]
    return Table.matrix([messy(h, i) for i, h in enumerate(table.row_headers)],
                        list(table.col_headers), cells)


def counting_normalize(monkeypatch) -> list[str]:
    calls: list[str] = []

    def counted(text: str) -> str:
        calls.append(text)
        return normalize_text(text)

    monkeypatch.setattr(tabgen.table, "normalize_text", counted)
    return calls


def distinct_texts(pairs) -> set[str]:
    texts: set[str] = set()
    for pair in pairs:
        for table in pair:
            if table is None:
                continue
            if table.orientation is Orientation.ATTRIBUTE_VALUE:
                texts.update(h for h, _ in table.rows)
                texts.update(v for _, v in table.rows if v is not None)
            else:
                texts.update(table.row_headers, table.col_headers)
                texts.update(v for row in table.cells for v in row if v is not None)
    return texts


PLAYERS = [f"Player {r}" for r in range(12)]
STATS = ["Points", "Rebounds", "Assists", "Steals"]


def box_score(shift: int) -> Table:
    return Table.matrix(PLAYERS, STATS, [[str((r + c + shift) % 9) for c in range(4)] for r in range(12)])


class TestNormalizationCount:
    PAIRS = [(box_score(s), box_score(0)) for s in range(6)] + [
        (Table.attribute_value([("Name", "The Eagle"), ("Food", "Japanese")]),
         Table.attribute_value([("name", '"The Eagle"'), ("Food", "japanese"), ("Area", None)])),
    ]

    def test_one_call_normalizes_each_distinct_string_at_most_once(self, monkeypatch):
        expected = reference_corpus(self.PAIRS)
        calls = counting_normalize(monkeypatch)
        assert evaluate_corpus(self.PAIRS) == expected
        assert len(calls) == len(set(calls))
        assert len(calls) <= len(distinct_texts(self.PAIRS))

    def test_nothing_is_kept_across_calls(self, monkeypatch):
        calls = counting_normalize(monkeypatch)
        evaluate_corpus(self.PAIRS)
        first = len(calls)
        evaluate_corpus(self.PAIRS)
        assert first > 0 and len(calls) == 2 * first

    def test_evaluate_sample_normalizes_each_header_once(self, monkeypatch):
        pred, gold = box_score(1), box_score(0)
        calls = counting_normalize(monkeypatch)
        evaluate_sample(pred, gold)
        assert sorted(calls) == sorted(distinct_texts([(pred, gold)]))
        evaluate_sample(pred, gold)
        assert len(calls) == 2 * len(distinct_texts([(pred, gold)]))


class TestToTuplesStillReturnsCellTuples:
    def test_matrix(self):
        table = Table.matrix([" Hawks "], ['"Wins"', "Losses"], [["  46 ", None]])
        [cell] = to_tuples(table)
        assert type(cell) is CellTuple
        assert (cell.row_header, cell.col_header, cell.value) == ("hawks", "wins", "46")

    def test_attribute_value(self):
        tuples = to_tuples(Table.attribute_value([("Name", "The  Eagle"), ("Food", None)]))
        assert [type(t) for t in tuples] == [CellTuple]
        assert [(t.row_header, t.col_header, t.value) for t in tuples] == [("", "name", "the eagle")]

    def test_each_distinct_string_once_per_call(self, monkeypatch):
        table = Table.matrix(["a", "A"], ["x", "x "], [["1", "1"], ["1", "2"]])
        calls = counting_normalize(monkeypatch)
        to_tuples(table)
        assert Counter(calls) == Counter(["a", "A", "x", "x ", "1", "2"])
        to_tuples(table)
        assert len(calls) == 12
