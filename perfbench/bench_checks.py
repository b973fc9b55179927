"""Output checks for every phase, computed apart from the program.

Each check compares a program output with facts the input generator
recorded (`bench_inputs.Record`), using this file's own canonical form,
normalization and similarity arithmetic rather than the program's. A
check returns True when the output is right.
"""

from __future__ import annotations

import json

import numpy as np

_QUOTES = "\"'`“”‘’«»"
TOLERANCE_EXACT = 1e-12
TOLERANCE_SEMANTIC = 1e-9


def canon(table) -> dict:
    """A program `Table` in the corpus JSON form, read off its public fields."""
    if table.orientation.value == "matrix":
        return {
            "orientation": "matrix",
            "row_headers": list(table.row_headers),
            "col_headers": list(table.col_headers),
            "cells": [list(row) for row in table.cells],
        }
    return {"orientation": "attribute_value",
            "rows": [{"header": h, "value": v} for h, v in table.rows]}


def same_table(table, gold: dict) -> bool:
    """Generation and baseline: the output is the gold table, cell for cell."""
    return json.dumps(canon(table), sort_keys=True) == json.dumps(gold, sort_keys=True)


def _cells(table: dict) -> set:
    if table["orientation"] == "matrix":
        return {(r, c, v) for r, row in zip(table["row_headers"], table["cells"])
                for c, v in zip(table["col_headers"], row) if v is not None}
    return {("", row["header"], row["value"]) for row in table["rows"] if row["value"] is not None}


def _headers(table: dict) -> tuple:
    if table["orientation"] == "matrix":
        return sorted(table["row_headers"]), sorted(table["col_headers"])
    return (), sorted(row["header"] for row in table["rows"])


def same_cells(table, gold: dict) -> bool:
    """Update: the output has the gold headers and present cells, in any row order."""
    out = canon(table)
    return (out["orientation"] == gold["orientation"] and _headers(out) == _headers(gold)
            and _cells(out) == _cells(gold))


def _norm(text: str) -> str:
    return " ".join(text.strip().strip(_QUOTES).lower().split())


def _present(table: dict) -> int:
    """Cells that count as tuples: present and non-empty after normalization."""
    return sum(1 for _, _, v in _cells(table) if _norm(v))


def expected_cell_prf(record) -> tuple[float, float]:
    """Cell precision and recall implied by the changed and dropped counts.

    The prediction keeps every header, so of the gold table's n tuples it
    keeps n - dropped, of which n - dropped - changed still match.
    """
    n = _present(record.gold)
    predicted = n - record.dropped
    overlap = predicted - record.changed
    precision = overlap / predicted if predicted else 0.0
    recall = overlap / n if n else 0.0
    return precision, recall


def _close(a: float, b: float, tolerance: float) -> bool:
    return abs(a - b) <= tolerance


def exact_failures(report, records) -> list[str]:
    """Exact evaluation: ids whose scores differ from the bookkeeping.

    Headers are never changed, so every header score is 1; the corpus
    cell score must be the mean of the per-sample expectations.
    """
    failed = []
    expected = [expected_cell_prf(r) for r in records]
    for record, sample, (precision, recall) in zip(records, report.per_sample, expected):
        if (sample.sample_id != record.id or sample.errored
                or not _close(sample.cell.precision, precision, TOLERANCE_EXACT)
                or not _close(sample.cell.recall, recall, TOLERANCE_EXACT)
                or not _close(sample.header.precision, 1.0, TOLERANCE_EXACT)
                or not _close(sample.header.recall, 1.0, TOLERANCE_EXACT)):
            failed.append(record.id)
    if len(report.per_sample) != len(records):
        failed.append("<sample count>")
    mean_p = sum(p for p, _ in expected) / len(expected)
    mean_r = sum(r for _, r in expected) / len(expected)
    if not (_close(report.cell.precision, mean_p, TOLERANCE_EXACT)
            and _close(report.cell.recall, mean_r, TOLERANCE_EXACT)):
        failed.append("<corpus mean>")
    return failed


def header_tokens(table: dict) -> list[str]:
    if table["orientation"] == "matrix":
        headers = {_norm(h) for h in table["row_headers"] + table["col_headers"]}
    else:
        headers = {_norm(row["header"]) for row in table["rows"]}
    return " ".join(sorted(headers)).split()


def cell_tokens(table: dict) -> list[str]:
    parts = []
    for r, c, v in sorted({(_norm(r), _norm(c), _norm(v)) for r, c, v in _cells(table)}):
        if v:
            parts.extend(p for p in (r, c, v) if p)
    return " ".join(parts).split()


def greedy_cosine(candidate: list[str], reference: list[str], embedder) -> tuple[float, float]:
    """Greedy max-cosine precision and recall over the embedder's token vectors."""
    if not candidate or not reference:
        return 0.0, 0.0
    cand = np.array(embedder.embed(candidate, mode="token").vectors, dtype=float)
    ref = np.array(embedder.embed(reference, mode="token").vectors, dtype=float)
    cand /= np.linalg.norm(cand, axis=1, keepdims=True)
    ref /= np.linalg.norm(ref, axis=1, keepdims=True)
    similarity = cand @ ref.T
    precision = float(np.clip(similarity.max(axis=1).mean(), 0.0, 1.0))
    recall = float(np.clip(similarity.max(axis=0).mean(), 0.0, 1.0))
    return precision, recall


def semantic_failures(report, records, embedder, recompute: set) -> list[str]:
    """Semantic evaluation: ids whose scores are wrong.

    A prediction identical to its gold table must score 1 on headers and
    cells. For the ids in `recompute`, the scores must match a plain
    NumPy recomputation from the embedder's vectors.
    """
    failed = []
    for record, sample in zip(records, report.per_sample):
        scores = (sample.semantic_header, sample.semantic_cell)
        if sample.sample_id != record.id or sample.errored or None in scores:
            failed.append(record.id)
            continue
        expected = []
        if record.pred == record.gold:
            expected = [(1.0, 1.0), (1.0, 1.0)]
        elif record.id in recompute:
            expected = [
                greedy_cosine(header_tokens(record.pred), header_tokens(record.gold), embedder),
                greedy_cosine(cell_tokens(record.pred), cell_tokens(record.gold), embedder),
            ]
        for score, (precision, recall) in zip(scores, expected):
            if not (_close(score.precision, precision, TOLERANCE_SEMANTIC)
                    and _close(score.recall, recall, TOLERANCE_SEMANTIC)):
                failed.append(record.id)
                break
    if len(report.per_sample) != len(records):
        failed.append("<sample count>")
    return failed
