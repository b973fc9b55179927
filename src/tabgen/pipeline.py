"""Two-stage table generation, the single-stage flat baseline, and incremental updates.

Stage one asks the backend for the table's headers and returns them as a
skeleton: a `Table` whose every cell is absent. Stage two synthesizes one
question per cell of a skeleton's grid, answers them in a single batch,
and assembles the table. Because the shape comes from the skeleton and
never from free-form generation, the output is structurally valid for any
backend behavior.

Generation and incremental update share one slot plan: a list of
(row index, column index) slots, asked in one batch by `_ask_slots` and
written into the grid that becomes the table's `cells`. Both layouts are
one grid (an attribute-value table is one row with no row header), so no
step converts between layouts. Generation plans every slot of the
skeleton's grid; an update plans only the slots a `SkeletonDelta` adds or
re-asks, over the old cells.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from tabgen.backends import BackendError, GenerationBackend, GenerationRequest, GenerationResponse
from tabgen.kinds import DatasetKind
from tabgen.prompts import (
    PromptTemplate,
    _blank,
    _fit,
    _require_slots,
    build_baseline_prompt,
    build_qa_prompt,  # noqa: F401 -- perfbench's tracer wraps tabgen.pipeline.build_qa_prompt
    build_structure_prompt,
    default_qa_template,
    detect_no_answer,
    extract_numeric,
    parse_structure_answer,
    question_alone,
    question_head,
)
from tabgen.table import Orientation, Table, _new_tuple, dedupe_headers, normalize_text, parse_flat


class CellTrace(NamedTuple):
    """What one cell was asked and answered: an immutable tuple."""

    row_header: str | None
    col_header: str
    question: str
    raw_answer: str | None
    value: str | None
    latency_ms: float | None
    error: str | None = None


@dataclass(frozen=True)
class GenerationTrace:
    """Per-cell record of what was asked and answered, plus stage timings."""

    cells: tuple[CellTrace, ...]
    structure_answer: str | None = None
    structure_ms: float = 0.0
    content_ms: float = 0.0


@dataclass(frozen=True)
class SkeletonDelta:
    """Incremental-update request: new headers and/or absent cells to re-ask."""

    add_row_headers: tuple[str, ...] = ()
    add_col_headers: tuple[str, ...] = ()
    reask: tuple[tuple[str | None, str], ...] = ()  # (row header or None, col header)

    def __post_init__(self):
        for name in ("add_row_headers", "add_col_headers", "reask"):
            if isinstance(getattr(self, name), str):
                raise TypeError(f"{name} must be a sequence, not a bare string")
        object.__setattr__(self, "add_row_headers", tuple(self.add_row_headers))
        object.__setattr__(self, "add_col_headers", tuple(self.add_col_headers))
        object.__setattr__(self, "reask", tuple(map(_reask_address, self.reask)))
        headers = [*self.add_row_headers, *self.add_col_headers, *(c for _, c in self.reask),
                   *(r for r, _ in self.reask if r is not None)]
        if not all(isinstance(h, str) for h in headers):
            raise TypeError("headers must be strings")

    def is_empty(self) -> bool:
        return not (self.add_row_headers or self.add_col_headers or self.reask)


def _reask_address(address: object) -> tuple:
    """A re-ask address as a pair; a string, or any other non-pair, is rejected by name."""
    if isinstance(address, str) or not isinstance(address, Sequence) or len(address) != 2:
        raise TypeError(f"re-ask address {address!r} must be a [row header, column header] pair")
    return tuple(address)


def _construct_structure_raw(
    passage: str,
    kind: DatasetKind,
    backend: GenerationBackend,
    template: PromptTemplate | None,
    max_input_tokens: int | None,
    headers_max_new_tokens: int,
) -> tuple[Table, str]:
    prompt = build_structure_prompt(passage, kind, template, max_input_tokens)
    response = backend.generate(GenerationRequest(prompt, max_new_tokens=headers_max_new_tokens))
    row_headers, col_headers = parse_structure_answer(response.text, kind.orientation)
    height = 1 if kind.orientation is Orientation.ATTRIBUTE_VALUE else len(row_headers)
    blank = ((None,) * len(col_headers),) * height
    return Table(kind.orientation, row_headers, col_headers, blank), response.text


def construct_structure(
    passage: str,
    kind: DatasetKind,
    backend: GenerationBackend,
    *,
    template: PromptTemplate | None = None,
    max_input_tokens: int | None = 2048,
    headers_max_new_tokens: int = 256,
) -> Table:
    """Stage one: one backend call, parsed into the table's de-duplicated headers.

    The result is a skeleton: a valid table of `kind`'s orientation whose
    every cell is absent, one row for an attribute-value table and one per
    row header for a matrix.
    """
    return _construct_structure_raw(
        passage, kind, backend, template, max_input_tokens, headers_max_new_tokens
    )[0]


def _postprocess(raw: str, numeric: bool) -> str | None:
    """Answer text to cell value: refusals become absent, numeric kinds keep the first number."""
    if detect_no_answer(raw):
        return None
    if numeric:
        number = extract_numeric(raw)
        return str(number) if number is not None else None
    value = raw.strip()
    return value or None


def _counted(text: str) -> tuple[str, int]:
    """`text` with its word count."""
    return text, len(text.split())


def _ask_slots(
    slots: list[tuple[int, int]],
    row_headers: Sequence[str],
    col_headers: Sequence[str],
    grid: list[list[str | None]],
    passage: str,
    kind: DatasetKind,
    backend: GenerationBackend,
    template: PromptTemplate | None,
    max_input_tokens: int | None,
    answer_max_new_tokens: int,
) -> tuple[list[str], list[GenerationResponse | BackendError]]:
    """Stage two's one dispatch point: one question per slot, all in one batch.

    A slot is (row index, column index) into `grid`; its row header is
    `row_headers[r]`, or None for an attribute-value table, whose slots
    all address its one row. Each post-processed answer is written into
    `grid`; a failed cell degrades to absent instead of aborting the
    table. An answer text that repeats within the batch (most box-score
    answers are small numbers) is post-processed once. Returns the
    questions and the raw results, aligned with `slots`. A slot under an
    empty column header is a ValueError, raised before any request is built.

    Each question is `formulate_question`'s and each prompt is byte for
    byte what `build_qa_prompt` builds, at the cost of a concatenation,
    a lookup and a join per slot. A question is its column's head plus
    its row's tail, `row header + "?"`; the head ends in a space, so the
    question's word count is the sum of theirs. The passage is cut to
    the budget each distinct word count leaves and filled into the
    template once per count, and a prompt is the question joined into
    that cut's `PromptTemplate.segments`. `truncate_passage` splits the
    passage into words only when its length does not already bound its
    estimate under that budget. A blank passage, a template without a
    question slot, or an `answer_max_new_tokens` below 1 is a ValueError,
    raised once per batch.
    """
    if "" in col_headers and (empty := [c for _, c in slots if not col_headers[c]]):
        raise ValueError(f"cannot ask under column header {min(empty)}, which is empty")
    if not slots:
        return [], []
    if _blank(passage):
        raise ValueError("passage must be non-empty")
    template = template or default_qa_template()
    _require_slots(template, asks=True)
    if answer_max_new_tokens < 1:
        raise ValueError("max_new_tokens must be >= 1")
    numeric = kind.numeric
    rows = row_headers or ("",)  # an attribute-value table's one row has no header
    # Each question piece with its word count, built when a slot first reads it: a
    # row's tail ("" for no row header), a column's head, or its question alone.
    tails: dict[int, tuple[str, int]] = {}
    heads: dict[int, tuple[str, int]] = {}
    alone: dict[int, tuple[str, int]] = {}
    cut: dict[int, list[str]] = {}  # question word count -> segments, passage cut beside it
    questions, requests = [], []
    for r, c in slots:
        tail = tails.get(r) or tails.setdefault(r, _counted(rows[r] + "?" if rows[r] else ""))
        if tail[0]:
            head = heads.get(c) or heads.setdefault(c, _counted(question_head(col_headers[c], numeric)))
        else:
            head = alone.get(c) or alone.setdefault(c, _counted(question_alone(col_headers[c])))
        words = head[1] + tail[1]
        segments = cut.get(words)
        if segments is None:
            segments = cut[words] = _fit(template, passage, max_input_tokens, words)
        question = head[0] + tail[0]
        questions.append(question)
        requests.append(_new_tuple(GenerationRequest, (question.join(segments), answer_max_new_tokens)))
    results = backend.generate_batch(requests)
    values: dict[str, str | None] = {}  # answer text -> cell value, for this batch only
    for (r, c), result in zip(slots, results):
        if isinstance(result, BackendError):
            grid[r][c] = None
            continue
        text = result.text
        if text not in values:
            values[text] = _postprocess(text, numeric)
        grid[r][c] = values[text]
    return questions, results


def generate_content(
    skeleton: Table,
    passage: str,
    kind: DatasetKind,
    backend: GenerationBackend,
    *,
    template: PromptTemplate | None = None,
    max_input_tokens: int | None = 2048,
    answer_max_new_tokens: int = 64,
) -> tuple[Table, GenerationTrace]:
    """Stage two: one batched round of questions, one answer per cell of the skeleton's grid.

    The skeleton's cell values are never read: only its orientation,
    headers and grid shape matter, so a filled table asks what its blank
    copy asks. The output table always has exactly the skeleton's shape,
    which is valid because every `Table` is; cells whose answer is a
    refusal, fails numeric extraction, or errors out are absent.
    """
    return _generate_content(skeleton, passage, kind, backend, template, max_input_tokens, answer_max_new_tokens)


def _generate_content(
    skeleton: Table, passage: str, kind: DatasetKind, backend: GenerationBackend,
    template: PromptTemplate | None, max_input_tokens: int | None, answer_max_new_tokens: int,
    structure_answer: str | None = None, structure_ms: float = 0.0,
) -> tuple[Table, GenerationTrace]:
    """`generate_content`, its trace carrying stage one's answer and time as given."""
    started = time.monotonic()
    rows, cols = skeleton.row_headers, skeleton.col_headers
    slots = [(r, c) for r in range(len(skeleton.cells)) for c in range(len(cols))]
    grid: list[list[str | None]] = [[None] * len(cols) for _ in skeleton.cells]
    questions, results = _ask_slots(
        slots, rows, cols, grid, passage, kind, backend, template, max_input_tokens,
        answer_max_new_tokens,
    )

    traces = []
    for (r, c), question, result in zip(slots, questions, results):
        row_header = rows[r] if rows else None
        if isinstance(result, BackendError):
            cell = (row_header, cols[c], question, None, None, None, str(result))
        else:
            cell = (row_header, cols[c], question, result.text, grid[r][c], result.latency_ms, None)
        traces.append(_new_tuple(CellTrace, cell))
    table = Table(skeleton.orientation, rows, cols, grid)
    content_ms = (time.monotonic() - started) * 1000.0
    return table, GenerationTrace(tuple(traces), structure_answer, structure_ms, content_ms)


def generate_table_traced(
    passage: str,
    kind: DatasetKind,
    backend: GenerationBackend,
    *,
    structure_template: PromptTemplate | None = None,
    qa_template: PromptTemplate | None = None,
    max_input_tokens: int | None = 2048,
    headers_max_new_tokens: int = 256,
    answer_max_new_tokens: int = 64,
    skeleton: Table | None = None,
) -> tuple[Table, GenerationTrace]:
    """Both stages end to end; pass a skeleton table to seed stage two directly.

    A seeding table's headers are used and its values are not read, so a
    gold table seeds gold-header generation as it is. NoHeaders (an
    unusable stage-one answer) is the only unrecoverable pipeline error.
    """
    structure_answer = None
    structure_ms = 0.0
    if skeleton is None:
        started = time.monotonic()
        skeleton, structure_answer = _construct_structure_raw(
            passage, kind, backend, structure_template, max_input_tokens, headers_max_new_tokens
        )
        structure_ms = (time.monotonic() - started) * 1000.0

    return _generate_content(
        skeleton, passage, kind, backend, qa_template, max_input_tokens, answer_max_new_tokens,
        structure_answer, structure_ms,
    )


def generate_table(
    passage: str, kind: DatasetKind, backend: GenerationBackend, **kwargs
) -> Table:
    table, _ = generate_table_traced(passage, kind, backend, **kwargs)
    return table


def baseline_generate(
    passage: str,
    kind: DatasetKind,
    backend: GenerationBackend,
    *,
    template: PromptTemplate | None = None,
    max_input_tokens: int | None = 2048,
    baseline_max_new_tokens: int = 512,
) -> Table:
    """Single-stage mode: the backend emits the whole table in flat format.

    The output is parsed verbatim with no repair, so StructuralError and
    EmptyInput propagate; they are the signal the error-rate metric
    counts.
    """
    prompt = build_baseline_prompt(passage, kind.orientation, template, max_input_tokens)
    response = backend.generate(GenerationRequest(prompt, max_new_tokens=baseline_max_new_tokens))
    return parse_flat(response.text, kind.orientation)


def _header_finder(headers: Sequence[str], what: str) -> Callable[[str], int]:
    """Look up a re-ask address header on one axis: by exact text first, then
    by normalized text when that names exactly one header.

    The axis's headers, and an address, are normalized only once an address
    misses by exact text, so addresses that all match exactly normalize nothing.
    """
    exact: dict[str, list[int]] = {}
    for i, header in enumerate(headers):
        exact.setdefault(header, []).append(i)
    normalized: dict[str, list[int]] | None = None

    def find(header: str) -> int:
        nonlocal normalized
        matches = exact.get(header)
        if not matches:
            if normalized is None:
                normalized = {}
                for i, known in enumerate(headers):
                    normalized.setdefault(normalize_text(known), []).append(i)
            matches = normalized.get(normalize_text(header), [])
        if not matches:
            raise ValueError(f"unknown {what} {header!r} in re-ask address")
        if len(matches) > 1:
            raise ValueError(f"{what} {header!r} in re-ask address matches {len(matches)} headers")
        return matches[0]

    return find


def _resolve_reask(
    table: Table, reask: tuple[tuple[str | None, str], ...]
) -> list[tuple[int, int]]:
    """Map re-ask addresses (by header text) to distinct slots, insisting they are absent.

    Slots keep the order their first address names them in.
    """
    attribute_value = table.orientation is Orientation.ATTRIBUTE_VALUE
    find_row = _header_finder(table.row_headers, "row header")
    find_col = _header_finder(table.col_headers, "header" if attribute_value else "column header")
    resolved: list[tuple[int, int]] = []
    for row_header, col_header in reask:
        if attribute_value and row_header not in (None, ""):
            raise ValueError("attribute-value re-ask addresses have no row header")
        if not attribute_value and row_header is None:
            raise ValueError("unknown row header None in re-ask address")
        r = 0 if attribute_value else find_row(row_header)
        c = find_col(col_header)
        if table.cells[r][c] is not None:
            cell = f"for {col_header!r}" if attribute_value else f"({row_header!r}, {col_header!r})"
            raise ValueError(f"cell {cell} is present; only absent cells can be re-asked")
        resolved.append((r, c))
    return list(dict.fromkeys(resolved))


def _fit_delta(table: Table, delta: SkeletonDelta) -> list[tuple[int, int]]:
    """The slots a delta re-asks, with no backend call; a delta that does not fit the table raises."""
    for header in (*delta.add_row_headers, *delta.add_col_headers):
        if not normalize_text(header):
            raise ValueError(f"added header {header!r} is blank")
    reask_slots = _resolve_reask(table, delta.reask)
    if table.orientation is Orientation.ATTRIBUTE_VALUE and delta.add_row_headers:
        raise ValueError("attribute-value tables have no row-header axis to extend")
    return reask_slots


def update_table(
    table: Table,
    delta: SkeletonDelta,
    new_passage: str,
    kind: DatasetKind,
    backend: GenerationBackend,
    *,
    template: PromptTemplate | None = None,
    max_input_tokens: int | None = 2048,
    answer_max_new_tokens: int = 64,
) -> Table:
    """Fill only new or designated slots against new evidence.

    Untouched cells are carried over unchanged and no questions are asked
    for them: the backend gets one call per distinct slot the delta adds
    or re-asks. The CPU work is that of the delta, plus one normalization
    pass over an axis that grows (its added headers are de-duplicated
    against the old ones), plus normalizing a lookup axis only when a
    re-ask address on it misses every header by exact text. An empty
    delta returns the table as is without any backend call; a blank
    added header is a ValueError.
    """
    reask_slots = _fit_delta(table, delta)
    if delta.is_empty():
        return table
    rows, cols = list(table.row_headers), list(table.col_headers)
    grid = [list(row) for row in table.cells]
    # Existing headers stay as they are; added ones are de-duplicated against
    # them, and the grid grows by absent cells to match.
    old_cols, old_height = len(cols), len(grid)
    if delta.add_col_headers:
        cols += dedupe_headers([*cols, *delta.add_col_headers])[old_cols:]
        padding = [None] * (len(cols) - old_cols)
        for row in grid:
            row += padding
    if delta.add_row_headers:
        rows += dedupe_headers([*rows, *delta.add_row_headers])[len(rows):]
        grid += [[None] * len(cols) for _ in delta.add_row_headers]

    # New rows × all columns, then existing rows × new columns, then re-asks.
    slots = [(r, c) for r in range(old_height, len(grid)) for c in range(len(cols))]
    slots += [(r, c) for r in range(old_height) for c in range(old_cols, len(cols))]
    slots += reask_slots
    _ask_slots(
        slots, rows, cols, grid, new_passage, kind, backend, template, max_input_tokens,
        answer_max_new_tokens,
    )
    return Table(table.orientation, rows, cols, grid)
