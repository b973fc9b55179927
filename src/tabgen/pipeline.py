"""Two-stage table generation, the single-stage flat baseline, and incremental updates.

Stage one asks the backend for the table's headers and parses them into a
skeleton. Stage two synthesizes one question per skeleton slot, answers
them in a single batch, and assembles the table. Because the shape comes
from the skeleton and never from free-form generation, the output is
structurally valid for any backend behavior.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from tabgen.backends import BackendError, GenerationBackend, GenerationRequest
from tabgen.kinds import DatasetKind
from tabgen.prompts import (
    CellQuestion,
    PromptTemplate,
    build_baseline_prompt,
    build_qa_prompt,
    build_structure_prompt,
    default_qa_template,
    detect_no_answer,
    estimate_tokens,
    extract_numeric,
    formulate_question,
    parse_structure_answer,
    questions_for_headers,
    truncate_passage,
)
from tabgen.table import (
    InvalidTable,
    Orientation,
    Table,
    dedupe_headers,
    normalize_text,
    parse_flat,
    validate,
)


@dataclass(frozen=True)
class TableSkeleton:
    """Headers only: stage-one output, stage-two input.

    Attribute-value skeletons keep their attribute headers in
    `col_headers` (they address cells the way column headers do) and have
    no row axis.
    """

    orientation: Orientation
    row_headers: tuple[str, ...] = ()
    col_headers: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "row_headers", tuple(self.row_headers))
        object.__setattr__(self, "col_headers", tuple(self.col_headers))

    @property
    def slot_count(self) -> int:
        if self.orientation is Orientation.ATTRIBUTE_VALUE:
            return len(self.col_headers)
        return len(self.row_headers) * len(self.col_headers)


def skeleton_from_table(table: Table) -> TableSkeleton:
    """Gold-header seeding: lift an existing table's headers into a skeleton."""
    if table.orientation is Orientation.ATTRIBUTE_VALUE:
        return TableSkeleton(
            orientation=table.orientation,
            col_headers=tuple(header for header, _ in table.rows),
        )
    return TableSkeleton(
        orientation=table.orientation,
        row_headers=table.row_headers,
        col_headers=table.col_headers,
    )


@dataclass(frozen=True)
class CellTrace:
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
        object.__setattr__(self, "add_row_headers", tuple(self.add_row_headers))
        object.__setattr__(self, "add_col_headers", tuple(self.add_col_headers))
        object.__setattr__(self, "reask", tuple((r, c) for r, c in self.reask))

    def is_empty(self) -> bool:
        return not (self.add_row_headers or self.add_col_headers or self.reask)


def _construct_structure_raw(
    passage: str,
    kind: DatasetKind,
    backend: GenerationBackend,
    template: PromptTemplate | None,
    max_input_tokens: int | None,
    headers_max_new_tokens: int,
) -> tuple[TableSkeleton, str]:
    prompt = build_structure_prompt(passage, kind, template, max_input_tokens)
    response = backend.generate(GenerationRequest(prompt, max_new_tokens=headers_max_new_tokens))
    row_headers, col_headers = parse_structure_answer(response.text, kind.orientation)
    skeleton = TableSkeleton(
        orientation=kind.orientation, row_headers=row_headers, col_headers=col_headers
    )
    return skeleton, response.text


def construct_structure(
    passage: str,
    kind: DatasetKind,
    backend: GenerationBackend,
    *,
    template: PromptTemplate | None = None,
    max_input_tokens: int | None = 2048,
    headers_max_new_tokens: int = 256,
) -> TableSkeleton:
    """Stage one: one backend call, parsed into a de-duplicated header skeleton."""
    skeleton, _ = _construct_structure_raw(
        passage, kind, backend, template, max_input_tokens, headers_max_new_tokens
    )
    return skeleton


def _postprocess(raw: str, numeric: bool) -> str | None:
    """Answer text to cell value: refusals become absent, numeric kinds keep the first number."""
    if detect_no_answer(raw):
        return None
    if numeric:
        number = extract_numeric(raw)
        return str(number) if number is not None else None
    value = raw.strip()
    return value or None


def _qa_requests(
    questions: list[str],
    passage: str,
    template: PromptTemplate | None,
    max_input_tokens: int | None,
    answer_max_new_tokens: int,
) -> list[GenerationRequest]:
    """One request per question, each prompt exactly as `build_qa_prompt` builds it.

    The passage is cut to the budget here, once per distinct question
    length, instead of being word-counted again for every question; each
    question is word-counted once, and `build_qa_prompt`, given no budget,
    counts nothing.
    """
    template = template or default_qa_template()
    cut: dict[int, str] = {}  # question token estimate -> passage as cut beside it
    requests = []
    for question in questions:
        length = estimate_tokens(question)
        if length not in cut:
            overhead = template.overhead_tokens() + length
            cut[length] = truncate_passage(passage, max_input_tokens, overhead)
        prompt = build_qa_prompt(cut[length], question, template)
        requests.append(GenerationRequest(prompt, max_new_tokens=answer_max_new_tokens))
    return requests


def _answer_questions(
    questions: list[CellQuestion],
    passage: str,
    kind: DatasetKind,
    backend: GenerationBackend,
    skeleton: TableSkeleton,
    template: PromptTemplate | None,
    max_input_tokens: int | None,
    answer_max_new_tokens: int,
) -> tuple[list[str | None], list[CellTrace]]:
    requests = _qa_requests(
        [q.question for q in questions], passage, template, max_input_tokens, answer_max_new_tokens
    )
    results = backend.generate_batch(requests) if requests else []

    values: list[str | None] = []
    traces: list[CellTrace] = []
    for question, result in zip(questions, results):
        row_header = (
            skeleton.row_headers[question.row_index] if question.row_index is not None else None
        )
        col_header = skeleton.col_headers[question.col_index]
        if isinstance(result, BackendError):
            # A failed cell degrades to absent instead of aborting the table.
            values.append(None)
            traces.append(
                CellTrace(row_header, col_header, question.question, None, None, None, str(result))
            )
            continue
        value = _postprocess(result.text, kind.numeric)
        values.append(value)
        traces.append(
            CellTrace(row_header, col_header, question.question, result.text, value, result.latency_ms)
        )
    return values, traces


def generate_content(
    skeleton: TableSkeleton,
    passage: str,
    kind: DatasetKind,
    backend: GenerationBackend,
    *,
    template: PromptTemplate | None = None,
    max_input_tokens: int | None = 2048,
    answer_max_new_tokens: int = 64,
) -> tuple[Table, GenerationTrace]:
    """Stage two: one batched round of questions, one answer per skeleton slot.

    The output table always has exactly the skeleton's shape; cells whose
    answer is a refusal, fails numeric extraction, or errors out are
    absent.
    """
    started = time.monotonic()
    questions = questions_for_headers(
        skeleton.orientation, skeleton.row_headers, skeleton.col_headers, kind.numeric
    )
    values, traces = _answer_questions(
        questions, passage, kind, backend, skeleton, template, max_input_tokens, answer_max_new_tokens
    )

    if skeleton.orientation is Orientation.ATTRIBUTE_VALUE:
        table = Table.attribute_value(list(zip(skeleton.col_headers, values)))
    else:
        width = len(skeleton.col_headers)
        grid = [values[i * width : (i + 1) * width] for i in range(len(skeleton.row_headers))]
        table = Table.matrix(skeleton.row_headers, skeleton.col_headers, grid)

    trace = GenerationTrace(cells=tuple(traces), content_ms=(time.monotonic() - started) * 1000.0)
    return table, trace


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
    skeleton: TableSkeleton | None = None,
) -> tuple[Table, GenerationTrace]:
    """Both stages end to end; pass a skeleton to seed stage two directly.

    NoHeaders (an unusable stage-one answer) is the only unrecoverable
    pipeline error.
    """
    structure_answer = None
    structure_ms = 0.0
    if skeleton is None:
        started = time.monotonic()
        skeleton, structure_answer = _construct_structure_raw(
            passage, kind, backend, structure_template, max_input_tokens, headers_max_new_tokens
        )
        structure_ms = (time.monotonic() - started) * 1000.0

    table, trace = generate_content(
        skeleton,
        passage,
        kind,
        backend,
        template=qa_template,
        max_input_tokens=max_input_tokens,
        answer_max_new_tokens=answer_max_new_tokens,
    )
    return table, GenerationTrace(
        cells=trace.cells,
        structure_answer=structure_answer,
        structure_ms=structure_ms,
        content_ms=trace.content_ms,
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


def _resolve_reask(
    table: Table, reask: tuple[tuple[str | None, str], ...]
) -> list[tuple[int | None, int]]:
    """Map re-ask addresses (by header text) to slot indices, insisting they are absent."""
    resolved: list[tuple[int | None, int]] = []
    if table.orientation is Orientation.ATTRIBUTE_VALUE:
        headers = {normalize_text(h): i for i, (h, _) in enumerate(table.rows)}
        for row_header, col_header in reask:
            if row_header not in (None, ""):
                raise ValueError("attribute-value re-ask addresses have no row header")
            index = headers.get(normalize_text(col_header))
            if index is None:
                raise ValueError(f"unknown header {col_header!r} in re-ask address")
            if table.rows[index][1] is not None:
                raise ValueError(f"cell for {col_header!r} is present; only absent cells can be re-asked")
            resolved.append((None, index))
        return resolved

    row_index = {normalize_text(h): i for i, h in enumerate(table.row_headers)}
    col_index = {normalize_text(h): i for i, h in enumerate(table.col_headers)}
    for row_header, col_header in reask:
        r = None if row_header is None else row_index.get(normalize_text(row_header))
        if r is None:
            raise ValueError(f"unknown row header {row_header!r} in re-ask address")
        c = col_index.get(normalize_text(col_header))
        if c is None:
            raise ValueError(f"unknown column header {col_header!r} in re-ask address")
        if table.cells[r][c] is not None:
            raise ValueError(
                f"cell ({row_header!r}, {col_header!r}) is present; only absent cells can be re-asked"
            )
        resolved.append((r, c))
    return resolved


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
    for them, so the cost is exactly the delta size. An empty delta
    returns the table as is without any backend call.
    """
    report = validate(table)
    if not report.valid:
        raise InvalidTable(report)
    if delta.is_empty():
        return table

    numeric = kind.numeric
    reask_slots = _resolve_reask(table, delta.reask)

    if table.orientation is Orientation.ATTRIBUTE_VALUE:
        if delta.add_row_headers:
            raise ValueError("attribute-value tables have no row-header axis to extend")
        existing = [h for h, _ in table.rows]
        combined = dedupe_headers([*existing, *delta.add_col_headers])
        new_headers = combined[len(existing):]

        # (target, index, question): new attribute slots first, then re-asks.
        plan: list[tuple[str, int, str]] = []
        for offset, header in enumerate(new_headers):
            plan.append(("new", offset, formulate_question(None, header)))
        for _, index in reask_slots:
            header = table.rows[index][0]
            plan.append(("reask", index, formulate_question(None, header)))

        answers = _batched_answers(
            [q for _, _, q in plan], new_passage, backend, template, max_input_tokens,
            answer_max_new_tokens, numeric,
        )

        rows = list(table.rows)
        appended: list[tuple[str, str | None]] = []
        for (target, index, _), value in zip(plan, answers):
            if target == "new":
                appended.append((new_headers[index], value))
            else:
                rows[index] = (rows[index][0], value)
        return Table.attribute_value(rows + appended)

    existing_rows = list(table.row_headers)
    existing_cols = list(table.col_headers)
    combined_rows = dedupe_headers([*existing_rows, *delta.add_row_headers])
    combined_cols = dedupe_headers([*existing_cols, *delta.add_col_headers])
    new_rows = combined_rows[len(existing_rows):]
    new_cols = combined_cols[len(existing_cols):]

    plan_matrix: list[tuple[int, int, str]] = []
    for i, row_header in enumerate(new_rows):
        r = len(existing_rows) + i
        for c, col_header in enumerate(combined_cols):
            plan_matrix.append((r, c, formulate_question(row_header, col_header, numeric)))
    for r, row_header in enumerate(existing_rows):
        for j, col_header in enumerate(new_cols):
            c = len(existing_cols) + j
            plan_matrix.append((r, c, formulate_question(row_header, col_header, numeric)))
    for r, c in reask_slots:
        plan_matrix.append(
            (r, c, formulate_question(existing_rows[r], existing_cols[c], numeric))
        )

    answers = _batched_answers(
        [q for _, _, q in plan_matrix], new_passage, backend, template, max_input_tokens,
        answer_max_new_tokens, numeric,
    )

    grid: list[list[str | None]] = [
        [*row, *([None] * len(new_cols))] for row in table.cells
    ]
    grid.extend([[None] * len(combined_cols) for _ in new_rows])
    for (r, c, _), value in zip(plan_matrix, answers):
        grid[r][c] = value
    return Table.matrix(combined_rows, combined_cols, grid)


def _batched_answers(
    questions: list[str],
    passage: str,
    backend: GenerationBackend,
    template: PromptTemplate | None,
    max_input_tokens: int | None,
    answer_max_new_tokens: int,
    numeric: bool,
) -> list[str | None]:
    if not questions:
        return []
    requests = _qa_requests(questions, passage, template, max_input_tokens, answer_max_new_tokens)
    results = backend.generate_batch(requests)
    values: list[str | None] = []
    for result in results:
        if isinstance(result, BackendError):
            values.append(None)
        else:
            values.append(_postprocess(result.text, numeric))
    return values
