"""Dataset ingestion: JSONL samples with embedded canonical table JSON, plus statistics."""

from __future__ import annotations

import gzip
import json
from dataclasses import asdict, dataclass
from importlib import resources
from pathlib import Path
from typing import Sequence

from tabgen.kinds import DatasetKind
from tabgen.table import InvalidTable, Table, header_issues, table_from_json


class SchemaError(ValueError):
    """A corpus line does not match the sample schema."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class InvalidGoldTable(ValueError):
    """A corpus line parsed but its gold table is unusable."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


@dataclass(frozen=True)
class Sample:
    id: str
    text: str
    gold: Table
    kind: DatasetKind


@dataclass(frozen=True)
class KindStats:
    count: int
    mean_rows: float
    mean_cols: float
    sparsity: float


@dataclass(frozen=True)
class CorpusStats:
    count: int
    by_kind: tuple[tuple[DatasetKind, KindStats], ...]

    def to_json(self) -> dict:
        return {
            "count": self.count,
            # Every `KindStats` field is a number; rounding leaves the count an int.
            "by_kind": {
                kind.value: {key: round(value, 4) for key, value in asdict(stats).items()}
                for kind, stats in self.by_kind
            },
        }


def _open_text(path: Path):
    if path.suffix == ".gz":
        return gzip.open(path, "rt", encoding="utf-8")
    return open(path, encoding="utf-8")


def _sample_from_line(line_no: int, data: object, kind: DatasetKind) -> Sample:
    if not isinstance(data, dict):
        raise SchemaError(line_no, "each line must hold a JSON object")
    sample_id = data.get("id")
    if not isinstance(sample_id, str) or not sample_id:
        raise SchemaError(line_no, 'missing or empty "id"')
    text = data.get("text")
    if not isinstance(text, str) or not text.strip():
        raise SchemaError(line_no, 'missing or empty "text"')
    if "table" not in data:
        raise SchemaError(line_no, 'missing "table"')
    try:
        gold = table_from_json(data["table"])
    except InvalidTable as err:
        raise InvalidGoldTable(line_no, str(err)) from err
    except ValueError as err:
        raise SchemaError(line_no, f"bad table JSON: {err}") from err
    try:
        return Sample(id=sample_id, text=text, gold=table_of_kind(gold, kind), kind=kind)
    except ValueError as err:
        raise InvalidGoldTable(line_no, str(err)) from err


def table_of_kind(table: Table, kind: DatasetKind) -> Table:
    """`table`, if it can stand as a gold table of `kind`; a ValueError says why not.

    Its orientation must be `kind`'s, and no header may be blank or
    repeated after normalization. Every table read from outside the
    program, a corpus's gold or an `update` table file, passes this.
    """
    if table.orientation is not kind.orientation:
        raise ValueError(
            f"table orientation {table.orientation.value} does not match kind {kind.value}"
        )
    if issues := header_issues(table):
        raise ValueError("; ".join(issues))
    return table


def load_jsonl(path: str | Path, kind: DatasetKind) -> list[Sample]:
    """Load one sample per line; any malformed line is rejected with its line number.

    Gzip-compressed files are accepted by extension. An empty file yields
    an empty list, not an error; the caller decides what that means.
    """
    path = Path(path)
    samples: list[Sample] = []
    with _open_text(path) as handle:
        for line_no, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError as err:
                raise SchemaError(line_no, f"invalid JSON: {err}") from None
            samples.append(_sample_from_line(line_no, data, kind))
    return samples


def corpus_stats(samples: Sequence[Sample]) -> CorpusStats:
    """Counts and shape aggregates per dataset kind.

    Rows count data rows, columns count value columns (one for
    attribute-value tables); sparsity is the fraction of absent cells.
    """
    by_kind: dict[DatasetKind, list[Sample]] = {}
    for sample in samples:
        by_kind.setdefault(sample.kind, []).append(sample)

    entries = []
    for kind in sorted(by_kind, key=lambda k: k.value):
        group = by_kind[kind]
        shapes = [s.gold.shape for s in group]
        slots = sum(rows * cols for rows, cols in shapes)
        present = sum(s.gold.present_cell_count() for s in group)
        entries.append(
            (
                kind,
                KindStats(
                    count=len(group),
                    mean_rows=sum(rows for rows, _ in shapes) / len(group),
                    mean_cols=sum(cols for _, cols in shapes) / len(group),
                    sparsity=(slots - present) / slots if slots else 0.0,
                ),
            )
        )
    return CorpusStats(count=len(samples), by_kind=tuple(entries))


def fixture_path(name: str) -> Path:
    """Path to a bundled corpus fixture, e.g. "e2e_example.jsonl"."""
    return Path(str(resources.files("tabgen").joinpath("fixtures", name)))


def list_fixtures() -> list[str]:
    fixture_dir = resources.files("tabgen").joinpath("fixtures")
    return sorted(entry.name for entry in fixture_dir.iterdir() if entry.name.endswith(".jsonl"))
