from __future__ import annotations

import gzip
import json
import subprocess
import sys
from pathlib import Path

import pytest

from tabgen.corpus import (
    InvalidGoldTable,
    Sample,
    SchemaError,
    corpus_stats,
    fixture_path,
    list_fixtures,
    load_jsonl,
)
from tabgen.kinds import DatasetKind
from tabgen.table import Table, table_to_json

from .conftest import ALL_KINDS, load_example, load_mini

VALID_LINE = {
    "id": "s1",
    "text": "some passage",
    "table": {"orientation": "attribute_value", "rows": [{"header": "Name", "value": "x"}]},
}


def write_lines(path, lines):
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), "utf-8")


def sample_to_json(sample: Sample) -> dict:
    return {"id": sample.id, "text": sample.text, "table": table_to_json(sample.gold)}


def write_jsonl(records, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n")


class TestLoadJsonl:
    def test_loads_every_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        lines = [dict(VALID_LINE, id=f"s{i}") for i in range(3)]
        write_lines(path, lines)
        samples = load_jsonl(path, DatasetKind.E2E)
        assert [s.id for s in samples] == ["s0", "s1", "s2"]
        assert samples[0].gold.rows == (("Name", "x"),)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_jsonl(tmp_path / "nope.jsonl", DatasetKind.E2E)

    def test_ragged_gold_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        bad = {
            "id": "s2",
            "text": "passage",
            "table": {
                "orientation": "matrix",
                "row_headers": ["a"],
                "col_headers": ["x", "y"],
                "cells": [["1"]],
            },
        }
        write_lines(path, [VALID_LINE, bad])
        with pytest.raises(InvalidGoldTable) as excinfo:
            load_jsonl(path, DatasetKind.E2E)
        assert excinfo.value.line == 2

    def test_invalid_json_line_number(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps(VALID_LINE) + "\n{broken\n", "utf-8")
        with pytest.raises(SchemaError) as excinfo:
            load_jsonl(path, DatasetKind.E2E)
        assert excinfo.value.line == 2

    @pytest.mark.parametrize("missing", ["id", "text", "table"])
    def test_missing_field_rejected(self, tmp_path, missing):
        record = dict(VALID_LINE)
        del record[missing]
        path = tmp_path / "corpus.jsonl"
        write_lines(path, [record])
        with pytest.raises(SchemaError):
            load_jsonl(path, DatasetKind.E2E)

    def test_orientation_kind_mismatch_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_lines(path, [VALID_LINE])
        with pytest.raises(InvalidGoldTable):
            load_jsonl(path, DatasetKind.ROTOWIRE_TEAM)

    def test_duplicate_gold_headers_rejected(self, tmp_path):
        record = dict(
            VALID_LINE,
            table={
                "orientation": "attribute_value",
                "rows": [{"header": "Name", "value": "x"}, {"header": "name", "value": "y"}],
            },
        )
        path = tmp_path / "corpus.jsonl"
        write_lines(path, [record])
        with pytest.raises(InvalidGoldTable):
            load_jsonl(path, DatasetKind.E2E)

    def test_empty_file_returns_empty(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", "utf-8")
        assert load_jsonl(path, DatasetKind.E2E) == []

    def test_gzip_by_extension(self, tmp_path):
        path = tmp_path / "corpus.jsonl.gz"
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(json.dumps(VALID_LINE) + "\n")
        samples = load_jsonl(path, DatasetKind.E2E)
        assert len(samples) == 1

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text("\n" + json.dumps(VALID_LINE) + "\n\n", "utf-8")
        assert len(load_jsonl(path, DatasetKind.E2E)) == 1

    def test_reserialization_is_semantically_identical(self, tmp_path):
        original = load_mini(DatasetKind.ROTOWIRE_TEAM)
        out = tmp_path / "again.jsonl"
        write_jsonl([sample_to_json(s) for s in original], out)
        reloaded = load_jsonl(out, DatasetKind.ROTOWIRE_TEAM)
        assert reloaded == original


class TestCorpusStats:
    def test_bundled_mini_counts(self):
        for kind in ALL_KINDS:
            assert corpus_stats(load_mini(kind)).count == 10

    def test_shape_and_sparsity(self):
        table = Table.matrix(["a", "b"], ["x", "y"], [["1", None], ["2", "3"]])
        sample = Sample(id="s", text="t", gold=table, kind=DatasetKind.ROTOWIRE_TEAM)
        stats = corpus_stats([sample])
        kind, kind_stats = stats.by_kind[0]
        assert kind is DatasetKind.ROTOWIRE_TEAM
        assert kind_stats.mean_rows == 2.0
        assert kind_stats.mean_cols == 2.0
        assert kind_stats.sparsity == pytest.approx(0.25)

    def test_attribute_value_counts_one_column(self, e2e_sample):
        stats = corpus_stats([e2e_sample])
        _, kind_stats = stats.by_kind[0]
        assert kind_stats.mean_rows == 7.0
        assert kind_stats.mean_cols == 1.0

    def test_empty_corpus(self):
        stats = corpus_stats([])
        assert stats.count == 0
        assert stats.by_kind == ()

    def test_mixed_kinds_grouped(self):
        samples = [load_example(DatasetKind.E2E), load_example(DatasetKind.WIKIBIO)]
        stats = corpus_stats(samples)
        assert stats.count == 2
        assert [kind.value for kind, _ in stats.by_kind] == ["e2e", "wikibio"]

    def test_json_form(self, e2e_sample):
        payload = corpus_stats([e2e_sample]).to_json()
        assert payload["count"] == 1
        assert payload["by_kind"]["e2e"]["count"] == 1


class TestFixtures:
    def test_all_bundled_files_present(self):
        names = list_fixtures()
        for kind in ALL_KINDS:
            assert f"{kind.value}_example.jsonl" in names
            assert f"{kind.value}_mini.jsonl" in names

    def test_example_fixtures_load(self):
        for kind in ALL_KINDS:
            sample = load_example(kind)
            assert sample.kind is kind
            assert sample.text

    def test_fixture_path_exists(self):
        assert fixture_path("e2e_example.jsonl").exists()

    def test_the_generator_rebuilds_every_bundled_file(self, tmp_path):
        script = Path(__file__).resolve().parents[1] / "tools" / "build_fixtures.py"
        subprocess.run([sys.executable, str(script)], cwd=tmp_path, check=True, capture_output=True, timeout=120)
        built = tmp_path / "src" / "tabgen" / "fixtures"
        names = list_fixtures()
        assert len(names) == 10 and sorted(path.name for path in built.iterdir()) == names
        for name in names:
            assert (built / name).read_bytes() == fixture_path(name).read_bytes(), name
