"""Tests of the benchmark itself: its input generator and its output checks."""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import bench_inputs  # noqa: E402
from bench_checks import (  # noqa: E402
    exact_failures,
    same_cells,
    same_table,
    semantic_failures,
)
from tabgen import MockEmbedder, evaluate_corpus, table_from_json  # noqa: E402


@pytest.fixture(scope="module")
def boxscore():
    return bench_inputs.build("boxscore", 3)


@pytest.fixture(scope="module")
def many_small():
    return bench_inputs.build("many-small", 3)


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", bench_inputs.WORKLOADS)
def test_generator_is_byte_identical_for_a_seed(tmp_path, workload):
    bench_inputs.write(bench_inputs.build(workload, 7), tmp_path / "a")
    bench_inputs.write(bench_inputs.build(workload, 7), tmp_path / "b")
    bench_inputs.write(bench_inputs.build(workload, 8), tmp_path / "c")
    first = _files(tmp_path / "a")
    assert len(first) == 3 * len(bench_inputs.KINDS[workload])
    assert first == _files(tmp_path / "b")
    assert first != _files(tmp_path / "c")


def test_generator_command_takes_the_seed(tmp_path):
    subprocess.run(
        [sys.executable, str(HERE / "bench_inputs.py"), "--workload", "remote", "--seed", "7",
         "--out", str(tmp_path / "cli")],
        check=True, timeout=60,
    )
    bench_inputs.write(bench_inputs.build("remote", 7), tmp_path / "lib")
    assert _files(tmp_path / "cli") == _files(tmp_path / "lib")


def test_planted_duplicates_do_not_depend_on_the_seed(many_small):
    def planted(corpus):
        return sorted((r.id, r.text, str(r.gold)) for r in corpus.records() if r.planted)

    assert planted(many_small) == planted(bench_inputs.build("many-small", 4))
    for kind, records in many_small.by_kind.items():
        duplicates = [i for i, r in enumerate(records) if r.planted]
        assert len(duplicates) * 10 == len(records)
        for i in duplicates:
            key = records[i].text[:120]
            sources = [r for r in records[:i] if r.text.startswith(key)]
            assert len(sources) == 1 and sources[0].gold != records[i].gold


def _flip(table: dict) -> dict:
    """The table with its first present cell given another value."""
    table = copy.deepcopy(table)
    if table["orientation"] == "matrix":
        for row in table["cells"]:
            for c, value in enumerate(row):
                if value is not None:
                    row[c] = value + "1"
                    return table
    table["rows"][0]["value"] += " annex"
    return table


def _drop_row(table: dict) -> dict:
    table = copy.deepcopy(table)
    if table["orientation"] == "matrix":
        del table["row_headers"][-1]
        del table["cells"][-1]
    else:
        del table["rows"][-1]
    return table


def _records(boxscore, many_small):
    return [boxscore.by_kind["rotowire-team"][0], boxscore.by_kind["rotowire-player"][0],
            many_small.by_kind["e2e"][0]]


def test_table_check_rejects_a_flipped_cell_or_a_dropped_row(boxscore, many_small):
    for record in _records(boxscore, many_small):
        gold = record.gold
        assert same_table(table_from_json(gold), gold)
        assert not same_table(table_from_json(_flip(gold)), gold)
        assert not same_table(table_from_json(_drop_row(gold)), gold)


def test_update_check_ignores_row_order_but_not_content(boxscore, many_small):
    for record in _records(boxscore, many_small):
        gold = record.gold
        reordered = copy.deepcopy(gold)
        if gold["orientation"] == "matrix":
            reordered["row_headers"].reverse()
            reordered["cells"].reverse()
        else:
            reordered["rows"].reverse()
        assert same_cells(table_from_json(reordered), gold)
        assert not same_cells(table_from_json(_flip(gold)), gold)
        assert not same_cells(table_from_json(_drop_row(gold)), gold)


def _report(records, preds, embedder=None):
    pairs = [(table_from_json(p), table_from_json(r.gold)) for p, r in zip(preds, records)]
    return evaluate_corpus(pairs, ids=[r.id for r in records], embedder=embedder)


def test_exact_check_matches_the_bookkeeping_and_rejects_an_extra_change(boxscore):
    records = boxscore.by_kind["rotowire-team"]
    preds = [r.pred for r in records]
    assert exact_failures(_report(records, preds), records) == []
    i = next(i for i, r in enumerate(records) if r.pred == r.gold)
    for corrupt in (_flip, _drop_row):
        corrupted = preds[:i] + [corrupt(preds[i])] + preds[i + 1:]
        assert exact_failures(_report(records, corrupted), records) == [
            records[i].id, "<corpus mean>"]


def test_semantic_check_rejects_a_flipped_cell(boxscore):
    embedder = MockEmbedder()
    team = boxscore.by_kind["rotowire-team"]
    identical = next(r for r in team if r.pred == r.gold)
    changed = next(r for r in team if r.pred != r.gold)
    records = [identical, changed]
    recompute = {changed.id}
    preds = [r.pred for r in records]
    report = _report(records, preds, embedder)
    assert semantic_failures(report, records, embedder, recompute) == []
    for victim in (identical, changed):
        corrupted = [_flip(p) if r is victim else p for p, r in zip(preds, records)]
        report = _report(records, corrupted, embedder)
        assert semantic_failures(report, records, embedder, recompute) == [victim.id]


def test_metrics_match_the_benchmark_declaration():
    import run

    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text("utf-8"))
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in declared["workloads"]] == list(bench_inputs.WORKLOADS)
