from __future__ import annotations

import gzip
import json
import os
import subprocess
import sys
import threading
from importlib.resources import files
from pathlib import Path

import pytest

from tabgen import cli
from tabgen.backends import (
    BackendConfig,
    CachedBackend,
    FixtureStore,
    GenerationRequest,
    MockOracleBackend,
)
from tabgen.cli import dispatch
from tabgen.corpus import fixture_path, load_jsonl
from tabgen.kinds import DatasetKind
from tabgen.pipeline import generate_table_traced
from tabgen.prompts import build_structure_prompt
from tabgen.table import table_from_json

from .conftest import DelayedBackend

E2E_EXAMPLE = str(fixture_path("e2e_example.jsonl"))
TEAM_EXAMPLE = str(fixture_path("rotowire-team_example.jsonl"))
E2E_MINI = str(fixture_path("e2e_mini.jsonl"))
TEAM_MINI = str(fixture_path("rotowire-team_mini.jsonl"))


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text("utf-8").splitlines() if line]


def hand_built_trace_record(sample_id: str, trace) -> dict:
    """The trace record as it was written field by field, kept as the reference."""
    return {
        "id": sample_id,
        "structure_answer": trace.structure_answer,
        "structure_ms": round(trace.structure_ms, 3),
        "content_ms": round(trace.content_ms, 3),
        "cells": [
            {
                "row_header": c.row_header,
                "col_header": c.col_header,
                "question": c.question,
                "raw_answer": c.raw_answer,
                "value": c.value,
                "latency_ms": c.latency_ms,
                "error": c.error,
            }
            for c in trace.cells
        ],
    }


class TestGenerate:
    def test_oracle_generation_writes_predictions(self, tmp_path):
        out = tmp_path / "preds.jsonl"
        code = dispatch(
            ["generate", "--kind", "e2e", "--backend", "mock-oracle", "--in", E2E_EXAMPLE,
             "--out", str(out)]
        )
        assert code == 0
        records = read_jsonl(out)
        assert len(records) == 1
        table = table_from_json(records[0]["table"])
        assert ("Name", "The Eagle") in table.rows

    def test_generate_then_evaluate_scores_one(self, tmp_path, capsys):
        out = tmp_path / "preds.jsonl"
        assert dispatch(
            ["generate", "--kind", "rotowire-team", "--backend", "mock-oracle",
             "--in", TEAM_EXAMPLE, "--out", str(out)]
        ) == 0
        code = dispatch(
            ["evaluate", "--kind", "rotowire-team", "--pred", str(out), "--gold", TEAM_EXAMPLE,
             "--format", "json"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["cell"]["f1"] == 1.0
        assert report["header"]["f1"] == 1.0
        assert report["error_rate"] == 0.0

    def test_trace_file_has_one_record_per_cell(self, tmp_path):
        out = tmp_path / "preds.jsonl"
        trace = tmp_path / "trace.jsonl"
        dispatch(
            ["generate", "--kind", "rotowire-team", "--backend", "mock-oracle",
             "--in", TEAM_EXAMPLE, "--out", str(out), "--trace", str(trace)]
        )
        records = read_jsonl(trace)
        assert len(records[0]["cells"]) == 8
        assert records[0]["structure_answer"]

    def test_trace_lines_equal_the_hand_built_records(self, tmp_path, monkeypatch):
        traces = []

        def recording(*args, **kwargs):
            table, trace = generate_table_traced(*args, **kwargs)
            traces.append(trace)
            return table, trace

        monkeypatch.setattr(cli, "generate_table_traced", recording)
        trace_path = tmp_path / "trace.jsonl"
        assert dispatch(
            ["generate", "--kind", "rotowire-team", "--backend", "mock-oracle",
             "--in", TEAM_MINI, "--out", str(tmp_path / "preds.jsonl"), "--trace", str(trace_path)]
        ) == 0
        samples = load_jsonl(TEAM_MINI, DatasetKind.ROTOWIRE_TEAM)
        assert len(traces) == len(samples) > 1
        expected = "".join(
            json.dumps(hand_built_trace_record(s.id, t), sort_keys=True, ensure_ascii=False) + "\n"
            for s, t in zip(samples, traces)
        )
        assert trace_path.read_text("utf-8") == expected

    def test_gold_headers_skips_stage_one(self, tmp_path):
        out = tmp_path / "preds.jsonl"
        trace = tmp_path / "trace.jsonl"
        code = dispatch(
            ["generate", "--kind", "rotowire-team", "--backend", "mock-oracle",
             "--in", TEAM_EXAMPLE, "--out", str(out), "--trace", str(trace), "--gold-headers"]
        )
        assert code == 0
        records = read_jsonl(trace)
        assert records[0]["structure_answer"] is None
        assert len(records[0]["cells"]) == 8

    def test_gold_header_mode_changes_only_stage_one(self, tmp_path):
        predicted = tmp_path / "predicted.jsonl"
        gold_mode = tmp_path / "gold.jsonl"
        trace_a = tmp_path / "trace_a.jsonl"
        trace_b = tmp_path / "trace_b.jsonl"
        dispatch(["generate", "--kind", "rotowire-team", "--backend", "mock-oracle",
                  "--in", TEAM_EXAMPLE, "--out", str(predicted), "--trace", str(trace_a)])
        dispatch(["generate", "--kind", "rotowire-team", "--backend", "mock-oracle",
                  "--in", TEAM_EXAMPLE, "--out", str(gold_mode), "--trace", str(trace_b),
                  "--gold-headers"])
        # With the oracle, stage one already matches gold, so stage two is identical.
        assert predicted.read_bytes() == gold_mode.read_bytes()
        cells_a = read_jsonl(trace_a)[0]["cells"]
        cells_b = read_jsonl(trace_b)[0]["cells"]
        assert cells_a == cells_b

    def test_deterministic_output_bytes(self, tmp_path):
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        args = ["generate", "--kind", "e2e", "--backend", "mock-oracle", "--in", E2E_MINI]
        assert dispatch(args + ["--out", str(first)]) == 0
        assert dispatch(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_http_backend_with_unset_auth_env_exits_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("TABGEN_MISSING_TOKEN", raising=False)
        code = dispatch(
            ["generate", "--kind", "e2e", "--backend", "http", "--base-url", "http://localhost:1",
             "--auth-env", "TABGEN_MISSING_TOKEN", "--in", E2E_EXAMPLE,
             "--out", str(tmp_path / "x.jsonl")]
        )
        assert code == 2
        assert "TABGEN_MISSING_TOKEN" in capsys.readouterr().err

    def test_unknown_config_key_exits_two(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"mystery_knob": 1}))
        code = dispatch(
            ["generate", "--kind", "e2e", "--backend", "mock-oracle", "--in", E2E_EXAMPLE,
             "--config", str(config), "--out", str(tmp_path / "x.jsonl")]
        )
        assert code == 2
        assert "mystery_knob" in capsys.readouterr().err

    def test_missing_corpus_exits_two(self, tmp_path):
        code = dispatch(
            ["generate", "--kind", "e2e", "--backend", "mock-oracle",
             "--in", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "x.jsonl")]
        )
        assert code == 2

    def test_unknown_kind_exits_two(self, tmp_path):
        code = dispatch(
            ["generate", "--kind", "recipes", "--backend", "mock-oracle", "--in", E2E_EXAMPLE,
             "--out", str(tmp_path / "x.jsonl")]
        )
        assert code == 2

    def test_replay_backend_without_fixtures_exits_two(self, tmp_path):
        code = dispatch(
            ["generate", "--kind", "e2e", "--backend", "replay", "--in", E2E_EXAMPLE,
             "--out", str(tmp_path / "x.jsonl")]
        )
        assert code == 2


def delay_every_backend(monkeypatch, seconds: float) -> list[DelayedBackend]:
    """Put a `DelayedBackend` around every backend the CLI builds; returns the ones built."""
    built: list[DelayedBackend] = []
    build = cli._build_backend

    def delayed(*args):
        built.append(DelayedBackend(build(*args), lambda _: seconds))
        return built[-1]

    monkeypatch.setattr(cli, "_build_backend", delayed)
    return built


def untimed(path: Path) -> list[dict]:
    """A trace file's records without their stage timings, which differ from run to run."""
    records = read_jsonl(path)
    for record in records:
        del record["structure_ms"], record["content_ms"]
    return records


class TestSharedDispatch:
    """Samples run as many at once as the backend stack has slots; outputs are checked before any call."""

    @pytest.mark.parametrize("command", ["generate", "baseline"])
    def test_samples_fill_the_slots_of_a_backend_that_waits(self, tmp_path, monkeypatch, command):
        built = delay_every_backend(monkeypatch, 0.02)
        outputs = {}
        for concurrency in (1, 2, 4):
            out, trace = tmp_path / f"{concurrency}.jsonl", tmp_path / f"{concurrency}.trace.jsonl"
            argv = [command, "--kind", "rotowire-team", "--backend", "mock-oracle", "--in", TEAM_MINI,
                    "--concurrency", str(concurrency), "--out", str(out)]
            if command == "generate":
                argv += ["--trace", str(trace)]
            start = threading.active_count()
            assert dispatch(argv) == 0
            # `concurrency` sample threads beside the backend's `concurrency - 1` helpers.
            assert built[-1].peak_in_flight == concurrency
            assert built[-1].peak_threads <= start + 2 * concurrency - 1
            outputs[concurrency] = out.read_bytes(), untimed(trace) if command == "generate" else None
        assert outputs[1] == outputs[2] == outputs[4]

    def test_a_stack_that_never_waits_runs_on_the_calling_thread(self, tmp_path, monkeypatch):
        threads = []
        for cls in (MockOracleBackend, FixtureStore):
            def recording(self, request, answer=cls._generate_once):
                threads.append(threading.get_ident())
                return answer(self, request)

            monkeypatch.setattr(cls, "_generate_once", recording)
        run = ["--kind", "rotowire-team", "--in", TEAM_MINI, "--concurrency", "4",
               "--out", str(tmp_path / "preds.jsonl")]
        oracle, fixtures = [*run, "--backend", "mock-oracle"], str(tmp_path / "fixtures")
        for argv in (
            ["generate", *oracle],
            ["baseline", *oracle],
            ["generate", *oracle, "--cache"],
            ["replay-record", *oracle, "--record-dir", fixtures],
            ["generate", *run, "--backend", "replay", "--fixtures", fixtures],
        ):
            threads.clear()
            assert dispatch(argv) == 0
            # A sample run on another thread would make its calls there.
            assert len(threads) >= 10 and set(threads) == {threading.get_ident()}, argv

    def test_cached_duplicates_ask_upstream_once(self, tmp_path, monkeypatch):
        sample = json.loads(Path(E2E_EXAMPLE).read_text("utf-8"))
        corpus = tmp_path / "duplicates.jsonl"
        corpus.write_text("".join(json.dumps({**sample, "id": f"copy-{i}"}) + "\n" for i in range(8)))
        upstream: list[DelayedBackend] = []

        def cached(inner):
            upstream.append(DelayedBackend(inner, lambda _: 0.003))
            return CachedBackend(upstream[-1])

        monkeypatch.setattr(cli, "CachedBackend", cached)
        out = tmp_path / "preds.jsonl"
        codes = []
        run = threading.Thread(daemon=True, target=lambda: codes.append(dispatch(
            ["generate", "--kind", "e2e", "--backend", "mock-oracle", "--in", str(corpus), "--cache",
             "--concurrency", "4", "--out", str(out)])))
        run.start()
        run.join(timeout=60)
        assert codes == [0]
        assert len(upstream) == 1 and set(upstream[0].calls.values()) == {1}
        assert upstream[0].peak_in_flight <= 4
        assert len({json.dumps(r["table"]) for r in read_jsonl(out)}) == 1

    @pytest.mark.parametrize(
        "command, flag",
        [("generate", "--out"), ("generate", "--trace"), ("baseline", "--out"), ("update", "--out")],
    )
    def test_unwritable_output_is_found_before_any_backend_call(
        self, tmp_path, capsys, monkeypatch, command, flag
    ):
        built = delay_every_backend(monkeypatch, 0.0)
        bad = tmp_path / "missing" / "out.jsonl"
        argv = [command, "--kind", "e2e", "--backend", "mock-oracle", "--in", E2E_MINI]
        if command == "update":
            # The table lacks one attribute the delta adds, so the update asks one question.
            sample = json.loads(Path(E2E_EXAMPLE).read_text("utf-8"))
            table, delta = tmp_path / "table.json", tmp_path / "delta.json"
            table.write_text(json.dumps({**sample["table"], "rows": sample["table"]["rows"][:3]}), "utf-8")
            delta.write_text(json.dumps({"add_col_headers": ["Customer Rating"]}), "utf-8")
            argv = [command, "--kind", "e2e", "--backend", "mock-oracle", "--oracle", E2E_EXAMPLE,
                    "--table", str(table), "--delta", str(delta), "--evidence", sample["text"]]
        argv += ["--out", str(bad if flag == "--out" else tmp_path / "preds.jsonl")]
        if command == "generate":
            argv += ["--trace", str(bad if flag == "--trace" else tmp_path / "trace.jsonl")]
        assert dispatch(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write {bad}") and err.count("\n") == 1
        assert sum(backend.calls.total() for backend in built) == 0


class TestBaseline:
    def test_oracle_baseline_all_valid(self, tmp_path, capsys):
        out = tmp_path / "preds.jsonl"
        code = dispatch(
            ["baseline", "--kind", "e2e", "--backend", "mock-oracle", "--in", E2E_MINI,
             "--out", str(out)]
        )
        assert code == 0
        records = read_jsonl(out)
        assert all("table" in r for r in records)

        assert dispatch(
            ["evaluate", "--kind", "e2e", "--pred", str(out), "--gold", E2E_MINI,
             "--format", "json"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["error_rate"] == 0.0
        assert report["cell"]["f1"] == 1.0

    def test_errored_predictions_flow_to_error_rate(self, tmp_path, capsys):
        preds = tmp_path / "preds.jsonl"
        records = []
        for i, line in enumerate(open(E2E_MINI, encoding="utf-8")):
            sample = json.loads(line)
            if i < 3:
                records.append({"id": sample["id"], "error": {"type": "StructuralError", "widths": [3, 2]}})
            else:
                records.append({"id": sample["id"], "table": sample["table"]})
        preds.write_text("".join(json.dumps(r) + "\n" for r in records), "utf-8")

        assert dispatch(
            ["evaluate", "--kind", "e2e", "--pred", str(preds), "--gold", E2E_MINI,
             "--format", "json"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["error_rate"] == pytest.approx(0.3)


class TestEvaluate:
    def test_identical_pred_and_gold_files_score_one(self, capsys):
        # A gold corpus file is itself a valid prediction file: the extra
        # "text" key is ignored and every table matches itself.
        code = dispatch(
            ["evaluate", "--kind", "e2e", "--pred", E2E_MINI, "--gold", E2E_MINI,
             "--format", "json"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["header"]["f1"] == 1.0
        assert report["cell"]["f1"] == 1.0

    def test_id_mismatch_exits_two(self, tmp_path, capsys):
        preds = tmp_path / "preds.jsonl"
        sample = json.loads(open(E2E_EXAMPLE, encoding="utf-8").readline())
        preds.write_text(json.dumps({"id": "other", "table": sample["table"]}) + "\n", "utf-8")
        code = dispatch(
            ["evaluate", "--kind", "e2e", "--pred", str(preds), "--gold", E2E_EXAMPLE]
        )
        assert code == 2
        assert "ids do not match" in capsys.readouterr().err

    def test_a_repeated_id_is_named(self, tmp_path, capsys):
        sample = json.loads(Path(E2E_EXAMPLE).read_text("utf-8"))
        table = sample["table"]
        truncated = {"id": sample["id"], "table": {**table, "rows": table["rows"][:1]}}
        preds = tmp_path / "preds.jsonl"
        preds.write_text(json.dumps(truncated) + "\n\n" + json.dumps(sample) + "\n", "utf-8")
        gold = tmp_path / "gold.jsonl"
        gold.write_text(json.dumps(sample) + "\n" + json.dumps(sample) + "\n", "utf-8")
        evaluate = ["evaluate", "--kind", "e2e"]
        sample_id = repr(sample["id"])

        assert dispatch([*evaluate, "--pred", str(preds), "--gold", E2E_EXAMPLE]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: {preds} line 3: id {sample_id} repeats line 1\n"
        assert dispatch([*evaluate, "--pred", E2E_EXAMPLE, "--gold", str(gold)]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: gold file {gold} repeats sample id {sample_id}\n"

    def test_a_ragged_prediction_is_a_config_error(self, tmp_path, capsys):
        sample = json.loads(Path(TEAM_EXAMPLE).read_text("utf-8"))
        table = sample["table"]
        ragged = {**table, "cells": [table["cells"][0][:-1], *table["cells"][1:]]}
        preds = tmp_path / "preds.jsonl"
        preds.write_text(json.dumps({"id": sample["id"], "table": ragged}) + "\n", "utf-8")
        code = dispatch(["evaluate", "--kind", "rotowire-team", "--pred", str(preds),
                         "--gold", TEAM_EXAMPLE])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"config error: {preds} line 1: invalid table: ")
        assert "row_width" in err and "Traceback" not in err

    def test_text_format_report(self, tmp_path, capsys):
        out = tmp_path / "preds.jsonl"
        dispatch(["generate", "--kind", "e2e", "--backend", "mock-oracle", "--in", E2E_EXAMPLE,
                  "--out", str(out)])
        assert dispatch(
            ["evaluate", "--kind", "e2e", "--pred", str(out), "--gold", E2E_EXAMPLE]
        ) == 0
        text = capsys.readouterr().out
        assert "header" in text and "1.0000" in text

    def test_csv_written_to_file(self, tmp_path):
        preds = tmp_path / "preds.jsonl"
        report_path = tmp_path / "report.csv"
        dispatch(["generate", "--kind", "e2e", "--backend", "mock-oracle", "--in", E2E_EXAMPLE,
                  "--out", str(preds)])
        assert dispatch(
            ["evaluate", "--kind", "e2e", "--pred", str(preds), "--gold", E2E_EXAMPLE,
             "--format", "csv", "--out", str(report_path)]
        ) == 0
        lines = report_path.read_text("utf-8").splitlines()
        assert lines[0].startswith("id,header_p")
        assert lines[1].startswith("e2e-eagle,")

    def test_semantic_flag_adds_scores(self, tmp_path, capsys):
        preds = tmp_path / "preds.jsonl"
        dispatch(["generate", "--kind", "e2e", "--backend", "mock-oracle", "--in", E2E_EXAMPLE,
                  "--out", str(preds)])
        dispatch(["evaluate", "--kind", "e2e", "--pred", str(preds), "--gold", E2E_EXAMPLE,
                  "--semantic", "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert report["semantic_header"]["f1"] == pytest.approx(1.0, abs=1e-6)

    def test_semantic_report_scores_a_lone_surrogate(self, tmp_path, capsys):
        sample = json.loads(open(E2E_EXAMPLE, encoding="utf-8").readline())
        sample["table"]["rows"][0]["value"] = "caf\ud800"
        preds = tmp_path / "preds.jsonl"
        # The default ASCII escapes write the surrogate as "\ud800".
        preds.write_text(json.dumps(sample) + "\n", "utf-8")
        assert dispatch(["evaluate", "--kind", "e2e", "--pred", str(preds), "--gold", E2E_EXAMPLE,
                         "--semantic", "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert 0.0 < report["semantic_cell"]["f1"] < 1.0

    def test_gold_headers_flag_labels_report(self, tmp_path, capsys):
        preds = tmp_path / "preds.jsonl"
        dispatch(["generate", "--kind", "e2e", "--backend", "mock-oracle", "--in", E2E_EXAMPLE,
                  "--out", str(preds), "--gold-headers"])
        dispatch(["evaluate", "--kind", "e2e", "--pred", str(preds), "--gold", E2E_EXAMPLE,
                  "--gold-headers", "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert report["mode"] == "gold-headers"


class TestUpdate:
    def test_empty_delta_returns_table_unchanged(self, tmp_path, capsys):
        sample = json.loads(open(E2E_EXAMPLE, encoding="utf-8").readline())
        table_file = tmp_path / "table.json"
        table_file.write_text(json.dumps(sample["table"]), "utf-8")
        delta_file = tmp_path / "delta.json"
        delta_file.write_text(json.dumps({}), "utf-8")
        code = dispatch(
            ["update", "--kind", "e2e", "--table", str(table_file), "--delta", str(delta_file)]
        )
        assert code == 0
        updated = json.loads(capsys.readouterr().out)
        assert table_from_json(updated) == table_from_json(sample["table"])

    def test_adds_attribute_from_evidence(self, tmp_path):
        sample = json.loads(open(E2E_EXAMPLE, encoding="utf-8").readline())
        trimmed = {"orientation": "attribute_value", "rows": sample["table"]["rows"][:3]}
        table_file = tmp_path / "table.json"
        table_file.write_text(json.dumps(trimmed), "utf-8")
        delta_file = tmp_path / "delta.json"
        delta_file.write_text(json.dumps({"add_col_headers": ["Customer Rating"]}), "utf-8")
        out = tmp_path / "updated.json"
        code = dispatch(
            ["update", "--kind", "e2e", "--table", str(table_file), "--delta", str(delta_file),
             "--evidence", sample["text"], "--oracle", E2E_EXAMPLE, "--backend", "mock-oracle",
             "--out", str(out)]
        )
        assert code == 0
        updated = table_from_json(json.loads(out.read_text("utf-8")))
        assert ("Customer Rating", "Low") in updated.rows

    def test_update_without_evidence_exits_two(self, tmp_path):
        sample = json.loads(open(E2E_EXAMPLE, encoding="utf-8").readline())
        table_file = tmp_path / "table.json"
        table_file.write_text(json.dumps(sample["table"]), "utf-8")
        delta_file = tmp_path / "delta.json"
        delta_file.write_text(json.dumps({"add_col_headers": ["Owner"]}), "utf-8")
        code = dispatch(
            ["update", "--kind", "e2e", "--table", str(table_file), "--delta", str(delta_file)]
        )
        assert code == 2


class TestUpdateBadDelta:
    """A delta file that does not describe a delta for the table is a config error."""

    @pytest.mark.parametrize(
        "delta",
        [
            [["Raptors"]],
            {"add_row_headers": "Raptors"},
            {"add_rows": ["Raptors"]},
            {"reask": [["Celtics", "Wins"]]},
            {"reask": [["Magic", "Wins"]]},
            {"add_col_headers": [""]},
            {"add_row_headers": [""]},
            {"add_row_headers": [" \t"]},
            {"add_row_headers": [1]},
            {"reask": [["Hawks", 4]]},
        ],
        ids=["json-array", "bare-string", "unknown-key", "reask-unknown-header",
             "reask-present-cell", "empty-added-header", "empty-added-row-header",
             "blank-added-row-header", "number-header", "number-in-reask"],
    )
    def test_exits_two_without_traceback(self, tmp_path, capsys, delta):
        sample = json.loads(open(TEAM_EXAMPLE, encoding="utf-8").readline())
        table_file = tmp_path / "table.json"
        table_file.write_text(json.dumps(sample["table"]), "utf-8")
        delta_file = tmp_path / "delta.json"
        delta_file.write_text(json.dumps(delta), "utf-8")
        code = dispatch(
            ["update", "--kind", "rotowire-team", "--table", str(table_file),
             "--delta", str(delta_file), "--evidence", sample["text"],
             "--oracle", TEAM_EXAMPLE, "--backend", "mock-oracle"]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert f"config error: delta file {delta_file}:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "address, shown",
        [("Hi", "'Hi'"), (["Hawks", "Wins", "Losses"], "['Hawks', 'Wins', 'Losses']"),
         (None, "None"), (["Hawks"], "['Hawks']")],
        ids=["string", "three-items", "null", "one-item"],
    )
    def test_a_reask_address_that_is_not_a_pair_is_named(self, tmp_path, capsys, address, shown):
        table_file = tmp_path / "table.json"
        table_file.write_text(json.dumps(json.loads(Path(TEAM_EXAMPLE).read_text("utf-8"))["table"]),
                              "utf-8")
        delta_file = tmp_path / "delta.json"
        delta_file.write_text(json.dumps({"reask": [address]}), "utf-8")
        code = dispatch(
            ["update", "--kind", "rotowire-team", "--table", str(table_file),
             "--delta", str(delta_file), "--evidence", "Magic lost 3.",
             "--oracle", TEAM_EXAMPLE, "--backend", "mock-oracle"]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err == (f"config error: delta file {delta_file}: re-ask address {shown}"
                       " must be a [row header, column header] pair\n")

    def test_ragged_table_is_blamed_on_the_table_file(self, tmp_path, capsys):
        table_file = tmp_path / "table.json"
        table_file.write_text(json.dumps({"orientation": "matrix", "row_headers": ["Magic"],
                                          "col_headers": ["Wins"], "cells": [["1", "2"]]}), "utf-8")
        delta_file = tmp_path / "delta.json"
        delta_file.write_text(json.dumps({"add_col_headers": ["Losses"]}), "utf-8")
        code = dispatch(
            ["update", "--kind", "rotowire-team", "--table", str(table_file),
             "--delta", str(delta_file), "--evidence", "Magic lost 3.",
             "--oracle", TEAM_EXAMPLE, "--backend", "mock-oracle"]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert f"config error: table file {table_file}: invalid table" in err

    def test_ragged_table_with_an_empty_delta_is_blamed_on_the_table_file(self, tmp_path, capsys):
        table_file = tmp_path / "table.json"
        table_file.write_text(json.dumps({"orientation": "matrix", "row_headers": ["Magic"],
                                          "col_headers": ["Wins"], "cells": [["1", "2"]]}), "utf-8")
        delta_file = tmp_path / "delta.json"
        delta_file.write_text("{}", "utf-8")
        code = dispatch(["update", "--kind", "rotowire-team", "--table", str(table_file),
                         "--delta", str(delta_file)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"config error: table file {table_file}: invalid table" in captured.err

    @pytest.mark.parametrize("delta", [{}, {"add_row_headers": ["Hawks"]}], ids=["empty", "add-row"])
    def test_an_empty_header_is_blamed_on_the_table_file(self, tmp_path, capsys, delta):
        table_file = tmp_path / "table.json"
        table_file.write_text(json.dumps({"orientation": "matrix", "row_headers": ["Magic"],
                                          "col_headers": ["Wins", ""], "cells": [["19", "41"]]}), "utf-8")
        delta_file = tmp_path / "delta.json"
        delta_file.write_text(json.dumps(delta), "utf-8")
        code = dispatch(["update", "--kind", "rotowire-team", "--table", str(table_file),
                         "--delta", str(delta_file), "--evidence", "The Hawks won 46.",
                         "--oracle", TEAM_EXAMPLE, "--backend", "mock-oracle"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (f"config error: table file {table_file}:"
                                " column header 1 is empty after normalization\n")

    @pytest.mark.parametrize("empty_delta", [False, True], ids=["reask", "empty-delta"])
    def test_a_table_of_another_kind_is_blamed_on_the_table_file(self, tmp_path, capsys, empty_delta):
        sample = json.loads(Path(TEAM_EXAMPLE).read_text("utf-8").splitlines()[0])
        table = sample["table"]
        table["cells"][0][1] = None
        table_file = tmp_path / "table.json"
        table_file.write_text(json.dumps(table), "utf-8")
        delta = {} if empty_delta else {"reask": [["Magic", table["col_headers"][1]]]}
        delta_file = tmp_path / "delta.json"
        delta_file.write_text(json.dumps(delta), "utf-8")
        # A replay of an empty directory answers no call, so without the check the
        # re-asked cell would stay absent and the run would exit 0.
        (tmp_path / "fixtures").mkdir()
        code = dispatch(
            ["update", "--kind", "e2e", "--table", str(table_file), "--delta", str(delta_file),
             "--evidence", sample["text"], "--backend", "replay",
             "--fixtures", str(tmp_path / "fixtures")]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (f"config error: table file {table_file}:"
                                " table orientation matrix does not match kind e2e\n")


GENERATE = ["generate", "--kind", "e2e", "--in", E2E_EXAMPLE]
REPLAY = [*GENERATE, "--backend", "replay", "--fixtures", "fixtures"]
UPDATE_FILES = ["update", "--kind", "e2e", "--table", "table.json", "--delta", "delta.json"]
UPDATE = [*UPDATE_FILES, "--evidence", "The Eagle is owned by a local family."]


def bad_input_files(root):
    """The files the bad-input cases name, made in `root`."""
    (root / "dir").mkdir()
    (root / "fixtures").mkdir()
    (root / "latin.txt").write_bytes(b"\xff\xfe")
    (root / "empty.jsonl").write_bytes(b"")
    corpus = fixture_path("e2e_example.jsonl").read_bytes()
    (root / "plain.jsonl.gz").write_bytes(corpus)
    (root / "truncated.jsonl.gz").write_bytes(gzip.compress(corpus)[:40])
    (root / "schema.jsonl").write_text(json.dumps({"id": "x", "text": "t"}) + "\n", "utf-8")
    sample = json.loads(corpus.splitlines()[0])
    (root / "table.json").write_text(json.dumps(sample["table"]), "utf-8")
    (root / "delta.json").write_text(json.dumps({"add_col_headers": ["Owner"]}), "utf-8")
    configs = {
        "retry_cap.json": {"kind": "replay", "fixture_dir": "fixtures", "retry_cap": 0},
        "concurrency_x.json": {"concurrency": "x"},
        "cache_string.json": {"cache": "false"},
        "negative_backoff.json": {"backoff_s": -1},
        "nan_backoff.json": {"backoff_s": float("nan")},
        "answer_tokens_0.json": {"answer_max_new_tokens": 0},
        "headers_tokens_0.json": {"headers_max_new_tokens": 0},
        "baseline_tokens_0.json": {"baseline_max_new_tokens": 0},
        "input_tokens_0.json": {"max_input_tokens": 0},
        "input_tokens_negative.json": {"max_input_tokens": -3},
    }
    for name, config in configs.items():
        (root / name).write_text(json.dumps(config), "utf-8")
    (root / "repeated.jsonl").write_bytes(corpus + corpus)


class TestBadInput:
    """Input a run cannot start from exits 2 with a `config error:` line, never a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            [*REPLAY, "--concurrency", "0"],
            [*REPLAY, "--retry-cap", "0"],
            [*GENERATE, "--config", "retry_cap.json"],
            [*GENERATE, "--config", "concurrency_x.json"],
            [*GENERATE, "--config", "cache_string.json"],
            [*GENERATE, "--config", "negative_backoff.json"],
            [*GENERATE, "--config", "nan_backoff.json"],
            [*GENERATE, "--config", "answer_tokens_0.json"],
            [*GENERATE, "--config", "headers_tokens_0.json"],
            ["baseline", "--kind", "e2e", "--in", E2E_EXAMPLE, "--config", "baseline_tokens_0.json"],
            [*GENERATE, "--config", "input_tokens_0.json"],
            [*GENERATE, "--config", "input_tokens_negative.json"],
            [*GENERATE, "--backend", "replay", "--fixtures", "missing-dir"],
            [*GENERATE, "--backend", "http", "--base-url", "http://localhost:1", "--timeout-ms", "-5"],
            [*REPLAY, "--timeout-ms", "-5"],
            ["generate", "--kind", "e2e", "--in", "dir"],
            ["generate", "--kind", "e2e", "--in", "latin.txt"],
            ["generate", "--kind", "e2e", "--in", "plain.jsonl.gz"],
            ["generate", "--kind", "e2e", "--in", "truncated.jsonl.gz"],
            ["stats", "--kind", "e2e", "--in", "dir"],
            [*GENERATE, "--oracle", "missing.jsonl"],
            [*GENERATE, "--oracle", "schema.jsonl"],
            [*GENERATE, "--qa-template", "latin.txt"],
            [*GENERATE, "--out", "dir"],
            [*GENERATE, "--trace", "dir"],
            ["replay-record", "--kind", "e2e", "--in", E2E_EXAMPLE, "--record-dir", "latin.txt"],
            ["evaluate", "--kind", "e2e", "--pred", "dir", "--gold", E2E_EXAMPLE],
            ["evaluate", "--kind", "e2e", "--pred", "latin.txt", "--gold", E2E_EXAMPLE],
            ["evaluate", "--kind", "e2e", "--pred", "empty.jsonl", "--gold", "empty.jsonl"],
            ["evaluate", "--kind", "e2e", "--pred", "repeated.jsonl", "--gold", E2E_EXAMPLE],
            ["evaluate", "--kind", "e2e", "--pred", E2E_EXAMPLE, "--gold", "repeated.jsonl"],
            ["evaluate", "--kind", "e2e", "--pred", E2E_EXAMPLE, "--gold", E2E_EXAMPLE, "--out", "dir"],
            [*UPDATE, "--oracle", "missing.jsonl"],
            ["update", "--kind", "e2e", "--table", "dir", "--delta", "delta.json", "--evidence", "x"],
            ["update", "--kind", "e2e", "--table", "table.json", "--delta", "dir", "--evidence", "x"],
            [*UPDATE_FILES, "--evidence-file", "latin.txt", "--oracle", E2E_EXAMPLE],
            [*UPDATE, "--oracle", E2E_EXAMPLE, "--out", "dir"],
        ],
        ids=["concurrency-0", "retry-cap-0", "config-retry-cap-0", "config-wrong-type",
             "config-cache-string", "config-negative-backoff", "config-nan-backoff",
             "config-answer-tokens-0",
             "config-headers-tokens-0", "config-baseline-tokens-0", "config-input-tokens-0",
             "config-input-tokens-negative", "replay-missing-dir", "http-negative-timeout",
             "replay-negative-timeout",
             "in-directory", "in-not-utf8", "in-not-gzip", "in-truncated-gzip", "stats-in-directory",
             "oracle-missing", "oracle-bad-schema", "qa-template-not-utf8", "out-directory",
             "trace-directory", "record-dir-is-a-file", "pred-directory", "pred-not-utf8",
             "empty-gold", "pred-repeated-id", "gold-repeated-id", "report-out-directory",
             "update-oracle-missing", "update-table-directory", "update-delta-directory",
             "update-evidence-not-utf8", "update-out-directory"],
    )
    def test_exits_two_without_traceback(self, tmp_path, capsys, monkeypatch, argv):
        bad_input_files(tmp_path)
        monkeypatch.chdir(tmp_path)
        code = dispatch(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_jobs_is_not_a_flag(self, capsys):
        # How many samples run at once follows `--concurrency`.
        assert dispatch([*GENERATE, "--backend", "mock-oracle", "--jobs", "4"]) == 2
        assert "unrecognized arguments: --jobs 4" in capsys.readouterr().err

    def test_empty_record_dir_is_a_config_error(self, tmp_path, capsys):
        code = dispatch(["replay-record", "--kind", "e2e", "--in", E2E_EXAMPLE, "--record-dir", "",
                         "--out", str(tmp_path / "preds.jsonl")])
        assert code == 2
        assert "config error: replay-record needs --record-dir" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["generate", "--kind", "e2e", "--in", "empty.jsonl"],
         ["evaluate", "--kind", "e2e", "--pred", "empty.jsonl", "--gold", "empty.jsonl"]],
        ids=["generate", "evaluate"],
    )
    def test_empty_corpus_prints_one_line(self, tmp_path, argv):
        # A new interpreter: pytest's log capture would hide a line logged on the way.
        (tmp_path / "empty.jsonl").write_bytes(b"")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-m", "tabgen.cli", *argv], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 2
        assert done.stderr.startswith("config error:") and "holds no samples" in done.stderr
        assert done.stderr.count("\n") == 1

    def test_update_without_an_oracle_names_only_its_flag(self, tmp_path, capsys, monkeypatch):
        bad_input_files(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert dispatch(UPDATE) == 2
        err = capsys.readouterr().err
        assert "(--oracle)" in err and "--in" not in err


def extended_template(tmp_path, name: str) -> str:
    """A copy of a packaged template with one more line of instructions, as a file."""
    text = (files("tabgen") / "templates" / f"{name}.txt").read_text("utf-8")
    path = tmp_path / f"custom_{name}.txt"
    path.write_text("Think it through before you answer.\n" + text, "utf-8")
    return str(path)


class TestTemplateOverrides:
    """Each `--*-template` flag reaches the prompts and the mock oracle reads them."""

    def test_generate_with_custom_templates_gives_the_gold_tables(self, tmp_path):
        out = tmp_path / "preds.jsonl"
        code = dispatch(
            ["generate", "--kind", "rotowire-team", "--backend", "mock-oracle", "--in", TEAM_MINI,
             "--structure-template", extended_template(tmp_path, "structure_rotowire-team"),
             "--qa-template", extended_template(tmp_path, "qa"), "--out", str(out)]
        )
        assert code == 0
        golds = load_jsonl(TEAM_MINI, DatasetKind.ROTOWIRE_TEAM)
        assert [table_from_json(r["table"]) for r in read_jsonl(out)] == [s.gold for s in golds]

    def test_baseline_with_a_custom_template_gives_the_gold_tables(self, tmp_path):
        out = tmp_path / "preds.jsonl"
        code = dispatch(
            ["baseline", "--kind", "e2e", "--backend", "mock-oracle", "--in", E2E_MINI,
             "--baseline-template", extended_template(tmp_path, "baseline_attribute_value"),
             "--out", str(out)]
        )
        assert code == 0
        golds = load_jsonl(E2E_MINI, DatasetKind.E2E)
        assert [table_from_json(r["table"]) for r in read_jsonl(out)] == [s.gold for s in golds]

    def test_generate_with_text_after_the_question_gives_the_gold_tables(self, tmp_path):
        # Its prompts also fit the packaged question template, whose question
        # slot then holds the extra line as well.
        text = (files("tabgen") / "templates" / "qa.txt").read_text("utf-8")
        template = tmp_path / "qa.txt"
        template.write_text(text.replace("{{question}}", "{{question}}\nAnswer with a number only."), "utf-8")
        out = tmp_path / "preds.jsonl"
        code = dispatch(
            ["generate", "--kind", "rotowire-team", "--backend", "mock-oracle", "--in", TEAM_MINI,
             "--qa-template", str(template), "--out", str(out)]
        )
        assert code == 0
        golds = load_jsonl(TEAM_MINI, DatasetKind.ROTOWIRE_TEAM)
        assert [table_from_json(r["table"]) for r in read_jsonl(out)] == [s.gold for s in golds]

    def test_template_the_oracle_cannot_read_exits_two(self, tmp_path, capsys):
        template = tmp_path / "twice.txt"
        template.write_text("{{passage}}\n{{passage}}\n{{question}}", "utf-8")
        code = dispatch(
            ["generate", "--kind", "e2e", "--backend", "mock-oracle", "--in", E2E_EXAMPLE,
             "--qa-template", str(template), "--out", str(tmp_path / "preds.jsonl")]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "config error:" in err and "Traceback" not in err


class TestStats:
    def test_counts_per_file(self, capsys):
        code = dispatch(["stats", "--kind", "e2e", "--in", E2E_MINI, "--in", E2E_EXAMPLE])
        assert code == 0
        out = capsys.readouterr().out
        assert "10 samples" in out
        assert "1 samples" in out

    def test_json_format(self, capsys):
        assert dispatch(["stats", "--kind", "e2e", "--in", E2E_MINI, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[E2E_MINI]["count"] == 10
        assert payload[E2E_MINI]["by_kind"]["e2e"]["mean_rows"] == 5.0


class TestReplayRecord:
    def test_record_then_replay_byte_identical(self, tmp_path):
        fixtures = tmp_path / "fixtures"
        recorded = tmp_path / "recorded.jsonl"
        replayed = tmp_path / "replayed.jsonl"
        assert dispatch(
            ["replay-record", "--kind", "rotowire-team", "--backend", "mock-oracle",
             "--in", TEAM_EXAMPLE, "--out", str(recorded), "--record-dir", str(fixtures)]
        ) == 0
        assert any(fixtures.iterdir())

        assert dispatch(
            ["generate", "--kind", "rotowire-team", "--backend", "replay",
             "--fixtures", str(fixtures), "--in", TEAM_EXAMPLE, "--out", str(replayed)]
        ) == 0
        assert recorded.read_bytes() == replayed.read_bytes()

    def test_rerun_on_the_record_dir_asks_nothing_upstream(self, tmp_path):
        fixtures = tmp_path / "fixtures"
        recorded = tmp_path / "recorded.jsonl"
        rerun = tmp_path / "rerun.jsonl"
        assert dispatch(
            ["replay-record", "--kind", "rotowire-team", "--backend", "mock-oracle",
             "--in", TEAM_EXAMPLE, "--out", str(recorded), "--record-dir", str(fixtures)]
        ) == 0
        before = {p.name: p.read_bytes() for p in fixtures.iterdir()}
        # Upstream is a replay of an empty directory: any call it got would fail its cell.
        (tmp_path / "empty").mkdir()
        assert dispatch(
            ["replay-record", "--kind", "rotowire-team", "--backend", "replay",
             "--fixtures", str(tmp_path / "empty"), "--in", TEAM_EXAMPLE, "--out", str(rerun),
             "--record-dir", str(fixtures)]
        ) == 0
        assert rerun.read_bytes() == recorded.read_bytes()
        assert {p.name: p.read_bytes() for p in fixtures.iterdir()} == before

    def test_lone_surrogate_in_a_passage(self, tmp_path, capsys):
        # A `\ud800` escape in the corpus decodes to a lone surrogate, which has no UTF-8 form.
        sample = json.loads(Path(E2E_EXAMPLE).read_text("utf-8").splitlines()[0])
        sample["text"] += " caf\ud800"
        corpus = tmp_path / "surrogate.jsonl"
        corpus.write_text(json.dumps(sample) + "\n", "utf-8")
        run = ["--kind", "e2e", "--backend", "mock-oracle", "--in", str(corpus)]
        plain, cached, recorded = (tmp_path / name for name in ("plain", "cached", "recorded"))

        assert dispatch(["generate", *run, "--out", str(plain)]) == 0
        assert dispatch(["generate", *run, "--out", str(cached), "--cache"]) == 0
        assert cached.read_bytes() == plain.read_bytes()

        fixtures = tmp_path / "fixtures"
        code = dispatch(["replay-record", *run, "--out", str(recorded), "--record-dir", str(fixtures)])
        assert code == 1
        assert capsys.readouterr().err == "1/1 samples failed\n"
        [record] = read_jsonl(recorded)
        assert record["error"]["type"] == "MalformedResponse"
        assert "request cannot be recorded" in record["error"]["message"]
        assert list(fixtures.iterdir()) == []

    def test_a_structure_answer_with_no_headers_fails_its_sample(self, tmp_path, capsys):
        [sample] = load_jsonl(E2E_EXAMPLE, DatasetKind.E2E)
        config = BackendConfig()
        prompt = build_structure_prompt(sample.text, DatasetKind.E2E, None, config.max_input_tokens)
        request = GenerationRequest(prompt, max_new_tokens=config.headers_max_new_tokens)
        fixtures = tmp_path / "fixtures"
        fixtures.mkdir()
        (fixtures / f"{request.digest()}.json").write_text(
            json.dumps({"request": request.as_dict(), "response": {"text": "<SEP>"}}), "utf-8")
        out = tmp_path / "preds.jsonl"
        code = dispatch(["generate", "--kind", "e2e", "--backend", "replay", "--fixtures", str(fixtures),
                         "--in", E2E_EXAMPLE, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "1/1 samples failed\n"
        assert read_jsonl(out) == [
            {"id": sample.id, "error": {"type": "NoHeaders", "message": "no headers in '<SEP>'"}}
        ]

    def test_replay_missing_fixture_reports_partial_failure(self, tmp_path, capsys):
        fixtures = tmp_path / "fixtures"
        fixtures.mkdir()
        out = tmp_path / "preds.jsonl"
        code = dispatch(
            ["generate", "--kind", "e2e", "--backend", "replay", "--fixtures", str(fixtures),
             "--in", E2E_EXAMPLE, "--out", str(out)]
        )
        assert code == 1
        records = read_jsonl(out)
        assert "error" in records[0]


class TestDispatch:
    def test_no_command_exits_two(self):
        assert dispatch([]) == 2

    def test_unknown_command_exits_two(self):
        assert dispatch(["fabricate"]) == 2

    def test_cache_flag_accepted(self, tmp_path):
        out = tmp_path / "preds.jsonl"
        code = dispatch(
            ["generate", "--kind", "e2e", "--backend", "mock-oracle", "--in", E2E_EXAMPLE,
             "--out", str(out), "--cache"]
        )
        assert code == 0
