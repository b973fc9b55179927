"""Console-level checks: `tabgen` commands run end to end on every bundled corpus.

Each test runs the commands through `cli.dispatch`, the function the
`tabgen` console script calls, so it needs no installed script.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

import tabgen
from tabgen.cli import dispatch
from tabgen.corpus import fixture_path, list_fixtures, load_jsonl
from tabgen.kinds import DatasetKind
from tabgen.prompts import default_qa_template
from tabgen.table import table_from_json, table_to_json

EXAMPLES = [name for name in list_fixtures() if name.endswith("_example.jsonl")]
CORPORA = [name for name in list_fixtures() if name.endswith(("_example.jsonl", "_mini.jsonl"))]


def console_env() -> dict[str, str]:
    """This process's environment, with the package's source directory on `PYTHONPATH` for a subprocess."""
    src = str(Path(tabgen.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


@pytest.mark.parametrize("corpus", EXAMPLES)
def test_update_reasks_a_blanked_cell_back_to_gold_and_an_empty_delta_changes_nothing(tmp_path, corpus):
    kind = DatasetKind(corpus.removesuffix("_example.jsonl"))
    path = str(fixture_path(corpus))
    sample = load_jsonl(path, kind)[0]
    # The gold table, the same table with its first present cell blanked, a delta
    # re-asking that cell, and the sample's text as evidence.
    gold = table_to_json(sample.gold)
    blanked = json.loads(json.dumps(gold))
    if "rows" in blanked:
        row = next(row for row in blanked["rows"] if row["value"] is not None)
        row["value"], address = None, [None, row["header"]]
    else:
        r, c = next((r, c) for r, row in enumerate(blanked["cells"])
                    for c, v in enumerate(row) if v is not None)
        blanked["cells"][r][c], address = None, [blanked["row_headers"][r], blanked["col_headers"][c]]
    files = {"gold": gold, "blanked": blanked, "delta": {"reask": [address]}, "empty": {}}
    for name, data in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(data), "utf-8")
    (tmp_path / "evidence.txt").write_text(sample.text, "utf-8")

    assert dispatch(["update", "--kind", kind.value, "--table", str(tmp_path / "blanked.json"),
                     "--delta", str(tmp_path / "delta.json"),
                     "--evidence-file", str(tmp_path / "evidence.txt"),
                     "--backend", "mock-oracle", "--oracle", path,
                     "--out", str(tmp_path / "updated.json")]) == 0
    assert dispatch(["update", "--kind", kind.value, "--table", str(tmp_path / "gold.json"),
                     "--delta", str(tmp_path / "empty.json"),
                     "--out", str(tmp_path / "unchanged.json")]) == 0
    updated, unchanged = (
        table_from_json(json.loads((tmp_path / f"{name}.json").read_text("utf-8")))
        for name in ("updated", "unchanged")
    )
    assert updated == sample.gold, "the re-asked cell is not restored to gold"
    assert unchanged == sample.gold, "an empty delta changed the table"


def evaluate_json(tmp_path, kind: str, pred: str, gold: str, *flags: str) -> dict:
    """`tabgen evaluate --format json` of `pred` against `gold`, as read back from its file."""
    report = tmp_path / "report.json"
    assert dispatch(["evaluate", "--kind", kind, "--pred", pred, "--gold", gold, *flags,
                     "--format", "json", "--out", str(report)]) == 0
    return json.loads(report.read_text("utf-8"))


def test_semantic_scoring_compares_vectors(tmp_path):
    # Magic's total points 88 -> 98: the cell pair no longer holds gold's tokens.
    gold = str(fixture_path("rotowire-team_example.jsonl"))
    pred = tmp_path / "pred.jsonl"
    assert dispatch(["generate", "--kind", "rotowire-team", "--backend", "mock-oracle", "--in", gold,
                     "--out", str(pred)]) == 0
    record = json.loads(pred.read_text("utf-8").splitlines()[0])
    assert record["table"]["cells"][0][1] == "88"
    record["table"]["cells"][0][1] = "98"
    changed = tmp_path / "changed.jsonl"
    changed.write_text(json.dumps(record) + "\n", "utf-8")
    report = evaluate_json(tmp_path, "rotowire-team", str(changed), gold, "--semantic")
    assert abs(report["semantic_cell"]["f1"] - 0.992773) <= 1e-9


@pytest.mark.parametrize("corpus", CORPORA)
def test_gold_header_generation_scores_one_and_traces_one_cell_per_gold_cell(tmp_path, corpus):
    kind = corpus.removesuffix(".jsonl").rsplit("_", 1)[0]
    path = str(fixture_path(corpus))
    pred, trace = tmp_path / "pred.jsonl", tmp_path / "trace.jsonl"
    assert dispatch(["generate", "--kind", kind, "--backend", "mock-oracle", "--in", path,
                     "--gold-headers", "--out", str(pred), "--trace", str(trace)]) == 0
    report = evaluate_json(tmp_path, kind, str(pred), path, "--gold-headers")
    assert [report[key]["f1"] for key in ("header", "cell")] == [1.0, 1.0]
    gold = {s.id: sum(map(len, s.gold.cells)) for s in load_jsonl(path, DatasetKind(kind))}
    traced = {record["id"]: len(record["cells"])
              for record in map(json.loads, trace.read_text("utf-8").splitlines())}
    assert traced == gold


def score_generation(tmp_path, kind: str, corpus: str, pred) -> tuple[float, float, float]:
    """Exact cell F1, then semantic header and cell F1, of `pred` against `corpus`."""
    exact = evaluate_json(tmp_path, kind, str(pred), corpus)
    semantic = evaluate_json(tmp_path, kind, str(pred), corpus, "--semantic")
    return exact["cell"]["f1"], semantic["semantic_header"]["f1"], semantic["semantic_cell"]["f1"]


@pytest.mark.parametrize("corpus", EXAMPLES)
def test_mock_oracle_generation_scores_one(tmp_path, corpus):
    kind = corpus.removesuffix("_example.jsonl")
    path, pred = str(fixture_path(corpus)), tmp_path / "pred.jsonl"
    assert dispatch(["generate", "--kind", kind, "--backend", "mock-oracle", "--in", path,
                     "--out", str(pred)]) == 0
    cell, semantic_header, semantic_cell = score_generation(tmp_path, kind, path, pred)
    assert cell == 1.0
    # Exact predictions hold gold's tokens, so both semantic F1s are 1.
    assert semantic_header == pytest.approx(1.0, abs=1e-9)
    assert semantic_cell == pytest.approx(1.0, abs=1e-9)


def test_console_script_generation_with_a_line_after_the_question_scores_one(tmp_path):
    # The packaged question template plus one more line of instructions after
    # the question, run through the console script's module in a subprocess.
    qa = tmp_path / "qa.txt"
    qa.write_text(default_qa_template().text.replace(
        "{{question}}", "{{question}}\nAnswer in a few words."), "utf-8")
    path, pred = str(fixture_path("rotowire-team_example.jsonl")), tmp_path / "pred.jsonl"
    subprocess.run(
        [sys.executable, "-m", "tabgen.cli", "generate", "--kind", "rotowire-team", "--backend",
         "mock-oracle", "--in", path, "--out", str(pred), "--qa-template", str(qa)],
        env=console_env(), check=True, timeout=120,
    )
    cell, semantic_header, semantic_cell = score_generation(tmp_path, "rotowire-team", path, pred)
    assert cell == 1.0
    assert semantic_header == pytest.approx(1.0, abs=1e-9)
    assert semantic_cell == pytest.approx(1.0, abs=1e-9)


def files_under(root: Path) -> dict[str, bytes]:
    """Every file under `root` by its relative path, with its bytes, as `diff -r` compares them."""
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("corpus", EXAMPLES)
def test_record_replay_and_resume_write_the_same_bytes(tmp_path, corpus):
    kind = corpus.removesuffix("_example.jsonl")
    path = str(fixture_path(corpus))
    fixtures, empty = tmp_path / "fixtures", tmp_path / "empty"
    empty.mkdir()
    out = {name: tmp_path / f"{name}.jsonl" for name in ("recorded", "replayed", "resumed", "cached")}
    run = ["--kind", kind, "--in", path]
    assert dispatch(["replay-record", *run, "--backend", "mock-oracle", "--record-dir", str(fixtures),
                     "--out", str(out["recorded"])]) == 0
    assert dispatch(["generate", *run, "--backend", "replay", "--fixtures", str(fixtures),
                     "--out", str(out["replayed"])]) == 0
    # The resume path: every call is already recorded, so the upstream, a replay
    # of an empty directory that would fail any call it got, is never asked.
    assert dispatch(["replay-record", *run, "--backend", "replay", "--fixtures", str(empty),
                     "--record-dir", str(fixtures), "--out", str(out["resumed"])]) == 0
    # A recording store already answers repeats, so --cache beside it changes no byte.
    assert dispatch(["replay-record", *run, "--backend", "mock-oracle", "--record-dir",
                     str(tmp_path / "fixtures.cached"), "--out", str(out["cached"]), "--cache"]) == 0
    recorded = out["recorded"].read_bytes()
    assert [out[name].read_bytes() for name in ("replayed", "resumed", "cached")] == [recorded] * 3
    assert files_under(fixtures) == files_under(tmp_path / "fixtures.cached")


def with_a_lone_surrogate(tmp_path) -> str:
    """The e2e example with a lone surrogate (a \\ud800 escape) appended to its passage, as a file."""
    sample = json.loads(fixture_path("e2e_example.jsonl").read_text("utf-8").splitlines()[0])
    sample["text"] += " caf\ud800"
    path = tmp_path / "surrogate.jsonl"
    path.write_text(json.dumps(sample) + "\n", "utf-8")
    return str(path)


@pytest.mark.parametrize("corpus", [*EXAMPLES, "surrogate"])
def test_the_request_cache_changes_no_output(tmp_path, corpus):
    if corpus == "surrogate":
        kind, path = "e2e", with_a_lone_surrogate(tmp_path)
    else:
        kind, path = corpus.removesuffix("_example.jsonl"), str(fixture_path(corpus))
    plain, cached = tmp_path / "plain.jsonl", tmp_path / "cached.jsonl"
    run = ["generate", "--kind", kind, "--backend", "mock-oracle", "--in", path]
    assert dispatch([*run, "--out", str(plain)]) == 0
    assert dispatch([*run, "--out", str(cached), "--cache"]) == 0
    assert cached.read_bytes() == plain.read_bytes()


def test_console_script_rejects_a_missing_corpus_without_a_traceback(tmp_path):
    # The console script's module itself, in a subprocess: exit 2 and one `config error:` line.
    done = subprocess.run(
        [sys.executable, "-m", "tabgen.cli", "generate", "--kind", "e2e", "--backend", "mock-oracle",
         "--in", str(tmp_path / "missing.jsonl")],
        env=console_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2
    assert done.stderr.startswith("config error:") and done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr


def test_samples_overlap_on_a_loopback_http_backend(tmp_path):
    # `generate` and `baseline` over `http`, against the loopback stub that answers as
    # the mock oracle, write what `mock-oracle` writes; baseline asks one call per
    # sample, so a peak of 2 or more calls in flight means samples overlapped.
    env = console_env()
    port = tmp_path / "port"
    corpora = {name: str(fixture_path(f"{name}.jsonl")) for name in ("rotowire-team_mini", "e2e_mini")}
    stub = subprocess.Popen(
        [sys.executable, str(Path(__file__).parents[1] / "tools" / "oracle_server.py"), str(port),
         *(f"{name.removesuffix('_mini')}={path}" for name, path in corpora.items())],
        env=env,
    )
    try:
        for _ in range(300):
            if port.exists() or stub.poll() is not None:
                break
            time.sleep(0.1)
        url = f"http://127.0.0.1:{port.read_text('utf-8')}"

        def peak() -> int:
            """The most requests the stub had in flight at once since this was last asked."""
            with urllib.request.urlopen(url + "/peak", timeout=30) as response:
                return json.load(response)["peak"]

        for name, path in corpora.items():
            for command in ("generate", "baseline"):
                run = [sys.executable, "-m", "tabgen.cli", command, "--kind", name.removesuffix("_mini"),
                       "--in", path]
                oracle = tmp_path / f"{name}.{command}.oracle.jsonl"
                http = tmp_path / f"{name}.{command}.http.jsonl"
                subprocess.run([*run, "--backend", "mock-oracle", "--out", str(oracle)],
                               env=env, check=True, timeout=120)
                peak()
                subprocess.run([*run, "--backend", "http", "--base-url", url, "--concurrency", "4",
                                "--out", str(http)], env=env, check=True, timeout=120)
                in_flight = peak()
                assert http.read_bytes() == oracle.read_bytes(), (name, command)
                if command == "baseline":
                    assert 2 <= in_flight <= 4, (name, in_flight)
    finally:
        stub.kill()
        stub.wait(timeout=30)
