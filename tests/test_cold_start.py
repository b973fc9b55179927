"""A cold `import tabgen` and the offline paths load neither numpy nor the HTTP client.

Each case runs in a fresh interpreter with `PYTHONPATH=src`, since this
test process has long since imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# What only semantic scoring, `MockEmbedder` and `HttpBackend` need.
HEAVY = ("numpy", "requests", "urllib3", "email.utils")


def heavy_modules_loaded(code: str) -> list[str]:
    """Run `code` in a new interpreter; the HEAVY modules it loaded that were not loaded before."""
    script = "\n".join([
        "import json, sys",
        f"_HEAVY, _before = {HEAVY!r}, set(sys.modules)",
        textwrap.dedent(code),
        "print(json.dumps([m for m in _HEAVY if m in sys.modules and m not in _before]))",
    ])
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_import_loads_no_heavy_module():
    assert heavy_modules_loaded("import tabgen, tabgen.cli") == []


def test_offline_generation_and_exact_evaluation_load_no_heavy_module():
    code = """
        from tabgen import (
            DatasetKind, MockOracleBackend, SkeletonDelta, Table, baseline_generate,
            evaluate_corpus, fixture_path, generate_table, load_jsonl, update_table,
        )

        samples = load_jsonl(fixture_path("rotowire-team_mini.jsonl"), DatasetKind.ROTOWIRE_TEAM)
        oracle = MockOracleBackend([(s.text, s.gold) for s in samples])
        pairs = []
        for s in samples:
            generated = generate_table(s.text, DatasetKind.ROTOWIRE_TEAM, oracle)
            assert generated == s.gold
            assert baseline_generate(s.text, DatasetKind.ROTOWIRE_TEAM, oracle) == s.gold
            partial = Table.matrix(s.gold.row_headers[:-1], s.gold.col_headers, s.gold.cells[:-1])
            delta = SkeletonDelta(add_row_headers=(s.gold.row_headers[-1],))
            assert update_table(partial, delta, s.text, DatasetKind.ROTOWIRE_TEAM, oracle) == s.gold
            pairs.append((generated, s.gold))
        assert evaluate_corpus(pairs).cell.f1 == 1.0
    """
    assert heavy_modules_loaded(code) == []


def test_cli_generate_exact_evaluate_and_stats_load_no_heavy_module(tmp_path):
    code = f"""
        import contextlib, io
        from tabgen.cli import dispatch
        from tabgen.corpus import fixture_path

        gold = str(fixture_path("e2e_mini.jsonl"))
        preds = {str(tmp_path / "preds.jsonl")!r}
        assert dispatch(["generate", "--kind", "e2e", "--backend", "mock-oracle",
                         "--in", gold, "--out", preds]) == 0
        with contextlib.redirect_stdout(io.StringIO()):
            assert dispatch(["evaluate", "--kind", "e2e", "--pred", preds, "--gold", gold]) == 0
            assert dispatch(["stats", "--kind", "e2e", "--in", gold]) == 0
    """
    assert heavy_modules_loaded(code) == []


def test_http_backend_and_semantic_evaluation_still_work():
    code = """
        from tabgen import (
            BackendConfig, DatasetKind, GenerationRequest, HttpBackend, MockEmbedder,
            Unreachable, evaluate_corpus, fixture_path, load_jsonl, semantic_score,
        )
        from tabgen.backends import _retry_after_seconds

        backend = HttpBackend(
            BackendConfig(kind="http", base_url="http://127.0.0.1:9", retry_cap=1, backoff_s=0.0)
        )
        try:
            backend.generate(GenerationRequest("hi"))
        except Unreachable:
            pass
        else:
            raise AssertionError("a refused connection must raise Unreachable")
        assert _retry_after_seconds("Wed, 21 Oct 2015 07:28:00 GMT") == 0.0
        samples = load_jsonl(fixture_path("wikibio_mini.jsonl"), DatasetKind.WIKIBIO)
        report = evaluate_corpus([(s.gold, s.gold) for s in samples], embedder=MockEmbedder())
        assert abs(report.semantic_cell.f1 - 1.0) < 1e-9
        assert abs(semantic_score(["a", "b"], ["a", "b"], MockEmbedder()).f1 - 1.0) < 1e-9
    """
    assert {"numpy", "requests", "urllib3"} <= set(heavy_modules_loaded(code))
