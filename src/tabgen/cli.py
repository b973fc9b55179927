"""Command-line surface: generation, baseline, evaluation, updates, stats, recording."""

from __future__ import annotations

import argparse
import json
import sys
import zlib
from argparse import Namespace
from collections import Counter
from pathlib import Path
from typing import Callable

from tabgen.backends import (
    BackendConfig,
    GenerationBackend,
    HttpBackend,
    MockEmbedder,
    MockOracleBackend,
    RequestStore,
)
from tabgen.corpus import Sample, corpus_stats, load_jsonl, table_of_kind
from tabgen.kinds import DatasetKind
from tabgen.metrics import GOLD_HEADERS, PREDICTED_HEADERS, evaluate_corpus
from tabgen.pipeline import (
    SkeletonDelta,
    _fit_delta,
    baseline_generate,
    generate_table_traced,
    update_table,
)
from tabgen.prompts import PromptTemplate, _require_slots
from tabgen.table import EmptyInput, StructuralError, Table, table_from_json, table_to_json


class ConfigError(ValueError):
    """Input a run cannot start from; maps to exit code 2.

    That covers an input, config or template file that is missing,
    unreadable, not UTF-8 or malformed; a template whose slots its flag
    does not take; a config value that is unknown or of the wrong type; a
    backend setting or token budget out of range; an HTTP endpoint
    without an http(s) scheme and host, or a path without its leading
    `/`; a replay fixture directory that does not exist; an output file
    or record directory that cannot be written; and an output file that
    is one of the command's inputs or another of its outputs.
    """


def _read_text(path: str, label: str) -> str:
    """The text of a UTF-8 input file; one that cannot be read is a config error."""
    try:
        return Path(path).read_text("utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read {label} {path}: {err}") from err


def _load_corpus(path: str, kind: DatasetKind, label: str) -> list[Sample]:
    """The samples of a corpus file; one that cannot be read or parsed is a config error."""
    try:
        return load_jsonl(path, kind)
    except (OSError, ValueError, EOFError, zlib.error) as err:  # the last two: a damaged .gz
        raise ConfigError(f"{label} {path}: {err}") from err


def _write(text: str, out: str | None, mode: str = "w") -> None:
    """A command's output, to `out` or else to stdout; an unwritable `out` is a config error."""
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, mode, encoding="utf-8") as stream:
            stream.write(text)
    except OSError as err:
        raise ConfigError(f"cannot write {out}: {err}") from err


def _check_writable(*outs: str | None) -> None:
    """Fail as a config error, before any backend call, if an output file cannot be written.

    Each file is opened to append, which leaves what it holds. A file this
    check creates is removed again when a later one fails, so a config
    error leaves no output file behind.
    """
    created: list[Path] = []
    try:
        for out in filter(None, outs):
            if not Path(out).exists():
                created.append(Path(out))
            _write("", out, "a")
    except ConfigError:
        for path in created:
            path.unlink(missing_ok=True)
        raise


# Every flag that names a file some command reads, by its `args` attribute. `update
# --table` is not one of them, so that an update may write its table back in place.
_INPUT_FLAGS = {
    "--in": "infile", "--oracle": "oracle", "--config": "config", "--pred": "pred", "--gold": "gold",
    "--structure-template": "structure_template", "--qa-template": "qa_template",
    "--baseline-template": "baseline_template", "--delta": "delta", "--evidence-file": "evidence_file",
}
_OUTPUT_FLAGS = {"--out": "out", "--trace": "trace"}


def _check_distinct(args: Namespace) -> None:
    """Fail as a config error if an output file, by flag, is a file the command reads or another output.

    Paths are compared after `resolve()`, so two spellings of one file match.
    Only a regular file, or one not made yet, can clash: writing one device
    or pipe twice (`/dev/null`) overwrites nothing.
    """
    outputs = [(flag, path) for flag, name in _OUTPUT_FLAGS.items() if (path := getattr(args, name, None))]
    if not outputs:  # the command writes no file (as `stats`, whose `--in` is a list)
        return
    inputs = ((flag, getattr(args, name, None)) for flag, name in _INPUT_FLAGS.items())
    named = {Path(path).resolve(): flag for flag, path in inputs if path}
    for flag, path in outputs:
        resolved = Path(path).resolve()
        if resolved in named and (resolved.is_file() or not resolved.exists()):
            raise ConfigError(f"{flag} {path} is also the {named[resolved]} file")
        named[resolved] = flag


def _read_json(path: str, label: str, build: Callable):
    """`build` applied to the JSON in a file; a file it cannot be built from is a config error."""
    text = _read_text(path, label)
    try:
        return build(json.loads(text))
    except (ValueError, TypeError) as err:
        raise ConfigError(f"{label} {path}: {err}") from err


def _jsonl(records: list[dict]) -> str:
    return "".join(json.dumps(r, sort_keys=True, ensure_ascii=False) + "\n" for r in records)


def _backend_config(args: Namespace) -> BackendConfig:
    """The `--config` file's settings, if one is given, with the backend flags laid over them."""
    config = BackendConfig()
    if args.config:
        config = _read_json(args.config, "config file", BackendConfig.from_dict)
    # Each backend flag but `--backend` is stored under the name of the field it sets.
    flags = "base_url model auth_env fixture_dir concurrency timeout_ms retry_cap cache".split()
    try:
        return config.merged(kind=args.backend, **{name: getattr(args, name) for name in flags})
    except ValueError as err:  # a flag value out of range
        raise ConfigError(str(err)) from err


def _template(path: str | None, asks: bool) -> PromptTemplate | None:
    """The `--*-template` file's template, with a question slot exactly when it `asks`; None without one."""
    if path is None:
        return None
    text = _read_text(path, "template")
    try:
        template = PromptTemplate(name=path, text=text)
        _require_slots(template, asks)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    return template


def _build_backend(
    args: Namespace, config: BackendConfig, samples: list[Sample], *templates: PromptTemplate | None
) -> GenerationBackend:
    """The backend `config` names, behind a request store that keeps its answers as asked.

    `replay` is a store of `fixture_dir` with nothing behind it. A
    `--record-dir` puts the backend behind a store of that directory,
    and `--cache` behind a store in memory; a store of a directory
    already answers repeats, so `--cache` adds nothing to one. The mock
    oracle answers from `--oracle`'s gold samples, or else from
    `samples`, and reads prompts built from `templates` too. A setting
    any backend rejects is a config error.
    """
    if config.kind == "mock-oracle" and args.oracle:
        samples = _load_corpus(args.oracle, args.kind, "oracle file")
    try:
        if config.kind == "mock-oracle":
            if not samples:
                raise ValueError("mock-oracle backend needs gold samples (--oracle)")
            backend: GenerationBackend = MockOracleBackend(
                [(s.text, s.gold) for s in samples],
                templates=[t for t in templates if t],
                concurrency=config.concurrency,
            )
        elif config.kind == "replay":
            if not config.fixture_dir:
                raise ValueError("replay backend needs a fixture directory (--fixtures or config)")
            backend = RequestStore(directory=config.fixture_dir)
        elif config.kind == "http":
            backend = HttpBackend(config)
        else:
            raise ValueError(f"unknown backend kind {config.kind!r}")

        record_dir = getattr(args, "record_dir", None)
        if record_dir is not None:
            if not record_dir:
                raise ValueError("replay-record needs --record-dir")
            backend = RequestStore(backend, directory=record_dir)
        elif config.cache and config.kind != "replay":
            backend = RequestStore(backend)
    except (OSError, ValueError) as err:
        raise ConfigError(str(err)) from err
    return backend


def _run_corpus(
    args: Namespace, config: BackendConfig, run_sample: Callable, *templates: PromptTemplate | None
) -> int:
    """Run a corpus command: `run_sample(backend, sample)` on every `--in` sample.

    It gives a sample's record and trace (or None); a sample it raises on
    gets an error record and counts as failed (exit code 1). Samples run
    through `backend.map`, on the pool that also serves their batches.
    Records and traces keep input order and are written at the end, but
    `--out` and `--trace` are checked before any backend call.
    """
    trace_out = getattr(args, "trace", None)
    samples = _load_corpus(args.infile, args.kind, "corpus file")
    if not samples:
        raise ConfigError(f"corpus file {args.infile} holds no samples")
    backend = _build_backend(args, config, samples, *templates)
    _check_writable(args.out, trace_out)

    def run(sample: Sample) -> tuple[dict, dict | None, bool]:
        try:
            return (*run_sample(backend, sample), False)
        except Exception as err:  # per-sample isolation: one bad sample never kills the run
            error = {"type": type(err).__name__, "message": str(err)}
            return {"id": sample.id, "error": error}, None, True

    results = backend.map(run, samples)
    _write(_jsonl([record for record, _, _ in results]), args.out)
    if trace_out:
        _write(_jsonl([trace for _, trace, _ in results if trace is not None]), trace_out)
    failed = sum(1 for _, _, bad in results if bad)
    if failed:
        print(f"{failed}/{len(samples)} samples failed", file=sys.stderr)
        return 1
    return 0


def _cmd_generate(args: Namespace) -> int:
    config = _backend_config(args)
    structure, qa = _template(args.structure_template, False), _template(args.qa_template, True)

    def run(backend: GenerationBackend, sample: Sample) -> tuple[dict, dict]:
        table, trace = generate_table_traced(
            sample.text,
            args.kind,
            backend,
            structure_template=structure,
            qa_template=qa,
            max_input_tokens=config.max_input_tokens,
            headers_max_new_tokens=config.headers_max_new_tokens,
            answer_max_new_tokens=config.answer_max_new_tokens,
            skeleton=sample.gold if args.gold_headers else None,
        )
        trace_record = {
            "id": sample.id,
            "cells": [cell._asdict() for cell in trace.cells],
            "structure_answer": trace.structure_answer,
            "structure_ms": round(trace.structure_ms, 3),
            "content_ms": round(trace.content_ms, 3),
        }
        return {"id": sample.id, "table": table_to_json(table)}, trace_record

    return _run_corpus(args, config, run, structure, qa)


def _cmd_baseline(args: Namespace) -> int:
    config = _backend_config(args)
    template = _template(args.baseline_template, False)

    def run(backend: GenerationBackend, sample: Sample) -> tuple[dict, None]:
        try:
            table = baseline_generate(
                sample.text,
                args.kind,
                backend,
                template=template,
                max_input_tokens=config.max_input_tokens,
                baseline_max_new_tokens=config.baseline_max_new_tokens,
            )
        except StructuralError as err:
            # Ragged output is a measured outcome, not a run failure.
            return {"id": sample.id, "error": {"type": "StructuralError", "widths": err.widths}}, None
        except EmptyInput:
            return {"id": sample.id, "error": {"type": "EmptyInput"}}, None
        return {"id": sample.id, "table": table_to_json(table)}, None

    return _run_corpus(args, config, run, template)


def _read_predictions(path: str) -> dict[str, Table | None]:
    """Predicted tables by sample id; None for a sample whose generation errored."""
    predictions: dict[str, Table | None] = {}
    first_line: dict[str, int] = {}
    # Split on "\n" only: a JSON string may hold a raw U+2028, which `splitlines` breaks at.
    for line_no, line in enumerate(_read_text(path, "prediction file").split("\n"), 1):
        line = line.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
            if not isinstance(data, dict) or not isinstance(data.get("id"), str):
                raise ValueError('needs a string "id"')
            sample_id = data["id"]
            if sample_id in first_line:
                raise ValueError(f"id {sample_id!r} repeats line {first_line[sample_id]}")
            first_line[sample_id] = line_no
            predictions[sample_id] = table_from_json(data["table"]) if "table" in data else None
        except json.JSONDecodeError as err:
            raise ConfigError(f"{path} line {line_no}: invalid JSON: {err}") from None
        except ValueError as err:
            raise ConfigError(f"{path} line {line_no}: {err}") from None
    return predictions


def _cmd_evaluate(args: Namespace) -> int:
    gold_samples = _load_corpus(args.gold, args.kind, "gold file")
    if not gold_samples:
        raise ConfigError(f"gold file {args.gold} holds no samples")
    predictions = _read_predictions(args.pred)

    gold_ids = [s.id for s in gold_samples]
    repeated = [sample_id for sample_id, count in Counter(gold_ids).items() if count > 1]
    if repeated:
        raise ConfigError(f"gold file {args.gold} repeats sample id {repeated[0]!r}")
    if set(gold_ids) != set(predictions):
        missing = sorted(set(gold_ids) - set(predictions))[:5]
        extra = sorted(set(predictions) - set(gold_ids))[:5]
        raise ConfigError(
            f"prediction ids do not match gold ids (missing {missing}, unexpected {extra})"
        )

    pairs = [(predictions[s.id], s.gold) for s in gold_samples]
    embedder = MockEmbedder() if args.semantic else None
    mode = GOLD_HEADERS if args.gold_headers else PREDICTED_HEADERS
    report = evaluate_corpus(pairs, mode, ids=gold_ids, embedder=embedder)

    if args.format == "json":
        output = report.to_json_text() + "\n"
    elif args.format == "csv":
        output = report.to_csv()
    else:
        output = report.to_text() + "\n"
    _write(output, args.out)
    return 0


def _cmd_update(args: Namespace) -> int:
    config = _backend_config(args)
    table = _read_json(
        args.table, "table file", lambda data: table_of_kind(table_from_json(data), args.kind)
    )
    delta = _read_json(args.delta, "delta file", lambda data: SkeletonDelta(**data))

    evidence = args.evidence or ""
    if args.evidence_file:
        evidence = _read_text(args.evidence_file, "evidence file")
    if not evidence.strip() and not delta.is_empty():
        raise ConfigError("update needs evidence text (--evidence or --evidence-file)")
    try:
        _fit_delta(table, delta)
    except ValueError as err:
        raise ConfigError(f"delta file {args.delta}: {err}") from err

    updated = table
    if not delta.is_empty():
        backend = _build_backend(args, config, [])
        _check_writable(args.out)
        updated = update_table(
            table,
            delta,
            evidence,
            args.kind,
            backend,
            max_input_tokens=config.max_input_tokens,
            answer_max_new_tokens=config.answer_max_new_tokens,
        )
    output = json.dumps(table_to_json(updated), sort_keys=True, ensure_ascii=False, indent=2) + "\n"
    _write(output, args.out)
    return 0


def _cmd_stats(args: Namespace) -> int:
    blocks = [(path, corpus_stats(_load_corpus(path, args.kind, "corpus file"))) for path in args.infile]

    if args.format == "json":
        payload = {path: stats.to_json() for path, stats in blocks}
        _write(json.dumps(payload, sort_keys=True, ensure_ascii=False, indent=2) + "\n", None)
        return 0

    lines = []
    for path, stats in blocks:
        lines.append(f"{path}: {stats.count} samples\n")
        lines.extend(
            f"  {kind.value}: count={kind_stats.count}"
            f" mean_rows={kind_stats.mean_rows:.2f}"
            f" mean_cols={kind_stats.mean_cols:.2f}"
            f" sparsity={kind_stats.sparsity:.3f}\n"
            for kind, kind_stats in stats.by_kind
        )
    _write("".join(lines), None)
    return 0


def _kind(value: str) -> DatasetKind:
    """`--kind`: a dataset kind; anything else is argparse's usage error, naming the kinds."""
    try:
        return DatasetKind.from_string(value)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _add_backend_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file (documented keys; unknown keys rejected)")
    parser.add_argument("--backend", choices=["mock-oracle", "http", "replay"], default=None)
    parser.add_argument("--base-url", dest="base_url")
    parser.add_argument("--model")
    parser.add_argument("--auth-env", dest="auth_env", help="name of the env var holding the API token")
    parser.add_argument("--fixtures", dest="fixture_dir", help="fixture directory for the replay backend")
    parser.add_argument("--concurrency", type=int, default=None)
    parser.add_argument("--timeout-ms", dest="timeout_ms", type=int, default=None)
    parser.add_argument("--retry-cap", dest="retry_cap", type=int, default=None)
    parser.add_argument("--cache", action="store_const", const=True, help="ask each distinct request once")
    parser.add_argument("--oracle", help="gold JSONL used to seed the mock-oracle backend")


def _add_corpus_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kind", required=True, type=_kind)
    parser.add_argument("--in", dest="infile", required=True, help="input corpus JSONL")
    parser.add_argument("--out", help="output predictions JSONL (default stdout)")
    _add_backend_flags(parser)


def _add_generate_flags(parser: argparse.ArgumentParser) -> None:
    """The flags of `generate`, which `replay-record` shares."""
    _add_corpus_flags(parser)
    parser.add_argument("--trace", help="write per-cell trace JSONL here")
    parser.add_argument("--gold-headers", action="store_true", help="seed stage two with gold headers")
    parser.add_argument("--structure-template", help="override the header-stage template file")
    parser.add_argument("--qa-template", help="override the question template file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tabgen", description="Condense text into tables and score the results."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="two-stage generation over a corpus")
    _add_generate_flags(p)
    p.set_defaults(handler=_cmd_generate)

    p = sub.add_parser("baseline", help="single-stage flat-format generation")
    _add_corpus_flags(p)
    p.add_argument("--baseline-template", help="override the flat-format template file")
    p.set_defaults(handler=_cmd_baseline)

    p = sub.add_parser("evaluate", help="score predictions against gold tables")
    p.add_argument("--kind", required=True, type=_kind)
    p.add_argument("--pred", required=True, help="predictions JSONL")
    p.add_argument("--gold", required=True, help="gold corpus JSONL")
    p.add_argument("--gold-headers", action="store_true", help="label the report as the gold-header ablation")
    p.add_argument(
        "--semantic",
        action="store_true",
        help="add embedding-similarity scores over MockEmbedder's hash token vectors: "
        "a structural check, not BERTScore's contextual embeddings",
    )
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(handler=_cmd_evaluate)

    p = sub.add_parser("update", help="fill new or re-asked cells from new evidence")
    p.add_argument("--kind", required=True, type=_kind)
    p.add_argument("--table", required=True, help="existing table JSON file")
    p.add_argument("--delta", required=True, help="delta JSON file")
    p.add_argument("--evidence", help="new evidence text")
    p.add_argument("--evidence-file", dest="evidence_file", help="file holding the new evidence text")
    p.add_argument("--out", help="write the updated table here instead of stdout")
    _add_backend_flags(p)
    p.set_defaults(handler=_cmd_update)

    p = sub.add_parser("stats", help="corpus statistics")
    p.add_argument("--kind", required=True, type=_kind)
    p.add_argument("--in", dest="infile", action="append", required=True, help="corpus JSONL (repeatable)")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(handler=_cmd_stats)

    p = sub.add_parser("replay-record", help="run generation and record replay fixtures")
    _add_generate_flags(p)
    p.add_argument("--record-dir", required=True, help="directory to write fixtures into")
    p.set_defaults(handler=_cmd_generate)

    return parser


def dispatch(argv: list[str] | None = None) -> int:
    """Run one command; exit code 0 on success, 1 on partial failures, 2 on config errors."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        return int(exit_.code or 0)
    try:
        _check_distinct(args)
        return args.handler(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
