"""Command-line surface: generation, baseline, evaluation, updates, stats, recording."""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

from tabgen.backends import (
    BackendConfig,
    CachedBackend,
    GenerationBackend,
    HttpBackend,
    MockEmbedder,
    MockOracleBackend,
    RecordingBackend,
    ReplayBackend,
)
from tabgen.corpus import InvalidGoldTable, Sample, SchemaError, corpus_stats, load_jsonl
from tabgen.kinds import DatasetKind
from tabgen.metrics import GOLD_HEADERS, PREDICTED_HEADERS, evaluate_corpus
from tabgen.pipeline import (
    SkeletonDelta,
    baseline_generate,
    generate_table_traced,
    skeleton_from_table,
    update_table,
)
from tabgen.prompts import NoHeaders, PromptTemplate
from tabgen.table import (
    EmptyInput,
    InvalidTable,
    StructuralError,
    Table,
    table_from_json,
    table_to_json,
)


class ConfigError(ValueError):
    """Bad flags, config file, or environment; maps to exit code 2."""


@dataclass
class RunConfig:
    """Fully resolved run settings: config file merged with flags and environment."""

    backend: BackendConfig
    kind: DatasetKind
    gold_headers: bool = False
    jobs: int = 1
    structure_template: PromptTemplate | None = None
    qa_template: PromptTemplate | None = None
    baseline_template: PromptTemplate | None = None


def _load_template(path: str | None) -> PromptTemplate | None:
    if path is None:
        return None
    try:
        return PromptTemplate.from_file(path)
    except OSError as err:
        raise ConfigError(f"cannot read template {path}: {err}") from err


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    backend_config = BackendConfig()
    if getattr(args, "config", None):
        try:
            backend_config = BackendConfig.from_file(args.config)
        except (OSError, ValueError) as err:
            raise ConfigError(f"config file {args.config}: {err}") from err

    backend_config = backend_config.merged(
        kind=getattr(args, "backend", None),
        base_url=getattr(args, "base_url", None),
        model=getattr(args, "model", None),
        auth_env=getattr(args, "auth_env", None),
        fixture_dir=getattr(args, "fixtures", None),
        concurrency=getattr(args, "concurrency", None),
        timeout_ms=getattr(args, "timeout_ms", None),
        retry_cap=getattr(args, "retry_cap", None),
    )
    if getattr(args, "cache", False):
        backend_config.cache = True

    try:
        kind = DatasetKind.from_string(args.kind)
    except ValueError as err:
        raise ConfigError(str(err)) from err

    return RunConfig(
        backend=backend_config,
        kind=kind,
        gold_headers=getattr(args, "gold_headers", False),
        jobs=getattr(args, "jobs", 1) or 1,
        structure_template=_load_template(getattr(args, "structure_template", None)),
        qa_template=_load_template(getattr(args, "qa_template", None)),
        baseline_template=_load_template(getattr(args, "baseline_template", None)),
    )


def _build_backend(config: RunConfig, samples: list[Sample], oracle_path: str | None) -> GenerationBackend:
    settings = config.backend
    common = {
        "concurrency": settings.concurrency,
        "retry_cap": settings.retry_cap,
        "backoff_s": settings.backoff_s,
    }
    if settings.kind == "mock-oracle":
        pool = samples
        if oracle_path:
            pool = load_jsonl(oracle_path, config.kind)
        if not pool:
            raise ConfigError("mock-oracle backend needs gold samples (--in or --oracle)")
        overrides = (config.structure_template, config.qa_template, config.baseline_template)
        try:
            backend: GenerationBackend = MockOracleBackend(
                [(s.text, s.gold) for s in pool], templates=[t for t in overrides if t], **common
            )
        except ValueError as err:  # a template the oracle cannot read
            raise ConfigError(str(err)) from err
    elif settings.kind == "replay":
        if not settings.fixture_dir:
            raise ConfigError("replay backend needs a fixture directory (--fixtures or config)")
        backend = ReplayBackend(settings.fixture_dir, **common)
    elif settings.kind == "http":
        try:
            backend = HttpBackend(settings)
        except ValueError as err:
            raise ConfigError(str(err)) from err
    else:
        raise ConfigError(f"unknown backend kind {settings.kind!r}")

    if settings.cache:
        backend = CachedBackend(backend)
    return backend


def _write_lines(records: list[dict], out: str | None) -> None:
    text = "".join(json.dumps(r, sort_keys=True, ensure_ascii=False) + "\n" for r in records)
    if out:
        Path(out).write_text(text, "utf-8")
    else:
        sys.stdout.write(text)


def _load_corpus(path: str, kind: DatasetKind, label: str = "corpus file") -> list[Sample]:
    try:
        return load_jsonl(path, kind)
    except FileNotFoundError as err:
        raise ConfigError(f"{label} not found: {path}") from err
    except (SchemaError, InvalidGoldTable) as err:
        raise ConfigError(f"{label} {path}: {err}") from err


def _prepare_run(args: argparse.Namespace) -> tuple[RunConfig, list[Sample], GenerationBackend]:
    """Settings, the input corpus and the backend of a `generate` or `baseline` run."""
    config = _resolve_config(args)
    samples = _load_corpus(args.infile, config.kind)
    if not samples:
        raise ConfigError(f"corpus file {args.infile} holds no samples")
    return config, samples, _build_backend(config, samples, getattr(args, "oracle", None))


def _run_samples(run: Callable[[Sample], tuple], samples: list[Sample], jobs: int) -> list[tuple]:
    """`run` on every sample, results in input order; `jobs` samples at a time."""
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(run, samples))
    return [run(s) for s in samples]


def _cmd_generate(args: argparse.Namespace, record_dir: str | None = None) -> int:
    config, samples, backend = _prepare_run(args)
    if record_dir:
        backend = RecordingBackend(backend, record_dir)

    settings = config.backend

    def run(sample: Sample) -> tuple[dict, dict | None, bool]:
        skeleton = skeleton_from_table(sample.gold) if config.gold_headers else None
        try:
            table, trace = generate_table_traced(
                sample.text,
                config.kind,
                backend,
                structure_template=config.structure_template,
                qa_template=config.qa_template,
                max_input_tokens=settings.max_input_tokens,
                headers_max_new_tokens=settings.headers_max_new_tokens,
                answer_max_new_tokens=settings.answer_max_new_tokens,
                skeleton=skeleton,
            )
        except Exception as err:  # per-sample isolation: one bad sample never kills the run
            record = {"id": sample.id, "error": {"type": type(err).__name__, "message": str(err)}}
            return record, None, True
        trace_record = {
            "id": sample.id,
            **asdict(trace),
            "structure_ms": round(trace.structure_ms, 3),
            "content_ms": round(trace.content_ms, 3),
        }
        return {"id": sample.id, "table": table_to_json(table)}, trace_record, False

    results = _run_samples(run, samples, config.jobs)
    records = [record for record, _, _ in results]
    traces = [trace for _, trace, _ in results if trace is not None]
    failed = sum(1 for _, _, bad in results if bad)

    _write_lines(records, args.out)
    if getattr(args, "trace", None):
        _write_lines(traces, args.trace)
    if failed:
        print(f"{failed}/{len(samples)} samples failed", file=sys.stderr)
        return 1
    return 0


def _cmd_baseline(args: argparse.Namespace) -> int:
    config, samples, backend = _prepare_run(args)
    settings = config.backend

    def run(sample: Sample) -> tuple[dict, bool]:
        try:
            table = baseline_generate(
                sample.text,
                config.kind,
                backend,
                template=config.baseline_template,
                max_input_tokens=settings.max_input_tokens,
                baseline_max_new_tokens=settings.baseline_max_new_tokens,
            )
        except StructuralError as err:
            # Ragged output is a measured outcome, not a run failure.
            return {"id": sample.id, "error": {"type": "StructuralError", "widths": err.widths}}, False
        except EmptyInput:
            return {"id": sample.id, "error": {"type": "EmptyInput"}}, False
        except Exception as err:
            return {"id": sample.id, "error": {"type": type(err).__name__, "message": str(err)}}, True
        return {"id": sample.id, "table": table_to_json(table)}, False

    results = _run_samples(run, samples, config.jobs)
    records = [record for record, _ in results]
    backend_failures = sum(1 for _, bad in results if bad)

    _write_lines(records, args.out)
    if backend_failures:
        print(f"{backend_failures}/{len(samples)} samples failed", file=sys.stderr)
        return 1
    return 0


def _read_predictions(path: str) -> dict[str, Table | None]:
    predictions: dict[str, Table | None] = {}
    try:
        with open(path, encoding="utf-8") as handle:
            for line_no, line in enumerate(handle, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    data = json.loads(line)
                except json.JSONDecodeError as err:
                    raise ConfigError(f"{path} line {line_no}: invalid JSON: {err}") from None
                if not isinstance(data, dict) or not isinstance(data.get("id"), str):
                    raise ConfigError(f'{path} line {line_no}: needs a string "id"')
                if "table" in data:
                    try:
                        predictions[data["id"]] = table_from_json(data["table"])
                    except ValueError as err:
                        raise ConfigError(f"{path} line {line_no}: {err}") from None
                else:
                    predictions[data["id"]] = None  # errored sample
    except FileNotFoundError as err:
        raise ConfigError(f"prediction file not found: {path}") from err
    return predictions


def _cmd_evaluate(args: argparse.Namespace) -> int:
    try:
        kind = DatasetKind.from_string(args.kind)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    gold_samples = _load_corpus(args.gold, kind, "gold file")
    predictions = _read_predictions(args.pred)

    gold_ids = [s.id for s in gold_samples]
    if set(gold_ids) != set(predictions) or len(predictions) != len(gold_ids):
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
    if args.out:
        Path(args.out).write_text(output, "utf-8")
    else:
        sys.stdout.write(output)
    return 0


def _cmd_update(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    try:
        table = table_from_json(json.loads(Path(args.table).read_text("utf-8")))
    except FileNotFoundError as err:
        raise ConfigError(f"table file not found: {args.table}") from err
    except ValueError as err:
        raise ConfigError(f"table file {args.table}: {err}") from err

    try:
        delta_data = json.loads(Path(args.delta).read_text("utf-8"))
        if not isinstance(delta_data, dict):
            raise ValueError("must hold a JSON object")
        delta = SkeletonDelta(**delta_data)
    except FileNotFoundError as err:
        raise ConfigError(f"delta file not found: {args.delta}") from err
    except (ValueError, TypeError) as err:
        raise ConfigError(f"delta file {args.delta}: {err}") from err

    if args.evidence_file:
        try:
            evidence = Path(args.evidence_file).read_text("utf-8")
        except OSError as err:
            raise ConfigError(f"cannot read evidence file: {err}") from err
    else:
        evidence = args.evidence or ""
    if not evidence.strip() and not delta.is_empty():
        raise ConfigError("update needs evidence text (--evidence or --evidence-file)")

    updated = table
    if not delta.is_empty():
        backend = _build_backend(config, [], getattr(args, "oracle", None))
        try:
            updated = update_table(
                table,
                delta,
                evidence,
                config.kind,
                backend,
                max_input_tokens=config.backend.max_input_tokens,
                answer_max_new_tokens=config.backend.answer_max_new_tokens,
            )
        except InvalidTable as err:
            raise ConfigError(f"table file {args.table}: {err}") from err
        except ValueError as err:  # a delta that does not fit the table
            raise ConfigError(f"delta file {args.delta}: {err}") from err
    output = json.dumps(table_to_json(updated), sort_keys=True, ensure_ascii=False, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(output, "utf-8")
    else:
        sys.stdout.write(output)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    try:
        kind = DatasetKind.from_string(args.kind)
    except ValueError as err:
        raise ConfigError(str(err)) from err

    blocks = [(path, corpus_stats(_load_corpus(path, kind))) for path in args.infile]

    if args.format == "json":
        payload = {path: stats.to_json() for path, stats in blocks}
        sys.stdout.write(json.dumps(payload, sort_keys=True, ensure_ascii=False, indent=2) + "\n")
        return 0

    for path, stats in blocks:
        sys.stdout.write(f"{path}: {stats.count} samples\n")
        for kind_, kind_stats in stats.by_kind:
            sys.stdout.write(
                f"  {kind_.value}: count={kind_stats.count}"
                f" mean_rows={kind_stats.mean_rows:.2f}"
                f" mean_cols={kind_stats.mean_cols:.2f}"
                f" sparsity={kind_stats.sparsity:.3f}\n"
            )
    return 0


def _cmd_replay_record(args: argparse.Namespace) -> int:
    if not args.record_dir:
        raise ConfigError("replay-record needs --record-dir")
    return _cmd_generate(args, record_dir=args.record_dir)


def _add_backend_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file (documented keys; unknown keys rejected)")
    parser.add_argument("--backend", choices=["mock-oracle", "http", "replay"], default=None)
    parser.add_argument("--base-url", dest="base_url")
    parser.add_argument("--model")
    parser.add_argument("--auth-env", dest="auth_env", help="name of the env var holding the API token")
    parser.add_argument("--fixtures", help="fixture directory for the replay backend")
    parser.add_argument("--concurrency", type=int, default=None)
    parser.add_argument("--timeout-ms", dest="timeout_ms", type=int, default=None)
    parser.add_argument("--retry-cap", dest="retry_cap", type=int, default=None)
    parser.add_argument("--cache", action="store_true", help="enable the in-memory request cache")


def _add_generate_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kind", required=True)
    parser.add_argument("--in", dest="infile", required=True, help="input corpus JSONL")
    parser.add_argument("--out", help="output predictions JSONL (default stdout)")
    parser.add_argument("--oracle", help="gold JSONL used to seed the mock-oracle backend")
    parser.add_argument("--jobs", type=int, default=1, help="sample-level parallelism")
    _add_backend_flags(parser)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tabgen", description="Condense text into tables and score the results."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="two-stage generation over a corpus")
    _add_generate_flags(p)
    p.add_argument("--trace", help="write per-cell trace JSONL here")
    p.add_argument("--gold-headers", action="store_true", help="seed stage two with gold headers")
    p.add_argument("--structure-template", help="override the header-stage template file")
    p.add_argument("--qa-template", help="override the question template file")
    p.set_defaults(handler=_cmd_generate)

    p = sub.add_parser("baseline", help="single-stage flat-format generation")
    _add_generate_flags(p)
    p.add_argument("--baseline-template", help="override the flat-format template file")
    p.set_defaults(handler=_cmd_baseline)

    p = sub.add_parser("evaluate", help="score predictions against gold tables")
    p.add_argument("--kind", required=True)
    p.add_argument("--pred", required=True, help="predictions JSONL")
    p.add_argument("--gold", required=True, help="gold corpus JSONL")
    p.add_argument("--gold-headers", action="store_true", help="label the report as the gold-header ablation")
    p.add_argument(
        "--semantic",
        action="store_true",
        help="add embedding-similarity scores over MockEmbedder's hash-seeded token vectors: "
        "a structural check, not BERTScore's contextual embeddings",
    )
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(handler=_cmd_evaluate)

    p = sub.add_parser("update", help="fill new or re-asked cells from new evidence")
    p.add_argument("--kind", required=True)
    p.add_argument("--table", required=True, help="existing table JSON file")
    p.add_argument("--delta", required=True, help="delta JSON file")
    p.add_argument("--evidence", help="new evidence text")
    p.add_argument("--evidence-file", dest="evidence_file", help="file holding the new evidence text")
    p.add_argument("--out", help="write the updated table here instead of stdout")
    p.add_argument("--oracle", help="gold JSONL used to seed the mock-oracle backend")
    _add_backend_flags(p)
    p.set_defaults(handler=_cmd_update)

    p = sub.add_parser("stats", help="corpus statistics")
    p.add_argument("--kind", required=True)
    p.add_argument("--in", dest="infile", action="append", required=True, help="corpus JSONL (repeatable)")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(handler=_cmd_stats)

    p = sub.add_parser("replay-record", help="run generation and record replay fixtures")
    _add_generate_flags(p)
    p.add_argument("--record-dir", required=True, help="directory to write fixtures into")
    p.add_argument("--trace", help="write per-cell trace JSONL here")
    p.add_argument("--gold-headers", action="store_true")
    p.add_argument("--structure-template")
    p.add_argument("--qa-template")
    p.set_defaults(handler=_cmd_replay_record)

    return parser


def dispatch(argv: list[str] | None = None) -> int:
    """Run one command; exit code 0 on success, 1 on partial failures, 2 on config errors."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        return int(exit_.code or 0)
    try:
        return args.handler(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except NoHeaders as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
