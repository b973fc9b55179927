"""Benchmark of tabgen's generate, baseline, update and evaluate paths on one workload.

    python3 perfbench/run.py --workload boxscore --seed 1 --seconds 30 --trace 0

One run writes the workload's corpus for the seed, times the set-up in
fresh processes, then repeats rounds of five phases, in the order a CLI
user runs them, until the time is up:

    generate, baseline, update, evaluate_exact, evaluate_semantic

Every operation's output is checked against facts the input generator
recorded (see bench_checks.py). Only the calls into the program are
timed; checks and bookkeeping between calls are not. With `--trace 0`
the last line of standard output is a JSON object with the end-to-end
metrics; with `--trace 1` the layer boundaries are wrapped in spans
(bench_spans.py) and the object holds the per-layer metrics instead.
A throughput counts each call at its fastest across the run's passes;
per-layer figures are medians over rounds. See README.md
for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# One BLAS thread, set before NumPy loads: with the default two, the matrix
# products of semantic scoring wait on the second core whenever another
# process holds it, which made semantic passes two to three times slower
# and erratic.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import bench_inputs  # noqa: E402
from bench_checks import (  # noqa: E402
    canon,
    exact_failures,
    same_cells,
    same_table,
    semantic_failures,
)
from bench_inputs import KINDS, WORKLOADS, slot_count, update_slot_count  # noqa: E402
from bench_spans import PROMPT_FUNCTIONS, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_PROBES = 7
RECOMPUTED_PER_KIND = 2  # perturbed predictions per kind re-scored with NumPy each round
PHASES = ("generate", "baseline", "update", "evaluate_exact", "evaluate_semantic")
# Phases whose pass over a small corpus takes milliseconds repeat within a
# round until they have processed this many units, so that each is timed
# over enough work; the pass count follows from the corpus shape alone.
PASS_UNITS = {"baseline": 480, "evaluate_exact": 80_000}

END_TO_END = {
    "setup_s": "s",
    "generate.cells_per_s": "cells/s",
    "baseline.tables_per_s": "tables/s",
    "update.cells_per_s": "cells/s",
    "evaluate_exact.cells_per_s": "cells/s",
    "evaluate_semantic.cells_per_s": "cells/s",
    "calls_per_table": "calls/table",
    "prompt_tokens_per_table": "tokens/table",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "corpus.load_s": "s",
    "prompts.build_s": "s",
    "prompts.count": "count",
    "prompts.tokens_est": "tokens",
    "backends.answer_s": "s",
    "backends.calls": "count",
    "backends.batches": "count",
    "backends.queue_wait_s": "s",
    "backends.peak_in_flight": "count",
    "pipeline.structure_s": "s",
    "pipeline.content_s": "s",
    "pipeline.self_s": "s",
    "pipeline.update_s": "s",
    "pipeline.baseline_s": "s",
    "table.parse_flat_s": "s",
    "table.to_tuples_s": "s",
    "metrics.exact_s": "s",
    "metrics.semantic_s": "s",
    "metrics.embed_s": "s",
    "metrics.embed_calls": "count",
    "metrics.embedded_tokens": "tokens",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def probe_setup(workload: str, corpus_dir: Path) -> list[dict]:
    """Time the set-up SETUP_PROBES times, each in a fresh interpreter."""
    command = [sys.executable, str(HERE / "bench_setup.py"),
               "--workload", workload, "--corpus", str(corpus_dir)]
    probes = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
        probes.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return probes


class SentPrompts:
    """Keeps the prompt of every request the pipeline hands the backend.

    The prompts are taken and counted between operations, outside the
    timed calls.
    """

    def __init__(self, backend):
        self.prompts: list[str] = []
        inner = backend.generate

        def generate(request):
            self.prompts.append(request.prompt)
            return inner(request)

        backend.generate = generate

    def take(self) -> list[str]:
        taken, self.prompts = self.prompts, []
        return taken


@dataclass
class Item:
    """One sample's inputs as the program loaded them, with the generator's record."""

    record: bench_inputs.Record
    gold: object  # tabgen Sample
    pred: object
    update: object
    delta: object  # tabgen SkeletonDelta


@dataclass
class PhaseRound:
    units: int = 0  # cells or tables, as the phase's metric counts them
    times: list = field(default_factory=list)  # seconds of each timed call, in a fixed order
    attempted: int = 0
    failed: list = field(default_factory=list)  # ids of operations that raised or were wrong
    calls: int = 0
    prompt_tokens: int = 0
    structure_s: float = 0.0
    content_s: float = 0.0

    def rate(self) -> float:
        return self.units / sum(self.times)


class Bench:
    def __init__(self, workload: str, corpus, tabgen, loaded, backend, embedder, tracer):
        self.tabgen = tabgen
        self.backend = backend
        self.embedder = embedder
        self.tracer = tracer
        self.sent = SentPrompts(backend)
        self.planted = {r.id for r in corpus.records() if r.planted}
        self.items: dict[str, list[Item]] = {}
        for kind in KINDS[workload]:
            records = corpus.by_kind[kind]
            samples = zip(loaded[kind, "gold"], loaded[kind, "pred"], loaded[kind, "update"])
            self.items[kind] = [Item(r, g, p, u, self._delta(r))
                                for r, (g, p, u) in zip(records, samples)]
        self.recompute: set[str] = set()
        for items in self.items.values():
            perturbed = [i.record.id for i in items if i.record.pred != i.record.gold]
            self.recompute.update(perturbed[:RECOMPUTED_PER_KIND])
        self.prompt_tokens = 0  # traced runs: tokens of the prompts sent this round
        records = list(corpus.records())
        per_pass = {"baseline": len(records),
                    "evaluate_exact": sum(slot_count(r.gold) for r in records)}
        self.passes = dict.fromkeys(PHASES, 1)
        for phase, target in PASS_UNITS.items():
            self.passes[phase] = max(1, math.ceil(target / per_pass[phase]))

        ops = {
            "generate": tabgen.generate_table_traced,
            "baseline": tabgen.baseline_generate,
            "update": tabgen.update_table,
            "evaluate_exact": tabgen.evaluate_corpus,
            "evaluate_semantic": tabgen.evaluate_corpus,
        }
        if tracer is not None:
            names = {"generate": "pipeline.generate", "baseline": "pipeline.baseline",
                     "update": "pipeline.update", "evaluate_exact": "metrics.evaluate_exact",
                     "evaluate_semantic": "metrics.evaluate_semantic"}
            ops = {phase: tracer.wrap(names[phase], fn) for phase, fn in ops.items()}
        self.ops = ops

    def _delta(self, record):
        matrix = record.gold["orientation"] == "matrix"
        removed = (record.removed_header,)
        return self.tabgen.SkeletonDelta(
            add_row_headers=removed if matrix else (),
            add_col_headers=() if matrix else removed,
            reask=tuple((r, c) for r, c in record.blanked),
        )

    def load_mismatches(self) -> list[str]:
        """Ids whose loaded tables differ from what the generator wrote."""
        return [item.record.id for items in self.items.values() for item in items
                if item.gold.id != item.record.id
                or canon(item.gold.gold) != item.record.gold
                or canon(item.pred.gold) != item.record.pred
                or canon(item.update.gold) != item.record.update_input]

    def call(self, sample_id: str, op, *args, **kwargs):
        """(result or exception, seconds, prompts sent) for one operation."""
        if self.tracer is not None:
            self.tracer.sample = sample_id
        started = time.perf_counter()
        try:
            result = op(*args, **kwargs)
        except Exception as err:  # a failed operation is counted, and the run goes on
            result = err
        seconds = time.perf_counter() - started
        sent = self.sent.take()
        if self.tracer is not None:
            self.prompt_tokens += sum(map(self.tabgen.prompts.estimate_tokens, sent))
        return result, seconds, sent

    # --- phases -----------------------------------------------------------

    def generate(self) -> PhaseRound:
        out = PhaseRound()
        estimate = self.tabgen.prompts.estimate_tokens
        for kind, items in self.items.items():
            dataset = self.tabgen.DatasetKind(kind)
            for item in items:
                result, seconds, sent = self.call(item.record.id, self.ops["generate"],
                                                  item.gold.text, dataset, self.backend)
                out.times.append(seconds)
                out.units += slot_count(item.record.gold)
                out.attempted += 1
                out.calls += len(sent)
                out.prompt_tokens += sum(estimate(p) for p in sent)
                if isinstance(result, Exception):
                    out.failed.append(item.record.id)
                    continue
                out.structure_s += result[1].structure_ms / 1000.0
                out.content_s += result[1].content_ms / 1000.0
                if not same_table(result[0], item.record.gold):
                    out.failed.append(item.record.id)
        return out

    def baseline(self) -> PhaseRound:
        out = PhaseRound()
        for kind, items in self.items.items():
            dataset = self.tabgen.DatasetKind(kind)
            for item in items:
                result, seconds, _ = self.call(item.record.id, self.ops["baseline"],
                                               item.gold.text, dataset, self.backend)
                out.times.append(seconds)
                out.units += 1
                out.attempted += 1
                if isinstance(result, Exception) or not same_table(result, item.record.gold):
                    out.failed.append(item.record.id)
        return out

    def update(self) -> PhaseRound:
        out = PhaseRound()
        for kind, items in self.items.items():
            dataset = self.tabgen.DatasetKind(kind)
            for item in items:
                result, seconds, _ = self.call(
                    item.record.id, self.ops["update"], item.update.gold, item.delta,
                    item.update.text, dataset, self.backend)
                out.times.append(seconds)
                out.units += update_slot_count(item.record)
                out.attempted += 1
                if isinstance(result, Exception) or not same_cells(result, item.record.gold):
                    out.failed.append(item.record.id)
        return out

    def _evaluate(self, phase: str, embedder) -> PhaseRound:
        out = PhaseRound()
        for kind, items in self.items.items():
            pairs = [(item.pred.gold, item.gold.gold) for item in items]
            ids = [item.gold.id for item in items]
            records = [item.record for item in items]
            report, seconds, _ = self.call(kind, self.ops[phase], pairs, ids=ids,
                                           embedder=embedder)
            out.times.append(seconds)
            out.units += sum(slot_count(r.gold) for r in records)
            out.attempted += len(items)
            if isinstance(report, Exception):
                out.failed.extend(ids)
            elif embedder is None:
                out.failed.extend(exact_failures(report, records))
            else:
                out.failed.extend(semantic_failures(report, records, self.embedder,
                                                    self.recompute))
        return out

    def evaluate_exact(self) -> PhaseRound:
        return self._evaluate("evaluate_exact", None)

    def evaluate_semantic(self) -> PhaseRound:
        return self._evaluate("evaluate_semantic", self.embedder)

    # --- rounds -----------------------------------------------------------

    def layer_round(self, generate: PhaseRound) -> dict:
        """This round's per-layer figures, from the tracer's totals."""
        t = self.tracer
        prompt_spans = [f"prompts.{name}" for name in PROMPT_FUNCTIONS]
        return {
            "prompts.build_s": sum(t.total[n] for n in prompt_spans),
            "prompts.count": sum(t.count[n] for n in prompt_spans),
            "prompts.tokens_est": self.prompt_tokens,
            "backends.answer_s": t.total["backends.answer"],
            "backends.calls": t.count["backends.generate"],
            "backends.batches": t.count["backends.generate_batch"],
            "backends.queue_wait_s": t.queue_wait / max(1, t.queued_calls),
            "pipeline.structure_s": generate.structure_s,
            "pipeline.content_s": generate.content_s,
            "pipeline.self_s": t.self_time["pipeline.generate"],
            "pipeline.update_s": t.total["pipeline.update"],
            "pipeline.baseline_s": t.total["pipeline.baseline"],
            "table.parse_flat_s": t.total["table.parse_flat"],
            "table.to_tuples_s": t.total["table.to_tuples"],
            "metrics.exact_s": t.total["metrics.evaluate_exact"],
            "metrics.semantic_s": t.total["metrics.semantic_score"],
            "metrics.embed_s": t.total["metrics.embed"],
            "metrics.embed_calls": t.count["metrics.embed"],
            "metrics.embedded_tokens": t.embedded_tokens,
        }

    def run(self, seconds: float) -> tuple[list[dict], list[dict]]:
        """Whole rounds of the five phases, stopping before the next would overrun.

        A round maps each phase to its passes, one `PhaseRound` each.
        """
        rounds: list[dict] = []
        layers: list[dict] = []
        started = time.perf_counter()
        while True:
            if self.tracer is not None:
                self.tracer.reset()
                self.prompt_tokens = 0
            rounds.append({phase: [getattr(self, phase)() for _ in range(self.passes[phase])]
                           for phase in PHASES})
            if self.tracer is not None:
                layers.append(self.layer_round(rounds[-1]["generate"][0]))
                self.tracer.keep_spans = False
            elapsed = time.perf_counter() - started
            if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
                return rounds, layers


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def passes(rounds: list[dict], phase: str) -> list[PhaseRound]:
    return [p for r in rounds for p in r[phase]]


def best_rate(done: list[PhaseRound]) -> float:
    """Units of one pass over the sum of each call's fastest time across the passes.

    Every pass makes the same calls on the same inputs, so a call's
    fastest time is its cost without interference; other processes can
    only add time (see README.md, "Steadiness").
    """
    return done[0].units / sum(min(times) for times in zip(*(p.times for p in done)))


def summarize(rounds: list[dict], probes: list[dict]) -> dict:
    generated = passes(rounds, "generate")
    tables = sum(g.attempted for g in generated)
    return {
        "setup_s": min(p["setup_s"] for p in probes),
        "generate.cells_per_s": best_rate(generated),
        "baseline.tables_per_s": best_rate(passes(rounds, "baseline")),
        "update.cells_per_s": best_rate(passes(rounds, "update")),
        "evaluate_exact.cells_per_s": best_rate(passes(rounds, "evaluate_exact")),
        "evaluate_semantic.cells_per_s": best_rate(passes(rounds, "evaluate_semantic")),
        "calls_per_table": sum(g.calls for g in generated) / tables,
        "prompt_tokens_per_table": sum(g.prompt_tokens for g in generated) / tables,
        "peak_rss_mb": peak_rss_mb(),
    }


def layer_summary(bench: Bench, layers: list[dict], probes: list[dict]) -> dict:
    figures = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
    figures["corpus.load_s"] = min(p["load_s"] for p in probes)
    figures["backends.peak_in_flight"] = bench.tracer.peak_in_flight
    return {name: figures[name] for name in PER_LAYER}


def write_spans(tracer, path: Path) -> None:
    origin = min((span[5] for span in tracer.spans), default=0.0)
    with open(path, "w", encoding="utf-8") as handle:
        for span_id, parent, name, sample, thread, start, end in tracer.spans:
            handle.write(json.dumps({
                "id": span_id, "parent": parent, "name": name, "sample": sample,
                "thread": thread, "start_s": start - origin, "end_s": end - origin,
            }) + "\n")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "tabgen" / "__init__.py").is_file():
        print(f"error: no tabgen sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    corpus = bench_inputs.build(args.workload, args.seed)
    corpus_dir = OUT / "corpus" / args.workload
    bench_inputs.write(corpus, corpus_dir)
    probes = probe_setup(args.workload, corpus_dir)

    import bench_backend
    import tabgen

    if not Path(tabgen.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported tabgen from {tabgen.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    loaded = bench_backend.load(args.workload, corpus_dir)
    backend, oracle = bench_backend.make_backend(args.workload, loaded)
    embedder = tabgen.MockEmbedder()
    tracer = Tracer() if args.trace else None
    bench = Bench(args.workload, corpus, tabgen, loaded, backend, embedder, tracer)
    if tracer is not None:
        tracer.install(backend, oracle, embedder)

    load_errors = bench.load_mismatches()
    rounds, layers = bench.run(args.seconds)

    attempted = failed = 0
    unexpected: set[str] = set(load_errors)
    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)}  "
          f"planted {len(bench.planted)}")
    for phase in PHASES:
        done = passes(rounds, phase)
        phase_failed = [i for r in done for i in r.failed]
        attempted += sum(r.attempted for r in done)
        failed += len(phase_failed)
        unexpected.update(i for i in phase_failed if i not in bench.planted)
        print(f"  {phase:<18} attempted {sum(r.attempted for r in done):>7}  "
              f"failed {len(phase_failed):>6}  "
              f"{best_rate(done):>12.2f} units/s")
    if unexpected:
        print(f"unexpected failures: {sorted(unexpected)[:10]}", file=sys.stderr)

    if tracer is None:
        metrics = summarize(rounds, probes)
        units = END_TO_END
    else:
        metrics = layer_summary(bench, layers, probes)
        units = PER_LAYER
        write_spans(tracer, OUT / f"spans-{args.workload}.jsonl")
    for name, value in metrics.items():
        print(f"  {name:<32} {value:>14.6g} {units[name]}")

    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    run_file = OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    pass_rates = {phase: [p.rate() for p in passes(rounds, phase)] for phase in PHASES}
    run_file.write_text(json.dumps({**result, "rounds": len(rounds), "probes": probes,
                                    "pass_rates": pass_rates}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
