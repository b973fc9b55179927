"""Spans and counts around calls into tabgen's modules, recorded from outside the package.

`Tracer.install` swaps timing wrappers in for the module attributes the
pipeline and metrics code look up at call time, and for the methods of
the backend and embedder instances the benchmark built. Nothing in
`tabgen` changes; the swap lasts for the rest of the process, so only a
traced benchmark run installs it.

A span is (id, parent id, name, sample id, thread, start, end). Spans
nest per thread; a call the backend runs on a worker thread takes the
open batch span as its parent. Totals are kept per round of the
benchmark; the spans themselves are kept for the first round only.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict

PROMPT_FUNCTIONS = ("build_structure_prompt", "build_qa_prompt", "build_baseline_prompt")


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._batch: tuple[int, float] | None = None  # open generate_batch: (span id, start)
        self._in_flight = 0
        self.peak_in_flight = 0
        self.sample: str | None = None  # id of the sample being processed
        self.keep_spans = True
        self.spans: list[tuple] = []
        self.reset()

    def reset(self) -> None:
        """Start a new round of totals."""
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.count: dict[str, int] = defaultdict(int)
        self.queue_wait = 0.0
        self.queued_calls = 0
        self.embedded_tokens = 0

    # --- spans ------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _begin(self, name: str) -> list:
        stack = self._stack()
        parent = stack[-1][0] if stack else (self._batch[0] if self._batch else None)
        frame = [next(self._ids), parent, name, time.perf_counter(), 0.0]
        stack.append(frame)
        return frame

    def _end(self, frame: list) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        span_id, parent, name, start, child = frame
        duration = end - start
        if stack:
            stack[-1][4] += duration
        with self._lock:
            self.total[name] += duration
            self.self_time[name] += duration - child
            self.count[name] += 1
            if self.keep_spans:
                self.spans.append((span_id, parent, name, self.sample, threading.get_ident(),
                                   start, end))

    def wrap(self, name: str, fn):
        """`fn` with a span named `name` around each call."""

        def traced(*args, **kwargs):
            frame = self._begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(frame)

        return traced

    # --- layer-specific wrappers ------------------------------------------

    def _wrap_generate(self, fn):
        """Backend calls: in-flight count, and queue wait since the batch began."""

        def traced(request):
            frame = self._begin("backends.generate")
            with self._lock:
                self._in_flight += 1
                self.peak_in_flight = max(self.peak_in_flight, self._in_flight)
                if self._batch is not None:
                    self.queue_wait += frame[3] - self._batch[1]
                    self.queued_calls += 1
            try:
                return fn(request)
            finally:
                with self._lock:
                    self._in_flight -= 1
                self._end(frame)

        return traced

    def _wrap_generate_batch(self, fn):
        def traced(requests):
            frame = self._begin("backends.generate_batch")
            self._batch = (frame[0], frame[3])
            try:
                return fn(requests)
            finally:
                self._batch = None
                self._end(frame)

        return traced

    def _wrap_embed(self, fn):
        def traced(texts, mode="text"):
            frame = self._begin("metrics.embed")
            try:
                return fn(texts, mode=mode)
            finally:
                self._end(frame)
                with self._lock:
                    self.embedded_tokens += len(texts)

        return traced

    def install(self, backend, oracle, embedder) -> None:
        """Wrap the layer boundaries: prompts, backends, table parsing, metrics."""
        import tabgen.metrics
        import tabgen.pipeline

        for name in PROMPT_FUNCTIONS:
            setattr(tabgen.pipeline, name,
                    self.wrap(f"prompts.{name}", getattr(tabgen.pipeline, name)))
        tabgen.pipeline.parse_flat = self.wrap("table.parse_flat", tabgen.pipeline.parse_flat)
        tabgen.metrics.to_tuples = self.wrap("table.to_tuples", tabgen.metrics.to_tuples)
        tabgen.metrics.semantic_score = self.wrap("metrics.semantic_score",
                                                  tabgen.metrics.semantic_score)
        # Answer time is the oracle's own; with an injected delay the
        # dispatched backend is a wrapper around it.
        oracle.generate = self.wrap("backends.answer", oracle.generate)
        backend.generate = self._wrap_generate(backend.generate)
        backend.generate_batch = self._wrap_generate_batch(backend.generate_batch)
        embedder.embed = self._wrap_embed(embedder.embed)
