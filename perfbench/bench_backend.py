"""A workload's set-up as a CLI run does it: load the corpus, build the backend.

Importing this module imports `tabgen`; callers put the checkout's
`src` directory on `sys.path` first.
"""

from __future__ import annotations

import time
from pathlib import Path

from tabgen import DatasetKind, GenerationBackend, MockOracleBackend, load_jsonl

from bench_inputs import BACKENDS, FILES, KINDS, corpus_file


class DelayedBackend(GenerationBackend):
    """The oracle behind a fixed per-call delay, the hook `ReplayBackend(latency_fn=...)` has.

    It stands for a remote service: the answer comes from the inner
    oracle, then the call waits out the simulated round trip.
    """

    def __init__(self, inner: GenerationBackend, latency_fn, **kwargs):
        super().__init__(**kwargs)
        self.inner = inner
        self.latency_fn = latency_fn

    def _generate_once(self, request):
        response = self.inner.generate(request)
        time.sleep(self.latency_fn(request))
        return response


def load(workload: str, directory: Path) -> dict:
    """(kind, file name) -> samples, for every corpus file of the workload."""
    return {
        (kind, name): load_jsonl(corpus_file(directory, kind, name), DatasetKind(kind))
        for kind in KINDS[workload]
        for name in FILES
    }


def make_backend(workload: str, loaded: dict) -> tuple[GenerationBackend, MockOracleBackend]:
    """(backend the pipeline calls, the oracle that answers) for the workload.

    The oracle knows every gold table of the workload, registered in
    corpus file order.
    """
    spec = BACKENDS[workload]
    pairs = [(s.text, s.gold) for kind in KINDS[workload] for s in loaded[kind, "gold"]]
    if not spec["delay_s"]:
        oracle = MockOracleBackend(pairs, concurrency=spec["concurrency"])
        return oracle, oracle
    oracle = MockOracleBackend(pairs, concurrency=1)
    delay = spec["delay_s"]
    return DelayedBackend(oracle, lambda _request: delay, concurrency=spec["concurrency"]), oracle
