"""Shared test backends and fixture helpers."""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import pickle
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import pytest

from tabgen.backends import (
    GenerationBackend,
    GenerationRequest,
    GenerationResponse,
    WrapperBackend,
)
from tabgen.corpus import Sample, fixture_path, load_jsonl
from tabgen.kinds import DatasetKind
from tabgen.prompts import formulate_question
from tabgen.table import Orientation, Table

ALL_KINDS = [
    DatasetKind.E2E,
    DatasetKind.WIKITABLETEXT,
    DatasetKind.WIKIBIO,
    DatasetKind.ROTOWIRE_TEAM,
    DatasetKind.ROTOWIRE_PLAYER,
]


def load_example(kind: DatasetKind) -> Sample:
    return load_jsonl(fixture_path(f"{kind.value}_example.jsonl"), kind)[0]


def load_mini(kind: DatasetKind) -> list[Sample]:
    return load_jsonl(fixture_path(f"{kind.value}_mini.jsonl"), kind)


class ScriptedBackend(GenerationBackend):
    """Answers from a prompt->text function or a canned response sequence."""

    def __init__(self, script: Callable[[str], str] | Iterable[str], *, concurrency: int = 8):
        super().__init__(concurrency=concurrency)
        if callable(script):
            self._fn = script
            self._queue = None
        else:
            self._fn = None
            self._queue = list(script)
        self._lock = threading.Lock()

    def _generate_once(self, request: GenerationRequest) -> GenerationResponse:
        if self._fn is not None:
            return GenerationResponse(text=self._fn(request.prompt), latency_ms=0.0)
        with self._lock:
            if not self._queue:
                raise AssertionError("scripted backend ran out of responses")
            text = self._queue.pop(0)
        return GenerationResponse(text=text, latency_ms=0.0)


class CountingBackend(WrapperBackend):
    """Delegates to an inner backend while counting issued generate calls."""

    def __init__(self, inner: GenerationBackend):
        super().__init__(inner)
        self._lock = threading.Lock()
        self.calls = 0

    def _generate_once(self, request: GenerationRequest) -> GenerationResponse:
        with self._lock:
            self.calls += 1
        return self.inner.generate(request)


class DelayedBackend(GenerationBackend):
    """Delegates to an inner backend after sleeping `latency_fn(request)` seconds.

    It sleeps itself, so it is a backend that waits, with its own slots
    and helper threads, whatever `inner` does; its concurrency defaults
    to `inner`'s. It records the most calls in flight at once, the most
    live threads any call saw, the threads that made calls, and the calls
    per request digest.
    """

    def __init__(
        self,
        inner: GenerationBackend,
        latency_fn: Callable[[GenerationRequest], float],
        *,
        concurrency: int | None = None,
    ):
        super().__init__(concurrency=inner.concurrency if concurrency is None else concurrency)
        self.inner = inner
        self.latency_fn = latency_fn
        self._lock = threading.Lock()
        self._in_flight = 0
        self.peak_in_flight = 0
        self.peak_threads = 0
        self.threads: set[int] = set()
        self.calls: Counter[str] = Counter()

    def _generate_once(self, request: GenerationRequest) -> GenerationResponse:
        with self._lock:
            self._in_flight += 1
            self.peak_in_flight = max(self.peak_in_flight, self._in_flight)
            self.peak_threads = max(self.peak_threads, threading.active_count())
            self.threads.add(threading.get_ident())
            self.calls[request.digest()] += 1
        try:
            time.sleep(self.latency_fn(request))
            return self.inner.generate(request)
        finally:
            with self._lock:
                self._in_flight -= 1


def reference_mock_vector(text: str, dim: int):
    """`MockEmbedder`'s vector for one text, hashed on its own: the definition, kept as the reference."""
    import numpy as np

    digest = hashlib.shake_128(text.encode("utf-8", "surrogatepass")).digest(8 * dim)
    words = [int.from_bytes(digest[i : i + 8], "big") for i in range(0, 8 * dim, 8)]
    raw = np.array([(word >> 11) * 2.0**-53 + 1e-9 for word in words])
    return raw / np.linalg.norm(raw)


def check_frozen_record(cls: type, values: Sequence, others: Sequence) -> None:
    """`cls` is an immutable record, a `NamedTuple` or a frozen dataclass, that holds its fields by value.

    `values` and `others` give every field, in order, two different values.
    The signature must list the fields with their defaults, so a field
    the constructor does not take fails here.
    """
    if dataclasses.is_dataclass(cls):
        fields = dataclasses.fields(cls)
        names = [f.name for f in fields]
        defaults = {f.name: f.default for f in fields if f.default is not dataclasses.MISSING}
        as_dict, replace = dataclasses.asdict, dataclasses.replace
    else:
        names, defaults = list(cls._fields), cls._field_defaults
        as_dict, replace = cls._asdict, cls._replace
        assert not hasattr(cls(*values), "__dict__")  # no instance dict beside the tuple
    empty = inspect.Parameter.empty
    assert [
        (p.name, p.kind, p.default) for p in inspect.signature(cls).parameters.values()
    ] == [(name, inspect.Parameter.POSITIONAL_OR_KEYWORD, defaults.get(name, empty)) for name in names]
    required = len(names) - len(defaults)
    assert as_dict(cls(*values[:required])) == {**dict(zip(names, values[:required])), **defaults}

    record = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    assert as_dict(record) == dict(zip(names, values))
    assert [getattr(record, name) for name in names] == list(values)
    assert record == by_keyword and hash(record) == hash(by_keyword)
    assert record != cls(*others)
    assert repr(record) == f"{cls.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in zip(names, values)) + ")"
    assert pickle.loads(pickle.dumps(record)) == record
    for name, other in zip(names, others):
        assert as_dict(replace(record, **{name: other})) == {**dict(zip(names, values)), name: other}
        with pytest.raises(AttributeError):
            setattr(record, name, other)


def blank_table(
    orientation: Orientation, row_headers: Sequence[str], col_headers: Sequence[str]
) -> Table:
    """A skeleton as stage one returns it: the headers, with every cell absent."""
    height = 1 if orientation is Orientation.ATTRIBUTE_VALUE else len(row_headers)
    return Table(orientation, row_headers, col_headers, [[None] * len(col_headers)] * height)


@dataclass(frozen=True)
class CellQuestion:
    """A question bound to one skeleton slot; row_index is None for attribute-value."""

    row_index: int | None
    col_index: int
    question: str


def questions_for_headers(
    orientation: Orientation,
    row_headers: Sequence[str],
    col_headers: Sequence[str],
    numeric_hint: bool = False,
) -> list[CellQuestion]:
    """One question per slot, row-major; attribute-value slots have no row.

    The order stage two asks in, kept as the reference its prompts are checked against.
    """
    if orientation is Orientation.ATTRIBUTE_VALUE:
        return [
            CellQuestion(None, j, formulate_question(None, header))
            for j, header in enumerate(col_headers)
        ]
    return [
        CellQuestion(i, j, formulate_question(row, col, numeric_hint))
        for i, row in enumerate(row_headers)
        for j, col in enumerate(col_headers)
    ]


@pytest.fixture
def rotowire_team_sample() -> Sample:
    return load_example(DatasetKind.ROTOWIRE_TEAM)


@pytest.fixture
def e2e_sample() -> Sample:
    return load_example(DatasetKind.E2E)


@pytest.fixture
def wikibio_sample() -> Sample:
    return load_example(DatasetKind.WIKIBIO)
