"""Shared test backends and fixture helpers."""

from __future__ import annotations

import threading
from typing import Callable, Iterable

import pytest

from tabgen.backends import (
    GenerationBackend,
    GenerationRequest,
    GenerationResponse,
    WrapperBackend,
)
from tabgen.corpus import Sample, fixture_path, load_jsonl
from tabgen.kinds import DatasetKind

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

    def __init__(self, script: Callable[[str], str] | Iterable[str], **kwargs):
        kwargs.setdefault("backoff_s", 0.0)
        super().__init__(**kwargs)
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


@pytest.fixture
def rotowire_team_sample() -> Sample:
    return load_example(DatasetKind.ROTOWIRE_TEAM)


@pytest.fixture
def e2e_sample() -> Sample:
    return load_example(DatasetKind.E2E)


@pytest.fixture
def wikibio_sample() -> Sample:
    return load_example(DatasetKind.WIKIBIO)
