from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import random
import sys
import threading
import time
from datetime import datetime, timedelta, timezone
from email.utils import format_datetime
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer

import numpy as np
import pytest

import tabgen.backends
from tabgen.backends import (
    BackendConfig,
    BackendError,
    BackendTimeout,
    EmbeddingResponse,
    GenerationBackend,
    GenerationRequest,
    GenerationResponse,
    HttpBackend,
    MalformedResponse,
    MockEmbedder,
    MockOracleBackend,
    RateLimited,
    RequestStore,
    Unreachable,
    WrapperBackend,
    _retry_after_seconds,
)
from tabgen.kinds import DatasetKind
from tabgen.pipeline import generate_content, generate_table
from tabgen.prompts import (
    PromptTemplate,
    build_baseline_prompt,
    build_qa_prompt,
    build_structure_prompt,
    default_qa_template,
    formulate_question,
)
from tabgen.table import Orientation, serialize_flat, table_to_json

from .conftest import (
    CountingBackend,
    DelayedBackend,
    ScriptedBackend,
    check_frozen_record,
    load_example,
    reference_mock_vector,
)


class FlakyHttp(HttpBackend):
    """An HTTP client whose single-attempt POST fails `failures` times with `error`, then answers.

    `config` holds `BackendConfig` fields; no request leaves the process.
    """

    def __init__(self, failures: int, error: BackendError, **config):
        config.setdefault("backoff_s", 0.0)
        super().__init__(BackendConfig(kind="http", base_url="http://flaky.invalid", **config))
        self.failures = failures
        self.error = error
        self.attempts = 0

    def _post_once(self, path, payload):
        self.attempts += 1
        if self.attempts <= self.failures:
            raise self.error
        return {"choices": [{"text": "ok"}]}


class TestRequestTypes:
    @pytest.mark.parametrize("make", [lambda: GenerationRequest("p", 0),
                                      lambda: GenerationRequest("p", max_new_tokens=0),
                                      lambda: GenerationRequest(prompt="p", max_new_tokens=-3)],
                             ids=["positional", "keyword", "negative"])
    def test_max_new_tokens_must_be_positive(self, make):
        with pytest.raises(ValueError, match="max_new_tokens must be >= 1"):
            make()

    def test_request_init_is_the_dataclass_one(self):
        check_frozen_record(GenerationRequest, ("p", 8), ("q", 9))
        with pytest.raises(ValueError, match="max_new_tokens"):
            dataclasses.replace(GenerationRequest("p"), max_new_tokens=0)

    def test_response_init_is_the_dataclass_one(self):
        check_frozen_record(GenerationResponse, ("ok", 3, 1, 0.5), ("no", 4, 2, 1.5))

    def test_digest_is_stable_and_prompt_sensitive(self):
        a = GenerationRequest("p", max_new_tokens=8)
        b = GenerationRequest("p", max_new_tokens=8)
        c = GenerationRequest("q", max_new_tokens=8)
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()

    def test_digest_is_pinned(self):
        # Replay fixtures are named by digest; a change here orphans every recorded one.
        assert GenerationRequest("hello", 7).digest() == (
            "9e5affef2905f4e78c84992f930e16157c0ea94c140ed4ef5eef2d346c133ef4"
        )

    @pytest.mark.parametrize("vectors", [(), ((),), ((1.0,), (1.0, 2.0)), (1.0, 2.0), np.ones((2, 0))],
                             ids=["empty", "zero-dimension", "ragged", "one-dimensional", "empty-array"])
    def test_embedding_response_rejects_what_is_not_rows_of_numbers(self, vectors):
        with pytest.raises(ValueError):
            EmbeddingResponse(vectors=vectors)

    def test_embedding_response_leaves_the_callers_array_writable(self):
        given = np.ones((2, 3))
        response = EmbeddingResponse(vectors=given)
        assert np.shares_memory(response.vectors, given)
        assert given.flags.writeable and not response.vectors.flags.writeable


class TestRetries:
    def test_retries_then_succeeds(self):
        backend = FlakyHttp(2, Unreachable("down"), retry_cap=3)
        assert backend.generate(GenerationRequest("p")).text == "ok"
        assert backend.attempts == 3

    def test_attempt_cap_is_never_exceeded(self):
        backend = FlakyHttp(10, BackendTimeout("slow"), retry_cap=3)
        with pytest.raises(BackendTimeout):
            backend.generate(GenerationRequest("p"))
        assert backend.attempts == 3

    def test_malformed_response_is_not_retried(self):
        backend = FlakyHttp(10, MalformedResponse("bad"), retry_cap=5)
        with pytest.raises(MalformedResponse):
            backend.generate(GenerationRequest("p"))
        assert backend.attempts == 1

    def test_rate_limit_honors_retry_after(self, monkeypatch):
        sleeps: list[float] = []
        monkeypatch.setattr("tabgen.backends.time.sleep", sleeps.append)
        backend = FlakyHttp(1, RateLimited("slow down", retry_after=7.5), retry_cap=3, backoff_s=100.0)
        assert backend.generate(GenerationRequest("p")).text == "ok"
        assert sleeps == [7.5]

    def test_huge_retry_after_is_capped(self, monkeypatch):
        sleeps: list[float] = []
        monkeypatch.setattr("tabgen.backends.time.sleep", sleeps.append)
        backend = FlakyHttp(1, RateLimited("come back tomorrow", retry_after=86400), retry_cap=3)
        assert backend.generate(GenerationRequest("p")).text == "ok"
        assert sleeps[0] <= 60.0
        assert sleeps == [tabgen.backends.MAX_RETRY_AFTER_S]

    @pytest.mark.parametrize("backoff_s", [-0.5, float("nan"), float("inf")])
    def test_backoff_must_be_finite_and_not_negative(self, backoff_s):
        # time.sleep rejects these, so they would fail only at the first retry.
        with pytest.raises(ValueError, match="backoff_s"):
            BackendConfig(kind="http", base_url="http://flaky.invalid", backoff_s=backoff_s)

    def test_exponential_backoff_delays(self, monkeypatch):
        sleeps: list[float] = []
        monkeypatch.setattr("tabgen.backends.time.sleep", sleeps.append)
        backend = FlakyHttp(2, Unreachable("down"), retry_cap=3, backoff_s=0.5)
        backend.generate(GenerationRequest("p"))
        assert sleeps == [0.5, 1.0]

    @pytest.mark.parametrize("backoff_s", [0.25, 1e300])
    def test_every_backoff_wait_is_capped(self, monkeypatch, backoff_s):
        # Uncapped, 25 attempts at 0.25 s wait 2**21 s at the last retry, and
        # 1e300 s overflows time.sleep; 1,100 attempts pass 2.0**1024.
        sleeps: list[float] = []
        monkeypatch.setattr("tabgen.backends.time.sleep", sleeps.append)
        for attempts in (25, 1100):
            sleeps.clear()
            backend = FlakyHttp(attempts - 1, Unreachable("down"), retry_cap=attempts, backoff_s=backoff_s)
            [response] = backend.generate_batch([GenerationRequest("p")])
            assert response.text == "ok"
            assert len(sleeps) == attempts - 1
            assert max(sleeps) == tabgen.backends.MAX_RETRY_AFTER_S
            assert sleeps == sorted(sleeps)


class TestBatch:
    def test_empty_batch_rejected(self):
        backend = ScriptedBackend(lambda p: p)
        with pytest.raises(ValueError):
            backend.generate_batch([])

    def test_responses_align_by_index(self):
        backend = ScriptedBackend(lambda p: f"answer:{p}")
        requests = [GenerationRequest(f"q{i}") for i in range(10)]
        results = backend.generate_batch(requests)
        assert [r.text for r in results] == [f"answer:q{i}" for i in range(10)]

    def test_batch_matches_individual_generate(self):
        backend = ScriptedBackend(lambda p: p.upper())
        requests = [GenerationRequest(f"q{i}") for i in range(6)]
        batch = backend.generate_batch(requests)
        singles = [backend.generate(r) for r in requests]
        assert [r.text for r in batch] == [r.text for r in singles]

    def test_partial_failures_reported_per_index(self):
        class Half(GenerationBackend):
            def _generate_once(self, request):
                if "bad" in request.prompt:
                    raise BackendTimeout("slow")
                return GenerationResponse(text="ok")

        backend = Half()
        results = backend.generate_batch([GenerationRequest("good"), GenerationRequest("bad")])
        assert results[0].text == "ok"
        assert isinstance(results[1], BackendTimeout)

    def test_all_unreachable_raises_batch_level(self):
        class Down(GenerationBackend):
            def _generate_once(self, request):
                raise Unreachable("down")

        backend = Down()
        with pytest.raises(Unreachable):
            backend.generate_batch([GenerationRequest("a"), GenerationRequest("b")])

    def test_shuffled_latency_does_not_reorder(self, tmp_path):
        inner = ScriptedBackend(lambda p: f"v:{p}")
        recorder = RequestStore(inner, directory=tmp_path)
        requests = [GenerationRequest(f"q{i}") for i in range(8)]
        for request in requests:
            recorder.generate(request)

        rng = random.Random(7)
        replay = DelayedBackend(RequestStore(directory=tmp_path), lambda _: rng.random() * 0.01, concurrency=8)
        results = replay.generate_batch(requests)
        assert [r.text for r in results] == [f"v:q{i}" for i in range(8)]
        assert len(replay.threads) > 1


class TestDispatcher:
    def test_backends_that_never_wait_answer_inline(self, tmp_path, wikibio_sample):
        oracle = MockOracleBackend([(wikibio_sample.text, wikibio_sample.gold)], concurrency=8)
        recorder = RequestStore(oracle, directory=tmp_path)
        reference = generate_table(wikibio_sample.text, DatasetKind.WIKIBIO, recorder)
        replay = RequestStore(directory=tmp_path)
        for backend in (oracle, replay, RequestStore(replay), RequestStore(oracle)):
            assert not backend.waits
            callers = set()

            def generate(request, inner=backend.generate):
                callers.add(threading.get_ident())
                return inner(request)

            backend.generate = generate
            before = set(threading.enumerate())
            assert generate_table(wikibio_sample.text, DatasetKind.WIKIBIO, backend) == reference
            assert callers == {threading.get_ident()}
            assert set(threading.enumerate()) <= before

    def test_the_caller_works_its_batch_beside_reused_helpers(self):
        start = threading.active_count()
        backend = DelayedBackend(ScriptedBackend(lambda p: f"v:{p}", concurrency=4), lambda _: 0.005)
        for batch in range(3):
            results = backend.generate_batch([GenerationRequest(f"{batch}:{i}") for i in range(12)])
            assert [r.text for r in results] == [f"v:{batch}:{i}" for i in range(12)]
        assert threading.get_ident() in backend.threads
        assert 1 < len(backend.threads) <= 4
        assert backend.peak_in_flight <= 4
        assert backend.peak_threads <= start + 3

    def test_helpers_are_released_when_the_backend_is_collected(self):
        before = set(threading.enumerate())
        backend = DelayedBackend(ScriptedBackend(lambda p: p, concurrency=4), lambda _: 0.002)
        backend.generate_batch([GenerationRequest(f"q{i}") for i in range(8)])
        helpers = set(threading.enumerate()) - before
        assert 0 < len(helpers) <= 3
        del backend
        gc.collect()
        for helper in helpers:
            helper.join(timeout=5)
        assert not any(helper.is_alive() for helper in helpers)

    def test_one_in_flight_cap_for_every_caller(self):
        backend = DelayedBackend(ScriptedBackend(lambda p: p, concurrency=2), lambda _: 0.003)
        start = threading.active_count()
        answers = {}

        def run(caller):
            requests = [GenerationRequest(f"{caller}:{i}") for i in range(6)]
            answers[caller] = [r.text for r in backend.generate_batch(requests)]
            answers[caller].append(backend.generate(GenerationRequest(f"{caller}:single")).text)

        callers = [threading.Thread(target=run, args=(c,)) for c in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert answers == {c: [*(f"{c}:{i}" for i in range(6)), f"{c}:single"] for c in range(4)}
        assert backend.peak_in_flight == 2
        assert backend.peak_threads <= start + 4 + 2

    def test_an_error_a_helper_raises_reaches_the_caller(self):
        def answer(prompt):
            if prompt.startswith("bad"):
                raise AssertionError(prompt)
            return prompt

        backend = DelayedBackend(ScriptedBackend(answer, concurrency=4), lambda _: 0.002)
        requests = [GenerationRequest(p) for p in ("a", "b", "bad1", "c", "bad2", "d")]
        with pytest.raises(AssertionError, match="^bad"):
            backend.generate_batch(requests)
        assert [r.text for r in backend.generate_batch(requests[:2])] == ["a", "b"]


class TestMockOracle:
    def test_structure_answer_attribute_value(self, wikibio_sample):
        backend = MockOracleBackend([(wikibio_sample.text, wikibio_sample.gold)])
        response = backend.generate(
            GenerationRequest(build_structure_prompt(wikibio_sample.text, DatasetKind.WIKIBIO))
        )
        assert response.text == "Debut team <SEP> Name <SEP> Birth Date"

    def test_structure_answer_matrix(self, rotowire_team_sample):
        backend = MockOracleBackend([(rotowire_team_sample.text, rotowire_team_sample.gold)])
        response = backend.generate(
            GenerationRequest(build_structure_prompt(rotowire_team_sample.text, DatasetKind.ROTOWIRE_TEAM))
        )
        assert response.text == (
            "Magic <SEP> Hawks <ROWCOL> Losses <SEP> Total points <SEP> "
            "Points in 4th quarter <SEP> Wins"
        )

    def test_gold_cell_answer(self, wikibio_sample):
        backend = MockOracleBackend([(wikibio_sample.text, wikibio_sample.gold)])
        prompt = build_qa_prompt(wikibio_sample.text, "What is the Name?")
        assert backend.generate(GenerationRequest(prompt)).text == "Lenny Randle"

    def test_absent_cell_answers_unknown(self, rotowire_team_sample):
        backend = MockOracleBackend([(rotowire_team_sample.text, rotowire_team_sample.gold)])
        prompt = build_qa_prompt(
            rotowire_team_sample.text, "What is the number of Points in 4th quarter for Hawks?"
        )
        assert backend.generate(GenerationRequest(prompt)).text == "unknown"

    def test_unmatched_question_answers_unknown(self, wikibio_sample):
        backend = MockOracleBackend([(wikibio_sample.text, wikibio_sample.gold)])
        prompt = build_qa_prompt(wikibio_sample.text, "What is the Shoe Size?")
        assert backend.generate(GenerationRequest(prompt)).text == "unknown"

    def test_baseline_prompt_gets_flat_gold(self, e2e_sample):
        backend = MockOracleBackend([(e2e_sample.text, e2e_sample.gold)])
        prompt = build_baseline_prompt(e2e_sample.text, Orientation.ATTRIBUTE_VALUE)
        assert backend.generate(GenerationRequest(prompt)).text == serialize_flat(e2e_sample.gold)

    def test_multi_sample_lookup_by_passage(self):
        a = load_example(DatasetKind.E2E)
        b = load_example(DatasetKind.WIKIBIO)
        backend = MockOracleBackend([(a.text, a.gold), (b.text, b.gold)])
        prompt = build_qa_prompt(b.text, "What is the Name?")
        assert backend.generate(GenerationRequest(prompt)).text == "Lenny Randle"

    def test_prompt_from_a_template_it_was_not_given_is_rejected(self, wikibio_sample):
        template = PromptTemplate("custom", "Passage:\n{{passage}}\nQ: {{question}}\nA:")
        prompt = build_qa_prompt(wikibio_sample.text, "What is the Name?", template)
        backend = MockOracleBackend([(wikibio_sample.text, wikibio_sample.gold)])
        with pytest.raises(MalformedResponse, match="fits no template"):
            backend.generate(GenerationRequest(prompt))
        given = MockOracleBackend([(wikibio_sample.text, wikibio_sample.gold)], templates=[template])
        assert given.generate(GenerationRequest(prompt)).text == "Lenny Randle"

    def test_given_template_with_the_packaged_opening_and_closing_is_read(self):
        # The prompt also fits the packaged template, whose passage slot
        # then holds the extra line and names no sample.
        a, b = load_example(DatasetKind.E2E), load_example(DatasetKind.WIKIBIO)
        packaged = default_qa_template().text
        template = PromptTemplate("custom", packaged.replace("\n\nQuestion:", "\nBe brief.\n\nQuestion:"))
        backend = MockOracleBackend([(a.text, a.gold), (b.text, b.gold)], templates=[template])
        prompt = build_qa_prompt(b.text, "What is the Name?", template)
        assert backend.generate(GenerationRequest(prompt)).text == "Lenny Randle"

    @pytest.mark.parametrize("wrap", ["{{question}}\nAnswer with a number only.", "Please say {{question}}"])
    def test_given_template_with_text_around_the_question_is_read(self, rotowire_team_sample, wrap):
        # The prompt also fits the packaged template, whose question slot
        # then holds the extra text and is no question the table is asked.
        sample = rotowire_team_sample
        template = PromptTemplate("custom", default_qa_template().text.replace("{{question}}", wrap))
        backend = MockOracleBackend([(sample.text, sample.gold)], templates=[template])
        answers = [
            backend.generate(GenerationRequest(build_qa_prompt(sample.text, question, template))).text
            for question in (
                "What is the number of Wins for Magic?",
                "What is the number of Points in 4th quarter for Hawks?",
            )
        ]
        assert answers == [sample.gold.cells[0][3], "unknown"]

    @pytest.mark.parametrize("text", ["{{passage}} {{passage}}", "no slots", "{{question}} only"])
    def test_template_it_cannot_read_is_rejected_up_front(self, wikibio_sample, text):
        with pytest.raises(ValueError, match="passage"):
            MockOracleBackend(
                [(wikibio_sample.text, wikibio_sample.gold)], templates=[PromptTemplate("odd", text)]
            )

    @pytest.mark.parametrize("token", ["<SEP>", "<NEWLINE>"])
    def test_question_template_mentioning_a_format_token_still_answers_cells(self, e2e_sample, token):
        template = PromptTemplate(
            "qa", default_qa_template().text.replace("Answer:", f"Answer (one span, no {token} tokens):")
        )
        backend = MockOracleBackend([(e2e_sample.text, e2e_sample.gold)], templates=[template])
        table = generate_table(e2e_sample.text, DatasetKind.E2E, backend, qa_template=template)
        assert table == e2e_sample.gold

    def test_answer_kind_comes_from_the_templates_own_text(self, e2e_sample):
        backend = MockOracleBackend(
            [(e2e_sample.text, e2e_sample.gold)],
            templates=[
                PromptTemplate("headers", "List headers, split by <SEP>: {{passage}}"),
                PromptTemplate("flat", "Table, rows split by <NEWLINE>: {{passage}}"),
                PromptTemplate("cell", "{{question}} in {{passage}}"),
            ],
        )
        answers = [
            backend.generate(GenerationRequest(prompt)).text
            for prompt in (
                f"List headers, split by <SEP>: {e2e_sample.text}",
                f"Table, rows split by <NEWLINE>: {e2e_sample.text}",
                f"What is the Name? in {e2e_sample.text}",
            )
        ]
        assert answers == [
            " <SEP> ".join(header for header, _ in e2e_sample.gold.rows),
            serialize_flat(e2e_sample.gold),
            e2e_sample.gold.rows[0][1],
        ]


class Stopped(BaseException):
    """Ends a run the way a kill does: no backend or pipeline code catches it."""


class StopAfter(WrapperBackend):
    """Delegates its first `calls` requests to `inner`, then stops the run."""

    def __init__(self, inner: GenerationBackend, calls: int):
        super().__init__(inner)
        self.left = calls

    def _generate_once(self, request):
        if self.left == 0:
            raise Stopped
        self.left -= 1
        return self.inner.generate(request)


class TestDirectoryStore:
    def test_record_then_replay_round_trip(self, tmp_path):
        inner = ScriptedBackend(lambda p: f"resp:{p}")
        recorder = RequestStore(inner, directory=tmp_path)
        request = GenerationRequest("hello")
        recorded = recorder.generate(request)

        replay = RequestStore(directory=tmp_path)
        assert replay.generate(request).text == recorded.text

    def test_fixture_bytes_are_pinned(self, tmp_path):
        request = GenerationRequest("hello", 7)
        RequestStore(ScriptedBackend(lambda _: "Café 42"), directory=tmp_path).generate(request)
        [fixture] = tmp_path.iterdir()
        assert fixture.name == f"{request.digest()}.json"
        assert fixture.read_bytes() == (
            b'{\n  "request": {\n    "decoding": "greedy",\n    "max_new_tokens": 7,\n'
            b'    "prompt": "hello"\n  },\n  "response": {\n    "text": "Caf\xc3\xa9 42"\n  }\n}'
        )

    def test_missing_fixture_is_malformed_response(self, tmp_path):
        replay = RequestStore(directory=tmp_path)
        with pytest.raises(MalformedResponse):
            replay.generate(GenerationRequest("never recorded"))

    def test_missing_directory_is_rejected_without_inner(self, tmp_path):
        with pytest.raises(ValueError, match="does not exist"):
            RequestStore(directory=tmp_path / "missing")
        RequestStore(ScriptedBackend(lambda _: "x"), directory=tmp_path / "made")
        assert (tmp_path / "made").is_dir()

    def test_corrupt_fixture_is_malformed_response(self, tmp_path):
        request = GenerationRequest("hello")
        (tmp_path / f"{request.digest()}.json").write_text("{not json", "utf-8")
        replay = RequestStore(directory=tmp_path)
        with pytest.raises(MalformedResponse):
            replay.generate(request)

    def test_unencodable_response_leaves_no_fixture(self, tmp_path):
        # A lone surrogate has no UTF-8 form; the write used to truncate the
        # fixture to 0 bytes before failing, which replay then called unreadable.
        request = GenerationRequest("hello")
        recorder = RequestStore(ScriptedBackend(lambda _: "caf\ud800"), directory=tmp_path)
        with pytest.raises(MalformedResponse, match="cannot be recorded"):
            recorder.generate(request)
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(MalformedResponse, match="no recorded fixture"):
            RequestStore(directory=tmp_path).generate(request)

    def test_unencodable_response_keeps_the_earlier_fixture(self, tmp_path):
        # An earlier fixture answers, so an inner backend that would return
        # an unencodable text is never reached and the fixture stays as it was.
        request = GenerationRequest("hello")
        RequestStore(ScriptedBackend(lambda _: "café"), directory=tmp_path).generate(request)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        inner = CountingBackend(ScriptedBackend(lambda _: "caf\ud800"))
        assert RequestStore(inner, directory=tmp_path).generate(request).text == "café"
        assert inner.calls == 0
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        assert RequestStore(directory=tmp_path).generate(request).text == "café"

    @pytest.mark.parametrize("stop_after", [1, 4, 8])
    def test_rerun_after_a_stop_sends_only_the_calls_not_recorded(self, tmp_path, stop_after):
        sample = load_example(DatasetKind.ROTOWIRE_TEAM)

        def oracle():
            return MockOracleBackend([(sample.text, sample.gold)], concurrency=1)

        def run(directory, inner) -> str:
            store = RequestStore(inner, directory=directory)
            table = generate_table(sample.text, DatasetKind.ROTOWIRE_TEAM, store)
            return json.dumps(table_to_json(table), sort_keys=True, ensure_ascii=False)

        def fixtures(directory) -> dict[str, bytes]:
            return {p.name: p.read_bytes() for p in directory.iterdir()}

        unbroken = CountingBackend(oracle())
        reference = run(tmp_path / "unbroken", unbroken)
        total = unbroken.calls
        assert total == 9  # one header call and eight cells

        resumed = tmp_path / "resumed"
        with pytest.raises(Stopped):
            run(resumed, StopAfter(oracle(), stop_after))
        assert len(fixtures(resumed)) == stop_after
        rest = CountingBackend(oracle())
        assert run(resumed, rest) == reference
        assert rest.calls == total - stop_after
        assert fixtures(resumed) == fixtures(tmp_path / "unbroken")

    def test_unencodable_answer_fails_only_its_cell(self, tmp_path):
        sample = load_example(DatasetKind.E2E)
        oracle = MockOracleBackend([(sample.text, sample.gold)])
        bad_header = sample.gold.rows[0][0]
        bad_question = formulate_question(None, bad_header)

        def answer(prompt: str) -> str:
            if bad_question in prompt:
                return "caf\ud800"
            return oracle.generate(GenerationRequest(prompt)).text

        recorder = RequestStore(ScriptedBackend(answer), directory=tmp_path)
        table, trace = generate_content(sample.gold, sample.text, DatasetKind.E2E, recorder)

        assert table.rows[0] == (bad_header, None)
        assert table.rows[1:] == sample.gold.rows[1:]
        [bad] = [cell for cell in trace.cells if cell.col_header == bad_header]
        assert bad.value is None and "cannot be recorded" in bad.error
        assert all(cell.error is None for cell in trace.cells if cell is not bad)
        files = sorted(p.name for p in tmp_path.iterdir())
        assert all(name.endswith(".json") and not name.startswith(".") for name in files)
        assert len(files) == len(sample.gold.rows) - 1


class TestCache:
    def test_second_identical_call_is_served_from_cache(self):
        calls = []
        inner = ScriptedBackend(lambda p: (calls.append(p), "value")[1])
        cached = RequestStore(inner)
        request = GenerationRequest("same")
        first = cached.generate(request)
        second = cached.generate(request)
        assert first.text == second.text == "value"
        assert cached.upstream_calls == 1
        assert len(calls) == 1

    def test_distinct_requests_both_hit_upstream(self):
        cached = RequestStore(ScriptedBackend(lambda p: p))
        cached.generate(GenerationRequest("a"))
        cached.generate(GenerationRequest("b"))
        assert cached.upstream_calls == 2

    def test_failed_calls_are_not_cached(self):
        backend = FlakyHttp(1, MalformedResponse("bad"), retry_cap=1)
        cached = RequestStore(backend)
        with pytest.raises(MalformedResponse):
            cached.generate(GenerationRequest("p"))
        assert cached.generate(GenerationRequest("p")).text == "ok"

    def test_cache_on_or_off_yields_identical_tables(self, wikibio_sample):
        from tabgen.pipeline import generate_table

        plain = MockOracleBackend([(wikibio_sample.text, wikibio_sample.gold)])
        cached = RequestStore(MockOracleBackend([(wikibio_sample.text, wikibio_sample.gold)]))
        assert generate_table(wikibio_sample.text, DatasetKind.WIKIBIO, plain) == generate_table(
            wikibio_sample.text, DatasetKind.WIKIBIO, cached
        )

    def test_concurrent_identical_requests_share_one_upstream_call(self):
        started = threading.Event()

        class Slow(GenerationBackend):
            def _generate_once(self, request):
                started.wait(1.0)
                return GenerationResponse(text="slow")

        cached = RequestStore(Slow(concurrency=4))
        request = GenerationRequest("same")
        results = []

        def call():
            results.append(cached.generate(request).text)

        threads = [threading.Thread(target=call) for _ in range(4)]
        for t in threads:
            t.start()
        started.set()
        for t in threads:
            t.join()
        assert results == ["slow"] * 4
        assert cached.upstream_calls == 1

    def test_a_call_waiting_on_a_shared_miss_holds_no_slot(self):
        latency = {"x": 0.2, "y": 0.05}
        inner = DelayedBackend(ScriptedBackend(lambda p: p, concurrency=2), lambda r: latency[r.prompt])
        cached = RequestStore(inner)
        callers = [threading.Thread(target=cached.generate, args=(GenerationRequest(p),)) for p in "xxy"]
        for caller in callers:
            caller.start()
            time.sleep(0.02)
        for caller in callers:
            caller.join(timeout=10)
        assert not any(caller.is_alive() for caller in callers)
        # "y" goes upstream beside the first "x" while the second "x" waits for that one.
        assert inner.peak_in_flight == 2
        assert cached.upstream_calls == 2


class TestRequestStore:
    """What holds for every store, wherever it keeps its answers."""

    def test_a_store_needs_an_inner_backend_or_a_directory(self):
        with pytest.raises(ValueError, match="inner backend, a directory or both"):
            RequestStore()

    def test_identical_misses_on_a_directory_share_one_upstream_call(self, tmp_path):
        leaf = DelayedBackend(ScriptedBackend(lambda p: f"v:{p}", concurrency=4), lambda _: 0.05)
        store = RequestStore(leaf, directory=tmp_path)
        results = store.generate_batch([GenerationRequest("same")] * 4)
        assert [r.text for r in results] == ["v:same"] * 4
        assert leaf.calls.total() == 1 and store.upstream_calls == 1
        assert [p.name for p in tmp_path.iterdir()] == [f"{GenerationRequest('same').digest()}.json"]

    def test_a_failed_shared_miss_fails_every_caller_and_is_not_kept(self, tmp_path):
        flaky = FlakyHttp(1, Unreachable("down"), retry_cap=1, concurrency=4)
        store = RequestStore(DelayedBackend(flaky, lambda _: 0.2), directory=tmp_path)
        with pytest.raises(Unreachable):
            store.generate_batch([GenerationRequest("same")] * 4)
        assert flaky.attempts == 1 and list(tmp_path.iterdir()) == []
        assert store.generate(GenerationRequest("same")).text == "ok"
        assert flaky.attempts == 2 and store.upstream_calls == 1

    def test_overlapping_callers_ask_each_request_once(self, tmp_path):
        leaf = DelayedBackend(ScriptedBackend(lambda p: f"v:{p}", concurrency=4), lambda _: 0.001)
        store = RequestStore(leaf, directory=tmp_path)
        answers = {}

        def run(caller):
            prompts = [f"q{(caller + i) % 6}" for i in range(12)]
            answers[caller] = [r.text for r in store.generate_batch([GenerationRequest(p) for p in prompts])]

        callers = [threading.Thread(target=run, args=(c,)) for c in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert answers == {c: [f"v:q{(c + i) % 6}" for i in range(12)] for c in range(8)}
        assert set(leaf.calls.values()) == {1} and len(leaf.calls) == 6
        assert store.upstream_calls == 6 and store._futures == {}
        assert len(list(tmp_path.iterdir())) == 6

    def test_a_directory_store_keeps_no_finished_answer_in_memory(self, tmp_path):
        leaf = DelayedBackend(ScriptedBackend(lambda p: f"v:{p}", concurrency=4), lambda _: 0.002)
        requests = [GenerationRequest(f"q{i % 5}") for i in range(12)]
        recorder = RequestStore(leaf, directory=tmp_path)
        replay = RequestStore(directory=tmp_path)
        for store in (recorder, replay):
            assert [r.text for r in store.generate_batch(requests)] == [f"v:q{i % 5}" for i in range(12)]
            assert store._futures == {}
        assert leaf.calls.total() == 5
        # A store without a directory keeps each answer for its life.
        cached = RequestStore(leaf)
        cached.generate_batch(requests)
        assert len(cached._futures) == 5


class TestWrapperBackend:
    def test_a_store_does_not_multiply_attempts(self, http_server, tmp_path):
        _Handler.behavior = "server-error"
        inner = HttpBackend(BackendConfig(kind="http", base_url=http_server, retry_cap=3, backoff_s=0.0))
        store = RequestStore(inner, directory=tmp_path)
        with pytest.raises(Unreachable):
            store.generate(GenerationRequest("p"))
        assert len(_Handler.seen) == 3
        assert list(tmp_path.iterdir()) == []

    def test_inner_retries_still_apply(self, tmp_path):
        inner = FlakyHttp(2, Unreachable("down"), retry_cap=3)
        store = RequestStore(inner, directory=tmp_path)
        assert store.generate(GenerationRequest("p")).text == "ok"
        assert inner.attempts == 3

    def test_wrappers_dispatch_like_their_inner_backend(self, tmp_path):
        config = BackendConfig(kind="http", base_url="http://flaky.invalid", concurrency=5, retry_cap=4)
        inner = HttpBackend(config)
        cached = RequestStore(inner)
        recording = RequestStore(inner, directory=tmp_path)
        for wrapper in (cached, recording):
            assert wrapper.concurrency == 5
            assert not hasattr(wrapper, "retry_cap")
            assert not hasattr(wrapper, "_slots") and not hasattr(wrapper, "_helpers")
        assert cached.inner is inner and recording.inner is inner
        replay = RequestStore(directory=tmp_path)
        assert replay.concurrency == 1 and not replay.waits


class TestOneDispatcherPerStack:
    """Only the backend that waits holds slots and helpers; stores over it share them."""

    @staticmethod
    def start(calls, *, spacing: float = 0.005) -> list[threading.Thread]:
        threads = []
        for target, prompt in calls:
            threads.append(threading.Thread(target=target, args=(GenerationRequest(prompt),)))
            threads[-1].start()
            time.sleep(spacing)
        return threads

    def test_a_recording_store_pins_no_slot_for_a_shared_miss(self, tmp_path):
        latency = {"x": 0.2, "y": 0.05}
        leaf = DelayedBackend(ScriptedBackend(lambda p: p, concurrency=2), lambda r: latency[r.prompt])
        store = RequestStore(leaf, directory=tmp_path)
        callers = self.start((store.generate, p) for p in "xxy")
        for caller in callers:
            caller.join(timeout=10)
        assert not any(caller.is_alive() for caller in callers)
        # "y" goes upstream beside the first "x" while the second "x" waits for that one.
        assert leaf.peak_in_flight == 2
        assert leaf.calls.total() == 2

    def test_a_fixture_hit_does_not_queue_behind_misses(self, tmp_path):
        RequestStore(ScriptedBackend(lambda p: f"v:{p}"), directory=tmp_path).generate(GenerationRequest("hit"))
        leaf = DelayedBackend(ScriptedBackend(lambda p: f"v:{p}", concurrency=2), lambda _: 0.2)
        store = RequestStore(leaf, directory=tmp_path)
        finished = []

        def call(request):
            finished.append(store.generate(request).text)

        misses = self.start([(call, "miss1"), (call, "miss2")], spacing=0.01)
        call(GenerationRequest("hit"))
        for miss in misses:
            miss.join(timeout=10)
        assert finished[0] == "v:hit" and sorted(finished[1:]) == ["v:miss1", "v:miss2"]
        assert leaf.peak_in_flight == 2 and leaf.calls.total() == 2

    def test_every_layer_of_a_stack_runs_on_one_helper_pool(self, tmp_path):
        before = set(threading.enumerate())
        leaf = DelayedBackend(ScriptedBackend(lambda p: p, concurrency=4), lambda _: 0.005)
        cache = RequestStore(leaf)
        store = RequestStore(leaf, directory=tmp_path)
        for name, layer in (("leaf", leaf), ("cache", cache), ("store", store)):
            prompts = [f"{name}:{i}" for i in range(12)]
            assert [r.text for r in layer.generate_batch([GenerationRequest(p) for p in prompts])] == prompts
        helpers = set(threading.enumerate()) - before
        assert 0 < len(helpers) <= 3
        assert 1 < len(leaf.threads) <= 4
        assert leaf.peak_in_flight <= 4

    def test_callers_on_every_layer_share_one_cap_and_one_pool(self, tmp_path):
        leaf = DelayedBackend(ScriptedBackend(lambda p: p, concurrency=2), lambda _: 0.002)
        layers = [leaf, RequestStore(leaf), RequestStore(leaf, directory=tmp_path)]
        start = threading.active_count()
        answers = {}

        def run(caller):
            requests = [GenerationRequest(f"{caller}:{i}") for i in range(6)]
            answers[caller] = [r.text for r in layers[caller % 3].generate_batch(requests)]

        callers = [threading.Thread(target=run, args=(c,)) for c in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert answers == {c: [f"{c}:{i}" for i in range(6)] for c in range(6)}
        assert leaf.peak_in_flight == 2
        assert leaf.peak_threads <= start + 6 + 1


class TestMockEmbedder:
    def test_identical_tokens_identical_vectors(self):
        embedder = MockEmbedder()
        response = embedder.embed(["points", "points"], mode="token")
        a, b = np.array(response.vectors[0]), np.array(response.vectors[1])
        assert np.allclose(a, b)
        assert float(a @ b) == pytest.approx(1.0, abs=1e-9)

    def test_distinct_tokens_differ(self):
        embedder = MockEmbedder()
        response = embedder.embed(["points", "rebounds"])
        assert not np.array_equal(response.vectors[0], response.vectors[1])

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            MockEmbedder().embed([])

    def test_vectors_are_unit_norm_and_nonnegative(self):
        vectors = np.array(MockEmbedder(dim=16).embed(["a", "b", "c"]).vectors)
        assert np.allclose(np.linalg.norm(vectors, axis=1), 1.0)
        assert (vectors >= 0).all()

    # Odd texts (empty, a lone surrogate, non-ASCII, 1,000 characters) and 5,000 words.
    TEXTS = ["", "caf\ud800", "café", "Ünïcödé 表 ✓", "x" * 1000] + [
        "".join(random.Random(i).choices("abcdefghij0123456789 .-é", k=1 + i % 12)) + str(i)
        for i in range(5000)
    ]

    @pytest.mark.parametrize("dim", [1, 8, 32, 33])
    def test_vectors_equal_one_hash_per_token(self, dim):
        vectors = MockEmbedder(dim=dim).embed(self.TEXTS, mode="token").vectors
        expected = np.array([reference_mock_vector(t, dim) for t in self.TEXTS])
        assert vectors.tobytes() == expected.tobytes()

    def test_vectors_are_a_read_only_float64_array(self):
        vectors = MockEmbedder(dim=8).embed(["a", "b", "c"]).vectors
        assert isinstance(vectors, np.ndarray)
        assert (vectors.dtype, vectors.shape) == (np.float64, (3, 8))
        with pytest.raises(ValueError, match="read-only"):
            vectors[0, 0] = 0.0

    def test_vectors_are_pinned(self):
        # These bytes pin the definition, whatever NumPy or hashlib release is installed.
        vectors = MockEmbedder().embed(["pts", "reb", "", "café"]).vectors
        digest = hashlib.sha256(np.array(vectors, dtype="<f8").tobytes()).hexdigest()
        assert digest == "4927f0a1caf5bbd514466aec1dd3645106a15348f2f335eadae2f10d65df17a5"


class _Handler(BaseHTTPRequestHandler):
    behavior = "ok"
    seen: list[dict] = []

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        payload = json.loads(self.rfile.read(length))
        _Handler.seen.append({"path": self.path, "payload": payload, "auth": self.headers.get("Authorization")})

        if _Handler.behavior == "rate-limit-once":
            _Handler.behavior = "ok"
            self.send_response(429)
            self.send_header("Retry-After", "0")
            self.end_headers()
            return
        if _Handler.behavior == "rate-limit-date-once":
            _Handler.behavior = "ok"
            self.send_response(429)
            self.send_header("Retry-After", "Wed, 21 Oct 2015 07:28:00 GMT")
            self.end_headers()
            return
        if _Handler.behavior == "server-error":
            self.send_response(500)
            self.end_headers()
            return
        if _Handler.behavior == "not-json":
            self.send_response(200)
            self.end_headers()
            self.wfile.write(b"plain text")
            return

        if self.path.endswith("/embeddings"):
            body = {"data": [{"embedding": [1.0, 0.0]} for _ in payload["input"]]}
        else:
            body = {
                "choices": [{"text": f"echo:{payload['prompt']}"}],
                "usage": {"prompt_tokens": 5, "completion_tokens": 2},
            }
        data = json.dumps(body).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def http_server():
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _Handler.behavior = "ok"
    _Handler.seen = []
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()


class TestHttpBackend:
    def test_missing_auth_env_names_the_variable(self, monkeypatch):
        monkeypatch.delenv("TABGEN_TEST_TOKEN", raising=False)
        config = BackendConfig(kind="http", base_url="http://localhost:1", auth_env="TABGEN_TEST_TOKEN")
        with pytest.raises(ValueError, match="TABGEN_TEST_TOKEN"):
            HttpBackend(config)

    @pytest.mark.parametrize("timeout_ms", [0, -5])
    def test_timeout_must_be_positive(self, timeout_ms):
        # requests rejects these on every call, outside the BackendError contract.
        with pytest.raises(ValueError, match="timeout_ms"):
            HttpBackend(BackendConfig(kind="http", base_url="http://localhost:1", timeout_ms=timeout_ms))

    def test_completion_round_trip(self, http_server, monkeypatch):
        monkeypatch.setenv("TABGEN_TEST_TOKEN", "secret")
        config = BackendConfig(kind="http", base_url=http_server, model="m", auth_env="TABGEN_TEST_TOKEN")
        backend = HttpBackend(config)
        response = backend.generate(GenerationRequest("hi", max_new_tokens=4))
        assert response.text == "echo:hi"
        assert response.prompt_tokens == 5
        sent = _Handler.seen[0]
        assert sent["payload"] == {"model": "m", "prompt": "hi", "max_tokens": 4, "temperature": 0}
        assert sent["auth"] == "Bearer secret"

    def test_rate_limited_then_recovers(self, http_server):
        _Handler.behavior = "rate-limit-once"
        backend = HttpBackend(BackendConfig(kind="http", base_url=http_server, backoff_s=0.0))
        assert backend.generate(GenerationRequest("hi")).text == "echo:hi"

    def test_http_date_retry_after_is_retried(self, http_server, monkeypatch):
        sleeps: list[float] = []
        monkeypatch.setattr("tabgen.backends.time.sleep", sleeps.append)
        _Handler.behavior = "rate-limit-date-once"
        backend = HttpBackend(BackendConfig(kind="http", base_url=http_server, backoff_s=5.0))
        results = backend.generate_batch([GenerationRequest("hi")])
        assert results[0].text == "echo:hi"
        assert sleeps == [0.0]  # the date is past: retry at once

    def test_server_error_maps_to_unreachable(self, http_server):
        _Handler.behavior = "server-error"
        backend = HttpBackend(
            BackendConfig(kind="http", base_url=http_server, retry_cap=1, backoff_s=0.0)
        )
        with pytest.raises(Unreachable):
            backend.generate(GenerationRequest("hi"))

    def test_non_json_body_is_malformed(self, http_server):
        _Handler.behavior = "not-json"
        backend = HttpBackend(BackendConfig(kind="http", base_url=http_server, retry_cap=1))
        with pytest.raises(MalformedResponse):
            backend.generate(GenerationRequest("hi"))

    def test_connection_refused_is_unreachable(self):
        backend = HttpBackend(
            BackendConfig(kind="http", base_url="http://127.0.0.1:9", retry_cap=1, backoff_s=0.0)
        )
        with pytest.raises(Unreachable):
            backend.generate(GenerationRequest("hi"))

    @pytest.mark.parametrize(
        ("usage", "counts"),
        [
            ("n/a", (None, None)),
            ([1], (None, None)),
            (None, (None, None)),
            ({"prompt_tokens": "5", "completion_tokens": True}, (None, None)),
            ({"prompt_tokens": -1, "completion_tokens": 2.0}, (None, None)),
            ({"prompt_tokens": 5, "completion_tokens": 0}, (5, 0)),
        ],
    )
    def test_token_counts_are_read_only_from_a_usage_object(self, usage, counts):
        backend = FlakyHttp(0, Unreachable("unused"))
        backend._post_once = lambda path, payload: {"choices": [{"text": "ok"}], "usage": usage}
        [response] = backend.generate_batch([GenerationRequest("p")])
        assert (response.text, response.prompt_tokens, response.completion_tokens) == ("ok", *counts)

    @pytest.mark.parametrize(
        "embeddings",
        [["123"], [{"0": 1.0}], [[1.0, "2"]], [[True, 1.0]], [None], [[]], [[1.0], [1.0, 2.0]],
         [[10**400]], "ab"],
        ids=["string", "object", "string-item", "bool-item", "null", "empty", "ragged", "huge-int",
             "data-string"],
    )
    def test_an_embedding_that_is_not_an_array_of_numbers_is_malformed(self, embeddings):
        backend = FlakyHttp(0, Unreachable("unused"))
        data = [{"embedding": e} for e in embeddings] if isinstance(embeddings, list) else embeddings
        backend._post_once = lambda path, payload: {"data": data}
        with pytest.raises(MalformedResponse):
            backend.embed(["t"] * len(embeddings))

    def test_embeddings_round_trip(self, http_server):
        backend = HttpBackend(BackendConfig(kind="http", base_url=http_server))
        response = backend.embed(["a", "b"])
        assert len(response.vectors) == 2
        assert response.vectors[0].tolist() == [1.0, 0.0]

    def test_embeddings_recover_from_one_rate_limit(self, http_server):
        _Handler.behavior = "rate-limit-once"
        backend = HttpBackend(BackendConfig(kind="http", base_url=http_server, backoff_s=0.0))
        assert backend.embed(["a", "b"]).vectors.tolist() == [[1.0, 0.0], [1.0, 0.0]]
        assert [sent["path"] for sent in _Handler.seen] == ["/v1/embeddings"] * 2

    def test_embeddings_attempts_are_capped(self, http_server):
        _Handler.behavior = "server-error"
        backend = HttpBackend(BackendConfig(kind="http", base_url=http_server, retry_cap=2, backoff_s=0.0))
        with pytest.raises(Unreachable):
            backend.embed(["a"])
        assert len(_Handler.seen) == 2


class _KeepAliveHandler(_Handler):
    protocol_version = "HTTP/1.1"


class _ConnectionCountingServer(ThreadingHTTPServer):
    """Answers like `http_server`, over HTTP/1.1 keep-alive, counting accepted connections."""

    daemon_threads = True
    connections = 0

    def get_request(self):
        accepted = super().get_request()
        self.connections += 1
        return accepted


@pytest.fixture
def keep_alive_server():
    server = _ConnectionCountingServer(("127.0.0.1", 0), _KeepAliveHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _Handler.behavior = "ok"
    _Handler.seen = []
    yield server
    server.shutdown()
    server.server_close()


class TestHttpConnectionReuse:
    @staticmethod
    def backend(server, concurrency: int) -> HttpBackend:
        url = f"http://127.0.0.1:{server.server_port}"
        return HttpBackend(BackendConfig(kind="http", base_url=url, concurrency=concurrency))

    def test_sequential_batch_opens_one_connection(self, keep_alive_server):
        backend = self.backend(keep_alive_server, concurrency=1)
        results = backend.generate_batch([GenerationRequest(f"q{i}") for i in range(20)])
        assert [r.text for r in results] == [f"echo:q{i}" for i in range(20)]
        assert keep_alive_server.connections == 1

    def test_concurrent_batches_keep_at_most_one_connection_per_worker(self, keep_alive_server):
        backend = self.backend(keep_alive_server, concurrency=4)
        for batch in range(2):
            results = backend.generate_batch([GenerationRequest(f"{batch}:{i}") for i in range(20)])
            assert [r.text for r in results] == [f"echo:{batch}:{i}" for i in range(20)]
        assert 1 <= keep_alive_server.connections <= 4

    def test_completions_and_embeddings_share_the_connection(self, keep_alive_server):
        backend = self.backend(keep_alive_server, concurrency=1)
        backend.generate(GenerationRequest("hi"))
        backend.embed(["a", "b"])
        backend.generate(GenerationRequest("again"))
        assert keep_alive_server.connections == 1


class TestRetryAfter:
    @pytest.mark.parametrize(
        ("header", "expected"),
        [
            ("7", 7.0),
            ("1.5", 1.5),
            ("-3", 0.0),
            ("Wed, 21 Oct 2015 07:28:00 GMT", 0.0),
            (None, None),
            ("", None),
            ("soon", None),
            ("nan", None),
            ("inf", None),
        ],
    )
    def test_parsed_seconds(self, header, expected):
        assert _retry_after_seconds(header) == expected

    def test_future_date_counts_down(self):
        when = datetime.now(timezone.utc) + timedelta(seconds=120)
        seconds = _retry_after_seconds(format_datetime(when, usegmt=True))
        assert 100 < seconds <= 120


class TestBackendConfig:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="mystery"):
            BackendConfig.from_dict({"mystery": 1})

    @pytest.mark.parametrize(
        "data",
        [
            {"concurrency": "x"},
            {"cache": "false"},
            {"cache": 0},
            {"concurrency": True},
            {"concurrency": 2.0},
            {"backoff_s": "0.5"},
            {"backoff_s": False},
            {"model": 3},
            {"kind": None},
        ],
    )
    def test_value_of_the_wrong_type_is_rejected_by_key(self, data):
        with pytest.raises(ValueError, match=next(iter(data))):
            BackendConfig.from_dict(data)

    def test_int_for_float_and_null_for_optional_string_accepted(self):
        config = BackendConfig.from_dict({"backoff_s": 1, "model": None, "base_url": "http://x"})
        assert (config.backoff_s, config.model, config.base_url) == (1, None, "http://x")

    @pytest.mark.parametrize("data", [{"retry_cap": 0}, {"timeout_ms": 0}, {"timeout_ms": -5}])
    def test_out_of_range_setting_is_rejected_by_key(self, data):
        with pytest.raises(ValueError, match=next(iter(data))):
            BackendConfig.from_dict(data)
        with pytest.raises(ValueError, match=next(iter(data))):
            BackendConfig().merged(**data)

    def test_merged_ignores_none(self):
        config = BackendConfig(model="a").merged(model=None, base_url="http://x")
        assert config.model == "a"
        assert config.base_url == "http://x"
