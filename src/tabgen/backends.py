"""Pluggable text-generation and embedding providers.

Four generation backends share one contract: a remote HTTP completion
service, a gold-table oracle for offline testing, a record/replay pair
for deterministic CI, and a caching wrapper. Batch dispatch fans out up
to a configured concurrency limit and realigns responses by index, so
callers never observe completion order.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import threading
import time
from abc import ABC, abstractmethod
from collections import Counter
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Callable, Iterable, Sequence

# numpy, requests and the date parsing only `Retry-After` needs are imported
# where they are used, not here: they are most of a cold `import tabgen`, and
# generation with the oracle, baselines, updates and exact evaluation never
# touch them.
from tabgen.prompts import QUESTION_END, QUESTION_OPENING, SEP_TOKEN, formulate_question
from tabgen.table import NEWLINE_TOKEN, Orientation, Table, serialize_flat


@dataclass(frozen=True)
class GenerationRequest:
    prompt: str
    max_new_tokens: int = 64

    def __post_init__(self):
        if self.max_new_tokens < 1:
            raise ValueError("max_new_tokens must be >= 1")

    def digest(self) -> str:
        payload = json.dumps(
            {
                "prompt": self.prompt,
                "max_new_tokens": self.max_new_tokens,
                # Decoding is always greedy; the key keeps recorded digests valid.
                "decoding": "greedy",
            },
            sort_keys=True,
            ensure_ascii=False,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class GenerationResponse:
    text: str
    prompt_tokens: int | None = None
    completion_tokens: int | None = None
    latency_ms: float | None = None


@dataclass(frozen=True)
class EmbeddingResponse:
    vectors: tuple[tuple[float, ...], ...]
    mode: str = "text"  # "text" | "token"

    def __post_init__(self):
        if not self.vectors:
            raise ValueError("EmbeddingResponse requires at least one vector")
        dims = {len(v) for v in self.vectors}
        if len(dims) != 1 or 0 in dims:
            raise ValueError(f"vectors must share one dimension >= 1, got dims {sorted(dims)}")


class BackendError(Exception):
    retryable = False


class BackendTimeout(BackendError):
    retryable = True


class RateLimited(BackendError):
    retryable = True

    def __init__(self, message: str, retry_after: float | None = None):
        super().__init__(message)
        self.retry_after = retry_after


class Unreachable(BackendError):
    retryable = True


class MalformedResponse(BackendError):
    retryable = False


@dataclass
class BackendConfig:
    """Configuration for backend construction; file keys mirror field names.

    The auth token is read from the environment variable named by
    `auth_env`, never from flags or files.
    """

    kind: str = "mock-oracle"  # mock-oracle | http | replay
    base_url: str | None = None
    completion_path: str = "/v1/completions"
    embeddings_path: str = "/v1/embeddings"
    model: str | None = None
    auth_env: str | None = None
    timeout_ms: int = 30000
    retry_cap: int = 3
    backoff_s: float = 0.25
    concurrency: int = 8
    cache: bool = False
    fixture_dir: str | None = None
    max_input_tokens: int = 2048
    headers_max_new_tokens: int = 256
    answer_max_new_tokens: int = 64
    baseline_max_new_tokens: int = 512

    @classmethod
    def from_dict(cls, data: dict) -> "BackendConfig":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**data)

    @classmethod
    def from_file(cls, path: str) -> "BackendConfig":
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        if not isinstance(data, dict):
            raise ValueError("config file must hold a JSON object")
        return cls.from_dict(data)

    def merged(self, **overrides) -> "BackendConfig":
        provided = {k: v for k, v in overrides.items() if v is not None}
        return replace(self, **provided)


# The longest `Retry-After` delay honoured before a retry, in seconds; a
# server asking for more gets this, so one answer cannot stall a run for hours.
MAX_RETRY_AFTER_S = 60.0


class GenerationBackend(ABC):
    """Base generation provider: retry policy plus the concurrent batch contract."""

    def __init__(self, *, concurrency: int = 8, retry_cap: int = 3, backoff_s: float = 0.25):
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if retry_cap < 1:
            raise ValueError("retry_cap must be >= 1")
        self.concurrency = concurrency
        self.retry_cap = retry_cap
        self.backoff_s = backoff_s

    @abstractmethod
    def _generate_once(self, request: GenerationRequest) -> GenerationResponse:
        ...

    def generate(self, request: GenerationRequest) -> GenerationResponse:
        """Run one request with bounded exponential-backoff retries.

        Retryable failures are retried up to `retry_cap` total attempts;
        a rate limit that names a retry-after delay is honored, up to
        `MAX_RETRY_AFTER_S`.
        """
        for attempt in range(self.retry_cap):
            try:
                return self._generate_once(request)
            except BackendError as err:
                last_attempt = attempt == self.retry_cap - 1
                if not err.retryable or last_attempt:
                    raise
                delay = self.backoff_s * (2**attempt)
                if isinstance(err, RateLimited) and err.retry_after is not None:
                    delay = min(err.retry_after, MAX_RETRY_AFTER_S)
                time.sleep(delay)
        raise AssertionError("unreachable")

    def generate_batch(
        self, requests_: Sequence[GenerationRequest]
    ) -> list[GenerationResponse | BackendError]:
        """Dispatch many requests, returning results aligned by index.

        Failures are reported per index instead of aborting the batch;
        only a batch where every request failed as Unreachable raises.
        """
        if not requests_:
            raise ValueError("generate_batch requires a non-empty request list")

        def call(request: GenerationRequest) -> GenerationResponse | BackendError:
            try:
                return self.generate(request)
            except BackendError as err:
                return err

        if self.concurrency == 1 or len(requests_) == 1:
            results = [call(r) for r in requests_]
        else:
            workers = min(self.concurrency, len(requests_))
            with ThreadPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(call, requests_))

        if all(isinstance(r, Unreachable) for r in results):
            raise Unreachable(f"all {len(results)} batched requests failed as unreachable")
        return results


class EmbeddingBackend(ABC):
    """Embedding provider: one vector per input text, aligned by index.

    A token's vector must not depend on the batch it is sent in (its
    position, neighbours or request size): semantic evaluation embeds each
    distinct token once per call and reuses that vector for every score.
    """

    @abstractmethod
    def embed(self, texts: Sequence[str], mode: str = "text") -> EmbeddingResponse:
        ...


class MockEmbedder(EmbeddingBackend):
    """Hash-seeded unit vectors: identical inputs embed identically, forever.

    Components are non-negative so cosine similarities stay in [0, 1].
    """

    def __init__(self, dim: int = 32):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = dim

    def _vector(self, text: str) -> tuple[float, ...]:
        import numpy as np

        seed = int.from_bytes(hashlib.sha256(text.encode("utf-8", "surrogatepass")).digest()[:8], "big")
        rng = np.random.default_rng(seed)
        raw = rng.random(self.dim) + 1e-9
        return tuple((raw / np.linalg.norm(raw)).tolist())

    def embed(self, texts: Sequence[str], mode: str = "text") -> EmbeddingResponse:
        if not texts:
            raise ValueError("embed requires a non-empty input list")
        return EmbeddingResponse(vectors=tuple(self._vector(t) for t in texts), mode=mode)


def _retry_after_seconds(value: str | None) -> float | None:
    """The delay a Retry-After header asks for: delta-seconds or an HTTP date.

    A date in the past gives 0; anything unparseable gives None, which
    means the normal backoff.
    """
    if not value:
        return None
    try:
        seconds = float(value)
    except ValueError:
        import email.utils
        from datetime import datetime, timezone

        try:
            when = email.utils.parsedate_to_datetime(value)
        except (TypeError, ValueError):
            return None
        if when.tzinfo is None:
            when = when.replace(tzinfo=timezone.utc)
        seconds = (when - datetime.now(timezone.utc)).total_seconds()
    return max(0.0, seconds) if math.isfinite(seconds) else None


class HttpBackend(GenerationBackend, EmbeddingBackend):
    """Client for a hosted completion/embeddings service speaking the common JSON shape.

    POSTs {model, prompt, max_tokens, temperature: 0} and reads the
    generated text from choices[0]; endpoint paths, model name, and the
    auth env var are all configuration.
    """

    def __init__(self, config: BackendConfig):
        import requests
        from requests.adapters import HTTPAdapter

        super().__init__(
            concurrency=config.concurrency,
            retry_cap=config.retry_cap,
            backoff_s=config.backoff_s,
        )
        if not config.base_url:
            raise ValueError("http backend requires base_url")
        self.config = config
        self._token = None
        if config.auth_env:
            self._token = os.environ.get(config.auth_env)
            if not self._token:
                raise ValueError(
                    f"auth environment variable {config.auth_env} is not set"
                )
        # One connection pool per backend, as large as the batch fan-out, so
        # calls reuse connections instead of opening one each.
        self._session = requests.Session()
        adapter = HTTPAdapter(pool_maxsize=config.concurrency)
        self._session.mount("http://", adapter)
        self._session.mount("https://", adapter)

    def _headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        if self._token:
            headers["Authorization"] = f"Bearer {self._token}"
        return headers

    def _post(self, path: str, payload: dict) -> dict:
        import requests

        url = self.config.base_url.rstrip("/") + path
        try:
            response = self._session.post(
                url,
                json=payload,
                headers=self._headers(),
                timeout=self.config.timeout_ms / 1000.0,
            )
        except requests.Timeout as err:
            raise BackendTimeout(f"timeout calling {url}") from err
        except requests.ConnectionError as err:
            raise Unreachable(f"cannot reach {url}") from err

        if response.status_code == 429:
            raise RateLimited(
                "rate limited",
                retry_after=_retry_after_seconds(response.headers.get("Retry-After")),
            )
        if response.status_code >= 500:
            raise Unreachable(f"server error {response.status_code} from {url}")
        if response.status_code >= 400:
            raise MalformedResponse(f"request rejected ({response.status_code}): {response.text[:200]}")
        try:
            return response.json()
        except ValueError as err:
            raise MalformedResponse("response body is not JSON") from err

    def _generate_once(self, request: GenerationRequest) -> GenerationResponse:
        payload = {
            "model": self.config.model,
            "prompt": request.prompt,
            "max_tokens": request.max_new_tokens,
            "temperature": 0,
        }
        started = time.monotonic()
        data = self._post(self.config.completion_path, payload)
        latency_ms = (time.monotonic() - started) * 1000.0
        try:
            choice = data["choices"][0]
            text = choice["text"] if "text" in choice else choice["message"]["content"]
        except (KeyError, IndexError, TypeError) as err:
            raise MalformedResponse(f"unexpected completion payload: {data!r:.200}") from err
        if not isinstance(text, str):
            raise MalformedResponse("generated text is not a string")
        usage = data.get("usage") or {}
        return GenerationResponse(
            text=text,
            prompt_tokens=usage.get("prompt_tokens"),
            completion_tokens=usage.get("completion_tokens"),
            latency_ms=latency_ms,
        )

    def embed(self, texts: Sequence[str], mode: str = "text") -> EmbeddingResponse:
        if not texts:
            raise ValueError("embed requires a non-empty input list")
        data = self._post(self.config.embeddings_path, {"model": self.config.model, "input": list(texts)})
        try:
            vectors = tuple(tuple(float(x) for x in item["embedding"]) for item in data["data"])
        except (KeyError, TypeError, ValueError) as err:
            raise MalformedResponse(f"unexpected embeddings payload: {data!r:.200}") from err
        if len(vectors) != len(texts):
            raise MalformedResponse("embedding count does not match input count")
        return EmbeddingResponse(vectors=vectors, mode=mode)


# A truncated passage is matched by its opening: this many leading characters
# of the whitespace-normalised passage.
_OPENING_CHARS = 120


class _PrefixMemo(threading.local):
    """One thread's last cell-question resolution: (the prompt up to the end
    of its passage, the sample, the template text before the passage, the
    first word after it). None until a cell question sets it."""

    resolution: tuple[str, int, str, str] | None = None


class MockOracleBackend(GenerationBackend):
    """Answers prompts from gold tables, enabling offline end-to-end runs.

    Structure prompts get the gold header sequence, cell questions get the
    gold cell (or "unknown" for an absent cell), and baseline prompts get
    the gold table in flat format.

    Prompts are matched to samples by the passage text embedded in them,
    with whitespace runs collapsed to one space on both sides. A sample
    whose whole passage occurs matches, the longest such passage winning.
    Otherwise the prompt builder truncated the passage: among the samples
    whose first 120 characters occur, the one whose leading words the
    prompt repeats furthest wins, and a tie is an error. A passage cut
    inside its first 120 characters is found the same way among all
    samples. The kind of answer and the cell question are read from the
    prompt text outside that passage, so a passage that quotes `<SEP>`,
    `<NEWLINE>` or a cell question is answered like any other.

    Each sample is indexed under the rarest word inside its opening, so a
    prompt only checks the samples whose index word it contains. Cell
    questions are looked up in a per-table question index, built on the
    first cell question the table gets.

    A table's cell-question prompts share the text up to the end of the
    passage. Each thread remembers how it resolved its last cell question
    whose whole passage occurred with whitespace after it (`_PrefixMemo`).
    A prompt that starts with that prefix, followed by whitespace, the same
    first word, no `<SEP>` or `<NEWLINE>`, and less text than the sample's
    normalised passage, is answered from that sample with no passage
    lookup. The memo is set only when no registered passage holds that
    first word after one of its spaces, or ends in a last word that opens
    it: the crossing check, worked out once per word.

    Answers do not change. A passage that beats the remembered sample on
    the new prompt occurs whole in its normalised text. One inside the
    prefix occurred in the earlier prompt too and lost there. One after the
    prefix is shorter than the remembered passage, by the length guard.
    Any other spans the whitespace after the prefix, so it holds the first
    word after a space or ends in a prefix of it, which the crossing check
    rules out. The passage's first occurrence lies inside the identical
    prefix, so the text before and after it is what a full lookup reads,
    save whitespace the registered text may carry at its ends; no question
    or format token begins or ends with whitespace.
    """

    def __init__(self, samples: Iterable[tuple[str, Table]], **kwargs):
        super().__init__(**kwargs)
        pairs = list(samples)
        if not pairs:
            raise ValueError("mock oracle needs at least one (passage, gold table) pair")
        self._texts = [passage for passage, _ in pairs]
        self._passages = [" ".join(passage.split()) for passage in self._texts]
        self._tables = [table for _, table in pairs]
        self._questions: list[_QuestionIndex | None] = [None] * len(pairs)

        # The words strictly inside an opening are whole words of any prompt
        # the opening occurs in; its first and last word may be glued to
        # template text or cut.
        inner = [passage[:_OPENING_CHARS].split(" ")[1:-1] for passage in self._passages]
        counts = Counter(word for words in inner for word in set(words))
        self._by_anchor: dict[str, list[int]] = {}
        self._unanchored: list[int] = []
        for i, words in enumerate(inner):
            if words:
                self._by_anchor.setdefault(min(words, key=counts.__getitem__), []).append(i)
            else:
                self._unanchored.append(i)
        self._memo = _PrefixMemo()
        self._crossed: dict[str, bool] = {}

    def _crosses(self, word: str) -> bool:
        """Whether a registered passage could run across a gap into `word`."""
        crossed = self._crossed.get(word)
        if crossed is None:
            crossed = self._crossed[word] = any(
                f" {word}" in passage or word.startswith(passage[passage.rfind(" ") + 1 :])
                for passage in self._passages
            )
        return crossed

    def _find_sample(self, prompt: str) -> tuple[int, str]:
        """The prompt's sample and the normalised text of its passage the prompt holds.

        That text is the whole passage, or its leading words when the
        prompt builder truncated it. A lone sample answers any prompt: the
        text is empty when not even its passage's opening occurs.
        """
        words = prompt.split()
        text = " ".join(words)
        candidates = list(self._unanchored)
        for anchor in self._by_anchor.keys() & words:
            candidates.extend(self._by_anchor[anchor])
        whole = [i for i in candidates if self._passages[i] in text]
        if whole:
            i = max(whole, key=lambda i: (len(self._passages[i]), -i))
            return i, self._passages[i]

        opened = [i for i in candidates if self._passages[i][:_OPENING_CHARS] in text]
        if not opened and len(self._passages) == 1:
            return 0, ""
        padded = f" {text} "
        shared = {
            i: _shared_words(self._passages[i], padded)
            for i in (opened or range(len(self._passages)))
        }
        best = max(shared.values())
        if not opened and best == 0:
            raise MalformedResponse("prompt does not mention any registered passage")
        winners = [i for i, count in shared.items() if count == best]
        if len(winners) > 1:
            raise MalformedResponse(
                f"truncated prompt matches {len(winners)} registered passages equally"
            )
        return winners[0], " ".join(self._passages[winners[0]].split(" ")[:best])

    def _outside_passage(self, i: int, prompt: str, shown: str) -> tuple[str, str]:
        """The prompt text before and after the passage it shows: the template's own text."""
        if not shown:
            return prompt, ""
        forms = (self._texts[i], shown) if shown == self._passages[i] else (shown,)
        for form in forms:
            start = prompt.find(form)
            if start != -1:
                return prompt[:start], prompt[start + len(form) :]
        # The passage is there with other whitespace than it was given with.
        found = re.search(r"\s+".join(map(re.escape, shown.split(" "))), prompt)
        return prompt[: found.start()], prompt[found.end() :]

    @staticmethod
    def _structure_answer(table: Table) -> str:
        if table.orientation is Orientation.ATTRIBUTE_VALUE:
            return " <SEP> ".join(header for header, _ in table.rows)
        rows = " <SEP> ".join(table.row_headers)
        cols = " <SEP> ".join(table.col_headers)
        return f"{rows} <ROWCOL> {cols}"

    def _generate_once(self, request: GenerationRequest) -> GenerationResponse:
        prompt = request.prompt
        memo = self._memo.resolution
        if memo is not None:
            prefix, i, before, word = memo
            after = prompt[len(prefix) :]
            if (
                prompt.startswith(prefix)
                and len(after) < len(self._passages[i])
                and after[:1].isspace()
                and after.split(None, 1)[:1] == [word]
                and SEP_TOKEN not in after
                and NEWLINE_TOKEN not in after
            ):
                return GenerationResponse(text=self._questions[i].answer(before, after), latency_ms=0.0)
        i, shown = self._find_sample(prompt)
        table = self._tables[i]
        # Route and answer on the template's text only: a passage may quote
        # the format tokens or another cell's question.
        before, after = self._outside_passage(i, prompt, shown)
        if SEP_TOKEN in before or SEP_TOKEN in after:
            text = self._structure_answer(table)
        elif NEWLINE_TOKEN in before or NEWLINE_TOKEN in after:
            text = serialize_flat(table)
        else:
            questions = self._questions[i]
            if questions is None:
                # Two threads may both build it; they build equal indexes.
                questions = self._questions[i] = _QuestionIndex(table)
            text = questions.answer(before, after)
            # Only cell questions come many to a passage; a structure or
            # baseline prompt would never meet its prefix again.
            first = after.split(None, 1)[:1] if after[:1].isspace() else []
            if shown == self._passages[i] and first and not self._crosses(first[0]):
                self._memo.resolution = (prompt[: len(prompt) - len(after)], i, before, first[0])
        return GenerationResponse(text=text, latency_ms=0.0)


def _shared_words(passage: str, padded_text: str) -> int:
    """How many leading words of `passage` occur in order as whole words of the text.

    `padded_text` is the normalised prompt with one space added at each end.
    """
    words = passage.split(" ")
    low, high = 0, len(words)
    while low < high:
        mid = (low + high + 1) // 2
        if f" {' '.join(words[:mid])} " in padded_text:
            low = mid
        else:
            high = mid - 1
    return low


class _QuestionIndex:
    """Every cell question a table can be asked, mapped to the cell it asks for.

    A prompt's answer comes from the longest such question its texts contain;
    among equally long ones, the first in asking order: attribute-value
    rows, or matrix cells row-major, each with the numeric hint on and
    then off. No match, or an absent cell, answers "unknown".
    """

    def __init__(self, table: Table):
        if table.orientation is Orientation.ATTRIBUTE_VALUE:
            asked = [(formulate_question(None, header), value) for header, value in table.rows]
        else:
            asked = [
                (formulate_question(row_header, col_header, hint), table.cells[r][c])
                for r, row_header in enumerate(table.row_headers)
                for c, col_header in enumerate(table.col_headers)
                for hint in (True, False)
            ]
        self._cells: dict[str, tuple[int, str | None]] = {}
        for order, (question, value) in enumerate(asked):
            self._cells.setdefault(question, (order, value))
        self._longest = max(map(len, self._cells), default=0)

    def answer(self, *texts: str) -> str:
        # Every question runs from an occurrence of the opening to a later
        # end mark, so those spans are the only ones worth looking up.
        best: tuple[int, int] | None = None
        value = None
        for text in texts:
            start = text.find(QUESTION_OPENING)
            while start != -1:
                end = text.find(QUESTION_END, start)
                while end != -1 and end < start + self._longest:
                    hit = self._cells.get(text[start : end + 1])
                    if hit is not None:
                        rank = (end + 1 - start, -hit[0])  # longer first, then earlier
                        if best is None or rank > best:
                            best, value = rank, hit[1]
                    end = text.find(QUESTION_END, end + 1)
                start = text.find(QUESTION_OPENING, start + 1)
        return value if value is not None else "unknown"


class ReplayBackend(GenerationBackend):
    """Serves responses recorded on disk; a missing fixture fails loudly.

    An optional latency function simulates slow upstream completion
    without affecting what is returned.
    """

    def __init__(
        self,
        fixture_dir: str | Path,
        latency_fn: Callable[[GenerationRequest], float] | None = None,
        **kwargs,
    ):
        super().__init__(**kwargs)
        self.fixture_dir = Path(fixture_dir)
        self.latency_fn = latency_fn

    def _generate_once(self, request: GenerationRequest) -> GenerationResponse:
        path = self.fixture_dir / f"{request.digest()}.json"
        if not path.exists():
            raise MalformedResponse(f"no recorded fixture for request digest {request.digest()}")
        try:
            data = json.loads(path.read_text("utf-8"))
            text = data["response"]["text"]
        except (ValueError, KeyError, TypeError) as err:
            raise MalformedResponse(f"fixture {path.name} is unreadable") from err
        if not isinstance(text, str):
            raise MalformedResponse(f"fixture {path.name} has no response text")
        delay = self.latency_fn(request) if self.latency_fn else 0.0
        if delay > 0:
            time.sleep(delay)
        return GenerationResponse(text=text, latency_ms=delay * 1000.0)


class WrapperBackend(GenerationBackend):
    """A backend that adds behaviour around `inner` and dispatches like it.

    It takes `inner`'s concurrency, retry cap and backoff. `inner` already
    retries, so `generate` runs `_generate_once` once: stacked wrappers
    never multiply the attempts.
    """

    def __init__(self, inner: GenerationBackend):
        super().__init__(
            concurrency=inner.concurrency, retry_cap=inner.retry_cap, backoff_s=inner.backoff_s
        )
        self.inner = inner

    def generate(self, request: GenerationRequest) -> GenerationResponse:
        return self._generate_once(request)


class RecordingBackend(WrapperBackend):
    """Wraps a live backend and persists every response as a replay fixture."""

    def __init__(self, inner: GenerationBackend, fixture_dir: str | Path):
        super().__init__(inner)
        self.fixture_dir = Path(fixture_dir)
        self.fixture_dir.mkdir(parents=True, exist_ok=True)

    def _generate_once(self, request: GenerationRequest) -> GenerationResponse:
        response = self.inner.generate(request)
        record = {
            "request": {
                "prompt": request.prompt,
                "max_new_tokens": request.max_new_tokens,
                "decoding": "greedy",
            },
            "response": {"text": response.text},
        }
        # Encode before touching the disk, then swap the whole file in: a
        # response that cannot be encoded, or a crash mid-write, never leaves
        # a truncated fixture in place of an earlier one.
        try:
            data = json.dumps(record, sort_keys=True, ensure_ascii=False, indent=2).encode("utf-8")
        except UnicodeEncodeError as err:
            # A lone surrogate cannot be written as UTF-8; fail this call only.
            raise MalformedResponse(f"response cannot be recorded as UTF-8: {err.reason}") from err
        path = self.fixture_dir / f"{request.digest()}.json"
        temp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
        try:
            temp.write_bytes(data)
            os.replace(temp, path)
        except BaseException:
            temp.unlink(missing_ok=True)
            raise
        return response


class CachedBackend(WrapperBackend):
    """In-memory request cache; identical requests hit upstream exactly once.

    Concurrent misses on the same key share one in-flight upstream call,
    so batch semantics are unchanged with the cache on or off.
    """

    def __init__(self, inner: GenerationBackend):
        super().__init__(inner)
        self._lock = threading.Lock()
        self._futures: dict[str, Future] = {}
        self.upstream_calls = 0

    def _generate_once(self, request: GenerationRequest) -> GenerationResponse:
        key = request.digest()
        with self._lock:
            future = self._futures.get(key)
            if future is None:
                future = Future()
                self._futures[key] = future
                owner = True
            else:
                owner = False
        if not owner:
            return future.result()

        try:
            response = self.inner.generate(request)
        except BaseException as err:
            with self._lock:
                del self._futures[key]  # failed calls are not cached
            future.set_exception(err)
            raise
        with self._lock:
            self.upstream_calls += 1
        future.set_result(response)
        return response
