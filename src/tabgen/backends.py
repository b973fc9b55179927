"""Pluggable text-generation and embedding providers.

Three generation backends share one contract: a remote HTTP completion
service, a gold-table oracle for offline testing, and a request store
that answers each distinct request once, from memory or from fixtures
it replays and records for deterministic CI. Each backend that waits
has one in-flight cap and one pool of helper threads for its whole life
(see `GenerationBackend`), which serves a corpus's samples and their
batches alike and which a store stacked on it shares; the oracle and a
replay-only store never wait and answer inline. Responses are realigned
by index, so callers never observe completion order.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import threading
import time
import weakref
from abc import ABC, abstractmethod
from bisect import bisect_left
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

# numpy, requests and the date parsing only `Retry-After` needs are imported
# where they are used, not here: they are most of a cold `import tabgen`, and
# generation with the oracle, baselines, updates and exact evaluation never
# touch them.
from tabgen.prompts import (
    SEP_TOKEN,
    NoHeaders,
    PromptTemplate,
    formulate_question,
    packaged_templates,
    parse_structure_answer,
    structure_answer,
)
from tabgen.table import NEWLINE_TOKEN, Table, serialize_flat


class _RequestFields(NamedTuple):
    prompt: str
    max_new_tokens: int = 64


class GenerationRequest(_RequestFields):
    """One completion request: an immutable tuple whose `max_new_tokens` is at least 1."""

    __slots__ = ()

    def __new__(cls, prompt: str, max_new_tokens: int = 64):
        if max_new_tokens < 1:
            raise ValueError("max_new_tokens must be >= 1")
        return tuple.__new__(cls, (prompt, max_new_tokens))

    @classmethod
    def _make(cls, iterable) -> "GenerationRequest":  # so `_replace` checks as well
        return cls(*iterable)

    def as_dict(self) -> dict:
        """The request as its digest hashes it and a fixture records it."""
        # Decoding is always greedy; the key keeps recorded digests valid.
        return {"prompt": self.prompt, "max_new_tokens": self.max_new_tokens, "decoding": "greedy"}

    def digest(self) -> str:
        payload = json.dumps(self.as_dict(), sort_keys=True, ensure_ascii=False)
        # A lone surrogate in the prompt still digests; every other prompt's bytes are unchanged.
        return hashlib.sha256(payload.encode("utf-8", "surrogatepass")).hexdigest()


@dataclass(frozen=True)
class GenerationResponse:
    text: str
    prompt_tokens: int | None = None
    completion_tokens: int | None = None
    latency_ms: float | None = None


@dataclass(frozen=True)
class EmbeddingResponse:
    """One vector per input text, aligned by index.

    `vectors` is given as any nested sequence of numbers and held as a
    read-only 2-D float64 `numpy.ndarray`, a row per text; an array of
    that dtype is taken without a copy. Empty, ragged or zero-dimension
    input raises `ValueError`.
    """

    vectors: "numpy.ndarray"
    mode: str = "text"  # "text" | "token"

    def __post_init__(self):
        import numpy as np

        # A view, so the caller's own array keeps its flags.
        vectors = np.asarray(self.vectors, dtype=np.float64).view()
        if vectors.ndim != 2 or not vectors.size:
            raise ValueError(f"vectors must be at least one row of dimension >= 1, got shape {vectors.shape}")
        vectors.flags.writeable = False
        object.__setattr__(self, "vectors", vectors)


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


# The JSON types a config value may have, by the annotation of its field.
_CONFIG_TYPES: dict[str, tuple[type, ...]] = {
    "str": (str,),
    "str | None": (str, type(None)),
    "int": (int,),
    "float": (int, float),
    "bool": (bool,),
}


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

    def __post_init__(self):
        for name in ("timeout_ms", "retry_cap", "concurrency", "max_input_tokens",
                     "headers_max_new_tokens", "answer_max_new_tokens", "baseline_max_new_tokens"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        # time.sleep rejects these, so they would fail only at the first retry.
        if not 0 <= self.backoff_s < math.inf:
            raise ValueError("backoff_s must be a finite number >= 0")

    @classmethod
    def from_dict(cls, data: dict) -> "BackendConfig":
        """Settings from a parsed JSON config, rejecting unknown keys and values of the wrong type.

        An int is accepted where a float is expected; a bool is never taken for a number.
        """
        if not isinstance(data, dict):
            raise ValueError("config must hold a JSON object")
        types = {f.name: f.type for f in fields(cls)}
        unknown = sorted(set(data) - set(types))
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        for key, value in data.items():
            allowed = _CONFIG_TYPES[types[key]]
            if not isinstance(value, allowed) or (isinstance(value, bool) and bool not in allowed):
                raise ValueError(f"config key {key!r} must be {types[key]}, not {type(value).__name__}")
        return cls(**data)

    def merged(self, **overrides) -> "BackendConfig":
        provided = {k: v for k, v in overrides.items() if v is not None}
        return replace(self, **provided)


# The longest wait before a retry, in seconds, whether a server's
# `Retry-After` or the exponential backoff asks for it, so one request
# cannot stall a run for hours.
MAX_RETRY_AFTER_S = 60.0


class GenerationBackend(ABC):
    """Base generation provider: the concurrent batch contract.

    A backend whose own calls wait (`waits`, a class attribute) holds one
    of its `concurrency` slots for each call, so every sample, stage and
    thread that shares it shares one in-flight cap. `map` works a list (a
    batch's requests, or a corpus's samples) on the calling thread beside
    at most `concurrency - 1` helper threads, which the backend starts
    when it first needs them and releases when it is collected. A list
    asks only the helpers free when it starts, and any helper that comes
    free joins a list whose items are not all taken yet, so a batch
    asked on a helper running a sample is worked by that helper, beside
    any other that comes free. A caller whose items are all taken joins
    the lists those items ask until they are done, so a corpus's caller
    works its last samples' batches. A backend whose calls never wait
    works every list on the calling thread. A `WrapperBackend` has no
    slots or helpers.
    """

    # Whether a call waits on something outside the process (a service, a
    # delay), so that running calls side by side saves time.
    waits = True

    def __init__(self, *, concurrency: int = 8):
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        self.concurrency = concurrency
        self._slots = threading.Semaphore(concurrency)
        self._helpers: ThreadPoolExecutor | None = None
        # Guards the helpers, the open lists and every list's items. A caller
        # whose items are all taken waits on it for them to ask a list or end.
        self._state = threading.Condition()
        self._busy_helpers = 0  # helpers asked and not yet done
        # Lists taking helpers, oldest first: each one's work, and the list
        # whose item asked it (None for a caller outside any list).
        self._open: dict[Iterator[int], tuple[Callable[[], None], Iterator[int] | None]] = {}
        self._inside = threading.local()  # `.list`: the list whose item this thread runs

    @abstractmethod
    def _generate_once(self, request: GenerationRequest) -> GenerationResponse:
        ...

    def generate(self, request: GenerationRequest) -> GenerationResponse:
        """Answer one request, in one of the backend's slots if its calls wait."""
        if not self.waits:
            return self._generate_once(request)
        with self._slots:
            return self._generate_once(request)

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

        results = self.map(call, requests_)
        if all(isinstance(r, Unreachable) for r in results):
            raise Unreachable(f"all {len(results)} batched requests failed as unreachable")
        return results

    def map(self, fn: Callable, items: Sequence) -> list:
        """`fn` on every item, aligned by index: beside the helpers if the backend's calls wait."""
        helpers = min(self.concurrency, len(items)) - 1 if self.waits else 0
        return self._dispatch(fn, items, helpers) if helpers > 0 else [fn(item) for item in items]

    def _dispatch(self, call, items: Sequence, helpers: int) -> list:
        """`call` on every item, by this thread and up to `helpers` helpers free now.

        Until its last item is taken the list stays open, and a helper that
        comes free later (as when a corpus has no sample left) joins it.
        Once no item is left to take, this thread joins the lists its own
        running items ask, as a free helper does, until they are done. An
        error a call raises stops the list: no item starts after it, and it
        is raised here once the items already started are done.
        """
        results: list = [None] * len(items)
        errors: list[BaseException] = []
        order = iter(range(len(items)))
        running = 0  # items started and not yet done
        state, inside = self._state, self._inside
        parent = getattr(inside, "list", None)

        def work() -> None:
            nonlocal running
            outer = getattr(inside, "list", None)
            while True:
                with state:
                    i = next(order, None)
                    if i is None:  # every item is taken, so no helper joins now
                        self._open.pop(order, None)
                        return
                    running += 1
                inside.list = order
                try:
                    results[i] = call(items[i])
                except BaseException as err:
                    errors.append(err)
                    with state:
                        for _ in order:  # no item starts after an error
                            pass
                finally:
                    inside.list = outer
                    with state:
                        running -= 1
                        if not running:
                            state.notify_all()

        with state:
            if self._helpers is None:
                self._helpers = ThreadPoolExecutor(self.concurrency - 1, "tabgen-dispatch")
                weakref.finalize(self, self._helpers.shutdown, wait=False)
            # Only free helpers are asked: a task queued behind busy ones would
            # hold the list until they are done, long after it ended.
            helpers = min(helpers, self.concurrency - 1 - self._busy_helpers)
            self._busy_helpers += helpers
            self._open[order] = work, parent
            state.notify_all()  # a caller waiting on its items may join it
        for _ in range(helpers):
            self._helpers.submit(self._help)
        work()
        self._help(lambda: running, order)
        if errors:
            raise errors[0]
        return results

    def _help(self, running: Callable[[], int] | None = None, asker: Iterator[int] | None = None) -> None:
        """Work the open lists, oldest first.

        A helper's task calls it bare: it works every list, and returns once
        none is open. A caller whose items are all taken passes `running`,
        the count of its items still running, and its list as `asker`: it
        works only the lists those items asked (a corpus's caller, its
        samples' batches), waiting for one to open, until that count is 0.
        So it never starts an item of a list its own items do not wait on.
        """
        def joinable() -> Callable[[], None] | None:
            lists = (work for work, by in self._open.values() if running is None or by is asker)
            return next(lists, None)

        while True:
            with self._state:
                if running is None:
                    work = joinable()
                    if work is None:
                        self._busy_helpers -= 1
                        return
                else:
                    self._state.wait_for(lambda: not running() or joinable())
                    if not running():
                        return
                    work = joinable()
            work()
            del work  # so a caller waiting on its own items keeps no list it has left alive


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
    """Hash vectors: identical inputs embed identically, forever.

    A text's vector: the first `8 * dim` bytes of the SHAKE-128 of its
    UTF-8 (lone surrogates pass through), read as big-endian uint64
    words; each word `w` gives `(w >> 11) * 2**-53 + 1e-9`, and the row
    is scaled to unit length. Components are positive so cosine
    similarities stay in [0, 1], and a vector depends on its text alone.
    """

    def __init__(self, dim: int = 32):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = dim

    def embed(self, texts: Sequence[str], mode: str = "text") -> EmbeddingResponse:
        import numpy as np

        if not texts:
            raise ValueError("embed requires a non-empty input list")
        size = 8 * self.dim
        digests = b"".join(hashlib.shake_128(t.encode("utf-8", "surrogatepass")).digest(size) for t in texts)
        raw = (np.frombuffer(digests, dtype=">u8").reshape(len(texts), self.dim) >> 11) * 2.0**-53 + 1e-9
        # Each row's norm is the inner product a batched matmul takes, as
        # `np.linalg.norm` of one row does, so a row is the same in any batch.
        return EmbeddingResponse(vectors=raw / np.sqrt(raw[:, None, :] @ raw[:, :, None])[:, 0], mode=mode)


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


def _token_count(usage: object, key: str) -> int | None:
    """`usage[key]` when `usage` is an object and that is a non-negative int, else None."""
    count = usage.get(key) if isinstance(usage, dict) else None
    return count if type(count) is int and count >= 0 else None


class HttpBackend(GenerationBackend, EmbeddingBackend):
    """Client for a hosted completion/embeddings service speaking the common JSON shape.

    POSTs {model, prompt, max_tokens, temperature: 0} and reads the
    generated text from choices[0]; endpoint paths, model name, and the
    auth env var are all configuration. It is the only backend that
    retries: every POST, completion or embeddings, is attempted up to
    `retry_cap` times.
    """

    def __init__(self, config: BackendConfig):
        import requests
        from requests.adapters import HTTPAdapter
        from urllib.parse import urlsplit

        super().__init__(concurrency=config.concurrency)
        if not config.base_url:
            raise ValueError("http backend requires base_url")
        # Checked here, so a malformed endpoint fails at start-up rather than at every call.
        try:
            url = urlsplit(config.base_url)
            valid = url.scheme in ("http", "https") and url.hostname and url.port != 0
        except ValueError:  # `port` raises it for a port that is not a number up to 65535
            valid = False
        if not valid:
            raise ValueError(f"base_url {config.base_url!r} needs an http:// or https:// scheme, a host"
                             " and, if it names a port, one from 1 to 65535")
        for name in ("completion_path", "embeddings_path"):
            if not getattr(config, name).startswith("/"):
                raise ValueError(f"{name} {getattr(config, name)!r} must start with '/'")
        self.config = config
        # One connection pool per backend, as large as its in-flight cap, so
        # calls reuse connections instead of opening one each. Its headers are
        # set once, in the order requests have always sent them.
        self._session = requests.Session()
        self._session.headers["Content-Type"] = "application/json"
        if config.auth_env:
            token = os.environ.get(config.auth_env)
            if not token:
                raise ValueError(f"auth environment variable {config.auth_env} is not set")
            self._session.headers["Authorization"] = f"Bearer {token}"
        adapter = HTTPAdapter(pool_maxsize=config.concurrency)
        self._session.mount("http://", adapter)
        self._session.mount("https://", adapter)

    def _post(self, path: str, payload: dict) -> dict:
        """POST with bounded exponential-backoff retries.

        Retryable failures are retried up to `retry_cap` total attempts,
        waiting `backoff_s * 2**attempt` before each retry, or the delay a
        rate limit names; every wait is capped at `MAX_RETRY_AFTER_S`.
        """
        # Doubled only while under the cap, so no attempt count overflows it.
        backoff = min(self.config.backoff_s, MAX_RETRY_AFTER_S)
        for attempt in range(self.config.retry_cap):
            try:
                return self._post_once(path, payload)
            except BackendError as err:
                if not err.retryable or attempt == self.config.retry_cap - 1:
                    raise
                delay = backoff
                if isinstance(err, RateLimited) and err.retry_after is not None:
                    delay = min(err.retry_after, MAX_RETRY_AFTER_S)
                time.sleep(delay)
                backoff = min(2 * backoff, MAX_RETRY_AFTER_S)
        raise AssertionError("unreachable")

    def _post_once(self, path: str, payload: dict) -> dict:
        import requests
        from urllib3.exceptions import ReadTimeoutError

        url = self.config.base_url.rstrip("/") + path
        try:
            response = self._session.post(url, json=payload, timeout=self.config.timeout_ms / 1000.0)
        except requests.Timeout as err:
            raise BackendTimeout(f"timeout calling {url}") from err
        except requests.ConnectionError as err:
            # requests reports a body slower than the timeout as a ConnectionError around urllib3's.
            if err.args and isinstance(err.args[0], ReadTimeoutError):
                raise BackendTimeout(f"timeout calling {url}") from err
            raise Unreachable(f"cannot reach {url}") from err
        except requests.RequestException as err:
            # A body cut off mid-read, among others, is retried; a request
            # that cannot be built (a `ValueError` too, as a bad header) is not.
            error = BackendError if isinstance(err, ValueError) else Unreachable
            raise error(f"request to {url} failed: {err}") from err

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
        usage = data.get("usage")
        return GenerationResponse(
            text=text,
            prompt_tokens=_token_count(usage, "prompt_tokens"),
            completion_tokens=_token_count(usage, "completion_tokens"),
            latency_ms=latency_ms,
        )

    def embed(self, texts: Sequence[str], mode: str = "text") -> EmbeddingResponse:
        if not texts:
            raise ValueError("embed requires a non-empty input list")
        data = self._post(self.config.embeddings_path, {"model": self.config.model, "input": list(texts)})
        try:
            rows = [item["embedding"] for item in data["data"]]
        except (KeyError, TypeError) as err:
            raise MalformedResponse(f"unexpected embeddings payload: {data!r:.200}") from err
        # A string or an object would iterate as its characters or keys.
        if not all(isinstance(row, list) and all(type(x) in (int, float) for x in row) for row in rows):
            raise MalformedResponse("an embedding is not a JSON array of numbers")
        if len(rows) != len(texts):
            raise MalformedResponse("embedding count does not match input count")
        try:
            return EmbeddingResponse(vectors=rows, mode=mode)
        except (ValueError, OverflowError) as err:  # no component, ragged, or past float range
            raise MalformedResponse(str(err)) from err


# A registered passage is indexed by its length and this many leading characters.
_KEY_CHARS = 32


class MockOracleBackend(GenerationBackend):
    """Answers prompts from gold tables, enabling offline end-to-end runs.

    Structure prompts get the gold header sequence, cell questions get the
    gold cell (or "unknown" for an absent cell), and baseline prompts get
    the gold table in flat format.

    A prompt is read through the template that built it: the packaged
    templates first, then those given as `templates`. The first template
    the prompt fits whose passage slot names a sample decides. A template
    with a question slot asks for a cell; one without asks for headers if
    its text holds `<SEP>`, a flat table if it holds `<NEWLINE>`, and a
    cell (which it cannot name, so "unknown") otherwise. A cell template
    decides only if its question slot also holds a question the sample's
    table can be asked; when no template gives one, the answer is
    "unknown". A prompt that fits no template raises `MalformedResponse`.

    Each way the prompt fits the template, longest passage first, names a
    sample by its passage slot: the exact registered text, or else that
    text with whitespace runs collapsed to one space. The first way that
    names a whole passage wins. Otherwise the prompt builder truncated the
    passage, and the longest passage slot that is a word prefix of some
    registered passage decides; a prefix of several is a tie and raises
    `MalformedResponse`. A lone registered sample answers any passage.

    A cell's answer is looked up by the exact text of the question slot.
    Each sample's answers are built once, when it is first asked, and an
    answer text is one shared response for the whole oracle. Its calls
    do not wait, so it answers every batch on the calling thread whatever
    `concurrency` is.

    What a prompt costs: a test of each template's frame (the literals
    around its slots, kept as a tuple when the oracle is built) until one
    frames the prompt, then one exact lookup of that template's longest
    passage slot. Only when that slot holds no registered passage
    verbatim are its other ways and the rules above enumerated.
    """

    waits = False

    def __init__(
        self,
        samples: Iterable[tuple[str, Table]],
        templates: Iterable[PromptTemplate] = (),
        *,
        concurrency: int = 8,
    ):
        super().__init__(concurrency=concurrency)
        pairs = list(samples)
        if not pairs:
            raise ValueError("mock oracle needs at least one (passage, gold table) pair")
        self._texts = [passage for passage, _ in pairs]
        self._tables = [table for _, table in pairs]
        self._cells: list[dict[str, GenerationResponse] | None] = [None] * len(pairs)
        # Per sample: its header sequence and its flat table, each built when first asked.
        self._replies: dict[str, list[GenerationResponse | None]] = {
            "headers": [None] * len(pairs), "flat": [None] * len(pairs)
        }
        self._responses: dict[str, GenerationResponse] = {}  # answer text -> its one response
        self._by_key: dict[tuple[int, str], list[int]] = {}
        self._by_passage: dict[str, int] = {}
        passages = [" ".join(text.split()) for text in self._texts]
        for i, (text, passage) in enumerate(zip(self._texts, passages)):
            self._by_key.setdefault((len(text), text[:_KEY_CHARS]), []).append(i)
            self._by_passage.setdefault(passage, i)
        self._order = sorted(range(len(pairs)), key=passages.__getitem__)
        self._sorted = [passages[i] for i in self._order]

        # Each template's frame, in reading order: the template, the kind of answer it
        # asks for, and its `layout` (the literals around its slots and their order).
        self._frames: list[tuple[PromptTemplate, str, str, str | None, str, bool]] = []
        for template in [*packaged_templates(), *templates]:
            first, middle, last, passage_first = template.layout
            # A question slot makes a cell template, whatever its text mentions.
            text = "" if middle is not None else first + last
            kind = "headers" if SEP_TOKEN in text else "flat" if NEWLINE_TOKEN in text else "cell"
            self._frames.append((template, kind, first, middle, last, passage_first))

    def _sample(self, prompt: str, ways: Iterator) -> tuple[int, tuple[int, int] | None]:
        """The sample the passage slot of one of `ways` names, and that way's question slot.

        `ways` holds at least one way: the prompt fits the template.
        """
        lone = truncated = None
        for (start, end), question in ways:
            for i in self._by_key.get((end - start, prompt[start : min(end, start + _KEY_CHARS)]), ()):
                if prompt.startswith(self._texts[i], start):
                    return i, question
            shown = " ".join(prompt[start:end].split())
            i = self._by_passage.get(shown)
            if i is not None:
                return i, question
            if truncated is None:
                low = bisect_left(self._sorted, shown + " ")
                high = bisect_left(self._sorted, shown + "!", low)  # "!" follows " "
                if high > low:
                    truncated = high - low, self._order[low], question
            if lone is None:
                lone = 0, question
        if truncated is not None:
            count, i, question = truncated
            if count > 1:
                raise MalformedResponse(f"truncated prompt matches {count} registered passages equally")
            return i, question
        if len(self._texts) == 1:
            return lone
        raise MalformedResponse("prompt does not mention any registered passage")

    def _response(self, text: str) -> GenerationResponse:
        """The oracle's one response with this text."""
        return self._responses.setdefault(text, GenerationResponse(text, latency_ms=0.0))

    def _asked(self, i: int) -> dict[str, GenerationResponse]:
        """Every question table `i` can be asked, mapped to its cell's answer.

        The first in asking order wins: cells row-major, each with the
        numeric hint on and then off, under the table's own headers; then
        the same under the headers stage one parses out of its header
        sequence, if those differ but keep its shape (parsing strips a
        padded header). An attribute-value table's one row has no row
        header, so its questions carry no hint. An absent cell answers
        "unknown".
        """
        cells = self._cells[i]
        if cells is None:
            table = self._tables[i]
            headings = [(table.row_headers, table.col_headers)]
            try:
                parsed = parse_structure_answer(structure_answer(table), table.orientation)
            except NoHeaders:  # no column header survives parsing
                parsed = headings[0]
            if parsed != headings[0] and list(map(len, parsed)) == list(map(len, headings[0])):
                headings.append(parsed)
            answers = [[self._response("unknown" if v is None else v) for v in row] for row in table.cells]
            cells = {}
            for rows, cols in headings:
                for r, row in enumerate(answers):
                    for col_header, answer in zip(cols, row):
                        for hint in (True, False):
                            question = formulate_question(rows[r] if rows else None, col_header, hint)
                            cells.setdefault(question, answer)
            # Two threads may both build it; they build equal dicts.
            self._cells[i] = cells
        return cells

    def _reply(self, i: int, kind: str) -> GenerationResponse:
        """Table `i`'s header sequence ("headers") or flat form ("flat"), built once."""
        replies = self._replies[kind]
        reply = replies[i]
        if reply is None:
            table = self._tables[i]
            text = serialize_flat(table) if kind == "flat" else structure_answer(table)
            reply = replies[i] = self._response(text)
        return reply

    def _generate_once(self, request: GenerationRequest) -> GenerationResponse:
        prompt = request.prompt
        failure, unasked = None, False
        for template, kind, first, middle, last, passage_first in self._frames:
            # The first way `template.fits(prompt)` would give: the longest passage slot.
            start, end = len(first), len(prompt) - len(last)
            if end < start or not prompt.startswith(first) or not prompt.endswith(last):
                continue
            question = None
            if middle is not None:
                cut = prompt.rfind(middle, start, end) if passage_first else prompt.find(middle, start, end)
                if cut == -1:
                    continue
                if passage_first:
                    end, question = cut, (cut + len(middle), end)
                else:
                    start, question = cut + len(middle), (start, cut)
            for i in self._by_key.get((end - start, prompt[start : min(end, start + _KEY_CHARS)]), ()):
                if prompt.startswith(self._texts[i], start):
                    break
            else:  # not a registered passage verbatim: every way, by every rule
                try:
                    i, question = self._sample(prompt, template.fits(prompt))
                except MalformedResponse as err:
                    failure = failure or err
                    continue
            if kind != "cell":
                return self._reply(i, kind)
            cells = self._cells[i] or self._asked(i)
            response = cells.get(None if question is None else prompt[question[0] : question[1]])
            if response is not None:
                return response
            # A later template may read the question that this one's
            # question slot holds wrapped in template text.
            unasked = True
        if unasked:
            return self._response("unknown")
        raise failure or MalformedResponse("prompt fits no template the oracle holds")


class WrapperBackend(GenerationBackend):
    """A backend that adds behaviour around `inner` and dispatches on `inner`'s state.

    It owns no slot or helper thread: its `concurrency` and `waits` are
    `inner`'s, and its batches run on `inner`'s helpers. So a stack has
    one in-flight cap and at most `concurrency - 1` helpers, whichever
    layer is asked, and a call that never reaches the backend that waits
    (a stored answer) never queues for a slot. Without `inner` (a
    replay-only store) its calls never wait and its concurrency is 1.
    """

    def __init__(self, inner: GenerationBackend | None):
        self.inner = inner

    @property
    def concurrency(self) -> int:
        return 1 if self.inner is None else self.inner.concurrency

    @property
    def waits(self) -> bool:
        return self.inner is not None and self.inner.waits

    def generate(self, request: GenerationRequest) -> GenerationResponse:
        return self._generate_once(request)

    def _dispatch(self, call, items: Sequence, helpers: int) -> list:
        return self.inner._dispatch(call, items, helpers)


class RequestStore(WrapperBackend):
    """Answers each distinct request once, by its digest, asking `inner` on a miss.

    With a `directory`, answers live in `<digest>.json` fixtures there, so
    a run stopped halfway and run again sends upstream only the calls it
    has not recorded; without one, they live in memory. Without `inner`
    the store only replays: the directory must exist and a miss raises
    `MalformedResponse`. Every miss is single-flight: identical requests
    in flight share one upstream call, and a caller waiting on it holds
    no slot, nor does a hit. A failure is not kept; its waiters get it too.
    """

    def __init__(self, inner: GenerationBackend | None = None, *, directory: str | Path | None = None):
        if inner is None and directory is None:
            raise ValueError("a request store needs an inner backend, a directory or both")
        super().__init__(inner)
        self.directory = None if directory is None else Path(directory)
        if inner is None and not self.directory.is_dir():
            raise ValueError(f"fixture directory {self.directory} does not exist")
        if inner is not None and self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._futures: dict[str, Future] = {}
        self.upstream_calls = 0

    def _generate_once(self, request: GenerationRequest) -> GenerationResponse:
        key = request.digest()
        with self._lock:
            future = self._futures.get(key)
            if owner := future is None:
                future = self._futures[key] = Future()
        if not owner:
            return future.result()

        try:
            response = self._answer(request, key)
        except BaseException as err:
            with self._lock:
                del self._futures[key]  # failed calls are not kept
            future.set_exception(err)
            raise
        if self.directory is not None:
            with self._lock:
                del self._futures[key]  # its fixture answers from now on
        future.set_result(response)
        return response

    def _answer(self, request: GenerationRequest, key: str) -> GenerationResponse:
        """The fixture's answer, else `inner`'s, recorded if there is a directory."""
        # Only the caller holding `key` gets here, so it finds any fixture an earlier holder wrote.
        path = None if self.directory is None else self.directory / f"{key}.json"
        if path is not None and path.exists():
            try:
                text = json.loads(path.read_text("utf-8"))["response"]["text"]
            except (OSError, ValueError, KeyError, TypeError) as err:
                raise MalformedResponse(f"fixture {path.name} is unreadable") from err
            if not isinstance(text, str):
                raise MalformedResponse(f"fixture {path.name} has no response text")
            return GenerationResponse(text=text, latency_ms=0.0)
        if self.inner is None:
            raise MalformedResponse(f"no recorded fixture for request digest {key}")
        if path is not None:
            # A lone surrogate cannot be written as UTF-8: such a prompt is failed
            # before it is sent upstream, since its answer could not be recorded.
            try:
                request.prompt.encode("utf-8")
            except UnicodeEncodeError as err:
                raise MalformedResponse(f"request cannot be recorded as UTF-8: {err.reason}") from err
        response = self.inner.generate(request)
        with self._lock:
            self.upstream_calls += 1
        if path is not None:
            self._record(request, response, path)
        return response

    @staticmethod
    def _record(request: GenerationRequest, response: GenerationResponse, path: Path) -> None:
        record = {"request": request.as_dict(), "response": {"text": response.text}}
        # Encode before touching the disk, then swap the whole file in: a
        # response that cannot be encoded, or a crash mid-write, never leaves
        # a truncated fixture behind.
        try:
            data = json.dumps(record, sort_keys=True, ensure_ascii=False, indent=2).encode("utf-8")
        except UnicodeEncodeError as err:
            raise MalformedResponse(f"response cannot be recorded as UTF-8: {err.reason}") from err
        temp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
        try:
            temp.write_bytes(data)
            os.replace(temp, path)
        except BaseException:
            temp.unlink(missing_ok=True)
            raise
