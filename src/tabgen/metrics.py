"""Exact-match F1, syntactic error rate, embedding-similarity scores, corpus reports."""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from dataclasses import asdict, astuple, dataclass
from itertools import chain, repeat
from typing import Iterable, Sequence

# numpy is imported inside `_TokenTable`, its only user, so that importing
# tabgen and exact evaluation do not pay for it (cold start).
from tabgen.backends import EmbeddingBackend, MalformedResponse
from tabgen.table import (
    CellTuple,
    Orientation,
    Table,
    _cell_tuples,
    _NormalizeMemo,
    to_tuples,  # noqa: F401 -- perfbench's tracer wraps tabgen.metrics.to_tuples
)

PREDICTED_HEADERS = "predicted-headers"
GOLD_HEADERS = "gold-headers"


@dataclass(frozen=True)
class PRF:
    precision: float
    recall: float
    f1: float

    @classmethod
    def zeros(cls) -> "PRF":
        return cls(0.0, 0.0, 0.0)

    @classmethod
    def from_rates(cls, precision: float, recall: float) -> "PRF":
        f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
        return cls(precision, recall, f1)

    @classmethod
    def from_counts(cls, overlap: int, pred_size: int, gold_size: int) -> "PRF":
        precision = overlap / pred_size if pred_size else 0.0
        recall = overlap / gold_size if gold_size else 0.0
        return cls.from_rates(precision, recall)


def exact_f1(predicted: Iterable, gold: Iterable) -> PRF:
    """Set-overlap precision/recall/F1; an empty side scores zero by convention.

    A set or frozenset is used as given; any other iterable is copied into one.
    """
    pred_set = predicted if isinstance(predicted, (set, frozenset)) else set(predicted)
    gold_set = gold if isinstance(gold, (set, frozenset)) else set(gold)
    return PRF.from_counts(len(pred_set & gold_set), len(pred_set), len(gold_set))


def _clamp01(value: float) -> float:
    return min(1.0, max(0.0, value))


# The most tokens one embedding request carries: the input cap of common
# hosted embedding APIs (a published figure, not checked against a live
# endpoint). It also bounds the size of `MockEmbedder`'s temporaries.
_EMBED_CAP = 2048


class _TokenTable:
    """Unit-normalised vectors of the tokens one scoring call scores, a row per distinct token.

    Built once per call from every token the call scores: each distinct
    token is embedded once, in `mode="token"` requests of at most
    `_EMBED_CAP` tokens, so a call sends ceil(distinct tokens / cap)
    requests. Nothing is remembered across calls.
    """

    def __init__(self, embedder: EmbeddingBackend, tokens: Iterable[str]):
        import numpy as np

        distinct = list(dict.fromkeys(tokens))
        self._rows = dict(zip(distinct, range(len(distinct))))
        self._unit = np.empty((0, 0))
        for start in range(0, len(distinct), _EMBED_CAP):
            chunk = distinct[start : start + _EMBED_CAP]
            vectors = np.asarray(embedder.embed(chunk, mode="token").vectors)
            if len(vectors) != len(chunk):
                raise MalformedResponse(f"embedder returned {len(vectors)} vectors for {len(chunk)} tokens")
            if not start:
                self._unit = np.empty((len(distinct), vectors.shape[1]))
            elif vectors.shape[1] != self._unit.shape[1]:
                raise MalformedResponse(
                    f"embedder returned {vectors.shape[1]}-dimensional vectors"
                    f" after {self._unit.shape[1]}-dimensional ones in the same call"
                )
            norms = np.linalg.norm(vectors, axis=1, keepdims=True)
            # A zero or non-finite norm has no unit vector; NaN fails both tests.
            bad = ~((norms > 0) & (norms < np.inf))
            if bad.any():
                token = chunk[int(bad.argmax())]
                raise MalformedResponse(f"embedder returned a zero-norm or non-finite vector for {token!r}")
            self._unit[start : start + len(chunk)] = vectors / norms

    def score(self, candidate: Counter[str], reference: Counter[str]) -> PRF:
        """Greedy max-cosine matching of two token multisets already embedded.

        Each side is reduced to its distinct tokens weighted by their
        counts: precision is the count-weighted best similarity of the
        candidate tokens over the candidate length, recall the mirror image.
        """
        import numpy as np

        n = len(candidate)
        unit = self._unit[list(map(self._rows.__getitem__, chain(candidate, reference)))]
        counts = np.fromiter(
            chain(candidate.values(), reference.values()), dtype=float, count=n + len(reference)
        )
        similarity = unit[:n] @ unit[n:].T
        precision = float(counts[:n] @ similarity.max(axis=1)) / candidate.total()
        recall = float(counts[n:] @ similarity.max(axis=0)) / reference.total()
        return PRF.from_rates(_clamp01(precision), _clamp01(recall))


_ONES = PRF(1.0, 1.0, 1.0)


def _pair_score(table: _TokenTable, candidate: Sequence[str], reference: Sequence[str]) -> PRF:
    """One pair's score; two sides with the same distinct tokens score one with no matrix.

    Each token's best match is then itself at cosine 1, and no cosine of
    unit vectors is above 1 (`_TokenTable` has rejected any vector
    without a unit direction).
    """
    if not (candidate and reference):
        return PRF.zeros()
    if candidate == reference:
        return _ONES
    candidate, reference = Counter(candidate), Counter(reference)
    return _ONES if candidate.keys() == reference.keys() else table.score(candidate, reference)


def _semantic_scores(
    embedder: EmbeddingBackend, pairs: Sequence[tuple[Sequence[str], Sequence[str]]]
) -> list[PRF]:
    """Score (candidate, reference) token lists, embedding each distinct token once.

    Either side empty scores zero, and its tokens are not embedded.
    """
    scored = chain.from_iterable(pair for pair in pairs if all(pair))
    table = _TokenTable(embedder, chain.from_iterable(scored))
    return [_pair_score(table, cand, ref) for cand, ref in pairs]


def semantic_score(
    candidate_tokens: Sequence[str],
    reference_tokens: Sequence[str],
    embedder: EmbeddingBackend,
) -> PRF:
    """Greedy max-cosine token matching over unit-normalized embeddings.

    Recall averages, over reference tokens, the best similarity to any
    candidate token; precision is the mirror image. Either side empty
    scores zero.
    """
    [score] = _semantic_scores(embedder, [(candidate_tokens, reference_tokens)])
    return score


@dataclass(frozen=True)
class SampleEval:
    sample_id: str
    errored: bool
    header: PRF
    cell: PRF
    row_header: PRF | None = None
    col_header: PRF | None = None
    semantic_header: PRF | None = None
    semantic_cell: PRF | None = None


def _header_sets(table: Table, memo: _NormalizeMemo) -> tuple[set[str], set[str], set[str]]:
    """(all headers, row headers, col headers), normalized through the call's memo."""
    rows = set(map(memo.__getitem__, table.row_headers))
    cols = set(map(memo.__getitem__, table.col_headers))
    return rows | cols, rows, cols


def _mean_prf(values: Iterable[PRF | None]) -> PRF | None:
    """The field-wise mean of the scores that are not None; None when there is none."""
    values = [v for v in values if v is not None]
    if not values:
        return None
    return PRF(
        precision=sum(v.precision for v in values) / len(values),
        recall=sum(v.recall for v in values) / len(values),
        f1=sum(v.f1 for v in values) / len(values),
    )


def _header_tokens(headers: set[str]) -> list[str]:
    return " ".join(sorted(headers)).split()


class _SplitMemo(dict):
    """The tokens of each normalized text one call has seen: each text is split once.

    Normalized text is single-spaced with no outer whitespace, so splitting
    on one space gives its tokens; the empty text has none.
    """

    __slots__ = ()

    def __missing__(self, text: str) -> tuple[str, ...]:
        tokens = self[text] = tuple(text.split(" ")) if text else ()
        return tokens


def _cell_tokens(cells: set[CellTuple], split: _SplitMemo | None = None) -> list[str]:
    """The tokens of every part of every cell, cells in sorted order."""
    split = _SplitMemo() if split is None else split
    return list(chain.from_iterable(map(split.__getitem__, chain.from_iterable(sorted(cells)))))


def evaluate_sample(
    pred: Table,
    gold: Table,
    *,
    sample_id: str = "",
    embedder: EmbeddingBackend | None = None,
) -> SampleEval:
    """Score one prediction: per-axis header F1, cell-tuple F1, optional semantic PRF.

    For matrix tables the headline header score is the mean of the row-
    and column-axis scores; cell identity is the full normalized
    (row header, column header, value) tuple. Each distinct string is
    normalized once per call.
    """
    [sample] = _evaluate_samples([(pred, gold)], [sample_id], embedder)
    return sample


def _exact_scores(
    pred: Table, gold: Table, memo: _NormalizeMemo, split: _SplitMemo | None
) -> tuple[tuple[PRF, PRF, PRF | None, PRF | None], list[tuple[list[str], list[str]]]]:
    """(header, cell, row header, col header) scores, and the header and cell token pairs.

    The token pairs, for semantic scoring, are built only when `split` is given.
    """
    pred_all, pred_rows, pred_cols = _header_sets(pred, memo)
    gold_all, gold_rows, gold_cols = _header_sets(gold, memo)

    if gold.orientation is Orientation.MATRIX and pred.orientation is Orientation.MATRIX:
        row_prf = exact_f1(pred_rows, gold_rows)
        col_prf = exact_f1(pred_cols, gold_cols)
        header_prf = _mean_prf([row_prf, col_prf])
    else:
        row_prf = None
        col_prf = None
        header_prf = exact_f1(pred_all, gold_all)

    pred_cells = _cell_tuples(pred, memo)
    gold_cells = _cell_tuples(gold, memo)
    scores = (header_prf, exact_f1(pred_cells, gold_cells), row_prf, col_prf)
    if split is None:
        return scores, []
    return scores, [
        (_header_tokens(pred_all), _header_tokens(gold_all)),
        (_cell_tokens(pred_cells, split), _cell_tokens(gold_cells, split)),
    ]


def _evaluate_samples(
    pairs: Sequence[tuple[Table | None, Table]],
    ids: Sequence[str],
    embedder: EmbeddingBackend | None,
) -> list[SampleEval]:
    """Every sample's scores: exact scoring first, then one semantic pass over all samples.

    The semantic pass embeds each distinct token the call scores once (see
    `_TokenTable`). A None prediction is an errored sample scoring zero.
    """
    memo = _NormalizeMemo()
    split = None if embedder is None else _SplitMemo()
    exact = []
    token_pairs: list[tuple[list[str], list[str]]] = []
    for pred, gold in pairs:
        if pred is None:
            exact.append(None)
        else:
            scores, tokens = _exact_scores(pred, gold, memo, split)
            exact.append(scores)
            token_pairs.extend(tokens)
    semantic = iter(_semantic_scores(embedder, token_pairs)) if embedder is not None else repeat(None)

    # An errored sample scores zero wherever a score is computed for its gold table.
    zeros = PRF.zeros()
    embedded = None if embedder is None else zeros
    samples = []
    for sample_id, (_, gold), scores in zip(ids, pairs, exact):
        if scores is None:
            axis = zeros if gold.orientation is Orientation.MATRIX else None
            samples.append(SampleEval(sample_id, True, zeros, zeros, axis, axis, embedded, embedded))
        else:
            samples.append(SampleEval(sample_id, False, *scores, next(semantic), next(semantic)))
    return samples


# The precision/recall/F1 fields of a report and of each sample, in report order.
_PRF_KEYS = ("header", "row_header", "col_header", "cell", "semantic_header", "semantic_cell")


# JSON keys that differ from the report field they hold.
_JSON_KEYS = {"per_sample": "samples", "sample_id": "id"}


def _json_object(fields: list[tuple[str, object]]) -> dict:
    """One report or sample as a JSON object (`asdict`'s factory)."""
    return {_JSON_KEYS.get(k, k): round(v, 6) if isinstance(v, float) else v for k, v in fields}


@dataclass(frozen=True)
class EvalReport:
    """Macro-averaged corpus metrics plus the per-sample breakdown."""

    mode: str
    sample_count: int
    error_rate: float
    per_sample: tuple[SampleEval, ...]
    header: PRF
    cell: PRF
    row_header: PRF | None = None
    col_header: PRF | None = None
    semantic_header: PRF | None = None
    semantic_cell: PRF | None = None

    def to_json(self) -> dict:
        """Every field, floats rounded to 6 places; `per_sample` is "samples", `sample_id` "id"."""
        return asdict(self, dict_factory=_json_object)

    def to_json_text(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, ensure_ascii=False, indent=2)

    def to_text(self) -> str:
        lines = [
            f"samples: {self.sample_count}   mode: {self.mode}   error rate: {self.error_rate:.4f}",
            f"{'metric':<18}{'precision':>10}{'recall':>10}{'f1':>10}",
        ]
        for key in _PRF_KEYS:
            if (value := getattr(self, key)) is not None:
                name = key.replace("_", " ")
                lines.append(f"{name:<18}{value.precision:>10.4f}{value.recall:>10.4f}{value.f1:>10.4f}")
        return "\n".join(lines)

    def to_csv(self) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(
            ["id", "header_p", "header_r", "header_f1", "cell_p", "cell_r", "cell_f1", "errored"]
        )
        for s in self.per_sample:
            scores = (f"{value:.6f}" for value in (*astuple(s.header), *astuple(s.cell)))
            writer.writerow([s.sample_id, *scores, int(s.errored)])
        return buffer.getvalue()


def evaluate_corpus(
    pairs: Sequence[tuple[Table | None, Table]],
    mode: str = PREDICTED_HEADERS,
    *,
    ids: Sequence[str] | None = None,
    embedder: EmbeddingBackend | None = None,
) -> EvalReport:
    """Macro-average sample metrics; a None prediction is an errored sample scoring zero.

    `mode` records how the predictions were produced (stage one output
    versus gold-header seeding) so ablation reports stay labeled. Each
    distinct header and value text in the call is normalized once, through
    one memo shared by every sample of the call; nothing is kept across
    calls. With an `embedder`, semantic scoring follows every sample's
    exact scoring and embeds each distinct token the call scores once: one
    `mode="token"` request per call, split into requests of at most 2048
    tokens.
    """
    if not pairs:
        raise ValueError("evaluate_corpus requires at least one (pred, gold) pair")
    if mode not in (PREDICTED_HEADERS, GOLD_HEADERS):
        raise ValueError(f"unknown mode {mode!r}")
    if ids is None:
        ids = [str(i) for i in range(len(pairs))]
    if len(ids) != len(pairs):
        raise ValueError(f"got {len(ids)} ids for {len(pairs)} sample pairs")

    samples = _evaluate_samples(pairs, ids, embedder)
    return EvalReport(
        mode=mode,
        sample_count=len(samples),
        error_rate=sum(s.errored for s in samples) / len(samples),
        per_sample=tuple(samples),
        **{key: _mean_prf([getattr(s, key) for s in samples]) for key in _PRF_KEYS},
    )
