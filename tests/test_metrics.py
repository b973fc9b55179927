from __future__ import annotations

import json
import math
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tabgen.metrics
from tabgen.backends import (
    BackendError,
    EmbeddingBackend,
    EmbeddingResponse,
    MalformedResponse,
    MockEmbedder,
    Unreachable,
)
from tabgen.corpus import fixture_path, load_jsonl
from tabgen.kinds import DatasetKind
from tabgen.metrics import (
    GOLD_HEADERS,
    PREDICTED_HEADERS,
    PRF,
    EvalReport,
    evaluate_corpus,
    evaluate_sample,
    exact_f1,
    semantic_score,
    _TokenTable,
)
from tabgen.table import Orientation, StructuralError, Table, normalize_text, to_tuples

ITEMS = st.sets(st.text(alphabet="abcdef", min_size=1, max_size=4), max_size=12)


def brute_force_prf(pred: list, gold: list) -> PRF:
    """Independent oracle: element-by-element membership counting, no set algebra."""
    overlap = 0
    for item in pred:
        found = False
        for other in gold:
            if item == other:
                found = True
        if found:
            overlap += 1
    precision = overlap / len(pred) if pred else 0.0
    recall = overlap / len(gold) if gold else 0.0
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return PRF(precision, recall, f1)


class TestExactF1:
    def test_identical_sets(self):
        assert exact_f1({"a", "b"}, {"a", "b"}) == PRF(1.0, 1.0, 1.0)

    def test_half_overlap(self):
        # pred {a,b} vs gold {b,c}: one shared element on each side of size 2.
        assert exact_f1({"a", "b"}, {"b", "c"}) == PRF(0.5, 0.5, 0.5)

    def test_empty_pred(self):
        assert exact_f1(set(), {"a"}) == PRF(0.0, 0.0, 0.0)

    def test_empty_gold(self):
        assert exact_f1({"a"}, set()) == PRF(0.0, 0.0, 0.0)

    def test_both_empty(self):
        assert exact_f1(set(), set()) == PRF(0.0, 0.0, 0.0)

    @given(ITEMS, ITEMS)
    def test_matches_brute_force_oracle(self, pred, gold):
        assert exact_f1(pred, gold) == brute_force_prf(sorted(pred), sorted(gold))

    @given(ITEMS, ITEMS)
    def test_swap_exchanges_precision_and_recall(self, pred, gold):
        forward = exact_f1(pred, gold)
        backward = exact_f1(gold, pred)
        assert forward.precision == backward.recall
        assert forward.recall == backward.precision
        assert forward.f1 == pytest.approx(backward.f1, abs=1e-12)


class TestSemanticScore:
    def test_identical_sequences_score_one(self):
        embedder = MockEmbedder()
        tokens = ["low", "rated", "coffee", "shop"]
        score = semantic_score(tokens, list(tokens), embedder)
        assert score.f1 == pytest.approx(1.0, abs=1e-6)

    def test_swap_exchanges_precision_and_recall(self):
        embedder = MockEmbedder()
        candidate = ["the", "eagle", "riverside"]
        reference = ["an", "eagle", "near", "the", "river"]
        forward = semantic_score(candidate, reference, embedder)
        backward = semantic_score(reference, candidate, embedder)
        assert forward.precision == pytest.approx(backward.recall, abs=1e-9)
        assert forward.recall == pytest.approx(backward.precision, abs=1e-9)
        assert forward.f1 == pytest.approx(backward.f1, abs=1e-9)

    def test_single_token_pair_scores_their_cosine(self):
        embedder = MockEmbedder()
        vectors = embedder.embed(["points", "rebounds"]).vectors
        expected = float(np.dot(vectors[0], vectors[1]))
        score = semantic_score(["points"], ["rebounds"], embedder)
        assert score.precision == pytest.approx(expected, abs=1e-9)
        assert score.recall == pytest.approx(expected, abs=1e-9)
        assert score.f1 == pytest.approx(expected, abs=1e-9)

    def test_empty_side_scores_zero(self):
        embedder = MockEmbedder()
        assert semantic_score([], ["a"], embedder) == PRF(0.0, 0.0, 0.0)
        assert semantic_score(["a"], [], embedder) == PRF(0.0, 0.0, 0.0)

    def test_token_multiset_equality_under_any_order(self):
        embedder = MockEmbedder()
        tokens = ["a", "b", "c"]
        score = semantic_score(["c", "a", "b"], tokens, embedder)
        assert score.f1 == pytest.approx(1.0, abs=1e-6)


class TestEvaluateSample:
    def test_identical_tables_score_one(self, wikibio_sample):
        result = evaluate_sample(wikibio_sample.gold, wikibio_sample.gold)
        assert result.header == PRF(1.0, 1.0, 1.0)
        assert result.cell == PRF(1.0, 1.0, 1.0)
        assert result.row_header is None

    def test_three_of_four_headers(self):
        pred = Table.attribute_value(
            [("title", "t"), ("subtitle", "s"), ("name", "n"), ("position", "p")]
        )
        gold = Table.attribute_value(
            [("title", "t"), ("subtitle", "s"), ("name", "n"), ("office", "p")]
        )
        result = evaluate_sample(pred, gold)
        assert result.header.f1 == pytest.approx(0.75)

    def test_one_wrong_cell_of_three(self, wikibio_sample):
        rows = list(wikibio_sample.gold.rows)
        rows[0] = (rows[0][0], "Texas Rangers")
        result = evaluate_sample(Table.attribute_value(rows), wikibio_sample.gold)
        assert result.cell.f1 == pytest.approx(2 / 3)
        assert result.header.f1 == pytest.approx(1.0)

    def test_matrix_reports_both_axes_and_their_mean(self, rotowire_team_sample):
        gold = rotowire_team_sample.gold
        pred = Table.matrix(("Magic", "Raptors"), gold.col_headers, gold.cells)
        result = evaluate_sample(pred, gold)
        assert result.row_header.f1 == pytest.approx(0.5)
        assert result.col_header.f1 == pytest.approx(1.0)
        assert result.header.f1 == pytest.approx(0.75)

    def test_correct_value_under_wrong_header_scores_zero(self):
        pred = Table.attribute_value([("food", "Japanese")])
        gold = Table.attribute_value([("cuisine", "Japanese")])
        assert evaluate_sample(pred, gold).cell.f1 == 0.0

    def test_semantic_scores_present_when_embedder_given(self, wikibio_sample):
        result = evaluate_sample(
            wikibio_sample.gold, wikibio_sample.gold, embedder=MockEmbedder()
        )
        assert result.semantic_header.f1 == pytest.approx(1.0, abs=1e-6)
        assert result.semantic_cell.f1 == pytest.approx(1.0, abs=1e-6)


class TestEvaluateCorpus:
    def test_macro_average(self, wikibio_sample):
        gold = wikibio_sample.gold
        half_rows = list(gold.rows)
        half_rows[0] = (half_rows[0][0], "wrong")
        half_rows[1] = ("wrong header", half_rows[1][1])
        # First pair scores 1.0 everywhere; the second is crafted lower.
        report = evaluate_corpus([(gold, gold), (Table.attribute_value(half_rows), gold)])
        expected_cell = (1.0 + evaluate_sample(Table.attribute_value(half_rows), gold).cell.f1) / 2
        assert report.cell.f1 == pytest.approx(expected_cell)
        assert report.sample_count == 2
        assert report.error_rate == 0.0

    def test_two_f1_values_average(self):
        # Two single-cell samples: exact match and miss give F1 1.0 and 0.0.
        gold = Table.attribute_value([("a", "1"), ("b", "2")])
        pred = Table.attribute_value([("a", "1"), ("b", "3")])
        report = evaluate_corpus([(gold, gold), (pred, gold)])
        assert report.cell.f1 == pytest.approx((1.0 + 0.5) / 2)

    def test_single_sample_report_equals_sample(self, rotowire_team_sample):
        gold = rotowire_team_sample.gold
        report = evaluate_corpus([(gold, gold)], ids=["only"])
        sample = evaluate_sample(gold, gold, sample_id="only")
        assert report.per_sample == (sample,)
        assert report.header == sample.header

    def test_errored_sample_scores_zero_and_counts(self, rotowire_team_sample):
        gold = rotowire_team_sample.gold
        report = evaluate_corpus([(gold, gold), (None, gold)])
        assert report.error_rate == pytest.approx(0.5)
        assert report.cell.f1 == pytest.approx(0.5)
        assert report.per_sample[1].errored
        assert report.per_sample[1].row_header == PRF(0.0, 0.0, 0.0)

    def test_id_count_mismatch_rejected(self, wikibio_sample):
        gold = wikibio_sample.gold
        with pytest.raises(ValueError):
            evaluate_corpus([(gold, gold)], ids=["a", "b"])

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            evaluate_corpus([])

    def test_unknown_mode_rejected(self, wikibio_sample):
        gold = wikibio_sample.gold
        with pytest.raises(ValueError):
            evaluate_corpus([(gold, gold)], mode="surprise")

    def test_gold_header_mode_recorded(self, wikibio_sample):
        gold = wikibio_sample.gold
        report = evaluate_corpus([(gold, gold)], mode=GOLD_HEADERS)
        assert report.mode == GOLD_HEADERS
        assert report.to_json()["mode"] == GOLD_HEADERS

    def test_report_serializations(self, rotowire_team_sample):
        gold = rotowire_team_sample.gold
        report = evaluate_corpus([(gold, gold)], ids=["s1"], embedder=MockEmbedder())
        text = report.to_text()
        assert "row header" in text and "error rate" in text
        csv_text = report.to_csv()
        assert csv_text.splitlines()[0] == (
            "id,header_p,header_r,header_f1,cell_p,cell_r,cell_f1,errored"
        )
        assert csv_text.splitlines()[1].startswith("s1,1.000000")
        payload = report.to_json()
        assert payload["sample_count"] == 1
        assert payload["samples"][0]["id"] == "s1"

    def test_semantic_scoring_takes_a_lone_surrogate(self):
        # `json.loads` makes a lone surrogate from a "\ud800" escape; the
        # embedder must hash it rather than fail to encode it.
        gold = Table.attribute_value([("Name", "cafe"), ("Food", "Thai")])
        pred = Table.attribute_value([("Name", "caf\ud800"), ("Food", "Thai")])
        report = evaluate_corpus([(pred, gold)], embedder=MockEmbedder())
        assert report.cell.f1 == pytest.approx(0.5)
        assert 0.0 < report.semantic_cell.f1 < 1.0

    def test_mode_constants(self):
        assert PREDICTED_HEADERS == "predicted-headers"
        assert GOLD_HEADERS == "gold-headers"


def reference_semantic_score(candidate: list[str], reference: list[str], embedder) -> PRF:
    """The original scorer, kept as the specification: both sides embedded in full.

    Every token of each side is embedded in its own request, the full
    similarity matrix is taken, and each row and column maximum counts once
    per token.
    """
    if not candidate or not reference:
        return PRF.zeros()
    cand = np.array(embedder.embed(list(candidate), mode="token").vectors, dtype=float)
    ref = np.array(embedder.embed(list(reference), mode="token").vectors, dtype=float)
    cand = cand / np.linalg.norm(cand, axis=1, keepdims=True)
    ref = ref / np.linalg.norm(ref, axis=1, keepdims=True)
    similarity = cand @ ref.T
    precision = min(1.0, max(0.0, float(similarity.max(axis=1).mean())))
    recall = min(1.0, max(0.0, float(similarity.max(axis=0).mean())))
    return PRF.from_rates(precision, recall)


def reference_header_tokens(table: Table) -> list[str]:
    if table.orientation is Orientation.ATTRIBUTE_VALUE:
        headers = {normalize_text(h) for h, _ in table.rows}
    else:
        headers = {normalize_text(h) for h in table.row_headers + table.col_headers}
    return " ".join(sorted(headers)).split()


def reference_cell_tokens(table: Table) -> list[str]:
    parts = []
    for cell in sorted(to_tuples(table)):
        parts.extend(p for p in cell if p)
    return " ".join(parts).split()


def assert_prf_close(actual: PRF, expected: PRF, tolerance: float = 1e-12) -> None:
    assert abs(actual.precision - expected.precision) <= tolerance
    assert abs(actual.recall - expected.recall) <= tolerance
    assert abs(actual.f1 - expected.f1) <= tolerance


class CountingEmbedder(EmbeddingBackend):
    """MockEmbedder vectors, with every request recorded as (texts, mode)."""

    def __init__(self):
        self.inner = MockEmbedder()
        self.requests: list[tuple[list[str], str]] = []

    def embed(self, texts: Sequence[str], mode: str = "text"):
        self.requests.append((list(texts), mode))
        return self.inner.embed(texts, mode=mode)

    @property
    def embedded(self) -> list[str]:
        return [token for texts, _ in self.requests for token in texts]


class TestTokensEmbeddedOnce:
    GOLD_A = Table.attribute_value([("name", "Alimentum"), ("food", "Chinese food"), ("area", "city centre")])
    PRED_A = Table.attribute_value([("name", "Alimentum"), ("food", "Chinese"), ("area", "riverside")])
    GOLD_B = Table.attribute_value([("name", "Aromi"), ("food", "Chinese food")])
    EMPTY_B = Table.attribute_value([("name", None), ("food", None)])
    PAIRS = [
        (PRED_A, GOLD_A),
        (GOLD_A, GOLD_A),  # brings no new token
        (None, GOLD_B),  # errored
        (EMPTY_B, GOLD_B),  # empty cell side: its gold cell tokens are not scored
        (GOLD_B, GOLD_B),
    ]

    def scored_tokens(self) -> set[str]:
        tokens: set[str] = set()
        for pred, gold in self.PAIRS:
            if pred is None:
                continue
            for extract in (reference_header_tokens, reference_cell_tokens):
                if extract(pred) and extract(gold):
                    tokens.update(extract(pred) + extract(gold))
        return tokens

    def test_each_distinct_token_is_embedded_once_per_call(self):
        embedder = CountingEmbedder()
        evaluate_corpus(self.PAIRS, embedder=embedder)
        assert sorted(embedder.embedded) == sorted(self.scored_tokens())
        assert all(mode == "token" for _, mode in embedder.requests)
        # One request for the whole call, sent after every sample's exact scoring.
        assert len(embedder.requests) == 1

    @pytest.mark.parametrize("cap", [1, 4, 7])
    def test_requests_are_split_at_the_cap(self, cap, monkeypatch):
        uncapped = evaluate_corpus(self.PAIRS, embedder=MockEmbedder())
        monkeypatch.setattr(tabgen.metrics, "_EMBED_CAP", cap)
        embedder = CountingEmbedder()
        report = evaluate_corpus(self.PAIRS, embedder=embedder)
        scored = self.scored_tokens()
        assert len(scored) > cap
        assert len(embedder.requests) == math.ceil(len(scored) / cap)
        assert all(len(texts) <= cap for texts, _ in embedder.requests)
        assert sorted(embedder.embedded) == sorted(scored)
        assert report == uncapped

    def test_a_dimension_change_between_requests_is_rejected(self, monkeypatch):
        class Shrinking(EmbeddingBackend):
            def __init__(self):
                self.dims = iter([32, 16])

            def embed(self, texts, mode="text"):
                return MockEmbedder(dim=next(self.dims)).embed(texts, mode=mode)

        monkeypatch.setattr(tabgen.metrics, "_EMBED_CAP", 1, raising=False)
        pairs = [(self.PRED_A, self.GOLD_A), (self.GOLD_B, self.GOLD_B)]
        with pytest.raises(MalformedResponse, match="16-dimensional vectors after 32-dimensional"):
            evaluate_corpus(pairs, embedder=Shrinking())

    def test_a_second_call_embeds_again(self):
        embedder = CountingEmbedder()
        first = evaluate_corpus(self.PAIRS, embedder=embedder)
        once = list(embedder.requests)
        second = evaluate_corpus(self.PAIRS, embedder=embedder)
        assert embedder.requests == once + once
        assert first == second

    def test_scores_match_the_reference(self):
        embedder = MockEmbedder()
        report = evaluate_corpus(self.PAIRS, embedder=embedder)
        for (pred, gold), sample in zip(self.PAIRS, report.per_sample):
            if pred is None:
                assert sample.errored and sample.semantic_cell == PRF.zeros()
                continue
            assert_prf_close(sample.semantic_header, reference_semantic_score(
                reference_header_tokens(pred), reference_header_tokens(gold), embedder))
            assert_prf_close(sample.semantic_cell, reference_semantic_score(
                reference_cell_tokens(pred), reference_cell_tokens(gold), embedder))

    def test_semantic_score_sends_one_request_of_distinct_tokens(self):
        embedder = CountingEmbedder()
        semantic_score(["a", "b", "a"], ["b", "c", "c"], embedder)
        assert embedder.requests == [(["a", "b", "c"], "token")]
        semantic_score([], ["a"], embedder)
        assert len(embedder.requests) == 1

    def test_embedder_errors_leave_evaluate_corpus(self):
        class Down(EmbeddingBackend):
            def embed(self, texts, mode="text"):
                raise Unreachable("embedding service down")

        with pytest.raises(BackendError):
            evaluate_corpus(self.PAIRS, embedder=Down())

    def test_vector_count_mismatch_is_rejected(self):
        class Short(EmbeddingBackend):
            def embed(self, texts, mode="text"):
                return MockEmbedder().embed(list(texts)[1:] or ["x"], mode=mode)

        with pytest.raises(BackendError):
            evaluate_corpus(self.PAIRS, embedder=Short())

    @pytest.mark.parametrize("component", [0.0, float("nan"), float("inf")])
    def test_vector_without_a_unit_direction_is_rejected(self, component):
        class Broken(EmbeddingBackend):
            def embed(self, texts, mode="text"):
                vectors = MockEmbedder().embed(texts, mode=mode).vectors
                return EmbeddingResponse(
                    vectors=tuple((component,) * 32 if t == "thai" else v for t, v in zip(texts, vectors)),
                    mode=mode,
                )

        gold = Table.attribute_value([("Name", "cafe"), ("Food", "Thai")])
        pred = Table.attribute_value([("Name", "cafe"), ("Food", "thai food")])
        with pytest.raises(MalformedResponse, match="'thai'"):
            evaluate_corpus([(pred, gold)], embedder=Broken())


WORDS = ["a", "b", "c", "pts", "reb", "the", "12", "7"]
TOKENS = st.lists(st.sampled_from(WORDS), max_size=12)
TEXTS = TOKENS.map(" ".join)


@st.composite
def prediction_pairs(draw) -> tuple[Table | None, Table]:
    if draw(st.booleans()):
        gold = Table.attribute_value(draw(st.lists(st.tuples(TEXTS, st.one_of(st.none(), TEXTS)), max_size=5)))
        pred = Table.attribute_value(draw(st.lists(st.tuples(TEXTS, st.one_of(st.none(), TEXTS)), max_size=5)))
    else:
        tables = []
        for _ in range(2):
            rows = draw(st.lists(TEXTS, max_size=3))
            cols = draw(st.lists(TEXTS, max_size=3))
            cells = [[draw(st.one_of(st.none(), TEXTS)) for _ in cols] for _ in rows]
            tables.append(Table.matrix(rows, cols, cells))
        pred, gold = tables
    return (None if draw(st.integers(0, 5)) == 0 else pred), gold


class TestSameScoresAsTheReference:
    @given(TOKENS, TOKENS)
    def test_semantic_score(self, candidate, reference):
        embedder = MockEmbedder(dim=8)
        assert_prf_close(
            semantic_score(candidate, reference, embedder),
            reference_semantic_score(candidate, reference, embedder),
        )

    @settings(max_examples=60, deadline=None)
    @given(st.lists(prediction_pairs(), min_size=1, max_size=6))
    def test_evaluate_corpus_per_sample(self, pairs):
        embedder = MockEmbedder(dim=8)
        report = evaluate_corpus(pairs, embedder=embedder)
        for (pred, gold), sample in zip(pairs, report.per_sample):
            if pred is None:
                assert sample.semantic_header == sample.semantic_cell == PRF.zeros()
                continue
            assert_prf_close(sample.semantic_header, reference_semantic_score(
                reference_header_tokens(pred), reference_header_tokens(gold), embedder))
            assert_prf_close(sample.semantic_cell, reference_semantic_score(
                reference_cell_tokens(pred), reference_cell_tokens(gold), embedder))
            alone = evaluate_sample(pred, gold, embedder=embedder)
            assert_prf_close(alone.semantic_header, sample.semantic_header)
            assert_prf_close(alone.semantic_cell, sample.semantic_cell)


@st.composite
def same_token_lists(draw) -> tuple[list[str], list[str]]:
    """Two token lists over one set of distinct tokens, each in its own order and repeats."""
    distinct = draw(st.lists(st.sampled_from(WORDS), min_size=1, unique=True))

    def side() -> list[str]:
        return draw(st.permutations(distinct + draw(st.lists(st.sampled_from(distinct), max_size=8))))

    return side(), side()


@st.composite
def reworded(draw, text: str) -> str:
    """`text`'s tokens shuffled, one of them repeated: no token it did not have."""
    tokens = text.split()
    return " ".join(draw(st.permutations(tokens + tokens[:1])))


@st.composite
def same_token_tables(draw) -> tuple[Table, Table]:
    """A gold table and a prediction holding its header and cell tokens in other orders and counts.

    The prediction has gold's rows shuffled, plus copies of some rows under
    reworded headers (and, for attribute-value tables, reworded values).
    """
    if draw(st.booleans()):
        gold_rows = draw(st.lists(st.tuples(TEXTS, st.one_of(st.none(), TEXTS)), min_size=1, max_size=5))
        copies = [
            (draw(reworded(h)), None if v is None else draw(reworded(v)))
            for h, v in draw(st.lists(st.sampled_from(gold_rows), max_size=3))
        ]
        gold = Table.attribute_value(gold_rows)
        pred = Table.attribute_value(draw(st.permutations(gold_rows + copies)))
        return pred, gold
    row_headers = draw(st.lists(TEXTS, min_size=1, max_size=3))
    col_headers = draw(st.lists(TEXTS, min_size=1, max_size=3))
    gold_rows = [(h, [draw(st.one_of(st.none(), TEXTS)) for _ in col_headers]) for h in row_headers]
    copies = [(draw(reworded(h)), cells) for h, cells in draw(st.lists(st.sampled_from(gold_rows), max_size=3))]
    gold = Table.matrix(row_headers, col_headers, [cells for _, cells in gold_rows])
    pred_rows = draw(st.permutations(gold_rows + copies))
    pred = Table.matrix([h for h, _ in pred_rows], col_headers, [cells for _, cells in pred_rows])
    return pred, gold


class TestSameTokensScoreOne:
    """Sides with the same distinct tokens score exactly one, with no similarity matrix."""

    @staticmethod
    def scored_without_a_matrix(score, *args, **kwargs):
        calls = []
        real = _TokenTable.score
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_TokenTable, "score", lambda self, *sides: calls.append(sides) or real(self, *sides))
            result = score(*args, **kwargs)
        assert calls == []
        return result

    @given(same_token_lists())
    def test_token_lists(self, sides):
        embedder = MockEmbedder(dim=8)
        score = self.scored_without_a_matrix(semantic_score, *sides, embedder)
        assert score == PRF(1.0, 1.0, 1.0)
        assert_prf_close(score, reference_semantic_score(*sides, embedder))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(same_token_tables(), min_size=1, max_size=4))
    def test_tables(self, pairs):
        embedder = MockEmbedder(dim=8)
        report = self.scored_without_a_matrix(evaluate_corpus, pairs, embedder=embedder)
        for (pred, gold), sample in zip(pairs, report.per_sample):
            for extract, score in (
                (reference_header_tokens, sample.semantic_header),
                (reference_cell_tokens, sample.semantic_cell),
            ):
                candidate, reference = extract(pred), extract(gold)
                assert set(candidate) == set(reference)
                assert score == (PRF(1.0, 1.0, 1.0) if reference else PRF.zeros())
                assert_prf_close(score, reference_semantic_score(candidate, reference, embedder))


def perturbed(gold: Table, i: int) -> Table | None:
    """A fixed prediction for the i-th mini rotowire-team table."""
    rows, cols = list(gold.row_headers), list(gold.col_headers)
    cells = [list(row) for row in gold.cells]
    if i % 5 == 0:
        return gold
    if i % 5 == 1:  # one value changed, one present cell dropped
        cells[0][0] = str(int(cells[0][0]) + 1)
        cells[1][2] = None
    elif i % 5 == 2:
        return None
    elif i % 5 == 3:  # reworded headers: a new token, a repeated one
        cols[2] = "Points scored total"
        rows[0] = "The " + rows[0] + " " + rows[0]
    else:  # every cell absent: the cell side is empty
        cells = [[None] * len(cols) for _ in rows]
    return Table.matrix(rows, cols, cells)


# (semantic header, semantic cell) precision, recall, F1 per sample, as a
# plain-NumPy full-matrix greedy scorer computes them from
# `reference_mock_vector` (each token hashed on its own, each side embedded
# in full), not from the scorer under test.
PINNED_MINI_SCORES = {
    "rw-team-mini-01": ((1.0, 1.0, 1.0), (1.0, 1.0, 1.0)),
    "rw-team-mini-02": ((1.0, 1.0, 1.0), (0.9927847104925067, 0.9932242836472636, 0.9930044484234392)),
    "rw-team-mini-03": ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
    "rw-team-mini-04": (
        (0.9755382696041734, 1.0, 0.9876176884182923),
        (0.9760504048891957, 1.0, 0.9878800687211482),
    ),
    "rw-team-mini-05": ((1.0, 1.0, 1.0), (0.0, 0.0, 0.0)),
    "rw-team-mini-06": ((1.0, 1.0, 1.0), (1.0, 1.0, 1.0)),
    "rw-team-mini-07": ((1.0, 1.0, 1.0), (0.9912423739177288, 0.9957067385906817, 0.9934695408887367)),
    "rw-team-mini-08": ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
    "rw-team-mini-09": (
        (0.9670303360477122, 1.0, 0.9832388635050069),
        (0.9765709608955206, 1.0, 0.9881466238409855),
    ),
    "rw-team-mini-10": ((1.0, 1.0, 1.0), (0.0, 0.0, 0.0)),
}
PINNED_MINI_MEANS = (
    (0.7942568605651885, 0.8, 0.79708565519233),
    (0.5936648450194951, 0.5988931022237945, 0.596250068187431),
)


def test_mini_corpus_semantic_report_is_pinned():
    samples = load_jsonl(fixture_path("rotowire-team_mini.jsonl"), DatasetKind.ROTOWIRE_TEAM)
    pairs = [(perturbed(s.gold, i), s.gold) for i, s in enumerate(samples)]
    report = evaluate_corpus(pairs, ids=[s.id for s in samples], embedder=MockEmbedder())
    assert [s.sample_id for s in report.per_sample] == list(PINNED_MINI_SCORES)
    for sample in report.per_sample:
        header, cell = PINNED_MINI_SCORES[sample.sample_id]
        assert_prf_close(sample.semantic_header, PRF(*header))
        assert_prf_close(sample.semantic_cell, PRF(*cell))
    assert_prf_close(report.semantic_header, PRF(*PINNED_MINI_MEANS[0]))
    assert_prf_close(report.semantic_cell, PRF(*PINNED_MINI_MEANS[1]))
    payload = report.to_json()
    for key, means in zip(("semantic_header", "semantic_cell"), PINNED_MINI_MEANS):
        assert payload[key] == dict(zip(("precision", "recall", "f1"), (round(m, 6) for m in means)))


REPORT_KEYS = ("header", "row_header", "col_header", "cell", "semantic_header", "semantic_cell")


def reference_report_json(report: EvalReport) -> dict:
    """The report's JSON as first written field by field, kept as the specification."""

    def prf(value: PRF | None) -> dict | None:
        if value is None:
            return None
        return {
            "precision": round(value.precision, 6),
            "recall": round(value.recall, 6),
            "f1": round(value.f1, 6),
        }

    return {
        "mode": report.mode,
        "sample_count": report.sample_count,
        "error_rate": round(report.error_rate, 6),
        **{key: prf(getattr(report, key)) for key in REPORT_KEYS},
        "samples": [
            {"id": s.sample_id, "errored": s.errored, **{key: prf(getattr(s, key)) for key in REPORT_KEYS}}
            for s in report.per_sample
        ],
    }


def json_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, ensure_ascii=False, indent=2)


# A matrix prediction with a changed value, a renamed column and an added
# cell; an errored matrix sample; an attribute-value prediction missing
# one attribute and rewording another value.
REPORT_GOLD = Table.matrix(["Magic", "Hawks"], ["Wins", "Losses"], [["7", "3"], ["5", None]])
REPORT_PAIRS = [
    (Table.matrix(["Magic", "Hawks"], ["Wins", "Points"], [["7", "4"], ["5", "90"]]), REPORT_GOLD),
    (None, REPORT_GOLD),
    (
        Table.attribute_value([("Name", "Aromi"), ("Food", "Thai food")]),
        Table.attribute_value([("Name", "Aromi"), ("Food", "Thai"), ("Area", None)]),
    ),
]
REPORT_IDS = ["magic", "errored", "aromi"]
EXACT_TEXT = """\
samples: 3   mode: {mode}   error rate: 0.3333
metric             precision    recall        f1
header                0.5833    0.4722    0.5167
row header            0.5000    0.5000    0.5000
col header            0.2500    0.2500    0.2500
cell                  0.3333    0.3889    0.3571"""
SEMANTIC_TEXT = """
semantic header       0.6477    0.6181    0.6321
semantic cell         0.6442    0.6512    0.6476"""
REPORT_CSV = """\
id,header_p,header_r,header_f1,cell_p,cell_r,cell_f1,errored
magic,0.750000,0.750000,0.750000,0.500000,0.666667,0.571429,0
errored,0.000000,0.000000,0.000000,0.000000,0.000000,0.000000,1
aromi,1.000000,0.666667,0.800000,0.500000,0.500000,0.500000,0
"""


def prf_json(precision: float, recall: float, f1: float) -> dict:
    return {"precision": precision, "recall": recall, "f1": f1}


ZEROS_JSON = prf_json(0.0, 0.0, 0.0)
SEMANTIC_REPORT_JSON = {
    "mode": GOLD_HEADERS,
    "sample_count": 3,
    "error_rate": 0.333333,
    "header": prf_json(0.583333, 0.472222, 0.516667),
    "row_header": prf_json(0.5, 0.5, 0.5),
    "col_header": prf_json(0.25, 0.25, 0.25),
    "cell": prf_json(0.333333, 0.388889, 0.357143),
    "semantic_header": prf_json(0.647692, 0.618068, 0.632131),
    "semantic_cell": prf_json(0.644156, 0.651154, 0.647616),
    "samples": [
        {
            "id": "magic",
            "errored": False,
            "header": prf_json(0.75, 0.75, 0.75),
            "row_header": prf_json(1.0, 1.0, 1.0),
            "col_header": prf_json(0.5, 0.5, 0.5),
            "cell": prf_json(0.5, 0.666667, 0.571429),
            "semantic_header": prf_json(0.943077, 0.946744, 0.944907),
            "semantic_cell": prf_json(0.932467, 0.953462, 0.942848),
        },
        {"id": "errored", "errored": True, **dict.fromkeys(REPORT_KEYS, ZEROS_JSON)},
        {
            "id": "aromi",
            "errored": False,
            "header": prf_json(1.0, 0.666667, 0.8),
            "row_header": None,
            "col_header": None,
            "cell": prf_json(0.5, 0.5, 0.5),
            "semantic_header": prf_json(1.0, 0.90746, 0.951485),
            "semantic_cell": prf_json(1.0, 1.0, 1.0),
        },
    ],
}


class TestReportFormats:
    """All three report renderings, byte for byte."""

    @pytest.mark.parametrize("mode", [PREDICTED_HEADERS, GOLD_HEADERS])
    @pytest.mark.parametrize("embedded", [False, True], ids=["exact", "semantic"])
    def test_fixed_report_renders_as_pinned(self, mode, embedded):
        embedder = MockEmbedder() if embedded else None
        report = evaluate_corpus(REPORT_PAIRS, mode, ids=REPORT_IDS, embedder=embedder)
        assert report.to_text() == EXACT_TEXT.format(mode=mode) + (SEMANTIC_TEXT if embedded else "")
        assert report.to_csv() == REPORT_CSV
        assert report.to_json_text() == json_text(reference_report_json(report))
        expected = json.loads(json.dumps(SEMANTIC_REPORT_JSON))
        expected["mode"] = mode
        if not embedded:
            for scores in (expected, *expected["samples"]):
                scores["semantic_header"] = scores["semantic_cell"] = None
        assert report.to_json_text() == json_text(expected)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(prediction_pairs(), min_size=1, max_size=6),
        st.sampled_from([PREDICTED_HEADERS, GOLD_HEADERS]),
        st.booleans(),
    )
    def test_json_matches_the_reference(self, pairs, mode, embedded):
        embedder = MockEmbedder(dim=8) if embedded else None
        report = evaluate_corpus(pairs, mode, embedder=embedder)
        assert report.to_json_text() == json_text(reference_report_json(report))
