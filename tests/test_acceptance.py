"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the pass lines.
The last two criteria are environment-gated: corpus-scale stats need a
user-supplied RotoWire test split, and the live smoke test needs a hosted
completion endpoint.
"""

from __future__ import annotations

import json
import os
import random
import string
import time

import pytest

from tabgen.backends import (
    BackendConfig,
    GenerationBackend,
    GenerationRequest,
    GenerationResponse,
    HttpBackend,
    MockEmbedder,
    MockOracleBackend,
    RequestStore,
)
from tabgen.corpus import corpus_stats, load_jsonl
from tabgen.kinds import DatasetKind
from tabgen.metrics import PRF, error_rate, exact_f1, semantic_score
from tabgen.pipeline import (
    SkeletonDelta,
    baseline_generate,
    construct_structure,
    generate_content,
    generate_table,
    update_table,
)
from tabgen.prompts import NoHeaders, extract_numeric
from tabgen.table import (
    EmptyInput,
    Orientation,
    StructuralError,
    Table,
    parse_flat,
    serialize_flat,
    table_to_json,
    to_tuples,
)

from .conftest import ALL_KINDS, CountingBackend, DelayedBackend, ScriptedBackend, load_example, load_mini
from .test_metrics import brute_force_prf


def passed(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion} PASS: {message}")


def table_to_json_text(table: Table) -> str:
    """Deterministic single-line JSON rendering of the canonical form."""
    return json.dumps(table_to_json(table), sort_keys=True, ensure_ascii=False)


class FuzzBackend(GenerationBackend):
    """Adversarial random text: separator tokens, pipes, blanks, unicode, duplicates."""

    POOL = [
        "<SEP>", "<SEP>", "<ROWCOL>", "|", "<NEWLINE>", "unknown", "", "  ",
        "points", "points", "name", "Name", '"x"', "losses", "étoile", "42", "five",
        "a b c", "#", "???", "twenty-one",
    ]

    def __init__(self, seed: int):
        super().__init__(concurrency=1)
        self.rng = random.Random(seed)

    def _generate_once(self, request: GenerationRequest) -> GenerationResponse:
        tokens = [self.rng.choice(self.POOL) for _ in range(self.rng.randint(0, 12))]
        return GenerationResponse(text=" ".join(tokens))


def test_criterion_1_validity_guarantee_under_fuzz():
    started = time.monotonic()
    produced = 0
    for trial in range(1000):
        kind = ALL_KINDS[trial % len(ALL_KINDS)]
        passage = f"fuzz passage {trial}"
        try:
            # A backend of the same seed gives stage one the same answer.
            skeleton = construct_structure(passage, kind, FuzzBackend(seed=trial))
        except NoHeaders:
            with pytest.raises(NoHeaders):
                generate_table(passage, kind, FuzzBackend(seed=trial))
            continue  # unusable stage-one answer produces no table at all
        table = generate_table(passage, kind, FuzzBackend(seed=trial))
        produced += 1
        assert (table.orientation, table.row_headers, table.col_headers) == (
            skeleton.orientation, skeleton.row_headers, skeleton.col_headers
        ), f"trial {trial} ({kind.value}) changed the skeleton's headers"
        assert table.shape == skeleton.shape, f"trial {trial} ({kind.value}) changed its shape"
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"fuzz run took {elapsed:.1f}s"
    assert produced > 500, "fuzz backends produced too few tables to be meaningful"
    passed(1, f"{produced}/1000 fuzzed runs produced tables, all of the skeleton's shape, in {elapsed:.1f}s")


def test_criterion_2_baseline_error_rate():
    flat_valid = "Name | The Eagle<NEWLINE>Food | Japanese"
    flat_ragged = "Name | The Eagle | extra<NEWLINE>Food | Japanese"
    script = [flat_valid] * 4 + [flat_ragged, flat_valid, flat_ragged, flat_valid, flat_ragged, flat_valid]
    backend = ScriptedBackend(script, concurrency=1)

    outcomes = []
    for i in range(10):
        try:
            outcomes.append(baseline_generate(f"passage {i}", DatasetKind.E2E, backend))
        except (StructuralError, EmptyInput) as err:
            outcomes.append(err)
    assert error_rate(outcomes) == 0.30

    all_valid = [parse_flat(flat_valid, Orientation.ATTRIBUTE_VALUE)] * 10
    assert error_rate(all_valid) == 0.0
    passed(2, "crafted 10-table corpus with 3 ragged outputs scores 0.30; all-valid scores 0.0")


def test_criterion_3_gold_oracle_fixed_point():
    for kind in ALL_KINDS:
        sample = load_example(kind)
        backend = MockOracleBackend([(sample.text, sample.gold)])

        seeded, _ = generate_content(sample.gold, sample.text, kind, backend)
        prf = exact_f1(to_tuples(seeded), to_tuples(sample.gold))
        assert prf == PRF(1.0, 1.0, 1.0), f"{kind.value}: gold-header cell F1 {prf}"

        predicted = generate_table(sample.text, kind, backend)
        assert predicted == seeded, f"{kind.value}: predicted-header output differs"
    passed(3, "cell F1 = 1.0 on every bundled example, gold-header and predicted-header alike")


def test_criterion_4_metric_matches_brute_force_oracle():
    rng = random.Random(20240917)
    alphabet = [f"item{i}" for i in range(30)]
    for _ in range(500):
        pred = set(rng.sample(alphabet, rng.randint(0, 12)))
        gold = set(rng.sample(alphabet, rng.randint(0, 12)))
        assert exact_f1(pred, gold) == brute_force_prf(sorted(pred), sorted(gold))

    assert exact_f1(set(), {"a"}) == PRF(0.0, 0.0, 0.0)
    assert exact_f1({"a"}, set()) == PRF(0.0, 0.0, 0.0)
    assert exact_f1(set(), set()) == PRF(0.0, 0.0, 0.0)
    passed(4, "exact_f1 equals the brute-force membership oracle on 500 random pairs")


def _random_phrase(rng: random.Random) -> str:
    words = [
        "".join(rng.choice(string.ascii_lowercase + string.digits) for _ in range(rng.randint(1, 7)))
        for _ in range(rng.randint(1, 3))
    ]
    return " ".join(words)


def _random_table(rng: random.Random, orientation: Orientation) -> Table:
    def headers(n: int) -> list[str]:
        seen: set[str] = set()
        result = []
        while len(result) < n:
            phrase = _random_phrase(rng)
            if phrase not in seen:
                seen.add(phrase)
                result.append(phrase)
        return result

    def value() -> str | None:
        return None if rng.random() < 0.25 else _random_phrase(rng)

    if orientation is Orientation.ATTRIBUTE_VALUE:
        return Table.attribute_value([(h, value()) for h in headers(rng.randint(1, 7))])
    rows = headers(rng.randint(1, 6))
    cols = headers(rng.randint(1, 6))
    return Table.matrix(rows, cols, [[value() for _ in cols] for _ in rows])


def test_criterion_5_round_trip_on_random_tables():
    rng = random.Random(5150)
    for trial in range(1000):
        orientation = Orientation.ATTRIBUTE_VALUE if trial % 2 == 0 else Orientation.MATRIX
        table = _random_table(rng, orientation)
        recovered = parse_flat(serialize_flat(table), orientation)
        assert recovered == table, f"trial {trial} round trip mismatch"
    passed(5, "parse_flat ∘ serialize_flat is the identity on 1000 random valid tables")


def test_criterion_6_numeric_extraction_vector():
    vector = [
        ("Ricky Rubio talled just five points", 5),
        ("scored 21 points and 15 rebounds", 21),
        ("had 3 dunks and five blocks", 3),
        ("had five dunks and 3 blocks", 5),
        ("twenty-one points on the night", 21),
        ("twenty one points on the night", 21),
        ("forty-five minutes played", 45),
        ("one hundred and six points combined", 106),
        ("a hundred reasons", 100),
        ("eighteen boards", 18),
        ("zero turnovers", 0),
        ("no score reported", None),
        ("the tenant of nineveh", None),
        ("", None),
        ("W 95 - 88", 95),
    ]
    failures = [(text, expected, extract_numeric(text)) for text, expected in vector]
    failures = [f for f in failures if f[1] != f[2]]
    assert not failures, f"numeric extraction misses: {failures}"
    passed(6, f"all {len(vector)} numeric extraction cases pass")


def test_criterion_7_batch_determinism_under_shuffled_latency(tmp_path):
    sample = load_example(DatasetKind.ROTOWIRE_TEAM)
    oracle = MockOracleBackend([(sample.text, sample.gold)])
    recorder = RequestStore(oracle, directory=tmp_path)
    reference = generate_table(sample.text, DatasetKind.ROTOWIRE_TEAM, recorder)
    reference_bytes = table_to_json_text(reference).encode()

    rng = random.Random(99)
    for trial in range(100):
        latencies = [rng.random() * 0.002 for _ in range(64)]
        rng.shuffle(latencies)
        pool = iter(latencies)

        replay = DelayedBackend(RequestStore(directory=tmp_path), lambda _: next(pool), concurrency=8)
        table = generate_table(sample.text, DatasetKind.ROTOWIRE_TEAM, replay)
        assert table_to_json_text(table).encode() == reference_bytes, f"trial {trial} differs"
    passed(7, "100 replay trials with shuffled completion latencies are byte-identical")


def test_criterion_8_semantic_score_properties():
    embedder = MockEmbedder()
    tokens = ["low", "rated", "coffee", "shop", "riverside"]
    identical = semantic_score(tokens, list(tokens), embedder)
    assert identical.f1 == pytest.approx(1.0, abs=1e-6)

    candidate = ["family", "friendly", "japanese", "food"]
    reference = ["japanese", "restaurant", "for", "families"]
    forward = semantic_score(candidate, reference, embedder)
    backward = semantic_score(reference, candidate, embedder)
    assert forward.precision == pytest.approx(backward.recall, abs=1e-9)
    assert forward.recall == pytest.approx(backward.precision, abs=1e-9)
    assert forward.f1 == pytest.approx(backward.f1, abs=1e-9)
    passed(8, "identical tokens score f1=1.0; swapping arguments exchanges precision and recall")


def test_criterion_9_call_count_contract():
    sample = load_example(DatasetKind.ROTOWIRE_TEAM)  # the gold grid is 2x4
    backend = CountingBackend(MockOracleBackend([(sample.text, sample.gold)]))
    assert sum(map(len, sample.gold.cells)) == 8

    generate_content(sample.gold, sample.text, DatasetKind.ROTOWIRE_TEAM, backend)
    assert backend.calls == 8

    backend.calls = 0
    update_table(
        sample.gold,
        SkeletonDelta(add_row_headers=("Raptors",)),
        sample.text,
        DatasetKind.ROTOWIRE_TEAM,
        backend,
    )
    assert backend.calls == 4

    backend.calls = 0
    update_table(sample.gold, SkeletonDelta(), sample.text, DatasetKind.ROTOWIRE_TEAM, backend)
    assert backend.calls == 0
    passed(9, "2x4 skeleton issues 8 requests; one-row delta issues 4; empty delta issues 0")


def test_criterion_10_fixture_stats_exact():
    for kind in ALL_KINDS:
        assert corpus_stats([load_example(kind)]).count == 1
        mini = corpus_stats(load_mini(kind))
        assert mini.count == 10
        assert dict(mini.by_kind)[kind].count == 10
    passed(10, "bundled fixture counts are exact (1 per example, 10 per mini split)")


@pytest.mark.skipif(
    "ROTOWIRE_TEST_JSONL" not in os.environ,
    reason="set ROTOWIRE_TEST_JSONL to the user-supplied RotoWire test split (not run in CI)",
)
def test_criterion_10b_rotowire_test_split_count():
    samples = load_jsonl(os.environ["ROTOWIRE_TEST_JSONL"], DatasetKind.ROTOWIRE_TEAM)
    assert corpus_stats(samples).count == 728
    passed(10, "user-supplied RotoWire test split has 728 samples")


@pytest.mark.skipif(
    "TABGEN_SMOKE_BASE_URL" not in os.environ,
    reason="set TABGEN_SMOKE_BASE_URL (and optionally TABGEN_SMOKE_MODEL, TABGEN_SMOKE_AUTH_ENV) "
    "to smoke-test a hosted completion endpoint",
)
def test_criterion_11_live_endpoint_smoke():
    config = BackendConfig(
        kind="http",
        base_url=os.environ["TABGEN_SMOKE_BASE_URL"],
        model=os.environ.get("TABGEN_SMOKE_MODEL"),
        auth_env=os.environ.get("TABGEN_SMOKE_AUTH_ENV"),
    )
    backend = HttpBackend(config)
    for kind in ALL_KINDS:
        sample = load_example(kind)
        table = generate_table(sample.text, kind, backend)
        # A `Table` is valid by construction; output quality is not asserted.
        assert table.orientation is kind.orientation
    passed(11, "live endpoint produced a valid table for one fixture per dataset kind")
