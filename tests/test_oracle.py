"""The mock oracle's passage lookup and cell-question answering."""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabgen.backends import GenerationRequest, MalformedResponse, MockOracleBackend
from tabgen.kinds import DatasetKind
from tabgen.pipeline import (
    SkeletonDelta,
    baseline_generate,
    generate_table,
    update_table,
)
from tabgen.prompts import (
    PromptTemplate,
    build_baseline_prompt,
    build_qa_prompt,
    build_structure_prompt,
    default_qa_template,
    estimate_tokens,
    formulate_question,
)
from tabgen.table import Orientation, Table

from .conftest import load_example, load_mini


def reference_answer(table: Table, question: str) -> str:
    """The specification of the oracle's question match.

    Every question the table can be asked is rendered in asking order;
    the first one equal to the asked question gives the answer.
    """
    candidates: list[tuple[str, str | None]] = []
    if table.orientation is Orientation.ATTRIBUTE_VALUE:
        for header, value in table.rows:
            candidates.append((formulate_question(None, header), value))
    else:
        for r, row_header in enumerate(table.row_headers):
            for c, col_header in enumerate(table.col_headers):
                value = table.cells[r][c]
                for hint in (True, False):
                    candidates.append((formulate_question(row_header, col_header, hint), value))
    matches = [v for q, v in candidates if q == question]
    if not matches or matches[0] is None:
        return "unknown"
    return matches[0]


def oracle_answer(table: Table, question: str, passage: str = "passage") -> str:
    prompt = build_qa_prompt(passage, question)
    return MockOracleBackend([("passage", table)]).generate(GenerationRequest(prompt)).text


# Headers that nest the question phrasing: a "?" inside, or the opening itself.
HEADERS = st.one_of(
    st.text(alphabet="ab ?", min_size=1, max_size=4),
    st.sampled_from(["What is the a", "What is the ", "a?", "number of a", "a for b", "b?a"]),
)
ROW_HEADERS = st.one_of(HEADERS, st.just(""))
VALUES = st.one_of(st.none(), st.text(alphabet="xyz", max_size=2))
PIECES = st.sampled_from(["What is the ", "?", "number of ", " for ", "a", "b", " ", "\n", "??"])


@st.composite
def tables(draw) -> Table:
    if draw(st.booleans()):
        return Table.attribute_value(draw(st.lists(st.tuples(HEADERS, VALUES), max_size=5)))
    rows = draw(st.lists(ROW_HEADERS, max_size=3))
    cols = draw(st.lists(HEADERS, min_size=1, max_size=3))
    return Table.matrix(rows, cols, [[draw(VALUES) for _ in cols] for _ in rows])


@st.composite
def tables_and_questions(draw) -> tuple[Table, str, str]:
    table = draw(tables())
    if table.orientation is Orientation.ATTRIBUTE_VALUE:
        asked = [formulate_question(None, header) for header, _ in table.rows]
    else:
        asked = [
            formulate_question(row, col, hint)
            for row in table.row_headers
            for col in table.col_headers
            for hint in (True, False)
        ]
    stray = st.builds(formulate_question, st.one_of(st.none(), ROW_HEADERS), HEADERS, st.booleans())
    questions = st.one_of(stray, st.sampled_from(asked)) if asked else stray
    # Passages that themselves hold question text.
    text = st.lists(st.one_of(PIECES, questions), max_size=6).map("".join)
    return table, draw(questions), "passage " + draw(text)


class TestQuestionMatch:
    @settings(max_examples=400, deadline=None)
    @given(tables_and_questions())
    def test_indexed_answer_equals_reference(self, case):
        table, question, passage = case
        assert oracle_answer(table, question, passage) == reference_answer(table, question)

    def test_longest_question_wins(self):
        table = Table.attribute_value([("Name", "short"), ("Name of the venue", "long")])
        assert oracle_answer(table, "What is the Name of the venue?") == "long"

    def test_first_in_asking_order_wins_a_tie(self):
        # The passage quotes the other question, asked first.
        table = Table.attribute_value([("ab", "first"), ("cd", "second")])
        assert oracle_answer(table, "What is the ab?", "What is the cd?") == "first"
        # Two cells that the same question asks for: the hinted question
        # for "Wins" is the plain one for "number of Wins".
        table = Table.matrix(["Hawks"], ["Wins", "number of Wins"], [["46", "7"]])
        assert oracle_answer(table, "What is the number of Wins for Hawks?") == "46"

    def test_numeric_and_plain_phrasings_both_answer(self):
        table = Table.matrix(["Hawks"], ["Wins"], [["46"]])
        assert oracle_answer(table, "What is the number of Wins for Hawks?") == "46"
        assert oracle_answer(table, "What is the Wins for Hawks?") == "46"

    def test_concurrent_first_questions_all_answer(self):
        # More threads than cores race to build the table's question index.
        sample = load_example(DatasetKind.ROTOWIRE_TEAM)
        gold = sample.gold
        backend = MockOracleBackend([(sample.text, gold)], concurrency=4)
        cells = [
            (formulate_question(row, col, True), gold.cells[r][c])
            for r, row in enumerate(gold.row_headers)
            for c, col in enumerate(gold.col_headers)
        ] * 8
        barrier = threading.Barrier(4, timeout=10)
        answers: dict[int, str] = {}

        def ask(worker: int) -> None:
            barrier.wait()
            for k in range(worker, len(cells), 4):
                prompt = build_qa_prompt(sample.text, cells[k][0])
                answers[k] = backend.generate(GenerationRequest(prompt)).text

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=ask, args=(w,)) for w in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert [answers.get(k) for k in range(len(cells))] == [
            value if value is not None else "unknown" for _, value in cells
        ]


# An opening of 150+ characters shared by two samples, as templated corpora have.
SHARED_OPENING = (
    "From the 1990 edition of the regional records office catalogue of restaurants, "
    "volume 1, section A, as transcribed for the public archive reading room: "
)


def _venue(name: str, food: str, area: str) -> tuple[str, Table]:
    text = f"{SHARED_OPENING}{name} serves {food} food in the {area} area."
    return text, Table.attribute_value([("Name", name), ("Food", food), ("Area", area)])


class TestPassageLookup:
    @pytest.mark.parametrize("phase", ["generate", "baseline", "update"])
    def test_shared_opening_answers_from_own_table(self, phase):
        samples = [_venue("The Golden Crown", "Italian", "riverside"),
                   _venue("The Blue Spice", "French", "city centre")]
        assert len(SHARED_OPENING) >= 150
        backend = MockOracleBackend(samples)
        for text, gold in samples:
            if phase == "generate":
                produced = generate_table(text, DatasetKind.E2E, backend)
            elif phase == "baseline":
                produced = baseline_generate(text, DatasetKind.E2E, backend)
            else:
                partial = Table.attribute_value(gold.rows[:-1])
                delta = SkeletonDelta(add_col_headers=(gold.rows[-1][0],))
                produced = update_table(partial, delta, text, DatasetKind.E2E, backend)
            assert produced == gold

    def test_truncated_passage_with_irregular_whitespace_is_found(self):
        text = "Alpha  venue\n" + " ".join(f"word{i}" for i in range(1998))
        gold = Table.attribute_value([("Name", "Alpha"), ("Area", "riverside")])
        other = load_example(DatasetKind.E2E)
        backend = MockOracleBackend([(other.text, other.gold), (text, gold)])
        assert generate_table(text, DatasetKind.E2E, backend) == gold

    def test_longest_whole_passage_wins(self):
        short_text, short_gold = _venue("The Mill", "Indian", "riverside")
        long_text = short_text + " It also runs a coffee shop."
        long_gold = Table.attribute_value([("Name", "The Mill annex")])
        backend = MockOracleBackend([(short_text, short_gold), (long_text, long_gold)])
        ask = "What is the Name?"
        assert backend.generate(GenerationRequest(build_qa_prompt(long_text, ask))).text == "The Mill annex"
        assert backend.generate(GenerationRequest(build_qa_prompt(short_text, ask))).text == "The Mill"

    def test_truncated_prompt_goes_to_the_longest_shared_word_prefix(self):
        common = " ".join(f"common{i}" for i in range(40))
        a = (f"{common} alpha " + " ".join(f"a{i}" for i in range(400)), Table.attribute_value([("Name", "A")]))
        b = (f"{common} beta " + " ".join(f"b{i}" for i in range(400)), Table.attribute_value([("Name", "B")]))
        backend = MockOracleBackend([a, b])
        for text, gold in (a, b):
            prompt = build_qa_prompt(text, "What is the Name?", max_input_tokens=200)
            assert text not in prompt
            assert backend.generate(GenerationRequest(prompt)).text == gold.rows[0][1]

    def test_truncation_inside_the_shared_part_is_ambiguous(self):
        common = " ".join(f"common{i}" for i in range(400))
        backend = MockOracleBackend([
            (f"{common} alpha", Table.attribute_value([("Name", "A")])),
            (f"{common} beta", Table.attribute_value([("Name", "B")])),
        ])
        prompt = build_qa_prompt(f"{common} alpha", "What is the Name?", max_input_tokens=200)
        with pytest.raises(MalformedResponse):
            backend.generate(GenerationRequest(prompt))

    def test_passage_cut_inside_its_opening_is_found(self):
        question = "What is the Name?"
        budget = default_qa_template().overhead_tokens + estimate_tokens(question) + 3
        samples = [
            ("Zephyr Hall is a pub near the river with a long garden and live music on Fridays.",
             Table.attribute_value([("Name", "Zephyr Hall")])),
            ("Mistral Court is a hotel restaurant in the city centre serving French food daily.",
             Table.attribute_value([("Name", "Mistral Court")])),
        ]
        backend = MockOracleBackend(samples)
        for text, gold in samples:
            prompt = build_qa_prompt(text, question, max_input_tokens=budget)
            assert text[:120] not in prompt
            assert backend.generate(GenerationRequest(prompt)).text == gold.rows[0][1]

    def test_prompt_without_a_registered_passage_is_rejected(self):
        a, b = load_example(DatasetKind.E2E), load_example(DatasetKind.WIKIBIO)
        backend = MockOracleBackend([(a.text, a.gold), (b.text, b.gold)])
        with pytest.raises(MalformedResponse):
            backend.generate(GenerationRequest(build_qa_prompt("zzz qqq", "What is the Name?")))

    def test_single_sample_answers_any_prompt(self, wikibio_sample):
        backend = MockOracleBackend([(wikibio_sample.text, wikibio_sample.gold)])
        prompt = build_qa_prompt("An unrelated passage.", "What is the Name?")
        assert backend.generate(GenerationRequest(prompt)).text == "Lenny Randle"


# Passages that quote what the oracle reads from the template: the format
# tokens that pick the kind of answer, and other cells' questions.
QUOTING_PASSAGES = {
    "sep": "Aromi is an Italian place by the riverside. Its board reads Specials <SEP> Drinks.",
    "newline": "Aromi is an Italian place by the riverside. Its menu ends in <NEWLINE> twice.",
    "question": "Aromi is an Italian place by the riverside. Guests ask: What is the Name?",
}


class TestPassageQuotingPromptText:
    @pytest.mark.parametrize("phase", ["generate", "baseline", "update"])
    @pytest.mark.parametrize("quote", sorted(QUOTING_PASSAGES))
    def test_quoting_passage_answers_from_its_own_table(self, phase, quote):
        text = QUOTING_PASSAGES[quote]
        gold = Table.attribute_value(
            [("Name", "Aromi"), ("Food", "Italian"), ("Area", "riverside")]
        )
        other = load_example(DatasetKind.E2E)
        backend = MockOracleBackend([(other.text, other.gold), (text, gold)])
        if phase == "generate":
            produced = generate_table(text, DatasetKind.E2E, backend)
        elif phase == "baseline":
            produced = baseline_generate(text, DatasetKind.E2E, backend)
        else:
            partial = Table.attribute_value(gold.rows[:1])
            delta = SkeletonDelta(add_col_headers=("Food", "Area"))
            produced = update_table(partial, delta, text, DatasetKind.E2E, backend)
        assert produced == gold

    def test_passage_holding_another_cells_question_answers_the_asked_one(self):
        # "What is the Name?" is as long as "What is the Area?" and asked
        # first, so a match inside the passage would win the tie.
        text = QUOTING_PASSAGES["question"]
        gold = Table.attribute_value([("Name", "Aromi"), ("Area", "riverside")])
        backend = MockOracleBackend([(text, gold)])
        prompt = build_qa_prompt(text, "What is the Area?")
        assert backend.generate(GenerationRequest(prompt)).text == "riverside"

    def test_truncated_passage_quoting_sep_answers_the_question(self):
        text = "Specials <SEP> Drinks " + " ".join(f"word{i}" for i in range(400))
        gold = Table.attribute_value([("Name", "Aromi")])
        other = load_example(DatasetKind.E2E)
        backend = MockOracleBackend([(other.text, other.gold), (text, gold)])
        prompt = build_qa_prompt(text, "What is the Name?", max_input_tokens=200)
        assert text not in prompt
        assert backend.generate(GenerationRequest(prompt)).text == "Aromi"

    def test_passage_with_other_whitespace_than_registered_is_cut_out(self):
        registered = "Aromi   serves\nItalian food. Specials <SEP> Drinks."
        gold = Table.attribute_value([("Name", "Aromi")])
        other = load_example(DatasetKind.E2E)
        backend = MockOracleBackend([(other.text, other.gold), (registered, gold)])
        shown = "Aromi serves  Italian\tfood. Specials <SEP> Drinks."
        prompt = build_qa_prompt(shown, "What is the Name?")
        assert backend.generate(GenerationRequest(prompt)).text == "Aromi"


# The oracle keeps nothing between prompts but each table's question dict,
# built on first use, so a fresh oracle per prompt is the reference a shared
# one must match over prompts of tables that repeat and extend each other.
PASSAGE_WORDS = st.sampled_from(
    ["alpha", "beta", "gamma", "delta", "What", "is", "the", "Name?", "<SEP>", "x.", "Q:"]
)
# Whitespace runs, including characters `str.split` treats as whitespace
# that a plain space test would miss.
GAPS = st.sampled_from([" ", "  ", "\n", "\t", " \n ", "\u3000", "\x1c", "\x85", "\xa0", "\u2028"])
EDGES = st.one_of(st.just(""), GAPS)
HEADER_NAMES = st.sampled_from(["Name", "Food", "Area", "Name of the venue", "x."])
SHARED_PREFIX_TEMPLATES = [
    None,  # the packaged template: passage, then question
    PromptTemplate("question-first", "Q: {{question}}\nP: {{passage}}\nA:"),
    PromptTemplate("glued", "P:{{passage}}{{question}}A:"),
    PromptTemplate("odd-space", "P: {{passage}}\u2028Q: {{question}}"),
]
CUSTOM_TEMPLATES = [template for template in SHARED_PREFIX_TEMPLATES if template is not None]


@st.composite
def words_joined(draw, words) -> str:
    gaps = [draw(GAPS) for _ in words[1:]]
    body = words[0] + "".join(gap + word for gap, word in zip(gaps, words[1:]))
    return draw(EDGES) + body + draw(EDGES)


@st.composite
def registered_samples(draw) -> list[tuple[str, Table]]:
    """Passages cut from one text, often just before a gap, then extended.

    So they repeat, extend or diverge from one another, at a gap or
    inside a word.
    """
    base = draw(words_joined(draw(st.lists(PASSAGE_WORDS, min_size=1, max_size=40))))
    gaps = [j for j, char in enumerate(base) if char.isspace()]
    cuts = st.one_of(st.integers(0, len(base)), st.sampled_from(gaps)) if gaps else st.just(len(base))
    samples = []
    for _ in range(draw(st.integers(1, 4))):
        text = base[: draw(cuts)]
        if draw(st.booleans()):
            text += draw(words_joined(draw(st.lists(PASSAGE_WORDS, min_size=1, max_size=8))))
        headers = draw(st.lists(HEADER_NAMES, min_size=1, max_size=3, unique=True))
        values = [draw(st.sampled_from(["a1", "b2", None])) for _ in headers]
        samples.append((text if text.strip() else base, Table.attribute_value(list(zip(headers, values)))))
    return samples


@st.composite
def prompt_sequences(draw) -> tuple[list[tuple[str, Table]], list[str]]:
    """Stage-one, stage-two (generate or update) and baseline prompts, tables interleaved."""
    samples = draw(registered_samples())
    template = draw(st.sampled_from(SHARED_PREFIX_TEMPLATES))
    budget = draw(st.sampled_from([None, 2048, 45, 50, 60]))
    prompts = []
    for _ in range(draw(st.integers(1, 12))):
        passage, table = samples[draw(st.integers(0, len(samples) - 1))]
        if draw(st.integers(0, 3)) == 0:  # update evidence: the same words, other whitespace
            passage = draw(words_joined(passage.split()))
        phase = draw(st.sampled_from(["structure", "baseline", "cells", "cells"]))
        if phase == "structure":
            prompts.append(build_structure_prompt(passage, DatasetKind.E2E, max_input_tokens=budget))
        elif phase == "baseline":
            prompts.append(
                build_baseline_prompt(passage, Orientation.ATTRIBUTE_VALUE, max_input_tokens=budget)
            )
        else:
            headers = [header for header, _ in table.rows]
            quoted = [other for other, _ in samples if other.strip()]
            for _ in range(draw(st.integers(1, 4))):
                header = draw(st.sampled_from(headers + quoted + ["Missing"]))
                question = formulate_question(None, header)
                prompts.append(build_qa_prompt(passage, question, template, budget))
    return samples, prompts


def answer_or_error(backend: MockOracleBackend, prompt: str) -> str:
    try:
        return backend.generate(GenerationRequest(prompt)).text
    except MalformedResponse as err:
        return f"error: {err}"


class TestSharedPrefix:
    @settings(max_examples=300, deadline=None)
    @given(prompt_sequences())
    def test_shared_oracle_answers_like_a_fresh_one(self, case):
        samples, prompts = case
        shared = MockOracleBackend(samples, templates=CUSTOM_TEMPLATES)
        for prompt in prompts:
            fresh = MockOracleBackend(samples, templates=CUSTOM_TEMPLATES)
            assert answer_or_error(shared, prompt) == answer_or_error(fresh, prompt), prompt

    @pytest.mark.parametrize(
        "template, extension",
        [
            (None, " It also runs a coffee shop."),  # at a gap: the prefix is reused
            (None, "house, which also runs a coffee shop."),  # inside the last word
            (PromptTemplate("glued", "P:{{passage}}{{question}}A:"), " It also runs a coffee shop."),
        ],
    )
    def test_prompt_extending_the_remembered_passage_answers_from_its_own_table(
        self, template, extension
    ):
        text, short_gold = _venue("The Mill", "Indian", "riverside")
        short_text = text.removesuffix(" area.")
        long_text = short_text + extension
        long_gold = Table.attribute_value([("Name", "The Mill annex")])
        backend = MockOracleBackend(
            [(short_text, short_gold), (long_text, long_gold)], templates=[template] if template else ()
        )
        for text, name in ((short_text, "The Mill"), (long_text, "The Mill annex")) * 2:
            prompt = build_qa_prompt(text, "What is the Name?", template)
            assert backend.generate(GenerationRequest(prompt)).text == name

    def test_threads_feeding_different_tables_answer_exactly(self):
        samples = load_mini(DatasetKind.ROTOWIRE_TEAM)[:4]
        backend = MockOracleBackend([(s.text, s.gold) for s in samples])
        barrier = threading.Barrier(4, timeout=10)
        wrong: list[tuple[str, str, str]] = []

        def ask(sample) -> None:
            gold = sample.gold
            barrier.wait()
            for _ in range(3):
                for r, row in enumerate(gold.row_headers):
                    for c, col in enumerate(gold.col_headers):
                        prompt = build_qa_prompt(sample.text, formulate_question(row, col, True))
                        expected = gold.cells[r][c] or "unknown"
                        got = backend.generate(GenerationRequest(prompt)).text
                        if got != expected:
                            wrong.append((sample.id, got, expected))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=ask, args=(s,)) for s in samples]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []


class TestSharedAnswers:
    """Each sample's answers are built once and shared; sharing changes no answer."""

    @staticmethod
    def every_prompt(samples, kind: DatasetKind) -> list[str]:
        prompts = []
        for sample in samples:
            gold = sample.gold
            prompts.append(build_structure_prompt(sample.text, kind))
            prompts += [
                build_qa_prompt(sample.text, formulate_question(row, col, kind.numeric))
                for row in gold.row_headers
                for col in gold.col_headers
            ]
            prompts.append(build_baseline_prompt(sample.text, kind.orientation))
        return prompts

    def test_eight_threads_answer_a_fresh_oracle_as_one_thread_does(self):
        kind = DatasetKind.ROTOWIRE_PLAYER
        samples = load_mini(kind)
        pairs = [(s.text, s.gold) for s in samples]
        prompts = self.every_prompt(samples, kind)
        serial = MockOracleBackend(pairs)
        expected = [serial.generate(GenerationRequest(prompt)).text for prompt in prompts]

        for _ in range(5):
            answers = self.ask_from_eight_threads(MockOracleBackend(pairs), prompts)
            assert sorted(answers) == list(range(8))
            for n in range(8):
                assert answers[n] == expected, f"thread {n}"

    @staticmethod
    def ask_from_eight_threads(backend: MockOracleBackend, prompts: list[str]) -> dict[int, list[str]]:
        """Each thread's answers to `prompts`, in order; half start halfway, so first askings race."""
        barrier = threading.Barrier(8, timeout=10)
        answers: dict[int, list[str]] = {}

        def ask(n: int) -> None:
            start = n % 2 * len(prompts) // 2
            order = [*range(start, len(prompts)), *range(start)]
            barrier.wait()
            got = {i: backend.generate(GenerationRequest(prompts[i])).text for i in order}
            answers[n] = [got[i] for i in range(len(prompts))]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=ask, args=(n,)) for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        return answers

    @pytest.mark.parametrize("kind", [DatasetKind.ROTOWIRE_TEAM, DatasetKind.E2E])
    def test_a_repeated_prompt_returns_an_equal_response(self, kind):
        samples = load_mini(kind)
        backend = MockOracleBackend([(s.text, s.gold) for s in samples])
        prompts = self.every_prompt(samples, kind)
        first = [backend.generate(GenerationRequest(prompt)) for prompt in prompts]
        again = [backend.generate(GenerationRequest(prompt)) for prompt in prompts]
        assert again == first


class TestPassageRunningIntoTemplateText:
    """A registered passage that is another one followed by template text."""

    @pytest.mark.parametrize(
        "template, between",
        [
            (None, "\n\nQuestion: "),  # the packaged template's text after the passage
            (PromptTemplate("spaced", "P: {{passage}} Q: {{question}}"), " Q: "),
        ],
    )
    def test_passage_running_into_the_question_answers_like_a_fresh_oracle(self, template, between):
        # B is A followed by the start of A's Food question, so the Food
        # prompt holds B whole; the passage slot still holds A only.
        a_text, a_gold = _venue("The Mill", "Indian", "riverside")
        b_text = a_text + between + "What is the Food"
        b_gold = Table.attribute_value([("Name", "The Mill annex"), ("Food", "Thai")])
        samples = [(a_text, a_gold), (b_text, b_gold)]
        templates = [template] if template else ()
        shared = MockOracleBackend(samples, templates=templates)
        answers = []
        for header in ("Name", "Food", "Area") * 2:
            prompt = build_qa_prompt(a_text, formulate_question(None, header), template)
            answers.append(answer_or_error(shared, prompt))
            fresh = MockOracleBackend(samples, templates=templates)
            assert answers[-1] == answer_or_error(fresh, prompt), prompt
        assert answers == ["The Mill", "Indian", "riverside"] * 2

    def test_passage_shorter_than_the_template_text_after_it_answers_like_a_fresh_oracle(self):
        # B fits in the template text after A, so a prompt of A holds B
        # whole after A's passage; the passage slot still holds A only.
        a_text = "Aromi serves food."
        b_text = "Question: What is the Food? Answer:"
        samples = [
            (a_text, Table.attribute_value([("Name", "Aromi"), ("Food", "Italian")])),
            (b_text, Table.attribute_value([("Food", "Thai")])),
        ]
        shared = MockOracleBackend(samples)
        answers = []
        for header in ("Name", "Food") * 2:
            prompt = build_qa_prompt(a_text, formulate_question(None, header))
            answers.append(answer_or_error(shared, prompt))
            assert answers[-1] == answer_or_error(MockOracleBackend(samples), prompt), prompt
        assert answers == ["Aromi", "Italian"] * 2
