from __future__ import annotations

import hashlib
import json
import math
import re

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tabgen import prompts
from tabgen.backends import MockOracleBackend, WrapperBackend
from tabgen.corpus import fixture_path, list_fixtures, load_jsonl, table_of_kind
from tabgen.kinds import DatasetKind
from tabgen.pipeline import SkeletonDelta, baseline_generate, generate_table, update_table
from tabgen.prompts import (
    NoHeaders,
    PromptTemplate,
    build_baseline_prompt,
    build_qa_prompt,
    build_structure_prompt,
    default_qa_template,
    detect_no_answer,
    estimate_tokens,
    extract_numeric,
    formulate_question,
    parse_header_sequence,
    parse_structure_answer,
    structure_answer,
    truncate_passage,
)
from tabgen.table import Orientation, Table, normalize_text

from .conftest import questions_for_headers

HEADER_WORDS = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=8)

# The slots of a template that can be built, in order.
VALID_SLOTS = [("passage",), ("passage", "question"), ("question", "passage")]


@st.composite
def templates(draw, literals) -> PromptTemplate:
    """A template with one passage slot and at most one question slot, in either
    order, around literals drawn from `literals` that form no slot of their own."""
    slots = draw(st.sampled_from(VALID_SLOTS))
    parts = [draw(literals) for _ in range(len(slots) + 1)]
    text = parts[0] + "".join(f"{{{{{slot}}}}}{part}" for slot, part in zip(slots, parts[1:]))
    assume(tuple(prompts._SLOT_RE.findall(text)) == slots)
    return PromptTemplate("drawn", text)


class TestParseHeaderSequence:
    def test_basic_sequence(self):
        assert parse_header_sequence("Rebounds <SEP> Assists <SEP> Points") == [
            "Rebounds",
            "Assists",
            "Points",
        ]

    def test_duplicates_suffixed(self):
        assert parse_header_sequence("Name<SEP>Name") == ["Name", "Name #2"]

    def test_blank_raises(self):
        with pytest.raises(NoHeaders):
            parse_header_sequence("   ")

    def test_empty_pieces_dropped(self):
        assert parse_header_sequence("a <SEP> <SEP> b") == ["a", "b"]

    def test_quote_only_piece_dropped(self):
        assert parse_header_sequence('a <SEP> "" <SEP> b') == ["a", "b"]

    @given(st.lists(HEADER_WORDS, min_size=1, max_size=8, unique=True))
    def test_join_round_trip(self, headers):
        assert parse_header_sequence(" <SEP> ".join(headers)) == headers


class TestParseStructureAnswer:
    def test_matrix_with_divider(self):
        rows, cols = parse_structure_answer(
            "Magic <SEP> Hawks <ROWCOL> Wins <SEP> Losses", Orientation.MATRIX
        )
        assert rows == ("Magic", "Hawks")
        assert cols == ("Wins", "Losses")

    def test_missing_divider_means_columns_only(self):
        rows, cols = parse_structure_answer("Wins <SEP> Losses", Orientation.MATRIX)
        assert rows == ()
        assert cols == ("Wins", "Losses")

    def test_empty_row_side_tolerated(self):
        rows, cols = parse_structure_answer(" <ROWCOL> Wins", Orientation.MATRIX)
        assert rows == ()
        assert cols == ("Wins",)

    def test_empty_col_side_raises(self):
        with pytest.raises(NoHeaders):
            parse_structure_answer("Magic <ROWCOL>  ", Orientation.MATRIX)

    def test_attribute_value_single_axis(self):
        rows, cols = parse_structure_answer("Name <SEP> Food", Orientation.ATTRIBUTE_VALUE)
        assert rows == ()
        assert cols == ("Name", "Food")


class TestStructureAnswer:
    """`structure_answer` writes the header sequence that `parse_structure_answer` reads back."""

    # Headers with inner spaces, quotes, "#" suffixes and token fragments, but
    # no outer whitespace and no whole `<SEP>` or `<ROWCOL>`.
    HEADERS = st.lists(
        st.sampled_from(["a", "B", " ", "\t", '"', "#2", "<", ">", "SEP", "<SEP", "ROWCOL>", "é"]),
        min_size=1, max_size=5,
    ).map("".join).filter(
        lambda h: h == h.strip() and normalize_text(h) and "<SEP>" not in h and "<ROWCOL>" not in h
    )

    @staticmethod
    @st.composite
    def tables(draw) -> tuple[Table, DatasetKind]:
        headers = TestStructureAnswer.HEADERS
        cols = draw(st.lists(headers, min_size=1, max_size=4, unique_by=normalize_text))
        if draw(st.booleans()):
            return Table.attribute_value([(h, "v") for h in cols]), DatasetKind.E2E
        rows = draw(st.lists(headers, max_size=3, unique_by=normalize_text))
        return Table.matrix(rows, cols, [["v"] * len(cols) for _ in rows]), DatasetKind.ROTOWIRE_TEAM

    @example((Table.matrix([], ["Wins"], []), DatasetKind.ROTOWIRE_TEAM))
    @example((Table.attribute_value([("Name", "v")]), DatasetKind.E2E))
    @example((Table.matrix(["Suns", "Magic"], ["Wins", "Losses"], [["1", "2"], ["3", "4"]]),
              DatasetKind.ROTOWIRE_TEAM))
    @given(tables())
    def test_parse_reads_back_the_headers(self, case):
        table, kind = case
        assert table_of_kind(table, kind) is table
        answer = structure_answer(table)
        assert parse_structure_answer(answer, table.orientation) == (table.row_headers, table.col_headers)

    def test_matrix_and_attribute_value_sequences(self):
        matrix = Table.matrix(["Magic", "Hawks"], ["Wins", "Losses"], [["1", "2"], ["3", "4"]])
        assert structure_answer(matrix) == "Magic <SEP> Hawks <ROWCOL> Wins <SEP> Losses"
        assert structure_answer(Table.matrix([], ["Wins"], [])) == " <ROWCOL> Wins"
        assert structure_answer(Table.attribute_value([("Name", "x"), ("Food", None)])) == "Name <SEP> Food"


class TestFormulateQuestion:
    def test_numeric_matrix(self):
        assert formulate_question("Suns", "Wins", numeric_hint=True) == (
            "What is the number of Wins for Suns?"
        )

    def test_plain_matrix(self):
        assert formulate_question("Suns", "Coach") == "What is the Coach for Suns?"

    def test_attribute_value(self):
        assert formulate_question(None, "Birth Date") == "What is the Birth Date?"

    def test_empty_col_rejected(self):
        with pytest.raises(ValueError):
            formulate_question("Suns", "")

    @given(HEADER_WORDS, HEADER_WORDS, st.booleans())
    def test_headers_appear_verbatim(self, row, col, hint):
        question = formulate_question(row, col, hint)
        assert row in question and col in question

    @given(st.one_of(st.none(), st.text(max_size=8)), st.text(min_size=1, max_size=8), st.booleans())
    def test_question_phrasing_is_delimited(self, row, col, hint):
        question = formulate_question(row, col, hint)
        assert question.startswith("What is the ")
        assert question.endswith("?")

    def test_questions_for_headers_row_major(self):
        questions = questions_for_headers(Orientation.MATRIX, ["r1", "r2"], ["c1", "c2"], False)
        assert [(q.row_index, q.col_index) for q in questions] == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_questions_for_attribute_headers(self):
        questions = questions_for_headers(Orientation.ATTRIBUTE_VALUE, [], ["Name", "Food"])
        assert [q.row_index for q in questions] == [None, None]
        assert questions[0].question == "What is the Name?"


class TestPromptBuilders:
    def test_structure_prompt_mentions_sep_and_passage(self):
        prompt = build_structure_prompt("The Eagle is a coffee shop.", DatasetKind.E2E)
        assert "<SEP>" in prompt
        assert "The Eagle is a coffee shop." in prompt

    def test_matrix_structure_prompt_requests_both_axes(self):
        prompt = build_structure_prompt("Some game report.", DatasetKind.ROTOWIRE_TEAM)
        assert "<ROWCOL>" in prompt

    def test_empty_passage_rejected(self):
        with pytest.raises(ValueError):
            build_structure_prompt("", DatasetKind.E2E)

    def test_qa_prompt_contains_both_parts(self):
        prompt = build_qa_prompt("The Suns won 46 games.", "What is the number of Wins for Suns?")
        assert "The Suns won 46 games." in prompt
        assert "What is the number of Wins for Suns?" in prompt
        assert "unknown" in prompt

    def test_qa_prompt_passes_special_characters_verbatim(self):
        question = "What is the {weird | header}?"
        assert question in build_qa_prompt("passage text", question)

    def test_qa_prompt_requires_question(self):
        with pytest.raises(ValueError):
            build_qa_prompt("passage", " ")

    @pytest.mark.parametrize(
        "build, text, need",
        [(lambda t: build_qa_prompt("passage", "What is the Name?", t), "Passage: {{passage}}", "one"),
         (lambda t: build_structure_prompt("passage", DatasetKind.E2E, t), "{{passage}} {{question}} <SEP>:",
          "no"),
         (lambda t: build_baseline_prompt("passage", Orientation.MATRIX, t), "{{question}} {{passage}}",
          "no")],
        ids=["qa-no-question", "structure-question", "baseline-question"],
    )
    def test_template_without_the_slots_it_fills_rejected_by_name(self, build, text, need):
        need = f"one {{{{passage}}}} slot and {need} {{{{question}}}} slot"
        with pytest.raises(ValueError, match=re.escape(f"template 'custom.txt' needs {need}")):
            build(PromptTemplate("custom.txt", text))

    @pytest.mark.parametrize(
        "text",
        ["Question: {{question}}", "Headers <SEP>:", "{{passage}} {{passage}}", "{{question}} {{question}}",
         "{{passage}} {{question}} {{passage}}", "{{question}}{{passage}}{{question}}", ""],
        ids=["no-passage", "no-slot", "two-passages", "two-questions-no-passage", "passage-twice",
             "question-twice", "empty"],
    )
    def test_template_with_other_slots_cannot_be_built(self, text):
        with pytest.raises(ValueError, match=re.escape(
            "template 'custom.txt' needs one {{passage}} slot and at most one {{question}} slot"
        )):
            PromptTemplate("custom.txt", text)

    def test_long_passage_truncated_to_budget(self):
        passage = " ".join(f"word{i}" for i in range(10_000))
        prompt = build_qa_prompt(passage, "What is the Name?", max_input_tokens=200)
        assert "word9999" not in prompt
        assert "word0" in prompt
        assert estimate_tokens(prompt) <= 220

    def test_baseline_prompt_mentions_flat_format(self):
        prompt = build_baseline_prompt("passage text", Orientation.ATTRIBUTE_VALUE)
        assert "<NEWLINE>" in prompt
        assert "<SEP>" not in prompt

    def test_template_override(self):
        template = PromptTemplate(name="custom", text="PASSAGE={{passage}} Q={{question}}")
        assert build_qa_prompt("p", "q", template) == "PASSAGE=p Q=q"

    def test_packaged_template_is_read_once(self, monkeypatch):
        prompts._load_packaged.cache_clear()
        reads: list[str] = []
        files = prompts.resources.files

        def counting_files(package):
            reads.append(package)
            return files(package)

        monkeypatch.setattr(prompts.resources, "files", counting_files)
        first = default_qa_template()
        assert default_qa_template() is first
        assert len(reads) == 1

    def test_unfilled_question_slot_rejected(self):
        template = PromptTemplate(name="custom", text="{{passage}} {{question}}")
        with pytest.raises(ValueError):
            template.render(passage="p")

    def test_question_marker_in_passage_is_text_for_structure_prompt(self):
        passage = "The menu card reads {{question}} in gold letters."
        template = prompts.default_structure_template(DatasetKind.E2E)
        expected = template.text.replace("{{passage}}", passage)
        assert build_structure_prompt(passage, DatasetKind.E2E) == expected

    def test_question_marker_in_passage_is_text_for_qa_prompt(self):
        passage = "The menu card reads {{question}} in gold letters."
        question = "What is the Name?"
        prompt = build_qa_prompt(passage, question)
        expected = default_qa_template().text.replace("{{question}}", question)
        assert prompt == expected.replace("{{passage}}", passage)
        assert prompt.count(question) == 1

    def test_passage_marker_in_question_is_text(self):
        template = PromptTemplate(name="custom", text="P={{passage}} Q={{question}}")
        assert template.render(passage="p", question="{{passage}}?") == "P=p Q={{passage}}?"

    @pytest.mark.parametrize(
        "name",
        ["qa", "baseline_matrix", "baseline_attribute_value"]
        + [f"structure_{kind.value}" for kind in DatasetKind],
    )
    @given(
        passage=st.text(max_size=30).filter(lambda text: "{{question}}" not in text),
        question=st.text(min_size=1, max_size=30),
    )
    def test_render_equals_slot_by_slot_replacement(self, name, passage, question):
        # Only a passage holding the question marker renders differently.
        template = prompts._load_packaged(name)
        expected = template.text.replace("{{passage}}", passage).replace("{{question}}", question)
        assert template.render(passage=passage, question=question) == expected

    @given(
        template=templates(st.lists(st.sampled_from(["{", "}", "{{", "}}", "x", " "]), max_size=4)
                           .map("".join)),
        passage=st.text(alphabet="{}pa x", max_size=12).filter(lambda t: "{{question}}" not in t),
        question=st.text(alphabet="{}qa x", min_size=1, max_size=12),
    )
    def test_literal_braces_render_as_slot_by_slot_replacement(self, template, passage, question):
        expected = template.text.replace("{{passage}}", passage).replace("{{question}}", question)
        assert template.render(passage=passage, question=question) == expected


class TestRenderMatchesFormat:
    """`render` gives what the `str.format` renderer it replaced gave, kept here verbatim."""

    @staticmethod
    def format_render(template: PromptTemplate, *, passage: str, question: str | None = None) -> str:
        if question is None and "question" in template.pieces[1]:
            raise ValueError(f"template {template.name!r} has a question slot but no question given")
        literals, slots = template.pieces
        escaped = [literal.replace("{", "{{").replace("}", "}}") for literal in literals]
        format_string = escaped[0] + "".join(
            f"{{{slot}}}{literal}" for slot, literal in zip(slots, escaped[1:])
        )
        return format_string.format(passage=passage, question=question)

    PIECES = ["{", "}", "{{", "}}", "{passage}", "{0}", "{}", "{{{", "}}}", "x", " ", "\n", "é"]
    VALUES = st.lists(
        st.sampled_from([*PIECES, "{{passage}}", "{{question}}", "{question}", "{!r}", "%s"]), max_size=6
    ).map("".join)

    @given(
        template=templates(st.lists(st.sampled_from(PIECES), max_size=5).map("".join)),
        passage=VALUES | st.text(max_size=20),
        question=st.none() | VALUES | st.text(max_size=20),
    )
    def test_render_equals_the_format_renderer(self, template, passage, question):
        try:
            expected = self.format_render(template, passage=passage, question=question)
        except ValueError as err:
            with pytest.raises(ValueError, match="no question given"):
                template.render(passage=passage, question=question)
            assert "no question given" in str(err)
            return
        assert template.render(passage=passage, question=question) == expected

    @pytest.mark.parametrize("template", prompts.packaged_templates(), ids=lambda t: t.name)
    @given(passage=VALUES, question=VALUES)
    def test_packaged_templates(self, template, passage, question):
        got = template.render(passage=passage, question=question)
        assert got == self.format_render(template, passage=passage, question=question)


class TestSegments:
    """`question.join(template.segments(passage))` is what `render` gives, for any template."""

    LITERALS = st.lists(
        st.sampled_from(["{", "}", "{{", "}}", "{passage}", "{{passage", "question}}", "x", " ", "\n"]),
        max_size=4,
    ).map("".join) | st.text(max_size=6)
    VALUES = st.lists(
        st.sampled_from(["{{passage}}", "{{question}}", "{", "}", "{{", "}}", "q", " "]), max_size=5
    ).map("".join) | st.text(max_size=10)

    @given(template=templates(LITERALS), passage=VALUES, question=VALUES)
    def test_the_question_joined_into_the_segments_is_the_rendered_prompt(self, template, passage, question):
        segments = template.segments(passage)
        assert len(segments) == template.pieces[1].count("question") + 1
        assert question.join(segments) == template.render(passage=passage, question=question)
        if len(segments) == 1:
            assert segments[0] == template.render(passage=passage)

    def test_question_before_the_passage(self):
        template = PromptTemplate("question-first", "Q: {{question}}\nP: {{passage}} (?)")
        assert template.segments("p {{question}}") == ["Q: ", "\nP: p {{question}} (?)"]


READ_TEMPLATES = [
    default_qa_template(),
    prompts.default_structure_template(DatasetKind.ROTOWIRE_TEAM),
    prompts.default_baseline_template(Orientation.MATRIX),
    PromptTemplate("question-first", "Q: {{question}}\nP: {{passage}}\nA:"),
    PromptTemplate("glued", "P:{{passage}}{{question}}A:"),
    PromptTemplate("bare", "{{passage}}"),
]
# Slot values that quote the templates' own text.
SLOT_TEXT = st.lists(
    st.sampled_from(["\n\nQuestion: ", "\n\nAnswer:\n", "Q: ", "\nP: ", "P:", "A:", "x", " ", "?"]),
    max_size=5,
).map("".join)


class TestTemplateFits:
    @pytest.mark.parametrize("template", READ_TEMPLATES, ids=lambda t: t.name)
    @given(passage=SLOT_TEXT, question=SLOT_TEXT)
    def test_every_way_renders_the_prompt_and_one_is_the_real_one(self, template, passage, question):
        prompt = template.render(passage=passage, question=question)
        ways = template.fits(prompt)
        has_question = "question" in template.pieces[1]
        real = (passage, question if has_question else None)
        read = [
            (prompt[p[0] : p[1]], None if q is None else prompt[q[0] : q[1]]) for p, q in ways
        ]
        assert real in read
        for shown, asked in read:
            assert template.render(passage=shown, question=asked or "") == prompt
        lengths = [len(shown) for shown, _ in read]
        assert lengths == sorted(lengths, reverse=True)

    def test_prompt_without_the_opening_or_closing_text_fits_no_way(self):
        template = default_qa_template()
        prompt = template.render(passage="p", question="q")
        assert list(template.fits(prompt[1:])) == []
        assert list(template.fits(prompt[:-1])) == []
        assert list(template.fits("")) == []

    def test_pieces_split_the_text_around_its_slots(self):
        template = PromptTemplate("t", "P={{passage}} {Q}={{question}}!")
        assert template.pieces == (("P=", " {Q}=", "!"), ("passage", "question"))


class TestTruncation:
    def test_no_budget_keeps_passage(self):
        assert truncate_passage("a b c", None) == "a b c"

    def test_within_budget_untouched(self):
        assert truncate_passage("a b c", 100) == "a b c"

    def test_head_truncation_keeps_prefix(self):
        passage = " ".join(str(i) for i in range(100))
        truncated = truncate_passage(passage, 13)
        assert truncated == " ".join(str(i) for i in range(10))

    def test_always_keeps_one_word(self):
        assert truncate_passage("alpha beta", 0, overhead_tokens=50) == "alpha"

    # Every character `str.split()` splits on (the last is U+3000), astral
    # characters, and any other character.
    SPACES = "".join(c for c in map(chr, range(0x3001)) if c.isspace())
    ASTRAL = "\U0001f600\U00010000\U0010ffff"
    CHARS = st.one_of(st.sampled_from(SPACES), st.sampled_from("ab" + ASTRAL), st.characters())
    # One-character words between single separators: as many words as the length allows.
    DENSE = st.tuples(st.sampled_from(SPACES), st.lists(st.sampled_from("ab" + ASTRAL), max_size=20))

    @settings(max_examples=400)
    @given(st.one_of(st.text(CHARS, max_size=40), DENSE.map(lambda d: d[0].join(d[1]))),
           st.lists(st.integers(0, 30), min_size=1, max_size=4),
           st.sampled_from(["length bound", "estimate", None]), st.integers(-3, 3))
    def test_matches_reference(self, passage, overheads, near, offset):
        # A budget just either side of what the passage's length bound, or its
        # estimate, needs beside the first overhead; or no budget.
        needs = {"length bound": prompts.words_to_tokens((len(passage) + 1) // 2),
                 "estimate": estimate_tokens(passage)}.get(near)
        budget = None if needs is None else needs + overheads[0] + offset
        # The other overheads, and one above the budget.
        if budget is not None:
            overheads.append(budget + 1)
        for overhead in overheads:
            assert truncate_passage(passage, budget, overhead) == _ref_truncate_passage(
                passage, budget, overhead)


class TestPromptBudget:
    """A prompt's estimate fits its budget when the template's slots are set off by
    whitespace, as every packaged template's are, unless the budget leaves no room
    for one passage word. Glued slots can join two words into one estimate."""

    SPACE = st.sampled_from([" ", "\n", "\n\n", " \t", "\u3000"])
    WORDS = st.text(alphabet="ab{}?: \n", max_size=12)
    # Whitespace wherever a literal meets a slot; the text may open or close with a slot.
    EDGED = st.builds(lambda a, words, b: a + words + b, SPACE, WORDS, SPACE)
    TEXT = st.text(alphabet="ab{} \n\t", min_size=1, max_size=60).filter(lambda t: not t.isspace())

    @settings(max_examples=400)
    @given(st.sampled_from(VALID_SLOTS), st.just("") | EDGED, EDGED, st.just("") | EDGED,
           TEXT, TEXT, st.integers(0, 60), st.sampled_from(DatasetKind))
    def test_every_prompt_fits_its_budget(self, slots, first, middle, last, passage, question, budget, kind):
        asks = len(slots) == 2
        literals = [middle, last][-len(slots):]
        text = first + "".join(f"{{{{{slot}}}}}{literal}" for slot, literal in zip(slots, literals))
        template = PromptTemplate("edged", text)
        if asks:
            prompt = build_qa_prompt(passage, question, template, budget)
        else:
            prompt = build_structure_prompt(passage, kind, template, budget)
            question = None
        room = budget - template.overhead_tokens - (estimate_tokens(question) if asks else 0)
        if room >= prompts.words_to_tokens(1):
            assert estimate_tokens(prompt) <= budget
        else:  # the passage is cut to its one-word minimum
            assert prompt == template.render(passage=passage.split()[0], question=question)


# `truncate_passage` as it was when it split every passage to count it, kept
# verbatim as the reference the length-bounded path must reproduce.
def _ref_truncate_passage(passage: str, budget_tokens: int | None, overhead_tokens: int = 0) -> str:
    if budget_tokens is None:
        return passage
    available = budget_tokens - overhead_tokens
    if estimate_tokens(passage) <= available:
        return passage
    keep = max(1, math.floor(available / prompts.TOKEN_ESTIMATE_FACTOR))
    return " ".join(passage.split()[:keep])


class TestExtractNumeric:
    def test_word_number(self):
        assert extract_numeric("Ricky Rubio talled just five points") == 5

    def test_first_digit_run_wins(self):
        assert extract_numeric("scored 21 points and 15 rebounds") == 21

    def test_no_number(self):
        assert extract_numeric("no score reported") is None

    def test_digit_before_word(self):
        assert extract_numeric("had 3 dunks and five blocks") == 3

    def test_word_before_digit(self):
        assert extract_numeric("had five dunks and 3 blocks") == 5

    def test_hyphen_compound(self):
        assert extract_numeric("twenty-one points") == 21

    def test_space_compound(self):
        assert extract_numeric("forty five rebounds") == 45

    def test_teens(self):
        assert extract_numeric("fifteen assists") == 15

    def test_hundred_compound(self):
        assert extract_numeric("one hundred and six points") == 106

    def test_a_hundred(self):
        assert extract_numeric("a hundred points") == 100

    def test_zero(self):
        assert extract_numeric("zero turnovers") == 0

    def test_word_inside_longer_word_ignored(self):
        assert extract_numeric("the tenant of nineveh") is None

    def test_empty(self):
        assert extract_numeric("") is None

    @pytest.mark.parametrize("answer, number", [
        ("1,024", 1024), ("attendance was 18,624", 18624), ("1,000,000 fans", 1000000),
        ("the 10,000th point", 10000), ("3,14", 3), ("1,0245", 1), ("21, 5 rebounds", 21),
    ])
    def test_thousands_grouped_by_commas_are_one_number(self, answer, number):
        assert extract_numeric(answer) == number


class TestDetectNoAnswer:
    def test_unknown_case_insensitive(self):
        assert detect_no_answer("Unknown")

    def test_number_is_an_answer(self):
        assert not detect_no_answer("46")

    def test_na_with_whitespace(self):
        assert detect_no_answer("  N/A ")

    def test_empty(self):
        assert detect_no_answer("")

    def test_not_mentioned(self):
        assert detect_no_answer("not  mentioned")

    def test_custom_set(self):
        assert detect_no_answer("nope", no_answer_values={"nope"})
        assert not detect_no_answer("unknown", no_answer_values={"nope"})

    def test_membership_is_tested_against_the_given_collection(self):
        class MembershipOnly:
            def __contains__(self, item):
                return item == "nope"

            def __iter__(self):
                raise AssertionError("refusal markers were copied")

        markers = MembershipOnly()
        assert detect_no_answer(" Nope ", no_answer_values=markers)
        assert not detect_no_answer("unknown", no_answer_values=markers)


class PromptLog(WrapperBackend):
    """Passes every request to `inner` and keeps its prompt, in the order asked."""

    def __init__(self, inner):
        super().__init__(inner)
        self.prompts: list[str] = []

    def _generate_once(self, request):
        self.prompts.append(request.prompt)
        return self.inner.generate(request)


def _update_delta(table: Table) -> SkeletonDelta:
    """A new column (and, for a matrix, a new row) plus a re-ask of every absent cell."""
    if table.orientation is Orientation.ATTRIBUTE_VALUE:
        absent = [(None, header) for header, value in table.rows if value is None]
        return SkeletonDelta(add_col_headers=("Attendance",), reask=absent)
    absent = [(row, col) for row, cells in zip(table.row_headers, table.cells)
              for col, value in zip(table.col_headers, cells) if value is None]
    return SkeletonDelta(add_row_headers=("Bench",), add_col_headers=("Attendance",), reask=absent)


# The count and sha256 of the prompts each bundled corpus sends through
# stage one, stage two, the baseline and `update_table`, in order. Replay
# fixtures are named by prompt digest, so one changed byte in any prompt
# would orphan every fixture recorded from it.
SENT_PROMPTS = {
    "e2e_example.jsonl": (10, "cc5b2b7bae27ecbe0eb9a7e8ee688ea626171f08c07efef69f794198ec44fa06"),
    "e2e_mini.jsonl": (80, "c1c663cbfa9a624d0b2105977a41a475556a81d27dba361b20afffb4b7d88076"),
    "rotowire-player_example.jsonl": (25, "367eb7ef6f8b9f600fe4b8f4485973ff31f9ae9e23096b268041fada13b0147a"),
    "rotowire-player_mini.jsonl": (147, "adf2e32eab0373780ea98aa67c748591566ffec2f8ae79baf6dd7c7c7b3d676a"),
    "rotowire-team_example.jsonl": (18, "f7c5e278f4339590009dad203800805c5ba47c667e5f3e7425c16c68a65087ec"),
    "rotowire-team_mini.jsonl": (177, "de636e61c2e5f809a125e4fee95bae9471ffea8fa7cb52bc328b1a4f618419cc"),
    "wikibio_example.jsonl": (6, "dd259d9107e39657d0c22012b78a9f39a7c242ab5afa67c95497de20b618c8a1"),
    "wikibio_mini.jsonl": (70, "ea0a7299acdca4d00caa0980afa10085f33680917cbb45d7378e8492f5a9a952"),
    "wikitabletext_example.jsonl": (6, "8a46ba936e044807330d3bef396bb9e418b9c0158075bc500b65914dcff69855"),
    "wikitabletext_mini.jsonl": (70, "d1010e90c12ffc2f6c96b91b40e2a9c8bcd5cf309d10bd8fd991aa3d980ae6b8"),
}


class TestSentPromptsArePinned:
    @pytest.mark.parametrize("name", list_fixtures())
    def test_every_prompt_a_bundled_corpus_sends(self, name):
        kind = DatasetKind(name.rsplit("_", 1)[0])
        samples = load_jsonl(fixture_path(name), kind)
        backend = PromptLog(MockOracleBackend([(s.text, s.gold) for s in samples]))
        for sample in samples:
            generate_table(sample.text, kind, backend)
            baseline_generate(sample.text, kind, backend)
            update_table(sample.gold, _update_delta(sample.gold), sample.text, kind, backend)
        digest = hashlib.sha256(json.dumps(backend.prompts).encode()).hexdigest()
        assert (len(backend.prompts), digest) == SENT_PROMPTS[name]
