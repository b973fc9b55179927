from __future__ import annotations

import dataclasses
import re
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tabgen.pipeline as pipeline_module
import tabgen.prompts as prompts_module
from tabgen.backends import (
    BackendError,
    GenerationRequest,
    MalformedResponse,
    MockOracleBackend,
    Unreachable,
)
from tabgen.kinds import DatasetKind
from tabgen.metrics import PRF, evaluate_sample
from tabgen.pipeline import (
    CellTrace,
    GenerationTrace,
    SkeletonDelta,
    baseline_generate,
    construct_structure,
    generate_content,
    generate_table,
    generate_table_traced,
    update_table,
)
from tabgen.prompts import (
    NoHeaders,
    PromptTemplate,
    build_qa_prompt,
    default_qa_template,
    formulate_question,
    parse_structure_answer,
    question_head,
)
from tabgen.table import (
    EmptyInput,
    Orientation,
    StructuralError,
    Table,
    dedupe_headers,
    normalize_text,
    parse_flat,
    to_tuples,
)

from .conftest import (
    ALL_KINDS,
    CountingBackend,
    ScriptedBackend,
    blank_table,
    check_frozen_record,
    load_example,
    questions_for_headers,
)


def oracle_for(sample):
    return MockOracleBackend([(sample.text, sample.gold)])


class TestConstructStructure:
    def test_team_headers_match_gold(self, rotowire_team_sample):
        skeleton = construct_structure(
            rotowire_team_sample.text, DatasetKind.ROTOWIRE_TEAM, oracle_for(rotowire_team_sample)
        )
        assert set(skeleton.row_headers) == {"Magic", "Hawks"}
        assert set(skeleton.col_headers) == {
            "Losses",
            "Total points",
            "Points in 4th quarter",
            "Wins",
        }

    def test_e2e_has_seven_attribute_headers(self, e2e_sample):
        skeleton = construct_structure(e2e_sample.text, DatasetKind.E2E, oracle_for(e2e_sample))
        assert skeleton.orientation is Orientation.ATTRIBUTE_VALUE
        assert len(skeleton.col_headers) == 7
        assert skeleton.col_headers[0] == "Name"
        assert skeleton.col_headers[-1] == "Near"

    def test_empty_answer_raises_no_headers(self):
        backend = ScriptedBackend(lambda p: "")
        with pytest.raises(NoHeaders):
            construct_structure("some passage", DatasetKind.E2E, backend)

    def test_duplicate_headers_are_suffixed(self):
        backend = ScriptedBackend(lambda p: " <SEP> ".join(["Points"] * 50))
        skeleton = construct_structure("some passage", DatasetKind.E2E, backend)
        assert len(skeleton.col_headers) == 50
        assert skeleton.col_headers[1] == "Points #2"

    def test_missing_divider_degrades_to_header_only(self):
        backend = ScriptedBackend(lambda p: "Wins <SEP> Losses")
        skeleton = construct_structure("some passage", DatasetKind.ROTOWIRE_TEAM, backend)
        assert skeleton.row_headers == ()
        assert skeleton.col_headers == ("Wins", "Losses")


class TestGenerateContent:
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_gold_skeleton_reproduces_gold_table(self, kind):
        sample = load_example(kind)
        table, trace = generate_content(sample.gold, sample.text, kind, oracle_for(sample))
        assert table == sample.gold
        assert len(trace.cells) == sum(map(len, sample.gold.cells))

    def test_all_unknown_answers_give_all_absent_cells(self):
        backend = ScriptedBackend(lambda p: "unknown")
        skeleton = blank_table(Orientation.MATRIX, ("a", "b"), ("x", "y"))
        table, _ = generate_content(skeleton, "passage", DatasetKind.ROTOWIRE_TEAM, backend)
        assert table.shape == skeleton.shape
        assert table.present_cell_count() == 0

    def test_numeric_kind_extracts_first_number(self):
        backend = ScriptedBackend(lambda p: "talled just five points")
        skeleton = blank_table(Orientation.MATRIX, ("Rubio",), ("Points",))
        table, _ = generate_content(skeleton, "passage", DatasetKind.ROTOWIRE_PLAYER, backend)
        assert table.cells == (("5",),)

    def test_numeric_kind_without_number_becomes_absent(self):
        backend = ScriptedBackend(lambda p: "had a strong game")
        skeleton = blank_table(Orientation.MATRIX, ("Rubio",), ("Points",))
        table, _ = generate_content(skeleton, "passage", DatasetKind.ROTOWIRE_PLAYER, backend)
        assert table.cells == ((None,),)

    def test_a_digit_run_past_the_int_limit_becomes_absent(self):
        # int() rejects more than 4,300 digits: the cell is absent, the sample not failed.
        backend = ScriptedBackend(lambda p: "1" * 5000 if "Wins" in p else "7")
        skeleton = blank_table(Orientation.MATRIX, ("Suns",), ("Wins", "Losses"))
        table, _ = generate_content(skeleton, "passage", DatasetKind.ROTOWIRE_TEAM, backend)
        assert table.cells == ((None, "7"),)
        updated = update_table(
            table, SkeletonDelta(add_row_headers=("Jazz",)), "passage", DatasetKind.ROTOWIRE_TEAM, backend
        )
        assert updated.cells == ((None, "7"), (None, "7"))

    def test_failed_cells_degrade_to_absent_and_are_flagged(self):
        class OneBad(ScriptedBackend):
            def _generate_once(self, request):
                if "Wins" in request.prompt:
                    raise Unreachable("down")
                return super()._generate_once(request)

        backend = OneBad(lambda p: "7")
        skeleton = blank_table(Orientation.MATRIX, ("Suns",), ("Wins", "Losses"))
        table, trace = generate_content(skeleton, "passage", DatasetKind.ROTOWIRE_TEAM, backend)
        assert table.cells == ((None, "7"),)
        assert trace.cells[0].error is not None
        assert trace.cells[1].error is None

    def test_call_count_is_rows_times_cols(self, rotowire_team_sample):
        backend = CountingBackend(oracle_for(rotowire_team_sample))
        skeleton = rotowire_team_sample.gold
        generate_content(skeleton, rotowire_team_sample.text, DatasetKind.ROTOWIRE_TEAM, backend)
        assert backend.calls == 8

    def test_call_count_attribute_value(self, e2e_sample):
        backend = CountingBackend(oracle_for(e2e_sample))
        generate_content(e2e_sample.gold, e2e_sample.text, DatasetKind.E2E, backend)
        assert backend.calls == 7

    def test_an_empty_column_header_is_named_before_any_call(self, rotowire_team_sample):
        backend = CountingBackend(oracle_for(rotowire_team_sample))
        skeleton = Table.matrix(["Magic"], ["", "Wins"], [[None, None]])
        with pytest.raises(ValueError, match="column header 0, which is empty"):
            generate_content(skeleton, rotowire_team_sample.text, DatasetKind.ROTOWIRE_TEAM, backend)
        assert backend.calls == 0

    def test_cell_trace_is_a_frozen_record(self):
        check_frozen_record(
            CellTrace,
            ("Magic", "Wins", "What is the number of Wins for Magic?", "7 wins", "7", 0.5, "down"),
            (None, "Name", "What is the Name?", None, None, None, None),
        )


class TestGenerateTable:
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_oracle_end_to_end_matches_gold(self, kind):
        sample = load_example(kind)
        table = generate_table(sample.text, kind, oracle_for(sample))
        assert table == sample.gold
        assert to_tuples(table) == to_tuples(sample.gold)

    def test_deterministic_across_runs(self, rotowire_team_sample):
        backend = oracle_for(rotowire_team_sample)
        first = generate_table(rotowire_team_sample.text, DatasetKind.ROTOWIRE_TEAM, backend)
        second = generate_table(rotowire_team_sample.text, DatasetKind.ROTOWIRE_TEAM, backend)
        assert first == second

    def test_garbage_structure_still_yields_valid_table(self):
        backend = ScriptedBackend(
            ["a | b <SEP> c<NEWLINE>d <SEP> <SEP> a | b"] + ["noise"] * 10
        )
        table = generate_table("passage", DatasetKind.E2E, backend)
        assert table.shape == (len(table.col_headers), 1)

    def test_trace_records_structure_answer_and_timings(self, e2e_sample):
        table, trace = generate_table_traced(e2e_sample.text, DatasetKind.E2E, oracle_for(e2e_sample))
        assert trace.structure_answer is not None
        assert "<SEP>" in trace.structure_answer
        assert len(trace.cells) == len(table.rows)
        assert trace.cells[0].question == "What is the Name?"

    def test_seeded_skeleton_skips_stage_one(self, e2e_sample):
        backend = CountingBackend(oracle_for(e2e_sample))
        skeleton = e2e_sample.gold
        table, trace = generate_table_traced(
            e2e_sample.text, DatasetKind.E2E, backend, skeleton=skeleton
        )
        assert backend.calls == 7  # content only, no structure call
        assert trace.structure_answer is None
        assert table == e2e_sample.gold


    def test_a_parsed_skeleton_with_an_empty_column_header_is_named_before_any_call(
        self, rotowire_team_sample
    ):
        # The flat format keeps an empty header cell verbatim.
        skeleton = parse_flat(" | | Wins<NEWLINE>Magic | 1 | 2", Orientation.MATRIX)
        backend = CountingBackend(oracle_for(rotowire_team_sample))
        with pytest.raises(ValueError, match="column header 0, which is empty"):
            generate_table_traced(
                rotowire_team_sample.text, DatasetKind.ROTOWIRE_TEAM, backend, skeleton=skeleton
            )
        assert backend.calls == 0


class TestStageBoundary:
    """Stage one returns a skeleton table; stage two reads its headers and grid, never its values."""

    PIECE = st.sampled_from(
        ["Wins", "wins", "Magic", "a b", "#2", '"Wins"', "<SEP>", "<ROWCOL>", " ", "\n", "\t", ""]
    )

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(ALL_KINDS), st.lists(PIECE, max_size=12).map("".join))
    def test_stage_one_returns_a_valid_blank_frozen_table(self, kind, answer):
        backend = ScriptedBackend(lambda p: answer)
        try:
            headers = parse_structure_answer(answer, kind.orientation)
        except NoHeaders:
            with pytest.raises(NoHeaders):
                construct_structure("passage", kind, backend)
            return
        skeleton = construct_structure("passage", kind, backend)
        assert skeleton.orientation is kind.orientation
        assert skeleton.present_cell_count() == 0
        assert (skeleton.row_headers, skeleton.col_headers) == headers
        assert all(isinstance(row, tuple) for row in skeleton.cells)
        for name in ("orientation", "row_headers", "col_headers", "cells"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(skeleton, name, ())

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_stage_two_reads_no_cell_value(self, kind):
        sample = load_example(kind)
        gold = sample.gold
        blank = blank_table(kind.orientation, gold.row_headers, gold.col_headers)
        from_gold, gold_trace = generate_content(gold, sample.text, kind, oracle_for(sample))
        from_blank, blank_trace = generate_content(blank, sample.text, kind, oracle_for(sample))
        assert from_gold == from_blank == gold
        untimed = dataclasses.replace(gold_trace, content_ms=0.0)
        assert untimed == dataclasses.replace(blank_trace, content_ms=0.0)

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_stage_one_is_scored_as_table_construction(self, kind):
        sample = load_example(kind)
        skeleton = construct_structure(sample.text, kind, oracle_for(sample))
        generated, _ = generate_content(skeleton, sample.text, kind, oracle_for(sample))
        constructed = evaluate_sample(skeleton, sample.gold)
        scored = evaluate_sample(generated, sample.gold)
        assert constructed.header == scored.header == PRF(1.0, 1.0, 1.0)
        assert (constructed.row_header, constructed.col_header) == (
            scored.row_header, scored.col_header)


class TestBaseline:
    def test_rectangular_output_parses(self):
        backend = ScriptedBackend(lambda p: "a | b<NEWLINE>c | d")
        table = baseline_generate("passage", DatasetKind.E2E, backend)
        assert table.rows == (("a", "b"), ("c", "d"))

    def test_ragged_output_raises_structural_error(self):
        backend = ScriptedBackend(lambda p: "a | b | c<NEWLINE>d | e")
        with pytest.raises(StructuralError) as excinfo:
            baseline_generate("passage", DatasetKind.E2E, backend)
        assert excinfo.value.widths == [3, 2]

    def test_empty_output_raises_empty_input(self):
        backend = ScriptedBackend(lambda p: "")
        with pytest.raises(EmptyInput):
            baseline_generate("passage", DatasetKind.E2E, backend)

    def test_oracle_baseline_reproduces_gold(self, rotowire_team_sample):
        table = baseline_generate(
            rotowire_team_sample.text, DatasetKind.ROTOWIRE_TEAM, oracle_for(rotowire_team_sample)
        )
        assert table == rotowire_team_sample.gold


class TestTemplateSlots:
    """A template without the slots its prompt fills is a ValueError naming it, before any call."""

    NO_QUESTION = PromptTemplate("no-question.txt", "Passage: {{passage}}\nAnswer:")
    NO_PASSAGE = PromptTemplate("no-passage.txt", "Question: {{question}}\nAnswer:")

    @pytest.mark.parametrize("template", [NO_QUESTION, NO_PASSAGE], ids=lambda t: t.name)
    def test_generation_and_update_reject_a_qa_template(self, rotowire_team_sample, template):
        sample, kind = rotowire_team_sample, DatasetKind.ROTOWIRE_TEAM
        backend = CountingBackend(oracle_for(sample))
        delta = SkeletonDelta(add_col_headers=("Rebounds",))
        for run in (
            lambda: generate_table_traced(sample.text, kind, backend, qa_template=template,
                                          skeleton=sample.gold),
            lambda: generate_content(sample.gold, sample.text, kind, backend, template=template),
            lambda: update_table(sample.gold, delta, sample.text, kind, backend, template=template),
        ):
            with pytest.raises(ValueError, match=re.escape(repr(template.name))):
                run()
        assert backend.calls == 0

    def test_structure_and_baseline_reject_a_template_without_a_passage_slot(self, e2e_sample):
        backend = CountingBackend(oracle_for(e2e_sample))
        template = PromptTemplate("no-passage.txt", "Name the headers, joined by <SEP>.")
        with pytest.raises(ValueError, match="'no-passage.txt' needs a {{passage}} slot"):
            construct_structure(e2e_sample.text, DatasetKind.E2E, backend, template=template)
        with pytest.raises(ValueError, match="'no-passage.txt' needs a {{passage}} slot"):
            baseline_generate(e2e_sample.text, DatasetKind.E2E, backend, template=template)
        assert backend.calls == 0


class TestUpdateTable:
    def test_empty_delta_is_identity_with_zero_calls(self, rotowire_team_sample):
        backend = CountingBackend(oracle_for(rotowire_team_sample))
        updated = update_table(
            rotowire_team_sample.gold,
            SkeletonDelta(),
            rotowire_team_sample.text,
            DatasetKind.ROTOWIRE_TEAM,
            backend,
        )
        assert updated == rotowire_team_sample.gold
        assert backend.calls == 0

    def test_added_row_asks_one_question_per_column(self, rotowire_team_sample):
        backend = CountingBackend(oracle_for(rotowire_team_sample))
        updated = update_table(
            rotowire_team_sample.gold,
            SkeletonDelta(add_row_headers=("Raptors",)),
            rotowire_team_sample.text,
            DatasetKind.ROTOWIRE_TEAM,
            backend,
        )
        assert backend.calls == 4
        assert updated.row_headers == ("Magic", "Hawks", "Raptors")
        # Untouched cells are carried over unchanged.
        assert updated.cells[:2] == rotowire_team_sample.gold.cells

    def test_added_column_asks_one_question_per_row(self, rotowire_team_sample):
        backend = CountingBackend(oracle_for(rotowire_team_sample))
        updated = update_table(
            rotowire_team_sample.gold,
            SkeletonDelta(add_col_headers=("Steals",)),
            rotowire_team_sample.text,
            DatasetKind.ROTOWIRE_TEAM,
            backend,
        )
        assert backend.calls == 2
        assert updated.col_headers[-1] == "Steals"
        assert tuple(row[:4] for row in updated.cells) == rotowire_team_sample.gold.cells

    def test_reask_fills_only_the_designated_cell(self, rotowire_team_sample):
        # Evidence now supports the previously absent cell; the refreshed
        # oracle stands in for richer text.
        completed_gold = Table.matrix(
            rotowire_team_sample.gold.row_headers,
            rotowire_team_sample.gold.col_headers,
            [["41", "88", "21", "19"], ["12", "95", "23", "46"]],
        )
        refreshed = MockOracleBackend([(rotowire_team_sample.text, completed_gold)])
        backend = CountingBackend(refreshed)

        updated = update_table(
            rotowire_team_sample.gold,
            SkeletonDelta(reask=(("Hawks", "Points in 4th quarter"),)),
            rotowire_team_sample.text,
            DatasetKind.ROTOWIRE_TEAM,
            backend,
        )
        assert backend.calls == 1
        assert updated.cells[1][2] == "23"
        # Everything else must agree with a full regeneration against the
        # same evidence.
        regenerated, _ = generate_content(
            completed_gold,
            rotowire_team_sample.text,
            DatasetKind.ROTOWIRE_TEAM,
            refreshed,
        )
        assert updated == regenerated

    def test_reask_present_cell_rejected(self, rotowire_team_sample):
        with pytest.raises(ValueError, match="present"):
            update_table(
                rotowire_team_sample.gold,
                SkeletonDelta(reask=(("Magic", "Wins"),)),
                rotowire_team_sample.text,
                DatasetKind.ROTOWIRE_TEAM,
                oracle_for(rotowire_team_sample),
            )

    def test_reask_unknown_header_rejected(self, rotowire_team_sample):
        with pytest.raises(ValueError, match="unknown"):
            update_table(
                rotowire_team_sample.gold,
                SkeletonDelta(reask=(("Spurs", "Wins"),)),
                rotowire_team_sample.text,
                DatasetKind.ROTOWIRE_TEAM,
                oracle_for(rotowire_team_sample),
            )

    def test_attribute_value_extension(self, e2e_sample):
        trimmed = Table.attribute_value(list(e2e_sample.gold.rows[:3]))
        backend = CountingBackend(oracle_for(e2e_sample))
        updated = update_table(
            trimmed,
            SkeletonDelta(add_col_headers=("Customer Rating",)),
            e2e_sample.text,
            DatasetKind.E2E,
            backend,
        )
        assert backend.calls == 1
        assert updated.rows[:3] == trimmed.rows
        assert updated.rows[3] == ("Customer Rating", "Low")

    def test_attribute_value_rejects_row_additions(self, e2e_sample):
        with pytest.raises(ValueError):
            update_table(
                e2e_sample.gold,
                SkeletonDelta(add_row_headers=("x",)),
                e2e_sample.text,
                DatasetKind.E2E,
                oracle_for(e2e_sample),
            )

    def test_added_duplicate_header_gets_suffixed(self, rotowire_team_sample):
        updated = update_table(
            rotowire_team_sample.gold,
            SkeletonDelta(add_row_headers=("Hawks",)),
            rotowire_team_sample.text,
            DatasetKind.ROTOWIRE_TEAM,
            oracle_for(rotowire_team_sample),
        )
        assert updated.row_headers == ("Magic", "Hawks", "Hawks #2")
        assert updated.shape == (3, 4)


class TestQAPrompts:
    """Stage two sends exactly the prompts `build_qa_prompt` builds, question by question."""

    WORDS = st.sampled_from(["Sharks", "scored", "24", "points", "in\nthe", "fourth  quarter.", "?"])
    HEADERS = st.lists(
        st.lists(st.sampled_from(["pts", "reb", "Total points", "Points in 4th quarter", "a b c d"]),
                 min_size=1, max_size=3).map(" ".join),
        min_size=1, max_size=4, unique=True,
    )

    @staticmethod
    def recorded_prompts(run) -> list[str]:
        prompts: list[str] = []

        def answer(prompt: str) -> str:
            prompts.append(prompt)
            return "7"

        run(ScriptedBackend(answer))
        return prompts

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(WORDS, min_size=1, max_size=60).map(" ".join),
        HEADERS,
        HEADERS,
        st.one_of(st.none(), st.integers(0, 120)),
    )
    def test_generate_and_update_prompts_are_unchanged(self, passage, rows, cols, budget):
        kind = DatasetKind.ROTOWIRE_PLAYER
        skeleton = blank_table(Orientation.MATRIX, rows, cols)
        prompts = self.recorded_prompts(
            lambda backend: generate_content(skeleton, passage, kind, backend, max_input_tokens=budget)
        )
        questions = questions_for_headers(Orientation.MATRIX, rows, cols, kind.numeric)
        expected = [build_qa_prompt(passage, q.question, None, budget) for q in questions]
        assert prompts == expected

        empty = Table.matrix(rows[:1], cols, [[None] * len(cols)])
        delta = SkeletonDelta(add_row_headers=rows[1:], reask=[(rows[0], c) for c in cols])
        prompts = self.recorded_prompts(
            lambda backend: update_table(empty, delta, passage, kind, backend, max_input_tokens=budget)
        )
        assert sorted(prompts) == sorted(expected)

    class SplitCounted(str):
        """A passage that counts the times it is split into words."""

        splits = 0

        def split(self, *args, **kwargs):
            self.splits += 1
            return super().split(*args, **kwargs)

    # 2048 leaves room for any passage of the sample's length, so its length
    # bound fits and it is never counted; 400 fits the passage's words but
    # not its length bound; 60 cuts the passage.
    @pytest.mark.parametrize("budget", [2048, 400, 60])
    def test_passage_and_template_are_counted_once(self, monkeypatch, rotowire_team_sample, budget):
        counted: list[str] = []
        real = prompts_module.estimate_tokens

        def counting(text: str) -> int:
            counted.append(text)
            return real(text)

        monkeypatch.setattr(prompts_module, "estimate_tokens", counting)
        template = PromptTemplate(name="qa", text=default_qa_template().text)
        skeleton = rotowire_team_sample.gold
        passage = self.SplitCounted(rotowire_team_sample.text)
        questions = questions_for_headers(
            Orientation.MATRIX, skeleton.row_headers, skeleton.col_headers, True
        )
        lengths = {real(q.question) for q in questions}
        assert len(questions) > len(lengths) > 1
        prompts = self.recorded_prompts(lambda backend: generate_content(
            skeleton, passage, DatasetKind.ROTOWIRE_TEAM, backend, template=template,
            max_input_tokens=budget))
        assert (rotowire_team_sample.text in prompts[0]) == (budget > 60)
        if budget == 2048:
            assert passage.splits == 0
            assert rotowire_team_sample.text not in counted
        else:
            assert counted.count(rotowire_team_sample.text) == len(lengths)
        bare = template.text.replace("{{passage}}", "").replace("{{question}}", "")
        assert counted.count(bare) == 1


class TestCountedOnce:
    @staticmethod
    def counting(monkeypatch, module_attrs, real):
        counted: list[str] = []

        def counted_call(text: str):
            counted.append(text)
            return real(text)

        for module, name in module_attrs:
            monkeypatch.setattr(module, name, counted_call)
        return counted

    @pytest.mark.parametrize("budget", [2048, None])
    def test_each_header_is_counted_once_per_batch(self, monkeypatch, rotowire_team_sample, budget):
        counted = self.counting(monkeypatch, [(prompts_module, "estimate_tokens")],
                                prompts_module.estimate_tokens)
        built = self.counting(monkeypatch, [(pipeline_module, "_counted")], pipeline_module._counted)
        skeleton = rotowire_team_sample.gold
        pieces = [question_head(col, True) for col in skeleton.col_headers]
        pieces += [f"{row}?" for row in skeleton.row_headers]
        questions = [q.question for q in questions_for_headers(
            Orientation.MATRIX, skeleton.row_headers, skeleton.col_headers, True)]
        for _ in range(2):  # nothing is kept from one batch to the next
            built.clear()
            generate_content(skeleton, rotowire_team_sample.text, DatasetKind.ROTOWIRE_TEAM,
                             oracle_for(rotowire_team_sample), max_input_tokens=budget)
            assert sorted(built) == sorted(pieces)
        assert not set(counted) & set(questions)
        # An update builds only the pieces its slots read.
        built.clear()
        (r, c), = [(r, c) for r, row in enumerate(skeleton.cells) for c, v in enumerate(row) if v is None]
        row, col = skeleton.row_headers[r], skeleton.col_headers[c]
        update_table(skeleton, SkeletonDelta(reask=[(row, col)]), rotowire_team_sample.text,
                     DatasetKind.ROTOWIRE_TEAM, oracle_for(rotowire_team_sample), max_input_tokens=budget)
        assert sorted(built) == sorted([question_head(col, True), f"{row}?"])

    @pytest.mark.parametrize("passage", ["", "   ", "\n \t"])
    def test_blank_passage_still_raises(self, rotowire_team_sample, passage):
        skeleton = rotowire_team_sample.gold
        with pytest.raises(ValueError, match="passage must be non-empty"):
            generate_content(skeleton, passage, DatasetKind.ROTOWIRE_TEAM,
                             oracle_for(rotowire_team_sample))
        with pytest.raises(ValueError, match="passage must be non-empty"):
            generate_content(skeleton, passage, DatasetKind.ROTOWIRE_TEAM,
                             oracle_for(rotowire_team_sample), max_input_tokens=None)

    def test_each_distinct_answer_is_postprocessed_once_per_batch(self, monkeypatch):
        answers = {"Wins": "7", "Losses": "scored 7", "Points": "7", "Steals": "unknown",
                   "Blocks": "twelve"}
        backend = ScriptedBackend(
            lambda prompt: next(a for col, a in answers.items() if f"number of {col} for" in prompt)
        )
        counted: list[str] = []
        postprocess = pipeline_module._postprocess

        def counted_postprocess(raw: str, numeric: bool):
            counted.append(raw)
            return postprocess(raw, numeric)

        monkeypatch.setattr(pipeline_module, "_postprocess", counted_postprocess)
        skeleton = blank_table(Orientation.MATRIX, ("Magic", "Hawks", "Suns"),
                                 ("Wins", "Losses", "Points", "Steals"))
        kind = DatasetKind.ROTOWIRE_TEAM
        table, trace = generate_content(skeleton, "passage", kind, backend)
        assert table.cells == (("7", "7", "7", None),) * 3
        assert [cell.value for cell in trace.cells] == ["7", "7", "7", None] * 3
        assert sorted(counted) == ["7", "scored 7", "unknown"]

        counted.clear()
        delta = SkeletonDelta(add_row_headers=("Jazz",), add_col_headers=("Blocks",))
        updated = update_table(table, delta, "passage", kind, backend)
        assert updated.cells == (("7", "7", "7", None, "12"),) * 4
        # The update's batch post-processes its own answers: nothing is kept across calls.
        assert sorted(counted) == ["7", "scored 7", "twelve", "unknown"]

    def test_reask_normalizes_only_on_an_exact_miss(self, monkeypatch):
        rows, cols = ["Magic", "Hawks", "Suns"], ["Wins", "Losses"]
        table = Table.matrix(rows, cols, [[None, "1"], ["2", None], [None, None]])
        counted = self.counting(monkeypatch, [(pipeline_module, "normalize_text")],
                                pipeline_module.normalize_text)
        exact = (("Magic", "Wins"), ("Hawks", "Losses"), ("Suns", "Wins"), ("Suns", "Losses"))
        assert pipeline_module._resolve_reask(table, exact) == [(0, 0), (1, 1), (2, 0), (2, 1)]
        assert counted == []
        # One address misses its column by exact text: the column axis is
        # normalized once, with that address, and the row axis not at all.
        reask = (("Magic", "Wins"), ("Hawks", "losses "), ("Suns", "Wins"), ("Suns", "Losses"))
        assert pipeline_module._resolve_reask(table, reask) == [(0, 0), (1, 1), (2, 0), (2, 1)]
        assert sorted(counted) == sorted([*cols, "losses "])
        # Misses on both axes normalize each axis once, and each missing address.
        counted.clear()
        reask = (("magic", "WINS"), (" Hawks", "losses "), ("Suns", '"Wins"'))
        assert pipeline_module._resolve_reask(table, reask) == [(0, 0), (1, 1), (2, 0)]
        assert sorted(counted) == sorted([*rows, *cols, "magic", "WINS", " Hawks", "losses ", '"Wins"'])

    @pytest.mark.parametrize(
        "address, message",
        [
            ((None, "Wins"), "unknown row header None"),
            (("", "Wins"), "unknown row header ''"),
            (("Celtics", "Wins"), "unknown row header 'Celtics'"),
            (("Magic", "Steals"), "unknown column header 'Steals'"),
            (("Magic", "Losses"), r"cell \('Magic', 'Losses'\) is present"),
        ],
    )
    def test_reask_errors_are_unchanged(self, address, message):
        table = Table.matrix(["Magic"], ["Wins", "Losses"], [[None, "1"]])
        with pytest.raises(ValueError, match=message):
            pipeline_module._resolve_reask(table, (address,))


# Stage two as it was before generation and update shared one slot plan,
# kept verbatim as the reference the shared path must reproduce.


def _ref_qa_requests(questions, passage, template, max_input_tokens, answer_max_new_tokens):
    template = template or default_qa_template()
    cut: dict[int, str] = {}
    requests = []
    for question in questions:
        length = prompts_module.estimate_tokens(question)
        if length not in cut:
            overhead = template.overhead_tokens + length
            cut[length] = prompts_module.truncate_passage(passage, max_input_tokens, overhead)
        prompt = build_qa_prompt(cut[length], question, template)
        requests.append(GenerationRequest(prompt, max_new_tokens=answer_max_new_tokens))
    return requests


def _ref_generate_content(
    skeleton, passage, kind, backend, *, template=None, max_input_tokens=2048,
    answer_max_new_tokens=64,
):
    if skeleton.cells and "" in skeleton.col_headers:  # a question under it would be asked
        empty = skeleton.col_headers.index("")
        raise ValueError(f"cannot ask under column header {empty}, which is empty")
    questions = questions_for_headers(
        skeleton.orientation, skeleton.row_headers, skeleton.col_headers, kind.numeric
    )
    requests = _ref_qa_requests(
        [q.question for q in questions], passage, template, max_input_tokens, answer_max_new_tokens
    )
    results = backend.generate_batch(requests) if requests else []
    values, traces = [], []
    for question, result in zip(questions, results):
        row_header = (
            skeleton.row_headers[question.row_index] if question.row_index is not None else None
        )
        col_header = skeleton.col_headers[question.col_index]
        if isinstance(result, BackendError):
            values.append(None)
            traces.append(
                CellTrace(row_header, col_header, question.question, None, None, None, str(result))
            )
            continue
        value = pipeline_module._postprocess(result.text, kind.numeric)
        values.append(value)
        traces.append(
            CellTrace(row_header, col_header, question.question, result.text, value, result.latency_ms)
        )
    if skeleton.orientation is Orientation.ATTRIBUTE_VALUE:
        table = Table.attribute_value(list(zip(skeleton.col_headers, values)))
    else:
        width = len(skeleton.col_headers)
        grid = [values[i * width : (i + 1) * width] for i in range(len(skeleton.row_headers))]
        table = Table.matrix(skeleton.row_headers, skeleton.col_headers, grid)
    return table, GenerationTrace(cells=tuple(traces))


def _ref_batched_answers(
    questions, passage, backend, template, max_input_tokens, answer_max_new_tokens, numeric
):
    if not questions:
        return []
    requests = _ref_qa_requests(questions, passage, template, max_input_tokens, answer_max_new_tokens)
    return [
        None if isinstance(result, BackendError) else pipeline_module._postprocess(result.text, numeric)
        for result in backend.generate_batch(requests)
    ]


def _ref_update_table(
    table, delta, new_passage, kind, backend, *, template=None, max_input_tokens=2048,
    answer_max_new_tokens=64,
):
    if delta.is_empty():
        return table
    numeric = kind.numeric
    reask_slots = pipeline_module._resolve_reask(table, delta.reask)
    if table.orientation is Orientation.ATTRIBUTE_VALUE:
        if delta.add_row_headers:
            raise ValueError("attribute-value tables have no row-header axis to extend")
        existing = [h for h, _ in table.rows]
        combined = dedupe_headers([*existing, *delta.add_col_headers])
        new_headers = combined[len(existing):]
        plan = [("new", offset, formulate_question(None, header))
                for offset, header in enumerate(new_headers)]
        for _, index in reask_slots:
            plan.append(("reask", index, formulate_question(None, table.rows[index][0])))
        answers = _ref_batched_answers(
            [q for _, _, q in plan], new_passage, backend, template, max_input_tokens,
            answer_max_new_tokens, numeric,
        )
        rows = list(table.rows)
        appended = []
        for (target, index, _), value in zip(plan, answers):
            if target == "new":
                appended.append((new_headers[index], value))
            else:
                rows[index] = (rows[index][0], value)
        return Table.attribute_value(rows + appended)

    existing_rows = list(table.row_headers)
    existing_cols = list(table.col_headers)
    combined_rows = dedupe_headers([*existing_rows, *delta.add_row_headers])
    combined_cols = dedupe_headers([*existing_cols, *delta.add_col_headers])
    new_rows = combined_rows[len(existing_rows):]
    new_cols = combined_cols[len(existing_cols):]
    plan_matrix = []
    for i, row_header in enumerate(new_rows):
        r = len(existing_rows) + i
        for c, col_header in enumerate(combined_cols):
            plan_matrix.append((r, c, formulate_question(row_header, col_header, numeric)))
    for r, row_header in enumerate(existing_rows):
        for j, col_header in enumerate(new_cols):
            c = len(existing_cols) + j
            plan_matrix.append((r, c, formulate_question(row_header, col_header, numeric)))
    for r, c in reask_slots:
        plan_matrix.append((r, c, formulate_question(existing_rows[r], existing_cols[c], numeric)))
    answers = _ref_batched_answers(
        [q for _, _, q in plan_matrix], new_passage, backend, template, max_input_tokens,
        answer_max_new_tokens, numeric,
    )
    grid = [[*row, *([None] * len(new_cols))] for row in table.cells]
    grid.extend([[None] * len(combined_cols) for _ in new_rows])
    for (r, c, _), value in zip(plan_matrix, answers):
        grid[r][c] = value
    return Table.matrix(combined_rows, combined_cols, grid)


class TestStageTwoReference:
    """Generation and update give the tables, traces and prompt order they always have."""

    # Whitespace-edged, whitespace-only and "?"-ended headers pin that a
    # question's word count is the sum of its pieces'.
    HEADER = st.sampled_from(["Wins", "wins", "Points", "Hawks", "Magic", "a b", "Wins #2", "",
                              " Wins", "Wins ", "  ", "\tPts", "a\u00a0b", "Pts?"])
    ANSWERS = ["7", "scored 12 points", "unknown", "  Low  ", "N/A", "", "none", "twelve",
               MalformedResponse("bad json"), Unreachable("down")]
    KINDS = st.sampled_from(ALL_KINDS)
    # The packaged question template, one that asks before it shows the passage
    # (and asks twice), and the packaged one with a line after the question.
    TEMPLATES = st.sampled_from([
        None,
        PromptTemplate("question-first", "Question: {{question}}\n\nPassage: {{passage}}\n\n{{question}}"),
        PromptTemplate("line-after", default_qa_template().text.replace(
            "{{question}}", "{{question}}\nAnswer in a few words.")),
    ])

    @classmethod
    def run(cls, salt, call):
        """`call(backend)`'s result or error, and every prompt the backend got, in order."""
        prompts: list[str] = []

        def answer(prompt: str) -> str:
            prompts.append(prompt)
            choice = cls.ANSWERS[zlib.crc32(f"{salt}|{prompt}".encode()) % len(cls.ANSWERS)]
            if isinstance(choice, BackendError):
                raise choice
            return choice

        try:
            result = call(ScriptedBackend(answer, concurrency=1))
        except ValueError as err:
            result = (type(err), str(err))
        except BackendError as err:
            result = (type(err), str(err))
        if isinstance(result, tuple) and len(result) == 2 and isinstance(result[1], GenerationTrace):
            table, trace = result
            result = (table, dataclasses.replace(trace, content_ms=0.0))
        return result, prompts

    @settings(max_examples=150, deadline=None)
    @given(
        KINDS,
        st.lists(HEADER, max_size=4),
        st.lists(HEADER, max_size=4),
        st.sampled_from([2048, 150, 58, 50, 40, 12, None]),
        st.integers(0, 1000),
    )
    def test_generate_content_matches_reference(self, kind, rows, cols, budget, salt):
        if kind.orientation is Orientation.ATTRIBUTE_VALUE:
            rows = []
        skeleton = blank_table(kind.orientation, rows, cols)
        passage = "Magic won 7 games and scored 12 points in the fourth quarter."
        got = self.run(salt, lambda backend: generate_content(
            skeleton, passage, kind, backend, max_input_tokens=budget))
        want = self.run(salt, lambda backend: _ref_generate_content(
            skeleton, passage, kind, backend, max_input_tokens=budget))
        assert got == want

    @settings(max_examples=100, deadline=None)
    @given(KINDS, st.lists(HEADER, max_size=4), st.lists(HEADER, max_size=4), TEMPLATES,
           st.sampled_from([2048, 58, 50, 40, 12, None]), st.integers(0, 1000))
    def test_generate_content_with_other_templates_matches_reference(
        self, kind, rows, cols, template, budget, salt
    ):
        if kind.orientation is Orientation.ATTRIBUTE_VALUE:
            rows = []
        skeleton = blank_table(kind.orientation, rows, cols)
        passage = "Magic won 7 games and scored 12 points in the fourth quarter."
        got = self.run(salt, lambda backend: generate_content(
            skeleton, passage, kind, backend, template=template, max_input_tokens=budget))
        want = self.run(salt, lambda backend: _ref_generate_content(
            skeleton, passage, kind, backend, template=template, max_input_tokens=budget))
        assert got == want

    @staticmethod
    @st.composite
    def tables_and_deltas(draw):
        kind = draw(TestStageTwoReference.KINDS)
        header = TestStageTwoReference.HEADER.filter(bool)
        value = st.sampled_from([None, None, "3", "Low"])
        cols = dedupe_headers(draw(st.lists(header, max_size=3)))
        if kind.orientation is Orientation.ATTRIBUTE_VALUE:
            rows = []
            table = Table.attribute_value([(h, draw(value)) for h in cols])
            absent = [(draw(st.sampled_from([None, ""])), h) for h, v in table.rows if v is None]
            present = [(None, h) for h, v in table.rows if v is not None]
        else:
            rows = dedupe_headers(draw(st.lists(header, max_size=3)))
            table = Table.matrix(rows, cols, [[draw(value) for _ in cols] for _ in rows])
            absent = [(rows[r], cols[c]) for r in range(len(rows)) for c in range(len(cols))
                      if table.cells[r][c] is None]
            present = [(rows[r], cols[c]) for r in range(len(rows)) for c in range(len(cols))
                       if table.cells[r][c] is not None]
        reask = draw(st.lists(st.sampled_from(absent), unique=True)) if absent else []
        reask = [(r if r is None else draw(st.sampled_from([r, r.upper(), f" {r}"])), c)
                 for r, c in reask]
        if draw(st.integers(0, 9)) == 0:  # an invalid address, rejected the same way
            reask.append(draw(st.sampled_from(present + [(None, "Steals"), ("Celtics", "Wins")])))
        add_rows = draw(st.lists(TestStageTwoReference.HEADER, max_size=3))
        if kind.orientation is Orientation.ATTRIBUTE_VALUE and draw(st.integers(0, 4)):
            add_rows = []
        delta = SkeletonDelta(
            add_row_headers=add_rows,
            add_col_headers=draw(st.lists(TestStageTwoReference.HEADER, max_size=3)),
            reask=reask,
        )
        return kind, table, delta

    @settings(max_examples=300, deadline=None)
    @given(tables_and_deltas(), st.sampled_from([2048, 150, 58, 50, 40, 12, None]), st.integers(0, 1000))
    def test_update_table_matches_reference(self, case, budget, salt):
        kind, table, delta = case
        passage = "Magic won 7 games and scored 12 points in the fourth quarter."
        got = self.run(salt, lambda backend: update_table(
            table, delta, passage, kind, backend, max_input_tokens=budget))
        blank = [h for h in (*delta.add_row_headers, *delta.add_col_headers) if not normalize_text(h)]
        if blank:  # rejected up front since blank added headers became an error
            want = ((ValueError, f"added header {blank[0]!r} is blank"), [])
        else:
            want = self.run(salt, lambda backend: _ref_update_table(
                table, delta, passage, kind, backend, max_input_tokens=budget))
        assert got == want

    @settings(max_examples=100, deadline=None)
    @given(tables_and_deltas(), TEMPLATES, st.sampled_from([2048, 58, 50, 40, 12, None]), st.integers(0, 1000))
    def test_update_table_with_other_templates_matches_reference(self, case, template, budget, salt):
        kind, table, delta = case
        passage = "Magic won 7 games and scored 12 points in the fourth quarter."
        got = self.run(salt, lambda backend: update_table(
            table, delta, passage, kind, backend, template=template, max_input_tokens=budget))
        blank = [h for h in (*delta.add_row_headers, *delta.add_col_headers) if not normalize_text(h)]
        if blank:
            want = ((ValueError, f"added header {blank[0]!r} is blank"), [])
        else:
            want = self.run(salt, lambda backend: _ref_update_table(
                table, delta, passage, kind, backend, template=template, max_input_tokens=budget))
        assert got == want


class TestUpdateKeepsExistingHeaders:
    def test_existing_duplicate_headers_are_kept_and_asked_as_given(self):
        table = Table.matrix(["Magic", "magic"], ["Wins", "wins"], [[None, "1"], ["2", None]])
        prompts: list[str] = []
        backend = ScriptedBackend(lambda prompt: (prompts.append(prompt), "5")[1], concurrency=1)
        delta = SkeletonDelta(add_row_headers=["Suns"], add_col_headers=["Magic"],
                              reask=[("Magic", "Wins")])
        updated = update_table(table, delta, "Suns won 5.", DatasetKind.ROTOWIRE_TEAM, backend)
        assert updated.row_headers == ("Magic", "magic", "Suns")
        assert updated.col_headers == ("Wins", "wins", "Magic")
        questions = [formulate_question(r, c, True) for r, c in [
            ("Suns", "Wins"), ("Suns", "wins"), ("Suns", "Magic"),
            ("Magic", "Magic"), ("magic", "Magic"), ("Magic", "Wins"),
        ]]
        assert [q for p in prompts for q in questions if q in p] == questions


class TestUpdateDeltaChecks:
    """Added headers must name something, and re-ask addresses name distinct slots."""

    @pytest.mark.parametrize("field", ["add_row_headers", "add_col_headers"])
    @pytest.mark.parametrize("header", ["", "  \t", '""'])
    def test_blank_added_header_is_rejected_before_any_call(self, rotowire_team_sample, field, header):
        backend = CountingBackend(oracle_for(rotowire_team_sample))
        with pytest.raises(ValueError, match="is blank"):
            update_table(rotowire_team_sample.gold, SkeletonDelta(**{field: ["Raptors", header]}),
                         rotowire_team_sample.text, DatasetKind.ROTOWIRE_TEAM, backend)
        assert backend.calls == 0

    def test_blank_added_attribute_is_rejected(self, e2e_sample):
        with pytest.raises(ValueError, match="is blank"):
            update_table(Table.attribute_value(e2e_sample.gold.rows[:1]),
                         SkeletonDelta(add_col_headers=[" "]), e2e_sample.text, DatasetKind.E2E,
                         oracle_for(e2e_sample))

    def test_reask_matches_exact_header_text_first(self):
        table = Table.matrix(["Magic", "magic"], ["Wins", "wins"], [[None, None], [None, None]])
        resolve = pipeline_module._resolve_reask
        assert resolve(table, (("Magic", "Wins"),)) == [(0, 0)]
        assert resolve(table, (("magic", "wins"),)) == [(1, 1)]
        with pytest.raises(ValueError, match="row header 'MAGIC' in re-ask address matches 2 headers"):
            resolve(table, (("MAGIC", "Wins"),))
        with pytest.raises(ValueError, match="column header ' wins' in re-ask address matches 2"):
            resolve(table, (("Magic", " wins"),))

    def test_reask_by_unique_normalized_text_still_resolves(self):
        table = Table.attribute_value([("Name", None), ("Area", None)])
        assert pipeline_module._resolve_reask(table, ((None, " AREA"),)) == [(0, 1)]

    def test_repeated_reask_addresses_ask_each_slot_once(self, rotowire_team_sample):
        gold = rotowire_team_sample.gold
        blanked = Table.matrix(gold.row_headers, gold.col_headers,
                               [[None, "88", "21", "19"], [None, "95", None, "46"]])
        backend = CountingBackend(oracle_for(rotowire_team_sample))
        reask = (("Hawks", "Losses"), ("Hawks", "Losses"), ("hawks ", "LOSSES"), ("Magic", "Losses"),
                 ("Hawks", "Losses"))
        updated = update_table(blanked, SkeletonDelta(reask=reask), rotowire_team_sample.text,
                               DatasetKind.ROTOWIRE_TEAM, backend)
        assert backend.calls == 2
        assert updated == gold
        assert pipeline_module._resolve_reask(blanked, reask) == [(1, 0), (0, 0)]


# Re-ask lookup as it was when every header and address was normalized up
# front, kept verbatim as the reference the lazy lookup must reproduce.


def _ref_header_finder(headers, what):
    """Look up a re-ask address header on one axis: by exact text first, then
    by normalized text when that names exactly one header."""
    exact: dict[str, list[int]] = {}
    normalized: dict[str, list[int]] = {}
    for i, header in enumerate(headers):
        exact.setdefault(header, []).append(i)
        normalized.setdefault(normalize_text(header), []).append(i)

    def find(header: str) -> int:
        norm = normalize_text(header)
        matches = exact.get(header) or normalized.get(norm, [])
        if not matches:
            raise ValueError(f"unknown {what} {header!r} in re-ask address")
        if len(matches) > 1:
            raise ValueError(f"{what} {header!r} in re-ask address matches {len(matches)} headers")
        return matches[0]

    return find


class TestReaskReference:
    """Re-ask addresses resolve to the slots, or fail with the message, they always have."""

    # Exact duplicates, and headers that collide only once normalized (case,
    # padding, quotes, inner whitespace), so an address can hit, miss or be ambiguous.
    HEADER = st.sampled_from(["Wins", "wins", "WINS", " Wins", "Wins ", '"Wins"', "'wins'", "Losses",
                              "a  b", "A B", "Pts", "", " "])

    @staticmethod
    def outcome(resolve, table, reask):
        try:
            return resolve(table, reask)
        except ValueError as err:
            return str(err)

    @classmethod
    def address_header(cls, headers):
        """A header of the axis as given or as a normalized collision, or any other header."""
        if not headers:
            return cls.HEADER
        known = st.sampled_from(headers)
        return st.one_of(known, known.map(lambda h: f" {h.upper()} "), known.map(lambda h: f'"{h}"'),
                         cls.HEADER)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(list(Orientation)), st.lists(HEADER, max_size=5), st.lists(HEADER, max_size=5),
           st.data())
    def test_resolve_reask_matches_reference(self, orientation, rows, cols, data):
        if orientation is Orientation.ATTRIBUTE_VALUE:
            rows = []
            row = st.sampled_from([None, None, None, "", "Wins"])
        else:
            row = st.one_of(st.none(), self.address_header(rows))
        height = 1 if orientation is Orientation.ATTRIBUTE_VALUE else len(rows)
        value = st.sampled_from([None, None, None, "v"])
        cells = data.draw(st.lists(st.lists(value, min_size=len(cols), max_size=len(cols)),
                                   min_size=height, max_size=height))
        table = Table(orientation, rows, cols, cells)
        reask = data.draw(st.lists(st.tuples(row, self.address_header(cols)), min_size=1, max_size=4))
        got = self.outcome(pipeline_module._resolve_reask, table, tuple(reask))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pipeline_module, "_header_finder", _ref_header_finder)
            assert got == self.outcome(pipeline_module._resolve_reask, table, tuple(reask))


class TestSkeletonDelta:
    @pytest.mark.parametrize("field", ["add_row_headers", "add_col_headers", "reask"])
    def test_bare_string_is_rejected(self, field):
        with pytest.raises(TypeError, match=f"{field} must be a sequence"):
            SkeletonDelta(**{field: "Raptors"})

    @pytest.mark.parametrize("address", ["Hi", "ab", ("a", "b", "c"), None, ("a",), 7])
    def test_reask_address_must_be_a_pair(self, address):
        with pytest.raises(TypeError, match=f"re-ask address {re.escape(repr(address))} must be"):
            SkeletonDelta(reask=[("Hawks", "Wins"), address])

    @pytest.mark.parametrize(
        "fields",
        [{"add_row_headers": [1]}, {"add_col_headers": ["Wins", None]}, {"reask": [("Hawks", 4)]},
         {"reask": [(2, "Wins")]}, {"reask": [(None, None)]}],
    )
    def test_non_string_header_is_rejected(self, fields):
        with pytest.raises(TypeError, match="headers must be strings"):
            SkeletonDelta(**fields)


class TestUpdateProperty:
    """For any valid table and any delta, either a ValueError or TypeError names the delta
    before any call, or the table grows by exactly the added headers, keeps every untouched
    cell, and asks each distinct slot once."""

    HEADER = st.sampled_from(
        ["Wins", "wins", " WINS ", '"Wins"', "Wins #2", "Magic", "a b", "", " ", "\t"]
    )
    # Messages that name a part of the delta without quoting it, and when each may be raised.
    FIXED_MESSAGES = {
        "attribute-value re-ask addresses have no row header":
            lambda table, delta: any(r not in (None, "") for r, _ in delta.reask),
        "attribute-value tables have no row-header axis to extend":
            lambda table, delta: bool(delta.add_row_headers),
        "cannot ask under column header":  # a question needs a column header to ask about
            lambda table, delta: "" in table.col_headers and (
                bool(delta.add_row_headers) or any(not normalize_text(c) for _, c in delta.reask)),
    }

    @staticmethod
    @st.composite
    def cases(draw):
        header = TestUpdateProperty.HEADER
        kind = draw(st.sampled_from(ALL_KINDS))
        attribute_value = kind.orientation is Orientation.ATTRIBUTE_VALUE
        rows = [] if attribute_value else draw(st.lists(header, max_size=3))
        cols = draw(st.lists(header, max_size=3))
        value = st.sampled_from([None, None, "3", "Low"])
        height = 1 if attribute_value else len(rows)
        table = Table(kind.orientation, rows, cols, [[draw(value) for _ in cols] for _ in range(height)])

        def near(headers):  # a table header as given, recased or padded, or any header at all
            named = st.sampled_from(headers).flatmap(lambda h: st.sampled_from([h, h.upper(), f" {h}"]))
            return st.one_of(named, header) if headers else header

        row_part = st.sampled_from([None, None, ""]) if attribute_value else near(rows)
        address = st.tuples(row_part, near(cols))
        if draw(st.integers(0, 9)) == 0:  # not a pair: rejected by name
            address = st.one_of(address, st.sampled_from(["Wins", ("Magic", "Wins", "Losses")]))
        fields = {
            "add_row_headers": draw(st.lists(header, max_size=3)) if draw(st.booleans()) else [],
            "add_col_headers": draw(st.lists(header, max_size=3)),
            "reask": draw(st.lists(address, max_size=4)),
        }
        return kind, table, fields

    @classmethod
    def names_the_delta(cls, message: str, table: Table, fields: dict) -> bool:
        for fixed, may_raise in cls.FIXED_MESSAGES.items():
            if message.startswith(fixed):
                return may_raise(table, SkeletonDelta(**fields))
        named = [*fields["add_row_headers"], *fields["add_col_headers"], *fields["reask"]]
        named += [h for address in fields["reask"] if isinstance(address, tuple) for h in address]
        return any(repr(h) in message for h in named)

    @settings(max_examples=300, deadline=None)
    @given(cases())
    def test_update_names_its_error_or_grows_keeps_and_asks_once(self, case):
        kind, table, fields = case
        backend = CountingBackend(ScriptedBackend(lambda p: "7"))
        try:
            delta = SkeletonDelta(**fields)
            updated = update_table(table, delta, "Magic won 7 games.", kind, backend)
        except (ValueError, TypeError) as err:
            assert self.names_the_delta(str(err), table, fields), str(err)
            assert backend.calls == 0
            return

        old_height, old_width = len(table.cells), len(table.col_headers)
        for old, added, new in [
            (table.row_headers, delta.add_row_headers, updated.row_headers),
            (table.col_headers, delta.add_col_headers, updated.col_headers),
        ]:
            assert new[: len(old)] == old
            assert len(new) == len(old) + len(added)
            for given_header, header in zip(added, new[len(old):]):
                assert header == given_header or header.rsplit(" #", 1)[0].strip() == given_header.strip()
            kept = {normalize_text(h) for h in old}
            grown = [normalize_text(h) for h in new[len(old):]]
            assert len(set(grown)) == len(grown) and not kept & set(grown)
        assert len(updated.cells) == old_height + len(delta.add_row_headers)

        reasked = set()
        for r, row in enumerate(updated.cells):
            for c, value in enumerate(row):
                if r >= old_height or c >= old_width:
                    assert value == "7"  # every new slot is asked
                elif value != table.cells[r][c]:
                    assert (table.cells[r][c], value) == (None, "7")
                    reasked.add((r, c))
        row_names = updated.row_headers or [None]
        named = {
            (normalize_text(row_names[r] or ""), normalize_text(updated.col_headers[c]))
            for r, c in reasked
        }
        assert named == {(normalize_text(r or ""), normalize_text(c)) for r, c in delta.reask}
        new_slots = len(updated.cells) * len(updated.col_headers) - old_height * old_width
        assert backend.calls == new_slots + len(reasked)
