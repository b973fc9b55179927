from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tabgen.table import (
    CellTuple,
    EmptyInput,
    InvalidTable,
    Orientation,
    StructuralError,
    Table,
    Violation,
    dedupe_headers,
    header_issues,
    normalize_text,
    parse_flat,
    serialize_flat,
    table_from_json,
    table_to_json,
    to_tuples,
)

# Already-normalized building blocks: the flat format cannot represent "|"
# or "<NEWLINE>" inside a cell, and normalization is identity on these.
WORDS = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=8)
PHRASES = st.lists(WORDS, min_size=1, max_size=3).map(" ".join)
VALUES = st.one_of(st.none(), PHRASES)


@st.composite
def attribute_tables(draw):
    headers = draw(st.lists(PHRASES, min_size=1, max_size=6, unique=True))
    return Table.attribute_value([(h, draw(VALUES)) for h in headers])


@st.composite
def matrix_tables(draw):
    row_headers = draw(st.lists(PHRASES, min_size=1, max_size=5, unique=True))
    col_headers = draw(st.lists(PHRASES, min_size=1, max_size=5, unique=True))
    cells = [[draw(VALUES) for _ in col_headers] for _ in row_headers]
    return Table.matrix(row_headers, col_headers, cells)


class TestTableChecksItsGrid:
    """A `Table` is rectangular by construction: any other grid raises InvalidTable when built."""

    def test_team_grid_builds(self, rotowire_team_sample):
        gold = rotowire_team_sample.gold
        assert Table.matrix(gold.row_headers, gold.col_headers, gold.cells) == gold

    @pytest.mark.parametrize(
        "orientation, row_headers, col_headers, cells",
        [
            (Orientation.MATRIX, [], [], []),
            (Orientation.MATRIX, ["a"], [], [[]]),
            (Orientation.MATRIX, [], ["x", "y"], []),
            (Orientation.ATTRIBUTE_VALUE, (), ["Name"], [[None]]),
            (Orientation.ATTRIBUTE_VALUE, (), [], [[]]),
        ],
        ids=["empty-matrix", "no-columns", "no-rows", "attribute-value", "no-attributes"],
    )
    def test_rectangular_grids_build(self, orientation, row_headers, col_headers, cells):
        table = Table(orientation, row_headers, col_headers, cells)
        assert table.cells == tuple(map(tuple, cells))

    @pytest.mark.parametrize(
        "orientation, row_headers, cells, violations",
        [
            (Orientation.MATRIX, ["a", "b"], [["1", "2", "3"], ["1", "2", "3", "4"]],
             [("row_width", 1, 3, 4)]),
            (Orientation.MATRIX, ["a", "b"], [["1", "2", "3"]], [("row_count", -1, 2, 1)]),
            (Orientation.MATRIX, ["a 1", "a 2"], [["1", "2", "3"], ["4"]],
             [("row_width", 1, 3, 1)]),
            (Orientation.MATRIX, ["a"], [["1"], ["2", "3", "4", "5"]],
             [("row_width", 0, 3, 1), ("row_width", 1, 3, 4), ("row_count", -1, 1, 2)]),
            (Orientation.ATTRIBUTE_VALUE, (), [], [("row_count", -1, 1, 0)]),
            (Orientation.ATTRIBUTE_VALUE, (), [["1", "2", "3"], ["2", "3", "4"]],
             [("row_count", -1, 1, 2)]),
            (Orientation.ATTRIBUTE_VALUE, (), [["1", "2", "3", "4"]], [("row_width", 0, 3, 4)]),
            (Orientation.ATTRIBUTE_VALUE, (), [[]], [("row_width", 0, 3, 0)]),
            (Orientation.ATTRIBUTE_VALUE, ("r",), [["1", "2", "3"]], [("row_headers", -1, 0, 1)]),
            (Orientation.ATTRIBUTE_VALUE, ("r", "s"), [["1"], ["2"]],
             [("row_width", 0, 3, 1), ("row_width", 1, 3, 1), ("row_headers", -1, 0, 2),
              ("row_count", -1, 1, 2)]),
        ],
        ids=["ragged-row", "missing-row", "short-row", "every-violation-in-row-order",
             "attribute-value-no-row", "attribute-value-two-rows", "attribute-value-too-wide",
             "attribute-value-too-narrow", "attribute-value-row-header",
             "attribute-value-every-violation"],
    )
    def test_any_other_grid_raises_with_every_violation(self, orientation, row_headers, cells,
                                                        violations):
        with pytest.raises(InvalidTable) as raised:
            Table(orientation, row_headers, ["x", "y", "z"], cells)
        expected = tuple(Violation(*v) for v in violations)
        assert raised.value.violations == expected
        assert str(raised.value) == f"invalid table: {expected}"
        assert isinstance(raised.value, ValueError)

    def test_a_changed_copy_is_checked_too(self):
        table = Table.matrix(["a"], ["x"], [["1"]])
        with pytest.raises(InvalidTable):
            dataclasses.replace(table, col_headers=("x", "y"))

    @pytest.mark.parametrize(
        "data",
        [
            {"orientation": "matrix", "row_headers": ["a"], "col_headers": ["x", "y"],
             "cells": [["1"]]},
            {"orientation": "matrix", "row_headers": ["a", "b"], "col_headers": ["x"],
             "cells": [["1"]]},
        ],
        ids=["ragged", "missing-row"],
    )
    def test_json_from_outside_fails_at_the_boundary(self, data):
        with pytest.raises(InvalidTable, match="^invalid table: "):
            table_from_json(data)

    @given(st.lists(st.lists(VALUES, max_size=4), max_size=4), st.integers(0, 4), st.integers(0, 4))
    def test_a_grid_builds_exactly_when_it_is_rectangular(self, cells, height, width):
        rows, cols = [f"r{i}" for i in range(height)], [f"c{j}" for j in range(width)]
        if len(cells) == height and all(len(row) == width for row in cells):
            assert Table.matrix(rows, cols, cells).shape == (height, width)
        else:
            with pytest.raises(InvalidTable):
                Table.matrix(rows, cols, cells)


class TestAttributeValueGrid:
    """An attribute-value table is a one-row grid with no row header; its pairs are derived."""

    def test_attributes_are_column_headers_and_values_are_one_row(self):
        table = Table.attribute_value([("Name", "The Eagle"), ("Food", None)])
        assert table.row_headers == ()
        assert table.col_headers == ("Name", "Food")
        assert table.cells == (("The Eagle", None),)
        assert table.rows == (("Name", "The Eagle"), ("Food", None))
        assert Table.matrix(["a"], ["x"], [["1"]]).rows == ()

    @given(st.lists(st.tuples(PHRASES, VALUES), max_size=6))
    def test_the_grid_form_equals_the_pairs_form(self, pairs):
        cols, values = [h for h, _ in pairs], [v for _, v in pairs]
        table = Table(Orientation.ATTRIBUTE_VALUE, (), cols, [values])
        assert table == Table.attribute_value(zip(cols, values))

    @given(st.lists(st.tuples(st.text(), st.one_of(st.none(), st.text())), max_size=8))
    def test_arbitrary_pairs_round_trip(self, pairs):
        table = Table.attribute_value(pairs)
        assert table.rows == tuple(pairs)
        assert table_from_json(table_to_json(table)) == table
        assert Table.attribute_value(table.rows) == table
        assert to_tuples(table) == {
            CellTuple("", normalize_text(header), normalize_text(value))
            for header, value in pairs
            if value is not None and normalize_text(value)
        }


class TestNormalize:
    def test_collapses_and_lowercases(self):
        assert normalize_text("  The   Eagle ") == "the eagle"

    def test_date(self):
        assert normalize_text("12 February 1949") == "12 february 1949"

    def test_empty(self):
        assert normalize_text("") == ""

    def test_strips_quotes(self):
        assert normalize_text('"The Eagle"') == "the eagle"
        assert normalize_text("“quoted”") == "quoted"

    @given(st.text(max_size=40))
    def test_idempotent(self, text):
        assert normalize_text(normalize_text(text)) == normalize_text(text)


class TestDedupe:
    def test_suffixes_duplicates(self):
        assert dedupe_headers(["Name", "Name"]) == ["Name", "Name #2"]

    def test_case_insensitive(self):
        assert dedupe_headers(["Name", "name"]) == ["Name", "name #2"]

    def test_triple(self):
        assert dedupe_headers(["a", "a", "a"]) == ["a", "a #2", "a #3"]

    def test_suffix_collision(self):
        assert dedupe_headers(["a", "a #2", "a"]) == ["a", "a #2", "a #3"]


class TestSerialize:
    def test_attribute_value_format(self):
        table = Table.attribute_value([("Name", "The Eagle"), ("Food", "Japanese")])
        assert serialize_flat(table) == "Name | The Eagle<NEWLINE>Food | Japanese"

    def test_matrix_corner_is_empty(self):
        table = Table.matrix(["Suns"], ["Wins"], [["46"]])
        assert serialize_flat(table) == " | Wins<NEWLINE>Suns | 46"

    def test_absent_cell_serializes_empty(self):
        table = Table.matrix(["Hawks"], ["Wins", "Points in 4th quarter"], [["46", None]])
        assert serialize_flat(table) == " | Wins | Points in 4th quarter<NEWLINE>Hawks | 46 | "


class TestParse:
    def test_attribute_value(self):
        table = parse_flat("Name | The Eagle<NEWLINE>Food | Japanese", Orientation.ATTRIBUTE_VALUE)
        assert table.rows == (("Name", "The Eagle"), ("Food", "Japanese"))

    def test_ragged_raises_with_widths(self):
        with pytest.raises(StructuralError) as excinfo:
            parse_flat("a | b | c<NEWLINE>d | e", Orientation.ATTRIBUTE_VALUE)
        assert excinfo.value.widths == [3, 2]

    def test_blank_raises_empty_input(self):
        with pytest.raises(EmptyInput):
            parse_flat("", Orientation.ATTRIBUTE_VALUE)
        with pytest.raises(EmptyInput):
            parse_flat("   ", Orientation.MATRIX)

    def test_whitespace_around_separator_tolerated(self):
        table = parse_flat("Name|The Eagle", Orientation.ATTRIBUTE_VALUE)
        assert table.rows == (("Name", "The Eagle"),)

    def test_matrix_corner_content_dropped(self):
        table = parse_flat("Team | Wins<NEWLINE>Suns | 46", Orientation.MATRIX)
        assert table.col_headers == ("Wins",)
        assert table.row_headers == ("Suns",)
        assert table.cells == (("46",),)

    def test_empty_cells_become_absent(self):
        table = parse_flat(" | Wins | Losses<NEWLINE>Hawks | 46 | ", Orientation.MATRIX)
        assert table.cells == (("46", None),)

    def test_duplicate_headers_suffixed(self):
        table = parse_flat("Name | a<NEWLINE>Name | b", Orientation.ATTRIBUTE_VALUE)
        assert [h for h, _ in table.rows] == ["Name", "Name #2"]

    def test_uniform_wide_rows_keep_extra_cells_in_value(self):
        table = parse_flat("a | b | c<NEWLINE>d | e | f", Orientation.ATTRIBUTE_VALUE)
        assert table.rows == (("a", "b | c"), ("d", "e | f"))

    def test_header_only_matrix(self):
        table = parse_flat(" | Wins | Losses", Orientation.MATRIX)
        assert table.col_headers == ("Wins", "Losses")
        assert table.row_headers == ()
        assert table.cells == ()


class TestRoundTrip:
    @given(attribute_tables())
    def test_attribute_value(self, table):
        assert parse_flat(serialize_flat(table), Orientation.ATTRIBUTE_VALUE) == table

    @given(matrix_tables())
    def test_matrix(self, table):
        assert parse_flat(serialize_flat(table), Orientation.MATRIX) == table


class TestToTuples:
    def test_wikibio_example(self, wikibio_sample):
        assert to_tuples(wikibio_sample.gold) == {
            CellTuple("", "debut team", "washington senators"),
            CellTuple("", "name", "lenny randle"),
            CellTuple("", "birth date", "12 february 1949"),
        }

    def test_all_absent_matrix_yields_empty_set(self):
        table = Table.matrix(["a"], ["x", "y"], [[None, None]])
        assert to_tuples(table) == set()

    def test_team_example_has_seven_tuples(self, rotowire_team_sample):
        # One of the eight slots (Hawks, points in 4th quarter) is absent.
        assert len(to_tuples(rotowire_team_sample.gold)) == 7

    @given(st.one_of(attribute_tables(), matrix_tables()))
    def test_cardinality_matches_present_cells(self, table):
        assert len(to_tuples(table)) == table.present_cell_count()


class TestJson:
    @given(st.one_of(attribute_tables(), matrix_tables()))
    def test_round_trip(self, table):
        assert table_from_json(table_to_json(table)) == table

    def test_orientation_inferred_from_rows_key(self):
        table = table_from_json({"rows": [{"header": "Name", "value": "x"}]})
        assert table.orientation is Orientation.ATTRIBUTE_VALUE

    def test_rejects_non_object(self):
        with pytest.raises(ValueError):
            table_from_json([1, 2])

    def test_rejects_bad_orientation(self):
        with pytest.raises(ValueError):
            table_from_json({"orientation": "diagonal", "rows": []})

    def test_rejects_numeric_cells(self):
        data = {"orientation": "matrix", "row_headers": ["a"], "col_headers": ["x"], "cells": [[46]]}
        with pytest.raises(ValueError):
            table_from_json(data)

    def test_rejects_missing_rows(self):
        with pytest.raises(ValueError):
            table_from_json({"orientation": "attribute_value"})


class TestHeaderIssues:
    def test_clean_table_has_none(self, rotowire_team_sample):
        assert header_issues(rotowire_team_sample.gold) == []

    def test_reports_duplicates_and_empties(self):
        table = Table.attribute_value([("Name", "a"), ("name", "b"), ("  ", "c")])
        issues = header_issues(table)
        assert len(issues) == 2
