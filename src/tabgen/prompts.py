"""Prompt construction, header-sequence parsing, question synthesis, answer cleanup."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from importlib import resources
from typing import Collection, Iterator

from tabgen.kinds import DatasetKind
from tabgen.table import Orientation, Table, dedupe_headers, normalize_text

SEP_TOKEN = "<SEP>"
ROWCOL_TOKEN = "<ROWCOL>"

# Whitespace token count times this factor approximates subword token count.
TOKEN_ESTIMATE_FACTOR = 1.3

DEFAULT_NO_ANSWER = frozenset({"unknown", "n/a", "none", "not mentioned", ""})


_SLOT_RE = re.compile(r"\{\{(passage|question)\}\}")


class NoHeaders(ValueError):
    """A header sequence parsed to nothing usable."""


@dataclass(frozen=True)
class PromptTemplate:
    """A named template with one {{passage}} slot and at most one {{question}} slot.

    Any other set of slots is a ValueError naming the template, raised
    when it is built.
    """

    name: str
    text: str

    def __post_init__(self):
        if self.pieces[1] not in (("passage",), ("passage", "question"), ("question", "passage")):
            raise ValueError(
                f"template {self.name!r} needs one {{{{passage}}}} slot and at most one {{{{question}}}} slot"
            )

    def render(self, *, passage: str, question: str | None = None) -> str:
        """The template with its slots filled: `question` joins `segments(passage)`."""
        segments = self.segments(passage)
        if question is None:
            if len(segments) > 1:
                raise ValueError(f"template {self.name!r} has a question slot but no question given")
            return segments[0]
        return question.join(segments)

    def segments(self, passage: str) -> list[str]:
        """The template's text on each side of its question slot, the passage filled in.

        There is one segment without a question slot and two with one, so
        `question.join(segments)` is the prompt for any question. A value
        is never read for slots, so slot markers and braces inside a
        filled-in value stay text.
        """
        first, middle, last, passage_first = self.layout
        if middle is None:
            return [first + passage + last]
        return [first + passage + middle, last] if passage_first else [first, middle + passage + last]

    @cached_property
    def pieces(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """The literal texts around the slots and the slot names, in order.

        There is one more literal than there are slots; a literal may be empty.
        """
        parts = _SLOT_RE.split(self.text)
        return tuple(parts[0::2]), tuple(parts[1::2])

    def fits(self, prompt: str) -> Iterator[tuple[tuple[int, int], tuple[int, int] | None]]:
        """Every way `render` could have built `prompt`, longest passage first.

        A way is the (start, end) offsets in `prompt` of the passage and of
        the question (None for a template without a question slot). The
        prompt must open with the literal before the first slot and close
        with the one after the last; each occurrence of the literal between
        two slots is one way. Ways are found as they are asked for, so the
        first costs no scan of the whole prompt.
        """
        first, middle, last, passage_first = self.layout
        start, end = len(first), len(prompt) - len(last)
        if end < start or not prompt.startswith(first) or not prompt.endswith(last):
            return
        if middle is None:
            yield (start, end), None
        elif passage_first:
            cut = prompt.rfind(middle, start, end)
            while cut != -1:
                yield (start, cut), (cut + len(middle), end)
                cut = prompt.rfind(middle, start, cut + len(middle) - 1)
        else:
            cut = prompt.find(middle, start, end)
            while cut != -1:
                yield (cut + len(middle), end), (start, cut)
                cut = prompt.find(middle, cut + 1, end)

    @cached_property
    def layout(self) -> tuple[str, str | None, str, bool]:
        """(first literal, middle literal or None, last literal, whether the passage comes first)."""
        literals, slots = self.pieces
        middle = literals[1] if len(slots) == 2 else None
        return literals[0], middle, literals[-1], slots[0] == "passage"

    @cached_property
    def overhead_tokens(self) -> int:
        """Estimated token cost of the template text itself, slots excluded."""
        bare = self.text.replace("{{passage}}", "").replace("{{question}}", "")
        return estimate_tokens(bare)


@lru_cache(maxsize=None)
def _load_packaged(name: str) -> PromptTemplate:
    text = resources.files("tabgen").joinpath("templates", f"{name}.txt").read_text("utf-8")
    return PromptTemplate(name=name, text=text)


def default_structure_template(kind: DatasetKind) -> PromptTemplate:
    return _load_packaged(f"structure_{kind.value}")


def default_qa_template() -> PromptTemplate:
    return _load_packaged("qa")


def default_baseline_template(orientation: Orientation) -> PromptTemplate:
    return _load_packaged(f"baseline_{orientation.value}")


def packaged_templates() -> list[PromptTemplate]:
    """Every template the package ships: question, then structure per kind, then baseline."""
    return [
        default_qa_template(),
        *map(default_structure_template, DatasetKind),
        *map(default_baseline_template, Orientation),
    ]


def estimate_tokens(text: str) -> int:
    return words_to_tokens(len(text.split()))


def words_to_tokens(words: int) -> int:
    """The token estimate of a text of `words` whitespace-separated words."""
    return math.ceil(words * TOKEN_ESTIMATE_FACTOR)


def _blank(text: str) -> bool:
    """True for empty or all-whitespace text, tested without copying it as `strip()` would."""
    return not text or text.isspace()


def truncate_passage(passage: str, budget_tokens: int | None, overhead_tokens: int = 0) -> str:
    """Head-truncate the passage so the estimated prompt size fits the budget.

    At least one word is always kept so prompts stay non-empty. A text of
    n characters holds at most (n + 1) // 2 words, so a passage whose
    length already bounds its estimate under the budget is returned
    without being split.
    """
    if budget_tokens is None:
        return passage
    available = budget_tokens - overhead_tokens
    if words_to_tokens((len(passage) + 1) // 2) <= available:
        return passage
    if estimate_tokens(passage) <= available:
        return passage
    keep = max(1, math.floor(available / TOKEN_ESTIMATE_FACTOR))
    return " ".join(passage.split()[:keep])


def parse_header_sequence(text: str) -> list[str]:
    """Split a "<SEP>"-joined header sequence into clean, de-duplicated headers.

    Pieces that are empty (or normalize to empty) are dropped; duplicates
    get the " #2" suffix treatment. Raises NoHeaders when nothing remains.
    """
    kept = [(piece.strip(), norm) for piece in text.split(SEP_TOKEN) if (norm := normalize_text(piece))]
    if not kept:
        raise NoHeaders(f"no headers in {text!r}")
    pieces = [piece for piece, _ in kept]
    return pieces if len({norm for _, norm in kept}) == len(kept) else dedupe_headers(pieces)


def structure_answer(table: Table) -> str:
    """`table`'s headers as the `<SEP>`-joined sequence that `parse_structure_answer` reads,
    a matrix's row headers before `<ROWCOL>` and its column headers after."""
    cols = f" {SEP_TOKEN} ".join(table.col_headers)
    if table.orientation is Orientation.ATTRIBUTE_VALUE:
        return cols
    return f" {SEP_TOKEN} ".join(table.row_headers) + f" {ROWCOL_TOKEN} " + cols


def parse_structure_answer(
    text: str, orientation: Orientation
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Turn a raw structure answer into (row_headers, col_headers).

    Matrix answers carry both axes around a "<ROWCOL>" divider. When the
    divider is missing, every header is treated as a column header of a
    header-only table rather than rejecting the answer outright.
    """
    if orientation is Orientation.MATRIX and ROWCOL_TOKEN in text:
        left, right = text.split(ROWCOL_TOKEN, 1)
        try:
            row_headers = tuple(parse_header_sequence(left))
        except NoHeaders:
            row_headers = ()
        return row_headers, tuple(parse_header_sequence(right))
    return (), tuple(parse_header_sequence(text))


def formulate_question(
    row_header: str | None, col_header: str, numeric_hint: bool = False
) -> str:
    """Render the per-cell question; headers are inserted verbatim.

    The numeric hint switches to the "number of" phrasing used for
    statistics tables.
    """
    if not col_header:
        raise ValueError("col_header must be non-empty")
    if row_header is None or row_header == "":
        return question_alone(col_header)
    return question_head(col_header, numeric_hint) + row_header + "?"


def question_head(col_header: str, numeric_hint: bool = False) -> str:
    """A question about a row up to its row header, which `formulate_question` follows with "?"."""
    return f"What is the {'number of ' if numeric_hint else ''}{col_header} for "


def question_alone(col_header: str) -> str:
    """The question for a cell with no row header."""
    return f"What is the {col_header}?"


def _require_slots(template: PromptTemplate, asks: bool) -> None:
    """Raise ValueError unless `template` has a question slot exactly when it `asks`."""
    if ("question" in template.pieces[1]) != asks:
        need = f"one {{{{passage}}}} slot and {'one' if asks else 'no'} {{{{question}}}} slot"
        raise ValueError(f"template {template.name!r} needs {need}")


def _fit(template: PromptTemplate, passage: str, budget: int | None, question_words: int = 0) -> list[str]:
    """`template.segments` of `passage` head-truncated so that, with a question of
    `question_words` words joined in, the prompt fits `budget` tokens."""
    overhead = template.overhead_tokens + words_to_tokens(question_words)
    return template.segments(truncate_passage(passage, budget, overhead))


def _fill(template: PromptTemplate, passage: str, budget: int | None, question: str | None = None) -> str:
    """`template` filled in, its passage head-truncated so the prompt fits `budget` tokens."""
    if _blank(passage):
        raise ValueError("passage must be non-empty")
    _require_slots(template, question is not None)
    if question is None:
        return _fit(template, passage, budget)[0]
    if _blank(question):
        raise ValueError("question must be non-empty")
    return question.join(_fit(template, passage, budget, len(question.split())))


def build_structure_prompt(
    passage: str,
    kind: DatasetKind,
    template: PromptTemplate | None = None,
    max_input_tokens: int | None = None,
) -> str:
    return _fill(template or default_structure_template(kind), passage, max_input_tokens)


def build_qa_prompt(
    passage: str,
    question: str,
    template: PromptTemplate | None = None,
    max_input_tokens: int | None = None,
) -> str:
    return _fill(template or default_qa_template(), passage, max_input_tokens, question)


def build_baseline_prompt(
    passage: str,
    orientation: Orientation,
    template: PromptTemplate | None = None,
    max_input_tokens: int | None = None,
) -> str:
    return _fill(template or default_baseline_template(orientation), passage, max_input_tokens)


_UNITS = {
    "zero": 0, "one": 1, "two": 2, "three": 3, "four": 4,
    "five": 5, "six": 6, "seven": 7, "eight": 8, "nine": 9,
}
_TEENS = {
    "ten": 10, "eleven": 11, "twelve": 12, "thirteen": 13, "fourteen": 14,
    "fifteen": 15, "sixteen": 16, "seventeen": 17, "eighteen": 18, "nineteen": 19,
}
_TENS = {
    "twenty": 20, "thirty": 30, "forty": 40, "fifty": 50,
    "sixty": 60, "seventy": 70, "eighty": 80, "ninety": 90,
}
_WORD_VALUES = {**_UNITS, **_TEENS, **_TENS, "a": 1, "hundred": 100}

_UNIT_ALT = "|".join(_UNITS)
_TEEN_ALT = "|".join(_TEENS)
_TEN_ALT = "|".join(_TENS)
_JOIN = r"(?:[\s-]|\band\b)+"
_BELOW_HUNDRED = rf"(?:(?:{_TEN_ALT})(?:[\s-](?:{_UNIT_ALT}))?|(?:{_TEEN_ALT})|(?:{_UNIT_ALT}))"
_NUMBER_WORD_RE = re.compile(
    rf"\b(?:(?:{_UNIT_ALT}|a)[\s-]hundred(?:{_JOIN}{_BELOW_HUNDRED})?|{_BELOW_HUNDRED})\b",
    re.IGNORECASE,
)
_DIGITS_RE = re.compile(r"\d{1,3}(?:,\d{3})+(?!\d)|\d+")  # "18,624" is one number


def _words_to_int(phrase: str) -> int:
    total = 0
    for token in re.split(r"[\s-]+", phrase.lower()):
        if token == "and":
            continue
        value = _WORD_VALUES[token]
        if value == 100:
            total = (total or 1) * 100
        else:
            total += value
    return total


def extract_numeric(answer: str) -> int | None:
    """Return the first number in the answer, reading digits and spelled-out cardinals.

    Digits grouped by commas in thousands are one number ("1,024" is 1024). The leftmost occurrence wins regardless of form, so "scored 21 and
    five" yields 21 while "talled just five points" yields 5. Returns
    None when no number is present, or when the first is a digit run
    longer than Python converts between int and str (4,300 digits by
    default).
    """
    digit_match = _DIGITS_RE.search(answer)
    word_match = _NUMBER_WORD_RE.search(answer)
    if digit_match and (not word_match or digit_match.start() <= word_match.start()):
        try:
            return int(digit_match.group().replace(",", ""))
        except ValueError:
            return None
    if word_match:
        return _words_to_int(word_match.group())
    return None


def detect_no_answer(answer: str, no_answer_values: Collection[str] = DEFAULT_NO_ANSWER) -> bool:
    """True when the normalized answer is one of the configured refusal markers."""
    return normalize_text(answer) in no_answer_values
