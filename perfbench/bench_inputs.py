"""Seeded input generator for the benchmark's three workloads.

Everything the program later reads is written here as JSONL in the
corpus format `tabgen.corpus.load_jsonl` accepts. The in-memory records
returned by `build` also carry the bookkeeping the checks need: which
cells the prediction file changed or dropped, and which row and cells
the update input lost. That bookkeeping never reaches the program.

This module imports nothing from `tabgen`, so a set-up probe can import
it before the timed import of the program.

    python3 perfbench/bench_inputs.py --workload boxscore --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("boxscore", "many-small", "remote")

# Dataset kinds, as `tabgen.kinds.DatasetKind` values, in the order their
# samples are registered with the oracle.
KINDS = {
    "boxscore": ("rotowire-team", "rotowire-player"),
    "many-small": ("e2e", "wikibio", "wikitabletext"),
    "remote": ("rotowire-team",),
}

# Backend set-up per workload: concurrency and the injected per-call delay.
BACKENDS = {
    "boxscore": {"concurrency": 1, "delay_s": 0.0},
    "many-small": {"concurrency": 1, "delay_s": 0.0},
    "remote": {"concurrency": 2, "delay_s": 0.002},
}

FILES = ("gold", "pred", "update")

ABSENT_SHARE = 0.2  # box-score cells left absent in the gold table
CHANGED_SHARE = 0.05  # box-score prediction cells given a wrong value
DROPPED_SHARE = 0.03  # box-score prediction cells left out
BLANKED_SHARE = 0.05  # box-score update-input cells blanked for re-asking
IDENTICAL_SHARE = 0.25  # predictions equal to their gold table
PASSAGE_WORDS = 300  # box-score recap length
SMALL_PER_KIND = 480  # many-small samples per kind: 80 of each row count 3..8
# Many-small (source, duplicate) pairs per kind that share a passage opening
# of at least 120 characters: the 48 duplicates are one sample in ten.
PLANTED_PAIRS = 48
CATALOGUES = {"e2e": "restaurants", "wikibio": "biographies", "wikitabletext": "sporting records"}
TEAM_COLS = (
    "Wins", "Losses", "Total points", "Points in 1st quarter", "Points in 2nd quarter",
    "Points in 3rd quarter", "Points in 4th quarter", "Rebounds", "Assists",
)
PLAYER_COLS = (
    "Points", "Rebounds", "Assists", "Steals", "Blocks", "Turnovers", "Minutes played",
    "Field goals made", "Field goals attempted", "Three pointers made",
    "Three pointers attempted", "Free throws made", "Free throws attempted",
    "Offensive rebounds", "Defensive rebounds", "Personal fouls", "Field goal percentage",
    "Three point percentage", "Free throw percentage", "Starts",
)
TEAMS = (
    "Hawks", "Celtics", "Nets", "Hornets", "Bulls", "Cavaliers", "Mavericks", "Nuggets",
    "Pistons", "Warriors", "Rockets", "Pacers", "Clippers", "Lakers", "Grizzlies", "Heat",
    "Bucks", "Timberwolves", "Pelicans", "Knicks", "Thunder", "Magic", "Sixers", "Suns",
    "Blazers", "Kings", "Spurs", "Raptors", "Jazz", "Wizards",
)
FIRST = (
    "Aaron", "Adele", "Bruno", "Carla", "Dario", "Elena", "Felix", "Greta", "Hugo", "Ines",
    "Jonas", "Karin", "Lukas", "Mira", "Nils", "Olga", "Pavel", "Rosa", "Sven", "Tara",
    "Ugo", "Vera", "Willem", "Xenia", "Yusuf", "Zora", "Anton", "Beatriz", "Cyril", "Dalia",
    "Emil", "Fiona", "Gustav", "Hanna", "Igor", "Julia", "Kasper", "Lena", "Matteo", "Nadia",
)
LAST = (
    "Abara", "Bergstrom", "Castellano", "Dvorak", "Eklund", "Fairweather", "Gallardo",
    "Halvorsen", "Ibsen", "Jaworski", "Kowalczyk", "Lindqvist", "Moreau", "Nakagawa",
    "Okonkwo", "Petrakis", "Quintero", "Rasmussen", "Sandoval", "Tanaka", "Ulrich",
    "Valdivia", "Wojcik", "Xavier", "Yamamoto", "Zielinski", "Achebe", "Brannigan",
    "Cardoso", "Delacroix", "Esposito", "Fontaine", "Grimaldi", "Hakimi", "Iversen",
    "Jovanovic", "Kristensen", "Lombardi", "Marchetti", "Novak",
)
# Surnames used only by the planted samples, so no other passage names them.
PLANTED_LAST = ("Ashdown", "Blackwood", "Copperfield", "Dunmore", "Eastwick", "Foxhall")
VENUE_ADJ = (
    "Golden", "Silver", "Blue", "Red", "Green", "Old", "New", "Little", "Grand", "Royal",
    "Hidden", "Rustic", "Crooked", "Quiet", "Sunny", "Misty", "Copper", "Velvet", "Amber",
    "Ivory", "Scarlet", "Wild", "Lucky", "Humble", "Merry",
)
VENUE_NOUN = (
    "Fork", "Spoon", "Kettle", "Lantern", "Anchor", "Oak", "Willow", "Harbour", "Garden",
    "Table", "Barrel", "Crown", "Feather", "Meadow", "Bridge", "Orchard", "Hearth",
    "Compass", "Pepper", "Thistle", "Falcon", "Otter", "Sparrow", "Cellar", "Lighthouse",
)
PLANTED_VENUE_NOUN = ("Tavern", "Bistro", "Canteen", "Brasserie", "Diner", "Grill")
LANDMARKS = (
    "Burger King", "the Crowne Plaza", "Central Station", "the riverside market",
    "the cathedral", "the museum of art", "Express by Holiday Inn", "the old mill",
    "the university library", "the ferry terminal",
)
CITIES = (
    "Leeds", "Accra", "Porto", "Lyon", "Gdansk", "Tampere", "Bergen", "Osaka", "Cork",
    "Valencia", "Graz", "Brno", "Turin", "Aarhus", "Quito", "Perth",
)
E2E_FIELDS = {
    "Eat type": ("restaurant", "coffee shop", "pub", "bistro"),
    "Food": ("French", "Italian", "Japanese", "Indian", "English", "Chinese", "Fast food"),
    "Price range": ("cheap", "moderate", "high", "less than 20 pounds", "more than 30 pounds"),
    "Customer rating": ("low", "average", "high", "5 out of 5", "1 out of 5"),
    "Area": ("city centre", "riverside"),
    "Family friendly": ("yes", "no"),
    "Near": LANDMARKS,
}
WIKIBIO_FIELDS = {
    "Birth date": None,  # a date
    "Birth place": CITIES,
    "Nationality": ("English", "Ghanaian", "Portuguese", "French", "Polish", "Finnish", "Japanese"),
    "Occupation": ("mathematician", "novelist", "architect", "cyclist", "painter", "chemist"),
    "Known for": ("bridge design", "short stories", "road racing", "number theory", "murals"),
    "Years active": None,  # a year range
    "Death place": CITIES,
}
WTT_FIELDS = {
    "Title": ("Hamburg Marathon", "Giro Rosa", "Stockholm Open", "Tour of Flanders",
              "Berlin Half Marathon", "Paris Masters", "Nordic Cup", "Alpine Classic"),
    "Year": None,  # a year
    "Sport": ("road running", "road cycling", "tennis", "cross-country skiing", "rowing"),
    "Venue": CITIES,
    "Result": ("won", "second place", "third place", "did not finish", "quarter-final"),
    "Country": ("Germany", "Italy", "Sweden", "Belgium", "Norway", "Austria", "Japan"),
    "Subtitle": ("Other activities", "Major results", "Career highlights", "Season record"),
}
FIELDS = {"e2e": E2E_FIELDS, "wikibio": WIKIBIO_FIELDS, "wikitabletext": WTT_FIELDS}
MONTHS = ("January", "February", "March", "April", "May", "June", "July", "August",
          "September", "October", "November", "December")


@dataclass
class Record:
    """One sample, its derived inputs, and the facts the checks compare against."""

    id: str
    text: str
    gold: dict  # canonical table JSON
    pred: dict  # gold with `changed` cells altered and `dropped` cells removed
    changed: int
    dropped: int
    update_input: dict  # gold minus `removed_header`, with `blanked` cells absent
    removed_header: str
    blanked: list = field(default_factory=list)  # [row header or None, col header]
    planted: bool = False  # opens like an earlier passage of the same kind


@dataclass
class Corpus:
    workload: str
    seed: int
    by_kind: dict  # kind -> list[Record], in file order

    def records(self):
        for kind in KINDS[self.workload]:
            yield from self.by_kind[kind]


def slot_count(table: dict) -> int:
    """Skeleton slots of a gold table: R*C for a matrix, rows for attribute-value."""
    if table["orientation"] == "matrix":
        return len(table["row_headers"]) * len(table["col_headers"])
    return len(table["rows"])


def update_slot_count(record: Record) -> int:
    """Slots an update delta asks for: the removed row (or attribute) plus re-asks."""
    gold = record.gold
    row_width = len(gold["col_headers"]) if gold["orientation"] == "matrix" else 1
    return row_width + len(record.blanked)


# --- box scores -------------------------------------------------------------


def _stat(rng: random.Random, col: str) -> str:
    if "percentage" in col:
        return str(rng.randint(20, 70))
    if col in ("Wins", "Losses"):
        return str(rng.randint(5, 60))
    if col == "Total points":
        return str(rng.randint(80, 130))
    if col.startswith("Points in"):
        return str(rng.randint(14, 40))
    if col == "Minutes played":
        return str(rng.randint(4, 42))
    if col == "Points":
        return str(rng.randint(0, 38))
    return str(rng.randint(0, 14))


def _box_table(rng: random.Random, rows: list, cols: tuple) -> dict:
    grid = [[_stat(rng, c) for c in cols] for _ in rows]
    slots = [(r, c) for r in range(len(rows)) for c in range(len(cols))]
    for r, c in rng.sample(slots, round(ABSENT_SHARE * len(slots))):
        grid[r][c] = None
    return {"orientation": "matrix", "row_headers": list(rows), "col_headers": list(cols),
            "cells": grid}


def _box_passage(rng: random.Random, game: int, table: dict, team: bool) -> str:
    """A RotoWire-like recap of about PASSAGE_WORDS words that cites some present cells.

    The game number opens the passage, so its first 120 characters occur
    in no other passage of the corpus.
    """
    rows, cols, cells = table["row_headers"], table["col_headers"], table["cells"]
    weekday = rng.choice(("Monday", "Wednesday", "Friday", "Saturday"))
    home, away = rng.sample(TEAMS, 2)
    parts = [f"In game {game} of the season, played on {weekday}, {rng.choice(MONTHS)}"
             f" {rng.randint(1, 28)}, the {home} hosted the {away} in front of a crowd of"
             f" {rng.randint(12, 21)} thousand."]
    words = sum(len(p.split()) for p in parts)
    order = list(range(len(rows)))
    rng.shuffle(order)
    i = 0
    while words < PASSAGE_WORDS:
        r = order[i % len(order)]
        i += 1
        stats = [(cols[c], cells[r][c]) for c in rng.sample(range(len(cols)), 3)
                 if cells[r][c] is not None]
        if stats:
            said = ", ".join(f"{v} {h.lower()}" for h, v in stats)
            subject = f"The {rows[r]}" if team else rows[r]
            sentence = f"{subject} finished with {said}."
        else:
            sentence = rng.choice((
                "The second half was a tight affair with several lead changes.",
                "Both benches were thin after a long road trip.",
                "The coaching staff praised the defensive effort after the game.",
            ))
        parts.append(sentence)
        words += len(sentence.split())
    return " ".join(parts)


def _box_records(rng: random.Random, kind: str, count: int, first_game: int) -> list:
    team = kind == "rotowire-team"
    records = []
    for n in range(count):
        if team:
            rows = rng.sample(TEAMS, 8)
            cols = TEAM_COLS
        else:
            rows = [f"{f} {l}" for f, l in rng.sample([(f, l) for f in FIRST for l in LAST], 26)]
            cols = PLAYER_COLS
        gold = _box_table(rng, rows, cols)
        text = _box_passage(rng, first_game + n, gold, team)
        records.append(_derive(rng, f"{kind}-{n:03d}", text, gold, numeric=True))
    return records


# --- attribute-value tables ---------------------------------------------------


def _av_fields(rng: random.Random, kind: str, name: str, rows: int) -> list:
    order = list(FIELDS[kind])
    headers = sorted(rng.sample(order, rows - 1), key=order.index)
    return [("Name", name), *((h, _field_value(rng, kind, h)) for h in headers)]


def _field_value(rng: random.Random, kind: str, header: str) -> str:
    pool = FIELDS[kind][header]
    if pool is not None:
        return rng.choice(pool)
    if header == "Birth date":
        return f"{rng.randint(1, 28)} {rng.choice(MONTHS)} {rng.randint(1900, 1990)}"
    if header == "Years active":
        start = rng.randint(1920, 1990)
        return f"{start} to {start + rng.randint(3, 30)}"
    return str(rng.randint(1950, 2015))  # Year


def _av_passage(rows: list) -> str:
    """One or two sentences naming every value, led by the sample's unique name."""
    name = rows[0][1]
    facts = [f"{h.lower()} {v}" for h, v in rows[1:]]
    half = (len(facts) + 1) // 2
    first = f"{name} is recorded with " + ", ".join(facts[:half]) + "."
    if len(facts) <= 3:
        return first
    return first + " The entry also gives " + ", ".join(facts[half:]) + "."


def _different(rng: random.Random, kind: str, header: str, value: str) -> str:
    """A value for `header` whose normalized form differs from `value`."""
    if header == "Name":
        return value + " Annex"
    while True:  # every pool holds at least two values
        other = _field_value(rng, kind, header)
        if other.lower() != value.lower():
            return other


def _small_kind(rng: random.Random, kind: str, names: list, planted_rng: random.Random,
                planted_names: list) -> list:
    """480 samples: 384 seeded ones plus 48 planted (source, duplicate) pairs.

    Each planted pair shares an opening of at least 120 characters and
    its headers, but no value. The pairs come from a fixed generator, so
    the samples the oracle's passage lookup confuses are the same for
    every seed; only their file positions follow the seed.
    """
    shapes = [3, 4, 5, 6, 7, 8]
    entries = []  # (id, fields, text, planted)
    for n, rows in enumerate(shapes * (SMALL_PER_KIND // 6 - 2 * PLANTED_PAIRS // 6)):
        fields = _av_fields(rng, kind, names[n], rows)
        entries.append((f"{kind}-{n:03d}", fields, _av_passage(fields), False))

    pairs = []
    for p, rows in enumerate(shapes * (PLANTED_PAIRS // 6)):
        source = _av_fields(planted_rng, kind, planted_names[2 * p], rows)
        dup = [(h, planted_names[2 * p + 1] if h == "Name" else _different(planted_rng, kind, h, v))
               for h, v in source]
        opening = (
            f"From the {1990 + p} edition of the regional records office catalogue of"
            f" {CATALOGUES[kind]}, volume {p + 1}, section {chr(65 + p % 26)}, as transcribed"
            f" for the public archive reading room: "
        )
        pairs.append(((f"{kind}-planted-{p}a", source, opening + _av_passage(source), False),
                      (f"{kind}-planted-{p}b", dup, opening + _av_passage(dup), True)))
        entries.extend(pairs[-1])
    rng.shuffle(entries)
    for source, dup in pairs:  # a duplicate must follow the passage it copies
        i, j = entries.index(source), entries.index(dup)
        if j < i:
            entries[i], entries[j] = dup, source

    records = []
    for sample_id, fields, text, planted in entries:
        gold = {"orientation": "attribute_value",
                "rows": [{"header": h, "value": v} for h, v in fields]}
        record = _derive(rng, sample_id, text, gold, numeric=False, kind=kind)
        record.planted = planted
        records.append(record)
    return records


# --- derived inputs -----------------------------------------------------------


def _derive(rng: random.Random, sample_id: str, text: str, gold: dict, *, numeric: bool,
            kind: str = "") -> Record:
    """Prediction and update inputs for one gold table, with their bookkeeping."""
    matrix = gold["orientation"] == "matrix"
    if matrix:
        present = [(r, c) for r, row in enumerate(gold["cells"]) for c, v in enumerate(row)
                   if v is not None]
    else:
        present = [(None, i) for i in range(len(gold["rows"]))]

    def value_at(r, c):
        return gold["cells"][r][c] if matrix else gold["rows"][c]["value"]

    # Prediction: a known set of changed and dropped cells, or none at all.
    pred = json.loads(json.dumps(gold))
    changed: list = []
    dropped: list = []
    if rng.random() >= IDENTICAL_SHARE:
        if matrix:
            n_changed = max(1, round(CHANGED_SHARE * len(present)))
            n_dropped = max(1, round(DROPPED_SHARE * len(present)))
        else:
            n_changed, n_dropped = 1, (1 if len(present) > 4 else 0)
        picked = rng.sample(present, n_changed + n_dropped)
        changed, dropped = picked[:n_changed], picked[n_changed:]
    for r, c in changed:
        old = value_at(r, c)
        if numeric:
            new = str(int(old) + rng.randint(1, 9))
        else:
            header = gold["rows"][c]["header"]
            new = _different(rng, kind, header, old)
        if matrix:
            pred["cells"][r][c] = new
        else:
            pred["rows"][c]["value"] = new
    for r, c in dropped:
        if matrix:
            pred["cells"][r][c] = None
        else:
            pred["rows"][c]["value"] = None

    # Update input: one row (attribute) removed, some present cells blanked.
    update_input = json.loads(json.dumps(gold))
    if matrix:
        removed = rng.randrange(len(gold["row_headers"]))
        removed_header = gold["row_headers"][removed]
        del update_input["row_headers"][removed]
        del update_input["cells"][removed]
        keep = [(r, c) for r, c in present if r != removed]
        n_blank = round(BLANKED_SHARE * len(gold["row_headers"]) * len(gold["col_headers"]))
        blank = sorted(rng.sample(keep, n_blank))
        blanked = [[gold["row_headers"][r], gold["col_headers"][c]] for r, c in blank]
        for r, c in blank:
            update_input["cells"][r - (r > removed)][c] = None
    else:
        removed = rng.randrange(1, len(gold["rows"]))  # the Name row always stays
        removed_header = gold["rows"][removed]["header"]
        del update_input["rows"][removed]
        r = rng.randrange(len(update_input["rows"]))
        blanked = [[None, update_input["rows"][r]["header"]]]
        update_input["rows"][r]["value"] = None

    return Record(id=sample_id, text=text, gold=gold, pred=pred, changed=len(changed),
                  dropped=len(dropped), update_input=update_input,
                  removed_header=removed_header, blanked=blanked)


# --- entry points -------------------------------------------------------------


def build(workload: str, seed: int) -> Corpus:
    """The workload's corpus for `seed`; the same seed always gives the same corpus."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}/{seed}")
    by_kind: dict = {}
    if workload == "boxscore":
        by_kind["rotowire-team"] = _box_records(rng, "rotowire-team", 12, 100)
        by_kind["rotowire-player"] = _box_records(rng, "rotowire-player", 12, 500)
    elif workload == "remote":
        by_kind["rotowire-team"] = _box_records(rng, "rotowire-team", 24, 100)
    else:
        people = [f"{f} {l}" for f in FIRST for l in LAST]
        venues = [f"The {a} {n}" for a in VENUE_ADJ for n in VENUE_NOUN]
        rng.shuffle(people)
        rng.shuffle(venues)
        planted_rng = random.Random("many-small/planted")  # independent of the seed
        planted_people = [f"{f} {l}" for l in PLANTED_LAST for f in FIRST]
        planted_venues = [f"The {a} {n}" for n in PLANTED_VENUE_NOUN for a in VENUE_ADJ]
        planted_rng.shuffle(planted_people)
        planted_rng.shuffle(planted_venues)
        half, planted_half = len(people) // 2, len(planted_people) // 2
        by_kind["e2e"] = _small_kind(rng, "e2e", venues, planted_rng, planted_venues)
        by_kind["wikibio"] = _small_kind(rng, "wikibio", people[:half], planted_rng,
                                         planted_people[:planted_half])
        by_kind["wikitabletext"] = _small_kind(rng, "wikitabletext", people[half:],
                                               planted_rng, planted_people[planted_half:])
    return Corpus(workload=workload, seed=seed, by_kind=by_kind)


def corpus_file(directory: Path, kind: str, name: str) -> Path:
    return Path(directory) / f"{kind}.{name}.jsonl"


def write(corpus: Corpus, directory: Path) -> None:
    """Write gold, prediction and update-input JSONL files, one set per kind."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    tables = {"gold": lambda r: r.gold, "pred": lambda r: r.pred,
              "update": lambda r: r.update_input}
    for kind, records in corpus.by_kind.items():
        for name in FILES:
            lines = [
                json.dumps({"id": r.id, "text": r.text, "table": tables[name](r)},
                           sort_keys=True, ensure_ascii=False)
                for r in records
            ]
            corpus_file(directory, kind, name).write_text("\n".join(lines) + "\n", "utf-8")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the JSONL files")
    args = parser.parse_args()
    write(build(args.workload, args.seed), Path(args.out))


if __name__ == "__main__":
    main()
