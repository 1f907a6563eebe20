"""Property tests: ``load_csv`` and ``save_csv`` agree with row-at-a-time loops.

Each example draws a small schema (mixed column kinds and roles), a
building or frozen vocabulary, a file that often spans more than one
chunk of ``CSV_CHUNK_ROWS`` rows, and a few faults at random cells, many
of them next to a chunk boundary. The chunked loader must give exactly
what the reference loop in ``csv_oracle`` gives: the same arrays (bytes
and dtype), row count and vocabularies, or the same DataError text. A
file that loads must also be written back byte for byte as the
reference writer writes it, or, when a category id has no source value
(an unknown slot), both writers must refuse it with UsageError.
Examples are derandomized, so the suite is deterministic, and every
file stays under a few hundred kB.
"""

import csv
import io
import random

import pytest

pytest.importorskip("hypothesis")

from csv_oracle import oracle_load_csv, oracle_save_csv  # noqa: E402
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fairint.data import CSV_CHUNK_ROWS, FeatureColumn, load_csv, save_csv  # noqa: E402
from fairint.errors import DataError, UsageError  # noqa: E402

DIFFERENTIAL = settings(max_examples=80, deadline=None, derandomize=True, database=None)

# category texts, some of which the csv writer must quote
CATEGORIES = ["a", "b", "c d", "x,y", 'q"r', "", " a", "é"]
SENSITIVE = ["f", "m"]
NUMBERS = ["0", "1.5", "-2", " 3 ", "1_000", "-0", "1e5", "4.25e-3", "12345678901234567890"]
LABELS = ["0", "1", "1.0", " 0", "-0", "0e0"]
# texts that are bad in a numerical, label or sensitive cell; some are fine elsewhere
BAD_TEXTS = ["abc", "nan", "inf", "-inf", "1e400", "2", "-1", "0.5", "", "zz", "1,5", "0x1"]
FAULTS = ["text", "text", "text", "short", "long", "not_utf8", "over_limit"]  # mostly bad cells
NOT_UTF8 = "\udcff"  # written as the single byte 0xff
OVER_LIMIT = "9" * (csv.field_size_limit() + 1)
# most files end next to a chunk boundary, on either side of it
ROW_COUNTS = [CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1, CSV_CHUNK_ROWS + 5,
              2 * CSV_CHUNK_ROWS, 2 * CSV_CHUNK_ROWS + 3]


@st.composite
def schemas(draw):
    columns = [
        FeatureColumn("s", "categorical", "sensitive", cardinality=2),
        FeatureColumn("y", draw(st.sampled_from(["numerical", "categorical"])), "label",
                      cardinality=None),
    ]
    if columns[1].kind == "categorical":
        columns[1] = FeatureColumn("y", "categorical", "label", cardinality=2)
    for i in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            columns.append(FeatureColumn(f"n{i}", "numerical", "non_sensitive"))
        else:
            columns.append(FeatureColumn(f"c{i}", "categorical", "non_sensitive", cardinality=draw(st.integers(1, 4))))
    return draw(st.permutations(columns))


def cell_texts(col, rng):
    """A function giving a valid random cell of ``col``."""
    if col.role == "label":
        return lambda: rng.choice(LABELS)
    if col.role == "sensitive":
        return lambda: rng.choice(SENSITIVE)
    if col.kind == "numerical":
        return lambda: rng.choice(NUMBERS) if rng.random() < 0.3 else repr(rng.gauss(0.0, 1e3))
    pool = CATEGORIES[: col.cardinality + 2]  # more values than fit, so some map to the unknown slot
    return lambda: rng.choice(pool)


@st.composite
def vocabularies(draw, schema):
    """None (the loader builds them), or frozen vocabularies, some with a repeated entry."""
    if draw(st.booleans()):
        return None
    vocabs = {}
    for col in schema:
        if col.kind != "categorical" or col.role == "label":
            continue
        pool = SENSITIVE if col.role == "sensitive" else CATEGORIES[: col.cardinality + 2]
        vocab = draw(st.permutations(pool))[: 2 if col.role == "sensitive" else col.cardinality]
        if draw(st.booleans()):
            vocab.insert(draw(st.integers(0, len(vocab))), draw(st.sampled_from(vocab)))
        vocabs[col.name] = vocab
    return vocabs


@st.composite
def fault_rows(draw, n):
    """A data row index, often one next to a chunk boundary."""
    boundaries = [b + d for b in range(CSV_CHUNK_ROWS, n + 1, CSV_CHUNK_ROWS) for d in (-1, 0)]
    if boundaries and draw(st.booleans()):
        return min(draw(st.sampled_from(boundaries)), n - 1)
    return draw(st.integers(0, n - 1))


def render(header, rows) -> bytes:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue().encode("utf-8", "surrogateescape")


def outcome(loader, path, schema, vocabs):
    try:
        ds = loader(path, schema, vocabularies=vocabs)
    except DataError as exc:
        return "error", str(exc)
    arrays = {name: (a.dtype.str, a.flags.writeable, a.tobytes()) for name, a in ds.columns.items()}
    return "loaded", ds.n, arrays, ds.vocabularies, ds.schema


@DIFFERENTIAL
@given(data=st.data())
def test_chunked_load_and_columnar_save_match_the_row_loops(tmp_path_factory, data):
    schema = data.draw(schemas())
    vocabs = data.draw(vocabularies(schema))
    n = data.draw(st.sampled_from(ROW_COUNTS) | st.integers(1, 2 * CSV_CHUNK_ROWS + 2))
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    makers = [cell_texts(col, rng) for col in schema]
    rows = [[make() for make in makers] for _ in range(n)]

    over_limit = False
    for _ in range(data.draw(st.integers(0, 4))):
        row, pos = data.draw(fault_rows(n)), data.draw(st.integers(0, len(schema) - 1))
        fault = data.draw(st.sampled_from(FAULTS))
        if not rows[row]:  # emptied by earlier faults
            continue
        pos %= len(rows[row])
        if fault == "text":
            rows[row][pos] = data.draw(st.sampled_from(BAD_TEXTS))
        elif fault == "short":
            del rows[row][pos]
        elif fault == "long":
            rows[row].insert(pos, data.draw(st.sampled_from(["", "1"])))
        elif fault == "not_utf8":
            rows[row][pos] = rows[row][pos] + NOT_UTF8
        elif not over_limit:  # at most one, to keep the file small
            rows[row][pos], over_limit = OVER_LIMIT, True

    path = tmp_path_factory.mktemp("differential") / "data.csv"
    path.write_bytes(render([c.name for c in schema], rows))
    expected = outcome(oracle_load_csv, path, schema, vocabs)
    assert outcome(load_csv, path, schema, vocabs) == expected

    if expected[0] == "loaded":
        dataset = load_csv(path, schema, vocabularies=vocabs)
        assert written(save_csv, dataset, path.with_name("ours.csv")) == written(
            oracle_save_csv, dataset, path.with_name("theirs.csv"))


def written(writer, dataset, path):
    try:
        writer(dataset, path)
    except UsageError:
        return UsageError
    return path.read_bytes()
