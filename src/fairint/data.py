"""Schema-driven CSV ingestion, encoding, splitting, batching, and synthesis.

Datasets are stored column-major: categoricals as int64 category ids,
numericals and labels as float64. A dataset is raw after loading;
:func:`split` tags rows and standardizes numericals with train-split
statistics, and :func:`apply_standardization` reuses saved statistics for
data that arrives after training. Arrays are frozen read-only so loaded
datasets can be shared safely.

Every categorical column reserves one extra "unknown" slot past its
declared cardinality: a column declared with cardinality 2 encodes its two
seen categories as 0 and 1 and maps anything else to 2.
"""

import csv
import io
import json
import math
from dataclasses import dataclass, replace
from itertools import chain, islice, repeat

import numpy as np

from .errors import ConfigError, DataError, UsageError, check_int, check_number, located

KIND_CATEGORICAL = "categorical"
KIND_NUMERICAL = "numerical"
ROLE_SENSITIVE = "sensitive"
ROLE_NON_SENSITIVE = "non_sensitive"
ROLE_LABEL = "label"

SPLIT_CODES = {"train": 0, "val": 1, "test": 2}

# rows that load_csv parses at a time; bounds the text it holds in memory
CSV_CHUNK_ROWS = 4096

__all__ = [
    "FeatureColumn",
    "Dataset",
    "Batch",
    "load_schema",
    "parse_schema",
    "save_schema",
    "load_csv",
    "save_csv",
    "split",
    "mean_std",
    "apply_standardization",
    "epoch_permutation",
    "batches",
    "full_batch",
    "synth_generate",
    "SYNTH_SCHEMA",
]


@dataclass(frozen=True)
class FeatureColumn:
    """One column: its name, value kind, and role in the learning problem.

    ``cardinality`` counts the known categories only; the encoded id space
    is one larger because of the unknown slot (see :attr:`table_size`).
    """

    name: str
    kind: str
    role: str
    cardinality: int | None = None

    @property
    def table_size(self) -> int:
        if self.kind != KIND_CATEGORICAL:
            raise UsageError(f"column {self.name!r} is not categorical")
        return self.cardinality + 1

    @property
    def unknown_id(self) -> int:
        if self.kind != KIND_CATEGORICAL:
            raise UsageError(f"column {self.name!r} is not categorical")
        return self.cardinality


def _validate_schema(columns: list[FeatureColumn]) -> list[FeatureColumn]:
    if not columns:
        raise DataError("schema has no columns")
    names = [c.name for c in columns]
    if len(set(names)) != len(names):
        raise DataError("schema has duplicate column names")
    for c in columns:
        if c.kind not in (KIND_CATEGORICAL, KIND_NUMERICAL):
            raise DataError(f"column {c.name!r}: unknown kind {c.kind!r}")
        if c.role not in (ROLE_SENSITIVE, ROLE_NON_SENSITIVE, ROLE_LABEL):
            raise DataError(f"column {c.name!r}: unknown role {c.role!r}")
        if c.kind == KIND_CATEGORICAL:
            if type(c.cardinality) is not int or c.cardinality < 1:  # type() excludes bools
                raise DataError(f"column {c.name!r}: categorical cardinality must be a positive int")
        elif c.cardinality is not None:
            raise DataError(f"column {c.name!r}: numerical columns take no cardinality")
    labels = [c for c in columns if c.role == ROLE_LABEL]
    if len(labels) != 1:
        raise DataError(f"schema needs exactly one label column, found {len(labels)}")
    sensitive = [c for c in columns if c.role == ROLE_SENSITIVE]
    if len(sensitive) != 1:
        raise DataError(f"schema needs exactly one sensitive column, found {len(sensitive)}")
    # only binary sensitive groups are supported for now
    s = sensitive[0]
    if s.kind != KIND_CATEGORICAL or s.cardinality != 2:
        raise DataError(f"sensitive column {s.name!r} must be categorical with cardinality 2")
    if not any(c.role == ROLE_NON_SENSITIVE for c in columns):
        raise DataError("schema needs at least one non-sensitive column")
    return columns


@dataclass
class Dataset:
    """An encoded table plus everything needed to interpret it.

    ``columns`` maps column name to a full-length array (int64 category
    ids or float64 values). ``split_tags`` is None until :func:`split`
    runs, then holds 0/1/2 for train/val/test per row.
    ``standardize_stats`` maps numerical column name to (mean, std) once
    standardization has been applied. Treat instances as immutable.
    """

    schema: list[FeatureColumn]
    columns: dict[str, np.ndarray]
    vocabularies: dict[str, list[str]]
    n: int
    split_tags: np.ndarray | None = None
    standardize_stats: dict[str, tuple[float, float]] | None = None

    @property
    def input_columns(self) -> list[FeatureColumn]:
        return [c for c in self.schema if c.role == ROLE_NON_SENSITIVE]

    @property
    def sensitive_column(self) -> FeatureColumn:
        return next(c for c in self.schema if c.role == ROLE_SENSITIVE)

    @property
    def label_column(self) -> FeatureColumn:
        return next(c for c in self.schema if c.role == ROLE_LABEL)

    def decode(self, column: str, category_id: int) -> str:
        vocab = self.vocabularies[column]
        if not 0 <= category_id < len(vocab):
            raise UsageError(f"column {column!r}: id {category_id} has no recorded source value")
        return vocab[category_id]


@dataclass
class Batch:
    """Rows the model sees at once.

    ``features`` holds only non-sensitive input columns; the sensitive
    column travels separately in ``true_sensitive`` for losses and metrics
    and is structurally excluded from the model's input path.
    """

    features: dict[str, np.ndarray]
    labels: np.ndarray
    true_sensitive: np.ndarray

    @property
    def size(self) -> int:
        return self.labels.shape[0]


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


# -- schema files -------------------------------------------------------------


def load_schema(path) -> list[FeatureColumn]:
    """Read a JSON schema file: a list of {name, kind, cardinality, role}."""
    with located(path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except ValueError as exc:  # not UTF-8, not JSON, or an integer too long to convert
            raise DataError(f"schema is not valid JSON: {exc}") from exc
        return parse_schema(doc)


def parse_schema(doc) -> list[FeatureColumn]:
    """Validate a decoded schema document."""
    if not isinstance(doc, list):
        raise DataError("schema must be a JSON array of column objects")
    columns = []
    for i, entry in enumerate(doc):
        if not isinstance(entry, dict):
            raise DataError(f"schema entry {i} is not an object")
        missing = {"name", "kind", "cardinality", "role"} - set(entry)
        if missing:
            raise DataError(f"schema entry {i} is missing {sorted(missing)}")
        if not all(isinstance(entry[key], str) for key in ("name", "kind", "role")):
            raise DataError(f"schema entry {i} needs a string name, kind and role")
        columns.append(
            FeatureColumn(
                name=entry["name"],
                kind=entry["kind"],
                role=entry["role"],
                cardinality=entry["cardinality"],
            )
        )
    return _validate_schema(columns)


def schema_entry(column: FeatureColumn) -> dict:
    """The JSON object :func:`parse_schema` reads back into ``column``."""
    return {"name": column.name, "kind": column.kind, "cardinality": column.cardinality, "role": column.role}


def save_schema(schema: list[FeatureColumn], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([schema_entry(c) for c in schema], fh, indent=2)
        fh.write("\n")


# -- CSV ingestion ------------------------------------------------------------


def _cell_fault(col: FeatureColumn, text: str) -> str | None:
    """Why ``text`` is not a cell of ``col``, or None for a label that Python's ``float``
    reads as 0 or 1 and a numerical cell it reads as a finite number. A categorical
    cell reaches here only when it is a sensitive value outside the two known groups."""
    if col.role != ROLE_LABEL and col.kind == KIND_CATEGORICAL:
        return f"sensitive value {text!r} is not one of the two known groups"
    try:
        value = float(text)
    except ValueError:
        value = None
    if col.role == ROLE_LABEL:
        return None if value in (0.0, 1.0) else f"label {text!r} is not 0 or 1"
    if value is None:
        return f"{text!r} is not a number"
    return None if math.isfinite(value) else f"non-finite value {text!r}"


def _encode_column(col: FeatureColumn, texts: tuple, col_ids: dict, vocab: list, building: bool):
    """One column of a chunk as an array, and the index of its first bad cell or None.

    Labels and numericals convert with Python's ``float``, so every text it
    accepts parses as before; a vectorized check then finds bad values, and
    only a column that fails it is scanned cell by cell.
    """
    count = len(texts)
    if col.role == ROLE_LABEL or col.kind == KIND_NUMERICAL:
        try:
            values = np.fromiter(map(float, texts), np.float64, count)
        except ValueError:
            return None, next(i for i, text in enumerate(texts) if _cell_fault(col, text))
        ok = (values == 0.0) | (values == 1.0) if col.role == ROLE_LABEL else np.isfinite(values)
    else:
        if building and len(vocab) < col.cardinality:
            # new categories take the next ids in order of first appearance until the column is full
            for text in dict.fromkeys(texts):
                if len(vocab) == col.cardinality:
                    break
                if text not in col_ids:
                    col_ids[text] = len(vocab)
                    vocab.append(text)
        values = np.fromiter(map(col_ids.get, texts, repeat(col.unknown_id)), np.int64, count)
        if col.role != ROLE_SENSITIVE:
            return values, None
        ok = values != col.unknown_id
    return values, None if ok.all() else int(np.argmin(ok))


def _escaped_byte(text: str) -> int | None:
    """The first byte of ``text`` that is not UTF-8, or None. The file is decoded with
    ``surrogateescape``, which keeps each such byte as a lone surrogate, the one
    character that UTF-8 cannot encode."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        return ord(text[exc.start]) - 0xDC00
    return None


def _read_rows(fh, limit: int):
    """Up to ``limit`` records of ``fh``, the physical lines they took, and why the read
    ended early: the message of a csv error, or of a byte that is not UTF-8, which ends
    the read before the record that holds it.

    The next ``limit`` lines are read first. When they hold no quote, carriage return,
    NUL or byte that is not UTF-8, and no line (its break included) is longer than the
    csv field size limit, each line is one record and ``str.split`` gives exactly the
    fields ``csv.reader`` would, a blank line none. Any other chunk goes to
    ``csv.reader``, which reads its records from those lines and, when a quoted field
    spans the last of them, from the rest of the file.
    """
    lines = list(islice(fh, limit))
    text = "".join(lines)
    if not ('"' in text or "\r" in text or "\0" in text or _escaped_byte(text) is not None
            or max(map(len, lines), default=0) > csv.field_size_limit()):
        del text  # frees the joined copy before the rows are built
        return [line.rstrip("\n").split(",") if line != "\n" else [] for line in lines], len(lines), None
    reader = csv.reader(chain(lines, fh))
    rows, failure = [], None
    try:
        rows.extend(islice(reader, limit))  # keeps the rows read before an error
    except csv.Error as exc:
        failure = str(exc)
    if _escaped_byte("".join(chain.from_iterable(rows))) is not None:
        for index, row in enumerate(rows):
            byte = _escaped_byte("".join(row))
            if byte is not None:
                return rows[:index], reader.line_num, f"byte {byte:#04x} is not UTF-8 text"
    return rows, reader.line_num, failure


def _start_line(rows: list, index: int, first: int) -> int:
    """The physical line where record ``rows[index]`` starts, when ``rows[0]`` starts on line ``first``.

    Each record ends one line, and each line break inside its quoted fields
    one more; as for ``csv.reader.line_num``, ``\\r\\n``, ``\\n`` and a lone
    ``\\r`` each end a line.
    """
    texts = [text for row in rows[:index] for text in row]
    breaks = sum(text.count("\n") + text.count("\r") - text.count("\r\n") for text in texts)
    return first + index + breaks


def columns_without(schema: list[FeatureColumn], kind: str, entries: dict) -> list[str]:
    """The non-label columns of ``kind`` in ``schema`` that ``entries`` has no entry for."""
    return [c.name for c in schema if c.kind == kind and c.role != ROLE_LABEL and c.name not in entries]


def load_csv(path, schema: list[FeatureColumn], vocabularies: dict[str, list[str]] | None = None) -> Dataset:
    """Load and encode a CSV whose header matches the schema column order.

    Without ``vocabularies``, category ids are assigned by first
    appearance until a column's declared cardinality is full; any further
    distinct value maps to the unknown slot. With ``vocabularies`` (e.g.
    from a trained model) the mapping is frozen and unseen values go
    straight to the unknown slot. Sensitive values must always be among
    the known categories.

    Rows are parsed :data:`CSV_CHUNK_ROWS` at a time, a column at a time.
    A chunk of that many lines that holds no quote, carriage return, NUL
    or byte that is not UTF-8, and no line longer than the csv module's
    field size limit, is split at line breaks and commas; any other chunk
    goes to ``csv.reader``. Both read the same records from such a chunk,
    so either gives the same arrays and the same errors. A bad file
    raises DataError for its first fault in file order, the same one a
    row-by-row parse would stop at: a bad cell, a row with the wrong
    number of fields, a field over the csv module's size limit, or a byte
    that is not UTF-8. The file is decoded with ``surrogateescape``, so
    such a byte is named, with the line of the record that holds it (the
    header included), only when no earlier record has a fault.
    """
    schema = _validate_schema(list(schema))
    building = vocabularies is None
    if not building:
        missing = columns_without(schema, KIND_CATEGORICAL, vocabularies)
        if missing:
            raise DataError(f"no vocabulary for categorical columns {missing}")
    vocabs: dict[str, list[str]] = (
        {c.name: [] for c in schema if c.kind == KIND_CATEGORICAL}
        if building
        else {k: list(v) for k, v in vocabularies.items()}
    )
    # text -> id per column; built in reverse so the first of any repeated entry wins
    ids = {name: {text: i for i, text in reversed(list(enumerate(vocab)))} for name, vocab in vocabs.items()}
    chunks: dict[str, list[np.ndarray]] = {c.name: [] for c in schema}
    expected_header = [c.name for c in schema]
    width = len(schema)

    with located(path), open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        rows, lines, failure = _read_rows(fh, 1)
        if failure is not None:
            raise DataError(f"line 1: {failure}")
        if not rows:
            raise DataError("file is empty")
        header = rows[0]
        if header != expected_header:
            raise DataError(f"header {header} does not match schema columns {expected_header}")
        n = 0
        first = 1 + lines  # the physical line where the chunk's first record starts
        while True:
            rows, lines, failure = _read_rows(fh, CSV_CHUNK_ROWS)
            # a row with the wrong field count is a fault before any of its cells
            wrong_width = np.flatnonzero(np.fromiter(map(len, rows), np.intp, len(rows)) != width)
            short = int(wrong_width[0]) if wrong_width.size else len(rows)
            fault = None  # (row, column position) of the chunk's first bad cell
            for pos, (col, texts) in enumerate(zip(schema, zip(*rows[:short]))):
                values, bad = _encode_column(col, texts, ids.get(col.name), vocabs.get(col.name), building)
                if bad is not None and (fault is None or bad < fault[0]):
                    fault = (bad, pos)
                chunks[col.name].append(values)
            if fault is not None:
                row, pos = fault
                col = schema[pos]
                line = _start_line(rows, row, first)
                raise DataError(f"line {line}, column {col.name!r}: {_cell_fault(col, rows[row][pos])}")
            if short < len(rows):
                line = _start_line(rows, short, first)
                raise DataError(f"line {line}: expected {width} fields, got {len(rows[short])}")
            if failure is not None:
                raise DataError(f"line {_start_line(rows, len(rows), first)}: {failure}")
            n += len(rows)
            if len(rows) < CSV_CHUNK_ROWS:
                break
            first += lines
        if n == 0:
            raise DataError("no data rows")
    columns = {name: _freeze(np.concatenate(parts)) for name, parts in chunks.items()}
    return Dataset(schema=schema, columns=columns, vocabularies=vocabs, n=n)


def _check_decodable(dataset: Dataset, column: str) -> None:
    """UsageError naming the column's first category id that has no source value."""
    category_ids = dataset.columns[column]
    unknown = (category_ids < 0) | (category_ids >= len(dataset.vocabularies[column]))
    if unknown.any():
        dataset.decode(column, int(category_ids[np.argmax(unknown)]))  # raises UsageError


def _csv_field(text: str) -> str:
    """``text`` as the csv module writes it in a record of more than one field, quoted when it
    holds a line break: ``\\n``, or a lone ``\\r``, which a reader also ends a line at."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\r\n").writerow([text, ""])  # quotes a field holding either
    return out.getvalue()[: -len(",\r\n")]


def _formatted(dataset: Dataset, col: FeatureColumn, rows: slice, fields: dict[str, list[str]]) -> list[str]:
    values = dataset.columns[col.name][rows].tolist()
    if col.role == ROLE_LABEL:
        return [str(int(v)) for v in values]
    if col.kind == KIND_CATEGORICAL:
        return list(map(fields[col.name].__getitem__, values))
    return list(map(repr, values))


def save_csv(dataset: Dataset, path) -> None:
    """Write a dataset back to CSV, decoding category ids to their values.

    Numericals are written with full precision (repr), so a load/save
    cycle of raw data is value-exact and repeated saves are byte-identical.
    Every category id is checked before the file is opened; the rows are
    then formatted and written ``CSV_CHUNK_ROWS`` at a time, so the text
    held in memory does not grow with the row count. Each vocabulary entry
    and column name is quoted once, as ``csv.writer`` quotes a field, and
    each row is its fields joined by commas: a ``repr`` or a 0/1 label
    never needs quotes. The bytes are those ``csv.writer`` with
    ``lineterminator="\\n"`` would write, except that a field holding a
    lone ``\\r`` is quoted too, which that writer leaves bare though every
    reader takes it for a line break.
    """
    categorical = [c.name for c in dataset.schema if c.kind == KIND_CATEGORICAL and c.role != ROLE_LABEL]
    for name in categorical:
        _check_decodable(dataset, name)
    fields = {name: list(map(_csv_field, dataset.vocabularies[name])) for name in categorical}
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(_csv_field(c.name) for c in dataset.schema) + "\n")
        for start in range(0, dataset.n, CSV_CHUNK_ROWS):
            rows = slice(start, start + CSV_CHUNK_ROWS)
            columns = [_formatted(dataset, col, rows, fields) for col in dataset.schema]
            fh.write("\n".join(map(",".join, zip(*columns))) + "\n")


# -- splitting and standardization --------------------------------------------


def _largest_remainder(n: int, ratios: tuple[float, float, float]) -> list[int]:
    # floors first, then hand out the shortfall by largest fractional part
    exact = [n * r for r in ratios]
    counts = [int(math.floor(e)) for e in exact]
    leftover = n - sum(counts)
    order = sorted(range(len(ratios)), key=lambda i: (-(exact[i] - counts[i]), i))
    for i in order[:leftover]:
        counts[i] += 1
    return counts


def split(dataset: Dataset, ratios: tuple[float, float, float], seed: int) -> Dataset:
    """Tag rows train/val/test and standardize numericals from train stats.

    The shuffle is a seeded permutation; per-split counts differ from the
    exact fractions by less than one row. Statistics come from
    :func:`mean_std`, so a constant column maps to exact zeros. A dataset
    that is already standardized is rejected. ``ratios`` is a tuple, list
    or array of three numbers in (0, 1] that sum to 1.
    """
    if dataset.split_tags is not None:
        raise UsageError("dataset is already split")
    ratios = ratios.tolist() if isinstance(ratios, np.ndarray) else ratios
    if not isinstance(ratios, (tuple, list)) or len(ratios) != 3:
        raise ConfigError(f"split ratios must be a sequence of three numbers, got {ratios!r}")
    for i, ratio in enumerate(ratios):
        check_number(f"split ratio {i}", ratio, "(0, 1]")
    check_int("seed", seed)
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError(f"split ratios must sum to 1, got {sum(ratios)}")
    counts = _largest_remainder(dataset.n, tuple(ratios))
    if min(counts) == 0:
        raise ConfigError(f"split of {dataset.n} rows by {ratios} leaves an empty split")

    perm = np.random.default_rng(seed).permutation(dataset.n)
    tags = np.empty(dataset.n, dtype=np.int8)
    tags[perm[: counts[0]]] = SPLIT_CODES["train"]
    tags[perm[counts[0] : counts[0] + counts[1]]] = SPLIT_CODES["val"]
    tags[perm[counts[0] + counts[1] :]] = SPLIT_CODES["test"]

    train_rows = tags == SPLIT_CODES["train"]
    stats = {
        col.name: mean_std(dataset.columns[col.name][train_rows], col.name)
        for col in dataset.schema
        if col.kind == KIND_NUMERICAL and col.role != ROLE_LABEL
    }
    return apply_standardization(replace(dataset, split_tags=_freeze(tags)), stats)


def mean_std(values: np.ndarray, column: str) -> tuple[float, float]:
    """Population (1/n) mean and standard deviation of a numerical column,
    with std 1 for a constant column; DataError if either overflows float64."""
    with np.errstate(over="ignore", invalid="ignore"):
        mu, sigma = float(values.mean()), float(values.std())
    if not (math.isfinite(mu) and math.isfinite(sigma)):
        raise DataError(f"column {column!r}: mean or standard deviation overflows float64")
    return mu, sigma if sigma != 0.0 else 1.0


def apply_standardization(dataset: Dataset, stats: dict[str, tuple[float, float]]) -> Dataset:
    """Standardize a raw dataset with statistics saved from a training run;
    DataError naming the column if a standardized value overflows float64."""
    if dataset.standardize_stats is not None:
        raise UsageError("dataset is already standardized")
    columns = dict(dataset.columns)
    for col in dataset.schema:
        if col.kind != KIND_NUMERICAL or col.role == ROLE_LABEL:
            continue
        if col.name not in stats:
            raise DataError(f"no standardization statistics for column {col.name!r}")
        mu, sigma = stats[col.name]
        with np.errstate(over="ignore", invalid="ignore"):
            scaled = (dataset.columns[col.name] - mu) / sigma
        if not np.isfinite(scaled).all():
            raise DataError(f"column {col.name!r}: a value overflows float64 when standardized")
        columns[col.name] = _freeze(scaled)
    return replace(dataset, columns=columns, standardize_stats={k: tuple(v) for k, v in stats.items()})


# -- batching -----------------------------------------------------------------


def _split_indices(dataset: Dataset, which: str) -> np.ndarray:
    if which == "all":
        return np.arange(dataset.n)
    if which not in SPLIT_CODES:
        raise UsageError(f"unknown split {which!r}")
    if dataset.split_tags is None:
        raise UsageError("dataset has no split tags; call split() first")
    return np.flatnonzero(dataset.split_tags == SPLIT_CODES[which])


def _make_batch(dataset: Dataset, rows) -> Batch:
    """The rows at the indices ``rows``, copied out of the columns; ``rows=slice(None)``
    takes every row as views of the columns instead."""
    features = {c.name: dataset.columns[c.name][rows] for c in dataset.input_columns}
    return Batch(
        features=features,
        labels=dataset.columns[dataset.label_column.name][rows],
        true_sensitive=dataset.columns[dataset.sensitive_column.name][rows],
    )


def epoch_permutation(n: int, seed: int, epoch: int) -> np.ndarray:
    """Positions 0..n-1 of a split's rows in the order the (seed, epoch) pair fixes."""
    return np.random.default_rng([seed, epoch]).permutation(n)


def batches(dataset: Dataset, which: str, batch_size: int, seed: int, epoch: int) -> list[Batch]:
    """Shuffled batches of a split, in the order of :func:`epoch_permutation`.

    The last partial batch is kept.
    """
    check_int("batch_size", batch_size, 1)
    rows = _split_indices(dataset, which)
    order = rows[epoch_permutation(rows.size, seed, epoch)]
    return [_make_batch(dataset, order[i : i + batch_size]) for i in range(0, order.size, batch_size)]


def full_batch(dataset: Dataset, which: str) -> Batch:
    """The whole split as one batch, in original row order. Split ``all`` views the
    dataset's own columns, which the loaders freeze; any other split copies its rows."""
    return _make_batch(dataset, slice(None) if which == "all" else _split_indices(dataset, which))


# -- synthetic biased data ----------------------------------------------------

SYNTH_SCHEMA = [
    FeatureColumn("proxy1", KIND_NUMERICAL, ROLE_NON_SENSITIVE),
    FeatureColumn("proxy2", KIND_NUMERICAL, ROLE_NON_SENSITIVE),
    FeatureColumn("noise1", KIND_NUMERICAL, ROLE_NON_SENSITIVE),
    FeatureColumn("noise2", KIND_NUMERICAL, ROLE_NON_SENSITIVE),
    FeatureColumn("noise3", KIND_NUMERICAL, ROLE_NON_SENSITIVE),
    FeatureColumn("s", KIND_CATEGORICAL, ROLE_SENSITIVE, cardinality=2),
    FeatureColumn("y", KIND_NUMERICAL, ROLE_LABEL),
]


def check_synth(n, bias_strength, proxy_corr, seed, names=("n", "bias_strength", "proxy_corr", "seed")) -> None:
    """ConfigError unless :func:`synth_generate` takes these arguments; an error names its
    argument by the caller's name for it in ``names``, such as a config key or a flag."""
    check_int(names[0], n, 100)
    check_number(names[1], bias_strength, "[0, inf)")
    check_number(names[2], proxy_corr, "[0, 1]")
    check_int(names[3], seed)


# the largest draw is the (n, 5) float64 normals; numpy's byte counts must fit in intp
_MAX_SYNTH_ROWS = np.iinfo(np.intp).max // (5 * 8)


def synth_generate(n: int, bias_strength: float, proxy_corr: float, seed: int) -> Dataset:
    """Generate a biased synthetic dataset from a fixed generative process.

    With group indicator s ~ Bernoulli(0.5) and independent standard
    normals e1..e5 drawn from one seeded stream:

        proxy1 = rho*(2s-1)       + (1-rho)*e1
        proxy2 = rho*(2s-1)*0.5   + (1-rho)*e2
        noise1..3 = e3..e5
        logit  = 1.0*proxy1 - 0.8*noise1 + 0.5*noise2 + beta*(2s-1)
        y ~ Bernoulli(sigmoid(logit))

    where beta is ``bias_strength`` and rho is ``proxy_corr``. The draw
    order (s, then the 5 normals, then the label uniforms) is part of the
    contract: the same (n, beta, rho, seed) always yields a bit-identical
    dataset. Acceptance thresholds cite these constants, so changing any
    of them is a breaking change. A bad argument raises ConfigError (see
    :func:`check_synth`), and an ``n`` whose draws numpy cannot represent
    raises MemoryError.
    """
    check_synth(n, bias_strength, proxy_corr, seed)
    if n > _MAX_SYNTH_ROWS:  # numpy would raise ValueError, not MemoryError, for such a shape
        raise MemoryError(f"{n} synthetic rows exceed the largest array numpy can represent")

    rng = np.random.default_rng(seed)
    s = (rng.random(n) < 0.5).astype(np.int64)
    eps = rng.standard_normal((n, 5))
    sign = 2.0 * s - 1.0
    rho, beta = float(proxy_corr), float(bias_strength)
    proxy1 = rho * sign + (1.0 - rho) * eps[:, 0]
    proxy2 = rho * sign * 0.5 + (1.0 - rho) * eps[:, 1]
    noise1, noise2, noise3 = eps[:, 2], eps[:, 3], eps[:, 4]
    logit = 1.0 * proxy1 - 0.8 * noise1 + 0.5 * noise2 + beta * sign
    with np.errstate(over="ignore"):  # exp overflows to inf only where the probability is exactly 0.0
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-logit))).astype(np.float64)

    columns = {
        "proxy1": _freeze(proxy1),
        "proxy2": _freeze(proxy2),
        "noise1": _freeze(noise1.copy()),
        "noise2": _freeze(noise2.copy()),
        "noise3": _freeze(noise3.copy()),
        "s": _freeze(s),
        "y": _freeze(y),
    }
    return Dataset(
        schema=list(SYNTH_SCHEMA),
        columns=columns,
        vocabularies={"s": ["0", "1"]},
        n=n,
    )
