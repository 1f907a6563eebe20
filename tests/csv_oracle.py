"""Row-at-a-time CSV loader and cell-at-a-time writer: the reference for ``fairint.data``.

These are the straightforward loops that ``load_csv`` and ``save_csv``
replace with chunked, columnar code. Each cell goes through this
module's own scalar parsers in file order, so the first fault found is
the first in the file by construction, and every message is worded
here, apart from the package's. Every error names the physical line where the
faulty record starts, read from ``csv.reader.line_num`` after the record
before it. The only addition to the loops is that a ``csv.Error`` (such
as a field over the csv module's size limit) becomes a DataError naming
the line of the record being read. Only tests import this module.
"""

import csv
import math

import numpy as np

from fairint.data import (
    KIND_CATEGORICAL,
    KIND_NUMERICAL,
    ROLE_LABEL,
    ROLE_SENSITIVE,
    Dataset,
    _freeze,
    _validate_schema,
)
from fairint.errors import DataError


def _parse_label(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise DataError(f"label {text!r} is not 0 or 1") from None
    if value != 0.0 and value != 1.0:
        raise DataError(f"label {text!r} is not 0 or 1")
    return value


def _parse_numeric(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise DataError(f"{text!r} is not a number") from None
    if not math.isfinite(value):
        raise DataError(f"non-finite value {text!r}")
    return value


def oracle_load_csv(path, schema, vocabularies=None) -> Dataset:
    schema = _validate_schema(list(schema))
    building = vocabularies is None
    if not building:
        missing = [c.name for c in schema if c.kind == KIND_CATEGORICAL and c.role != ROLE_LABEL
                   and c.name not in vocabularies]
        if missing:
            raise DataError(f"no vocabulary for categorical columns {missing}")
    vocabs = (
        {c.name: [] for c in schema if c.kind == KIND_CATEGORICAL}
        if building
        else {k: list(v) for k, v in vocabularies.items()}
    )
    ids = {name: {text: i for i, text in reversed(list(enumerate(vocab)))} for name, vocab in vocabs.items()}
    raw_columns = {c.name: [] for c in schema}
    expected_header = [c.name for c in schema]

    start = 1  # the physical line where the record being read starts
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: file is empty") from None
            if header != expected_header:
                raise DataError(f"{path}: header {header} does not match schema columns {expected_header}")
            start = reader.line_num + 1
            for row in reader:
                if len(row) != len(schema):
                    raise DataError(f"{path}: line {start}: expected {len(schema)} fields, got {len(row)}")
                for col, text in zip(schema, row):
                    try:
                        if col.role == ROLE_LABEL:
                            raw_columns[col.name].append(_parse_label(text))
                        elif col.kind == KIND_NUMERICAL:
                            raw_columns[col.name].append(_parse_numeric(text))
                        else:
                            col_ids = ids[col.name]
                            cid = col_ids.get(text)
                            if cid is None:
                                vocab = vocabs[col.name]
                                if building and len(vocab) < col.cardinality:
                                    cid = col_ids[text] = len(vocab)
                                    vocab.append(text)
                                else:
                                    cid = col.unknown_id
                            if col.role == ROLE_SENSITIVE and cid == col.unknown_id:
                                raise DataError(f"sensitive value {text!r} is not one of the two known groups")
                            raw_columns[col.name].append(cid)
                    except DataError as exc:
                        raise DataError(f"{path}: line {start}, column {col.name!r}: {exc}") from None
                start = reader.line_num + 1
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: file is not UTF-8 text: {exc}") from None
    except csv.Error as exc:
        raise DataError(f"{path}: line {start}: {exc}") from None

    n = len(raw_columns[schema[0].name])
    if n == 0:
        raise DataError(f"{path}: no data rows")
    columns = {}
    for col in schema:
        dtype = np.int64 if col.kind == KIND_CATEGORICAL and col.role != ROLE_LABEL else np.float64
        columns[col.name] = _freeze(np.array(raw_columns[col.name], dtype=dtype))
    return Dataset(schema=schema, columns=columns, vocabularies=vocabs, n=n)


def oracle_save_csv(dataset: Dataset, path) -> None:
    names = [c.name for c in dataset.schema]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(names)
        for i in range(dataset.n):
            row = []
            for col in dataset.schema:
                value = dataset.columns[col.name][i]
                if col.role == ROLE_LABEL:
                    row.append(str(int(value)))
                elif col.kind == KIND_CATEGORICAL:
                    row.append(dataset.decode(col.name, int(value)))
                else:
                    row.append(repr(float(value)))
            writer.writerow(row)
