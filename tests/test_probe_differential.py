"""Differential tests: ``sensitive_probe`` agrees with the dense one-hot fit.

``probe_oracle`` holds the fit that builds the (rows x levels) design
matrix. The probe must give the same set of coefficient names and, per
name, the same coefficient and the same intercept within 1e-12: the two
sum in different orders, so they may differ in the last bits. A level
that no row uses gets exactly 0.0 from both.
"""

import numpy as np
import pytest

from fairint.data import (
    KIND_CATEGORICAL,
    KIND_NUMERICAL,
    ROLE_LABEL,
    ROLE_NON_SENSITIVE,
    ROLE_SENSITIVE,
    Dataset,
    FeatureColumn,
    load_csv,
    synth_generate,
)
from fairint.probe import sensitive_probe
from probe_oracle import oracle_sensitive_probe

ROWS = 600
SENSITIVE = np.random.default_rng(7).random(ROWS) < 0.5  # the tables' sensitive column s


def assert_matches_oracle(dataset):
    got, want = sensitive_probe(dataset), oracle_sensitive_probe(dataset)
    assert sorted(got.names) == sorted(want.names)
    wanted = dict(zip(want.names, want.coefficients))
    for name, coefficient in zip(got.names, got.coefficients):
        assert abs(coefficient - wanted[name]) <= 1e-12, name
    assert abs(got.intercept - want.intercept) <= 1e-12
    return dict(zip(got.names, got.coefficients)), wanted


def load_table(tmp_path, columns, vocabularies=None):
    """Write text columns (name -> (kind, cardinality, texts)) beside a sensitive
    column ``s`` and a label ``y``, and load them with ``load_csv``."""
    s = [str(v) for v in SENSITIVE.astype(int)]
    y = [str(v) for v in (np.random.default_rng(8).random(ROWS) < 0.5).astype(int)]
    schema = [FeatureColumn(name, kind, ROLE_NON_SENSITIVE, cardinality=cardinality)
              for name, (kind, cardinality, _) in columns.items()]
    schema += [FeatureColumn("s", KIND_CATEGORICAL, ROLE_SENSITIVE, cardinality=2),
               FeatureColumn("y", KIND_NUMERICAL, ROLE_LABEL)]
    texts = [texts for _, _, texts in columns.values()] + [s, y]
    path = tmp_path / "table.csv"
    lines = [",".join(c.name for c in schema)] + [",".join(row) for row in zip(*texts)]
    path.write_text("\n".join(lines) + "\n")
    return load_csv(path, schema, vocabularies)


def leaking_texts(seed, values, sensitive):
    """Category texts whose distribution shifts with the sensitive value."""
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, len(values), ROWS)
    ids = np.where(sensitive & (rng.random(ROWS) < 0.5), 0, ids)
    return [values[i] for i in ids]


def numbers(seed, sensitive, shift):
    rng = np.random.default_rng(seed)
    return [repr(float(v)) for v in 3.0 + rng.standard_normal(ROWS) + shift * sensitive]


def test_numerical_only_table():
    assert_matches_oracle(synth_generate(n=1500, bias_strength=2.0, proxy_corr=0.8, seed=4))


def test_categorical_only_table(tmp_path):
    ds = load_table(tmp_path, {
        "color": (KIND_CATEGORICAL, 4, leaking_texts(1, ["red", "blue", "green", "grey"], SENSITIVE)),
        "size": (KIND_CATEGORICAL, 3, leaking_texts(2, ["S", "M", "L"], ~SENSITIVE)),
    })
    assert_matches_oracle(ds)


def test_mixed_table(tmp_path):
    ds = load_table(tmp_path, {
        "age": (KIND_NUMERICAL, None, numbers(1, SENSITIVE, 0.8)),
        "color": (KIND_CATEGORICAL, 4, leaking_texts(2, ["red", "blue", "green", "grey"], SENSITIVE)),
        "hours": (KIND_NUMERICAL, None, numbers(3, SENSITIVE, -0.3)),
        "size": (KIND_CATEGORICAL, 3, leaking_texts(4, ["S", "M", "L"], ~SENSITIVE)),
    })
    assert_matches_oracle(ds)


def test_values_beyond_the_cardinality_use_the_unknown_slot(tmp_path):
    ds = load_table(tmp_path, {
        "job": (KIND_CATEGORICAL, 3, leaking_texts(1, list("abcdefg"), SENSITIVE)),
        "age": (KIND_NUMERICAL, None, numbers(2, SENSITIVE, 0.5)),
    })
    assert len(ds.vocabularies["job"]) == 3
    assert (ds.columns["job"] == 3).any()  # some rows hold the unknown id
    got, _ = assert_matches_oracle(ds)
    assert set(got) == {f"job={v}" for v in ds.vocabularies["job"]} | {"age"}


def test_frozen_level_no_row_uses_gets_exactly_zero(tmp_path):
    ds = load_table(
        tmp_path,
        {
            "age": (KIND_NUMERICAL, None, numbers(1, SENSITIVE, 0.5)),
            # "purple" is outside the vocabulary, so its rows take the unknown slot
            "color": (KIND_CATEGORICAL, 4, leaking_texts(2, ["red", "blue", "purple"], SENSITIVE)),
        },
        vocabularies={"color": ["red", "never", "blue"], "s": ["0", "1"]},
    )
    assert not (ds.columns["color"] == 1).any()
    got, wanted = assert_matches_oracle(ds)
    assert got["color=never"] == 0.0 and wanted["color=never"] == 0.0


def test_constant_numerical_column(tmp_path):
    ds = load_table(tmp_path, {
        "flat": (KIND_NUMERICAL, None, ["2.5"] * ROWS),
        "color": (KIND_CATEGORICAL, 3, leaking_texts(1, ["red", "blue", "green"], SENSITIVE)),
        "age": (KIND_NUMERICAL, None, numbers(2, SENSITIVE, 0.5)),
    })
    got, _ = assert_matches_oracle(ds)
    assert got["flat"] == 0.0


@pytest.mark.parametrize("seed", range(12))
def test_random_tables(seed):
    """Random schemas built directly as Datasets: 1-5 input columns of either
    kind, vocabularies shorter than the cardinality, unused levels and
    unknown ids."""
    rng = np.random.default_rng([seed, 12])
    n = int(rng.integers(20, 300))
    s = (rng.random(n) < rng.uniform(0.1, 0.9)).astype(np.int64)
    s[:2] = [0, 1]
    schema, columns, vocabularies = [], {"s": s}, {"s": ["0", "1"]}
    for i in range(int(rng.integers(1, 6))):
        name = f"c{i}"
        if rng.random() < 0.5:
            schema.append(FeatureColumn(name, KIND_NUMERICAL, ROLE_NON_SENSITIVE))
            columns[name] = rng.standard_normal(n) * rng.uniform(0.1, 100.0) + s * rng.uniform(-2, 2)
        else:
            levels = int(rng.integers(1, 7))
            cardinality = levels + int(rng.integers(0, 3))
            schema.append(FeatureColumn(name, KIND_CATEGORICAL, ROLE_NON_SENSITIVE, cardinality=cardinality))
            # ids reach one past the vocabulary: that last one is the unknown id
            ids = rng.integers(0, levels + 1, n) * (1 + s * rng.integers(0, 2, n)) % (levels + 1)
            columns[name] = np.where(ids == levels, cardinality, ids)
            vocabularies[name] = [f"v{j}" for j in range(levels)]
    schema += [FeatureColumn("s", KIND_CATEGORICAL, ROLE_SENSITIVE, cardinality=2),
               FeatureColumn("y", KIND_NUMERICAL, ROLE_LABEL)]
    columns["y"] = np.zeros(n)
    assert_matches_oracle(Dataset(schema=schema, columns=columns, vocabularies=vocabularies, n=n))
