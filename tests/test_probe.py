"""Sensitive-leak probe: fitter behavior and the generator-based oracles."""

import tracemalloc

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
from fairint.errors import DataError
from fairint.probe import sensitive_probe


def categorical_dataset(tmp_path, rows):
    schema = [
        FeatureColumn("color", KIND_CATEGORICAL, ROLE_NON_SENSITIVE, cardinality=2),
        FeatureColumn("amount", KIND_NUMERICAL, ROLE_NON_SENSITIVE),
        FeatureColumn("s", KIND_CATEGORICAL, ROLE_SENSITIVE, cardinality=2),
        FeatureColumn("y", KIND_CATEGORICAL, ROLE_LABEL, cardinality=2),
    ]
    path = tmp_path / "probe.csv"
    lines = ["color,amount,s,y"] + [",".join(map(str, r)) for r in rows]
    path.write_text("\n".join(lines) + "\n")
    return load_csv(path, schema)


def test_proxy_feature_dominates_on_biased_synth():
    ds = synth_generate(n=20000, bias_strength=2.0, proxy_corr=0.8, seed=1)
    result = sensitive_probe(ds)
    assert result.names[0] == "proxy1"
    assert result.coefficients[0] > 1.0


def test_no_leak_when_proxies_are_pure_noise():
    ds = synth_generate(n=20000, bias_strength=2.0, proxy_corr=0.0, seed=1)
    result = sensitive_probe(ds)
    assert max(abs(c) for c in result.coefficients) < 0.1


def test_probe_is_deterministic():
    ds = synth_generate(n=2000, bias_strength=2.0, proxy_corr=0.5, seed=3)
    first = sensitive_probe(ds)
    second = sensitive_probe(ds)
    assert first.names == second.names
    assert first.coefficients == second.coefficients


def test_coefficients_sorted_by_magnitude():
    ds = synth_generate(n=2000, bias_strength=2.0, proxy_corr=0.8, seed=3)
    result = sensitive_probe(ds)
    magnitudes = [abs(c) for c in result.coefficients]
    assert magnitudes == sorted(magnitudes, reverse=True)
    assert set(result.names) == {"proxy1", "proxy2", "noise1", "noise2", "noise3"}


def test_one_hot_columns_are_named_and_signed(tmp_path):
    # reds are nearly always group 1, blues group 0
    rows = []
    for i in range(60):
        group = i % 2
        color = "red" if group == 1 else "blue"
        if i in (0, 1):  # two crossovers keep both one-hot columns informative
            color = "blue" if color == "red" else "red"
        rows.append((color, (i % 7) / 7.0, group, i % 2))
    ds = categorical_dataset(tmp_path, rows)
    result = sensitive_probe(ds)
    by_name = dict(zip(result.names, result.coefficients))
    assert set(by_name) == {"color=red", "color=blue", "amount"}
    assert by_name["color=red"] > 0.5
    assert by_name["color=blue"] < -0.5


def test_single_class_sensitive_is_a_data_error(tmp_path):
    rows = [("red", 0.1, 0, 1), ("blue", 0.2, 0, 0), ("red", 0.3, 0, 1)]
    # constant sensitive column: cardinality-2 schema, but only one value occurs
    ds = categorical_dataset(tmp_path, rows)
    with pytest.raises(DataError, match="single value"):
        sensitive_probe(ds)


def test_rows_format(tmp_path):
    ds = synth_generate(n=500, bias_strength=1.0, proxy_corr=0.5, seed=0)
    rows = sensitive_probe(ds).as_rows()
    assert all(set(r) == {"feature", "coefficient"} for r in rows)
    assert all(isinstance(r["coefficient"], float) for r in rows)


def wide_levels_dataset(columns, n=10_000, levels=2_000):
    """``columns`` categoricals of ``levels`` levels each; group 1 rows use only the lower half."""
    rng = np.random.default_rng(0)
    s = (rng.random(n) < 0.5).astype(np.int64)
    names = [f"job{j}" for j in range(columns)]
    return Dataset(
        schema=[FeatureColumn(name, KIND_CATEGORICAL, ROLE_NON_SENSITIVE, cardinality=levels) for name in names]
        + [
            FeatureColumn("s", KIND_CATEGORICAL, ROLE_SENSITIVE, cardinality=2),
            FeatureColumn("y", KIND_NUMERICAL, ROLE_LABEL),
        ],
        columns={
            **{name: np.where(s == 1, rng.integers(0, levels // 2, n), rng.integers(0, levels, n)) for name in names},
            "s": s, "y": np.zeros(n),
        },
        vocabularies={**{name: [f"j{i}" for i in range(levels)] for name in names}, "s": ["0", "1"]},
        n=n,
    )


def traced_probe(ds):
    tracemalloc.start()
    try:
        result = sensitive_probe(ds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_many_levels_fit_without_a_dense_design():
    # a one-hot design of 10,000 rows x 2,000 levels would take 160 MB
    result, peak = traced_probe(wide_levels_dataset(1))
    assert len(result.names) == 2_000
    assert peak < 16 * 2**20


def test_three_wide_columns_fit_without_a_dense_design():
    # each column spans more codes than one group may, so each is a group of its own
    result, peak = traced_probe(wide_levels_dataset(3))
    assert len(result.names) == 3 * 2_000
    assert peak < 16 * 2**20


@pytest.mark.parametrize("column", ["color", "size"])
def test_negative_category_id_is_a_data_error_naming_the_column(column):
    # a negative id in a later column would otherwise land on a level of the column before it
    n = 40
    s = np.arange(n) % 2
    columns = {"color": np.arange(n) % 3, "size": np.arange(n) % 2, "s": s, "y": np.zeros(n)}
    columns[column] = np.where(s == 1, -1, columns[column])
    ds = Dataset(
        schema=[
            FeatureColumn("color", KIND_CATEGORICAL, ROLE_NON_SENSITIVE, cardinality=3),
            FeatureColumn("size", KIND_CATEGORICAL, ROLE_NON_SENSITIVE, cardinality=2),
            FeatureColumn("s", KIND_CATEGORICAL, ROLE_SENSITIVE, cardinality=2),
            FeatureColumn("y", KIND_NUMERICAL, ROLE_LABEL),
        ],
        columns=columns,
        vocabularies={"color": ["r", "g", "b"], "size": ["S", "L"], "s": ["0", "1"]},
        n=n,
    )
    with pytest.raises(DataError, match=f"negative category id for feature '{column}'"):
        sensitive_probe(ds)
