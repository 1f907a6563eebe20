"""Data pipeline tests: encoding, splitting, batching, synthesis."""

import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from fairint.data import (
    CSV_CHUNK_ROWS,
    Batch,
    Dataset,
    FeatureColumn,
    SYNTH_SCHEMA,
    apply_standardization,
    batches,
    full_batch,
    load_csv,
    load_schema,
    save_csv,
    save_schema,
    split,
    synth_generate,
)
from fairint.errors import ConfigError, DataError, UsageError


def make_schema():
    return [
        FeatureColumn("age", "numerical", "non_sensitive"),
        FeatureColumn("sex", "categorical", "sensitive", cardinality=2),
        FeatureColumn("job", "categorical", "non_sensitive", cardinality=3),
        FeatureColumn("y", "numerical", "label"),
    ]


def write_csv(path, rows, header="age,sex,job,y"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")


# -- schema -------------------------------------------------------------------


def test_schema_json_round_trip(tmp_path):
    path = tmp_path / "schema.json"
    save_schema(make_schema(), path)
    back = load_schema(path)
    assert back == make_schema()


def test_schema_must_have_one_label_and_one_sensitive(tmp_path):
    bad = [
        FeatureColumn("a", "numerical", "non_sensitive"),
        FeatureColumn("s", "categorical", "sensitive", cardinality=2),
    ]
    path = tmp_path / "schema.json"
    save_schema(bad, path)
    with pytest.raises(DataError, match="label"):
        load_schema(path)


def test_sensitive_column_must_be_binary(tmp_path):
    bad = [
        FeatureColumn("s", "categorical", "sensitive", cardinality=3),
        FeatureColumn("y", "numerical", "label"),
    ]
    path = tmp_path / "schema.json"
    save_schema(bad, path)
    with pytest.raises(DataError, match="cardinality 2"):
        load_schema(path)


def test_schema_rejects_bad_kind_and_missing_fields(tmp_path):
    path = tmp_path / "schema.json"
    path.write_text('[{"name": "a", "kind": "exotic", "cardinality": null, "role": "label"}]')
    with pytest.raises(DataError, match="kind"):
        load_schema(path)
    path.write_text('[{"name": "a", "kind": "numerical"}]')
    with pytest.raises(DataError, match="missing"):
        load_schema(path)
    path.write_text("not json at all")
    with pytest.raises(DataError, match="JSON"):
        load_schema(path)


def test_numerical_column_takes_no_cardinality(tmp_path):
    path = tmp_path / "schema.json"
    path.write_text(
        '[{"name": "a", "kind": "numerical", "cardinality": 4, "role": "non_sensitive"},'
        ' {"name": "s", "kind": "categorical", "cardinality": 2, "role": "sensitive"},'
        ' {"name": "y", "kind": "numerical", "cardinality": null, "role": "label"}]'
    )
    with pytest.raises(DataError, match="cardinality"):
        load_schema(path)


# -- CSV loading and encoding ---------------------------------------------------


def test_load_three_rows(tmp_path):
    path = tmp_path / "d.csv"
    write_csv(path, ["30,f,nurse,1", "40,m,clerk,0", "25,f,nurse,1"])
    ds = load_csv(path, make_schema())
    assert ds.n == 3
    np.testing.assert_array_equal(ds.columns["age"], [30.0, 40.0, 25.0])
    np.testing.assert_array_equal(ds.columns["sex"], [0, 1, 0])  # first appearance order
    np.testing.assert_array_equal(ds.columns["job"], [0, 1, 0])
    np.testing.assert_array_equal(ds.columns["y"], [1.0, 0.0, 1.0])
    assert ds.vocabularies["sex"] == ["f", "m"]


def test_unseen_category_maps_to_unknown_slot(tmp_path):
    path = tmp_path / "d.csv"
    write_csv(path, ["1,f,red,0", "2,m,blue,1", "3,f,purple,0", "4,m,green,1"])
    schema = [
        FeatureColumn("age", "numerical", "non_sensitive"),
        FeatureColumn("sex", "categorical", "sensitive", cardinality=2),
        FeatureColumn("job", "categorical", "non_sensitive", cardinality=2),
        FeatureColumn("y", "numerical", "label"),
    ]
    ds = load_csv(path, schema)
    # red, blue fill the 2-ary column; purple and green overflow to unknown id 2
    np.testing.assert_array_equal(ds.columns["job"], [0, 1, 2, 2])
    assert schema[2].unknown_id == 2
    assert schema[2].table_size == 3


def test_frozen_vocabulary_sends_unseen_to_unknown(tmp_path):
    path = tmp_path / "d.csv"
    write_csv(path, ["1,f,clerk,0", "2,m,nurse,1"])
    vocab = {"sex": ["f", "m"], "job": ["nurse", "clerk", "cook"]}
    ds = load_csv(path, make_schema(), vocabularies=vocab)
    np.testing.assert_array_equal(ds.columns["job"], [1, 0])
    path2 = tmp_path / "d2.csv"
    write_csv(path2, ["1,f,astronaut,0"])
    ds2 = load_csv(path2, make_schema(), vocabularies=vocab)
    assert ds2.columns["job"][0] == 3  # unknown slot for cardinality 3
    with pytest.raises(DataError, match=r"no vocabulary for categorical columns \['job'\]"):
        load_csv(path, make_schema(), vocabularies={"sex": vocab["sex"]})


def test_decode_inverts_encode(tmp_path):
    path = tmp_path / "d.csv"
    write_csv(path, ['1,f,"baker, night shift",0', "2,m,clerk,1", "3,f,clerk,0"])
    ds = load_csv(path, make_schema())
    assert ds.decode("job", int(ds.columns["job"][0])) == "baker, night shift"
    assert ds.decode("sex", int(ds.columns["sex"][1])) == "m"
    with pytest.raises(UsageError):
        ds.decode("job", 3)  # unknown slot has no source value


def test_load_errors_carry_location(tmp_path):
    path = tmp_path / "d.csv"
    write_csv(path, ["1,f,clerk,0", "oops,m,nurse,1"])
    with pytest.raises(DataError, match="line 3.*age"):
        load_csv(path, make_schema())

    write_csv(path, ["1,f,clerk,2"])
    with pytest.raises(DataError, match="not 0 or 1"):
        load_csv(path, make_schema())

    write_csv(path, ["1,f,clerk"])
    with pytest.raises(DataError, match="line 2"):
        load_csv(path, make_schema())

    write_csv(path, ["nan,f,clerk,0"])
    with pytest.raises(DataError, match="non-finite"):
        load_csv(path, make_schema())


def test_header_must_match_schema(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("age,sex,occupation,y\n1,f,clerk,0\n")
    with pytest.raises(DataError, match="header"):
        load_csv(path, make_schema())
    path.write_text("")
    with pytest.raises(DataError, match="empty"):
        load_csv(path, make_schema())
    path.write_text("age,sex,job,y\n")
    with pytest.raises(DataError, match="no data rows"):
        load_csv(path, make_schema())


def test_third_sensitive_value_is_rejected(tmp_path):
    path = tmp_path / "d.csv"
    write_csv(path, ["1,f,clerk,0", "2,m,clerk,1", "3,x,clerk,0"])
    with pytest.raises(DataError, match="sensitive"):
        load_csv(path, make_schema())


def test_loaded_arrays_are_read_only(tmp_path):
    path = tmp_path / "d.csv"
    write_csv(path, ["1,f,clerk,0", "2,m,nurse,1"])
    ds = load_csv(path, make_schema())
    with pytest.raises(ValueError):
        ds.columns["age"][0] = 99.0


# -- chunk boundaries and the order of faults ---------------------------------------
# load_csv parses CSV_CHUNK_ROWS rows at a time; a bad file must still report
# the first fault in file order, as a row-by-row parse would.


def good_rows(count):
    return [f"{i},{'fm'[i % 2]},clerk,{i % 2}" for i in range(count)]


def with_row(rows, index, text):
    rows = list(rows)
    rows[index] = text
    return rows


def test_category_first_seen_in_second_chunk_gets_the_next_id(tmp_path):
    path = tmp_path / "d.csv"
    rows = good_rows(CSV_CHUNK_ROWS) + ["7,f,cook,0", "8,m,nurse,1"]
    write_csv(path, rows)
    ds = load_csv(path, make_schema())
    assert ds.n == CSV_CHUNK_ROWS + 2
    assert ds.vocabularies["job"] == ["clerk", "cook", "nurse"]
    np.testing.assert_array_equal(ds.columns["job"][CSV_CHUNK_ROWS - 1 :], [0, 1, 2])
    np.testing.assert_array_equal(ds.columns["age"][-3:], [CSV_CHUNK_ROWS - 1, 7.0, 8.0])


@pytest.mark.parametrize("index", [CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS])
def test_bad_cell_on_either_side_of_a_chunk_boundary_reports_its_line(tmp_path, index):
    path = tmp_path / "d.csv"
    write_csv(path, with_row(good_rows(CSV_CHUNK_ROWS + 5), index, "x,f,clerk,0"))
    line = index + 2  # after the header, counting from 1
    with pytest.raises(DataError, match=rf"line {line}, column 'age': 'x' is not a number$"):
        load_csv(path, make_schema())


def test_earlier_row_wins_over_earlier_column(tmp_path):
    path = tmp_path / "d.csv"
    rows = with_row(with_row(good_rows(20), 4, "1,f,clerk,2"), 5, "x,f,clerk,0")
    write_csv(path, rows)
    with pytest.raises(DataError, match=r"line 6, column 'y': label '2' is not 0 or 1$"):
        load_csv(path, make_schema())


@pytest.mark.parametrize(
    "first, second, expected",
    [
        ("x,f,clerk,0", "1,f,clerk", r"line 4, column 'age': 'x' is not a number$"),
        ("1,f,clerk", "x,f,clerk,0", r"line 4: expected 4 fields, got 3$"),
        ("1,f,clerk,0,extra", "1,q,clerk,0", r"line 4: expected 4 fields, got 5$"),
    ],
)
def test_the_earlier_of_a_bad_cell_and_a_row_of_the_wrong_width_is_reported(tmp_path, first, second, expected):
    path = tmp_path / "d.csv"
    write_csv(path, with_row(with_row(good_rows(10), 2, first), 3, second))
    with pytest.raises(DataError, match=expected):
        load_csv(path, make_schema())


def test_bad_cell_wins_over_invalid_utf8_rows_later(tmp_path):
    # the decoder reads ahead in blocks, so the byte fails a read thousands of rows after line 3
    lines = ["age,sex,job,y", *with_row(good_rows(5000), 1, "abc,f,clerk,0")]
    lines[3000] = "3000,f,cl\udcffrk,0"
    path = tmp_path / "d.csv"
    path.write_bytes("\n".join(lines).encode("utf-8", "surrogateescape"))
    with pytest.raises(DataError, match=r"line 3, column 'age': 'abc' is not a number$"):
        load_csv(path, make_schema())


def test_invalid_utf8_after_good_rows_is_reported(tmp_path):
    lines = ["age,sex,job,y", *good_rows(5000)]
    lines[3000] = "3000,f,cl\udcffrk,0"
    path = tmp_path / "d.csv"
    path.write_bytes("\n".join(lines).encode("utf-8", "surrogateescape"))
    with pytest.raises(DataError, match="is not UTF-8"):
        load_csv(path, make_schema())


def test_field_over_the_csv_size_limit_is_a_data_error_naming_its_line(tmp_path):
    path = tmp_path / "d.csv"
    huge = '"' + "c" * 200_000 + '"'
    write_csv(path, with_row(good_rows(10), 6, f"1,f,{huge},0"))
    with pytest.raises(DataError, match=r"line 8: field larger than field limit"):
        load_csv(path, make_schema())
    write_csv(path, with_row(with_row(good_rows(10), 6, f"1,f,{huge},0"), 5, "1,f,clerk,5"))
    with pytest.raises(DataError, match=r"line 7, column 'y': label '5' is not 0 or 1$"):
        load_csv(path, make_schema())


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("padding", [0, CSV_CHUNK_ROWS], ids=["one_chunk", "next_chunk"])
@pytest.mark.parametrize(
    "fault, expected",
    [
        ("x,f,clerk,0", r"column 'age': 'x' is not a number$"),
        ("1,f,clerk", r"expected 4 fields, got 3$"),
        ('1,f,"' + "c" * 200_000 + '",0', r"field larger than field limit"),
    ],
    ids=["bad_cell", "wrong_width", "over_size_limit"],
)
def test_errors_name_the_physical_line_where_the_record_starts(tmp_path, newline, padding, fault, expected):
    # quoted jobs on lines 3-5 and 7-8 push the fault's record, the sixth, to line 9
    rows = ["0,m,clerk,1", f'1,f,"cl{newline}er{newline}k",0', "2,m,clerk,1", f'3,f,"a{newline}b",0']
    path = tmp_path / "d.csv"
    write_csv(path, rows + good_rows(padding) + [fault])
    with pytest.raises(DataError, match=rf"line {9 + padding}(,|:) {expected}"):
        load_csv(path, make_schema())


# -- splitting and standardization ---------------------------------------------


def make_numeric_dataset(values):
    schema = [
        FeatureColumn("x", "numerical", "non_sensitive"),
        FeatureColumn("s", "categorical", "sensitive", cardinality=2),
        FeatureColumn("y", "numerical", "label"),
    ]
    n = len(values)
    cols = {
        "x": np.array(values, dtype=np.float64),
        "s": np.arange(n, dtype=np.int64) % 2,
        "y": (np.arange(n, dtype=np.float64) % 2),
    }
    return Dataset(schema=schema, columns=cols, vocabularies={"s": ["0", "1"]}, n=n)


def test_standardization_z_score_oracle():
    # seed 18 permutes 5 rows to [0 2 1 4 3], so rows {0,1,2} form the train split
    ds = split(make_numeric_dataset([1.0, 2.0, 3.0, 10.0, -7.0]), (0.6, 0.2, 0.2), seed=18)
    assert set(np.flatnonzero(ds.split_tags == 0)) == {0, 1, 2}
    # train {1,2,3}: mean 2, population std sqrt(2/3)
    expected = np.array([-1.0, 0.0, 1.0]) / np.sqrt(2.0 / 3.0)
    np.testing.assert_allclose(ds.columns["x"][:3], expected, atol=1e-12)
    assert abs(expected[0] + 1.2247) < 1e-4
    # val/test reuse train statistics, never re-fit
    np.testing.assert_allclose(ds.columns["x"][3], (10.0 - 2.0) / np.sqrt(2.0 / 3.0), atol=1e-12)
    mu, sigma = ds.standardize_stats["x"]
    assert (mu, sigma) == (2.0, np.sqrt(2.0 / 3.0))


def test_split_counts_largest_remainder():
    ds = split(make_numeric_dataset(list(range(10))), (0.8, 0.1, 0.1), seed=7)
    tags = ds.split_tags
    assert [(tags == k).sum() for k in (0, 1, 2)] == [8, 1, 1]


def test_split_is_deterministic_and_seed_sensitive():
    base = make_numeric_dataset(list(range(1000)))
    a = split(base, (0.8, 0.1, 0.1), seed=3)
    b = split(make_numeric_dataset(list(range(1000))), (0.8, 0.1, 0.1), seed=3)
    c = split(make_numeric_dataset(list(range(1000))), (0.8, 0.1, 0.1), seed=4)
    np.testing.assert_array_equal(a.split_tags, b.split_tags)
    assert not np.array_equal(a.split_tags, c.split_tags)


def test_split_validation():
    ds = make_numeric_dataset(list(range(10)))
    with pytest.raises(ConfigError, match="sum to 1"):
        split(ds, (0.5, 0.2, 0.2), seed=0)
    with pytest.raises(ConfigError, match="positive"):
        split(ds, (1.0, 0.0, 0.0), seed=0)
    small = make_numeric_dataset([1.0, 2.0, 3.0, 4.0, 5.0])
    with pytest.raises(ConfigError, match="empty"):
        split(small, (0.8, 0.1, 0.1), seed=0)
    done = split(ds, (0.6, 0.2, 0.2), seed=0)
    with pytest.raises(UsageError, match="already split"):
        split(done, (0.6, 0.2, 0.2), seed=0)
    standardized = apply_standardization(ds, {"x": (4.5, 2.0)})
    with pytest.raises(UsageError, match="already standardized"):
        split(standardized, (0.6, 0.2, 0.2), seed=0)


def test_constant_column_standardizes_to_zeros():
    ds = split(make_numeric_dataset([5.0] * 10), (0.6, 0.2, 0.2), seed=1)
    np.testing.assert_array_equal(ds.columns["x"], np.zeros(10))
    assert ds.standardize_stats["x"] == (5.0, 1.0)


def test_split_rejects_a_column_whose_statistics_overflow():
    # the mean is finite, but the squared deviations are not
    ds = make_numeric_dataset([1e200, -1e200] * 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warning would raise here
        with pytest.raises(DataError, match="column 'x'"):
            split(ds, (0.6, 0.2, 0.2), seed=1)


def test_apply_standardization_matches_split_stats():
    raw = make_numeric_dataset(list(range(20)))
    fitted = split(make_numeric_dataset(list(range(20))), (0.6, 0.2, 0.2), seed=9)
    applied = apply_standardization(raw, fitted.standardize_stats)
    np.testing.assert_allclose(applied.columns["x"], fitted.columns["x"], atol=1e-12)
    with pytest.raises(UsageError, match="already standardized"):
        apply_standardization(applied, fitted.standardize_stats)
    with pytest.raises(DataError, match="statistics"):
        apply_standardization(make_numeric_dataset([1.0] * 10), {})


def test_apply_standardization_rejects_a_value_that_overflows_naming_its_column():
    # every cell is finite, but 1.7e308 / 0.5 is not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="'x'"):
            apply_standardization(make_numeric_dataset([0.0] * 9 + [1.7e308]), {"x": (0.0, 0.5)})


# -- batching -------------------------------------------------------------------


def rows_of(dataset, batch):
    """The dataset rows a batch holds, in batch order, read back through the x column
    of a split ``make_numeric_dataset(range(n))``: standardization keeps it increasing."""
    column = dataset.columns["x"]
    assert np.all(np.diff(column) > 0)
    rows = np.searchsorted(column, batch.features["x"])
    np.testing.assert_array_equal(column[rows], batch.features["x"])
    return rows


def test_batches_partition_split_and_keep_partial():
    ds = split(make_numeric_dataset(list(range(25))), (0.2, 0.4, 0.4), seed=2)
    got = batches(ds, "val", batch_size=3, seed=11, epoch=0)
    sizes = [b.size for b in got]
    assert sizes == [3, 3, 3, 1]
    seen = np.concatenate([rows_of(ds, b) for b in got])
    np.testing.assert_array_equal(np.sort(seen), np.flatnonzero(ds.split_tags == 1))


def test_batches_reproducible_per_seed_epoch():
    ds = split(make_numeric_dataset(list(range(30))), (0.6, 0.2, 0.2), seed=0)
    a = batches(ds, "train", 4, seed=5, epoch=3)
    b = batches(ds, "train", 4, seed=5, epoch=3)
    c = batches(ds, "train", 4, seed=5, epoch=4)
    np.testing.assert_array_equal(
        np.concatenate([rows_of(ds, x) for x in a]), np.concatenate([rows_of(ds, x) for x in b])
    )
    assert not np.array_equal(
        np.concatenate([rows_of(ds, x) for x in a]), np.concatenate([rows_of(ds, x) for x in c])
    )


def test_batch_never_exposes_sensitive_column_as_feature():
    ds = synth_generate(200, bias_strength=1.0, proxy_corr=0.5, seed=0)
    for b in batches(ds, "all", 64, seed=0, epoch=0):
        assert "s" not in b.features
        assert "y" not in b.features
        assert set(b.features) == {"proxy1", "proxy2", "noise1", "noise2", "noise3"}
        assert b.true_sensitive.shape == b.labels.shape


def test_full_batch_covers_split_in_row_order():
    ds = split(make_numeric_dataset(list(range(12))), (0.5, 0.25, 0.25), seed=6)
    b = full_batch(ds, "all")
    np.testing.assert_array_equal(rows_of(ds, b), np.arange(12))
    train = full_batch(ds, "train")
    assert train.size == 6
    np.testing.assert_array_equal(rows_of(ds, train), np.flatnonzero(ds.split_tags == 0))


def test_full_batch_of_all_views_the_dataset_and_other_splits_copy():
    raw = make_numeric_dataset(list(range(200)))
    for column in raw.columns.values():
        column.setflags(write=False)  # as the loaders leave their columns
    ds = split(raw, (0.5, 0.25, 0.25), seed=6)
    whole = full_batch(ds, "all")
    np.testing.assert_array_equal(rows_of(ds, whole), np.arange(200))
    arrays = [*whole.features.values(), whole.labels, whole.true_sensitive]
    columns = [*(ds.columns[name] for name in whole.features), ds.columns["y"], ds.columns["s"]]
    for got, column in zip(arrays, columns, strict=True):
        assert np.shares_memory(got, column)
        assert not got.flags.writeable
    for which in ("train", "val", "test"):
        part = full_batch(ds, which)
        assert not any(np.shares_memory(got, ds.columns[name]) for name, got in part.features.items())
        assert not np.shares_memory(part.labels, ds.columns["y"])
        assert not np.shares_memory(part.true_sensitive, ds.columns["s"])


def test_batches_validation():
    ds = make_numeric_dataset(list(range(10)))
    with pytest.raises(ConfigError, match="batch size"):
        batches(ds, "all", 0, seed=0, epoch=0)
    with pytest.raises(UsageError, match="no split tags"):
        batches(ds, "train", 2, seed=0, epoch=0)
    with pytest.raises(UsageError, match="unknown split"):
        full_batch(ds, "holdout")


# -- synthetic generator ---------------------------------------------------------


def test_synth_is_bit_identical_per_seed():
    a = synth_generate(500, 2.0, 0.8, seed=13)
    b = synth_generate(500, 2.0, 0.8, seed=13)
    for name in a.columns:
        assert a.columns[name].tobytes() == b.columns[name].tobytes()
    c = synth_generate(500, 2.0, 0.8, seed=14)
    assert a.columns["proxy1"].tobytes() != c.columns["proxy1"].tobytes()


def test_synth_generative_process_relationships():
    ds = synth_generate(20_000, bias_strength=2.0, proxy_corr=0.8, seed=1)
    s = ds.columns["s"].astype(float)
    sign = 2 * s - 1
    # proxy1 - rho*(2s-1) recovers (1-rho)*e1: mean 0, std (1-rho)
    resid = ds.columns["proxy1"] - 0.8 * sign
    assert abs(resid.mean()) < 0.01
    assert abs(resid.std() - 0.2) < 0.01
    resid2 = ds.columns["proxy2"] - 0.4 * sign
    assert abs(resid2.std() - 0.2) < 0.01
    # positive rate strongly group-dependent at beta=2
    y = ds.columns["y"]
    gap = y[s == 1].mean() - y[s == 0].mean()
    assert gap > 0.5
    # distractor stays standard normal
    assert abs(ds.columns["noise3"].std() - 1.0) < 0.05
    assert abs(s.mean() - 0.5) < 0.02


def test_synth_unbiased_when_beta_and_rho_are_zero():
    ds = synth_generate(20_000, bias_strength=0.0, proxy_corr=0.0, seed=5)
    s = ds.columns["s"].astype(float)
    y = ds.columns["y"]
    assert abs(y[s == 1].mean() - y[s == 0].mean()) < 0.03


def test_synth_validation():
    with pytest.raises(ConfigError, match="n >= 100"):
        synth_generate(50, 1.0, 0.5, seed=0)
    with pytest.raises(ConfigError, match="bias_strength"):
        synth_generate(100, -1.0, 0.5, seed=0)
    with pytest.raises(ConfigError, match="proxy_corr"):
        synth_generate(100, 1.0, 1.5, seed=0)


@pytest.mark.parametrize(
    "bad",
    [{"n": True}, {"n": 200.0}, {"bias_strength": "2"}, {"proxy_corr": float("nan")}, {"proxy_corr": None},
     {"seed": -1}, {"seed": 1.0}, {"seed": True}],
)
def test_synth_rejects_wrong_types_and_negative_seeds(bad):
    with pytest.raises(ConfigError):
        synth_generate(**{"n": 200, "bias_strength": 1.0, "proxy_corr": 0.5, "seed": 0, **bad})


@pytest.mark.parametrize("n", [10**20, 2**63 - 1])
def test_synth_rejects_sizes_numpy_cannot_represent_before_drawing(n):
    with pytest.raises(MemoryError, match="numpy"):
        synth_generate(n, 1.0, 0.5, seed=0)


def test_synth_schema_shape():
    ds = synth_generate(100, 1.0, 0.5, seed=0)
    assert [c.name for c in ds.schema] == ["proxy1", "proxy2", "noise1", "noise2", "noise3", "s", "y"]
    assert ds.sensitive_column.name == "s"
    assert ds.label_column.name == "y"
    assert [c.name for c in ds.input_columns] == ["proxy1", "proxy2", "noise1", "noise2", "noise3"]


# -- CSV round trip ----------------------------------------------------------------


def test_save_load_round_trip_preserves_values(tmp_path):
    ds = synth_generate(300, 1.5, 0.6, seed=21)
    path = tmp_path / "synth.csv"
    save_csv(ds, path)
    back = load_csv(path, list(SYNTH_SCHEMA))
    for name in ("proxy1", "proxy2", "noise1", "noise2", "noise3", "y"):
        np.testing.assert_array_equal(back.columns[name], ds.columns[name])
    # category ids may be renumbered by appearance order; decoded values must match
    for i in range(ds.n):
        assert back.decode("s", int(back.columns["s"][i])) == ds.decode("s", int(ds.columns["s"][i]))


def test_save_csv_is_byte_stable(tmp_path):
    ds = synth_generate(150, 0.5, 0.3, seed=2)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    save_csv(ds, p1)
    save_csv(ds, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_save_csv_refuses_an_id_with_no_source_value_before_touching_the_file(tmp_path):
    ds = synth_generate(2 * CSV_CHUNK_ROWS + 3, 0.5, 0.3, seed=2)
    s = ds.columns["s"].copy()
    s[CSV_CHUNK_ROWS + 7] = 2  # the unknown slot, in the second chunk
    path = tmp_path / "out.csv"
    path.write_bytes(b"kept,as,it,was\n")
    with pytest.raises(UsageError, match="column 's': id 2 has no recorded source value"):
        save_csv(replace(ds, columns={**ds.columns, "s": s}), path)
    assert path.read_bytes() == b"kept,as,it,was\n"


def test_save_csv_memory_does_not_grow_with_the_row_count(tmp_path):
    save_csv(synth_generate(200, 0.5, 0.3, seed=2), tmp_path / "warm.csv")  # first calls import and cache
    peaks = []
    for chunks in (1, 16):
        ds = synth_generate(chunks * CSV_CHUNK_ROWS, 0.5, 0.3, seed=2)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            save_csv(ds, tmp_path / "out.csv")
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
    assert peaks[1] < 2 * peaks[0], peaks
