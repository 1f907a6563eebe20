"""End-to-end checks of the command-line surface and its file artifacts."""

import json
import math
import os
import struct
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

import fairint
import fairint.cli
import fairint.training
from fairint.autodiff import load_parameters, save_parameters
from fairint.cli import SPLIT_RATIOS, load_experiment_config, main
from fairint.data import SPLIT_CODES, save_csv, save_schema, split, synth_generate
from fairint.model import ModelConfig
from fairint.training import TrainConfig

REPORT_KEYS = {"auc", "ddp", "deo", "group_rates", "sar_accuracy", "threshold", "groups_from"}
EPOCH_KEYS = {"epoch", "l0", "l_sar", "l_ifc", "l_fc", "total", "val_auc", "val_ddp", "val_deo"}
HEAD_KEYS = {
    "lambda_ifc", "lambda_fc", "enable_ifc", "enable_fc", "enable_bid",
    "seed", "best_epoch", "stopping_reason",
}


def write_config(tmp_path, name="cfg.json", **overrides):
    doc = {
        "synth": {"n": 500, "beta": 2.0, "rho": 0.8},
        "model": {"embed_dim": 4},
        "train": {
            "learning_rate": 0.01,
            "batch_size": 64,
            "max_epochs": 3,
            "patience": 3,
            "seed": 1,
        },
        "output_dir": str(tmp_path / "run"),
    }
    for key, value in overrides.items():
        if value is None:
            doc.pop(key, None)
        elif isinstance(value, dict) and isinstance(doc.get(key), dict):
            doc[key].update(value)
        else:
            doc[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path, doc


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One small train run shared by the read-only CLI checks."""
    tmp_path = tmp_path_factory.mktemp("cli_trained")
    config_path, doc = write_config(tmp_path)
    assert main(["train", "--config", str(config_path)]) == 0
    run_dir = tmp_path / "run"
    assert main(
        ["synth", "--n", "500", "--beta", "2.0", "--rho", "0.8", "--seed", "1",
         "--out", str(tmp_path / "data.csv")]
    ) == 0
    return {"dir": run_dir, "config": config_path, "doc": doc, "csv": tmp_path / "data.csv",
            "schema": tmp_path / "data.schema.json"}


# -- config parsing ------------------------------------------------------------


def test_config_requires_exactly_one_source(tmp_path):
    path, _ = write_config(
        tmp_path, dataset={"csv_path": "x.csv", "schema_path": "x.json"}
    )
    with pytest.raises(Exception, match="exactly one"):
        load_experiment_config(path)
    path2, _ = write_config(tmp_path, name="cfg2.json", synth=None)
    with pytest.raises(Exception, match="exactly one"):
        load_experiment_config(path2)


def test_config_null_source_counts_as_absent(tmp_path):
    path, doc = write_config(tmp_path)
    doc["dataset"] = None
    path.write_text(json.dumps(doc))
    cfg = load_experiment_config(path)
    assert cfg.source_kind == "synth"
    doc["dataset"] = {"csv_path": "x.csv", "schema_path": "x.json"}
    doc["synth"] = None
    path.write_text(json.dumps(doc))
    with pytest.raises(Exception, match="csv_path does not exist"):
        load_experiment_config(path)


def test_config_rejects_unknown_keys(tmp_path):
    path, _ = write_config(tmp_path, extra_section={"x": 1})
    assert main(["train", "--config", str(path)]) == 2


def test_missing_schema_file_exits_2_and_names_it(tmp_path, capsys):
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("a,s,y\n1,0,1\n")
    path, _ = write_config(
        tmp_path,
        synth=None,
        dataset={"csv_path": str(csv_path), "schema_path": str(tmp_path / "nope.json")},
    )
    assert main(["train", "--config", str(path)]) == 2
    assert "nope.json" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path, capsys):
    path = tmp_path / "absent.json"
    assert main(["train", "--config", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {path}: config file not found"]


def test_bad_train_options_exit_2(tmp_path):
    path, _ = write_config(tmp_path, train={"learning_rate": -1.0})
    assert main(["train", "--config", str(path)]) == 2


@pytest.mark.parametrize("key, value", [("attention_heads", 1), ("value_dim", 8), ("head_hidden", [])])
def test_retired_architecture_sizes_are_unknown_model_options(tmp_path, capsys, key, value):
    path, _ = write_config(tmp_path, model={key: value})
    assert main(["train", "--config", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {path}: unknown model options: ['{key}']"]
    assert not (tmp_path / "run").exists()


def test_dropout_is_a_train_option_not_a_model_option(tmp_path, capsys):
    path, _ = write_config(tmp_path, model={"dropout": 0.5})
    assert main(["train", "--config", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {path}: unknown model options: ['dropout']"]
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("key", ["enable_ifc", "enable_fc"])
def test_a_weight_of_0_is_the_only_term_switch(tmp_path, capsys, key):
    path, _ = write_config(tmp_path, train={key: False})
    assert main(["train", "--config", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {path}: unknown training options: ['{key}']"]
    assert not (tmp_path / "run").exists()


def test_importing_the_cli_does_not_import_scipy():
    env = dict(os.environ, PYTHONPATH=str(Path(fairint.__file__).resolve().parents[1]))
    code = "import sys, fairint.cli; print('scipy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


# -- synth ---------------------------------------------------------------------


def test_synth_writes_header_plus_rows(tmp_path):
    out = tmp_path / "small.csv"
    assert main(["synth", "--n", "100", "--beta", "1.0", "--rho", "0.5", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 101


def test_synth_is_byte_stable(tmp_path):
    args = ["synth", "--n", "120", "--beta", "1.0", "--rho", "0.5", "--seed", "7"]
    assert main(args + ["--out", str(tmp_path / "a.csv")]) == 0
    assert main(args + ["--out", str(tmp_path / "b.csv")]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.schema.json").read_bytes() == (tmp_path / "b.schema.json").read_bytes()


def test_synth_schema_contents(tmp_path):
    out = tmp_path / "s.csv"
    assert main(["synth", "--n", "100", "--beta", "0.0", "--rho", "0.0", "--out", str(out)]) == 0
    schema = json.loads((tmp_path / "s.schema.json").read_text())
    kinds = [(c["kind"], c["role"]) for c in schema]
    assert kinds.count(("numerical", "non_sensitive")) == 5
    assert ("categorical", "sensitive") in kinds
    assert [c["role"] for c in schema].count("label") == 1


def test_synth_rejects_tiny_n(tmp_path):
    assert main(["synth", "--n", "50", "--beta", "1.0", "--rho", "0.5",
                 "--out", str(tmp_path / "t.csv")]) == 2


def test_synth_extreme_beta_is_quiet_and_infinite_beta_is_rejected(tmp_path, capsys):
    args = ["synth", "--n", "100", "--rho", "0.5", "--out", str(tmp_path / "b.csv")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would surface on stderr
        assert main(args + ["--beta", "1e308"]) == 0
    assert capsys.readouterr().err == ""
    assert main(args + ["--beta", "inf"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_synth_unwritable_path_is_io_error(tmp_path):
    out = tmp_path / "no" / "such" / "dir" / "t.csv"
    assert main(["synth", "--n", "100", "--beta", "1.0", "--rho", "0.5", "--out", str(out)]) == 3


@pytest.mark.parametrize("out", ["/", ".", ""])
def test_synth_out_without_a_file_name_exits_2_before_writing(tmp_path, monkeypatch, capsys, out):
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--n", "100", "--beta", "1.0", "--rho", "0.5", "--out", out]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "--out" in lines[0]
    assert list(tmp_path.iterdir()) == []


# -- train ---------------------------------------------------------------------


def test_train_writes_fixed_layout(trained):
    names = {p.name for p in trained["dir"].iterdir()}
    assert {"model.bin", "history.jsonl", "report.json"} <= names


def test_train_reruns_byte_identical(tmp_path):
    path_a, _ = write_config(tmp_path, output_dir=str(tmp_path / "a"))
    path_b, _ = write_config(tmp_path, name="cfg_b.json", output_dir=str(tmp_path / "b"))
    assert main(["train", "--config", str(path_a)]) == 0
    assert main(["train", "--config", str(path_b)]) == 0
    for name in ("report.json", "model.bin", "history.jsonl"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


def test_report_fields_are_exactly_documented(trained):
    report = json.loads((trained["dir"] / "report.json").read_text())
    assert set(report) == REPORT_KEYS
    assert set(report["group_rates"]) == {"0", "1"}
    assert all(
        set(rates) == {"positive_rate", "tpr", "fpr", "count"}
        for rates in report["group_rates"].values()
    )


def test_history_head_records_run_and_ablation_flags(trained):
    lines = [json.loads(l) for l in (trained["dir"] / "history.jsonl").read_text().splitlines()]
    head, epochs = lines[0], lines[1:]
    assert set(head) == HEAD_KEYS
    assert head["seed"] == 1
    assert (head["enable_ifc"], head["enable_fc"]) == (head["lambda_ifc"] > 0.0, head["lambda_fc"] > 0.0)
    assert head["enable_bid"] is True
    assert len(epochs) == 3
    assert all(set(line) == EPOCH_KEYS for line in epochs)
    assert [line["epoch"] for line in epochs] == [0, 1, 2]


def test_head_term_flags_follow_the_weights(tmp_path):
    # each flag says whether its term was in the objective, which is whether its weight is above 0
    for weights in ((2.0, 0.0), (0.0, 30.0), (2.0, 30.0)):
        path, _ = write_config(tmp_path, train={"lambda_ifc": weights[0], "lambda_fc": weights[1], "max_epochs": 1})
        assert main(["train", "--config", str(path)]) == 0
        head = json.loads((tmp_path / "run" / "history.jsonl").read_text().splitlines()[0])
        assert (head["lambda_ifc"], head["lambda_fc"]) == weights
        assert (head["enable_ifc"], head["enable_fc"]) == (weights[0] > 0.0, weights[1] > 0.0)
        assert head["enable_bid"] is True


def test_seed_flag_overrides_config(tmp_path):
    path, _ = write_config(tmp_path)
    assert main(["train", "--config", str(path), "--seed", "5"]) == 0
    head = json.loads((tmp_path / "run" / "history.jsonl").read_text().splitlines()[0])
    assert head["seed"] == 5


def test_reconstructed_groups_without_a_reconstructor_exit_2_before_training(tmp_path, capsys):
    path, _ = write_config(tmp_path, train={"enable_bid": False})
    assert main(["train", "--config", str(path), "--groups-from", "reconstructed"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["error: this model has no reconstructor; groups_from='reconstructed' needs one"]
    assert not (tmp_path / "run").exists()


def test_model_file_records_the_architecture_and_the_run_training_config(trained):
    _, meta = load_parameters(trained["dir"] / "model.bin")
    assert "dropout" not in meta["model"]
    assert ModelConfig.from_dict(meta["model"]) == ModelConfig.from_dict(trained["doc"]["model"])
    assert meta["train"] == TrainConfig.from_dict(trained["doc"]["train"]).to_dict()


@pytest.mark.parametrize(
    "section, entries",
    [
        ("model", {"dropout": 0.1}),  # written while dropout was also an architecture field
        # written while the model took several heads, a value width and a hidden predictor layer
        ("model", {"attention_heads": 1, "value_dim": None, "head_hidden": []}),
        ("train", {"enable_ifc": True, "enable_fc": True}),  # written while these were training options
    ],
)
def test_model_file_written_by_an_older_version_still_scores_the_same(trained, tmp_path, capsys, section, entries):
    arrays, meta = load_parameters(trained["dir"] / "model.bin")
    meta[section].update(entries)
    old = tmp_path / "old.bin"
    save_parameters(old, arrays, meta)
    reports = []
    for model in (trained["dir"] / "model.bin", old):
        assert main(["eval", "--model", str(model), "--csv", str(trained["csv"])]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


def test_threshold_flag_lands_in_report(tmp_path):
    path, _ = write_config(tmp_path)
    assert main(["train", "--config", str(path), "--threshold", "0.3"]) == 0
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert report["threshold"] == 0.3


# -- eval ----------------------------------------------------------------------


def test_eval_runs_on_fresh_csv(trained, tmp_path, capsys):
    model = str(trained["dir"] / "model.bin")
    out = tmp_path / "report.json"
    assert main(["eval", "--model", model, "--csv", str(trained["csv"]), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert set(report) == REPORT_KEYS
    assert report["groups_from"] == "true"
    assert json.loads(capsys.readouterr().out) == report


def test_eval_reconstructed_groups(trained, capsys):
    model = str(trained["dir"] / "model.bin")
    assert main(
        ["eval", "--model", model, "--csv", str(trained["csv"]), "--groups-from", "reconstructed"]
    ) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["groups_from"] == "reconstructed"


@pytest.mark.parametrize("groups_from", ["true", "reconstructed"])
def test_eval_on_rows_where_a_metric_is_undefined_names_the_csv(trained, tmp_path, capsys, groups_from):
    csv = tmp_path / "one_class.csv"
    csv.write_bytes(_with_every_label("1")(trained["csv"].read_bytes()))
    argv = ["eval", "--model", str(trained["dir"] / "model.bin"), "--csv", str(csv), "--groups-from", groups_from]
    assert main(argv) == 4
    assert capsys.readouterr().err.splitlines() == [
        f"error: {csv}: group 0 has no negative ground-truth rows; FPR undefined"]


def test_eval_is_idempotent(trained, capsys):
    model = str(trained["dir"] / "model.bin")
    args = ["eval", "--model", model, "--csv", str(trained["csv"])]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


# -- explain -------------------------------------------------------------------


def test_explain_writes_one_row_per_feature(trained, capsys):
    model = str(trained["dir"] / "model.bin")
    assert main(["explain", "--model", model, "--csv", str(trained["csv"])]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"split", "heads"} and doc["split"] == "all"
    assert (trained["dir"] / "attention.json").exists()  # default lands next to the model
    for head in doc["heads"]:
        assert set(head) == {"head", "features"}
        assert len(head["features"]) == 5
        for row in head["features"]:
            assert set(row) == {"feature", "mean", "variance", "min", "max"}
            assert 0.0 < row["mean"] < 1.0


def test_explain_uniform_attention_oracle(trained, tmp_path, capsys):
    # zeroed query weights make every attention row exactly uniform
    arrays, meta = load_parameters(trained["dir"] / "model.bin")
    arrays["bid.h0.query"][:] = 0.0
    uniform = tmp_path / "uniform.bin"
    save_parameters(uniform, arrays, meta)
    assert main(["explain", "--model", str(uniform), "--csv", str(trained["csv"]),
                 "--out", str(tmp_path / "att.json")]) == 0
    doc = json.loads(capsys.readouterr().out)
    for row in doc["heads"][0]["features"]:
        assert row["mean"] == 0.2
        assert row["variance"] == 0.0
        assert row["min"] == row["max"] == 0.2


def test_explain_rejects_interaction_free_model(tmp_path):
    path, _ = write_config(tmp_path, train={"enable_bid": False, "max_epochs": 1})
    assert main(["train", "--config", str(path)]) == 0
    model = str(tmp_path / "run" / "model.bin")
    csv_path = tmp_path / "d.csv"
    assert main(["synth", "--n", "100", "--beta", "2.0", "--rho", "0.8",
                 "--out", str(csv_path)]) == 0
    assert main(["explain", "--model", model, "--csv", str(csv_path)]) == 2


# -- malformed input -----------------------------------------------------------


def _insert_non_utf8(raw):
    return raw[: len(raw) // 2] + b"\xff" + raw[len(raw) // 2 :]


SYNTH_INPUTS = ("proxy1", "proxy2", "noise1", "noise2", "noise3")


def _metadata_as(doc):
    """Replace a model file's whole JSON metadata with ``doc``, keeping its arrays."""

    def corrupt(raw):
        (length,) = struct.unpack_from("<I", raw, 12)  # after the magic and the version
        text = json.dumps(doc).encode("utf-8")
        return raw[:12] + struct.pack("<I", len(text)) + text + raw[16 + length :]

    return corrupt


def _with_metadata(**entries):
    """Replace entries of a model file's JSON metadata, keeping its arrays."""

    def corrupt(raw):
        (length,) = struct.unpack_from("<I", raw, 12)
        return _metadata_as({**json.loads(raw[16 : 16 + length]), **entries})(raw)

    return corrupt


def _with_version(raw):
    return raw[:8] + struct.pack("<I", 2) + raw[12:]


def _with_first_record_twice(raw):
    """Append a copy of a model file's first parameter record and count it."""
    (length,) = struct.unpack_from("<I", raw, 12)
    count_at = 16 + length
    (count,) = struct.unpack_from("<I", raw, count_at)
    start = count_at + 4
    (name_length,) = struct.unpack_from("<I", raw, start)
    ndim_at = start + 4 + name_length
    (ndim,) = struct.unpack_from("<I", raw, ndim_at)
    shape = struct.unpack_from(f"<{ndim}Q", raw, ndim_at + 4)
    end = ndim_at + 4 + 8 * ndim + 8 * math.prod(shape)
    return raw[:count_at] + struct.pack("<I", count + 1) + raw[start:] + raw[start:end]


def _with_non_utf8_parameter_name(raw):
    """Make the first byte of a model file's first parameter name invalid UTF-8."""
    (length,) = struct.unpack_from("<I", raw, 12)
    at = 16 + length + 8  # past the metadata, the parameter count and the name's length
    return raw[:at] + b"\xff" + raw[at + 1 :]


def _with_metadata_entry(key, edit):
    """Replace a model file's metadata entry ``key`` with ``edit`` of it, keeping its arrays."""

    def corrupt(raw):
        (length,) = struct.unpack_from("<I", raw, 12)
        return _with_metadata(**{key: edit(json.loads(raw[16 : 16 + length])[key])})(raw)

    return corrupt


def _without_entry(key, column):
    """Drop ``column``'s entry from the object a model file's metadata holds under ``key``."""
    return _with_metadata_entry(key, lambda entries: {k: v for k, v in entries.items() if k != column})


def _without_config_key(key):
    """Remove one top-level key from an experiment config."""
    return lambda raw: json.dumps({k: v for k, v in json.loads(raw).items() if k != key}).encode("utf-8")


def _without_inputs(schema):
    """A schema document's entries but its non-sensitive columns."""
    return [entry for entry in schema if entry["role"] != "non_sensitive"]


def _with_schema(edit):
    """Replace a schema file's JSON array with ``edit(array)``."""
    return lambda raw: json.dumps(edit(json.loads(raw))).encode("utf-8")


def _with_schema_entry(column, **fields):
    """Update the schema entry of ``column``."""

    def edit(schema):
        for entry in schema:
            if entry["name"] == column:
                entry.update(fields)
        return schema

    return _with_schema(edit)


def _with_arrays(**fills):
    """Fill named parameter records of a model file with one value each, or drop those given None,
    keeping its metadata."""

    def corrupt(raw):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.bin"
            path.write_bytes(raw)
            arrays, meta = load_parameters(path)
            for name, value in fills.items():
                if value is None:
                    del arrays[name]
                else:
                    arrays[name][...] = value
            save_parameters(path, arrays, meta)
            return path.read_bytes()

    return corrupt


def _with_cell(column, text):
    """Replace one column's cell in the first data row of a CSV."""

    def corrupt(raw):
        header, first, rest = raw.split(b"\n", 2)
        cells = first.split(b",")
        cells[header.split(b",").index(column.encode())] = text.encode()
        return b"\n".join([header, b",".join(cells), rest])

    return corrupt


def _with_every_label(text):
    """Set the label cell of every data row of a CSV to ``text``."""

    def corrupt(raw):
        header, *rows = [line.split(b",") for line in raw.splitlines()]
        y = header.index(b"y")
        rows = [[*row[:y], text.encode(), *row[y + 1:]] for row in rows]
        return b"".join(b",".join(row) + b"\n" for row in [header, *rows])

    return corrupt


def _with_first_two_columns_swapped(raw):
    """Swap the first two columns of every row of a CSV, its header included."""
    rows = [line.split(b",") for line in raw.splitlines()]
    return b"".join(b",".join([row[1], row[0], *row[2:]]) + b"\n" for row in rows)


def _with_config(**sections):
    """Merge entries into an experiment config's sections; a non-object replaces the section."""

    def corrupt(raw):
        doc = json.loads(raw)
        for key, value in sections.items():
            if isinstance(value, dict):
                doc[key].update(value)
            else:
                doc[key] = value
        return json.dumps(doc).encode("utf-8")

    return corrupt


def _with_source(**paths):
    """Swap an experiment config's synth source for a dataset source.

    Paths not given are the real files that the ``trained`` fixture keeps
    beside its run directory.
    """

    def corrupt(raw):
        doc = json.loads(raw)
        files = Path(doc["output_dir"]).parent
        real = {"csv_path": str(files / "data.csv"), "schema_path": str(files / "data.schema.json")}
        doc.update(synth=None, dataset={**real, **paths})
        return json.dumps(doc).encode("utf-8")

    return corrupt


def _with_categorical(column, cardinality):
    """Swap an experiment config's synth source for the ``trained`` fixture's files, read
    with a schema that declares ``column`` categorical with ``cardinality``.

    The schema lands in the working directory, which the test has moved to its tmp_path.
    """

    def corrupt(raw):
        files = Path(json.loads(raw)["output_dir"]).parent
        schema = json.loads((files / "data.schema.json").read_text())
        for entry in schema:
            if entry["name"] == column:
                entry.update(kind="categorical", cardinality=cardinality)
        Path("categorical.schema.json").write_text(json.dumps(schema))
        return _with_source(schema_path="categorical.schema.json")(raw)

    return corrupt


@pytest.mark.parametrize(
    "kind, corrupt, code",
    [
        ("model", lambda raw: raw[:30], 3),
        ("model", lambda raw: raw[:200], 3),
        ("model", lambda raw: raw[:-10], 3),
        ("model", lambda raw: raw + b"\0", 3),
        ("csv", _insert_non_utf8, 3),
        ("csv", _with_cell("proxy1", "1.7e308"), 3),
        # a quoted field past the csv module's size limit (131,072 characters)
        ("csv", _with_cell("proxy1", '"' + "1" * 200_000 + '"'), 3),
        # a saved model reads only CSVs whose header is its schema's columns, in order
        ("csv", _with_first_two_columns_swapped, 3),
        # rows on which a metric is undefined: no group has a negative row, so no FPR
        ("csv", _with_every_label("1"), 4),
        ("schema", _insert_non_utf8, 3),
        ("config", _insert_non_utf8, 2),
        ("model", _with_metadata(schema=[1, 2]), 3),
        ("model", _with_metadata(vocabularies=5), 3),
        ("model", _with_metadata(vocabularies={}), 3),
        ("model", _without_entry("vocabularies", "s"), 3),
        ("model", _without_entry("standardize_stats", "noise3"), 3),
        ("model", _with_metadata_entry("schema", _without_inputs), 3),
        ("model", _with_metadata(model=[1]), 3),
        ("model", _with_metadata(model={"embed_dim": "4"}), 3),
        ("model", _with_metadata(standardize_stats={"proxy1": 0.5}), 3),
        ("model", _with_metadata(standardize_stats={c: [0.0, 0.0] for c in SYNTH_INPUTS}), 3),
        ("model", _with_metadata(standardize_stats={c: [10**400, 1.0] for c in SYNTH_INPUTS}), 3),
        ("config", _with_config(train=5), 2),
        ("config", _with_config(train={"learning_rate": "x"}), 2),
        ("config", _with_config(train={"batch_size": 2.5}), 2),
        ("config", _with_config(train={"max_epochs": 1.5}), 2),
        ("config", _with_config(train={"seed": "1"}), 2),
        ("config", _with_config(train={"patience": True}), 2),
        ("config", _with_config(train={"lambda_fc": True}), 2),
        ("config", _with_config(train={"enable_bid": "no"}), 2),
        ("config", _with_config(train={"enable_bid": False, "lambda_fc": 30.0}), 2),
        ("config", _with_config(model={"embed_dim": True}), 2),
        ("config", _with_config(train={"learning_rate": float("nan")}), 2),
        ("config", _with_config(train={"lambda_fc": float("inf")}), 2),
        ("config", _with_config(train={"l2": float("nan")}), 2),
        ("config", lambda raw: raw.replace(b'"seed": 1', b'"seed": 1' + b"0" * 5000), 2),
        ("schema", lambda raw: raw.replace(b'"cardinality": 2', b'"cardinality": 2' + b"0" * 5000), 3),
        ("schema", _with_schema(lambda schema: []), 3),
        ("schema", _with_schema(lambda schema: {"columns": schema}), 3),
        ("schema", _with_schema_entry("noise1", name="proxy1"), 3),
        ("schema", _with_schema_entry("noise1", kind="ordinal"), 3),
        ("schema", _with_schema_entry("noise1", role="weight"), 3),
        ("schema", _with_schema_entry("s", cardinality=0), 3),
        ("schema", _with_schema_entry("noise1", cardinality=3), 3),
        ("schema", _with_schema_entry("y", role="non_sensitive"), 3),
        ("schema", _with_schema_entry("noise1", kind="categorical", cardinality=2, role="sensitive"), 3),
        ("schema", _with_schema(_without_inputs), 3),
        ("model", _with_version, 3),
        ("model", _metadata_as([1]), 3),
        ("model", _with_first_record_twice, 3),
        ("model", _with_non_utf8_parameter_name, 3),
        ("model", _with_metadata(kind="forest"), 3),
        ("model", _with_metadata(model={"attention_heads": 2}), 3),
        ("model", _with_metadata(model={"value_dim": 8}), 3),
        ("model", _with_metadata(model={"head_hidden": [8]}), 3),
        # PiB-scale: numpy refuses the allocation before touching memory
        ("config", _with_config(synth={"n": 10**15}), 3),
        # sizes numpy cannot represent at all: a dimension, or a byte count, beyond intp
        ("config", _with_config(synth={"n": 10**20}), 3),
        ("config", _with_config(synth={"n": 2**63 - 1}), 3),
        # parameter shapes whose byte count is beyond intp
        ("config", _with_config(model={"sar_hidden": [10**18]}), 3),
        ("config", _with_config(model={"baseline_hidden": [10**18]}, train={"enable_bid": False}), 3),
        ("config", _with_categorical("noise1", 10**18), 3),
        ("model", _with_metadata(model={"embed_dim": 4, "sar_hidden": [10**18]}), 3),
        ("config", _with_source(csv_path=5), 2),
        ("config", _with_source(schema_path=None), 2),
        ("config", _with_source(csv_path=""), 2),
        ("config", _with_config(output_dir=None), 2),
        ("config", _with_config(output_dir=""), 2),
        ("config", _with_config(output_dir="run\0"), 2),
        ("config", lambda raw: b"[1]", 2),
        ("config", _without_config_key("output_dir"), 2),
        ("config", _with_config(synth=None, dataset=5), 2),
        ("model", _with_arrays(**{"bid.h0.key": float("nan")}), 3),
        ("model", _with_arrays(**{"head.layer0.b": float("inf")}), 3),
        # finite weights whose products overflow: the op's own check, with no numpy warning
        ("model", _with_arrays(**{"sar.layer0.w": 1e308}), 4),
        ("config", _with_config(train={"learning_rate": 1e300}), 4),
        # settings whose errors once named neither the config file nor the key as written
        ("config", _with_config(train={"seed": -1}), 2),
        ("config", _with_config(train={"epochs": 3}), 2),
        ("config", _with_config(synth={"beta": True}), 2),
        ("config", _with_config(synth={"rho": 1.5}), 2),
        ("config", _with_config(synth={"n": 50}), 2),
        ("model", _with_arrays(**{"head.layer0.b": None}), 3),
    ],
    ids=[
        "model_cut_to_30", "model_cut_to_200", "model_10_short", "model_trailing_byte",
        "csv_not_utf8", "csv_cell_overflows_when_standardized", "csv_field_over_size_limit", "csv_columns_reordered",
        "csv_one_class",
        "schema_not_utf8", "config_not_utf8",
        "meta_schema_not_objects", "meta_vocabularies_not_object", "meta_vocabulary_missing",
        "meta_vocabulary_lacks_sensitive", "meta_stats_lack_an_input", "meta_schema_without_inputs",
        "meta_model_not_object", "meta_model_size_not_int", "meta_stats_not_pairs", "meta_stats_zero_std",
        "meta_stats_int_too_large",
        "train_not_object", "train_rate_not_number", "train_batch_not_int", "train_epochs_not_int",
        "train_seed_not_int", "train_patience_bool", "train_lambda_bool", "train_enable_not_bool",
        "vanilla_with_a_weight",
        "model_size_bool", "train_rate_nan", "train_lambda_infinite", "train_l2_nan",
        "config_int_too_long", "schema_int_too_long",
        "schema_no_columns", "schema_not_array", "schema_duplicate_names", "schema_unknown_kind",
        "schema_unknown_role", "schema_bad_cardinality", "schema_numerical_with_cardinality",
        "schema_no_label", "schema_two_sensitive", "schema_without_inputs",
        "model_unsupported_version", "meta_not_object", "model_duplicate_parameter",
        "model_parameter_name_not_utf8", "meta_unknown_kind",
        "meta_two_heads", "meta_value_width", "meta_hidden_head_layer",
        "synth_n_too_large_to_allocate",
        "synth_n_beyond_intp", "synth_n_bytes_beyond_intp", "sar_width_beyond_intp",
        "vanilla_width_beyond_intp", "cardinality_beyond_intp", "meta_sar_width_beyond_intp", "csv_path_not_string", "schema_path_null",
        "csv_path_empty", "output_dir_null", "output_dir_empty", "output_dir_nul",
        "config_not_object", "output_dir_missing", "dataset_not_object",
        "weights_nan", "weights_inf", "weights_overflow_in_matmul", "train_rate_overflows",
        "train_seed_negative", "train_unknown_option", "synth_beta_bool", "synth_rho_above_1", "synth_n_below_100",
        "model_parameter_missing",
    ],
)
def test_malformed_input_exits_with_one_error_line(trained, tmp_path, monkeypatch, capsys, request, kind, corrupt,
                                                   code):
    monkeypatch.chdir(tmp_path)  # a relative output directory lands here, not in the working tree
    files = {
        "model": trained["dir"] / "model.bin",
        "csv": trained["csv"],
        "schema": trained["schema"],
        "config": trained["config"],
    }
    bad = tmp_path / f"bad_{kind}"
    bad.write_bytes(corrupt(files[kind].read_bytes()))
    files[kind] = bad
    argv = {
        "model": ["eval", "--model", str(files["model"]), "--csv", str(files["csv"])],
        "csv": ["eval", "--model", str(files["model"]), "--csv", str(files["csv"])],
        "schema": ["probe", "--csv", str(files["csv"]), "--schema", str(files["schema"])],
        "config": ["train", "--config", str(files["config"])],
    }[kind]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # pytest records warnings, so stderr alone would not show them
        assert main(argv) == code
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    # the reader of the bad file names it once, before the fault; an allocation failure keeps its own prefix
    if request.node.callspec.id in _FOUND_IN_USE:
        assert str(bad) not in lines[0]
    else:
        assert lines[0].removeprefix("error: out of memory: ").removeprefix("error: ").startswith(f"{bad}: ")
        assert lines[0].count(str(bad)) == 1


# faults found once a file's contents are in use rather than while it is read, which name no file
_FOUND_IN_USE = {"csv_cell_overflows_when_standardized", "weights_overflow_in_matmul", "train_rate_overflows"}


@pytest.mark.parametrize(("section", "setting", "message"), [
    ("train", {"seed": -1}, "seed must be an int >= 0, got -1"),
    ("train", {"epochs": 3}, "unknown training options: ['epochs']"),
    ("model", {"embed_dim": 0}, "embed_dim must be an int >= 1, got 0"),
    ("synth", {"beta": True}, "beta must be a finite number in [0, inf), got True"),
    ("synth", {"beta": -1.0}, "beta must be a finite number in [0, inf), got -1.0"),
    ("synth", {"rho": 1.5}, "rho must be a finite number in [0, 1], got 1.5"),
    ("synth", {"n": 50}, "n must be an int >= 100, got 50"),
])
def test_a_bad_config_setting_names_the_file_then_the_key_as_written(tmp_path, capsys, section, setting, message):
    path, _ = write_config(tmp_path, **{section: setting})
    for command in (["train", "--config", str(path)], ["sweep", "--config", str(path), "--grid", "0,0"]):
        assert main(command) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {path}: {message}"]
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["synth", "sweep", "train"])
def test_negative_seed_exits_2_before_any_work(tmp_path, capsys, command):
    config, _ = write_config(tmp_path)
    argv = {
        "synth": ["synth", "--n", "200", "--beta", "2", "--rho", "0.8", "--out", str(tmp_path / "data.csv")],
        "sweep": ["sweep", "--config", str(config), "--grid", "0,0"],
        "train": ["train", "--config", str(config)],
    }[command]
    assert main(argv + ["--seed", "-1"]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: --seed must be an int >= 0, got -1"]
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


SYNTH = ["synth", "--n", "200", "--beta", "2", "--rho", "0.8", "--out", "data.csv"]


@pytest.mark.parametrize(("argv", "message"), [
    (["synth", "--n", "abc", *SYNTH[3:]], "fairint synth: argument --n: invalid int value: 'abc'"),
    ([*SYNTH, "--seed", "x"], "fairint synth: argument --seed: invalid int value: 'x'"),
    ([*SYNTH, "--seed", "1.5"], "fairint synth: argument --seed: invalid int value: '1.5'"),
    (["synth", "--n", "200", "--beta", "2", "--rho", "1.5", "--out", "data.csv"],
     "--rho must be a finite number in [0, 1], got 1.5"),
    (["train"], "fairint train: the following arguments are required: --config"),
    (["train", "--config", "cfg.json", "--epochs", "3"], "fairint: unrecognized arguments: --epochs 3"),
    ([], "fairint: the following arguments are required: command"),
    (["synth", "--n", "200", "--beta", "nan", "--rho", "0.8", "--out", "data.csv"],
     "--beta must be a finite number in [0, inf), got nan"),
    (["synth", "--n", "50", "--beta", "2", "--rho", "0.8", "--out", "data.csv"], "--n must be an int >= 100, got 50"),
    # a saved model is read only with the schema in its file
    (["eval", "--model", "m.bin", "--csv", "d.csv", "--schema", "s.json"],
     "fairint: unrecognized arguments: --schema s.json"),
    (["explain", "--model", "m.bin", "--csv", "d.csv", "--schema", "s.json"],
     "fairint: unrecognized arguments: --schema s.json"),
])
def test_a_malformed_command_line_exits_2_with_one_error_line(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.err.splitlines() == [f"error: {message}"] and out.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [["--help"], ["synth", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as done:
        main(argv)
    assert done.value.code == 0
    assert capsys.readouterr().out.startswith("usage: fairint")


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "abc"])
def test_non_finite_threshold_exits_2_before_any_work(trained, tmp_path, capsys, command, value):
    config, _ = write_config(tmp_path)
    argv = {
        "train": ["train", "--config", str(config)],
        "eval": ["eval", "--model", str(trained["dir"] / "model.bin"), "--csv", str(trained["csv"])],
    }[command]
    assert main(argv + [f"--threshold={value}"]) == 2
    out = capsys.readouterr()
    lines = out.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "--threshold" in lines[0]
    assert out.out == ""
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_output_dir_that_is_a_file_exits_3_before_any_training(tmp_path, monkeypatch, capsys, command):
    config, doc = write_config(tmp_path)
    Path(doc["output_dir"]).write_text("")
    trained = [_spy(monkeypatch, owner, "train") for owner in (fairint.cli, fairint.training)]
    argv = {"train": ["train", "--config", str(config)],
            "sweep": ["sweep", "--config", str(config), "--grid", "0,0"]}[command]
    assert main(argv) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert trained == [[], []]


def test_column_whose_statistics_overflow_exits_3(tmp_path, capsys):
    schema = [
        {"name": "a", "kind": "numerical", "cardinality": None, "role": "non_sensitive"},
        {"name": "s", "kind": "categorical", "cardinality": 2, "role": "sensitive"},
        {"name": "y", "kind": "categorical", "cardinality": 2, "role": "label"},
    ]
    (tmp_path / "schema.json").write_text(json.dumps(schema))
    # every cell is finite, but the squares of the deviations are not
    cells = [repr((-1.5e308, 1.5e308)[i // 50 % 2]) if i % 50 == 0 else str(i / 10) for i in range(400)]
    rows = "\n".join(f"{a},{i % 2},{(i // 2) % 2}" for i, a in enumerate(cells))
    (tmp_path / "data.csv").write_text("a,s,y\n" + rows + "\n")
    config, _ = write_config(
        tmp_path, synth=None,
        dataset={"csv_path": str(tmp_path / "data.csv"), "schema_path": str(tmp_path / "schema.json")},
    )
    for argv in (["train", "--config", str(config)],
                 ["probe", "--csv", str(tmp_path / "data.csv"), "--schema", str(tmp_path / "schema.json")]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "'a'" in lines[0]
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["eval", "explain"])
def test_cell_that_overflows_when_standardized_exits_3_naming_its_column(trained, tmp_path, capsys, command):
    # finite in the CSV, but not once the model's saved statistics scale it
    bad = tmp_path / "bad.csv"
    bad.write_bytes(_with_cell("proxy1", "1.7e308")(trained["csv"].read_bytes()))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--model", str(trained["dir"] / "model.bin"), "--csv", str(bad)]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "'proxy1'" in lines[0]


def _with_empty_record(*shape):
    """Append a parameter record of ``shape`` (size 0, so it holds no values) to a model file."""

    def corrupt(raw):
        (length,) = struct.unpack_from("<I", raw, 12)  # after the magic and the version: the metadata
        at = 16 + length
        (count,) = struct.unpack_from("<I", raw, at)
        record = struct.pack(f"<I5sI{len(shape)}Q", 5, b"extra", len(shape), *shape)
        return raw[:at] + struct.pack("<I", count + 1) + raw[at + 4 :] + record

    return corrupt


@pytest.mark.parametrize("command", ["eval", "explain"])
@pytest.mark.parametrize("shape", [(0, 2**63), (0, 2**64 - 1), (2**40, 0, 2**40)])
def test_model_record_of_size_0_with_a_shape_numpy_cannot_represent_exits_3(trained, tmp_path, capsys,
                                                                            command, shape):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(_with_empty_record(*shape)((trained["dir"] / "model.bin").read_bytes()))
    argv = [command, "--model", str(bad), "--csv", str(trained["csv"]), "--out", str(tmp_path / "out.json")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "parameter record" in lines[0]
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("command", ["eval", "explain"])
def test_scoring_commands_take_no_split_flag(trained, capsys, command):
    # a CSV loaded for scoring is never split, so only "all" could work
    argv = [command, "--model", str(trained["dir"] / "model.bin"), "--csv", str(trained["csv"]), "--split", "all"]
    assert main(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["error: fairint: unrecognized arguments: --split all"]


def _config_whose_split_holds_one_group(tmp_path, which):
    """An experiment config reading a 200-row synthetic CSV whose ``which`` rows, split
    with the config's seed, all hold sensitive value 0."""
    ds = synth_generate(n=200, bias_strength=2.0, proxy_corr=0.8, seed=1)
    s = ds.columns["s"].copy()
    s[split(ds, SPLIT_RATIOS, seed=1).split_tags == SPLIT_CODES[which]] = 0
    save_csv(replace(ds, columns={**ds.columns, "s": s}), tmp_path / "data.csv")
    save_schema(ds.schema, tmp_path / "data.schema.json")
    source = {"csv_path": str(tmp_path / "data.csv"), "schema_path": str(tmp_path / "data.schema.json")}
    return write_config(tmp_path, synth=None, dataset=source)[0]


@pytest.mark.parametrize("which", ["val", "test"])
@pytest.mark.parametrize("command", [["train"], ["sweep", "--grid", "0,0;1,1;2,30"]], ids=["train", "sweep"])
def test_a_split_with_one_group_fails_before_the_first_step(tmp_path, monkeypatch, capsys, command, which):
    config = _config_whose_split_holds_one_group(tmp_path, which)
    steps = []
    monkeypatch.setattr(fairint.training.Adam, "step", lambda self: steps.append(self))
    assert main([command[0], "--config", str(config), *command[1:]]) == 4
    assert capsys.readouterr().err.splitlines() == [
        f"error: {which} split: fairness gaps need both groups in the evaluation rows, found only group [0]"]
    assert steps == []
    assert not (tmp_path / "run").exists()


def test_reconstructed_test_groups_of_one_group_name_the_test_split(tmp_path, capsys):
    # after this one epoch the reconstructor puts every test row in group 0
    config, _ = write_config(tmp_path, train={"learning_rate": 0.003, "batch_size": 128, "max_epochs": 1,
                                              "patience": 1, "seed": 0})
    assert main(["train", "--config", str(config), "--groups-from", "reconstructed"]) == 4
    assert capsys.readouterr().err.splitlines() == [
        "error: test split: fairness gaps need both groups in the evaluation rows, found only group [0]"]
    assert list((tmp_path / "run").iterdir()) == []  # the report fails before any output is written


def test_a_train_whose_model_file_cannot_be_written_writes_nothing_else(tmp_path, capsys):
    config, _ = write_config(tmp_path, train={"max_epochs": 1, "patience": 1})
    (tmp_path / "run" / "model.bin").mkdir(parents=True)
    assert main(["train", "--config", str(config)]) == 3
    assert "model.bin" in capsys.readouterr().err
    assert [p.name for p in (tmp_path / "run").iterdir()] == ["model.bin"]
    assert list((tmp_path / "run" / "model.bin").iterdir()) == []


def test_the_cli_trains_the_model_the_library_trains(tmp_path):
    # _materialize draws the run's model once as an allocation check; train() draws it again
    config, doc = write_config(tmp_path)
    assert main(["train", "--config", str(config)]) == 0
    source, seed = doc["synth"], doc["train"]["seed"]
    table = synth_generate(n=source["n"], bias_strength=source["beta"], proxy_corr=source["rho"], seed=seed)
    dataset = split(table, SPLIT_RATIOS, seed)
    model, _ = fairint.training.train(dataset, ModelConfig(**doc["model"]), TrainConfig(**doc["train"]))
    saved, _ = load_parameters(tmp_path / "run" / "model.bin")
    assert saved.keys() == model.parameter_arrays().keys()
    for name, values in model.parameter_arrays().items():
        assert saved[name].tobytes() == values.tobytes(), name


# -- sweep ---------------------------------------------------------------------


def _spy(monkeypatch, owner, name):
    """Record each call of ``owner.name``, which still runs; returns the list of calls."""
    calls, real = [], getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs))
    return calls


def test_empty_grid_exits_2(trained, monkeypatch, capsys):
    built = _spy(monkeypatch, fairint.cli, "_materialize")
    for grid in ("", " ; "):
        assert main(["sweep", "--config", str(trained["config"]), "--grid", grid]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "grid" in lines[0]
    assert built == []  # rejected before any data is built


def test_malformed_grid_exits_2(trained, capsys):
    for grid in ("1,2,3", "a,b"):
        assert main(["sweep", "--config", str(trained["config"]), "--grid", grid]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: bad grid point ")


def test_one_point_sweep_round_trips_report_values(tmp_path):
    path, _ = write_config(tmp_path, train={"lambda_ifc": 1.0, "lambda_fc": 2.0})
    assert main(["sweep", "--config", str(path), "--grid", "1,2"]) == 0
    lines = (tmp_path / "run" / "tradeoff.csv").read_text().splitlines()
    assert len(lines) == 2
    assert lines[0] == "lambda_ifc,lambda_fc,auc,ddp,deo"

    # the same lambdas through cmd_train must reproduce the row exactly
    assert main(["train", "--config", str(path)]) == 0
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    li, lf, auc, ddp, deo = lines[1].split(",")
    assert (float(li), float(lf)) == (1.0, 2.0)
    assert float(auc) == report["auc"]
    assert float(ddp) == report["ddp"]
    assert float(deo) == report["deo"]


@pytest.mark.parametrize("grid", ["nan,0", "inf,0", "1e400,0", "-1,0"])
def test_grid_weight_that_is_not_finite_or_is_negative_exits_2_before_any_work(tmp_path, capsys, grid):
    path, _ = write_config(tmp_path)
    assert main(["sweep", "--config", str(path), f"--grid={grid};0,0"]) == 2
    out = capsys.readouterr()
    lines = out.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "grid" in lines[0]
    assert out.out == ""
    assert not (tmp_path / "run").exists()


def test_sweep_with_a_removed_term_switch_exits_2_before_any_work(tmp_path, capsys):
    path, _ = write_config(tmp_path, train={"enable_ifc": False})
    assert main(["sweep", "--config", str(path), "--grid", "0,0;2,30"]) == 2
    out = capsys.readouterr()
    lines = out.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "enable_ifc" in lines[0]
    assert out.out == ""
    assert not (tmp_path / "run" / "tradeoff.csv").exists()


def test_vanilla_sweep_reports_only_its_zero_weight_point(tmp_path, capsys):
    # the vanilla model has no fairness terms, so a nonzero weight fails its point instead of
    # labelling the (0, 0) metrics with weights that never ran
    path, _ = write_config(tmp_path, train={"enable_bid": False, "max_epochs": 1})
    assert main(["sweep", "--config", str(path), "--grid", "0,0;2,30"]) == 0
    lines = (tmp_path / "run" / "tradeoff.csv").read_text().splitlines()
    assert len(lines) == 3
    assert lines[1].split(",")[:2] == ["0.0", "0.0"] and "" not in lines[1].split(",")
    assert lines[2].split(",") == ["2.0", "30.0", "", "", ""]
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2 and out[0].startswith("lambda_ifc=0 lambda_fc=0 auc=")
    assert out[1].startswith("lambda_ifc=2 lambda_fc=30 failed: ConfigError: ")


def test_failed_sweep_point_leaves_blanks(tmp_path, capsys):
    path, _ = write_config(tmp_path)
    # a valid weight so large that the first fair step's loss overflows
    assert main(["sweep", "--config", str(path), "--grid=0,1e308;0,0"]) == 0
    lines = (tmp_path / "run" / "tradeoff.csv").read_text().splitlines()
    assert len(lines) == 3
    assert lines[1].split(",")[2:] == ["", "", ""]
    assert lines[2].split(",")[2] != ""
    assert "failed" in capsys.readouterr().out


# -- probe ---------------------------------------------------------------------


def test_probe_cli_output(trained, capsys):
    assert main(["probe", "--csv", str(trained["csv"]), "--schema", str(trained["schema"])]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"intercept", "coefficients"}
    assert doc["coefficients"][0]["feature"] == "proxy1"


def test_probe_single_class_sensitive_exits_3(tmp_path):
    schema = [
        {"name": "a", "kind": "numerical", "cardinality": None, "role": "non_sensitive"},
        {"name": "s", "kind": "categorical", "cardinality": 2, "role": "sensitive"},
        {"name": "y", "kind": "categorical", "cardinality": 2, "role": "label"},
    ]
    (tmp_path / "schema.json").write_text(json.dumps(schema))
    rows = "\n".join(f"{i / 10},0,{i % 2}" for i in range(10))
    (tmp_path / "data.csv").write_text("a,s,y\n" + rows + "\n")
    assert main(["probe", "--csv", str(tmp_path / "data.csv"),
                 "--schema", str(tmp_path / "schema.json")]) == 3


def _table_without_inputs(tmp_path):
    """A CSV of only a sensitive and a label column, with its schema."""
    schema = [
        {"name": "s", "kind": "categorical", "cardinality": 2, "role": "sensitive"},
        {"name": "y", "kind": "categorical", "cardinality": 2, "role": "label"},
    ]
    (tmp_path / "schema.json").write_text(json.dumps(schema))
    rows = "\n".join(f"{i % 2},{i // 2 % 2}" for i in range(10))
    (tmp_path / "data.csv").write_text("s,y\n" + rows + "\n")
    return tmp_path / "data.csv", tmp_path / "schema.json"


def test_probe_without_input_columns_exits_3(tmp_path, capsys):
    csv_path, schema_path = _table_without_inputs(tmp_path)
    assert main(["probe", "--csv", str(csv_path), "--schema", str(schema_path)]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"error: {schema_path}: schema needs at least one non-sensitive column"]


@pytest.mark.parametrize("command", ["train", "sweep", "eval"])
def test_a_schema_without_input_columns_exits_3_naming_its_file(trained, tmp_path, capsys, command):
    csv_path, schema_path = _table_without_inputs(tmp_path)
    config, doc = write_config(tmp_path, synth=None,
                               dataset={"csv_path": str(csv_path), "schema_path": str(schema_path)})
    model = tmp_path / "model.bin"
    model.write_bytes(_with_metadata_entry("schema", _without_inputs)((trained["dir"] / "model.bin").read_bytes()))
    argv, named = {
        "train": (["train", "--config", str(config)], schema_path),
        "sweep": (["sweep", "--config", str(config), "--grid", "0,0"], schema_path),
        "eval": (["eval", "--model", str(model), "--csv", str(trained["csv"])], f"{model}: metadata"),
    }[command]
    assert main(argv) == 3
    assert capsys.readouterr().err.splitlines() == [f"error: {named}: schema needs at least one non-sensitive column"]
    assert not Path(doc["output_dir"]).exists()


@pytest.mark.parametrize("command", [["train"], ["sweep", "--grid", "0,0;2,30"]], ids=["train", "sweep"])
@pytest.mark.parametrize(("size", "parameter"), [("sar_hidden", "sar.layer0.w of shape (20, 1000000000000000000)"),
                                                 ("cardinality", "embed.noise1 of shape (4, 1000000000000000001)")])
def test_a_model_too_large_to_allocate_exits_3_naming_the_config_and_the_parameter(trained, tmp_path, capsys,
                                                                                    command, size, parameter):
    if size == "sar_hidden":
        config, doc = write_config(tmp_path, model={"sar_hidden": [10**18]})
    else:
        schema = json.loads(trained["schema"].read_text())
        for entry in schema:
            if entry["name"] == "noise1":
                entry.update(kind="categorical", cardinality=10**18)
        schema_path = tmp_path / "wide.schema.json"
        schema_path.write_text(json.dumps(schema))
        config, doc = write_config(tmp_path, synth=None,
                                   dataset={"csv_path": str(trained["csv"]), "schema_path": str(schema_path)})
    assert main([command[0], "--config", str(config), *command[1:]]) == 3
    assert capsys.readouterr().err.splitlines() == [
        f"error: out of memory: {config}: parameter {parameter} exceeds the largest array numpy can represent"]
    assert not Path(doc["output_dir"]).exists()
