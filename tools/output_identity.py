"""Check that this checkout's CLI outputs are the same as another revision's.

    python tools/output_identity.py BASE

BASE is a git revision of this repository (a commit, a tag, ``HEAD~1``).
Its tree is exported with ``git archive`` into a temporary directory,
which is local git only and leaves nothing behind in the repository.
The other side is this checkout as it stands, uncommitted edits
included. In each tree the script runs one fixed matrix of ``fairint``
commands, each in its own process with one BLAS thread:

  synth       ``synth --n 3000 --beta 2 --rho 0.8 --seed 1``
  train       fair (lambda_ifc 2, lambda_fc 30) and vanilla on that table,
              fair on a fixed table with two categorical columns, and fair
              on a fixed wide table of 6 numerical and 8 categorical
              inputs (the column kinds and category counts of the
              benchmark's Adult-shaped table), where the attention scores
              14 features
  eval        the fair synth model, with true and with reconstructed groups,
              and the fair wide model
  explain     the fair synth model and the fair wide model
  probe       the categorical table
  quoted      ``probe``, and ``eval`` of the categorical model, on a copy of
              the categorical table written with ``\r\n`` line ends and
              every field quoted: the one table that the CSV reader parses
              with ``csv.reader``, where it splits the others at line
              breaks and commas
  sweep       ``--grid "0,0;2,30"`` on the synth table
  malformed   one bad input per reader: a CSV cell, a truncated ``model.bin``,
              a schema entry in a ``model.bin``'s metadata and in a schema
              file, a config's ``train`` section, and ``synth --beta nan``;
              two ``model.bin`` files whose metadata schema has no
              non-sensitive column, or a numerical column without saved
              standardization statistics; ``train`` on a table and schema
              file with no non-sensitive column; ``eval --schema``, a flag
              that does not exist, since a saved model is read only with
              the schema in its file; ``eval`` of the fair synth model on a
              copy of the synth table whose labels are all 1, where the FPR
              is undefined; ``train`` with ``sar_hidden`` 10^18, a model
              too large to allocate; ``train --groups-from
              reconstructed`` for one epoch of the recipe, after which the
              reconstructed test groups are one group; and ``train`` of
              that one-epoch config into an ``output_dir`` whose
              ``model.bin`` path is already a directory, so the first
              write fails

For every file the matrix leaves, and every command's stdout, stderr and
exit code, it prints ``identical`` when both sides have the same sha256.
Otherwise it prints, per numeric field, how many values differ and the
largest absolute difference. A field is a JSON key path, a CSV column, a
``model.bin`` parameter or a ``name=value`` key in text. Output that does
not line up field by field is reported as a differing structure.

Each command has an expected exit code: 0, or for a malformed input the
code of its error, 2, 3 or 4, whose one line on stderr is compared like
any other output. The exit status is 0 when every command on both sides
exited with its expected code and every output is identical, and 1
otherwise; a command that exited otherwise is named, since two sides
that fail the same way would otherwise compare as identical. Both sides' outputs go
with the temporary directory.
"""

import argparse
import csv
import hashlib
import io
import json
import math
import os
import random
import re
import struct
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SYNTH = ["synth", "--n", "3000", "--beta", "2", "--rho", "0.8", "--seed", "1", "--out", "synth.csv"]
RECIPE = {"learning_rate": 3e-3, "batch_size": 128, "max_epochs": 3, "patience": 3, "dropout": 0.1,
          "l2": 1e-4, "seed": 0}
SYNTH_DATA = {"csv_path": "synth.csv", "schema_path": "synth.schema.json"}
CONFIGS = {
    "fair.json": (SYNTH_DATA, {"lambda_ifc": 2.0, "lambda_fc": 30.0}, "fair"),
    "vanilla.json": (SYNTH_DATA, {"enable_bid": False}, "vanilla"),
    "categorical.json": ({"csv_path": "categorical.csv", "schema_path": "categorical.schema.json"},
                         {"lambda_ifc": 2.0, "lambda_fc": 30.0}, "categorical"),
    "wide.json": ({"csv_path": "wide.csv", "schema_path": "wide.schema.json"},
                  {"lambda_ifc": 2.0, "lambda_fc": 30.0}, "wide"),
    "sweep.json": (SYNTH_DATA, {}, "sweep"),
    "no_inputs.json": ({"csv_path": "no_inputs.csv", "schema_path": "no_inputs.schema.json"}, {}, "no_inputs"),
    "one_epoch.json": (SYNTH_DATA, {"max_epochs": 1, "patience": 1}, "one_epoch"),
    "unwritable.json": (SYNTH_DATA, {"max_epochs": 1, "patience": 1}, "unwritable"),
}
MODEL = ["--model", "fair/model.bin", "--csv", "synth.csv"]
WIDE_MODEL = ["--model", "wide/model.bin", "--csv", "wide.csv"]
# the category counts of the benchmark's Adult-shaped table
WIDE_CARDINALITIES = (8, 16, 7, 14, 6, 5, 40, 2)
# (label, arguments, expected exit code)
COMMANDS = [
    ("synth", SYNTH, 0),
    ("train_fair", ["train", "--config", "fair.json"], 0),
    ("train_vanilla", ["train", "--config", "vanilla.json"], 0),
    ("train_categorical", ["train", "--config", "categorical.json"], 0),
    ("eval_true", ["eval", *MODEL, "--out", "eval_true.json"], 0),
    ("eval_reconstructed", ["eval", *MODEL, "--groups-from", "reconstructed", "--out", "eval_reconstructed.json"], 0),
    ("explain", ["explain", *MODEL], 0),
    ("train_wide", ["train", "--config", "wide.json"], 0),
    ("eval_wide", ["eval", *WIDE_MODEL, "--out", "eval_wide.json"], 0),
    ("explain_wide", ["explain", *WIDE_MODEL], 0),
    ("probe", ["probe", "--csv", "categorical.csv", "--schema", "categorical.schema.json", "--out", "probe.json"], 0),
    ("probe_quoted", ["probe", "--csv", "quoted.csv", "--schema", "categorical.schema.json",
                      "--out", "probe_quoted.json"], 0),
    ("eval_quoted", ["eval", "--model", "categorical/model.bin", "--csv", "quoted.csv", "--out", "eval_quoted.json"], 0),
    ("sweep", ["sweep", "--config", "sweep.json", "--grid", "0,0;2,30"], 0),
    ("bad_cell", ["probe", "--csv", "bad_cell.csv", "--schema", "categorical.schema.json"], 3),
    ("bad_truncated_model", ["eval", "--model", "truncated.bin", "--csv", "synth.csv"], 3),
    ("bad_model_schema", ["eval", "--model", "bad_schema.bin", "--csv", "synth.csv"], 3),
    ("bad_model_no_inputs", ["eval", "--model", "no_inputs.bin", "--csv", "categorical.csv"], 3),
    ("bad_model_stats_gap", ["eval", "--model", "stats_gap.bin", "--csv", "categorical.csv"], 3),
    ("bad_schema_entry", ["probe", "--csv", "categorical.csv", "--schema", "bad.schema.json"], 3),
    ("bad_train", ["train", "--config", "bad_train.json"], 2),
    ("bad_synth_flag", ["synth", "--n", "3000", "--beta", "nan", "--rho", "0.8", "--out", "bad_synth.csv"], 2),
    ("bad_schema_no_inputs", ["train", "--config", "no_inputs.json"], 3),
    ("bad_eval_schema_flag", ["eval", "--model", "categorical/model.bin", "--csv", "categorical.csv",
                              "--schema", "categorical.schema.json"], 2),
    ("bad_eval_one_class", ["eval", "--model", "fair/model.bin", "--csv", "one_class.csv"], 4),
    ("bad_model_size", ["train", "--config", "bad_size.json"], 3),
    ("bad_train_reconstructed_one_group", ["train", "--config", "one_epoch.json", "--groups-from", "reconstructed"], 4),
    ("bad_train_unwritable", ["train", "--config", "unwritable.json"], 3),
]
EXPECTED_EXIT = {label: code for label, _, code in COMMANDS}


def export_tree(revision: str, into: Path) -> Path:
    """The files of ``revision`` extracted under ``into`` with ``git archive``."""
    done = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", f"{revision}^{{tree}}"],
                          capture_output=True)
    if done.returncode != 0:
        raise SystemExit(f"error: git archive {revision}: {done.stderr.decode(errors='replace').strip()}")
    with tarfile.open(fileobj=io.BytesIO(done.stdout)) as tar:
        if hasattr(tarfile, "data_filter"):  # Python >= 3.10.12 / 3.11.4
            tar.extractall(into, filter="data")
        else:  # the archive comes from local git, so it is trusted input
            tar.extractall(into)
    return into


def write_wide(run_dir: Path) -> None:
    """``wide.csv`` and its schema: 1500 rows of numerical inputs x0..x5 and categorical
    inputs c0..c7, half of each kind leaking the sensitive column s."""
    rng = random.Random(11)
    rows = []
    for _ in range(1500):
        s = int(rng.random() < 0.5)
        xs = [rng.gauss(s * (j % 2), 1.0) for j in range(6)]
        cs = [j % card if j % 2 and s and rng.random() < 0.5 else rng.randrange(card)
              for j, card in enumerate(WIDE_CARDINALITIES)]
        logit = xs[0] - xs[1] + 0.5 * (cs[1] % 3) - 0.5 + s
        y = int(rng.random() < 1.0 / (1.0 + math.exp(-logit)))
        rows.append([*map(repr, xs), *(f"v{c}" for c in cs), str(s), str(y)])
    header = [*(f"x{j}" for j in range(6)), *(f"c{j}" for j in range(len(WIDE_CARDINALITIES))), "s", "y"]
    with open(run_dir / "wide.csv", "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])
    schema = [*({"name": f"x{j}", "kind": "numerical", "cardinality": None, "role": "non_sensitive"}
                for j in range(6)),
              *({"name": f"c{j}", "kind": "categorical", "cardinality": card, "role": "non_sensitive"}
                for j, card in enumerate(WIDE_CARDINALITIES)),
              {"name": "s", "kind": "categorical", "cardinality": 2, "role": "sensitive"},
              {"name": "y", "kind": "numerical", "cardinality": None, "role": "label"}]
    (run_dir / "wide.schema.json").write_text(json.dumps(schema), encoding="utf-8")


def write_inputs(run_dir: Path) -> None:
    """The matrix's configs, its categorical and wide tables and its malformed inputs, the same bytes on both sides."""
    write_wide(run_dir)
    rng = random.Random(7)
    rows = []
    for _ in range(1500):
        s = int(rng.random() < 0.5)
        color = rng.choice("rgb")
        region = rng.choice("nesw" if s else "nnes")
        x = rng.gauss(0.0, 1.0)
        logit = x + (color == "r") - 0.5 + 1.5 * s
        rows.append([color, region, repr(x), str(s), str(int(rng.random() < 1.0 / (1.0 + math.exp(-logit))))])
    header = ["color", "region", "x", "s", "y"]
    with open(run_dir / "categorical.csv", "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])
    with open(run_dir / "quoted.csv", "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\r\n", quoting=csv.QUOTE_ALL).writerows([header, *rows])
    with open(run_dir / "no_inputs.csv", "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header[3:], *(row[3:] for row in rows)])
    rows[5][2] = "abc"
    with open(run_dir / "bad_cell.csv", "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])
    schema = [
        {"name": "color", "kind": "categorical", "cardinality": 3, "role": "non_sensitive"},
        {"name": "region", "kind": "categorical", "cardinality": 4, "role": "non_sensitive"},
        {"name": "x", "kind": "numerical", "cardinality": None, "role": "non_sensitive"},
        {"name": "s", "kind": "categorical", "cardinality": 2, "role": "sensitive"},
        {"name": "y", "kind": "numerical", "cardinality": None, "role": "label"},
    ]
    (run_dir / "categorical.schema.json").write_text(json.dumps(schema), encoding="utf-8")
    (run_dir / "no_inputs.schema.json").write_text(json.dumps(schema[3:]), encoding="utf-8")
    (run_dir / "bad.schema.json").write_text(json.dumps([*schema[:1], {**schema[1], "kind": "ordinal"}, *schema[2:]]),
                                             encoding="utf-8")
    vocabularies = {"color": list("rgb"), "region": list("nesw"), "s": ["0", "1"]}
    for name, model_schema, stats in [("bad_schema.bin", [{"name": "x"}], None),
                                      ("no_inputs.bin", schema[3:], None),  # no non-sensitive column
                                      ("stats_gap.bin", schema, {})]:  # no statistics for column x
        meta = json.dumps({"kind": "fairint", "model": {}, "schema": model_schema, "vocabularies": vocabularies,
                           "standardize_stats": stats}).encode("utf-8")
        (run_dir / name).write_bytes(b"FAIRINTM" + struct.pack("<II", 1, len(meta)) + meta + struct.pack("<I", 0))
    (run_dir / "truncated.bin").write_bytes(b"FAIRINTM\x01\x00")
    (run_dir / "unwritable" / "model.bin").mkdir(parents=True)  # a directory where train writes its model
    for name, (dataset, train, output_dir) in CONFIGS.items():
        doc = {"dataset": dataset, "train": {**RECIPE, **train}, "output_dir": output_dir}
        (run_dir / name).write_text(json.dumps(doc), encoding="utf-8")
    for name, section, output_dir in [("bad_train.json", {"train": {"seed": -1}}, "bad_train"),
                                      ("bad_size.json", {"model": {"sar_hidden": [10**18]}}, "bad_size")]:
        doc = {"synth": {"n": 500, "beta": 2.0, "rho": 0.8}, **section, "output_dir": output_dir}
        (run_dir / name).write_text(json.dumps(doc), encoding="utf-8")


def write_one_class(run_dir: Path) -> None:
    """``one_class.csv``: the matrix's synth table with every label set to 1."""
    with open(run_dir / "synth.csv", encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    for row in rows:
        row[header.index("y")] = "1"
    with open(run_dir / "one_class.csv", "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])


def run_matrix(tree: Path, run_dir: Path) -> dict:
    """Run every command of the matrix with ``tree``'s package, in ``run_dir``;
    return each command's exit code by label."""
    run_dir.mkdir(parents=True)
    write_inputs(run_dir)
    threads = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env = {**os.environ, **threads, "PYTHONPATH": str(tree / "src")}
    codes = {}
    for label, argv, _ in COMMANDS:
        done = subprocess.run([sys.executable, "-m", "fairint.cli", *argv], cwd=run_dir, env=env,
                              capture_output=True)
        (run_dir / f"{label}.stdout").write_bytes(done.stdout)
        (run_dir / f"{label}.stderr").write_bytes(done.stderr)
        codes[label] = done.returncode
        if label == "synth" and done.returncode == 0:
            write_one_class(run_dir)  # an input made from the table the matrix generates
    (run_dir / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n", encoding="utf-8")
    return codes


# -- comparing two output directories ------------------------------------------

_NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|-?\b(?:nan|inf|NaN|Infinity)\b")


def _flatten(doc, path: str, fields: dict, shape: list) -> None:
    if isinstance(doc, dict):
        for key in sorted(doc):
            _flatten(doc[key], f"{path}.{key}" if path else str(key), fields, shape)
    elif isinstance(doc, list):
        shape.append((path, len(doc)))
        for item in doc:
            _flatten(item, path + "[]", fields, shape)
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        fields.setdefault(path, []).append(float(doc))
    else:
        shape.append((path, doc))


def _text_fields(text: str, fields: dict, shape: list) -> None:
    """Each number in ``text`` under the key of a ``key=`` just before it, else under ``text``."""
    for line in text.splitlines():
        pieces = _NUMBER.split(line)
        shape.append(tuple(pieces))
        for before, number in zip(pieces, _NUMBER.findall(line)):
            key = re.search(r"(\w+)=$", before)
            fields.setdefault(key.group(1) if key else "text", []).append(float(number))


def numeric_fields(path: Path) -> tuple[dict, list]:
    """``(fields, shape)``: field name -> its numbers in file order, and everything else
    in the file, which must match for the fields to be compared value by value."""
    fields, shape = {}, []
    if path.suffix == ".bin":
        from fairint.autodiff import load_parameters
        arrays, meta = load_parameters(path)
        for name, values in arrays.items():
            shape.append((name, values.shape))
            fields[name] = values.reshape(-1).tolist()
        _flatten(meta, "meta", fields, shape)
        return fields, shape
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".csv":
        rows = list(csv.reader(io.StringIO(text)))
        header = rows[0] if rows else []
        for row in rows[1:]:
            shape.append(len(row))
            for name, cell in zip(header, row):
                try:
                    fields.setdefault(name, []).append(float(cell))
                except ValueError:
                    shape.append((name, cell))
        shape.append(header)
        return fields, shape
    try:
        doc = [json.loads(line) for line in text.splitlines()] if path.suffix == ".jsonl" else json.loads(text)
    except ValueError:
        _text_fields(text, fields, shape)
        return fields, shape
    _flatten(doc, "", fields, shape)
    return fields, shape


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def compare_file(base: Path, head: Path) -> str:
    """``identical``, or what differs between two versions of one output."""
    if _digest(base) == _digest(head):
        return "identical"
    try:
        (base_fields, base_shape), (head_fields, head_shape) = numeric_fields(base), numeric_fields(head)
    except Exception as exc:  # a file that does not parse as its kind is compared by bytes only
        return f"differs (unreadable as fields: {type(exc).__name__}: {exc})"
    if base_shape != head_shape or {k: len(v) for k, v in base_fields.items()} != \
            {k: len(v) for k, v in head_fields.items()}:
        return "differs (structure)"
    notes = []
    for name, a in base_fields.items():
        pairs = [(x, y) for x, y in zip(a, head_fields[name]) if not (x == y or (x != x and y != y))]
        if pairs:
            largest = max(abs(x - y) for x, y in pairs)
            notes.append(f"{name}: {len(pairs)} of {len(a)} values differ, largest |diff| {largest:.3g}")
    return "differs (" + "; ".join(notes or ["same numbers, different bytes"]) + ")"


def compare_dirs(base: Path, head: Path) -> list[tuple[str, str]]:
    """``(relative path, verdict)`` for every file under either directory, sorted by path."""
    names = {p.relative_to(root).as_posix() for root in (base, head) for p in root.rglob("*") if p.is_file()}
    verdicts = []
    for name in sorted(names):
        if not (base / name).is_file():
            verdicts.append((name, "only in head"))
        elif not (head / name).is_file():
            verdicts.append((name, "only in base"))
        else:
            verdicts.append((name, compare_file(base / name, head / name)))
    return verdicts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="tools/output_identity.py", description=__doc__.split("\n")[0])
    parser.add_argument("base", help="git revision to compare this checkout with")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))  # this checkout's reader of model.bin
    with tempfile.TemporaryDirectory(prefix="fairint-identity-") as tmp:
        out = Path(tmp)
        codes = {"base": run_matrix(export_tree(args.base, out / "tree"), out / "base"),
                 "head": run_matrix(ROOT, out / "head")}
        verdicts = compare_dirs(out / "base", out / "head")
    width = max(len(name) for name, _ in verdicts)
    for name, verdict in verdicts:
        print(f"{name:{width}s}  {verdict}")
    same = sum(verdict == "identical" for _, verdict in verdicts)
    print(f"{same} of {len(verdicts)} outputs identical to {args.base}")
    unexpected = [f"{side} {label} (exit {code}, expected {EXPECTED_EXIT[label]})"
                  for side, by_label in codes.items() for label, code in by_label.items()
                  if code != EXPECTED_EXIT[label]]
    if unexpected:
        print(f"commands with an unexpected exit code: {', '.join(unexpected)}")
    return 0 if same == len(verdicts) and not unexpected else 1


if __name__ == "__main__":
    sys.exit(main())
