"""Property tests: mutated input files through ``cli.main`` end in a documented exit.

Each example writes one mutated file (model.bin bytes or metadata, CSV
text, schema JSON or experiment config JSON), runs the subcommand that reads it, and
requires exit 0 with strict JSON on stdout, or exit 2, 3 or 4 with
exactly one ``error:`` line on stderr, never an exception or a warning
escaping ``main``. Examples are derandomized,
so the suite is deterministic; sizes in generated configs stay small so
that a run which does train stays cheap.
"""

import contextlib
import io
import json
import struct
import warnings

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fairint.cli import main  # noqa: E402

FUZZ = settings(max_examples=50, deadline=None, derandomize=True, database=None)

CONFIG = {
    "synth": {"n": 200, "beta": 2.0, "rho": 0.8},
    "model": {"embed_dim": 2, "sar_hidden": [4], "baseline_hidden": [4]},
    "train": {"lambda_ifc": 1.0, "lambda_fc": 5.0, "learning_rate": 0.01, "batch_size": 64,
              "max_epochs": 1, "patience": 1, "seed": 1},
}

# JSON values of every type; the only valid ints are small, so any size or
# epoch count they set keeps a run short
ODD_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 3),
    st.sampled_from([0.5, -1.0, 1e-9, 1e300, 10**400, float("nan"), float("inf"), -float("inf")]),
    st.text(max_size=3),
    st.lists(st.integers(-1, 3), max_size=2),
    st.dictionaries(st.sampled_from(["n", "name", "x"]), st.integers(0, 2), max_size=2),
)

THRESHOLDS = st.sampled_from(["nan", "inf", "-inf", "0.5"])


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fuzz")
    config = tmp / "config.json"
    config.write_text(json.dumps({**CONFIG, "output_dir": str(tmp / "run")}), encoding="utf-8")
    assert run(["train", "--config", str(config)]) == 0
    assert run(["synth", "--n", "120", "--beta", "2.0", "--rho", "0.8", "--out", str(tmp / "data.csv")], doc=False) == 0
    return {"dir": tmp, "model": tmp / "run" / "model.bin", "csv": tmp / "data.csv",
            "schema": tmp / "data.schema.json"}


def _reject(constant):
    raise AssertionError(f"stdout holds {constant}, which is not JSON")


def run(argv, doc: bool = True) -> int:
    """``main(argv)``, checking the exit code and the stdout and stderr contract.

    Warnings are errors, since pytest would record them rather than let
    them reach stderr. With ``doc``, a success prints one JSON document.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    assert code in (0, 2, 3, 4)
    if code == 0 and doc:
        json.loads(out.getvalue(), parse_constant=_reject)
    if code != 0:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    return code


@st.composite
def mutated(draw, raw: bytes, alphabet: bytes, start: int, stop: int):
    """``raw`` after 1-3 byte edits, most of them in ``raw[start:stop]``."""
    data = bytearray(raw)
    for _ in range(draw(st.integers(1, 3))):
        lo, hi = (start, min(stop, len(data))) if draw(st.integers(0, 3)) else (0, len(data))
        i = draw(st.integers(min(lo, hi - 1), hi - 1)) if hi > 0 else 0
        byte = draw(st.sampled_from(alphabet))
        op = draw(st.sampled_from(["replace", "insert", "delete", "truncate"]))
        if op == "replace" and data:
            data[i] = byte
        elif op == "insert":
            data.insert(i, byte)
        elif op == "delete" and data:
            del data[i]
        elif op == "truncate":
            del data[i:]
    return bytes(data)


@st.composite
def reshaped(draw, doc):
    """``doc`` with 1-2 entries, mostly leaves, replaced, deleted or added."""
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(1, 2))):
        node = doc
        while isinstance(node, (dict, list)) and node and draw(st.integers(0, 3)):
            keys = list(node) if isinstance(node, dict) else list(range(len(node)))
            child = node[draw(st.sampled_from(keys))]
            if not isinstance(child, (dict, list)):
                break
            node = child
        if isinstance(node, dict):
            key = draw(st.sampled_from(list(node) + ["extra"]))
            if key in node and not draw(st.integers(0, 3)):
                del node[key]
            else:
                node[key] = draw(ODD_VALUES)
        elif isinstance(node, list) and node:
            node[draw(st.integers(0, len(node) - 1))] = draw(ODD_VALUES)
    return doc


def _write(files, name, data: bytes):
    path = files["dir"] / name
    path.write_bytes(data)
    return str(path)


@FUZZ
@given(data=st.data())
def test_mutated_model_file(files, data):
    raw = files["model"].read_bytes()
    (length,) = struct.unpack_from("<I", raw, 12)  # after the magic and the version: the metadata
    if data.draw(st.booleans()):
        fuzzed = data.draw(mutated(raw, bytes(range(256)), 16, 16 + length))
    else:
        meta = json.dumps(data.draw(reshaped(json.loads(raw[16 : 16 + length])))).encode()
        fuzzed = raw[:12] + struct.pack("<I", len(meta)) + meta + raw[16 + length :]
    run(["eval", "--model", _write(files, "fuzzed.bin", fuzzed), "--csv", str(files["csv"])])


@FUZZ
@given(data=st.data())
def test_mutated_csv(files, data):
    raw = files["csv"].read_bytes()
    body = raw.index(b"\n") + 1  # after the header
    csv = _write(files, "fuzzed.csv", data.draw(mutated(raw, b"0123456789.-e,\n\r\" xnaNI\xff", body, len(raw))))
    run(["probe", "--csv", csv, "--schema", str(files["schema"])])
    threshold = [f"--threshold={data.draw(THRESHOLDS)}"] if data.draw(st.booleans()) else []
    run(["eval", "--model", str(files["model"]), "--csv", csv, *threshold])


@FUZZ
@given(data=st.data())
def test_mutated_schema(files, data):
    doc = json.loads(files["schema"].read_text(encoding="utf-8"))
    text = json.dumps(data.draw(reshaped(doc)))
    schema = _write(files, "fuzzed.schema.json", data.draw(st.sampled_from([text.encode(), text[:-1].encode()])))
    run(["probe", "--csv", str(files["csv"]), "--schema", schema])
    run(["eval", "--model", str(files["model"]), "--csv", str(files["csv"]), "--schema", schema])


@FUZZ
@given(data=st.data())
def test_mutated_config(files, data):
    doc = data.draw(reshaped(CONFIG))
    if data.draw(st.integers(0, 3)) == 0:
        # a dataset source whose paths are odd values or the fixture's real files
        paths = st.one_of(ODD_VALUES, st.sampled_from([str(files["csv"]), str(files["schema"])]))
        doc.pop("synth", None)
        doc["dataset"] = {key: data.draw(paths) for key in ("csv_path", "schema_path")}
    elif isinstance(doc.get("synth"), dict) and data.draw(st.booleans()):
        # only sizes that fail before allocating (numpy refuses PiB-scale requests
        # at once and cannot represent the larger ones); a size that fits in
        # virtual memory could be granted and exhaust it
        doc["synth"]["n"] = data.draw(st.sampled_from([10**15, 10**18, 10**20, 2**63 - 1]))
    doc["output_dir"] = str(files["dir"] / "fuzzed_run")  # a path, not input to fuzz
    seed = ["--seed", str(data.draw(st.sampled_from([-1, 0, 3])))] if data.draw(st.booleans()) else []
    threshold = [f"--threshold={data.draw(THRESHOLDS)}"] if data.draw(st.booleans()) else []
    run(["train", "--config", _write(files, "fuzzed.json", json.dumps(doc).encode()), *seed, *threshold])
