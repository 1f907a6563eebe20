"""``tools/output_identity.py``: comparing two output directories, file by file, and its verdict."""

import importlib.util
import json
from pathlib import Path

import numpy as np

from fairint.autodiff import save_parameters

_SPEC = importlib.util.spec_from_file_location(
    "output_identity", Path(__file__).resolve().parent.parent / "tools" / "output_identity.py")
identity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(identity)


def _write(root: Path, files: dict) -> Path:
    for name, content in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(content, dict):
            save_parameters(path, content, {"kind": "vanilla"})
        else:
            path.write_text(content, encoding="utf-8")
    return root


def _compare(tmp_path, base: dict, head: dict) -> dict:
    return dict(identity.compare_dirs(_write(tmp_path / "base", base), _write(tmp_path / "head", head)))


def test_same_bytes_are_identical_and_a_file_on_one_side_is_named(tmp_path):
    report = json.dumps({"auc": 0.9, "threshold": 0.5})
    verdicts = _compare(tmp_path, {"run/report.json": report, "old.txt": "x"},
                        {"run/report.json": report, "new.txt": "x"})
    assert verdicts == {"new.txt": "only in head", "old.txt": "only in base", "run/report.json": "identical"}


def test_each_kind_of_output_reports_its_differing_fields(tmp_path):
    eps = 2.0 ** -53  # one ULP of 0.75
    base = {
        "report.json": json.dumps({"auc": 0.5, "group_rates": {"0": {"tpr": 0.25}, "1": {"tpr": 0.75}}}),
        "history.jsonl": "".join(json.dumps({"epoch": e, "val_auc": 0.5}) + "\n" for e in range(3)),
        "tradeoff.csv": "lambda_ifc,lambda_fc,auc\n0.0,0.0,0.9\n2.0,30.0,\n",
        "sweep.stdout": "lambda_ifc=0 auc=0.9306\nlambda_ifc=2 auc=0.7167\n",
        "model.bin": {"w": np.arange(4.0).reshape(2, 2), "b": np.zeros(2)},
    }
    head = {
        "report.json": json.dumps({"auc": 0.5, "group_rates": {"0": {"tpr": 0.25}, "1": {"tpr": 0.75 + eps}}}),
        "history.jsonl": "".join(json.dumps({"epoch": e, "val_auc": 0.5 + e * 1e-3}) + "\n" for e in range(3)),
        "tradeoff.csv": "lambda_ifc,lambda_fc,auc\n0.0,0.0,0.9125\n2.0,30.0,\n",
        "sweep.stdout": "lambda_ifc=0 auc=0.9306\nlambda_ifc=2 auc=0.7168\n",
        "model.bin": {"w": np.array([[0.0, 1.0], [2.5, 3.0]]), "b": np.zeros(2)},
    }
    assert _compare(tmp_path, base, head) == {
        "report.json": "differs (group_rates.1.tpr: 1 of 1 values differ, largest |diff| 1.11e-16)",
        "history.jsonl": "differs ([].val_auc: 2 of 3 values differ, largest |diff| 0.002)",
        "tradeoff.csv": "differs (auc: 1 of 1 values differ, largest |diff| 0.0125)",
        "sweep.stdout": "differs (auc: 1 of 2 values differ, largest |diff| 0.0001)",
        "model.bin": "differs (w: 1 of 4 values differ, largest |diff| 0.5)",
    }


def test_output_that_does_not_line_up_is_a_differing_structure(tmp_path):
    base = {"a.json": json.dumps({"auc": 0.5}), "b.csv": "x\n1\n", "c.stdout": "wrote a.csv\n",
            "d.json": "1.0", "e.bin": "not a model file"}
    head = {"a.json": json.dumps({"auc": 0.5, "ddp": 0.1}), "b.csv": "x\n1\n2\n", "c.stdout": "wrote b.csv\n",
            "d.json": "1.00", "e.bin": "not a model file either"}
    verdicts = _compare(tmp_path, base, head)
    assert verdicts["a.json"] == verdicts["b.csv"] == verdicts["c.stdout"] == "differs (structure)"
    assert verdicts["d.json"] == "differs (same numbers, different bytes)"
    assert verdicts["e.bin"].startswith("differs (unreadable as fields: DataError: ")


def test_a_command_that_fails_the_same_way_on_both_sides_fails_the_check(tmp_path, monkeypatch, capsys):
    def fake_matrix(tree, run_dir):
        _write(run_dir, {"synth.stdout": "", "synth.stderr": "error: bad\n", "probe.stdout": "ok\n"})
        return {"synth": 2, "probe": 0}

    monkeypatch.setattr(identity, "export_tree", lambda revision, into: into)
    monkeypatch.setattr(identity, "run_matrix", fake_matrix)
    assert identity.main(["HEAD"]) == 1
    out = capsys.readouterr().out
    assert "3 of 3 outputs identical to HEAD\n" in out
    assert out.endswith("commands with an unexpected exit code: base synth (exit 2, expected 0),"
                        " head synth (exit 2, expected 0)\n")


def _fake_malformed_matrix(monkeypatch, head_code):
    """Stand-ins for both sides' runs of a malformed-input command, which the matrix expects to exit 3;
    the head side exits ``head_code``."""
    def fake_matrix(tree, run_dir):
        code = 3 if run_dir.name == "base" else head_code
        _write(run_dir, {"bad_cell.stderr": "error: bad_cell.csv: line 7, column 'x': 'abc' is not a number\n"})
        return {"bad_cell": code}

    monkeypatch.setattr(identity, "export_tree", lambda revision, into: into)
    monkeypatch.setattr(identity, "run_matrix", fake_matrix)


def test_a_malformed_input_that_exits_with_its_expected_code_passes(tmp_path, monkeypatch, capsys):
    assert identity.EXPECTED_EXIT["bad_cell"] == 3
    _fake_malformed_matrix(monkeypatch, 3)
    assert identity.main(["HEAD"]) == 0
    assert capsys.readouterr().out.endswith("1 of 1 outputs identical to HEAD\n")


def test_a_malformed_input_that_exits_0_fails_the_check(tmp_path, monkeypatch, capsys):
    _fake_malformed_matrix(monkeypatch, 0)
    assert identity.main(["HEAD"]) == 1
    out = capsys.readouterr().out
    assert out.endswith("commands with an unexpected exit code: head bad_cell (exit 0, expected 3)\n")
