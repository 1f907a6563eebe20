"""README quotes the fixed sizes that bound memory and an experiment config; they must match the code."""

import json
import re
from pathlib import Path

from fairint.data import CSV_CHUNK_ROWS
from fairint.model import SCORE_BLOCK_ROWS, ModelConfig
from fairint.probe import PROBE_MAX_CODES
from fairint.training import TrainConfig

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def quoted(pattern: str) -> list[int]:
    return [int(n) for n in re.findall(pattern, " ".join(README.split()))]


def test_readme_states_the_score_block_size():
    sizes = quoted(r"in blocks of (\d+)") + quoted(r"at a multiple of (\d+) rows")
    assert sizes and set(sizes) == {SCORE_BLOCK_ROWS}, sizes


def test_readme_states_the_csv_chunk_size():
    sizes = quoted(r"written (\d+) rows at a time")
    assert sizes and set(sizes) == {CSV_CHUNK_ROWS}, sizes


def test_readme_states_the_probe_code_bound():
    sizes = quoted(r"at most (\d+) joint codes")
    assert sizes and set(sizes) == {PROBE_MAX_CODES}, sizes


def test_readme_experiment_config_example_parses():
    (example,) = re.findall(r"### Experiment config.*?```json\n(.*?)```", README, re.S)
    doc = json.loads(example)
    ModelConfig.from_dict(doc["model"])
    TrainConfig.from_dict(doc["train"])
