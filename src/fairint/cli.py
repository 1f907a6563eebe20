"""Command-line surface: train, eval, sweep, explain, probe, and synth.

Every subcommand reads plain files and writes plain files, so runs are
reproducible and diffable. Artifact names inside an output directory are
fixed: model.bin, history.jsonl, report.json (written by train),
attention.json (explain), tradeoff.csv (sweep). Exit codes: 0 success,
otherwise the failure's ``exit_code`` (see :mod:`fairint.errors`): 2
configuration or usage problem, 3 data or file problem, 4 training or
metric failure. An ``OSError`` or ``MemoryError`` is a file or size
problem and exits 3.
"""

import argparse
import csv
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .data import (
    apply_standardization,
    columns_without_vocabulary,
    full_batch,
    is_finite_number,
    load_csv,
    load_schema,
    save_csv,
    save_schema,
    split,
    synth_generate,
)
from .errors import ConfigError, DataError, FairIntError, UsageError
from .model import FairIntModel, ModelConfig, attention_summary, load_model, save_model
from .probe import sensitive_probe
from .training import EMPTY_GRID, NO_RECONSTRUCTOR, TrainConfig, evaluate_model, sweep, train

SPLIT_RATIOS = (0.7, 0.15, 0.15)

_SOURCE_KEYS = {"dataset": {"csv_path", "schema_path"}, "synth": {"n", "beta", "rho"}}
_CONFIG_KEYS = {*_SOURCE_KEYS, "model", "train", "output_dir"}


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a data source, architecture, and training recipe."""

    source_kind: str  # "dataset" or "synth"
    source: dict
    model: ModelConfig
    train: TrainConfig
    output_dir: str


def load_experiment_config(path) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: config is not UTF-8 text: {exc}") from None
    try:
        doc = json.loads(text)
    except ValueError as exc:  # also an integer too long to convert
        raise ConfigError(f"{path}: config is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    unknown = set(doc) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"{path}: unknown config keys {sorted(unknown)}")
    for key in _SOURCE_KEYS:
        if key in doc and doc[key] is None:  # explicit null means "not this source"
            del doc[key]
    if ("dataset" in doc) == ("synth" in doc):
        raise ConfigError(f"{path}: exactly one of 'dataset' or 'synth' must be given")
    if "output_dir" not in doc:
        raise ConfigError(f"{path}: 'output_dir' is required")
    _check_path(doc, "output_dir", path)

    source_kind = "dataset" if "dataset" in doc else "synth"
    source, keys = doc[source_kind], sorted(_SOURCE_KEYS[source_kind])
    if not isinstance(source, dict) or sorted(source) != keys:
        raise ConfigError(f"{path}: {source_kind!r} must be an object with keys {keys}")
    if source_kind == "dataset":
        for key in keys:
            if not Path(_check_path(source, key, path)).exists():
                raise ConfigError(f"{path}: {key} does not exist: {source[key]}")

    return ExperimentConfig(
        source_kind=source_kind,
        source=dict(source),
        model=ModelConfig.from_dict(doc.get("model", {})),
        train=TrainConfig.from_dict(doc.get("train", {})),
        output_dir=doc["output_dir"],
    )


def _check_path(doc: dict, key: str, path) -> str:
    if not isinstance(doc[key], str) or not doc[key] or "\0" in doc[key]:  # a NUL makes path calls raise ValueError
        raise ConfigError(f"{path}: {key!r} must be a non-empty string without NUL, got {doc[key]!r}")
    return doc[key]


def _materialize(config: ExperimentConfig, seed_flag: int | None):
    """The run's training config, with ``--seed`` applied when given, its
    split dataset, and its output directory; that one seed drives the data,
    the split and training.

    The directory is created once the data is built and before any
    training, so a data error leaves none behind and an unusable
    ``output_dir`` fails before any model is trained.
    """
    train_config = config.train if seed_flag is None else replace(config.train, seed=seed_flag)
    seed = train_config.seed
    if config.source_kind == "synth":
        src = config.source
        dataset = synth_generate(n=src["n"], bias_strength=src["beta"], proxy_corr=src["rho"], seed=seed)
    else:
        schema = load_schema(config.source["schema_path"])
        dataset = load_csv(config.source["csv_path"], schema)
    dataset = split(dataset, SPLIT_RATIOS, seed)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return train_config, dataset, out


def _dataset_for_model(args, schema, meta: dict):
    """Encode ``args.csv`` exactly the way the saved model's training data
    was: with the ``--schema`` file when given, else the saved ``schema``,
    and with the vocabularies and statistics saved in ``meta``."""
    if args.schema is not None:
        schema = load_schema(args.schema)
        missing = columns_without_vocabulary(schema, meta["vocabularies"])
        if missing:
            raise DataError(f"{args.schema}: categorical columns {missing} have no vocabulary in {args.model}")
    dataset = load_csv(args.csv, schema, vocabularies=meta["vocabularies"])
    if meta["standardize_stats"]:
        dataset = apply_standardization(dataset, meta["standardize_stats"])
    return dataset


def _emit(doc: dict, out_path) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out_path is not None:
        Path(out_path).write_text(text, encoding="utf-8")
    sys.stdout.write(text)


# -- subcommands ---------------------------------------------------------------


def cmd_train(args) -> int:
    config = load_experiment_config(args.config)
    if args.groups_from == "reconstructed" and not config.train.enable_bid:
        raise UsageError(NO_RECONSTRUCTOR)  # the vanilla model's report would fail only after training
    train_config, dataset, out = _materialize(config, args.seed)

    model, history = train(dataset, config.model, train_config)
    save_model(model, dataset, out / "model.bin", train_config)

    # first history line is run metadata, the rest are per-epoch records
    head = {
        "lambda_ifc": train_config.lambda_ifc,
        "lambda_fc": train_config.lambda_fc,
        "enable_ifc": train_config.lambda_ifc > 0.0,  # whether the term was in the objective
        "enable_fc": train_config.lambda_fc > 0.0,
        "enable_bid": train_config.enable_bid,
        "seed": train_config.seed,
        "best_epoch": history.best_epoch,
        "stopping_reason": history.stopping_reason,
    }
    lines = [head, *history.history_lines()]
    (out / "history.jsonl").write_text(
        "".join(json.dumps(line, sort_keys=True) + "\n" for line in lines), encoding="utf-8"
    )

    report = evaluate_model(model, dataset, "test", threshold=args.threshold, groups_from=args.groups_from)
    _emit(report.to_dict(), out / "report.json")
    return 0


def cmd_eval(args) -> int:
    model, schema, meta = load_model(args.model)
    dataset = _dataset_for_model(args, schema, meta)
    report = evaluate_model(model, dataset, "all", threshold=args.threshold, groups_from=args.groups_from)
    _emit(report.to_dict(), args.out)
    return 0


def _parse_grid(text: str):
    pairs = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        pieces = part.split(",")
        if len(pieces) != 2:
            raise UsageError(f"bad grid point {part!r}: expected lambda_ifc,lambda_fc")
        try:
            pair = (float(pieces[0]), float(pieces[1]))
        except ValueError:
            raise UsageError(f"bad grid point {part!r}: expected two numbers") from None
        if not all(is_finite_number(w) and w >= 0 for w in pair):
            raise UsageError(f"bad grid point {part!r}: weights must be finite numbers >= 0")
        pairs.append(pair)
    if not pairs:
        raise UsageError(EMPTY_GRID)
    return pairs


def cmd_sweep(args) -> int:
    config = load_experiment_config(args.config)
    grid = _parse_grid(args.grid)
    train_config, dataset, out = _materialize(config, args.seed)

    points = sweep(dataset, config.model, train_config, grid)

    columns = ("lambda_ifc", "lambda_fc", "auc", "ddp", "deo")
    with open(out / "tradeoff.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for point in points:
            row = point.tradeoff_row()
            # repr round-trips floats exactly; failed points leave blanks
            writer.writerow(["" if row[c] is None else repr(float(row[c])) for c in columns])

    for point in points:
        if point.report is None:
            print(f"lambda_ifc={point.lambda_ifc:g} lambda_fc={point.lambda_fc:g} failed: {point.error}")
        else:
            r = point.report
            print(
                f"lambda_ifc={point.lambda_ifc:g} lambda_fc={point.lambda_fc:g} "
                f"auc={r.auc:.4f} ddp={r.ddp:.4f} deo={r.deo:.4f}"
            )
    return 0


def cmd_explain(args) -> int:
    model, schema, meta = load_model(args.model)
    if not isinstance(model, FairIntModel):
        raise UsageError(
            "saved model has no interaction attention (trained with the"
            " interaction module disabled); nothing to explain"
        )
    dataset = _dataset_for_model(args, schema, meta)
    heads = attention_summary(model, full_batch(dataset, "all").features)
    out_path = Path(args.out) if args.out else Path(args.model).parent / "attention.json"
    _emit({"split": "all", "heads": heads}, out_path)
    return 0


def cmd_probe(args) -> int:
    schema = load_schema(args.schema)
    dataset = load_csv(args.csv, schema)
    result = sensitive_probe(dataset)
    _emit({"intercept": result.intercept, "coefficients": result.as_rows()}, args.out)
    return 0


def cmd_synth(args) -> int:
    out_path = Path(args.out)
    if not out_path.name:  # "", "." and "/" leave no file name to write to
        raise UsageError(f"--out must name a CSV file, got {args.out!r}")
    dataset = synth_generate(n=args.n, bias_strength=args.beta, proxy_corr=args.rho, seed=args.seed)
    schema_path = out_path.with_suffix(".schema.json")
    save_csv(dataset, out_path)
    save_schema(dataset.schema, schema_path)
    print(f"wrote {out_path} and {schema_path}")
    return 0


# -- parser --------------------------------------------------------------------


def _threshold(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = None
    if not is_finite_number(value):
        raise UsageError(f"--threshold must be a finite number, got {text!r}")
    return value


def _metric_flags(parser) -> None:
    parser.add_argument("--threshold", type=_threshold, default=0.5, help="decision threshold")
    parser.add_argument(
        "--groups-from",
        choices=("true", "reconstructed"),
        default="true",
        help="measure fairness gaps against the true sensitive column or the reconstructed one",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairint",
        description="Fair tabular classification by repairing biased feature interactions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from an experiment config")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--seed", type=int, default=None, help="override the config's seed")
    _metric_flags(p)
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("eval", help="score a saved model on a CSV file")
    p.add_argument("--model", required=True, help="model file written by train")
    p.add_argument("--csv", required=True)
    p.add_argument("--schema", default=None, help="schema JSON; defaults to the one saved in the model")
    _metric_flags(p)
    p.add_argument("--out", default=None, help="also write the report JSON here")
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("sweep", help="train one model per fairness-weight pair")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--grid", required=True, help="semicolon-separated lambda_ifc,lambda_fc pairs")
    p.add_argument("--seed", type=int, default=None, help="override the config's seed")
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("explain", help="summarize a saved model's attention per feature")
    p.add_argument("--model", required=True, help="model file written by train")
    p.add_argument("--csv", required=True)
    p.add_argument("--schema", default=None, help="schema JSON; defaults to the one saved in the model")
    p.add_argument("--out", default=None, help="where to write attention.json (default: next to the model)")
    p.set_defaults(handler=cmd_explain)

    p = sub.add_parser("probe", help="fit a linear probe predicting the sensitive column")
    p.add_argument("--csv", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--out", default=None, help="also write the coefficient JSON here")
    p.set_defaults(handler=cmd_probe)

    p = sub.add_parser("synth", help="generate the synthetic benchmark dataset")
    p.add_argument("--n", type=int, required=True, help="number of rows (at least 100)")
    p.add_argument("--beta", type=float, required=True, help="direct group effect on the label")
    p.add_argument("--rho", type=float, required=True, help="proxy correlation in [0, 1]")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="CSV path; the schema lands next to it")
    p.set_defaults(handler=cmd_synth)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)  # a non-finite --threshold raises UsageError here
        # every op checks its result for NaN and Inf, so numpy's overflow warnings add nothing
        with np.errstate(over="ignore", invalid="ignore"):
            return args.handler(args)
    except (FairIntError, OSError, MemoryError) as exc:
        # MemoryError: a size too large to allocate, such as a huge synth n
        prefix = "out of memory: " if isinstance(exc, MemoryError) else ""
        print(f"error: {prefix}{exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 3)


if __name__ == "__main__":
    sys.exit(main())
