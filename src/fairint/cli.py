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
    check_synth,
    full_batch,
    load_csv,
    load_schema,
    save_csv,
    save_schema,
    split,
    synth_generate,
)
from .errors import ConfigError, FairIntError, MetricError, UsageError, check_int, check_number, located
from .model import FairIntModel, ModelConfig, attention_summary, load_model, save_model
from .probe import sensitive_probe
from .training import (EMPTY_GRID, NO_RECONSTRUCTOR, TrainConfig, check_metrics_defined, evaluate_model, new_model,
                       sweep, train)

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
    path: str  # the config file, which an error in its settings names


def load_experiment_config(path) -> ExperimentConfig:
    with located(path):
        try:
            text = Path(path).read_text(encoding="utf-8")
        except FileNotFoundError:
            raise ConfigError("config file not found") from None
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config is not UTF-8 text: {exc}") from None
        try:
            doc = json.loads(text)
        except ValueError as exc:  # also an integer too long to convert
            raise ConfigError(f"config is not valid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(doc) - _CONFIG_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys {sorted(unknown)}")
        for key in _SOURCE_KEYS:
            if key in doc and doc[key] is None:  # explicit null means "not this source"
                del doc[key]
        if ("dataset" in doc) == ("synth" in doc):
            raise ConfigError("exactly one of 'dataset' or 'synth' must be given")
        if "output_dir" not in doc:
            raise ConfigError("'output_dir' is required")
        _check_path(doc, "output_dir")

        source_kind = "dataset" if "dataset" in doc else "synth"
        source, keys = doc[source_kind], sorted(_SOURCE_KEYS[source_kind])
        if not isinstance(source, dict) or sorted(source) != keys:
            raise ConfigError(f"{source_kind!r} must be an object with keys {keys}")
        if source_kind == "dataset":
            for key in keys:
                if not Path(_check_path(source, key)).exists():
                    raise ConfigError(f"{key} does not exist: {source[key]}")

        return ExperimentConfig(
            source_kind=source_kind,
            source=dict(source),
            model=ModelConfig.from_dict(doc.get("model", {})),
            train=TrainConfig.from_dict(doc.get("train", {})),
            output_dir=doc["output_dir"],
            path=str(path),
        )


def _check_path(doc: dict, key: str) -> str:
    if not isinstance(doc[key], str) or not doc[key] or "\0" in doc[key]:  # a NUL makes path calls raise ValueError
        raise ConfigError(f"{key!r} must be a non-empty string without NUL, got {doc[key]!r}")
    return doc[key]


def _synth(n, beta, rho, seed, prefix=""):
    """:func:`synth_generate`, with a bad setting named by its config key, or by its flag with ``prefix`` ``--``."""
    check_synth(n, beta, rho, seed, names=[prefix + name for name in ("n", "beta", "rho", "seed")])
    return synth_generate(n=n, bias_strength=beta, proxy_corr=rho, seed=seed)


def _materialize(config: ExperimentConfig, seed_flag: int | None, scored: tuple[str, ...]):
    """The run's training config, with ``--seed`` applied when given, its
    split dataset and its output directory; that one seed drives the data,
    the split and training.

    The directory is created after the data is built, the metrics are
    found defined on each split in ``scored``, those the run reports on
    (:func:`check_metrics_defined`), and the run's untrained model
    (:func:`new_model`) is drawn, but before any training. So a data
    error, a split without a class or a group, or a model too large to
    allocate leaves none behind, and an unusable ``output_dir`` fails
    before any model is trained. :func:`train` draws its own model, as a
    sweep does per grid point, so the model drawn here is only that check.
    """
    train_config = config.train if seed_flag is None else replace(config.train, seed=check_int("--seed", seed_flag))
    seed = train_config.seed
    if config.source_kind == "synth":
        with located(config.path):
            dataset = _synth(**config.source, seed=seed)
    else:
        schema = load_schema(config.source["schema_path"])
        dataset = load_csv(config.source["csv_path"], schema)
    dataset = split(dataset, SPLIT_RATIOS, seed)
    check_metrics_defined(dataset, *scored)
    with located(config.path):  # the sizes come from its model section or its schema's cardinalities
        new_model(dataset.input_columns, config.model, train_config)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return train_config, dataset, out


def _dataset_for_model(csv_path, schema, meta: dict):
    """Encode ``csv_path`` exactly the way the saved model's training data
    was: with its saved ``schema`` and the vocabularies and statistics
    saved in ``meta``."""
    dataset = load_csv(csv_path, schema, vocabularies=meta["vocabularies"])
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
    # reconstructed groups are known only once the model is trained
    scored = ("val", "test") if args.groups_from == "true" else ("val",)
    train_config, dataset, out = _materialize(config, args.seed, scored)

    model, history = train(dataset, config.model, train_config)
    # the report is computed before any output is written, so a run whose report fails writes none
    with located("test split", catch=MetricError):  # reconstructed groups can make the gaps undefined
        report = evaluate_model(model, dataset, "test", threshold=args.threshold, groups_from=args.groups_from)
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
    _emit(report.to_dict(), out / "report.json")
    return 0


def cmd_eval(args) -> int:
    model, schema, meta = load_model(args.model)
    dataset = _dataset_for_model(args.csv, schema, meta)
    with located(args.csv, catch=MetricError):  # the rows on which a metric is undefined
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
        for name, weight in zip(("lambda_ifc", "lambda_fc"), pair):
            check_number(f"bad grid point {part!r}: {name}", weight, "[0, inf)")
        pairs.append(pair)
    if not pairs:
        raise UsageError(EMPTY_GRID)
    return pairs


def cmd_sweep(args) -> int:
    config = load_experiment_config(args.config)
    grid = _parse_grid(args.grid)
    train_config, dataset, out = _materialize(config, args.seed, ("val", "test"))

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
    dataset = _dataset_for_model(args.csv, schema, meta)
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
    dataset = _synth(args.n, args.beta, args.rho, args.seed, prefix="--")
    schema_path = out_path.with_suffix(".schema.json")
    save_csv(dataset, out_path)
    save_schema(dataset.schema, schema_path)
    print(f"wrote {out_path} and {schema_path}")
    return 0


# -- parser --------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """A parser whose errors, such as a missing flag or a value its type rejects, raise
    UsageError, so that :func:`main` reports them like any other; ``--help`` still exits 0."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _metric_flags(parser) -> None:
    def threshold(text: str) -> float:  # argparse names it in "invalid threshold value: 'abc'"
        return check_number("--threshold", float(text))

    parser.add_argument("--threshold", type=threshold, default=0.5, help="decision threshold")
    parser.add_argument(
        "--groups-from",
        choices=("true", "reconstructed"),
        default="true",
        help="measure fairness gaps against the true sensitive column or the reconstructed one",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.add_argument("--csv", required=True, help="CSV whose header matches the schema saved in the model")
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
    p.add_argument("--csv", required=True, help="CSV whose header matches the schema saved in the model")
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
        args = build_parser().parse_args(argv)  # a bad flag or value raises UsageError or ConfigError here
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
