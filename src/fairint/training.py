"""Mini-batch training with early stopping, plus evaluation and weight sweeps.

One call to :func:`train` owns the whole run: it builds the model from the
train seed (:func:`new_model`), encodes the train split once (category
ids and numeric scales, see :class:`~fairint.model.EncodedRows`), walks
seeded mini-batches, each step slicing its rows from that encoding,
applies Adam-style updates with an L2 penalty, validates at every epoch
end, and restores the parameters of the best validation-AUC epoch before
freezing them. Everything is deterministic given (dataset, configs,
seed): rerunning produces bit-identical parameters and history.

Model selection is on validation AUC alone; the fairness weights, not the
stopping rule, govern the fairness/accuracy trade-off.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import metrics as fm
from .autodiff import backward
# train() shuffles its rows itself, in the order of batches(), and its steps reach ce_loss through
# joint_loss; the benchmark's trace wraps both names here, so this module keeps importing them
from .data import Dataset, batches, epoch_permutation, full_batch  # noqa: F401
from .errors import (
    ConfigError,
    NumericError,
    Settings,
    TrainingError,
    UsageError,
    check_int,
    check_number,
    located,
)
from .losses import LossBreakdown, assign_groups, ce_loss, joint_loss  # noqa: F401
from .model import FairIntModel, ModelConfig, VanillaModel, score_rows

__all__ = ["TrainConfig", "EpochRecord", "TrainHistory", "SweepPoint", "Adam", "new_model", "train", "evaluate_model",
           "sweep"]


# the floor of each int field and the interval of each numeric one
_INT_FLOORS = {"batch_size": 1, "max_epochs": 0, "patience": 1, "seed": 0}
_INTERVALS = {"lambda_ifc": "[0, inf)", "lambda_fc": "[0, inf)", "learning_rate": "(0, inf)",
              "dropout": "[0, 1)", "l2": "[0, inf)"}


@dataclass(frozen=True)
class TrainConfig(Settings):
    """One training run's hyperparameters.

    ``lambda_ifc`` and ``lambda_fc`` weight the two fairness terms, and a
    weight of 0 is the only way to leave a term out: the run is then bit
    for bit one without that term. ``enable_bid`` off trains the vanilla
    MLP baseline instead of the interaction model (no reconstructor, task
    loss only), which takes no fairness weights: a nonzero one raises
    ConfigError.
    """

    lambda_ifc: float = 0.0
    lambda_fc: float = 0.0
    learning_rate: float = 1e-3
    batch_size: int = 256
    max_epochs: int = 200
    patience: int = 10
    dropout: float = 0.1
    l2: float = 1e-4
    seed: int = 0
    enable_bid: bool = True

    what = "training"

    def __post_init__(self):
        for name, floor in _INT_FLOORS.items():
            check_int(name, getattr(self, name), floor)
        for name, interval in _INTERVALS.items():
            check_number(name, getattr(self, name), interval)
        if not isinstance(self.enable_bid, bool):
            raise ConfigError(f"enable_bid must be true or false, got {self.enable_bid!r}")
        if not self.enable_bid and (self.lambda_ifc or self.lambda_fc):
            raise ConfigError(f"enable_bid false trains the vanilla model, which takes no fairness weights,"
                              f" got lambda_ifc={self.lambda_ifc}, lambda_fc={self.lambda_fc}")


@dataclass
class EpochRecord:
    """Batch-size-weighted mean losses plus the epoch-end validation report."""

    epoch: int
    losses: LossBreakdown
    val_report: fm.FairnessReport

    def history_line(self) -> dict:
        return {
            "epoch": self.epoch,
            **self.losses.as_dict(),
            "val_auc": self.val_report.auc,
            "val_ddp": self.val_report.ddp,
            "val_deo": self.val_report.deo,
        }


@dataclass
class TrainHistory:
    epochs: list
    best_epoch: int | None
    stopping_reason: str

    def history_lines(self) -> list[dict]:
        return [r.history_line() for r in self.epochs]


class Adam:
    """Adaptive moment updates with a coupled L2 penalty, in place on a model's flat ``values`` buffer.

    The penalty term is l2 * sum(w^2) over every trainable parameter, so
    its gradient contribution is 2 * l2 * w; it enters the moment
    estimates like any other gradient and never touches the logged loss
    values.
    """

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, values: np.ndarray, grads: np.ndarray, learning_rate: float, l2: float = 0.0):
        self.values, self.grads = values, grads
        self.learning_rate = learning_rate
        self.l2 = l2
        self.t = 0
        self._m = np.zeros_like(values)
        self._v = np.zeros_like(values)
        self._scratch = np.empty_like(values), np.empty_like(values)

    def step(self) -> None:
        """One update: lr * (m / b1c) / (sqrt(v / b2c) + eps), each product and quotient
        taken in that order, written into the two scratch buffers."""
        self.t += 1
        b1c = 1.0 - self.BETA1 ** self.t
        b2c = 1.0 - self.BETA2 ** self.t
        a, b = self._scratch
        g = self.grads
        if self.l2 > 0.0:
            g = np.add(g, np.multiply(2.0 * self.l2, self.values, out=a), out=a)
        self._m *= self.BETA1
        self._m += np.multiply(1.0 - self.BETA1, g, out=b)
        self._v *= self.BETA2
        self._v += np.multiply(np.multiply(1.0 - self.BETA2, g, out=b), g, out=b)
        update = np.multiply(self.learning_rate, np.divide(self._m, b1c, out=a), out=a)
        update /= np.add(np.sqrt(np.divide(self._v, b2c, out=b), out=b), self.EPS, out=b)
        self.values -= update


NO_RECONSTRUCTOR = "this model has no reconstructor; groups_from='reconstructed' needs one"
EMPTY_GRID = "sweep needs a non-empty grid of (lambda_ifc, lambda_fc) pairs"


def _nonempty_split(dataset: Dataset, split: str):
    batch = full_batch(dataset, split)
    if batch.size == 0:
        raise UsageError(f"split {split!r} has no rows")
    return batch


def check_metrics_defined(dataset: Dataset, *splits: str) -> None:
    """Raise unless the metrics are defined on each of ``splits``, which depends on its
    rows, not on any model's scores: UsageError for an empty split, MetricError for one
    that lacks a class, a group, or positive and negative rows in a group, naming the split."""
    for split in splits:
        rows = _nonempty_split(dataset, split)
        with located(f"{split} split"):
            fm.evaluate(np.zeros(rows.size), rows.labels, rows.true_sensitive.astype(np.int64))


def evaluate_model(model, dataset: Dataset, split: str, threshold: float = 0.5,
                   groups_from: str = "true") -> fm.FairnessReport:
    """Score a whole split in blocks of rows (see :func:`score_rows`), then the full metric report.

    With ``groups_from="reconstructed"`` the fairness gaps are measured
    against thresholded reconstructor output instead of the true
    sensitive column (which the model never sees either way); the
    reconstruction-accuracy entry is always measured against the true
    column.
    """
    batch = _nonempty_split(dataset, split)
    true_s = batch.true_sensitive.astype(np.int64, copy=False)
    scores, pseudo = score_rows(model, batch.features)
    if groups_from == "reconstructed":
        if pseudo is None:
            raise UsageError(NO_RECONSTRUCTOR)
        group_vector = assign_groups(pseudo)
    else:
        group_vector = true_s
    report = fm.evaluate(
        scores, batch.labels, group_vector,
        threshold=threshold,
        groups_from=groups_from,
    )
    if pseudo is not None:
        report.sar_accuracy = fm.sar_accuracy(pseudo, true_s)
    return report


def _train_epoch(model, optimizer: Adam, cfg: TrainConfig, epoch: int, encoded, labels, sensitive) -> LossBreakdown:
    """One step per batch over the train rows (``encoded``, ``labels`` and ``sensitive``, in
    split order) in the epoch's shuffled order; returns the batch-size-weighted mean losses."""
    dropout_rng = np.random.default_rng([cfg.seed, epoch, 1])
    n = labels.size
    # the rows copied once in the epoch's order, so that every batch is a slice of them;
    # the copies go when the epoch returns, before the next one makes its own
    order = epoch_permutation(n, cfg.seed, epoch)
    inputs, labels, sensitive = encoded.take(order), labels[order], sensitive[order]
    sums = dict.fromkeys(LossBreakdown.__dataclass_fields__, 0.0)
    for batch_index, start in enumerate(range(0, n, cfg.batch_size)):
        rows = slice(start, start + cfg.batch_size)
        batch_labels = labels[rows]
        try:
            trace = model.forward(inputs[rows], training=True, rng=dropout_rng)
            total, breakdown = joint_loss(trace, batch_labels, sensitive[rows], cfg.lambda_ifc, cfg.lambda_fc)
            model.param_grads.fill(0.0)
            backward(total)
            optimizer.step()
        except NumericError as exc:
            raise TrainingError(f"loss diverged at epoch {epoch}, batch {batch_index}: {exc}") from exc
        for key, value in breakdown.as_dict().items():
            sums[key] += value * batch_labels.size
    return LossBreakdown(**{k: v / n for k, v in sums.items()})


def new_model(input_columns, model_config: ModelConfig, train_config: TrainConfig):
    """The untrained model that ``train_config`` trains: the fair model, or with ``enable_bid``
    off the vanilla one, drawn from its seed; MemoryError, naming the parameter, for a size
    numpy cannot represent."""
    cls = FairIntModel if train_config.enable_bid else VanillaModel
    return cls(input_columns, model_config, seed=train_config.seed, dropout=train_config.dropout)


# every op checks its result for NaN and Inf, so numpy's overflow warnings add nothing
@np.errstate(over="ignore", invalid="ignore")
def train(dataset: Dataset, model_config: ModelConfig, train_config: TrainConfig):
    """Run one full optimization of the :func:`new_model` of these configs and return
    (frozen model, history).

    The dataset must already be split, and a validation split on which
    the metrics are undefined raises before the first step, and so does
    a category id outside the model's tables in a train row. Training
    walks seeded shuffled mini-batches (the order of
    :func:`~fairint.data.batches`); any non-finite value surfacing in
    a step, or in the epoch-end validation, stops the run with a
    TrainingError naming the epoch (and the batch, for a step). Early
    stopping triggers after ``patience`` epochs without a new best
    validation AUC (a tie is not a new best), and the returned parameters
    always belong to the best epoch, never a later one. The history's
    ``stopping_reason`` is ``max_epochs`` whenever every epoch ran, even
    if patience ran out at the last one, and ``early_stopping`` otherwise.
    """
    check_metrics_defined(dataset, "val")
    cfg = train_config
    model = new_model(dataset.input_columns, model_config, cfg)
    optimizer = Adam(model.param_values, model.param_grads, cfg.learning_rate, l2=cfg.l2)
    train_rows = full_batch(dataset, "train")
    encoded, labels, sensitive = model.encode(train_rows.features), train_rows.labels, train_rows.true_sensitive
    del train_rows  # frees the raw feature columns: the run reads only their encoding

    records: list[EpochRecord] = []
    best_epoch: int | None = None
    best_values: np.ndarray | None = None

    for epoch in range(cfg.max_epochs):
        epoch_losses = _train_epoch(model, optimizer, cfg, epoch, encoded, labels, sensitive)
        try:
            val_report = evaluate_model(model, dataset, "val")
        except NumericError as exc:
            raise TrainingError(f"validation diverged at epoch {epoch}: {exc}") from exc
        records.append(EpochRecord(epoch=epoch, losses=epoch_losses, val_report=val_report))

        if best_epoch is None or val_report.auc > records[best_epoch].val_report.auc:
            best_epoch, best_values = epoch, model.param_values.copy()
        elif epoch - best_epoch >= cfg.patience:
            break

    if best_values is not None:
        model.param_values[:] = best_values
    model.freeze()
    stopping_reason = "early_stopping" if len(records) < cfg.max_epochs else "max_epochs"
    return model, TrainHistory(epochs=records, best_epoch=best_epoch, stopping_reason=stopping_reason)


@dataclass
class SweepPoint:
    """Outcome of one grid point: a report, or the error that stopped it."""

    lambda_ifc: float
    lambda_fc: float
    report: fm.FairnessReport | None
    error: str | None = None

    def tradeoff_row(self) -> dict:
        return {
            "lambda_ifc": self.lambda_ifc,
            "lambda_fc": self.lambda_fc,
            "auc": None if self.report is None else self.report.auc,
            "ddp": None if self.report is None else self.report.ddp,
            "deo": None if self.report is None else self.report.deo,
        }


def sweep(dataset: Dataset, model_config: ModelConfig, base_config: TrainConfig,
          lambda_grid) -> list[SweepPoint]:
    """Train once per (lambda_ifc, lambda_fc) pair; evaluate on the test split.

    Every point is an independent run from the same seed, so points
    differ only in their fairness weights. A failing point records its
    error and the sweep continues; results keep the grid's order. A
    weight that ``float`` cannot convert raises before any point trains.
    """
    points = [SweepPoint(lambda_ifc=float(li), lambda_fc=float(lf), report=None) for li, lf in lambda_grid]
    if not points:
        raise UsageError(EMPTY_GRID)
    for point in points:
        try:
            config = replace(base_config, lambda_ifc=point.lambda_ifc, lambda_fc=point.lambda_fc)
            model, _ = train(dataset, model_config, config)
            point.report = evaluate_model(model, dataset, "test")
        except Exception as exc:  # per-point isolation is the contract
            point.error = f"{type(exc).__name__}: {exc}"
    return points
