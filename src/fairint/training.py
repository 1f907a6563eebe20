"""Mini-batch training with early stopping, plus evaluation and weight sweeps.

One call to :func:`train` owns the whole run: it builds the model from the
train seed, encodes the train split once (category ids and numeric scales,
see :class:`~fairint.model.EncodedRows`), walks seeded mini-batches, each
step slicing its rows from that encoding, applies Adam-style updates with
an L2 penalty, validates at every epoch end, and restores the parameters
of the best validation-AUC epoch before freezing them. Everything is
deterministic given (dataset, configs, seed): rerunning produces
bit-identical parameters and history.

Model selection is on validation AUC alone; the fairness weights, not the
stopping rule, govern the fairness/accuracy trade-off.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import metrics as fm
from .autodiff import backward
# train() shuffles its rows itself, in the order of batches(); the benchmark's trace wraps that name here
from .data import Dataset, batches, check_options, epoch_permutation, full_batch, is_finite_number  # noqa: F401
from .errors import (
    ConfigError,
    DomainError,
    NumericError,
    TrainingError,
    UsageError,
)
from .losses import LossBreakdown, assign_groups, ce_loss, joint_loss
from .model import FairIntModel, ModelConfig, VanillaModel, score_rows

__all__ = ["TrainConfig", "EpochRecord", "TrainHistory", "SweepPoint", "Adam", "train", "evaluate_model", "sweep"]


@dataclass(frozen=True)
class TrainConfig:
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

    def __post_init__(self):
        for name in ("batch_size", "max_epochs", "patience", "seed"):
            value = getattr(self, name)
            if type(value) is not int:  # a bool is an int too
                raise ConfigError(f"{name} must be an int, got {value!r}")
        for name in ("lambda_ifc", "lambda_fc", "learning_rate", "dropout", "l2"):
            value = getattr(self, name)
            if not is_finite_number(value):
                raise ConfigError(f"{name} must be a finite number, got {value!r}")
        if not isinstance(self.enable_bid, bool):
            raise ConfigError(f"enable_bid must be true or false, got {self.enable_bid!r}")
        for name in ("lambda_ifc", "lambda_fc", "l2"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative, got {getattr(self, name)}")
        if not self.enable_bid and (self.lambda_ifc or self.lambda_fc):
            raise ConfigError(f"enable_bid false trains the vanilla model, which takes no fairness weights,"
                              f" got lambda_ifc={self.lambda_ifc}, lambda_fc={self.lambda_fc}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.max_epochs < 0:
            raise ConfigError(f"max_epochs must be non-negative, got {self.max_epochs}")
        if self.patience < 1:
            raise ConfigError(f"patience must be at least 1, got {self.patience}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")

    def to_dict(self) -> dict:
        return {f: getattr(self, f) for f in self.__dataclass_fields__}

    @classmethod
    def from_dict(cls, doc: dict) -> "TrainConfig":
        check_options(doc, cls.__dataclass_fields__, "training")
        return cls(**doc)


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
    sums = {"l0": 0.0, "l_sar": 0.0, "l_ifc": 0.0, "l_fc": 0.0, "total": 0.0}
    for batch_index, start in enumerate(range(0, n, cfg.batch_size)):
        rows = slice(start, start + cfg.batch_size)
        batch_labels = labels[rows]
        try:
            if cfg.enable_bid:
                trace = model.forward(inputs[rows], training=True, rng=dropout_rng)
                total, breakdown = joint_loss(trace, batch_labels, sensitive[rows], cfg.lambda_ifc, cfg.lambda_fc)
            else:
                pred = model.forward(inputs[rows], training=True, rng=dropout_rng)
                total = ce_loss(pred, batch_labels)
                l0 = total.item()
                breakdown = LossBreakdown(l0=l0, l_sar=0.0, l_ifc=0.0, l_fc=0.0, total=l0)
            model.param_grads.fill(0.0)
            backward(total)
            optimizer.step()
        except (NumericError, DomainError) as exc:
            raise TrainingError(f"loss diverged at epoch {epoch}, batch {batch_index}: {exc}") from exc
        for key, value in breakdown.as_dict().items():
            sums[key] += value * batch_labels.size
    return LossBreakdown(**{k: v / n for k, v in sums.items()})


# every op checks its result for NaN and Inf, so numpy's overflow warnings add nothing
@np.errstate(over="ignore", invalid="ignore")
def train(dataset: Dataset, model_config: ModelConfig, train_config: TrainConfig):
    """Run one full optimization and return (frozen model, history).

    The dataset must already be split, and a validation split on which
    the metrics are undefined raises before the first step, and so does
    a category id outside the model's tables in a train row. Training
    walks seeded shuffled mini-batches (the order of
    :func:`~fairint.data.batches`); any non-finite value surfacing in
    a step, or in the epoch-end validation, stops the run with a
    TrainingError naming the epoch (and the batch, for a step). Early
    stopping triggers after ``patience`` epochs without a new best
    validation AUC, and the returned parameters always belong to the best
    epoch, never a later one.
    """
    if dataset.split_tags is None:
        raise UsageError("dataset must be split before training")
    # whether the validation metrics are defined depends on the rows, not the scores
    val = _nonempty_split(dataset, "val")
    fm.evaluate(np.zeros(val.size), val.labels, val.true_sensitive.astype(np.int64))
    cfg = train_config
    cls = FairIntModel if cfg.enable_bid else VanillaModel
    model = cls(dataset.input_columns, model_config, seed=cfg.seed, dropout=cfg.dropout)
    optimizer = Adam(model.param_values, model.param_grads, cfg.learning_rate, l2=cfg.l2)
    train_rows = full_batch(dataset, "train")
    encoded, labels, sensitive = model.encode(train_rows.features), train_rows.labels, train_rows.true_sensitive
    del train_rows  # frees the raw feature columns: the run reads only their encoding

    records: list[EpochRecord] = []
    best_auc = -math.inf
    best_epoch: int | None = None
    best_values: np.ndarray | None = None
    epochs_since_best = 0
    stopping_reason = "max_epochs"

    for epoch in range(cfg.max_epochs):
        epoch_losses = _train_epoch(model, optimizer, cfg, epoch, encoded, labels, sensitive)
        try:
            val_report = evaluate_model(model, dataset, "val")
        except (NumericError, DomainError) as exc:
            raise TrainingError(f"validation diverged at epoch {epoch}: {exc}") from exc
        records.append(EpochRecord(epoch=epoch, losses=epoch_losses, val_report=val_report))

        if val_report.auc > best_auc:
            best_auc = val_report.auc
            best_epoch = epoch
            best_values = model.param_values.copy()
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if epochs_since_best >= cfg.patience:
                stopping_reason = "early_stopping"
                break

    if best_values is not None:
        model.param_values[:] = best_values
    model.freeze()
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
    error and the sweep continues; results keep the grid's order.
    """
    grid = list(lambda_grid)
    if not grid:
        raise UsageError(EMPTY_GRID)
    points = []
    for li, lf in grid:
        try:
            config = replace(base_config, lambda_ifc=float(li), lambda_fc=float(lf))
            model, _ = train(dataset, model_config, config)
            report = evaluate_model(model, dataset, "test")
            points.append(SweepPoint(lambda_ifc=float(li), lambda_fc=float(lf), report=report))
        except Exception as exc:  # per-point isolation is the contract
            points.append(
                SweepPoint(
                    lambda_ifc=float(li),
                    lambda_fc=float(lf),
                    report=None,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
    return points
