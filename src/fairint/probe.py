"""Standalone logistic probe: how well do the input features predict the
sensitive column?

This is a diagnostic, deliberately independent of the model stack: a
bias-free logistic regression fit by plain full-batch gradient descent
from zero-initialized weights (no randomness anywhere). Large
coefficients flag proxy features that leak the sensitive attribute;
near-zero coefficients everywhere mean the dataset carries no linear
leak. Numeric columns are standardized internally and each known level
of a categorical gets its own coefficient (a one-hot expansion), so
coefficient magnitudes are comparable across features.

The one-hot design is never built. Categoricals are kept as positions in
the coefficient vector, so the forward pass gathers one weight per row
and column, and the gradient sums the residual per level over a row
order sorted once. Values outside the vocabulary point at one extra slot
whose weight stays 0, as an all-zero one-hot row would give.
"""

import numpy as np

from .data import KIND_CATEGORICAL, Dataset, mean_std
from .errors import DataError

__all__ = ["ProbeResult", "sensitive_probe"]

PROBE_EPOCHS = 500
PROBE_LEARNING_RATE = 0.1


class ProbeResult:
    """Named, signed coefficients sorted by descending magnitude."""

    def __init__(self, names, coefficients, intercept):
        order = sorted(range(len(names)), key=lambda i: (-abs(coefficients[i]), names[i]))
        self.names = [names[i] for i in order]
        self.coefficients = [float(coefficients[i]) for i in order]
        self.intercept = float(intercept)

    def as_rows(self) -> list[dict]:
        return [
            {"feature": name, "coefficient": coef}
            for name, coef in zip(self.names, self.coefficients)
        ]


def _encode(dataset: Dataset):
    """Coefficient names; the standardized numericals as one row-major
    (p, n) block, with their positions in the coefficient vector; and the
    categoricals as a (k, n) array of positions, one row per column.
    Position ``len(names)`` is the unknown slot."""
    names = []
    numerical, numerical_at, categorical = [], [], []
    for feature in dataset.input_columns:
        raw = dataset.columns[feature.name]
        if feature.kind == KIND_CATEGORICAL:
            vocabulary = dataset.vocabularies[feature.name]
            categorical.append((raw, len(names), len(vocabulary)))
            names += [f"{feature.name}={value}" for value in vocabulary]
        else:
            mu, sigma = mean_std(raw, feature.name)
            numerical.append((raw - mu) / sigma)
            numerical_at.append(len(names))
            names.append(feature.name)
    positions = np.full((len(categorical), dataset.n), len(names))
    for row, (raw, start, levels) in zip(positions, categorical):
        known = raw < levels
        row[known] = start + raw[known]
    block = np.array(numerical, np.float64).reshape(len(numerical), dataset.n)
    return names, block, np.array(numerical_at, np.int64), positions


def sensitive_probe(dataset: Dataset) -> ProbeResult:
    """Fit s ~ logistic(input features) and return the sorted coefficients."""
    if not dataset.input_columns:
        raise DataError("the schema has no non-sensitive input column; nothing to probe")
    target = dataset.columns[dataset.sensitive_column.name].astype(np.float64)
    classes = np.unique(target)
    if classes.size < 2:
        raise DataError(
            "the sensitive column has a single value in this dataset; nothing to probe"
        )
    names, numerical, numerical_at, positions = _encode(dataset)
    n = dataset.n
    # rows of each known level, grouped by level and ascending within one;
    # levels no row uses are left out, so their gradient stays exactly 0
    flat = positions.ravel()
    counts = np.bincount(flat, minlength=len(names) + 1)[:-1]
    levels = np.flatnonzero(counts)
    rows = np.argsort(flat, kind="stable")[: counts.sum()] % n
    starts = (np.cumsum(counts) - counts)[levels]

    weights = np.zeros(len(names) + 1)  # the last slot is the unknown one and stays 0
    gradient = np.zeros_like(weights)
    intercept = 0.0
    for _ in range(PROBE_EPOCHS):
        logits = weights[numerical_at] @ numerical
        logits += np.take(weights, positions).sum(axis=0)
        logits += intercept
        # 1 / (1 + e) where logits >= 0 and e / (1 + e) elsewhere, with e = exp(-|logits|);
        # exp(min(logits, 0)) is exactly that numerator, without a branch per row
        e = np.abs(logits)
        np.negative(e, out=e)
        np.exp(e, out=e)
        residual = np.minimum(logits, 0.0)
        np.exp(residual, out=residual)
        e += 1.0
        residual /= e
        residual -= target
        gradient[numerical_at] = numerical @ residual
        gradient[levels] = np.add.reduceat(np.take(residual, rows), starts)
        weights -= PROBE_LEARNING_RATE * gradient / n
        intercept -= PROBE_LEARNING_RATE * residual.mean()
    return ProbeResult(names, weights[:-1], intercept)
