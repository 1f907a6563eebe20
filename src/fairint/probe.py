"""Standalone logistic probe: how well do the input features predict the
sensitive column?

This is a diagnostic, deliberately independent of the model stack: a
bias-free logistic regression fit by plain full-batch gradient descent
from zero-initialized weights (no randomness anywhere). Large
coefficients flag proxy features that leak the sensitive attribute;
near-zero coefficients everywhere mean the dataset carries no linear
leak. Numeric columns are standardized internally and categoricals are
one-hot expanded, so coefficient magnitudes are comparable across
features.
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


def _design_matrix(dataset: Dataset):
    columns = []
    names = []
    for feature in dataset.input_columns:
        raw = dataset.columns[feature.name]
        if feature.kind == KIND_CATEGORICAL:
            vocabulary = dataset.vocabularies[feature.name]
            for level, value in enumerate(vocabulary):
                columns.append((raw == level).astype(np.float64))
                names.append(f"{feature.name}={value}")
        else:
            mu, sigma = mean_std(raw, feature.name)
            columns.append((raw - mu) / sigma)
            names.append(feature.name)
    return np.column_stack(columns), names


def sensitive_probe(dataset: Dataset) -> ProbeResult:
    """Fit s ~ logistic(input features) and return the sorted coefficients."""
    target = dataset.columns[dataset.sensitive_column.name].astype(np.float64)
    classes = np.unique(target)
    if classes.size < 2:
        raise DataError(
            "the sensitive column has a single value in this dataset; nothing to probe"
        )
    design, names = _design_matrix(dataset)
    n = design.shape[0]
    weights = np.zeros(design.shape[1])
    intercept = 0.0
    for _ in range(PROBE_EPOCHS):
        logits = design @ weights + intercept
        e = np.exp(-np.abs(logits))  # exp(-logits) where logits >= 0, exp(logits) elsewhere
        prob = np.where(logits >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        residual = prob - target
        weights -= PROBE_LEARNING_RATE * (design.T @ residual) / n
        intercept -= PROBE_LEARNING_RATE * residual.mean()
    return ProbeResult(names, weights, intercept)
