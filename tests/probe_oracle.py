"""Dense one-hot logistic probe: the reference for ``fairint.probe``.

This is the straightforward fit that ``sensitive_probe`` replaces: every
categorical level becomes a 0/1 column of a dense (rows x levels) design
matrix, numerical columns are standardized beside them, and each of the
500 gradient steps multiplies the whole design by the weights and its
transpose by the residual. Only tests import this module.
"""

import numpy as np

from fairint.data import KIND_CATEGORICAL, Dataset, mean_std
from fairint.errors import DataError
from fairint.probe import PROBE_EPOCHS, PROBE_LEARNING_RATE, ProbeResult


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


def oracle_sensitive_probe(dataset: Dataset) -> ProbeResult:
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
