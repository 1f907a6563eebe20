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

The one-hot design is never built. Consecutive categorical columns share
one joint code while the product of their level counts, each plus one
for the unknown slot, stays within :data:`PROBE_MAX_CODES`; a column
wider than that is a group of its own. A row's joint code names its
level in every column of the group, and only codes that some row holds
are numbered. Each step sums the member weights of every code into a
small table and gathers one entry per row and group; the gradient sums
the residual per code, over a row order sorted once, and spreads each
code's sum onto its member levels. Values outside the vocabulary take
the unknown slot, whose weight stays 0, as an all-zero one-hot row would
give. Memory grows with rows times groups, plus per-group tables of at
most :data:`PROBE_MAX_CODES` entries (or one column's levels). The sums
run in another order than a per-column fit, so on a table with two or
more categorical columns a coefficient can differ from earlier versions
in its last digit.
"""

import numpy as np

from .data import KIND_CATEGORICAL, Dataset, mean_std
from .errors import DataError

__all__ = ["ProbeResult", "sensitive_probe"]

PROBE_EPOCHS = 500
PROBE_LEARNING_RATE = 0.1
# the most joint codes that one group of categorical columns may span
PROBE_MAX_CODES = 4096


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


def _code_groups(spans) -> list[list[int]]:
    """Split columns with the given code spans (levels + 1) into runs of
    consecutive columns whose product of spans is at most PROBE_MAX_CODES."""
    groups, size = [], PROBE_MAX_CODES + 1
    for j, span in enumerate(spans):
        if size * span > PROBE_MAX_CODES:
            groups.append([])
            size = 1
        groups[-1].append(j)
        size *= span
    return groups


def _encode(dataset: Dataset):
    """Coefficient names; the standardized numericals as one row-major
    (p, n) block, with their positions in the coefficient vector; the
    (g, n) joint code of each row in each group, numbered across groups;
    and the (m, codes) positions of each code's member levels in column
    order. Position ``len(names)`` is the unknown slot, which also pads
    groups of fewer than m columns."""
    names = []
    numerical, numerical_at, categorical = [], [], []
    for feature in dataset.input_columns:
        raw = dataset.columns[feature.name]
        if feature.kind == KIND_CATEGORICAL:
            if raw.min() < 0:
                raise DataError(f"negative category id for feature {feature.name!r}")
            vocabulary = dataset.vocabularies[feature.name]
            categorical.append((raw, len(names), len(vocabulary)))
            names += [f"{feature.name}={value}" for value in vocabulary]
        else:
            mu, sigma = mean_std(raw, feature.name)
            numerical.append((raw - mu) / sigma)
            numerical_at.append(len(names))
            names.append(feature.name)
    groups = _code_groups([levels + 1 for _, _, levels in categorical])
    depth = max(map(len, groups), default=0)
    codes = np.empty((len(groups), dataset.n), np.int64)
    members, numbered = [np.empty((depth, 0), np.int64)], 0
    for code, group in zip(codes, groups):
        code.fill(0)
        for raw, _, levels in (categorical[j] for j in group):
            code *= levels + 1
            code += np.minimum(raw, levels)  # ids past the vocabulary share the unknown id
        used = np.flatnonzero(np.bincount(code))
        renumber = np.empty(used[-1] + 1, np.int64)
        renumber[used] = np.arange(numbered, numbered + used.size)
        np.take(renumber, code, out=code)
        numbered += used.size
        at = np.full((depth, used.size), len(names))
        for row, j in zip(at[len(group) - 1::-1], reversed(group)):  # last column first
            _, start, levels = categorical[j]
            used, local = np.divmod(used, levels + 1)
            known = local < levels
            row[known] = start + local[known]
        members.append(at)
    members = np.hstack(members)
    block = np.array(numerical, np.float64).reshape(len(numerical), dataset.n)
    return names, block, np.array(numerical_at, np.int64), codes, members


def _sorted_runs(flat, slots, width):
    """The indices (mod ``width``) of the entries of ``flat`` below
    ``slots``, grouped by value and ascending within a value, with each
    group's start and value; values no entry holds have no group."""
    counts = np.bincount(flat, minlength=slots)[:slots]
    held = np.flatnonzero(counts)
    order = np.argsort(flat, kind="stable")[: counts.sum()] % width
    return order, (np.cumsum(counts) - counts)[held], held


def sensitive_probe(dataset: Dataset) -> ProbeResult:
    """Fit s ~ logistic(input features) and return the sorted coefficients.

    A negative category id raises :class:`DataError` naming its column.
    """
    target = dataset.columns[dataset.sensitive_column.name].astype(np.float64)
    classes = np.unique(target)
    if classes.size < 2:
        raise DataError(
            "the sensitive column has a single value in this dataset; nothing to probe"
        )
    names, numerical, numerical_at, codes, members = _encode(dataset)
    n = dataset.n
    categorical = codes.size > 0
    # rows of each code, then codes holding each known level; levels no code
    # holds are left out, so their gradient stays exactly 0
    rows, code_starts, _ = _sorted_runs(codes.ravel(), members.shape[1], n)
    owners, level_starts, levels = _sorted_runs(members.ravel(), len(names), members.shape[1])

    weights = np.zeros(len(names) + 1)  # the last slot is the unknown one and stays 0
    gradient = np.zeros_like(weights)
    intercept = 0.0
    for _ in range(PROBE_EPOCHS):
        logits = weights[numerical_at] @ numerical
        if categorical:
            table = np.take(weights, members).sum(axis=0)
            logits += np.take(table, codes).sum(axis=0)
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
        if categorical:
            sums = np.add.reduceat(np.take(residual, rows), code_starts)
            gradient[levels] = np.add.reduceat(np.take(sums, owners), level_starts)
        weights -= PROBE_LEARNING_RATE * gradient / n
        intercept -= PROBE_LEARNING_RATE * residual.mean()
    return ProbeResult(names, weights[:-1], intercept)
