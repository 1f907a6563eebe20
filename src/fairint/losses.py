"""Loss terms and the joint training objective.

The joint objective combines four pieces:

  l0     task cross-entropy on the label
  l_sar  squared error of the reconstructed sensitive probability
  l_ifc  KL(p0 || p1) + KL(p1 || p0) = sum (p0 - p1)(log p0 - log p1)
         between the two pseudo-groups' fused-embedding distributions
  l_fc   2 * |CE0 - CE1|, the gap between the two pseudo-groups' mean
         cross-entropies

weighted as ``total = l0 + lambda_ifc * l_ifc + lambda_fc * l_fc + l_sar``.
:func:`joint_loss` builds one table of (name, term, weight) rows in that
order, and both the total and its :class:`LossBreakdown` are read from
it. Each weight is a finite number in [0, inf), checked like every other
numeric setting (:func:`~fairint.errors.check_number`). The vanilla
model's trace has no reconstructed probability, so its table holds
``l0`` alone (it takes no fairness weights); a table of one row, whose
weight is 1, is its own total, with no weighted-sum node.
Group membership everywhere comes from the reconstructed probability, not
the true sensitive column, so the fairness pressure works even where the
sensitive attribute is unavailable at inference time. The sensitive
attribute is binary, so there are exactly two pseudo-groups, 0 and 1. Both
penalties read one constant (2, B) group-mean matrix M (:func:`group_means`),
whose row g averages the rows of group g; :func:`joint_loss` builds it once
per batch.

Each term is one fused graph node; the weighted total is one more. Their
values and gradients are bit for bit those of the separate operations
they replace.

A weight of exactly 0, the only off switch, leaves its row out of the
table: the term is not evaluated, contributes no graph nodes and is
reported as 0.0, which keeps training dynamics bitwise identical to a run
where the term does not exist. A batch whose rows all fall into one
pseudo-group has no gap to penalise, and leaves both penalty rows out by
the same rule.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ShapeError, UsageError, check_number
from .metrics import threshold_labels

__all__ = [
    "LossBreakdown",
    "ce_loss",
    "reconstruction_loss",
    "assign_groups",
    "group_means",
    "group_divergence_loss",
    "group_gap_loss",
    "joint_loss",
]


@dataclass(frozen=True, kw_only=True)
class LossBreakdown:
    """Float values of every term plus the weighted total for one batch; a term
    left out of the objective, or absent from the model, is 0.0."""

    l0: float = 0.0
    l_sar: float = 0.0
    l_ifc: float = 0.0
    l_fc: float = 0.0
    total: float

    def as_dict(self) -> dict:
        return {"l0": self.l0, "l_sar": self.l_sar, "l_ifc": self.l_ifc, "l_fc": self.l_fc, "total": self.total}


def _as_column(values, n: int, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64).reshape(-1, 1)
    if arr.shape[0] != n:
        raise ShapeError(f"{what} has {arr.shape[0]} rows, expected {n}")
    return arr


def ce_loss(pred: Tensor, labels) -> Tensor:
    """Mean binary cross-entropy; ``pred`` holds probabilities in (0, 1)."""
    return ad.cross_entropy(pred, _as_column(labels, pred.values.shape[0], "labels"))


def reconstruction_loss(pseudo_scalar: Tensor, sensitive) -> Tensor:
    """Mean squared error between reconstructed probability and true group."""
    n = pseudo_scalar.values.shape[0]
    return ad.mean_squared_error(pseudo_scalar, _as_column(sensitive, n, "sensitive values"))


def assign_groups(pseudo_scalar) -> np.ndarray:
    """Threshold reconstructed probabilities into group ids.

    The rule is :func:`metrics.threshold_labels` at 0.5, the one SAR
    accuracy scores, so the two cannot drift apart. A probability of
    exactly 0.5 (the expected value of a balanced binary attribute) goes
    to group 1; everything below goes to group 0.
    """
    return threshold_labels(pseudo_scalar.values if isinstance(pseudo_scalar, Tensor) else pseudo_scalar)


def group_means(groups) -> np.ndarray | None:
    """Constant (2, B) matrix whose rows average pseudo-groups 0 and 1; None if one is empty,
    which leaves both penalties out of :func:`joint_loss`."""
    groups = np.asarray(groups).reshape(-1)
    ones = groups == 1
    if not (ones | (groups == 0)).all():
        raise UsageError(f"group ids must be 0 or 1, got {np.unique(groups).tolist()}")
    n1 = np.count_nonzero(ones)
    n0 = ones.size - n1
    if not (n0 and n1):
        return None
    means = np.empty((2, ones.size))
    np.divide(~ones, n0, out=means[0])  # 1 / |g| or 0, as a true division of the 0/1 membership
    np.divide(ones, n1, out=means[1])
    return means


def group_divergence_loss(fused: Tensor, means: np.ndarray) -> Tensor:
    """Symmetric KL divergence KL(p0 || p1) + KL(p1 || p0) between the pseudo-groups.

    ``means`` is the (2, B) :func:`group_means` of a batch holding both
    pseudo-groups. Each group's fused embeddings are averaged and pushed
    through a softmax, giving one categorical distribution over embedding
    coordinates per group; the two KL terms add up to
    sum (p0 - p1)(log p0 - log p1). Always non-negative, and 0 exactly
    when the two distributions coincide.
    """
    return ad.symmetric_kl(fused, means)


def group_gap_loss(pred: Tensor, labels, means: np.ndarray) -> Tensor:
    """Twice the cross-entropy gap between the pseudo-groups, 2 * |CE0 - CE1|.

    ``means`` is the (2, B) :func:`group_means` of a batch holding both
    pseudo-groups. CE_g is the mean cross-entropy of the rows assigned to
    group g, so the value does not scale with batch size. Invariant to
    swapping the two group ids.
    """
    y = _as_column(labels, pred.values.shape[0], "labels")
    return ad.cross_entropy_gap(pred, y, means, 2.0)


def joint_loss(trace, labels, sensitive, lambda_ifc: float = 0.0, lambda_fc: float = 0.0):
    """Weighted sum of all terms for one forward trace of either model.

    ``lambda_ifc`` and ``lambda_fc`` weight the two fairness terms, each a
    finite number in [0, inf) (else ConfigError); a weight of 0 leaves its
    term out, and a batch with one pseudo-group leaves both penalties out.
    Returns ``(total, breakdown)``: the differentiable scalar to call
    backward on, and a float breakdown for logging, both read from the
    table of terms (see the module docstring).
    """
    for name, weight in (("lambda_ifc", lambda_ifc), ("lambda_fc", lambda_fc)):
        check_number(name, weight, "[0, inf)")
    means = group_means(assign_groups(trace.pseudo_scalar)) if lambda_ifc > 0.0 or lambda_fc > 0.0 else None
    table = [("l0", ce_loss(trace.prediction, labels), 1.0)]
    if lambda_ifc > 0.0 and means is not None:
        table.append(("l_ifc", group_divergence_loss(trace.fused, means), lambda_ifc))
    if lambda_fc > 0.0 and means is not None:
        table.append(("l_fc", group_gap_loss(trace.prediction, labels, means), lambda_fc))
    if trace.pseudo_scalar is not None:
        table.append(("l_sar", reconstruction_loss(trace.pseudo_scalar, sensitive), 1.0))
    _, terms, weights = zip(*table)
    total = terms[0] if len(table) == 1 else ad.weighted_sum(terms, weights)
    return total, LossBreakdown(total=total.item(), **{name: term.item() for name, term, _ in table})
