"""Loss terms and the joint training objective.

The joint objective combines four pieces:

  l0     task cross-entropy on the label
  l_sar  squared error of the reconstructed sensitive probability
  l_ifc  KL(p0 || p1) + KL(p1 || p0) = sum (p0 - p1)(log p0 - log p1)
         between the two pseudo-groups' fused-embedding distributions
  l_fc   2 * |CE0 - CE1|, the gap between the two pseudo-groups' mean
         cross-entropies

weighted as ``total = l0 + lambda_ifc * l_ifc + lambda_fc * l_fc + l_sar``.
Group membership everywhere comes from the reconstructed probability, not
the true sensitive column, so the fairness pressure works even where the
sensitive attribute is unavailable at inference time. The sensitive
attribute is binary, so there are exactly two pseudo-groups, 0 and 1. Both
penalties read one constant (2, B) group-mean matrix M, whose row g averages
the rows of group g; a batch with one group adds 0 to both penalties.

A weight of exactly 0 skips its term entirely: the term is not evaluated
and contributes no graph nodes, which keeps training dynamics bitwise
identical to a run where the term does not exist.
"""

from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ShapeError, UsageError
from .metrics import threshold_labels

__all__ = [
    "LossWeights",
    "LossBreakdown",
    "ce_loss",
    "reconstruction_loss",
    "assign_groups",
    "group_divergence_loss",
    "group_gap_loss",
    "joint_loss",
]


@dataclass(frozen=True)
class LossWeights:
    """Non-negative weights for the two fairness terms."""

    lambda_ifc: float = 0.0
    lambda_fc: float = 0.0

    def __post_init__(self):
        if self.lambda_ifc < 0 or self.lambda_fc < 0:
            raise ConfigError(
                f"loss weights must be non-negative, got ({self.lambda_ifc}, {self.lambda_fc})"
            )


@dataclass(frozen=True)
class LossBreakdown:
    """Float values of every term plus the weighted total for one batch."""

    l0: float
    l_sar: float
    l_ifc: float
    l_fc: float
    total: float

    def as_dict(self) -> dict:
        return asdict(self)


def _as_column(values, n: int, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64).reshape(-1, 1)
    if arr.shape[0] != n:
        raise ShapeError(f"{what} has {arr.shape[0]} rows, expected {n}")
    return arr


def ce_loss(pred: Tensor, labels) -> Tensor:
    """Mean binary cross-entropy; ``pred`` holds probabilities in (0, 1)."""
    n = pred.values.shape[0]
    if n == 0:
        raise UsageError("cross entropy of an empty batch")
    return ad.mean_all(ad.row_cross_entropy(pred, _as_column(labels, n, "labels")))


def reconstruction_loss(pseudo_scalar: Tensor, sensitive) -> Tensor:
    """Mean squared error between reconstructed probability and true group."""
    n = pseudo_scalar.values.shape[0]
    if n == 0:
        raise UsageError("reconstruction loss of an empty batch")
    diff = pseudo_scalar - Tensor(_as_column(sensitive, n, "sensitive values"))
    return ad.mean_all(diff * diff)


def assign_groups(pseudo_scalar) -> np.ndarray:
    """Threshold reconstructed probabilities into group ids.

    The rule is :func:`metrics.threshold_labels` at 0.5, the one SAR
    accuracy scores, so the two cannot drift apart. A probability of
    exactly 0.5 (the expected value of a balanced binary attribute) goes
    to group 1; everything below goes to group 0.
    """
    return threshold_labels(pseudo_scalar.values if isinstance(pseudo_scalar, Tensor) else pseudo_scalar)


_GROUP_DIFFERENCE = Tensor(np.array([[1.0, -1.0]]))


def _group_means(groups) -> Tensor | None:
    """Constant (2, B) matrix whose rows average pseudo-groups 0 and 1; None if one is empty."""
    groups = np.asarray(groups).reshape(-1)
    members = np.stack([groups == 0, groups == 1])
    if not members.any(axis=0).all():
        raise UsageError(f"group ids must be 0 or 1, got {np.unique(groups).tolist()}")
    counts = members.sum(axis=1, keepdims=True)
    if not counts.all():
        return None
    return Tensor(members / counts)


def group_divergence_loss(fused: Tensor, groups: np.ndarray) -> Tensor:
    """Symmetric KL divergence KL(p0 || p1) + KL(p1 || p0) between the pseudo-groups.

    Each group's fused embeddings are averaged and pushed through a
    softmax, giving one categorical distribution over embedding
    coordinates per group; the two KL terms add up to
    sum (p0 - p1)(log p0 - log p1). A batch whose rows all fall into one
    group contributes 0. Always non-negative, and 0 exactly when the two
    distributions coincide.
    """
    means = _group_means(groups)
    if means is None:
        return Tensor(0.0)
    p = ad.softmax_lastdim(ad.matmul(means, fused))  # (2, k): row g is p_g
    p_diff, log_ratio = ad.matmul(_GROUP_DIFFERENCE, p), ad.matmul(_GROUP_DIFFERENCE, ad.log(p))
    return ad.sum_all(p_diff * log_ratio)


def group_gap_loss(pred: Tensor, labels, groups: np.ndarray) -> Tensor:
    """Twice the cross-entropy gap between the pseudo-groups, 2 * |CE0 - CE1|.

    CE_g is the mean cross-entropy of the rows assigned to group g, so
    the value does not scale with batch size. A batch whose rows all
    fall into one group contributes 0. Invariant to swapping the two
    group ids.
    """
    y = _as_column(labels, pred.values.shape[0], "labels")
    means = _group_means(groups)
    if means is None:
        return Tensor(0.0)
    contrast = ad.matmul(_GROUP_DIFFERENCE, means)  # (1, B) row that takes CE0 - CE1
    return ad.sum_all(ad.matmul(contrast, ad.row_cross_entropy(pred, y))).abs() * 2.0


def joint_loss(trace, labels, sensitive, weights: LossWeights):
    """Weighted sum of all terms for one forward trace.

    Returns ``(total, breakdown)``: the differentiable scalar to call
    backward on, and a float breakdown for logging. Terms whose weight is
    0 are skipped, never evaluated, and reported as 0.0.
    """
    l0 = ce_loss(trace.prediction, labels)
    l_sar = reconstruction_loss(trace.pseudo_scalar, sensitive)
    groups = assign_groups(trace.pseudo_scalar)

    total = l0
    l_ifc_value = 0.0
    if weights.lambda_ifc > 0.0:
        l_ifc = group_divergence_loss(trace.fused, groups)
        total = total + l_ifc * weights.lambda_ifc
        l_ifc_value = l_ifc.item()
    l_fc_value = 0.0
    if weights.lambda_fc > 0.0:
        l_fc = group_gap_loss(trace.prediction, labels, groups)
        total = total + l_fc * weights.lambda_fc
        l_fc_value = l_fc.item()
    total = total + l_sar

    breakdown = LossBreakdown(
        l0=l0.item(),
        l_sar=l_sar.item(),
        l_ifc=l_ifc_value,
        l_fc=l_fc_value,
        total=total.item(),
    )
    return total, breakdown
