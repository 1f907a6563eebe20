"""The fair step's attention, output layers and loss terms as chains of separate graph nodes.

This is the graph that the fused ops of ``fairint.autodiff`` replace:
the reconstructor's scalar readout as a matmul and a sigmoid, the
attention as a query matmul, one score per feature and a softmax, the
residual fusion as a matmul, an add and a ReLU, each model's sigmoid
head as a linear layer and a sigmoid, and every loss term and the
weighted total as the elementwise ops, matmuls and reductions they are
defined by. The hidden MLP layers, the embedding and the attention's
pooling are the model's own. Only tests import this module.

The chain ops live here too, and only here: matmul, add, mul, relu,
sigmoid, log, sum_all, absolute, mean_all, softmax_lastdim,
feature_scores and row_cross_entropy, one graph node each. The library
runs none of them. Each keeps the exact arithmetic that the fused ops
reproduce, so a fused op can be compared with its chain bit for bit;
a difference x - t, for one, is ``add(x, mul(t, -1.0))``.
"""

import numpy as np

import fairint.autodiff as ad
from fairint.autodiff import Tensor
from fairint.errors import NumericError, ShapeError, UsageError
from fairint.losses import LossBreakdown, assign_groups, group_means
from fairint.model import ForwardTrace

_GROUP_DIFFERENCE = Tensor(np.array([[1.0, -1.0]]))


# -- the chain ops, one graph node each ---------------------------------------------


def matmul(a, b):
    return ad._result(a.values @ b.values, (a, b), "matmul", lambda g: (g @ b.values.T, a.values.T @ g))


def add(a, b):
    """a + b of one shape, or an (m, n) ``a`` plus a (n,) bias row ``b``. Each parent gets a
    copy of the gradient: ``backward`` adopts the arrays a ``grad_fn`` returns."""
    if a.values.shape == b.values.shape:
        return ad._result(a.values + b.values, (a, b), "add", lambda g: (g.copy(), g.copy()))
    return ad._result(a.values + b.values, (a, b), "add_bias", lambda g: (g.copy(), g.sum(axis=0)))


def mul(a, b):
    """a * b of one shape, or ``a`` times a python float ``b``."""
    if isinstance(b, Tensor):
        return ad._result(a.values * b.values, (a, b), "mul", lambda g: (g * b.values, g * a.values))
    c = float(b)
    return ad._result(a.values * c, (a,), "mul_scalar", lambda g: (g * c,))


def relu(x):
    return ad._result(np.maximum(x.values, 0.0), (x,), "relu", lambda g: (g * (x.values > 0.0),))


def two_branch_sigmoid(v):
    """The logistic function as the library first computed it, one branch per sign of v.

    ``ad._sigmoid`` must equal it bit for bit; ``sigmoid`` below calls
    ``ad._sigmoid``, so this is the reference that pins it.
    """
    y = np.empty_like(v)
    pos = v >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    y[~pos] = ev / (1.0 + ev)
    return y


def sigmoid(x):
    y = ad._sigmoid(x.values)
    return ad._result(y, (x,), "sigmoid", lambda g: (g * y * (1.0 - y),))


def log(x):
    return ad._result(np.log(x.values), (x,), "log", lambda g: (g / x.values,))


def sum_all(x):
    return ad._result(x.values.sum(), (x,), "sum", lambda g: (np.full_like(x.values, float(g)),))


def absolute(x):
    return ad._result(np.abs(x.values), (x,), "abs", lambda g: (g * np.sign(x.values),))


def mean_all(x: Tensor) -> Tensor:
    """Mean of all elements, as a scalar tensor."""
    n = x.values.size
    if n == 0:
        raise UsageError("mean of an empty tensor")
    return ad._result(x.values.mean(), (x,), "mean", lambda g: (np.full_like(x.values, float(g) / n),))


def softmax_lastdim(x: Tensor) -> Tensor:
    """Softmax over the last axis, stabilized by max subtraction."""
    if x.values.ndim < 1 or x.values.shape[-1] < 1:
        raise ShapeError(f"softmax needs a non-empty last axis, got shape {x.values.shape}")
    y = ad._softmax(x.values)
    return ad._result(y, (x,), "softmax", lambda g: (ad._softmax_grad(y, g),))


def feature_scores(blocks: Tensor, proj: Tensor, query: Tensor) -> Tensor:
    """(B, C) scores of (B, C*d) ``blocks`` against (B, k) ``query``:
    out[b, c] = (blocks[b, c] @ proj) . query[b], with ``proj`` (d, k).

    Each score adds its k products in order, from 0.0. For k < 8 that is
    how numpy sums a last axis, so the scores equal ``(keys * q).sum(-1)``
    bit for bit; for k >= 8 numpy sums pairwise, and the two differ by ULPs.
    """
    keys, project_grads = ad._project_blocks(blocks, proj)
    q = query.values
    if q.shape != (keys.shape[0], keys.shape[2]):
        raise ShapeError(f"query shape {q.shape} does not match keys of shape {keys.shape}")
    scores = np.zeros(keys.shape[:2])
    for j in range(keys.shape[2]):  # k adds over (B, C), never a (B, C, k) product
        scores += keys[:, :, j] * q[:, j, None]

    def grad_fn(g):
        return *project_grads(g[:, :, None] * q[:, None, :]), np.einsum("bc,bck->bk", g, keys)

    return ad._result(scores, (blocks, proj, query), "feature_scores", grad_fn)


def row_cross_entropy(pred: Tensor, labels) -> Tensor:
    """Per-row binary cross-entropy -log(pred * (2y - 1) + (1 - y)) of probabilities ``pred``
    against 0/1 ``labels`` of the same shape: -log of the probability given to the right
    class, bit for bit the two-term y * pred + (1 - y) * (1 - pred) inside the log, and
    exactly 0 when the model is confidently correct. NumericError if that probability is
    not positive."""
    y = np.asarray(labels, dtype=np.float64)
    if y.shape != pred.values.shape:
        raise ShapeError(f"labels of shape {y.shape} do not match predictions of shape {pred.values.shape}")
    sign = 2.0 * y - 1.0
    picked = pred.values * sign + (1.0 - y)
    if np.any(picked <= 0.0):
        raise NumericError("log of a non-positive value")
    return ad._result(np.log(picked) * -1.0, (pred,), "row_cross_entropy",
                      lambda g: (((g * -1.0) / picked) * sign,))


# -- the fused ops as chains ---------------------------------------------------------


def dense(x, w, b=None, activation=None, keep=None):
    """``ad.dense`` as matmul, bias or addend, activation and a fixed dropout mask ``keep``."""
    out = matmul(x, w)
    if b is not None:
        out = add(out, b)
    if activation == "relu":
        out = relu(out)
    elif activation == "sigmoid":
        out = sigmoid(out)
    return out if keep is None else mul(out, Tensor(keep))


def mean_squared_error(x, target):
    diff = add(x, mul(Tensor(target), -1.0))
    return mean_all(mul(diff, diff))


def symmetric_kl(x, mix):
    p = softmax_lastdim(matmul(Tensor(mix), x))  # (2, k): row g is p_g
    p_diff, log_ratio = matmul(_GROUP_DIFFERENCE, p), matmul(_GROUP_DIFFERENCE, log(p))
    return sum_all(mul(p_diff, log_ratio))


def abs_gap(x, mix, scale):
    contrast = matmul(_GROUP_DIFFERENCE, Tensor(mix))  # (1, B) row that takes mean 0 - mean 1
    return mul(absolute(sum_all(matmul(contrast, x))), scale)


def weighted_sum(terms, weights):
    total = mul(terms[0], weights[0])
    for term, weight in zip(terms[1:], weights[1:]):
        total = add(total, mul(term, weight))
    return total


# -- the models' forward passes -------------------------------------------------------


def fair_forward(model, features, training=False, rng=None) -> ForwardTrace:
    """``FairIntModel.forward`` with the readout, the attention, the fusion and the head as op chains."""
    embeddings = model.embed_features(features)
    pseudo = model._run_mlp("sar", embeddings, training, rng)
    scalar = sigmoid(matmul(pseudo, model.params["sar_scalar.w"]))
    query = matmul(pseudo, model.params["bid.h0.query"])
    attention = softmax_lastdim(feature_scores(embeddings, model.params["bid.h0.key"], query))
    interaction = model.interaction_embedding(attention, embeddings)
    fused = relu(add(interaction, matmul(pseudo, model.params["fuse.w_res"])))
    prediction = sigmoid(model._run_mlp("head", fused, training, rng))
    return ForwardTrace(prediction, pseudo_scalar=scalar, attention=attention, fused=fused)


def vanilla_forward(model, features, training=False, rng=None) -> ForwardTrace:
    """``VanillaModel.forward`` with the sigmoid as its own node."""
    return ForwardTrace(sigmoid(model._run_mlp("mlp", model.embed_features(features), training, rng)))


# -- the loss terms and the joint objective -------------------------------------------


def _column(values):
    return np.asarray(values, dtype=np.float64).reshape(-1, 1)


def ce_loss(pred, labels):
    return mean_all(row_cross_entropy(pred, _column(labels)))


def reconstruction_loss(pseudo_scalar, sensitive):
    return mean_squared_error(pseudo_scalar, _column(sensitive))


def group_divergence_loss(fused, means):
    return Tensor(0.0) if means is None else symmetric_kl(fused, means)


def group_gap_loss(pred, labels, means):
    if means is None:
        return Tensor(0.0)
    return abs_gap(row_cross_entropy(pred, _column(labels)), means, 2.0)


def joint_loss(trace, labels, sensitive, lambda_ifc=0.0, lambda_fc=0.0):
    """``losses.joint_loss`` as a chain of adds and scalar products; same ``(total, breakdown)``."""
    l0 = ce_loss(trace.prediction, labels)
    l_sar = reconstruction_loss(trace.pseudo_scalar, sensitive)
    groups = assign_groups(trace.pseudo_scalar)

    total = l0
    l_ifc_value = 0.0
    if lambda_ifc > 0.0:
        l_ifc = group_divergence_loss(trace.fused, group_means(groups))
        total = add(total, mul(l_ifc, lambda_ifc))
        l_ifc_value = l_ifc.item()
    l_fc_value = 0.0
    if lambda_fc > 0.0:
        l_fc = group_gap_loss(trace.prediction, labels, group_means(groups))
        total = add(total, mul(l_fc, lambda_fc))
        l_fc_value = l_fc.item()
    total = add(total, l_sar)
    breakdown = LossBreakdown(l0=l0.item(), l_sar=l_sar.item(), l_ifc=l_ifc_value, l_fc=l_fc_value,
                              total=total.item())
    return total, breakdown
