"""The fair step's output layers and loss terms as chains of separate graph nodes.

This is the graph that the fused ops of ``fairint.autodiff`` replace:
the reconstructor's scalar readout as a matmul and a sigmoid, the
residual fusion as a matmul, an add and a ReLU, each model's sigmoid
head as a linear layer and a sigmoid, and every loss term and the
weighted total as the elementwise ops, matmuls and reductions they are
defined by. The hidden MLP layers, the embedding and the attention are
the model's own. Only tests import this module.

The chain ops live here too, and only here: matmul, add, mul, relu,
sigmoid, log, sum_all and absolute, one graph node each. The library
runs none of them. Each keeps the exact arithmetic that the fused ops
reproduce, so a fused op can be compared with its chain bit for bit;
a difference x - t, for one, is ``add(x, mul(t, -1.0))``.
"""

import numpy as np

import fairint.autodiff as ad
from fairint.autodiff import Tensor
from fairint.losses import LossBreakdown, assign_groups, ce_loss, group_means
from fairint.model import ForwardTrace

_GROUP_DIFFERENCE = Tensor(np.array([[1.0, -1.0]]))


# -- the chain ops, one graph node each ---------------------------------------------


def matmul(a, b):
    return ad._result(a.values @ b.values, (a, b), "matmul", lambda g: (g @ b.values.T, a.values.T @ g))


def add(a, b):
    """a + b of one shape, or an (m, n) ``a`` plus a (n,) bias row ``b``."""
    if a.values.shape == b.values.shape:
        return ad._result(a.values + b.values, (a, b), "add", lambda g: (g, g))
    return ad._result(a.values + b.values, (a, b), "add_bias", lambda g: (g, g.sum(axis=0)))


def mul(a, b):
    """a * b of one shape, or ``a`` times a python float ``b``."""
    if isinstance(b, Tensor):
        return ad._result(a.values * b.values, (a, b), "mul", lambda g: (g * b.values, g * a.values))
    c = float(b)
    return ad._result(a.values * c, (a,), "mul_scalar", lambda g: (g * c,))


def relu(x):
    return ad._result(np.maximum(x.values, 0.0), (x,), "relu", lambda g: (g * (x.values > 0.0),))


def sigmoid(x):
    y = ad._sigmoid(x.values)
    return ad._result(y, (x,), "sigmoid", lambda g: (g * y * (1.0 - y),))


def log(x):
    return ad._result(np.log(x.values), (x,), "log", lambda g: (g / x.values,))


def sum_all(x):
    return ad._result(x.values.sum(), (x,), "sum", lambda g: (np.full_like(x.values, float(g)),))


def absolute(x):
    return ad._result(np.abs(x.values), (x,), "abs", lambda g: (g * np.sign(x.values),))


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
    return ad.mean_all(mul(diff, diff))


def symmetric_kl(x, mix):
    p = ad.softmax_lastdim(matmul(Tensor(mix), x))  # (2, k): row g is p_g
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
    """``FairIntModel.forward`` with the readout, the fusion and the head as op chains."""
    embeddings = model.embed_features(features)
    pseudo = model._run_mlp("sar", embeddings, training, rng)
    scalar = sigmoid(matmul(pseudo, model.params["sar_scalar.w"]))
    attention = [model.bid_attention(pseudo, embeddings, h) for h in range(model.config.attention_heads)]
    interaction = model.interaction_embedding(attention, embeddings)
    fused = relu(add(interaction, matmul(pseudo, model.params["fuse.w_res"])))
    prediction = sigmoid(model._run_mlp("head", fused, training, rng))
    return ForwardTrace(embeddings=embeddings, pseudo_embed=pseudo, pseudo_scalar=scalar, attention=attention,
                        interaction=interaction, fused=fused, prediction=prediction)


def vanilla_forward(model, features, training=False, rng=None):
    """``VanillaModel.forward`` with the sigmoid as its own node."""
    return sigmoid(model._run_mlp("mlp", model.embed_features(features), training, rng))


# -- the loss terms and the joint objective -------------------------------------------


def reconstruction_loss(pseudo_scalar, sensitive):
    return mean_squared_error(pseudo_scalar, np.asarray(sensitive, dtype=np.float64).reshape(-1, 1))


def group_divergence_loss(fused, means):
    return Tensor(0.0) if means is None else symmetric_kl(fused, means)


def group_gap_loss(pred, labels, means):
    if means is None:
        return Tensor(0.0)
    y = np.asarray(labels, dtype=np.float64).reshape(-1, 1)
    return abs_gap(ad.row_cross_entropy(pred, y), means, 2.0)


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
