"""Dense f64 tensors with reverse-mode automatic differentiation.

Every model and loss in this package is built from the operations here,
and every operation here is one that a model or a loss calls. Tensors
wrap a row-major numpy float64 buffer; operations on tracked tensors
record their inputs and a gradient function, so calling :func:`backward`
on a scalar result fills in ``grad`` buffers for every tracked tensor
that contributed to it.

Each operation hands its result to ``_result`` with a ``grad_fn``:
given d(root)/d(result), ``grad_fn`` returns one gradient per parent, in
the order of the parents. It may hold on to the parents and to arrays,
but never to the result itself, so a graph has no reference cycles and
is freed as soon as its root is dropped. :func:`backward` is the only
place that adds gradients into tensors. Inside a :func:`no_grad` block
no operation records anything, which is how eval forwards run.

A model keeps its parameters back to back, in the order it added them,
in one flat float64 values buffer and one grad buffer
(:func:`pack_parameters`). Its ``params`` maps each name to a tracked
tensor whose ``values`` and ``grad`` are C-contiguous views into them.
Every write to either buffer happens in place, for the life of the
model. :func:`backward` adds into a grad already set, so a training step
zeroes the grad buffer first.

The operations, each one graph node:

- the embedding lookup, :func:`gather_scale`;
- :func:`dense`, one layer: ``x @ w``, plus a bias row or a tracked
  addend, then an optional ReLU or sigmoid and optional inverted
  dropout; it covers every MLP layer, the reconstructor's scalar
  readout, the residual fusion and the fair model's one-layer predictor;
- the attention: :func:`feature_attention` (query, one score per
  feature, softmax over the features) and :func:`feature_pool`;
- the losses: :func:`cross_entropy` (mean binary cross-entropy of
  probabilities against 0/1 labels), :func:`cross_entropy_gap` (the
  absolute gap between two groups' mean cross-entropies),
  :func:`mean_squared_error`, :func:`symmetric_kl` (between the
  softmaxes of two group means) and :func:`weighted_sum` (the weighted
  total).

The layer, attention and loss ops are fused: each one's backward runs
the arithmetic of the chain of elementwise ops, matmuls and reductions
it replaces, in the same order, so values and gradients come out bit for
bit as they would from the separate ops. Those chains are kept only as
the tests' reference.

Any operation that produces NaN or Inf from finite inputs, or would take
the log of a non-positive value, raises
:class:`~fairint.errors.NumericError` immediately; nothing non-finite is
ever propagated silently. A fused op checks its intermediate results too
where a later step could hide a non-finite value: :func:`dense` checks
the pre-activation as well as its output, since ReLU turns a ``-inf``
pre-activation into 0 and a sigmoid turns ``inf`` into 1, and
:func:`feature_attention` checks its scores and :func:`symmetric_kl` its
group means before their softmax.

:func:`backward` adopts the first gradient it receives for a tensor as
that tensor's ``grad`` and adds any later one into it in place. So a
``grad_fn`` returns arrays that no tensor holds yet: new arrays, never
the gradient it was handed or an array it keeps.
"""

import contextlib
import json
import math
import struct
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError, NumericError, ShapeError, UsageError, located

__all__ = [
    "Tensor",
    "feature_attention",
    "feature_pool",
    "gather_scale",
    "dense",
    "cross_entropy",
    "cross_entropy_gap",
    "mean_squared_error",
    "symmetric_kl",
    "weighted_sum",
    "backward",
    "graph_nodes",
    "no_grad",
    "pack_parameters",
    "save_parameters",
    "load_parameters",
]


class Tensor:
    """A dense float64 array, optionally participating in a gradient graph.

    ``grad_tracked`` tensors remember the operation and inputs that made
    them; after :func:`backward` their ``grad`` holds d(root)/d(self).
    Untracked tensors are plain immutable values and record nothing.
    """

    __slots__ = ("values", "grad_tracked", "grad", "_parents", "_backward", "op")

    def __init__(self, values, grad_tracked: bool = False, grad=None):
        v = np.asarray(values, dtype=np.float64)
        if not v.flags["C_CONTIGUOUS"]:
            v = np.ascontiguousarray(v)
        self.values = v
        self.grad_tracked = bool(grad_tracked)
        self.grad = grad
        self._parents = ()
        self._backward = None
        self.op = "leaf"

    @property
    def shape(self) -> tuple:
        return self.values.shape

    def item(self) -> float:
        if self.values.size != 1:
            raise UsageError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.values.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.values.shape}, op={self.op!r}, tracked={self.grad_tracked})"


def pack_parameters(arrays: dict) -> tuple[np.ndarray, np.ndarray, dict]:
    """Copy named arrays, in order, into one flat values buffer. Returns that buffer, a
    zeroed grad buffer of its size, and ``params``: name -> tracked tensor viewing both."""
    values = np.concatenate([np.asarray(a, dtype=np.float64).reshape(-1) for a in arrays.values()])
    grads = np.zeros_like(values)
    params, start = {}, 0
    for name, a in arrays.items():
        part, shape = slice(start, start + np.size(a)), np.shape(a)
        params[name] = Tensor(values[part].reshape(shape), grad_tracked=True, grad=grads[part].reshape(shape))
        start = part.stop
    return values, grads, params


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Within this block, operations record no graph: every result is untracked."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


def _all_finite(v: np.ndarray) -> bool:
    # a sum is finite only if every value is; a finite array whose sum overflows takes the full test
    return math.isfinite(np.add.reduce(v, axis=None)) or bool(np.isfinite(v).all())


def _result(values, parents: tuple, op: str, grad_fn) -> Tensor:
    # every op hands over a new C-contiguous float64 array of its own, or a float64
    # scalar, so the tensor takes it as it is, without Tensor()'s conversions
    v = np.asarray(values)
    if not _all_finite(v):
        raise NumericError(f"operation {op!r} produced non-finite values")
    out = Tensor.__new__(Tensor)
    out.values, out.grad, out.op = v, None, op
    if _grad_enabled and any([p.grad_tracked for p in parents]):
        out.grad_tracked, out._parents, out._backward = True, parents, grad_fn
    else:
        out.grad_tracked, out._parents, out._backward = False, (), None
    return out


def _sigmoid(v: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-v) for v >= 0 and e^v / (1 + e^v) below, with no branch: exp never overflows
    e = np.exp(-np.abs(v))
    return np.where(v >= 0, 1.0, e) / (1.0 + e)


def _softmax(v: np.ndarray) -> np.ndarray:
    e = np.exp(v - v.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_grad(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    return y * (g - (g * y).sum(axis=-1, keepdims=True))


def _project_blocks(blocks: Tensor, proj: Tensor):
    """Products of the C width-d blocks of (B, C*d) ``blocks`` with (d, k) ``proj``, as (B, C, k),
    and the map from their gradient to the gradients of ``blocks`` and ``proj``."""
    x, w = blocks.values, proj.values
    if x.ndim != 2 or w.ndim != 2 or not 0 < w.shape[0] <= x.shape[1] or x.shape[1] % w.shape[0]:
        raise ShapeError(f"cannot cut shape {x.shape} into blocks for a projection of shape {w.shape}")
    rows = x.reshape(-1, w.shape[0])  # one row per (batch row, block)

    def project_grads(g):
        g_rows = g.reshape(-1, w.shape[1])
        return (g_rows @ w.T).reshape(x.shape), rows.T @ g_rows

    return (rows @ w).reshape(x.shape[0], -1, w.shape[1]), project_grads


def feature_attention(blocks: Tensor, key: Tensor, source: Tensor, query: Tensor) -> Tensor:
    """(B, C) softmax over the features of one score per width-d block of (B, C*d) ``blocks``:
    score[b, c] = (blocks[b, c] @ key) . q[b], with ``key`` (d, k) and the query
    q = (B, m) ``source`` @ (m, k) ``query``.

    Each score adds its k products in order, from 0.0. For k < 8 that is
    how numpy sums a last axis, so the scores equal ``(keys * q).sum(-1)``
    bit for bit; for k >= 8 numpy sums pairwise, and the two differ by ULPs.
    """
    keys, project_grads = _project_blocks(blocks, key)
    sv, qw = source.values, query.values
    if (sv.ndim != 2 or qw.ndim != 2 or sv.shape[1] != qw.shape[0]
            or (len(sv), qw.shape[1]) != (len(keys), keys.shape[2])):
        raise ShapeError(f"query {sv.shape} @ {qw.shape} does not match keys of shape {keys.shape}")
    q = sv @ qw
    scores = np.zeros(keys.shape[:2])
    for j in range(keys.shape[2]):  # k adds over (B, C), never a (B, C, k) product
        scores += keys[:, :, j] * q[:, j, None]
    if not _all_finite(scores):
        raise NumericError("operation 'feature_attention' produced non-finite values before its softmax")
    y = _softmax(scores)

    def grad_fn(g):
        g_scores = _softmax_grad(y, g)
        g_q = np.einsum("bc,bck->bk", g_scores, keys)
        return *project_grads(g_scores[:, :, None] * q[:, None, :]), g_q @ qw.T, sv.T @ g_q

    return _result(y, (blocks, key, source, query), "feature_attention", grad_fn)


def feature_pool(blocks: Tensor, proj: Tensor, weights: Tensor) -> Tensor:
    """(B, k) weighted sum of the projected blocks of (B, C*d) ``blocks``:
    out[b] = sum_c weights[b, c] * (blocks[b, c] @ proj), with ``proj`` (d, k)."""
    values, project_grads = _project_blocks(blocks, proj)
    w = weights.values
    if w.shape != values.shape[:2]:
        raise ShapeError(f"weights shape {w.shape} does not match values of shape {values.shape}")

    def grad_fn(g):
        return *project_grads(w[:, :, None] * g[:, None, :]), np.einsum("bk,bck->bc", g, values)

    # einsum adds the features up in order, as a loop over them would
    return _result(np.einsum("bc,bck->bk", w, values), (blocks, proj, weights), "feature_pool", grad_fn)


def gather_scale(source: Tensor, index, scale) -> Tensor:
    """(B, K) elements of ``source`` at the flat positions of (B, K) integer ``index``,
    each row cut into J equal blocks scaled by the matching entry of (B, J) ``scale``;
    backward adds each gradient times its scale into the element it was read from."""
    flat = source.values.reshape(-1)
    idx = np.asarray(index)
    s = np.asarray(scale, dtype=np.float64)
    if idx.ndim != 2 or s.ndim != 2 or len(s) != len(idx) or not s.shape[1] or idx.shape[1] % s.shape[1]:
        raise ShapeError(f"cannot cut index of shape {idx.shape} into blocks for scale of shape {s.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= flat.size):
        raise DataError(f"index out of range [0, {flat.size}) in gather")
    out = flat[idx]
    blocks = (len(idx), s.shape[1], idx.shape[1] // s.shape[1])
    out.reshape(blocks)[...] *= s[:, :, None]

    def grad_fn(g):
        weights = (g.reshape(blocks) * s[:, :, None]).reshape(-1)
        return (np.bincount(idx.reshape(-1), weights=weights, minlength=flat.size).reshape(source.values.shape),)

    return _result(out, (source,), "gather_scale", grad_fn)


_ACTIVATIONS = (None, "relu", "sigmoid")


def dense(x: Tensor, w: Tensor, b: Tensor | None = None, activation: str | None = None,
          rate: float = 0.0, rng=None) -> Tensor:
    """One layer: (m, k) ``x`` @ (k, n) ``w``, plus ``b`` if given, either a (n,) bias row
    or an (m, n) addend; then ``activation`` (None, "relu" or "sigmoid"); then inverted
    dropout at ``rate``: zero with probability ``rate``, scale survivors by 1/(1-rate).
    Dropout draws ``rng.random`` once, in the output's shape; at rate 0 it draws nothing
    and needs no generator."""
    if not (0.0 <= rate < 1.0):
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if activation not in _ACTIVATIONS:
        raise UsageError(f"activation must be one of {_ACTIVATIONS}, got {activation!r}")
    xv, wv = x.values, w.values
    bv = None if b is None else b.values
    if (xv.ndim != 2 or wv.ndim != 2 or xv.shape[1] != wv.shape[0]
            or bv is not None and bv.shape not in (wv.shape[1:], (xv.shape[0], wv.shape[1]))):
        raise ShapeError(f"dense cannot combine shapes {xv.shape}, {wv.shape} and {None if bv is None else bv.shape}")
    out = xv @ wv
    if bv is not None:
        out += bv
    if activation is not None and not _all_finite(out):
        raise NumericError("operation 'dense' produced non-finite values before its activation")
    mask = y = None  # backward multiplies the gradient by ``mask``, then by the sigmoid's slope
    if activation == "relu":
        np.maximum(out, 0.0, out=out)  # in place: ``out`` is this op's own product
        if _grad_enabled:  # the mask is for backward alone; max(z, 0) > 0 exactly where z > 0
            mask = out > 0.0
    elif activation == "sigmoid":
        out = y = _sigmoid(out)
    if rate > 0.0:
        if rng is None:
            raise UsageError(f"dropout at rate {rate} needs a generator")
        keep = (rng.random(out.shape) >= rate) / (1.0 - rate)
        if y is None:
            out *= keep  # in place: ``out`` is this op's own product
        else:
            out = y * keep  # backward reads y
        # keep >= 0, so g * (keep * active) has the bits of (g * keep) * active
        mask = keep if mask is None else np.multiply(keep, mask, out=keep)

    def grad_fn(g_out):
        g = g_out if mask is None else g_out * mask
        if y is not None:
            g = g * y * (1.0 - y)
        if bv is None:
            return g @ wv.T, xv.T @ g
        # an addend's gradient is g itself: a copy, unless g is already this call's own array
        return g @ wv.T, xv.T @ g, g.sum(axis=0) if bv.ndim == 1 else g.copy() if g is g_out else g

    return _result(out, (x, w) if b is None else (x, w, b), "dense", grad_fn)


def _row_cross_entropy(pred: Tensor, labels):
    """Per-row binary cross-entropy -log(pred * (2y - 1) + (1 - y)) of probabilities ``pred``
    against 0/1 ``labels`` of the same shape: -log of the probability given to the right
    class, bit for bit the two-term y * pred + (1 - y) * (1 - pred) inside the log, and
    exactly 0 when the model is confidently correct. Returns it and the map from its
    gradient to pred's. NumericError if that probability is not positive."""
    y = np.asarray(labels, dtype=np.float64)
    if y.shape != pred.values.shape:
        raise ShapeError(f"labels of shape {y.shape} do not match predictions of shape {pred.values.shape}")
    sign = 2.0 * y - 1.0
    picked = pred.values * sign + (1.0 - y)
    if np.any(picked <= 0.0):
        raise NumericError("log of a non-positive value")
    return np.log(picked) * -1.0, lambda g: ((g * -1.0) / picked) * sign


def cross_entropy(pred: Tensor, labels) -> Tensor:
    """Mean binary cross-entropy of probabilities ``pred`` against 0/1 ``labels`` of its shape."""
    ce, ce_grad = _row_cross_entropy(pred, labels)
    n = ce.size
    if n == 0:
        raise UsageError("cross entropy of an empty batch")
    return _result(ce.mean(), (pred,), "cross_entropy", lambda g: (ce_grad(np.full_like(ce, float(g) / n)),))


def mean_squared_error(x: Tensor, target) -> Tensor:
    """Mean of (x - target)^2 over all elements, against a constant ``target`` of x's shape."""
    t = np.asarray(target, dtype=np.float64)
    if t.shape != x.values.shape:
        raise ShapeError(f"target of shape {t.shape} does not match {x.values.shape}")
    n = x.values.size
    if n == 0:
        raise UsageError("mean of an empty tensor")
    diff = x.values + t * -1.0

    def grad_fn(g):
        per_factor = np.full_like(diff, float(g) / n) * diff  # diff * diff reaches diff once per factor
        return (per_factor + per_factor,)

    return _result((diff * diff).mean(), (x,), "mean_squared_error", grad_fn)


_PAIR_DIFFERENCE = np.array([[1.0, -1.0]])  # (1, 2): row 0 minus row 1, as a product


def _two_row_mix(x: Tensor, mix, op: str) -> tuple[np.ndarray, np.ndarray]:
    """``mix`` as a (2, B) float array and the values of (B, k) ``x``; ShapeError otherwise."""
    m, xv = np.asarray(mix, dtype=np.float64), x.values
    if m.ndim != 2 or xv.ndim != 2 or m.shape != (2, xv.shape[0]):
        raise ShapeError(f"{op} cannot mix shape {xv.shape} with weights of shape {m.shape}")
    return m, xv


def symmetric_kl(x: Tensor, mix) -> Tensor:
    """KL(p0 || p1) + KL(p1 || p0) = sum (p0 - p1)(log p0 - log p1), where p0 and p1 are
    the softmaxes of the two rows of constant (2, B) ``mix`` @ (B, k) ``x``. NumericError
    if a probability underflows to 0."""
    m, xv = _two_row_mix(x, mix, "symmetric_kl")
    logits = m @ xv
    if not _all_finite(logits):
        raise NumericError("operation 'symmetric_kl' produced non-finite values before its softmax")
    p = _softmax(logits)
    if np.any(p <= 0.0):
        raise NumericError("log of a non-positive value")
    p_diff, log_ratio = _PAIR_DIFFERENCE @ p, _PAIR_DIFFERENCE @ np.log(p)
    terms = p_diff * log_ratio

    def grad_fn(g):
        g_terms = np.full_like(terms, float(g))
        g_p = (_PAIR_DIFFERENCE.T @ (g_terms * p_diff)) / p
        g_p += _PAIR_DIFFERENCE.T @ (g_terms * log_ratio)
        return (m.T @ _softmax_grad(p, g_p),)

    return _result(terms.sum(), (x,), "symmetric_kl", grad_fn)


def cross_entropy_gap(pred: Tensor, labels, mix, scale: float) -> Tensor:
    """``scale`` * |sum of (mix[0] - mix[1]) @ ce| for the per-row binary cross-entropies
    ce of (B, 1) probabilities ``pred`` against 0/1 ``labels`` and constant (2, B) ``mix``:
    the absolute gap between two weighted means of the rows' cross-entropies."""
    m, _ = _two_row_mix(pred, mix, "cross_entropy_gap")
    ce, ce_grad = _row_cross_entropy(pred, labels)
    contrast = _PAIR_DIFFERENCE @ m
    gap = contrast @ ce
    total = np.asarray(gap.sum())

    def grad_fn(g):
        return (ce_grad(contrast.T @ np.full_like(gap, float(g * scale * np.sign(total)))),)

    return _result(np.abs(total) * scale, (pred,), "cross_entropy_gap", grad_fn)


def weighted_sum(terms: Sequence[Tensor], weights: Sequence[float]) -> Tensor:
    """Sum of weights[i] * terms[i] over same-shaped tensors, added left to right."""
    if not terms or len(terms) != len(weights):
        raise UsageError(f"weighted_sum needs one weight per term, got {len(terms)} terms and {len(weights)} weights")
    if any(t.values.shape != terms[0].values.shape for t in terms):
        raise ShapeError(f"cannot add shapes {[t.values.shape for t in terms]}")
    total = terms[0].values * weights[0]
    for t, c in zip(terms[1:], weights[1:]):
        total = total + t.values * c
    return _result(total, terms, "weighted_sum", lambda g: [g * c for c in weights])


def graph_nodes(root: Tensor) -> list:
    """Tracked nodes reachable from ``root``, in topological order.

    Every node appears after all of its tracked inputs; the list is the
    evaluation order the backward pass walks in reverse.
    """
    topo = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if node in visited:  # a tensor hashes and compares by identity
            continue
        visited.add(node)
        stack.append((node, True))
        for parent in reversed(node._parents):
            if parent.grad_tracked and parent not in visited:
                stack.append((parent, False))
    return topo


def backward(root: Tensor) -> None:
    """Add d(root)/d(t) into the grad of every tracked tensor t feeding ``root``.

    ``root`` must hold a single element. A grad already set, such as a
    parameter's view into its grad buffer, is added to in place.
    """
    if root.values.size != 1:
        raise UsageError(f"backward root must be scalar, got shape {root.values.shape}")
    if not root.grad_tracked:
        return
    order = graph_nodes(root)
    root.grad = np.ones_like(root.values)
    for node in reversed(order):
        if node._backward is not None:
            for parent, g in zip(node._parents, node._backward(node.grad)):
                if not parent.grad_tracked:
                    continue
                if parent.grad is None:
                    parent.grad = np.asarray(g)  # a new array: see the module docstring
                else:
                    parent.grad += g


# -- parameter serialization -------------------------------------------------
#
# Binary model-file layout (all integers little-endian, version 1):
#
#   magic   8 bytes  b"FAIRINTM"
#   u32     format version (1)
#   u32     metadata length M
#   M bytes UTF-8 JSON metadata object
#   u32     record count R
#   then R records, each:
#     u32     name length L, then L bytes of UTF-8 name
#     u32     ndim, then ndim x u64 extents
#     f64 x prod(extents), little-endian, row-major
#
# Round-trips are bit-exact: buffers are written raw.

_MAGIC = b"FAIRINTM"
_VERSION = 1


def save_parameters(path, arrays: dict, metadata: dict | None = None) -> None:
    """Write a name -> f64 array mapping plus a JSON metadata object to ``path``."""
    items = [(str(k), np.asarray(v, dtype=np.float64)) for k, v in arrays.items()]
    meta_bytes = json.dumps(metadata or {}, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", _VERSION))
        fh.write(struct.pack("<I", len(meta_bytes)))
        fh.write(meta_bytes)
        fh.write(struct.pack("<I", len(items)))
        for name, arr in items:
            nb = name.encode("utf-8")
            fh.write(struct.pack("<I", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<I", arr.ndim))
            for extent in arr.shape:
                fh.write(struct.pack("<Q", extent))
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_parameters(path) -> tuple[dict, dict]:
    """Read a file written by :func:`save_parameters`.

    Returns ``(arrays, metadata)`` with arrays keyed by name in file order.
    Any length or extent that runs past the end of the file, a shape numpy
    cannot represent, trailing bytes, metadata that is not a JSON object,
    or a parameter holding NaN or Inf raise DataError.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    with located(path):
        if raw[:8] != _MAGIC:
            raise DataError("not a fairint model file")
        off = 8

        def take(size: int, what: str) -> bytes:
            nonlocal off
            if size > len(raw) - off:
                raise DataError(f"model file is truncated inside {what}")
            off += size
            return raw[off - size : off]

        def u32(what: str) -> int:
            return struct.unpack("<I", take(4, what))[0]

        version = u32("the header")
        if version != _VERSION:
            raise DataError(f"unsupported model file version {version}")
        mlen = u32("the header")
        try:
            metadata = json.loads(take(mlen, "the metadata").decode("utf-8"))
        except ValueError as exc:  # not UTF-8, not JSON, or an integer too long to convert
            raise DataError(f"model file metadata is not valid JSON: {exc}") from None
        if not isinstance(metadata, dict):
            raise DataError("model file metadata is not a JSON object")
        count = u32("the record count")
        arrays: dict[str, np.ndarray] = {}
        for i in range(count):
            what = f"parameter record {i}"
            try:
                name = take(u32(what), what).decode("utf-8")
            except UnicodeDecodeError:
                raise DataError(f"{what} has a name that is not UTF-8") from None
            if name in arrays:
                raise DataError(f"duplicate parameter name {name!r}")
            ndim = u32(what)
            shape = struct.unpack(f"<{ndim}Q", take(8 * ndim, what))
            data = take(8 * math.prod(shape), what)
            try:
                arrays[name] = np.frombuffer(data, dtype="<f8").reshape(shape).copy()
            except ValueError:  # a size-0 shape whose extents numpy cannot represent
                raise DataError(f"{what} has a shape numpy cannot represent: {shape}") from None
            if not np.isfinite(arrays[name]).all():
                raise DataError(f"parameter {name!r} holds non-finite values")
        if off != len(raw):
            raise DataError(f"model file has {len(raw) - off} trailing bytes")
        return arrays, metadata
