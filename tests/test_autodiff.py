"""Gradient and serialization tests for the autodiff layer.

Every differentiable operation is checked against central finite
differences (h = 1e-5, relative error < 1e-4) at several random points,
each fused op also bit for bit against its chain of separate ops in
``graph_oracle``. Those chain ops are the reference, so they get the
same finite-difference checks. Inputs for the kinks of relu, absolute
and the cross-entropy gap are kept away from 0 so the numeric derivative
is well defined.
"""

import gc
import tracemalloc

import numpy as np
import pytest

import fairint.autodiff as ad
import graph_oracle
from graph_oracle import (absolute, add, feature_scores, log, matmul, mean_all, mul, relu, row_cross_entropy,
                          sigmoid, softmax_lastdim, sum_all)
from fairint.autodiff import (
    Tensor,
    backward,
    cross_entropy,
    cross_entropy_gap,
    dense,
    feature_attention,
    feature_pool,
    gather_scale,
    graph_nodes,
    load_parameters,
    mean_squared_error,
    no_grad,
    pack_parameters,
    save_parameters,
    symmetric_kl,
    weighted_sum,
)
from fairint.errors import (
    ConfigError,
    DataError,
    NumericError,
    ShapeError,
    UsageError,
)
from fairint.data import FeatureColumn, batches, split, synth_generate
from fairint.losses import group_means, joint_loss
from fairint.model import FairIntModel, ModelConfig, VanillaModel
from fairint.training import evaluate_model

H = 1e-5
TOL = 1e-4


def numeric_grads(fval, arrays, h=H):
    """Central-difference gradients of a scalar function of several arrays."""
    grads = []
    for k, base in enumerate(arrays):
        g = np.zeros_like(base)
        for i in range(base.size):
            plus = [a.copy() for a in arrays]
            minus = [a.copy() for a in arrays]
            plus[k].reshape(-1)[i] += h
            minus[k].reshape(-1)[i] -= h
            g.reshape(-1)[i] = (fval(plus) - fval(minus)) / (2 * h)
        grads.append(g)
    return grads


def check_gradients(build, arrays, tol=TOL):
    """Compare backward() against finite differences for each input array."""
    xs = [Tensor(a.copy(), grad_tracked=True) for a in arrays]
    root = build(xs)
    backward(root)
    analytic = [x.grad.copy() for x in xs]

    def fval(raw):
        return build([Tensor(a) for a in raw]).item()

    numeric = numeric_grads(fval, arrays)
    for got, want in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(got), np.abs(want)), 1e-6)
        rel = np.abs(got - want) / denom
        assert rel.max() < tol, f"max relative error {rel.max():.3e}"


SEEDS = [0, 1, 2, 3, 4]


# -- forward oracles ----------------------------------------------------------


def test_softmax_known_values():
    # softmax([ln 2, 0]) = [2/3, 1/3]
    out = softmax_lastdim(Tensor([np.log(2.0), 0.0]))
    np.testing.assert_allclose(out.values, [2.0 / 3.0, 1.0 / 3.0], rtol=0, atol=1e-12)
    assert abs(out.values.sum() - 1.0) < 1e-12


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(7)
    out = softmax_lastdim(Tensor(rng.standard_normal((6, 9)) * 10))
    np.testing.assert_allclose(out.values.sum(axis=-1), 1.0, atol=1e-12)


def test_feature_attention_known_values():
    # two width-1 blocks scored by the query 1 * 1: scores [ln 2, 0], weights [2/3, 1/3]
    one = Tensor([[1.0]])
    out = feature_attention(Tensor([[np.log(2.0), 0.0]]), one, one, one)
    np.testing.assert_allclose(out.values, [[2.0 / 3.0, 1.0 / 3.0]], rtol=0, atol=1e-12)
    rng = np.random.default_rng(7)
    out = feature_attention(*(Tensor(rng.standard_normal(shape) * 3) for shape in [(6, 10), (2, 4), (6, 3), (3, 4)]))
    assert out.shape == (6, 5)
    np.testing.assert_allclose(out.values.sum(axis=-1), 1.0, atol=1e-12)


def test_sigmoid_is_stable_at_extremes():
    out = dense(Tensor([[-500.0], [0.0], [500.0]]), Tensor([[1.0]]), activation="sigmoid").values[:, 0]
    assert np.all(np.isfinite(out))
    assert out[0] >= 0.0 and out[2] <= 1.0
    assert out[1] == 0.5


SIGMOID_EDGES = [0.0, -0.0, 5e-324, -5e-324, 709.8, -709.8, -745.2, -746.0, 1e308, -1e308]


def test_sigmoid_equals_the_two_branch_form_bit_for_bit():
    # graph_oracle.sigmoid calls the library's _sigmoid, so the chain tests cannot pin it
    rng = np.random.default_rng(0)
    v = np.concatenate([SIGMOID_EDGES, rng.standard_normal(200_000) * 40, rng.standard_normal(1000) * 1e-3])
    with np.errstate(under="ignore"):
        got, want = ad._sigmoid(v), graph_oracle.two_branch_sigmoid(v)
    assert got.tobytes() == want.tobytes()


def test_basic_arithmetic_values():
    # the reference's chain ops; a - b is a + b * -1 and a / 2 is a * 0.5
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[5.0, 6.0], [7.0, 8.0]])
    ones = Tensor(np.ones((2, 2)))
    np.testing.assert_array_equal(add(a, b).values, [[6, 8], [10, 12]])
    np.testing.assert_array_equal(add(a, mul(b, -1.0)).values, [[-4, -4], [-4, -4]])
    np.testing.assert_array_equal(mul(a, b).values, [[5, 12], [21, 32]])
    np.testing.assert_array_equal(matmul(a, b).values, [[19, 22], [43, 50]])
    np.testing.assert_array_equal(add(mul(a, 2.0), ones).values, [[3, 5], [7, 9]])
    np.testing.assert_array_equal(mul(a, 0.5).values, [[0.5, 1.0], [1.5, 2.0]])
    np.testing.assert_array_equal(add(mul(a, -1.0), ones).values, [[0, -1], [-2, -3]])
    np.testing.assert_array_equal(add(a, Tensor([10.0, 20.0])).values, [[11, 22], [13, 24]])
    np.testing.assert_array_equal(absolute(mul(a, -1.0)).values, a.values)
    assert sum_all(a).item() == 10.0


def test_a_tensor_keeps_a_c_contiguous_copy_of_a_strided_array():
    source = np.arange(6.0).reshape(3, 2)
    t = Tensor(source.T)
    assert t.values.flags.c_contiguous and not np.shares_memory(t.values, source)
    np.testing.assert_array_equal(t.values, source.T)


def test_item_needs_a_single_element_and_repr_names_shape_op_and_tracking():
    with pytest.raises(UsageError, match="single-element"):
        Tensor([1.0, 2.0]).item()
    assert repr(Tensor(np.ones((2, 3)), grad_tracked=True)) == "Tensor(shape=(2, 3), op='leaf', tracked=True)"


def test_relu_derivative_is_zero_at_zero():
    x = Tensor([[-1.0, 0.0, 2.0]], grad_tracked=True)
    backward(sum_all(dense(x, Tensor(np.eye(3)), activation="relu")))
    np.testing.assert_array_equal(x.grad, [[0.0, 0.0, 1.0]])


# -- finite-difference checks, one op at a time -------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_add_and_scalar(seed):
    rng = np.random.default_rng(seed)
    c = Tensor(rng.standard_normal((3, 4)))
    arrays = [rng.standard_normal((3, 4)), rng.standard_normal((3, 4))]
    check_gradients(lambda xs: sum_all(mul(mul(add(xs[0], xs[1]), 0.7), c)), arrays)


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_add_bias(seed):
    rng = np.random.default_rng(seed)
    c = Tensor(rng.standard_normal((3, 4)))
    arrays = [rng.standard_normal((3, 4)), rng.standard_normal(4)]
    check_gradients(lambda xs: sum_all(mul(add(xs[0], xs[1]), c)), arrays)


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_mul_elementwise_and_column(seed):
    rng = np.random.default_rng(seed)
    check_gradients(lambda xs: sum_all(mul(xs[0], xs[1])), [rng.standard_normal((4, 3)), rng.standard_normal((4, 3))])


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_matmul(seed):
    rng = np.random.default_rng(seed)
    arrays = [rng.standard_normal((3, 5)), rng.standard_normal((5, 2))]
    check_gradients(lambda xs: mean_all(matmul(xs[0], xs[1])), arrays)


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_relu_away_from_kink(seed):
    rng = np.random.default_rng(seed)
    x = (rng.random((4, 4)) + 0.5) * rng.choice([-1.0, 1.0], size=(4, 4))
    c = Tensor(rng.standard_normal((4, 4)))
    check_gradients(lambda xs: sum_all(mul(relu(xs[0]), c)), [x])


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_abs_away_from_kink(seed):
    rng = np.random.default_rng(seed)
    x = (rng.random((3, 3)) + 0.5) * rng.choice([-1.0, 1.0], size=(3, 3))
    check_gradients(lambda xs: sum_all(absolute(xs[0])), [x])


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_sigmoid(seed):
    rng = np.random.default_rng(seed)
    c = Tensor(rng.standard_normal((3, 4)))
    check_gradients(lambda xs: sum_all(mul(sigmoid(xs[0]), c)), [rng.standard_normal((3, 4)) * 2])


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_log(seed):
    rng = np.random.default_rng(seed)
    check_gradients(lambda xs: sum_all(log(xs[0])), [rng.random((3, 4)) * 1.5 + 0.5])


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_softmax(seed):
    rng = np.random.default_rng(seed)
    c = Tensor(rng.standard_normal((4, 5)))
    check_gradients(
        lambda xs: sum_all(mul(softmax_lastdim(xs[0]), c)), [rng.standard_normal((4, 5))]
    )


# (rows B, features C, block width d, projection width k): one feature, k != d, and a wide table
FEATURE_SHAPES = [(4, 3, 2, 3), (3, 1, 2, 2), (5, 2, 3, 2), (2, 14, 2, 3)]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape", FEATURE_SHAPES)
def test_grad_feature_scores(seed, shape):
    rows, n_feat, d, k = shape
    rng = np.random.default_rng(seed)
    c = Tensor(rng.standard_normal((rows, n_feat)))
    check_gradients(
        lambda xs: sum_all(mul(feature_scores(xs[0], xs[1], xs[2]), c)),
        [rng.standard_normal((rows, n_feat * d)), rng.standard_normal((d, k)), rng.standard_normal((rows, k))],
    )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape", FEATURE_SHAPES)
def test_grad_feature_attention(seed, shape):
    rows, n_feat, d, k = shape
    rng = np.random.default_rng(seed)
    c = Tensor(rng.standard_normal((rows, n_feat)))
    check_gradients(
        lambda xs: sum_all(mul(feature_attention(*xs), c)),
        [rng.standard_normal((rows, n_feat * d)), rng.standard_normal((d, k)), rng.standard_normal((rows, 3)),
         rng.standard_normal((3, k))],
    )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape", FEATURE_SHAPES)
def test_grad_feature_pool(seed, shape):
    rows, n_feat, d, k = shape
    rng = np.random.default_rng(seed)
    c = Tensor(rng.standard_normal((rows, k)))
    check_gradients(
        lambda xs: sum_all(mul(feature_pool(xs[0], xs[1], xs[2]), c)),
        [rng.standard_normal((rows, n_feat * d)), rng.standard_normal((d, k)), rng.random((rows, n_feat))],
    )


# head widths up to 7: feature_attention and feature_scores add a score's k products in order, as
# numpy sums a last axis shorter than 8; from 8 on numpy sums pairwise and the two differ by ULPs
@pytest.mark.parametrize("n_feat, d, k", [(1, 4, 4), (5, 4, 4), (14, 4, 4), (3, 2, 5), (14, 4, 7)])
def test_feature_ops_equal_a_per_feature_loop(n_feat, d, k):
    # at least two rows: numpy multiplies a single row through its
    # matrix-vector path, which rounds differently from the matrix product
    rng = np.random.default_rng(n_feat)
    blocks = rng.standard_normal((257, n_feat * d))
    proj, source, query_w = rng.standard_normal((d, k)), rng.standard_normal((257, 3)), rng.standard_normal((3, k))
    query = source @ query_w
    weights = rng.random((257, n_feat))
    projections = [np.ascontiguousarray(blocks[:, c * d : (c + 1) * d]) @ proj for c in range(n_feat)]

    scores = np.concatenate([(p * query).sum(axis=-1, keepdims=True) for p in projections], axis=-1)
    got = feature_scores(Tensor(blocks), Tensor(proj), Tensor(query)).values
    assert np.array_equal(got, scores)
    got = feature_attention(Tensor(blocks), Tensor(proj), Tensor(source), Tensor(query_w)).values
    assert np.array_equal(got, ad._softmax(scores))

    pooled = weights[:, 0:1] * projections[0]
    for c in range(1, n_feat):
        pooled = pooled + weights[:, c : c + 1] * projections[c]
    got = feature_pool(Tensor(blocks), Tensor(proj), Tensor(weights)).values
    assert np.array_equal(got, pooled)


def tracked_grads(out, upstream, inputs):
    """The gradients ``backward`` leaves in the tracked ``inputs`` of ``out`` for an upstream gradient:
    sum(out * upstream) hands ``out`` exactly ``upstream``."""
    backward(sum_all(mul(out, Tensor(upstream))))
    return [x.grad for x in inputs]


def per_feature_block_grads(blocks, proj, per_feature):
    """Gradients of (B, C*d) ``blocks`` and (d, k) ``proj`` from ``per_feature[c]``, the (B, k) gradient
    of feature c's projection: one product per feature for the blocks; one product over every
    (row, feature) pair, in the op's row order, for ``proj``."""
    g_blocks = np.concatenate([g @ proj.T for g in per_feature], axis=1)
    return g_blocks, blocks.reshape(-1, proj.shape[0]).T @ np.stack(per_feature, axis=1).reshape(-1, proj.shape[1])


# the width of the wide benchmark table, at a training batch and at an eval block
@pytest.mark.parametrize("rows", [128, 2048])
def test_feature_op_gradients_equal_a_per_feature_loop(rows):
    n_feat, d, k = 14, 4, 4
    rng = np.random.default_rng(rows)
    blocks, proj = rng.standard_normal((rows, n_feat * d)), rng.standard_normal((d, k))
    source, query_w = rng.standard_normal((rows, 3)), rng.standard_normal((3, k))
    weights, g_out = rng.random((rows, n_feat)), rng.standard_normal((rows, n_feat))
    projections = [np.ascontiguousarray(blocks[:, c * d : (c + 1) * d]) @ proj for c in range(n_feat)]
    query = source @ query_w

    inputs = [Tensor(a, grad_tracked=True) for a in (blocks, proj, source, query_w)]
    out = feature_attention(*inputs)
    got = tracked_grads(out, g_out, inputs)
    y = out.values
    g_scores = y * (g_out - (g_out * y).sum(axis=-1, keepdims=True))
    g_query = g_scores[:, 0:1] * projections[0]
    for c in range(1, n_feat):
        g_query = g_query + g_scores[:, c : c + 1] * projections[c]
    want = [*per_feature_block_grads(blocks, proj, [g_scores[:, c : c + 1] * query for c in range(n_feat)]),
            g_query @ query_w.T, source.T @ g_query]
    for name, a, b in zip(("blocks", "key", "source", "query"), got, want):
        assert a.tobytes() == b.tobytes(), name

    g_out = rng.standard_normal((rows, k))
    inputs = [Tensor(a, grad_tracked=True) for a in (blocks, proj, weights)]
    got = tracked_grads(feature_pool(*inputs), g_out, inputs)
    # the weights' gradient sums each feature's k products as numpy's einsum sums them
    want = [*per_feature_block_grads(blocks, proj, [weights[:, c : c + 1] * g_out for c in range(n_feat)]),
            np.stack([np.einsum("bk,bk->b", g_out, p) for p in projections], axis=1)]
    for name, a, b in zip(("blocks", "proj", "weights"), got, want):
        assert a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("rows", [128, 2048])
def test_gather_scale_scatter_equals_a_per_element_loop(rows):
    # 14 blocks of 4 from a source of 300 elements, so most elements are read many times
    n_feat, d = 14, 4
    rng = np.random.default_rng(rows)
    source = Tensor(rng.standard_normal((3, 100)), grad_tracked=True)
    index, scale = rng.integers(0, 300, size=(rows, n_feat * d)), rng.standard_normal((rows, n_feat))
    g_out = rng.standard_normal((rows, n_feat * d))
    out = gather_scale(source, index, scale)
    want = source.values.reshape(-1)[index] * np.repeat(scale, d, axis=1)
    assert out.values.tobytes() == want.tobytes()
    (got,) = tracked_grads(out, g_out, [source])
    want = [0.0] * 300
    for (r, j), i in np.ndenumerate(index):  # each element's share, added in row-major order
        want[i] += float(g_out[r, j] * scale[r, j // d])
    assert got.tobytes() == np.array(want).reshape(3, 100).tobytes()


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_embedding_lookup_with_repeats(seed):
    # the embedding lookup is one scaled gather from a flat source
    rng = np.random.default_rng(seed)
    index = np.array([[0, 2, 2, 4], [1, 0, 5, 5], [5, 5, 3, 3]])
    scale = rng.standard_normal((3, 2))  # one per block of 2
    c = Tensor(rng.standard_normal((3, 4)))
    check_gradients(lambda xs: sum_all(mul(gather_scale(xs[0], index, scale), c)), [rng.standard_normal((2, 3))])


EMBED_CASES = {
    "categorical": [("a", "categorical", 2), ("b", "categorical", 4)],
    "numerical": [("a", "numerical", None), ("b", "numerical", None)],
    "mixed": [("a", "numerical", None), ("b", "categorical", 3), ("c", "numerical", None), ("d", "categorical", 1)],
}


@pytest.mark.parametrize("case", sorted(EMBED_CASES))
@pytest.mark.parametrize("seed", SEEDS)
def test_grad_embed_features_over_the_parameter_buffer(seed, case):
    # finite differences taken in the model's own buffer, as training sees it;
    # 12 rows drawn from tables of at most 5 ids repeat ids
    rng = np.random.default_rng(seed)
    columns = [FeatureColumn(name, kind, "non_sensitive", cardinality=card) for name, kind, card in EMBED_CASES[case]]
    model = VanillaModel(columns, ModelConfig(embed_dim=3, baseline_hidden=(2,)), seed=seed)
    features = {c.name: rng.integers(0, c.table_size, size=12) if c.kind == "categorical" else rng.standard_normal(12)
                for c in columns}
    c = Tensor(rng.standard_normal((12, 3 * len(columns))))

    def loss():
        return sum_all(mul(model.embed_features(features), c))

    backward(loss())
    analytic = model.param_grads.copy()
    numeric = np.zeros_like(analytic)
    for i in range(model.param_values.size):
        keep = model.param_values[i]
        model.param_values[i] = keep + H
        up = loss().item()
        model.param_values[i] = keep - H
        down = loss().item()
        model.param_values[i] = keep
        numeric[i] = (up - down) / (2 * H)
    rel = np.abs(analytic - numeric) / np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    assert rel.max() < TOL, f"max relative error {rel.max():.3e}"
    for name in model.feature_names:
        p = model.params[f"embed.{name}"]
        assert np.shares_memory(p.grad, model.param_grads) and p.grad.any()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("use_relu", [False, True])
def test_grad_dense(seed, use_relu):
    rng = np.random.default_rng(seed)
    c = Tensor(rng.standard_normal((4, 5)))
    check_gradients(
        lambda xs: sum_all(mul(dense(xs[0], xs[1], xs[2], "relu" if use_relu else None), c)),
        [rng.standard_normal((4, 3)), rng.standard_normal((3, 5)), rng.standard_normal(5)],
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_dropout_fixed_mask(seed):
    rng = np.random.default_rng(seed)
    c = Tensor(rng.standard_normal((4, 6)))
    # recreate the generator inside the build so every call sees the same mask
    check_gradients(
        lambda xs: sum_all(mul(dense(xs[0], xs[1], xs[2], rate=0.4, rng=np.random.default_rng(99)), c)),
        [rng.standard_normal((4, 3)), rng.standard_normal((3, 6)), rng.standard_normal(6)],
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_row_cross_entropy(seed):
    rng = np.random.default_rng(seed)
    labels = np.array([[0.0], [1.0], [0.0], [1.0], [1.0], [0.0]])
    c = Tensor(rng.standard_normal((6, 1)))
    check_gradients(lambda xs: sum_all(mul(row_cross_entropy(xs[0], labels), c)), [rng.uniform(0.05, 0.95, (6, 1))])


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_cross_entropy(seed):
    rng = np.random.default_rng(seed)
    labels = np.array([[0.0], [1.0], [0.0], [1.0], [1.0], [0.0]])
    check_gradients(lambda xs: cross_entropy(xs[0], labels), [rng.uniform(0.05, 0.95, (6, 1))])


@pytest.mark.parametrize("rate", [0.0, 0.3])
@pytest.mark.parametrize("use_relu", [False, True])
def test_dense_equals_its_op_chain_bit_for_bit(rate, use_relu):
    # the MLPs' row-bias linear and ReLU layers, as matmul, add_bias, relu and a dropout mask
    test_dense_with_any_bias_and_activation_equals_its_op_chain_bit_for_bit(rate, "row", "relu" if use_relu else None)


def test_row_cross_entropy_equals_its_op_chain_bit_for_bit():
    # the reference op that the fused cross-entropy terms are compared with
    rng = np.random.default_rng(6)
    y = rng.integers(0, 2, size=(8, 1)).astype(np.float64)
    p = rng.uniform(0.01, 0.99, (8, 1))
    g = Tensor(rng.standard_normal((8, 1)))
    fused, chained = Tensor(p.copy(), grad_tracked=True), Tensor(p.copy(), grad_tracked=True)
    out_fused = row_cross_entropy(fused, y)
    out_chained = mul(log(add(mul(chained, Tensor(2.0 * y - 1.0)), Tensor(1.0 - y))), -1.0)
    backward(sum_all(mul(out_fused, g)))
    backward(sum_all(mul(out_chained, g)))
    assert out_fused.values.tobytes() == out_chained.values.tobytes()
    assert fused.grad.tobytes() == chained.grad.tobytes()
    np.testing.assert_allclose(out_fused.values, -(y * np.log(p) + (1 - y) * np.log(1 - p)), rtol=1e-12)


def test_a_no_grad_relu_dense_holds_only_its_output():
    # eval forwards run under no_grad: the ReLU works in place and builds no backward mask
    rng = np.random.default_rng(8)
    x, w, b = (Tensor(rng.standard_normal(shape), grad_tracked=True) for shape in [(4096, 16), (16, 64), (64,)])
    recorded = dense(x, w, b, "relu")
    with no_grad():
        dense(x, w, b, "relu")  # first call allocates numpy's lazy caches
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = dense(x, w, b, "relu")
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
    assert out.values.tobytes() == recorded.values.tobytes()
    assert peak < 1.5 * out.values.nbytes, peak / out.values.nbytes


# (bias, activation) beyond the row-bias linear and ReLU layers the tests above cover
DENSE_FORMS = [("row", "sigmoid"), ("none", None), ("none", "relu"), ("none", "sigmoid"),
               ("addend", None), ("addend", "relu"), ("addend", "sigmoid")]


def dense_inputs(rng, bias, rows=4):
    """x, w and, unless ``bias`` is "none", a bias row or an addend, for a (rows, 5) layer."""
    arrays = [rng.standard_normal((rows, 3)), rng.standard_normal((3, 5))]
    return arrays + ({"none": [], "row": [rng.standard_normal(5)], "addend": [rng.standard_normal((rows, 5))]}[bias])


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("bias, activation", DENSE_FORMS)
def test_grad_dense_with_any_bias_and_activation(seed, bias, activation):
    rng = np.random.default_rng(seed)
    arrays = dense_inputs(rng, bias)
    c = Tensor(rng.standard_normal((4, 5)))
    check_gradients(lambda xs: sum_all(mul(dense(*xs[:2], xs[2] if len(xs) > 2 else None, activation), c)), arrays)


@pytest.mark.parametrize("rate", [0.0, 0.3])
@pytest.mark.parametrize("bias, activation", DENSE_FORMS)
def test_dense_with_any_bias_and_activation_equals_its_op_chain_bit_for_bit(rate, bias, activation):
    rng = np.random.default_rng(5)
    arrays = dense_inputs(rng, bias, rows=6)
    g = Tensor(rng.standard_normal((6, 5)))
    keep = (np.random.default_rng(7).random((6, 5)) >= rate) / (1.0 - rate)

    def run(fused):
        xs = [Tensor(a.copy(), grad_tracked=True) for a in arrays]
        b = xs[2] if len(xs) > 2 else None
        if fused:
            out = dense(xs[0], xs[1], b, activation, rate=rate, rng=np.random.default_rng(7))
        else:
            out = graph_oracle.dense(xs[0], xs[1], b, activation, keep if rate else None)
        backward(sum_all(mul(out, g)))
        return [out.values] + [x.grad for x in xs]

    for got, want in zip(run(True), run(False), strict=True):
        assert got.tobytes() == want.tobytes()


def two_groups(rows, seed):
    groups = np.random.default_rng(seed).integers(0, 2, rows)
    groups[:2] = [0, 1]
    return group_means(groups)


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_mean_squared_error(seed):
    rng = np.random.default_rng(seed)
    target = rng.integers(0, 2, (6, 1)).astype(np.float64)
    check_gradients(lambda xs: mean_squared_error(xs[0], target), [rng.uniform(0.05, 0.95, (6, 1))])


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_symmetric_kl(seed):
    rng = np.random.default_rng(seed)
    check_gradients(lambda xs: symmetric_kl(xs[0], two_groups(7, seed)), [rng.standard_normal((7, 4))])


def gap_inputs(rng, rows, seed, sign=1.0):
    """Labels, predictions and group means whose cross-entropy gap is far from 0:
    group 0 gives the right class a probability below 0.4 (above 0.6 if ``sign`` is -1),
    group 1 one above 0.6 (below 0.4)."""
    mix = two_groups(rows, seed)
    labels = rng.integers(0, 2, (rows, 1)).astype(np.float64)
    right = np.where((mix[0] > 0)[:, None] == (sign > 0), rng.uniform(0.05, 0.4, (rows, 1)),
                     rng.uniform(0.6, 0.95, (rows, 1)))
    return labels, np.where(labels == 1.0, right, 1.0 - right), mix


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_cross_entropy_gap(seed):
    rng = np.random.default_rng(seed)
    labels, pred, mix = gap_inputs(rng, 7, seed)
    check_gradients(lambda xs: cross_entropy_gap(xs[0], labels, mix, 2.0), [pred])


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_weighted_sum(seed):
    rng = np.random.default_rng(seed)
    c = Tensor(rng.standard_normal((3, 2)))
    check_gradients(
        lambda xs: sum_all(mul(weighted_sum(xs, [1.0, 2.5, -0.75]), c)),
        [rng.standard_normal((3, 2)) for _ in range(3)],
    )


def equal_bits(build_fused, build_chain, arrays, upstream=1.7):
    """Values and gradients of the fused op and of its op chain, byte for byte."""
    results = []
    for build in (build_fused, build_chain):
        xs = [Tensor(a.copy(), grad_tracked=True) for a in arrays]
        out = build(xs)
        backward(sum_all(mul(out, upstream)) if out.values.ndim else mul(out, upstream))
        results.append([out.values.tobytes()] + [x.grad.tobytes() for x in xs])
    assert results[0] == results[1]


def test_cross_entropy_equals_its_op_chain_bit_for_bit():
    rng = np.random.default_rng(6)
    labels = rng.integers(0, 2, (9, 1)).astype(np.float64)
    pred = np.concatenate([rng.uniform(0.01, 0.99, (8, 1)), [[1.0]]])  # and one confidently right row
    labels[-1] = 1.0
    equal_bits(lambda xs: cross_entropy(xs[0], labels),
               lambda xs: mean_all(row_cross_entropy(xs[0], labels)), [pred])


@pytest.mark.parametrize("seed", SEEDS)
def test_feature_attention_equals_its_op_chain_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    arrays = [rng.standard_normal(shape) for shape in [(11, 15), (3, 4), (11, 4), (4, 4)]]  # five blocks of 3

    def chain(xs):
        return softmax_lastdim(feature_scores(xs[0], xs[1], matmul(xs[2], xs[3])))

    equal_bits(lambda xs: feature_attention(*xs), chain, arrays, upstream=Tensor(rng.standard_normal((11, 5))))


def test_mean_squared_error_equals_its_op_chain_bit_for_bit():
    rng = np.random.default_rng(6)
    target = rng.integers(0, 2, (9, 1)).astype(np.float64)
    equal_bits(lambda xs: mean_squared_error(xs[0], target),
               lambda xs: graph_oracle.mean_squared_error(xs[0], target), [rng.uniform(0.01, 0.99, (9, 1))])


@pytest.mark.parametrize("seed", SEEDS)
def test_symmetric_kl_equals_its_op_chain_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    mix = two_groups(11, seed)
    equal_bits(lambda xs: symmetric_kl(xs[0], mix),
               lambda xs: graph_oracle.symmetric_kl(xs[0], mix), [rng.standard_normal((11, 4))])


@pytest.mark.parametrize("seed", SEEDS)
def test_cross_entropy_gap_equals_its_op_chain_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    for sign in (1.0, -1.0):  # both signs of the gap
        labels, pred, mix = gap_inputs(rng, 11, seed, sign)
        equal_bits(lambda xs: cross_entropy_gap(xs[0], labels, mix, 2.0),
                   lambda xs: graph_oracle.abs_gap(row_cross_entropy(xs[0], labels), mix, 2.0), [pred])


def test_weighted_sum_equals_its_op_chain_bit_for_bit():
    rng = np.random.default_rng(8)
    weights = [1.0, 2.0, 30.0, 1.0]
    for shape in ((), (3, 2)):
        arrays = [rng.standard_normal(shape) for _ in weights]
        equal_bits(lambda xs: weighted_sum(xs, weights), lambda xs: graph_oracle.weighted_sum(xs, weights), arrays)


def test_cross_entropy_gap_of_equal_means_has_zero_gradient():
    x = Tensor(np.array([[0.5], [0.5], [0.5]]), grad_tracked=True)
    out = cross_entropy_gap(x, np.array([[1.0], [0.0], [1.0]]), group_means(np.array([0, 1, 1])), 2.0)
    backward(out)
    assert out.item() == 0.0 and not x.grad.any()


def test_weighted_sum_adds_a_constant_term_but_no_gradient_for_it():
    x, constant = Tensor(2.0, grad_tracked=True), Tensor(0.0)
    out = weighted_sum([x, constant], [1.0, 30.0])
    backward(out)
    assert out.item() == 2.0 and x.grad == 1.0 and constant.grad is None


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_composite_network(seed):
    # a miniature of the real model: embed-like product, relu layer, sigmoid head, log loss
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((6, 3))
    w1 = rng.standard_normal((3, 8)) * 0.5
    b1 = rng.standard_normal(8) * 0.1
    w2 = rng.standard_normal((8, 1)) * 0.5
    labels = rng.integers(0, 2, (6, 1)).astype(np.float64)

    def build(xs):
        h = dense(xs[0], xs[1], xs[2], "relu")
        return cross_entropy(dense(h, xs[3], activation="sigmoid"), labels)

    check_gradients(build, [x, w1, b1, w2])


# -- graph mechanics ----------------------------------------------------------


def _small_graph():
    w = Tensor(np.arange(6, dtype=float).reshape(2, 3) / 10 + 0.1, grad_tracked=True)
    x = Tensor([[1.0, -2.0], [0.5, 3.0], [-1.0, 0.2]])
    return w, mean_all(dense(x, w, activation="sigmoid"))


def test_replaying_a_graph_gives_identical_node_count_and_grads():
    w1, root1 = _small_graph()
    w2, root2 = _small_graph()
    assert len(graph_nodes(root1)) == len(graph_nodes(root2))
    backward(root1)
    backward(root2)
    assert w1.grad.tobytes() == w2.grad.tobytes()


def test_backward_zeroes_untouched_parameters():
    # a step zeroes the whole grad buffer, then adds only what its graph reaches
    values, grads, params = pack_parameters({"used": [[1.0, 2.0]], "unused": [[3.0], [4.0]]})
    used, unused = params["used"], params["unused"]
    backward(add(sum_all(mul(used, 5.0)), sum_all(mul(unused, 1.0))))  # an earlier step's gradients
    grads.fill(0.0)
    backward(sum_all(mul(used, 2.0)))
    np.testing.assert_array_equal(used.grad, [[2.0, 2.0]])
    np.testing.assert_array_equal(unused.grad, [[0.0], [0.0]])
    assert np.shares_memory(used.grad, grads) and np.shares_memory(unused.grad, grads)


def test_pack_parameters_lays_out_views_in_order():
    values, grads, params = pack_parameters({"a": np.ones((2, 3)), "b": np.array([7.0]), "c": np.zeros((1, 2))})
    np.testing.assert_array_equal(values, [1, 1, 1, 1, 1, 1, 7, 0, 0])
    assert grads.shape == values.shape and not grads.any()
    for p in params.values():
        assert p.grad_tracked and p.values.flags["C_CONTIGUOUS"]
        assert np.shares_memory(p.values, values) and np.shares_memory(p.grad, grads)
    values[6] = 9.0
    assert params["b"].values[0] == 9.0


def test_parameter_reused_twice_accumulates():
    p = Tensor([[1.0, 2.0]], grad_tracked=True)
    root = add(sum_all(mul(p, 3.0)), sum_all(mul(p, p)))
    backward(root)
    np.testing.assert_allclose(p.grad, [[3.0 + 2.0, 3.0 + 4.0]])


def copying_backward(root):
    """``backward`` as it was when it copied every first gradient instead of adopting it."""
    root.grad = np.ones_like(root.values)
    for node in reversed(graph_nodes(root)):
        if node._backward is not None:
            for parent, g in zip(node._parents, node._backward(node.grad)):
                if parent.grad_tracked:
                    if parent.grad is None:
                        parent.grad = np.array(g, dtype=np.float64)
                    else:
                        parent.grad += g


def test_backward_adopts_first_gradients_as_a_copying_backward_would_set_them():
    # every grad_fn returns new arrays, so adopting them changes no bit and shares no memory
    dataset = split(synth_generate(n=600, bias_strength=2.0, proxy_corr=0.8, seed=3), (0.6, 0.2, 0.2), seed=3)
    model = FairIntModel(dataset.input_columns, ModelConfig(), seed=0, dropout=0.1)
    batch = batches(dataset, "train", 128, seed=0, epoch=0)[0]
    grads = []
    for run in (copying_backward, backward):
        trace = model.forward(batch.features, training=True, rng=np.random.default_rng(0))
        total, breakdown = joint_loss(trace, batch.labels, batch.true_sensitive, 2.0, 30.0)
        assert breakdown.l_ifc > 0.0 and breakdown.l_fc > 0.0
        model.param_grads.fill(0.0)
        run(total)
        nodes = graph_nodes(total)
        grads.append([node.grad.tobytes() for node in nodes])
    assert grads[0] == grads[1]
    own = [node.grad for node in nodes if node.op != "leaf"]
    for i, grad in enumerate(own):
        assert isinstance(grad, np.ndarray)
        assert not any(np.shares_memory(grad, other) for other in [model.param_grads, *own[i + 1:]])


def test_dense_hands_an_addend_a_gradient_of_its_own():
    # with no activation and no dropout the addend's gradient is the incoming one, which its node holds
    x, w, addend = (Tensor(np.ones(shape), grad_tracked=True) for shape in [(2, 3), (3, 4), (2, 4)])
    out = dense(x, w, addend)
    backward(sum_all(mul(out, 2.0)))
    np.testing.assert_array_equal(addend.grad, np.full((2, 4), 2.0))
    assert not np.shares_memory(addend.grad, out.grad)


def test_backward_requires_scalar_root():
    x = Tensor([[1.0, 2.0]], grad_tracked=True)
    with pytest.raises(UsageError):
        backward(x)


def test_backward_from_an_untracked_root_sets_no_grad():
    x = Tensor([[1.0]])
    out = dense(x, Tensor([[2.0]]))
    backward(out)
    assert out.grad is None and x.grad is None


def test_untracked_graph_records_no_parents():
    w, b = Tensor([[3.0]]), Tensor([1.0])
    out = dense(Tensor([[1.0]]), w, b, "sigmoid")
    assert graph_nodes(out) == [out]
    assert out._parents == ()

    # inside no_grad, even an op on a parameter records nothing
    p = Tensor([[2.0]], grad_tracked=True)
    with no_grad():
        inside = dense(p, w, b, "sigmoid")
    assert not inside.grad_tracked
    assert inside._parents == ()
    assert dense(p, w).grad_tracked
    with pytest.raises(NumericError), no_grad():
        cross_entropy(dense(p, Tensor([[0.0]])), np.array([[1.0]]))
    assert dense(p, w)._parents == (p, w)


def test_training_step_and_eval_leave_no_cyclic_garbage():
    # graphs hold no reference cycles, so dropping the root frees them
    # without the cyclic collector; eval builds no graph at all
    dataset = split(synth_generate(n=600, bias_strength=2.0, proxy_corr=0.8, seed=3), (0.6, 0.2, 0.2), seed=3)
    model = FairIntModel(dataset.input_columns, ModelConfig(), seed=0, dropout=0.1)
    batch = batches(dataset, "train", 128, seed=0, epoch=0)[0]

    def step():
        trace = model.forward(batch.features, training=True, rng=np.random.default_rng(0))
        total, _ = joint_loss(trace, batch.labels, batch.true_sensitive, 2.0, 30.0)
        backward(total)

    # a first pass of each loads what numpy imports lazily (np.unique loads numpy.ma),
    # whose module set-up leaves cyclic garbage once
    step()
    evaluate_model(model, dataset, "val")
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        step()
        assert gc.collect() == 0
        evaluate_model(model, dataset, "val")
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


def test_every_op_of_a_step_holds_a_c_contiguous_float64_array():
    # _result keeps the array an op hands over as it is, so each op must make its own
    # in this layout; the penalties get fixed groups so that every op runs
    dataset = split(synth_generate(n=600, bias_strength=2.0, proxy_corr=0.8, seed=3), (0.6, 0.2, 0.2), seed=3)
    batch = batches(dataset, "train", 128, seed=0, epoch=0)[0]
    labels = batch.labels.reshape(-1, 1)
    means = group_means(np.arange(batch.size) % 2)
    seen = set()
    for cls in (FairIntModel, VanillaModel):
        model = cls(dataset.input_columns, ModelConfig(), seed=0, dropout=0.1)
        out = model.forward(batch.features, training=True, rng=np.random.default_rng(0))
        terms = [cross_entropy(out.prediction, labels), cross_entropy_gap(out.prediction, labels, means, 2.0)]
        if cls is FairIntModel:
            terms += [mean_squared_error(out.pseudo_scalar, labels), symmetric_kl(out.fused, means)]
        for node in graph_nodes(weighted_sum(terms, [1.0] * len(terms))):
            assert node.values.dtype == np.float64 and node.values.flags.c_contiguous, node.op
            seen.add(node.op)
    assert seen == {"leaf", "gather_scale", "dense", "feature_attention", "feature_pool", "cross_entropy",
                    "cross_entropy_gap", "mean_squared_error", "symmetric_kl", "weighted_sum"}


# -- error paths --------------------------------------------------------------


def test_shape_mismatches_raise():
    a = Tensor(np.ones((2, 3)))
    for w, b in ((np.ones((2, 3)), np.ones(3)), (np.ones((3, 2)), np.ones(3)), (np.ones((3, 2)), np.ones((1, 2)))):
        with pytest.raises(ShapeError):
            dense(a, Tensor(w), Tensor(b))
    half = Tensor(np.full((2, 1), 0.5))
    with pytest.raises(ShapeError):
        cross_entropy(half, np.zeros(2))
    with pytest.raises(ShapeError):
        cross_entropy_gap(half, np.zeros(2), group_means(np.array([0, 1])), 2.0)
    with pytest.raises(ShapeError):
        dense(a, Tensor(np.ones((3, 2))), Tensor(np.ones((3, 2))))  # an addend of the wrong rows
    with pytest.raises(UsageError, match="activation"):
        dense(a, Tensor(np.ones((3, 2))), activation="tanh")
    with pytest.raises(ShapeError):
        mean_squared_error(Tensor(np.ones((2, 1))), np.ones(2))
    for x, op in ((a, symmetric_kl), (half, lambda x, mix: cross_entropy_gap(x, np.zeros((2, 1)), mix, 2.0))):
        for mix in (np.ones((2, 3)), np.ones((3, 2))):  # not one row of weights per group and row of x
            with pytest.raises(ShapeError):
                op(x, mix)
    with pytest.raises(ShapeError):
        weighted_sum([Tensor(1.0), Tensor([1.0])], [1.0, 1.0])
    with pytest.raises(UsageError):
        weighted_sum([Tensor(1.0)], [1.0, 2.0])
    proj, weights = Tensor(np.ones((2, 4))), Tensor(np.ones((2, 3)))
    source, query = Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4)))
    blocks = Tensor(np.ones((2, 6)))  # three blocks of width 2
    for op, rest in ((feature_attention, (source, query)), (feature_pool, (weights,))):
        with pytest.raises(ShapeError):
            op(Tensor(np.ones((2, 5))), proj, *rest)  # width not a multiple of d
        with pytest.raises(ShapeError):
            op(Tensor(np.ones((2, 1))), proj, *rest)  # narrower than one block
        with pytest.raises(ShapeError):
            op(Tensor(np.ones(6)), proj, *rest)
        with pytest.raises(ShapeError):
            op(blocks, Tensor(np.ones(2)), *rest)
    assert feature_attention(blocks, proj, source, query).shape == (2, 3)
    for bad_source, bad_query in [((2, 3), (3, 3)),  # query width is not k
                                  ((3, 3), (3, 4)),  # query rows are not B
                                  ((2, 2), (3, 4)),  # source and query do not multiply
                                  ((2,), (3, 4)), ((2, 3), (3,))]:
        with pytest.raises(ShapeError):
            feature_attention(blocks, proj, Tensor(np.ones(bad_source)), Tensor(np.ones(bad_query)))
    with pytest.raises(ShapeError):
        feature_pool(blocks, proj, Tensor(np.ones((2, 2))))  # one weight per block
    with pytest.raises(ShapeError):
        feature_pool(blocks, proj, Tensor(np.ones((2, 3, 1))))


def test_log_of_nonpositive_raises_domain_error():
    means = group_means(np.array([0, 1]))
    for op in (cross_entropy, lambda pred, labels: cross_entropy_gap(pred, labels, means, 2.0)):
        with pytest.raises(NumericError):
            op(Tensor([[0.5], [0.0]]), np.array([[0.0], [1.0]]))  # p(y=1) = 0
        with pytest.raises(NumericError):
            op(Tensor([[1.0], [0.5]]), np.array([[0.0], [1.0]]))  # p(y=0) = 0


def test_overflow_to_inf_raises_numeric_error():
    with np.errstate(over="ignore"), pytest.raises(NumericError):
        dense(Tensor([[1e308]]), Tensor([[10.0]]))


def test_dense_checks_the_pre_activation_for_non_finite_values():
    # x @ w is -inf, which a ReLU would turn into a finite 0
    x, w, b = Tensor([[1e308]]), Tensor([[-10.0]]), Tensor([0.0])
    with np.errstate(over="ignore"), pytest.raises(NumericError):
        dense(x, w, b, "relu")
    # x @ w is +inf and -inf, which a sigmoid would turn into a finite 1 and 0
    for sign in (1.0, -1.0):
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="before its activation"):
            dense(x, Tensor([[10.0 * sign]]), None, "sigmoid")
    # an addend of -inf too, and the addend itself overflowing the sum
    with np.errstate(over="ignore"), pytest.raises(NumericError):
        dense(Tensor([[1.0]]), Tensor([[1.0]]), Tensor([[-np.inf]]), "relu")
    with np.errstate(over="ignore"), pytest.raises(NumericError):
        dense(Tensor([[1e308]]), Tensor([[1.0]]), Tensor([[1e308]]), "relu")


def test_a_finite_result_whose_sum_overflows_passes_the_finite_check():
    # the check sums the values first; this sum overflows, so every value is tested
    with np.errstate(over="ignore"):
        layer = dense(Tensor([[1e308, 1e308]]), Tensor([[1.0, 0.0], [0.0, 1.0]]), activation="relu")
    assert layer.values.tolist() == [[1e308, 1e308]]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_result_raises_numeric_error_naming_the_op(bad):
    with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="operation 'mean_squared_error'"):
        mean_squared_error(Tensor([[1.0, bad]]), np.zeros((1, 2)))
    with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="operation 'dense'"):
        dense(Tensor([[1.0, bad]]), Tensor([[1.0], [1.0]]))


def test_feature_attention_checks_its_scores_before_its_softmax():
    # a score of -inf would become a finite weight of 0 in the softmax
    blocks, one = Tensor([[1e308, 1.0]]), Tensor([[1.0]])
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="before its softmax"):
        feature_attention(blocks, Tensor([[-10.0]]), one, one)
    # and so would a query of -inf, through every score of its row
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="before its softmax"):
        feature_attention(Tensor([[1.0, 2.0]]), one, Tensor([[1e308]]), Tensor([[-10.0]]))


def test_symmetric_kl_checks_its_group_means_and_its_probabilities():
    # a -inf group-mean logit would become a probability of 0 in the softmax
    fused = Tensor(np.array([[1e308, 0.0], [-1e308, 0.0]]))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError, match="before its softmax"):
        symmetric_kl(fused, np.array([[2.0, 0.0], [0.0, 2.0]]))
    # a finite logit gap of 800 underflows to a probability of exactly 0
    with pytest.raises(NumericError):
        symmetric_kl(Tensor(np.array([[800.0, 0.0], [0.0, 0.0]])), group_means(np.array([0, 1])))


def test_tensor_division_rejected():
    # a Tensor carries no arithmetic operators; a graph is built from the ops alone
    for op in (lambda a, b: a / b, lambda a, b: a + b, lambda a, b: a * b, lambda a, b: a - b, lambda a, b: a @ b):
        with pytest.raises(TypeError):
            op(Tensor([1.0]), Tensor([2.0]))
    with pytest.raises(TypeError):
        2.0 * Tensor([1.0])


def test_embedding_index_out_of_range():
    table = Tensor(np.ones((2, 3)))
    with pytest.raises(DataError):
        gather_scale(table, np.array([[0, 6]]), np.ones((1, 2)))
    with pytest.raises(DataError):
        gather_scale(table, np.array([[-1, 0]]), np.ones((1, 1)))
    for scale in (np.ones((1, 3)), np.ones((2, 1)), np.ones((1, 0)), np.ones(2)):
        with pytest.raises(ShapeError):
            gather_scale(table, np.array([[0, 1]]), scale)
    # id 3 is inside the tables' segment (sizes 3 and 5, d = 2) but not inside job's own table
    columns = [FeatureColumn("job", "categorical", "non_sensitive", cardinality=2),
               FeatureColumn("city", "categorical", "non_sensitive", cardinality=4)]
    model = VanillaModel(columns, ModelConfig(embed_dim=2, baseline_hidden=(2,)), seed=0)
    assert model.embed_features({"job": np.array([2]), "city": np.array([4])}).shape == (1, 4)
    for bad in ({"job": np.array([3]), "city": np.array([0])}, {"job": np.array([0]), "city": np.array([5])},
                {"job": np.array([-1]), "city": np.array([0])}):
        with pytest.raises(DataError, match="out of range"):
            model.embed_features(bad)


# -- dropout inside dense -----------------------------------------------------


def identity_layer(width):
    return Tensor(np.eye(width)), Tensor(np.zeros(width))


def test_dropout_rate_zero_is_identity():
    x = np.random.default_rng(1).standard_normal((3, 3))
    rng = np.random.default_rng(0)
    out = dense(Tensor(x), *identity_layer(3), rate=0.0, rng=rng)
    np.testing.assert_array_equal(out.values, x)
    assert rng.random() == np.random.default_rng(0).random()  # nothing was drawn
    # no draw, so no generator needed
    np.testing.assert_array_equal(dense(Tensor(x), *identity_layer(3), rate=0.0).values, x)


def test_dropout_rate_must_be_below_one():
    rng = np.random.default_rng(0)
    for rate in (1.0, 1.5, -0.1):
        with pytest.raises(ConfigError):
            dense(Tensor([[1.0]]), *identity_layer(1), rate=rate, rng=rng)
    with pytest.raises(UsageError, match="generator"):
        dense(Tensor([[1.0]]), *identity_layer(1), rate=0.5)


@pytest.mark.parametrize("rate", [0.1, 0.5, 0.7])
def test_dropout_preserves_mean_activation(rate):
    rng = np.random.default_rng(42)
    x = Tensor(np.ones((1000, 100)))
    out = dense(x, *identity_layer(100), rate=rate, rng=rng)
    assert abs(out.values.mean() - 1.0) < 0.02
    kept = out.values[out.values != 0.0]
    np.testing.assert_allclose(kept, 1.0 / (1.0 - rate))


# -- serialization ------------------------------------------------------------


def test_save_load_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    arrays = {
        "scalar": np.array(np.pi),
        "vector": rng.standard_normal(7),
        "matrix": rng.standard_normal((4, 5)) * 1e-7,
        "weird/name with spaces": np.array([1e308, -1e-308, 0.0]),
    }
    meta = {"seed": 11, "kind": "test", "nested": {"a": [1, 2]}}
    path = tmp_path / "params.bin"
    save_parameters(path, arrays, meta)
    back, meta_back = load_parameters(path)
    assert meta_back == meta
    assert list(back) == list(arrays)
    for name in arrays:
        assert back[name].shape == arrays[name].shape
        assert back[name].tobytes() == arrays[name].tobytes()


def test_loading_garbage_raises_data_error(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"definitely not a model file")
    with pytest.raises(DataError):
        load_parameters(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_loading_a_non_finite_parameter_names_the_file_and_the_parameter(tmp_path, bad):
    path = tmp_path / "params.bin"
    save_parameters(path, {"ok": np.ones(2), "w": np.array([[0.5, bad]])})
    with pytest.raises(DataError, match=r"params\.bin: parameter 'w' holds non-finite values"):
        load_parameters(path)


def test_saved_file_is_deterministic(tmp_path):
    arrays = {"w": np.linspace(0, 1, 12).reshape(3, 4)}
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_parameters(p1, arrays, {"k": 1})
    save_parameters(p2, arrays, {"k": 1})
    assert p1.read_bytes() == p2.read_bytes()
