"""Loss-term oracles and the joint-objective gradient check."""

import numpy as np
import pytest
import scipy.stats

from graph_oracle import add, log, mean_all, mul
from fairint.autodiff import Tensor, backward, graph_nodes
from fairint.data import FeatureColumn, full_batch, split, synth_generate
from fairint.errors import ConfigError, ShapeError, UsageError
from fairint.losses import (
    LossBreakdown,
    assign_groups,
    ce_loss,
    group_divergence_loss,
    group_gap_loss,
    group_means,
    joint_loss,
    reconstruction_loss,
)
from fairint.model import FairIntModel, ModelConfig


def col(values):
    return Tensor(np.asarray(values, dtype=np.float64).reshape(-1, 1))


# -- cross entropy --------------------------------------------------------------


def test_ce_half_everywhere_is_ln2():
    pred = col([0.5, 0.5, 0.5])
    assert abs(ce_loss(pred, [1.0, 0.0, 1.0]).item() - np.log(2.0)) < 1e-12


def test_ce_exact_predictions_give_zero():
    assert ce_loss(col([1.0, 0.0]), [1.0, 0.0]).item() == 0.0


def test_ce_hand_oracle():
    want = -(np.log(0.9) + np.log(0.8)) / 2.0
    got = ce_loss(col([0.9, 0.2]), [1.0, 0.0]).item()
    assert abs(got - want) < 1e-12
    assert abs(got - 0.1643) < 1e-4


def test_ce_equals_the_two_term_form_bit_for_bit():
    rng = np.random.default_rng(5)
    p = np.concatenate([rng.uniform(0.01, 0.99, 14), [1.0, 1.0]])
    y = np.concatenate([rng.integers(0, 2, 14), [1, 1]]).astype(np.float64)
    got_pred = Tensor(p.reshape(-1, 1), grad_tracked=True)
    want_pred = Tensor(p.reshape(-1, 1), grad_tracked=True)
    got = ce_loss(got_pred, y)
    yt = col(y)
    one_minus_pred = add(mul(want_pred, -1.0), Tensor(np.ones_like(p.reshape(-1, 1))))
    want = mean_all(mul(log(add(mul(yt, want_pred), mul(Tensor(1.0 - yt.values), one_minus_pred))), -1.0))
    backward(got)
    backward(want)
    assert got.item() == want.item()
    assert np.array_equal(got_pred.grad, want_pred.grad)


def test_ce_validation():
    with pytest.raises(UsageError, match="empty"):
        ce_loss(col([]), [])
    with pytest.raises(ShapeError, match="rows"):
        ce_loss(col([0.5, 0.5]), [1.0])


# -- reconstruction -----------------------------------------------------------------


def test_reconstruction_zero_when_exact():
    assert reconstruction_loss(col([1.0, 0.0]), [1.0, 0.0]).item() == 0.0


def test_reconstruction_half_guess_is_quarter():
    assert reconstruction_loss(col([0.5, 0.5]), [1.0, 0.0]).item() == 0.25


def test_reconstruction_hand_oracle():
    got = reconstruction_loss(col([0.8, 0.3]), [1.0, 0.0]).item()
    assert abs(got - 0.065) < 1e-12


def test_reconstruction_empty_batch():
    with pytest.raises(UsageError, match="empty"):
        reconstruction_loss(col([]), [])


# -- group assignment ------------------------------------------------------------------


def test_assign_groups_threshold():
    np.testing.assert_array_equal(assign_groups(col([0.2, 0.7])), [0, 1])


def test_assign_groups_tie_goes_to_group_one():
    np.testing.assert_array_equal(assign_groups(col([0.5, 0.49999])), [1, 0])


def test_assign_groups_accepts_plain_arrays():
    np.testing.assert_array_equal(assign_groups(np.array([0.1, 0.9, 0.5])), [0, 1, 1])


# -- divergence between group distributions ----------------------------------------------


def test_divergence_matches_entropy_oracle():
    # group means [0, 0] and [0, ln 3] softmax to [1/2, 1/2] and [1/4, 3/4]
    fused = Tensor(np.array([[0.0, 0.0], [0.0, np.log(3.0)]]))
    groups = np.array([0, 1])
    got = group_divergence_loss(fused, group_means(groups)).item()
    p0, p1 = [0.5, 0.5], [0.25, 0.75]
    want = scipy.stats.entropy(p0, p1) + scipy.stats.entropy(p1, p0)
    assert abs(got - want) < 1e-12
    assert abs(got - 0.2747) < 1e-4


def test_divergence_zero_iff_distributions_equal():
    fused = Tensor(np.array([[1.0, -2.0], [3.0, 0.0], [1.0, -2.0], [3.0, 0.0]]))
    equal_groups = np.array([0, 0, 1, 1])  # both groups average to the same embedding
    assert group_divergence_loss(fused, group_means(equal_groups)).item() == 0.0
    rng = np.random.default_rng(0)
    for _ in range(20):
        z = Tensor(rng.standard_normal((8, 3)))
        groups = rng.integers(0, 2, 8)
        if len(np.unique(groups)) < 2:
            continue
        assert group_divergence_loss(z, group_means(groups)).item() > 0.0


def test_divergence_single_group_is_zero():
    assert group_means(np.zeros(4, dtype=int)) is None
    m, batch, labels, sensitive = one_group_batch()
    trace = m.forward(batch)
    total, breakdown = joint_loss(trace, labels, sensitive, 5.0, 0.0)
    assert breakdown.l_ifc == 0.0
    assert total.item() == joint_loss(trace, labels, sensitive, 0.0, 0.0)[0].item()


def test_divergence_averages_within_groups():
    # rows of group 0 average to [0, 0]; single row of group 1 is [0, ln 3]
    fused = Tensor(np.array([[2.0, -1.0], [-2.0, 1.0], [0.0, np.log(3.0)]]))
    groups = np.array([0, 0, 1])
    p0, p1 = [0.5, 0.5], [0.25, 0.75]
    want = scipy.stats.entropy(p0, p1) + scipy.stats.entropy(p1, p0)
    assert abs(group_divergence_loss(fused, group_means(groups)).item() - want) < 1e-12


# -- cross-entropy gap between groups ------------------------------------------------------


def test_gap_hand_oracle_point_six():
    # per-group cross entropies 0.7 and 0.4 give 2 * |0.7 - 0.4| = 0.6
    pred = col([np.exp(-0.7), np.exp(-0.4)])
    labels = [1.0, 1.0]
    got = group_gap_loss(pred, labels, group_means(np.array([0, 1]))).item()
    assert abs(got - 0.6) < 1e-12


def test_gap_zero_when_group_ce_equal():
    pred = col([0.8, 0.8, 0.8, 0.8])
    labels = [1.0, 1.0, 1.0, 1.0]
    assert group_gap_loss(pred, labels, group_means(np.array([0, 1, 0, 1]))).item() == 0.0


def test_gap_invariant_to_group_relabeling():
    rng = np.random.default_rng(4)
    pred = col(rng.uniform(0.05, 0.95, 12))
    labels = rng.integers(0, 2, 12).astype(float)
    groups = rng.integers(0, 2, 12)
    a = group_gap_loss(pred, labels, group_means(groups)).item()
    b = group_gap_loss(pred, labels, group_means(1 - groups)).item()
    assert a == b


def test_gap_single_group_is_zero():
    assert group_means(np.array([1, 1])) is None
    m, batch, labels, sensitive = one_group_batch()
    trace = m.forward(batch)
    total, breakdown = joint_loss(trace, labels, sensitive, 0.0, 5.0)
    assert breakdown.l_fc == 0.0
    assert total.item() == joint_loss(trace, labels, sensitive, 0.0, 0.0)[0].item()


@pytest.mark.parametrize(
    "loss",
    [
        lambda groups: group_divergence_loss(Tensor(np.zeros((2, 3))), group_means(groups)),
        lambda groups: group_gap_loss(col([0.7, 0.3]), [1.0, 0.0], group_means(groups)),
    ],
    ids=["divergence", "gap"],
)
def test_group_ids_other_than_zero_and_one_are_rejected(loss):
    with pytest.raises(UsageError, match="0 or 1"):
        loss(np.array([0, 2]))


# -- joint objective --------------------------------------------------------------------------


def loss_model(seed=3):
    config = ModelConfig(embed_dim=2, sar_hidden=(5, 4, 3))
    columns = [
        FeatureColumn("job", "categorical", "non_sensitive", cardinality=3),
        FeatureColumn("age", "numerical", "non_sensitive"),
        FeatureColumn("hours", "numerical", "non_sensitive"),
    ]
    m = FairIntModel(columns, config, seed=seed)
    rng = np.random.default_rng(seed + 100)
    batch = {
        "job": rng.integers(0, 4, 10),
        "age": rng.standard_normal(10),
        "hours": rng.standard_normal(10),
    }
    labels = rng.integers(0, 2, 10).astype(float)
    sensitive = rng.integers(0, 2, 10).astype(float)
    return m, batch, labels, sensitive


def split_readout(m, batch):
    # Point the scalar readout orthogonal to the mean pseudo embedding:
    # the readout logits then have exactly zero mean over the batch, so
    # both groups are present, and scaling by the smallest |logit| keeps
    # every row a safe distance from the 0.5 boundary. Finite-difference
    # perturbations therefore cannot flip any row's group.
    P = m.forward(batch).pseudo_embed.values
    mu = P.mean(axis=0)
    v = np.array([-mu[1], mu[0]])
    t = P @ v
    m.params["sar_scalar.w"].values[:] = (v / np.abs(t).min()).reshape(2, 1)


def test_joint_weights_validation():
    m, batch, labels, sensitive = loss_model()
    trace = m.forward(batch)
    bad = [(-1.0, 0.0), (0.0, -0.5), (float("nan"), 1.0), (1.0, float("nan")), (float("inf"), 0.0), (True, 0.0),
           (0.0, "1")]
    for weights in bad:
        with pytest.raises(ConfigError):
            joint_loss(trace, labels, sensitive, *weights)


def test_joint_zero_weights_equals_task_plus_reconstruction():
    m, batch, labels, sensitive = loss_model()
    trace = m.forward(batch)
    total, breakdown = joint_loss(trace, labels, sensitive, 0.0, 0.0)
    direct = ce_loss(trace.prediction, labels).item() + reconstruction_loss(trace.pseudo_scalar, sensitive).item()
    assert total.item() == direct
    assert breakdown.l_ifc == 0.0 and breakdown.l_fc == 0.0


def test_joint_skipped_terms_add_no_graph_nodes():
    m, batch, labels, sensitive = loss_model()
    split_readout(m, batch)
    plain, _ = joint_loss(m.forward(batch), labels, sensitive, 0.0, 0.0)
    weighted, _ = joint_loss(m.forward(batch), labels, sensitive, 1.0, 1.0)
    assert len(graph_nodes(weighted)) > len(graph_nodes(plain))


def test_joint_loss_adds_5_nodes_with_two_groups_and_3_with_one():
    # one node per evaluated term, and one for the weighted total
    ds = split(synth_generate(n=400, bias_strength=2.0, proxy_corr=0.8, seed=7), (0.6, 0.2, 0.2), seed=7)
    batch = full_batch(ds, "train")
    m = FairIntModel(ds.input_columns, ModelConfig(), seed=0)
    groups = assign_groups(m.forward(batch.features).pseudo_scalar)
    assert len(ds.input_columns) == 5 and 0 < groups.sum() < groups.size
    one_group = {name: values[groups == 1] for name, values in batch.features.items()}
    for features, rows, added in [(batch.features, slice(None), 5), (one_group, groups == 1, 3)]:
        trace = m.forward(features)
        forward = {id(n) for t in (trace.prediction, trace.pseudo_scalar, trace.fused) for n in graph_nodes(t)}
        total, _ = joint_loss(trace, batch.labels[rows], batch.true_sensitive[rows], 2.0, 30.0)
        assert len(graph_nodes(total)) - len(forward) == added


def one_group_batch():
    # the rows of loss_model() that share the first row's pseudo-group
    m, batch, labels, sensitive = loss_model()
    groups = assign_groups(m.forward(batch).pseudo_scalar)
    rows = groups == groups[0]
    assert rows.sum() >= 2 and group_means(groups[rows]) is None
    return m, {name: values[rows] for name, values in batch.items()}, labels[rows], sensitive[rows]


def test_a_one_group_batch_leaves_both_penalties_out_like_a_weight_of_0():
    m, one_group, labels, sensitive = one_group_batch()
    runs = []
    for weights in [(2.0, 30.0), (0.0, 0.0)]:
        total, breakdown = joint_loss(m.forward(one_group), labels, sensitive, *weights)
        m.param_grads.fill(0.0)
        backward(total)
        runs.append((total.values.tobytes(), m.param_grads.tobytes(), breakdown))
    (total, grads, breakdown), (plain_total, plain_grads, _) = runs
    assert breakdown.l_ifc == breakdown.l_fc == 0.0
    assert total == plain_total and grads == plain_grads


def test_joint_breakdown_formula_is_exact():
    m, batch, labels, sensitive = loss_model()
    split_readout(m, batch)
    for li, lf in [(0.0, 0.0), (1.0, 0.0), (0.0, 5.0), (2.0, 10.0)]:
        total, b = joint_loss(m.forward(batch), labels, sensitive, li, lf)
        assert b.total == total.item()
        assert b.total == b.l0 + li * b.l_ifc + lf * b.l_fc + b.l_sar
        assert b.l0 >= 0 and b.l_sar >= 0 and b.l_ifc >= 0 and b.l_fc >= 0


def test_joint_doubling_a_weight_doubles_its_contribution():
    m, batch, labels, sensitive = loss_model()
    split_readout(m, batch)
    _, b5 = joint_loss(m.forward(batch), labels, sensitive, 0.0, 5.0)
    _, b10 = joint_loss(m.forward(batch), labels, sensitive, 0.0, 10.0)
    assert b5.l_fc == b10.l_fc
    assert 10.0 * b10.l_fc == 2.0 * (5.0 * b5.l_fc)


def test_joint_gradients_match_finite_differences():
    # seed 3 gives a 5/5 group split with every readout logit at least 1
    # in magnitude; see split_readout for why that makes the check stable
    m, batch, labels, sensitive = loss_model(seed=3)
    split_readout(m, batch)
    weights = (1.0, 1.0)

    trace = m.forward(batch)
    groups = assign_groups(trace.pseudo_scalar)
    assert 0 < groups.sum() < 10, "need both groups present for a meaningful check"

    total, _ = joint_loss(trace, labels, sensitive, *weights)
    backward(total)

    h = 1e-5
    for p in m.params.values():
        analytic = p.grad.copy().reshape(-1)
        flat = p.values.reshape(-1)
        numeric = np.zeros_like(analytic)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = joint_loss(m.forward(batch), labels, sensitive, *weights)[0].item()
            flat[i] = orig - h
            fm = joint_loss(m.forward(batch), labels, sensitive, *weights)[0].item()
            flat[i] = orig
            numeric[i] = (fp - fm) / (2 * h)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
        rel = (np.abs(analytic - numeric) / denom).max()
        assert rel < 1e-3, f"{p.name}: max relative error {rel:.2e}"


def test_breakdown_as_dict_field_names():
    b = LossBreakdown(l0=0.5, l_sar=0.1, l_ifc=0.2, l_fc=0.3, total=1.1)
    assert b.as_dict() == {"l0": 0.5, "l_sar": 0.1, "l_ifc": 0.2, "l_fc": 0.3, "total": 1.1}
