"""Model architecture tests: embeddings, reconstructor, attention, fusion."""

import numpy as np
import pytest

import fairint.autodiff as ad
import fairint.model
from graph_oracle import mean_all
from fairint.autodiff import Tensor, backward
from fairint.data import FeatureColumn, full_batch, split, synth_generate
from fairint.errors import ConfigError, DataError, UsageError
from fairint.losses import assign_groups, ce_loss, joint_loss
from fairint.model import (
    FairIntModel, ForwardTrace, ModelConfig, VanillaModel, _score_blocks, attention_summary, load_model, save_model,
    score_rows,
)
from fairint.training import TrainConfig


def cols(*specs):
    out = []
    for name, kind, card in specs:
        out.append(FeatureColumn(name, kind, "non_sensitive", cardinality=card))
    return out


def small_model(seed=0, dropout=0.0, **config_kwargs):
    config = ModelConfig(embed_dim=2, sar_hidden=(5, 4, 3), **config_kwargs)
    columns = cols(("job", "categorical", 3), ("age", "numerical", None), ("hours", "numerical", None))
    return FairIntModel(columns, config, seed=seed, dropout=dropout)


def block(embeddings, c, d=2):
    """Feature c's (B, d) block of a (B, C*d) embedding tensor."""
    return embeddings.values[:, c * d : (c + 1) * d]


def small_batch(n=6, seed=0):
    rng = np.random.default_rng(seed)
    return {
        "job": rng.integers(0, 4, size=n),  # table size is cardinality 3 plus unknown
        "age": rng.standard_normal(n),
        "hours": rng.standard_normal(n),
    }


# -- configuration ---------------------------------------------------------------


def test_config_defaults_match_reference_setting():
    c = ModelConfig()
    assert c.embed_dim == 4
    assert len(c.sar_hidden) == 3  # plus the output projection: four layers
    assert c.baseline_hidden == (64, 32)
    assert set(c.to_dict()) == {"embed_dim", "sar_hidden", "baseline_hidden"}


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(embed_dim=0)
    with pytest.raises(ConfigError):  # the rate is checked where a training forward applies it
        small_model(dropout=1.0).forward(small_batch(), training=True, rng=np.random.default_rng(0))
    with pytest.raises(ConfigError):
        ModelConfig(sar_hidden=(8, 0))
    for widths in (5, None, "16"):  # not a list of widths
        with pytest.raises(ConfigError, match="sar_hidden must be a list"):
            ModelConfig(sar_hidden=widths)
        with pytest.raises(ConfigError, match="baseline_hidden must be a list"):
            ModelConfig(baseline_hidden=widths)
    with pytest.raises(ConfigError):
        ModelConfig.from_dict({"embed_dim": 4, "mystery": 1})


def test_a_model_needs_an_input_column_and_takes_only_non_sensitive_ones():
    for cls in (FairIntModel, VanillaModel):
        with pytest.raises(ConfigError, match="at least one"):
            cls([], ModelConfig(), seed=0)
        with pytest.raises(UsageError, match="role 'sensitive' cannot be a model input"):
            cls([FeatureColumn("s", "categorical", "sensitive", cardinality=2)], ModelConfig(), seed=0)


def test_a_model_saved_from_an_unstandardized_dataset_records_no_statistics(tmp_path):
    dataset = synth_generate(n=200, bias_strength=2.0, proxy_corr=0.8, seed=1)
    assert dataset.standardize_stats is None
    model = FairIntModel(dataset.input_columns, ModelConfig(), seed=0)
    save_model(model, dataset, tmp_path / "model.bin", TrainConfig())
    loaded, _, meta = load_model(tmp_path / "model.bin")
    assert meta["standardize_stats"] is None
    assert loaded.param_values.tobytes() == model.param_values.tobytes()


def test_config_dict_round_trip():
    c = ModelConfig(embed_dim=3, sar_hidden=(5,), baseline_hidden=(7, 2))
    assert ModelConfig.from_dict(c.to_dict()) == c


# -- embeddings --------------------------------------------------------------------


def test_numerical_zero_embeds_to_zero_vector():
    m = small_model()
    emb = m.embed_features({"job": np.array([0]), "age": np.array([0.0]), "hours": np.array([2.0])})
    assert emb.shape == (1, 6)
    np.testing.assert_array_equal(block(emb, 1), np.zeros((1, 2)))
    assert not np.allclose(block(emb, 2), 0.0)


def test_categorical_id_selects_table_column():
    m = small_model()
    table = m.params["embed.job"].values
    emb = m.embed_features({"job": np.array([2, 0]), "age": np.zeros(2), "hours": np.zeros(2)})
    np.testing.assert_array_equal(block(emb, 0)[0], table[:, 2])
    np.testing.assert_array_equal(block(emb, 0)[1], table[:, 0])


def test_equal_rows_get_equal_embeddings_and_predictions():
    m = small_model()
    batch = {"job": np.array([1, 1]), "age": np.array([0.3, 0.3]), "hours": np.array([-1.0, -1.0])}
    embeddings = m.embed_features(batch).values
    np.testing.assert_array_equal(embeddings[0], embeddings[1])
    prediction = m.forward(batch).prediction.values
    np.testing.assert_array_equal(prediction[0], prediction[1])


def test_missing_feature_column_raises():
    m = small_model()
    with pytest.raises(DataError, match="missing feature"):
        m.embed_features({"job": np.array([0]), "age": np.array([1.0])})


# -- sensitive attribute reconstructor ----------------------------------------------


def test_sar_zero_scalar_weights_give_half():
    m = small_model()
    m.params["sar_scalar.w"].values[:] = 0.0
    trace = m.forward(small_batch())
    np.testing.assert_array_equal(trace.pseudo_scalar.values, np.full((6, 1), 0.5))


def test_sar_output_width_is_embed_dim_regardless_of_feature_count():
    config = ModelConfig(embed_dim=3, sar_hidden=(4, 4, 4))
    one = FairIntModel(cols(("a", "numerical", None)), config, seed=1)
    five = FairIntModel(
        cols(*[(f"f{i}", "numerical", None) for i in range(5)]), config, seed=1
    )
    b1 = {"a": np.ones(2)}
    b5 = {f"f{i}": np.ones(2) for i in range(5)}
    assert one.sar_forward(one.embed_features(b1))[0].shape == (2, 3)
    assert five.sar_forward(five.embed_features(b5))[0].shape == (2, 3)
    assert one.sar_forward(one.embed_features(b1))[1].shape == (2, 1)


# -- attention -----------------------------------------------------------------------


def test_attention_uniform_when_scores_equal():
    m = small_model()
    m.params["bid.h0.query"].values[:] = 0.0  # all scores collapse to 0
    trace = m.forward(small_batch())
    np.testing.assert_allclose(trace.attention.values, np.full((6, 3), 1.0 / 3.0), atol=1e-12)


def test_attention_single_feature_weight_is_one():
    config = ModelConfig(embed_dim=2, sar_hidden=(3,))
    m = FairIntModel(cols(("only", "numerical", None)), config, seed=0)
    trace = m.forward({"only": np.array([0.5, -2.0])})
    np.testing.assert_allclose(trace.attention.values, np.ones((2, 1)), atol=1e-12)


def test_attention_log2_oracle():
    # scores [ln 2, 0] must normalize to [2/3, 1/3]
    config = ModelConfig(embed_dim=1, sar_hidden=(2,))
    m = FairIntModel(cols(("a", "numerical", None), ("b", "numerical", None)), config, seed=0)
    m.params["bid.h0.query"].values[:] = 1.0
    m.params["bid.h0.key"].values[:] = 1.0
    pseudo = Tensor([[1.0]])
    embeddings = Tensor([[np.log(2.0), 0.0]])  # features a and b, one column each
    weights = m.bid_attention(pseudo, embeddings)
    np.testing.assert_allclose(weights.values, [[2.0 / 3.0, 1.0 / 3.0]], atol=1e-12)


def test_attention_rows_normalized_and_one_score_per_feature():
    m = small_model(seed=3)
    attention = m.forward(small_batch(n=8)).attention
    assert attention.shape == (8, 3)  # |C| scores per row, not |C| squared
    np.testing.assert_allclose(attention.values.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(attention.values > 0.0) and np.all(attention.values < 1.0)


# -- interaction and fusion ------------------------------------------------------------


def test_interaction_single_feature_is_value_projection():
    config = ModelConfig(embed_dim=2, sar_hidden=(3,))
    m = FairIntModel(cols(("only", "numerical", None)), config, seed=2)
    emb = m.embed_features({"only": np.array([1.3, -0.7])})
    attn = Tensor(np.ones((2, 1)))
    got = m.interaction_embedding(attn, emb)
    want = emb.values @ m.params["bid.h0.value"].values
    np.testing.assert_allclose(got.values, want, atol=1e-12)


def test_interaction_weights_one_zero_select_first_feature():
    m = small_model(seed=5)
    emb = m.embed_features(small_batch(n=2))
    attn = Tensor(np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
    got = m.interaction_embedding(attn, emb)
    want = block(emb, 0) @ m.params["bid.h0.value"].values
    np.testing.assert_allclose(got.values, want, atol=1e-12)


def test_interaction_and_fusion_are_embed_dim_wide():
    m = small_model(seed=1)
    batch = small_batch(n=4)
    trace = m.forward(batch)
    assert m.interaction_embedding(trace.attention, m.embed_features(batch)).shape == (4, 2)
    assert trace.fused.shape == (4, 2)


def test_residual_fuse_relu_oracle():
    m = small_model(seed=0)
    m.params["fuse.w_res"].values[:] = np.eye(2)
    interaction = Tensor(np.zeros((1, 2)))
    pseudo = Tensor(np.array([[-1.0, 2.0]]))
    fused = m.residual_fuse(interaction, pseudo)
    np.testing.assert_array_equal(fused.values, [[0.0, 2.0]])
    both_zero = m.residual_fuse(Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 2))))
    np.testing.assert_array_equal(both_zero.values, [[0.0, 0.0]])


def test_residual_fuse_gradient_reaches_both_branches():
    m = small_model(seed=7)
    batch = small_batch(n=5, seed=7)

    def loss():
        return mean_all(m.forward(batch).prediction)

    root = loss()
    backward(root)
    for name in ("fuse.w_res", "bid.h0.value"):
        g = m.params[name].grad
        assert np.any(g != 0.0), f"{name} received no gradient"


# -- prediction head ---------------------------------------------------------------------


def test_predict_zero_weights_give_half():
    m = small_model()
    m.params["head.layer0.w"].values[:] = 0.0
    m.params["head.layer0.b"].values[:] = 0.0
    trace = m.forward(small_batch())
    np.testing.assert_array_equal(trace.prediction.values, np.full((6, 1), 0.5))


def test_predict_monotone_in_logit():
    m = small_model()
    m.params["head.layer0.w"].values[:] = [[1.0], [0.0]]
    m.params["head.layer0.b"].values[:] = 0.0
    fused = Tensor(np.array([[-2.0, 9.9], [0.0, 9.9], [3.0, 9.9]]))
    p = m.predict(fused).values.ravel()
    assert p[0] < p[1] < p[2]
    assert np.all((p > 0.0) & (p < 1.0))


# -- order invariance ----------------------------------------------------------------------


def test_permuting_feature_order_permutes_attention_and_keeps_output():
    m = small_model(seed=11)
    batch = small_batch(n=7, seed=3)
    trace = m.forward(batch)
    order = ["hours", "job", "age"]  # permutation of schema order [job, age, hours]
    perm = [m.feature_names.index(name) for name in order]

    # same parameters on permuted columns; the reconstructor reads the
    # concatenated embeddings, so its first layer's row blocks move too
    permuted = FairIntModel([m.input_columns[c] for c in perm], m.config, seed=0)
    arrays = m.parameter_arrays()
    d = m.config.embed_dim
    w = arrays["sar.layer0.w"]
    arrays["sar.layer0.w"] = np.concatenate([w[c * d : (c + 1) * d] for c in perm])
    permuted.load_arrays(arrays)
    other = permuted.forward(batch)

    np.testing.assert_allclose(other.attention.values, trace.attention.values[:, perm], atol=1e-12)
    interaction = m.interaction_embedding(trace.attention, m.embed_features(batch))
    other_interaction = permuted.interaction_embedding(other.attention, permuted.embed_features(batch))
    np.testing.assert_allclose(other_interaction.values, interaction.values, atol=1e-12)
    np.testing.assert_allclose(other.prediction.values, trace.prediction.values, atol=1e-12)


# -- graph size ------------------------------------------------------------------------------


@pytest.mark.parametrize("kind, card", [("numerical", None), ("categorical", 2)])
def test_each_added_feature_adds_zero_nodes_to_a_fair_step(kind, card):
    # one gather embeds every feature from one leaf over all the tables;
    # attention scores and pooling are one node each whatever the feature count
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 2, size=32).astype(np.float64)
    sensitive = rng.integers(0, 2, size=32).astype(np.float64)

    def step_nodes(columns):
        m = FairIntModel(columns, ModelConfig(), seed=3)
        features = {c.name: rng.integers(0, 2, size=32) if c.kind == "categorical" else rng.standard_normal(32)
                    for c in columns}
        trace = m.forward(features, training=True)
        assert set(assign_groups(trace.pseudo_scalar)) == {0, 1}  # both penalties run
        total, _ = joint_loss(trace, labels, sensitive, 2.0, 30.0)
        return len(ad.graph_nodes(total))

    base = small_model().input_columns
    assert step_nodes(base + cols(("extra", kind, card))) == step_nodes(base)


def test_default_architecture_builds_31_nodes_per_fair_step_and_12_per_vanilla_step():
    # the graphs the benchmark counts per step: a training forward with dropout, then
    # the joint loss with both penalties active, or the vanilla model's, whose one row is its cross-entropy
    ds = split(synth_generate(n=400, bias_strength=2.0, proxy_corr=0.8, seed=7), (0.6, 0.2, 0.2), seed=7)
    batch = full_batch(ds, "train")
    config = ModelConfig()
    trace = FairIntModel(ds.input_columns, config, seed=0, dropout=0.1).forward(
        batch.features, training=True, rng=np.random.default_rng(0))
    assert set(assign_groups(trace.pseudo_scalar)) == {0, 1}
    total, _ = joint_loss(trace, batch.labels, batch.true_sensitive, 2.0, 30.0)
    assert len(ad.graph_nodes(total)) == 31
    trace = VanillaModel(ds.input_columns, config, seed=0, dropout=0.1).forward(
        batch.features, training=True, rng=np.random.default_rng(0))
    total, _ = joint_loss(trace, batch.labels, batch.true_sensitive)
    assert len(ad.graph_nodes(total)) == 12


# -- determinism and dropout -----------------------------------------------------------------


def test_forward_is_deterministic_in_eval_mode():
    a = small_model(seed=4).forward(small_batch(seed=9))
    b = small_model(seed=4).forward(small_batch(seed=9))
    assert a.prediction.values.tobytes() == b.prediction.values.tobytes()
    c = small_model(seed=5).forward(small_batch(seed=9))
    assert a.prediction.values.tobytes() != c.prediction.values.tobytes()


def test_dropout_needs_generator_and_perturbs_training_forward():
    m = small_model(seed=0, dropout=0.5)
    batch = small_batch()
    with pytest.raises(UsageError, match="generator"):
        m.forward(batch, training=True)
    t1 = m.forward(batch, training=True, rng=np.random.default_rng(1))
    t2 = m.forward(batch, training=True, rng=np.random.default_rng(2))
    assert t1.prediction.values.tobytes() != t2.prediction.values.tobytes()
    # eval mode ignores dropout entirely
    e1 = m.forward(batch)
    e2 = m.forward(batch)
    assert e1.prediction.values.tobytes() == e2.prediction.values.tobytes()


# -- vanilla baseline ---------------------------------------------------------------------------


def test_vanilla_zero_weights_give_half():
    config = ModelConfig(embed_dim=2, baseline_hidden=(4,))
    m = VanillaModel(cols(("a", "numerical", None), ("b", "categorical", 2)), config, seed=0)
    m.params["mlp.layer1.w"].values[:] = 0.0
    out = m.forward({"a": np.array([1.0, -1.0]), "b": np.array([0, 1])})
    np.testing.assert_array_equal(out.prediction.values, np.full((2, 1), 0.5))


def test_vanilla_forward_is_a_trace_of_its_prediction_alone():
    m = VanillaModel(small_model().input_columns, ModelConfig(), seed=3, dropout=0.5)
    batch = small_batch(n=9)
    assert list(ForwardTrace.__dataclass_fields__) == ["prediction", "pseudo_scalar", "attention", "fused"]
    for training in (False, True):
        trace = m.forward(batch, training=training, rng=np.random.default_rng(1))
        mlp = m._run_mlp("mlp", m.embed_features(batch), training, np.random.default_rng(1), output="sigmoid")
        assert isinstance(trace, ForwardTrace)
        assert trace.prediction.values.tobytes() == mlp.values.tobytes()
        assert trace.pseudo_scalar is None and trace.attention is None and trace.fused is None


def test_vanilla_deterministic_and_seed_sensitive():
    config = ModelConfig(embed_dim=2, baseline_hidden=(8, 4))
    columns = cols(("a", "numerical", None), ("b", "numerical", None))
    batch = {"a": np.array([0.1, 0.2, 0.3]), "b": np.array([-1.0, 0.0, 1.0])}
    a = VanillaModel(columns, config, seed=1).forward(batch).prediction
    b = VanillaModel(columns, config, seed=1).forward(batch).prediction
    c = VanillaModel(columns, config, seed=2).forward(batch).prediction
    assert a.values.tobytes() == b.values.tobytes()
    assert a.values.tobytes() != c.values.tobytes()


# -- blocked scoring -------------------------------------------------------------------------------

B = 64  # the block size these tests score in; a block then has 64 to 127 rows
BLOCKED_ROW_COUNTS = [1, B - 1, B, B + 1, 2 * B - 1, 2 * B + 1, 3 * B + 5]
# the default widths, so each matrix product is as wide as the benchmark's
SCORED_MODELS = {
    "fair": lambda: FairIntModel(small_model().input_columns, ModelConfig(), seed=3),
    "vanilla": lambda: VanillaModel(small_model().input_columns, ModelConfig(), seed=3),
}


@pytest.fixture
def blocks_of_64(monkeypatch):
    monkeypatch.setattr(fairint.model, "SCORE_BLOCK_ROWS", B)


@pytest.mark.parametrize("kind", SCORED_MODELS)
@pytest.mark.parametrize("n", BLOCKED_ROW_COUNTS)
def test_blocked_scores_equal_one_forward_over_all_rows_bit_for_bit(blocks_of_64, kind, n):
    model = SCORED_MODELS[kind]()
    batch = small_batch(n=n, seed=n)
    prediction, pseudo = score_rows(model, batch)
    with ad.no_grad():
        whole = model.forward(batch)
    if kind == "fair":
        assert pseudo.tobytes() == whole.pseudo_scalar.values.reshape(-1).tobytes()
        blocks = []
        _score_blocks(model, batch, lambda rows, out: blocks.append(out.attention.values))
        assert np.concatenate(blocks).tobytes() == whole.attention.values.tobytes()
    else:
        assert pseudo is None
    assert prediction.shape == (n,) and prediction.tobytes() == whole.prediction.values.reshape(-1).tobytes()


@pytest.mark.parametrize("n", BLOCKED_ROW_COUNTS)
def test_blocked_attention_summary_equals_the_single_block_one(monkeypatch, n):
    model = small_model(seed=5)
    batch = small_batch(n=n, seed=n)
    monkeypatch.setattr(fairint.model, "SCORE_BLOCK_ROWS", 10 * n)
    whole = attention_summary(model, batch)
    monkeypatch.setattr(fairint.model, "SCORE_BLOCK_ROWS", B)
    assert attention_summary(model, batch) == whole


def test_a_vanilla_model_has_no_attention_to_summarize():
    assert attention_summary(SCORED_MODELS["vanilla"](), small_batch(n=5)) == []


def test_a_bad_id_in_a_later_block_raises_as_in_one_forward(blocks_of_64):
    batch = small_batch(n=3 * B + 5)
    batch["job"][2 * B + 1] = 99
    with pytest.raises(DataError, match="out of range"):
        score_rows(small_model(), batch)


# -- whole-model gradient check ------------------------------------------------------------------


def param_fd_max_rel_err(model, loss_fn, name, h=1e-5):
    p = model.params[name]
    root = loss_fn()
    model.param_grads.fill(0.0)
    backward(root)
    analytic = p.grad.copy()
    numeric = np.zeros_like(analytic)
    flat = p.values.reshape(-1)
    out = numeric.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = loss_fn().item()
        flat[i] = orig - h
        fm = loss_fn().item()
        flat[i] = orig
        out[i] = (fp - fm) / (2 * h)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    return float((np.abs(analytic - numeric) / denom).max())


def test_full_network_gradients_match_finite_differences():
    m = small_model(seed=13)
    batch = small_batch(n=6, seed=13)
    labels = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 0.0])

    def loss():
        return ce_loss(m.forward(batch).prediction, labels)

    for name in (
        "embed.job",
        "embed.age",
        "sar.layer0.w",
        "sar.layer3.w",
        "sar_scalar.w",
        "bid.h0.query",
        "bid.h0.key",
        "bid.h0.value",
        "fuse.w_res",
        "head.layer0.w",
        "head.layer0.b",
    ):
        err = param_fd_max_rel_err(m, loss, name)
        assert err < 1e-3, f"{name}: max relative error {err:.2e}"


def test_parameter_arrays_round_trip_between_models(tmp_path):
    m1 = small_model(seed=20)
    path = tmp_path / "m.bin"
    ad.save_parameters(path, m1.parameter_arrays(), {"note": "round trip"})
    arrays, meta = ad.load_parameters(path)
    m2 = small_model(seed=99)  # different init, same architecture
    m2.load_arrays(arrays)
    batch = small_batch(seed=42)
    a = m1.forward(batch).prediction.values
    b = m2.forward(batch).prediction.values
    assert a.tobytes() == b.tobytes()


def test_load_arrays_rejects_mismatches():
    m = small_model()
    good = m.parameter_arrays()
    bad_names = dict(good)
    bad_names.pop("fuse.w_res")
    with pytest.raises(DataError, match="names"):
        m.load_arrays(bad_names)
    bad_shape = {k: v.copy() for k, v in good.items()}
    bad_shape["fuse.w_res"] = np.zeros((3, 3))
    with pytest.raises(DataError, match="shape"):
        m.load_arrays(bad_shape)
