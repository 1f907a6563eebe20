"""Differential tests: the fused graph trains bit for bit like its op chains.

``graph_oracle`` holds the attention, the output layers and the loss
terms as chains of separate graph nodes. Fair and vanilla training steps built from either
must leave the same parameter bytes and log the same loss values, with
every weight setting, with dropout, with non-default widths, on a
batch whose rows all fall into one group, and on a wide table of mixed
columns, where the attention scores 14 features.
"""

import numpy as np
import pytest

import graph_oracle
from fairint.autodiff import backward, no_grad
from fairint.data import (KIND_CATEGORICAL, KIND_NUMERICAL, ROLE_LABEL, ROLE_NON_SENSITIVE, ROLE_SENSITIVE, Dataset,
                          FeatureColumn, batches, split, synth_generate)
from fairint.losses import LossBreakdown, assign_groups, joint_loss
from fairint.model import FairIntModel, ModelConfig, VanillaModel
from fairint.training import Adam

STEPS = 4
ARCHITECTURES = {
    "default": ModelConfig(),
    "embed_dim 5, two-layer reconstructor": ModelConfig(embed_dim=5, sar_hidden=(8, 6)),
}


@pytest.fixture(scope="module")
def dataset():
    return split(synth_generate(n=800, bias_strength=2.0, proxy_corr=0.8, seed=5), (0.6, 0.2, 0.2), seed=5)


# the category counts of the benchmark's Adult-shaped table
WIDE_CARDINALITIES = (8, 16, 7, 14, 6, 5, 40, 2)


@pytest.fixture(scope="module")
def wide():
    """800 rows of 6 numerical and 8 categorical inputs, split; half of each kind leaks the sensitive column."""
    rng = np.random.default_rng(5)
    n = 800
    s = (rng.random(n) < 0.5).astype(np.int64)
    schema, columns = [], {"s": s}
    for j in range(6):
        schema.append(FeatureColumn(f"x{j}", KIND_NUMERICAL, ROLE_NON_SENSITIVE))
        columns[f"x{j}"] = rng.standard_normal(n) + (j % 2) * s
    for j, cardinality in enumerate(WIDE_CARDINALITIES):
        schema.append(FeatureColumn(f"c{j}", KIND_CATEGORICAL, ROLE_NON_SENSITIVE, cardinality=cardinality))
        ids = rng.integers(0, cardinality, n)
        columns[f"c{j}"] = np.where((j % 2 == 1) & (s == 1) & (rng.random(n) < 0.5), j % cardinality, ids)
    logit = columns["x0"] - columns["x1"] + 0.5 * (columns["c1"] % 3) - 0.5 + s
    columns["y"] = (rng.random(n) < 1.0 / (1.0 + np.exp(-logit))).astype(np.float64)
    schema += [FeatureColumn("s", KIND_CATEGORICAL, ROLE_SENSITIVE, cardinality=2),
               FeatureColumn("y", KIND_NUMERICAL, ROLE_LABEL)]
    vocabularies = {f"c{j}": [f"v{i}" for i in range(c)] for j, c in enumerate(WIDE_CARDINALITIES)}
    table = Dataset(schema=schema, columns=columns, vocabularies=vocabularies | {"s": ["0", "1"]}, n=n)
    return split(table, (0.6, 0.2, 0.2), seed=5)


def train_steps(model, dataset, step_loss):
    """Parameter bytes and logged losses after each of ``STEPS`` Adam steps on ``step_loss``."""
    optimizer = Adam(model.param_values, model.param_grads, 1e-2, l2=1e-4)
    rng = np.random.default_rng(9)
    out = []
    for batch in batches(dataset, "train", 64, seed=0, epoch=0)[:STEPS]:
        total, logged = step_loss(model, batch, rng)
        model.param_grads.fill(0.0)
        backward(total)
        optimizer.step()
        out.append((model.param_values.tobytes(), logged))
    return out


def assert_fair_steps_match_the_op_chains(dataset, config, weights):
    def fused(model, batch, rng):
        trace = model.forward(batch.features, training=True, rng=rng)
        return joint_loss(trace, batch.labels, batch.true_sensitive, *weights)

    def chained(model, batch, rng):
        trace = graph_oracle.fair_forward(model, batch.features, training=True, rng=rng)
        return graph_oracle.joint_loss(trace, batch.labels, batch.true_sensitive, *weights)

    def model():
        return FairIntModel(dataset.input_columns, config, seed=1, dropout=0.1)

    got, want = train_steps(model(), dataset, fused), train_steps(model(), dataset, chained)
    assert got == want
    if weights == (2.0, 30.0):
        assert any(b.l_ifc > 0.0 and b.l_fc > 0.0 for _, b in got)  # both penalties ran


@pytest.mark.parametrize("arch", sorted(ARCHITECTURES))
@pytest.mark.parametrize("weights", [(2.0, 30.0), (0.0, 0.0), (2.0, 0.0), (0.0, 30.0)])
def test_fair_steps_match_the_op_chains(dataset, arch, weights):
    assert_fair_steps_match_the_op_chains(dataset, ARCHITECTURES[arch], weights)


def test_fair_steps_on_a_wide_table_match_the_op_chains(wide):
    assert len(wide.input_columns) == 14
    assert_fair_steps_match_the_op_chains(wide, ModelConfig(), (2.0, 30.0))


def test_a_one_group_step_matches_the_op_chains(dataset):
    model = FairIntModel(dataset.input_columns, ModelConfig(), seed=1)
    batch = batches(dataset, "train", 64, seed=0, epoch=0)[0]
    groups = assign_groups(model.forward(batch.features).pseudo_scalar)
    rows = groups == groups[0]
    assert 0 < rows.sum() < rows.size
    features = {name: values[rows] for name, values in batch.features.items()}
    grads = []
    chained = (lambda f: graph_oracle.fair_forward(model, f), graph_oracle.joint_loss)
    for forward, loss in ((model.forward, joint_loss), chained):
        trace = forward(features)
        total, breakdown = loss(trace, batch.labels[rows], batch.true_sensitive[rows], 2.0, 30.0)
        assert breakdown.l_ifc == 0.0 and breakdown.l_fc == 0.0
        model.param_grads.fill(0.0)
        backward(total)
        grads.append((model.param_grads.tobytes(), breakdown))
    assert grads[0] == grads[1]


def test_vanilla_steps_match_the_op_chains(dataset):
    def fused(model, batch, rng):
        trace = model.forward(batch.features, training=True, rng=rng)
        return joint_loss(trace, batch.labels, batch.true_sensitive)

    def chained(model, batch, rng):
        trace = graph_oracle.vanilla_forward(model, batch.features, training=True, rng=rng)
        total = graph_oracle.ce_loss(trace.prediction, batch.labels)
        return total, LossBreakdown(l0=total.item(), total=total.item())

    def model():
        return VanillaModel(dataset.input_columns, ModelConfig(), seed=1, dropout=0.1)

    assert train_steps(model(), dataset, fused) == train_steps(model(), dataset, chained)


def test_eval_forwards_match_the_op_chains(dataset, wide):
    for table in (dataset, wide):
        features = {c.name: table.columns[c.name] for c in table.input_columns}
        fair = FairIntModel(table.input_columns, ModelConfig(), seed=2)
        vanilla = VanillaModel(table.input_columns, ModelConfig(), seed=2)
        with no_grad():
            got, want = fair.forward(features), graph_oracle.fair_forward(fair, features)
            for name in ("pseudo_scalar", "attention", "fused", "prediction"):
                assert getattr(got, name).values.tobytes() == getattr(want, name).values.tobytes()
            got, want = vanilla.forward(features), graph_oracle.vanilla_forward(vanilla, features)
            assert got.prediction.values.tobytes() == want.prediction.values.tobytes()
