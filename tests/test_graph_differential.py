"""Differential tests: the fused graph trains bit for bit like its op chains.

``graph_oracle`` holds the attention, the output layers and the loss
terms as chains of separate graph nodes. Fair and vanilla training steps built from either
must leave the same parameter bytes and log the same loss values, with
every weight setting, with dropout, with non-default widths, and on a
batch whose rows all fall into one group.
"""

import numpy as np
import pytest

import graph_oracle
from fairint.autodiff import backward, no_grad
from fairint.data import batches, split, synth_generate
from fairint.losses import assign_groups, ce_loss, joint_loss
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


@pytest.mark.parametrize("arch", sorted(ARCHITECTURES))
@pytest.mark.parametrize("weights", [(2.0, 30.0), (0.0, 0.0), (2.0, 0.0), (0.0, 30.0)])
def test_fair_steps_match_the_op_chains(dataset, arch, weights):
    config = ARCHITECTURES[arch]

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
        total = ce_loss(model.forward(batch.features, training=True, rng=rng), batch.labels)
        return total, total.item()

    def chained(model, batch, rng):
        pred = graph_oracle.vanilla_forward(model, batch.features, training=True, rng=rng)
        total = graph_oracle.ce_loss(pred, batch.labels)
        return total, total.item()

    def model():
        return VanillaModel(dataset.input_columns, ModelConfig(), seed=1, dropout=0.1)

    assert train_steps(model(), dataset, fused) == train_steps(model(), dataset, chained)


def test_eval_forwards_match_the_op_chains(dataset):
    features = {c.name: dataset.columns[c.name] for c in dataset.input_columns}
    fair = FairIntModel(dataset.input_columns, ModelConfig(), seed=2)
    vanilla = VanillaModel(dataset.input_columns, ModelConfig(), seed=2)
    with no_grad():
        got, want = fair.forward(features), graph_oracle.fair_forward(fair, features)
        for name in ("pseudo_scalar", "fused", "prediction"):
            assert getattr(got, name).values.tobytes() == getattr(want, name).values.tobytes()
        got, want = vanilla.forward(features), graph_oracle.vanilla_forward(vanilla, features)
        assert got.values.tobytes() == want.values.tobytes()
