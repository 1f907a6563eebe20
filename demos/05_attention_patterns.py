"""Look at which features the interaction layer attends to, and how much
that changes from row to row.

The attention query is the reconstructed group embedding. Unconstrained,
the proxies take almost all of the weight (one run, Python 3.11, numpy
2.4: proxy1 0.6888, proxy2 0.3094). With the tuned fairness weights the
attention flattens: every feature, proxies and noise alike, gets about
0.20, one fifth, and the mean variance across features falls from
6.54e-02 to 4.63e-06. Uniform attention is not the proxies losing weight
to the other features, and it comes with the collapsed score band that
README's quick start describes, so it does not show that the model
stopped using the group (ROADMAP items 1 and 4).
"""

from dataclasses import replace

from fairint.data import full_batch, split, synth_generate
from fairint.model import ModelConfig, attention_summary
from fairint.training import TrainConfig, train

dataset = split(synth_generate(n=6000, bias_strength=2.0, proxy_corr=0.8, seed=1),
                (0.7, 0.15, 0.15), seed=1)

recipe = TrainConfig(learning_rate=3e-3, batch_size=128, max_epochs=40, patience=40,
                     dropout=0.1, l2=1e-4, seed=0)


def attention_stats(config):
    model, _ = train(dataset, ModelConfig(), config)
    return attention_summary(model, full_batch(dataset, "test").features)[0]["features"]  # single head


for name, config in (
    ("unconstrained", recipe),
    ("tuned fairness weights", replace(recipe, lambda_ifc=5.0, lambda_fc=40.0)),
):
    features = attention_stats(config)
    print(f"{name}: attention weight per feature on the test split")
    for f in features:
        print(f"  {f['feature']:8s} mean {f['mean']:.4f}   variance {f['variance']:.2e}")
    mean_variance = sum(f["variance"] for f in features) / len(features)
    print(f"  mean variance across features: {mean_variance:.2e}\n")
