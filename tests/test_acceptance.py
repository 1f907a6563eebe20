"""The shipping gate: one test per release criterion, at its stated tolerance.

Run with -v to read the checklist one line per criterion. The benchmark
training runs all share one module-scoped cache keyed by their settings,
so the whole file costs a few minutes on one CPU core; everything is
seeded and bit-reproducible, so a pass here is a pass everywhere.
"""

import ast
import json
import math
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import fairint.autodiff as ad
from fairint.autodiff import Tensor, backward
from fairint.cli import main
from fairint.data import full_batch, load_csv, load_schema, split, synth_generate
from fairint.losses import ce_loss, group_divergence_loss, group_gap_loss, group_means, joint_loss
from fairint.metrics import auc_roc, delta_dp, delta_eo, threshold_labels
from fairint.model import FairIntModel, ModelConfig
from fairint.training import TrainConfig, evaluate_model, train

from graph_oracle import mul, sum_all
from test_autodiff import check_gradients

# the committed benchmark recipe; every cached run below uses it
RECIPE = TrainConfig(
    learning_rate=3e-3,
    batch_size=128,
    max_epochs=60,
    patience=60,
    dropout=0.1,
    l2=1e-4,
    seed=0,
)
TUNED_LAMBDA_IFC = 2.0
TUNED_LAMBDA_FC = 30.0
LAMBDA_GRID = [(li, lf) for li in (0.0, 2.0, 10.0) for lf in (0.0, 30.0, 50.0)]
SEEDS3 = (0, 1, 2)


def benchmark_dataset(proxy_corr):
    raw = synth_generate(n=20000, bias_strength=2.0, proxy_corr=proxy_corr, seed=1)
    return split(raw, (0.7, 0.15, 0.15), seed=1)


@pytest.fixture(scope="module")
def synth20k():
    return benchmark_dataset(0.8)


@pytest.fixture(scope="module")
def runs(synth20k):
    """Lazy cache of benchmark training runs: (model, history, test report)."""
    cache = {}

    def get(lambda_ifc=0.0, lambda_fc=0.0, seed=0, enable_bid=True, dataset=None, tag="rho08"):
        ds = synth20k if dataset is None else dataset
        key = (tag, float(lambda_ifc), float(lambda_fc), int(seed), bool(enable_bid))
        if key not in cache:
            config = replace(
                RECIPE,
                lambda_ifc=float(lambda_ifc),
                lambda_fc=float(lambda_fc),
                seed=int(seed),
                enable_bid=enable_bid,
            )
            model, history = train(ds, ModelConfig(), config)
            report = evaluate_model(model, ds, "test")
            cache[key] = (model, history, report)
        return cache[key]

    return get


# -- 1: gradient correctness -----------------------------------------------------


# the exports of autodiff that are not differentiable operations
NON_OP_EXPORTS = {"Tensor", "backward", "graph_nodes", "no_grad", "pack_parameters",
                  "save_parameters", "load_parameters"}


def c1_op_cases(rng):
    """(name, build, arrays) per op case; a name's first word is the op it checks."""

    def smooth(*shape):
        # magnitudes in [0.1, 1] with random signs: clear of the ReLU kink
        return rng.uniform(0.1, 1.0, shape) * np.where(rng.random(shape) < 0.5, -1.0, 1.0)

    # a (2, 3) categorical table and two (1, 2) numerical rows, laid out flat as
    # a model's tables are; the batch repeats ids and rows, each row is scaled
    tables = rng.standard_normal(10)
    index = np.array([[0, 3, 6, 7], [2, 5, 6, 7], [2, 5, 8, 9], [1, 4, 8, 9]])
    scale = np.array([[1.0, 0.4], [1.0, -1.3], [1.0, 2.0], [1.0, 0.5]])  # one per block of 2
    drop_rng = lambda: np.random.default_rng(3)  # fresh identical mask every call
    labels = np.array([[0.0], [1.0], [1.0], [0.0], [1.0]])
    mix = np.stack([labels[:, 0] == 0, labels[:, 0] == 1]) / np.array([[2.0], [3.0]])  # two group means
    return [
        ("softmax_lastdim", lambda xs: sum_all(mul(ad.softmax_lastdim(xs[0]), xs[1])),
         [smooth(3, 5), smooth(3, 5)]),
        ("concat_lastdim", lambda xs: sum_all(mul(ad.concat_lastdim([xs[0], xs[1]]), 0.5)),
         [smooth(3, 2), smooth(3, 3)]),
        ("feature_scores", lambda xs: sum_all(mul(ad.feature_scores(xs[0], xs[1], xs[2]), xs[3])),
         [smooth(3, 6), smooth(2, 4), smooth(3, 4), smooth(3, 3)]),
        ("feature_pool", lambda xs: sum_all(mul(ad.feature_pool(xs[0], xs[1], xs[2]), xs[3])),
         [smooth(3, 6), smooth(2, 4), smooth(3, 3), smooth(3, 4)]),
        ("mean_all", lambda xs: ad.mean_all(mul(xs[0], xs[0])), [smooth(3, 4)]),
        ("gather_scale", lambda xs: sum_all(mul(ad.gather_scale(xs[0], index, scale), xs[1])),
         [tables, smooth(4, 4)]),
        ("dense linear", lambda xs: sum_all(mul(ad.dense(xs[0], xs[1], xs[2]), xs[3])),
         [smooth(4, 3), smooth(3, 5), smooth(5), smooth(4, 5)]),
        ("dense relu", lambda xs: sum_all(mul(ad.dense(xs[0], xs[1], xs[2], "relu"), xs[3])),
         [smooth(4, 3), smooth(3, 5), smooth(5), smooth(4, 5)]),
        ("dense relu dropout=0.4",
         lambda xs: sum_all(mul(ad.dense(xs[0], xs[1], xs[2], "relu", rate=0.4, rng=drop_rng()), xs[3])),
         [smooth(4, 3), smooth(3, 5), smooth(5), smooth(4, 5)]),
        ("row_cross_entropy labels 0 and 1", lambda xs: sum_all(mul(ad.row_cross_entropy(xs[0], labels), xs[1])),
         [rng.uniform(0.05, 0.95, (5, 1)), smooth(5, 1)]),
        ("dense sigmoid", lambda xs: sum_all(mul(ad.dense(xs[0], xs[1], xs[2], "sigmoid"), xs[3])),
         [smooth(4, 3), smooth(3, 5), smooth(5), smooth(4, 5)]),
        ("dense sigmoid without bias", lambda xs: sum_all(mul(ad.dense(xs[0], xs[1], None, "sigmoid"), xs[2])),
         [smooth(4, 3), smooth(3, 1), smooth(4, 1)]),
        ("dense relu with an addend", lambda xs: sum_all(mul(ad.dense(xs[0], xs[1], xs[2], "relu"), xs[3])),
         [smooth(4, 3), smooth(3, 5), smooth(4, 5), smooth(4, 5)]),
        ("mean_squared_error", lambda xs: ad.mean_squared_error(xs[0], labels), [rng.uniform(0.05, 0.95, (5, 1))]),
        ("symmetric_kl", lambda xs: ad.symmetric_kl(xs[0], mix), [smooth(5, 3)]),
        ("abs_gap", lambda xs: ad.abs_gap(xs[0], mix, 2.0), [rng.uniform(0.1, 2.0, (5, 1))]),
        ("weighted_sum", lambda xs: sum_all(mul(ad.weighted_sum([xs[0], xs[1]], [1.0, -2.5]), xs[2])),
         [smooth(3, 4), smooth(3, 4), smooth(3, 4)]),
    ]


def test_c1_gradients_match_finite_differences():
    op_cases = c1_op_cases(np.random.default_rng(11))
    for name, build, arrays in op_cases:
        check_gradients(build, arrays, tol=1e-4)

    # full joint loss on a 10-row synthetic batch, every term active
    arch = ModelConfig(embed_dim=3, attention_heads=2, sar_hidden=(6, 5, 4))
    ds = split(synth_generate(300, 2.0, 0.8, seed=2), (0.7, 0.15, 0.15), seed=2)
    warmup = TrainConfig(
        lambda_ifc=TUNED_LAMBDA_IFC, lambda_fc=TUNED_LAMBDA_FC, learning_rate=1e-2,
        batch_size=64, max_epochs=3, patience=3, dropout=0.0, l2=0.0, seed=0,
    )
    # a few optimization steps move the reconstructor off its 0.5 start so
    # both pseudo-groups appear and the fairness terms contribute
    pretrained, _ = train(ds, arch, warmup)
    model = FairIntModel(ds.input_columns, arch, seed=0)
    model.load_arrays(pretrained.parameter_arrays())

    feats = {c.name: ds.columns[c.name][:10] for c in ds.input_columns}
    labels = ds.columns["y"][:10]
    sensitive = ds.columns["s"][:10]

    def total():
        trace = model.forward(feats, training=False)
        return joint_loss(trace, labels, sensitive, TUNED_LAMBDA_IFC, TUNED_LAMBDA_FC)

    root, breakdown = total()
    assert breakdown.l_ifc > 0.0 and breakdown.l_fc > 0.0
    backward(root)

    h = 1e-5
    worst = 0.0
    for p in model.params.values():
        flat = p.values.reshape(-1)
        grad = p.grad.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up = total()[0].item()
            flat[i] = keep - h
            down = total()[0].item()
            flat[i] = keep
            numeric = (up - down) / (2 * h)
            denom = max(abs(grad[i]), abs(numeric), 1e-6)
            worst = max(worst, abs(grad[i] - numeric) / denom)
    assert worst < 1e-3, f"max relative error {worst:.3e}"


def test_c1_covers_every_autodiff_op():
    # a new op, fused or not, cannot land without a finite-difference case above
    assert NON_OP_EXPORTS <= set(ad.__all__)
    covered = {name.split()[0] for name, _, _ in c1_op_cases(np.random.default_rng(0))}
    missing = set(ad.__all__) - NON_OP_EXPORTS - covered
    assert not missing, f"autodiff ops without a c1 case: {sorted(missing)}"


def test_every_autodiff_op_is_called_by_the_library():
    # autodiff ships exactly the ops the models and losses run: an op that a fusion
    # leaves uncalled is deleted, and its chain form kept only in graph_oracle
    called = set()
    for path in Path(ad.__file__).parent.glob("*.py"):
        if path.name != "autodiff.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    called.add(getattr(node.func, "attr", getattr(node.func, "id", None)))
    unused = set(ad.__all__) - NON_OP_EXPORTS - called
    assert not unused, f"autodiff ops that nothing in fairint calls: {sorted(unused)}"


# -- 2: loss oracles --------------------------------------------------------------


def test_c2_loss_value_oracles():
    # group means softmax to [1/2, 1/2] and [1/4, 3/4]; symmetric KL between them
    fused = Tensor(np.array([[0.0, 0.0], [0.0, np.log(3.0)]]))
    divergence = group_divergence_loss(fused, group_means(np.array([0, 1]))).item()
    assert abs(divergence - 0.27471) <= 1e-4

    # per-group cross entropies 0.7 and 0.4: the gap 2 * |0.7 - 0.4| is 0.6
    pred = Tensor(np.array([[np.exp(-0.7)], [np.exp(-0.4)]]))
    labels = np.array([1.0, 1.0])
    gap = group_gap_loss(pred, labels, group_means(np.array([0, 1]))).item()
    assert abs(gap - 0.6) <= 1e-12

    # the maximally uncertain classifier scores ln 2 whatever the labels
    constant = Tensor(np.full((8, 1), 0.5))
    y = np.array([0.0, 1.0] * 4)
    assert abs(ce_loss(constant, y).item() - math.log(2.0)) <= 1e-12


# -- 3: metric oracles ------------------------------------------------------------


def _brute_rates(pred, y, s, group):
    tp = fn = fp = tn = 0
    for p_i, y_i, s_i in zip(pred, y, s):
        if s_i != group:
            continue
        if y_i == 1:
            tp, fn = tp + (p_i == 1), fn + (p_i == 0)
        else:
            fp, tn = fp + (p_i == 1), tn + (p_i == 0)
    return tp / (tp + fn), fp / (fp + tn)


def test_c3_metrics_match_brute_force_counting():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 50:
        n = int(rng.integers(20, 301))
        scores = rng.random(n)
        y = (rng.random(n) < rng.uniform(0.2, 0.8)).astype(int)
        s = (rng.random(n) < rng.uniform(0.2, 0.8)).astype(int)
        ok = all(
            ((s == g) & (y == 1)).any() and ((s == g) & (y == 0)).any() for g in (0, 1)
        )
        if not ok:
            continue
        checked += 1
        pred = threshold_labels(scores, 0.5)

        rate0 = sum(p for p, g in zip(pred, s) if g == 0) / sum(1 for g in s if g == 0)
        rate1 = sum(p for p, g in zip(pred, s) if g == 1) / sum(1 for g in s if g == 1)
        assert abs(delta_dp(pred, s) - abs(rate0 - rate1)) <= 1e-12

        tpr0, fpr0 = _brute_rates(pred, y, s, 0)
        tpr1, fpr1 = _brute_rates(pred, y, s, 1)
        assert abs(delta_eo(pred, y, s) - (abs(tpr0 - tpr1) + abs(fpr0 - fpr1))) <= 1e-12

        pairs = wins = 0.0
        for i in range(n):
            for j in range(n):
                if y[i] == 1 and y[j] == 0:
                    pairs += 1
                    wins += 1.0 if scores[i] > scores[j] else 0.5 if scores[i] == scores[j] else 0.0
        assert abs(auc_roc(scores, y) - wins / pairs) <= 1e-12

    assert auc_roc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75


# -- 4: bias mitigation against the unmitigated baseline --------------------------


def test_c4_grid_point_beats_vanilla_on_both_gaps(runs):
    _, _, vanilla = runs(enable_bid=False)
    reports = [runs(lambda_ifc=li, lambda_fc=lf)[2] for li, lf in LAMBDA_GRID]
    feasible = [
        r
        for r in reports
        if r.ddp <= 0.7 * vanilla.ddp
        and r.deo <= 0.7 * vanilla.deo
        and abs(r.auc - vanilla.auc) <= 0.03
    ]
    summary = ", ".join(
        f"({li:g},{lf:g}): auc={r.auc:.4f} ddp={r.ddp:.4f} deo={r.deo:.4f}"
        for (li, lf), r in zip(LAMBDA_GRID, reports)
    )
    assert feasible, (
        f"no grid point reached ddp<={0.7 * vanilla.ddp:.4f}, deo<={0.7 * vanilla.deo:.4f}"
        f" within 0.03 AUC of vanilla {vanilla.auc:.4f}; grid: {summary}"
    )


# -- 5: ablation ordering ----------------------------------------------------------


def _seed_means(runs, lambda_ifc, lambda_fc):
    reports = [runs(lambda_ifc=lambda_ifc, lambda_fc=lambda_fc, seed=s)[2] for s in SEEDS3]
    return (
        float(np.mean([r.ddp for r in reports])),
        float(np.mean([r.deo for r in reports])),
    )


def test_c5_ablation_ordering_over_three_seeds(runs):
    plain = _seed_means(runs, 0.0, 0.0)
    with_ifc = _seed_means(runs, TUNED_LAMBDA_IFC, 0.0)
    with_fc = _seed_means(runs, 0.0, TUNED_LAMBDA_FC)
    full = _seed_means(runs, TUNED_LAMBDA_IFC, TUNED_LAMBDA_FC)

    assert with_ifc[1] < plain[1], f"deo: +ifc {with_ifc[1]:.4f} vs plain {plain[1]:.4f}"
    assert with_fc[0] < plain[0], f"ddp: +fc {with_fc[0]:.4f} vs plain {plain[0]:.4f}"
    sums = {
        "plain": sum(plain),
        "with_ifc": sum(with_ifc),
        "with_fc": sum(with_fc),
        "full": sum(full),
    }
    assert sums["full"] <= min(sums.values()), sums


# -- 6: reconstructor quality --------------------------------------------------------


def test_c6_sar_tracks_the_signal_and_only_the_signal(runs):
    _, _, biased = runs()  # rho = 0.8: proxies carry the group
    assert biased.sar_accuracy > 0.85

    rho0 = benchmark_dataset(0.0)
    _, _, blind = runs(dataset=rho0, tag="rho0")
    s_test = full_batch(rho0, "test").true_sensitive
    majority = max(s_test.mean(), 1.0 - s_test.mean())
    assert abs(blind.sar_accuracy - majority) < 0.05


# -- 7: attention variance ------------------------------------------------------------


def _attention_variance(model, dataset):
    batch = full_batch(dataset, "test")
    trace = model.forward(batch.features, training=False)
    return float(np.mean([np.var(t.values, axis=0).mean() for t in trace.attention]))


def test_c7_tuned_attention_varies_less_every_seed(runs, synth20k):
    for seed in SEEDS3:
        plain_model = runs(seed=seed)[0]
        tuned_model = runs(TUNED_LAMBDA_IFC, TUNED_LAMBDA_FC, seed=seed)[0]
        plain_var = _attention_variance(plain_model, synth20k)
        tuned_var = _attention_variance(tuned_model, synth20k)
        assert tuned_var < plain_var, f"seed {seed}: {tuned_var:.6f} vs {plain_var:.6f}"


# -- 8: weight sensitivity -------------------------------------------------------------


def test_c8_gap_shrinks_and_auc_holds_along_the_fc_ladder(runs):
    ladder = [runs(lambda_ifc=TUNED_LAMBDA_IFC, lambda_fc=lf)[2] for lf in (0.0, 5.0, 10.0, 20.0)]
    assert ladder[-1].ddp <= ladder[0].ddp, (ladder[-1].ddp, ladder[0].ddp)
    aucs = [r.auc for r in ladder]
    assert max(aucs) - min(aucs) < 0.02, aucs


# -- 9: end-to-end determinism ----------------------------------------------------------


def test_c9_cmd_train_is_byte_identical(tmp_path):
    def run(out_name):
        doc = {
            "synth": {"n": 2000, "beta": 2.0, "rho": 0.8},
            "model": {},
            "train": {
                "lambda_ifc": TUNED_LAMBDA_IFC,
                "lambda_fc": TUNED_LAMBDA_FC,
                "learning_rate": 3e-3,
                "batch_size": 128,
                "max_epochs": 5,
                "patience": 5,
                "seed": 1,
            },
            "output_dir": str(tmp_path / out_name),
        }
        config = tmp_path / f"{out_name}.json"
        config.write_text(json.dumps(doc))
        assert main(["train", "--config", str(config)]) == 0

    run("a")
    run("b")
    for name in ("report.json", "model.bin"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"


# -- 10: optional real-data check --------------------------------------------------------


ADULT_CSV = os.environ.get("FAIRINT_ADULT_CSV")
ADULT_SCHEMA = os.environ.get("FAIRINT_ADULT_SCHEMA")


@pytest.mark.skipif(
    not (ADULT_CSV and ADULT_SCHEMA),
    reason="set FAIRINT_ADULT_CSV and FAIRINT_ADULT_SCHEMA to run the real-data check",
)
def test_c10_adult_directional_check():
    schema = load_schema(ADULT_SCHEMA)
    dataset = split(load_csv(ADULT_CSV, schema), (0.7, 0.15, 0.15), seed=1)

    vanilla_cfg = replace(RECIPE, enable_bid=False)
    vanilla_model, _ = train(dataset, ModelConfig(), vanilla_cfg)
    vanilla = evaluate_model(vanilla_model, dataset, "test")

    tuned_cfg = replace(RECIPE, lambda_ifc=TUNED_LAMBDA_IFC, lambda_fc=TUNED_LAMBDA_FC)
    tuned_model, _ = train(dataset, ModelConfig(), tuned_cfg)
    tuned = evaluate_model(tuned_model, dataset, "test")

    assert 0.88 <= vanilla.auc <= 0.93
    assert tuned.ddp < vanilla.ddp
    assert tuned.deo < vanilla.deo
    assert vanilla.auc - tuned.auc <= 0.04
