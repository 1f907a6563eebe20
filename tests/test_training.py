"""Training-loop contracts: determinism, selection, ablation, sweeps."""

import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import fairint.model
import fairint.training
from fairint.autodiff import backward, mean_squared_error, pack_parameters
from fairint.data import FeatureColumn, full_batch, split, synth_generate
from fairint.errors import ConfigError, DataError, MetricError, TrainingError, UsageError
from fairint.metrics import FairnessReport
from fairint.model import FairIntModel, ModelConfig, VanillaModel
from fairint.training import (
    Adam,
    TrainConfig,
    evaluate_model,
    new_model,
    sweep,
    train,
)
from training_oracle import reference_train


def tiny_dataset(n=400, seed=7):
    ds = synth_generate(n=n, bias_strength=2.0, proxy_corr=0.8, seed=seed)
    return split(ds, (0.6, 0.2, 0.2), seed=seed)


def quick_config(**overrides):
    base = dict(learning_rate=1e-2, batch_size=64, max_epochs=8, patience=8, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def tiny():
    return tiny_dataset()


@pytest.fixture(scope="module")
def trained(tiny):
    model, history = train(tiny, ModelConfig(), quick_config())
    return model, history


@pytest.fixture(scope="module")
def separated():
    # enough rows and epochs that the reconstructor splits the groups cleanly
    ds = tiny_dataset(n=1000)
    model, history = train(ds, ModelConfig(), quick_config(max_epochs=40, patience=40))
    return ds, model, history


# -- config validation ---------------------------------------------------------


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigError):
        TrainConfig(max_epochs=-1)
    with pytest.raises(ConfigError):
        TrainConfig(patience=0)
    with pytest.raises(ConfigError):
        TrainConfig(dropout=1.0)
    with pytest.raises(ConfigError):
        TrainConfig(l2=-1e-4)
    with pytest.raises(ConfigError):
        TrainConfig(seed=-1)
    with pytest.raises(ConfigError):
        TrainConfig(lambda_ifc=-0.5)
    with pytest.raises(ConfigError):
        TrainConfig(lambda_fc=-0.5)
    for weights in ({"lambda_ifc": 2.0}, {"lambda_fc": 30.0}):  # the vanilla model has no fairness terms
        with pytest.raises(ConfigError, match="vanilla"):
            TrainConfig(enable_bid=False, **weights)
    for name in ("lambda_ifc", "lambda_fc", "learning_rate", "dropout", "l2"):
        for value in (float("nan"), float("inf"), -float("inf"), 10**400):
            with pytest.raises(ConfigError, match="finite"):
                TrainConfig(**{name: value})


def test_config_round_trip():
    config = TrainConfig(lambda_ifc=2.0, lambda_fc=30.0, batch_size=128, seed=3)
    assert TrainConfig.from_dict(config.to_dict()) == config


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="momentum"):
        TrainConfig.from_dict({"momentum": 0.9})


# -- optimizer -----------------------------------------------------------------


def test_adam_minimizes_a_quadratic():
    values, grads, params = pack_parameters({"w": np.array([[10.0]])})
    weight = params["w"]
    optimizer = Adam(values, grads, learning_rate=0.3)
    for _ in range(200):
        loss = mean_squared_error(weight, [[3.0]])
        grads.fill(0.0)
        backward(loss)
        optimizer.step()
    assert abs(weight.values[0, 0] - 3.0) < 1e-3


def test_flat_adam_equals_a_per_parameter_loop_bit_for_bit():
    # the reference is the per-parameter update the flat pass replaced
    rng = np.random.default_rng(5)
    shapes = {"a": (3, 4), "b": (4,), "c": (1, 2), "d": (5, 1)}
    values, grads, params = pack_parameters({k: rng.standard_normal(s) for k, s in shapes.items()})
    ref_values = {k: p.values.copy() for k, p in params.items()}
    ref_m = {k: np.zeros(s) for k, s in shapes.items()}
    ref_v = {k: np.zeros(s) for k, s in shapes.items()}
    lr, l2, beta1, beta2, eps = 3e-3, 1e-4, 0.9, 0.999, 1e-8
    optimizer = Adam(values, grads, learning_rate=lr, l2=l2)
    for t in range(1, 51):
        grads[:] = rng.standard_normal(grads.size)
        b1c, b2c = 1.0 - beta1 ** t, 1.0 - beta2 ** t
        for name, p in params.items():
            g = p.grad + 2.0 * l2 * ref_values[name]
            m, v = ref_m[name], ref_v[name]
            m *= beta1
            m += (1.0 - beta1) * g
            v *= beta2
            v += (1.0 - beta2) * g * g
            ref_values[name] = ref_values[name] - lr * (m / b1c) / (np.sqrt(v / b2c) + eps)
        optimizer.step()
        for name, p in params.items():
            assert p.values.tobytes() == ref_values[name].tobytes(), (t, name)
            assert np.shares_memory(p.values, values)


def test_l2_changes_updates_but_not_logged_losses(tiny):
    # one full-batch step per epoch: the logged breakdown is computed before
    # the update, so the penalty can never leak into the loss bookkeeping
    # (validation numbers may differ because the updated weights differ)
    full = quick_config(batch_size=400, max_epochs=1, l2=0.0)
    heavy = quick_config(batch_size=400, max_epochs=1, l2=0.9)
    model_a, hist_a = train(tiny, ModelConfig(), full)
    model_b, hist_b = train(tiny, ModelConfig(), heavy)
    loss_keys = ("epoch", "l0", "l_sar", "l_ifc", "l_fc", "total")
    for line_a, line_b in zip(hist_a.history_lines(), hist_b.history_lines()):
        for key in loss_keys:
            assert line_a[key] == line_b[key]
    arrays_a, arrays_b = model_a.parameter_arrays(), model_b.parameter_arrays()
    assert any(not np.array_equal(arrays_a[k], arrays_b[k]) for k in arrays_a)


# -- train() basics ------------------------------------------------------------


def test_train_requires_split():
    ds = synth_generate(n=200, bias_strength=2.0, proxy_corr=0.8, seed=0)
    with pytest.raises(UsageError, match="split"):
        train(ds, ModelConfig(), quick_config())


def _with_val_rows(ds, column, value, where=None):
    """Copy of ``ds`` whose validation rows (those of them where ``where`` holds) get ``value``."""
    rows = ds.split_tags == 1
    if where is not None:
        rows &= where(ds)
    columns = dict(ds.columns)
    columns[column] = columns[column].copy()
    columns[column][rows] = value
    return replace(ds, columns=columns)


@pytest.mark.parametrize(
    "degrade, error",
    [
        (lambda ds: _with_val_rows(ds, "y", 1.0), MetricError),
        (lambda ds: _with_val_rows(ds, "s", 0), MetricError),
        (lambda ds: _with_val_rows(ds, "y", 0.0, where=lambda ds: ds.columns["s"] == 1), MetricError),
        (lambda ds: replace(ds, split_tags=np.where(ds.split_tags == 1, 0, ds.split_tags)), UsageError),
    ],
    ids=["one_class", "one_group", "group_without_positives", "empty"],
)
def test_degenerate_validation_split_fails_before_the_first_step(tiny, monkeypatch, degrade, error):
    steps = []
    monkeypatch.setattr(Adam, "step", lambda self: steps.append(self))
    with pytest.raises(error):
        train(degrade(tiny), ModelConfig(), quick_config(max_epochs=1))
    assert steps == []


def test_zero_epochs_returns_initialized_params(tiny):
    config = quick_config(max_epochs=0)
    model, history = train(tiny, ModelConfig(), config)
    assert history.epochs == []
    assert history.best_epoch is None
    assert history.stopping_reason == "max_epochs"
    fresh = FairIntModel(tiny.input_columns, ModelConfig(), seed=0, dropout=config.dropout)
    got, want = model.parameter_arrays(), fresh.parameter_arrays()
    assert got.keys() == want.keys()
    for name in want:
        assert np.array_equal(got[name], want[name])


def test_returned_parameters_are_frozen(trained):
    model, _ = trained
    arrays = model.parameter_arrays()
    first = next(iter(arrays.values()))
    with pytest.raises(ValueError):
        first[0] = 0.0
    for view in (model.param_values, model._tables.values):  # the buffer and the embedding gather's leaf
        with pytest.raises(ValueError):
            view[0] = 0.0


def test_parameters_stay_views_into_the_model_buffers(tiny, trained):
    # train() restores the best epoch and freezes in place; load_arrays writes in place
    model, _ = trained
    fresh = FairIntModel(tiny.input_columns, ModelConfig(), seed=1)
    fresh.load_arrays(model.parameter_arrays())
    for m in (model, fresh):
        for p in m.params.values():
            assert np.shares_memory(p.values, m.param_values)
            assert np.shares_memory(p.grad, m.param_grads)
    assert np.array_equal(fresh.param_values, model.param_values)


def test_training_is_bitwise_deterministic(tiny):
    model_a, hist_a = train(tiny, ModelConfig(), quick_config(lambda_ifc=1.0, lambda_fc=5.0))
    model_b, hist_b = train(tiny, ModelConfig(), quick_config(lambda_ifc=1.0, lambda_fc=5.0))
    assert hist_a.history_lines() == hist_b.history_lines()
    arrays_a, arrays_b = model_a.parameter_arrays(), model_b.parameter_arrays()
    for name in arrays_a:
        assert np.array_equal(arrays_a[name], arrays_b[name])


def with_categorical_inputs(ds):
    """Copy of ``ds`` with two categorical inputs before the label: a 4-level band of
    proxy1, which leaks the group, and a 3-level row counter."""
    band = FeatureColumn("band", "categorical", "non_sensitive", cardinality=4)
    parity = FeatureColumn("parity", "categorical", "non_sensitive", cardinality=3)
    columns = dict(ds.columns, band=np.digitize(ds.columns["proxy1"], [-0.5, 0.0, 0.5]), parity=np.arange(ds.n) % 3)
    return replace(ds, schema=[*ds.schema[:-1], band, parity, ds.schema[-1]], columns=columns,
                   vocabularies=dict(ds.vocabularies, band=list("abcd"), parity=list("xyz")))


@pytest.mark.parametrize("categorical", [False, True], ids=["numerical", "categorical"])
@pytest.mark.parametrize("fair", [True, False], ids=["fair", "vanilla"])
def test_train_equals_the_per_batch_reference_loop_bit_for_bit(tiny, fair, categorical):
    # train() encodes its train split once and slices each batch from it; the reference
    # walks batches() and encodes every batch's raw columns in forward, as train() once did
    ds = with_categorical_inputs(tiny) if categorical else tiny
    weights = {"lambda_ifc": 1.0, "lambda_fc": 5.0} if fair else {"enable_bid": False}
    config = quick_config(max_epochs=2, l2=1e-3, **weights)  # 240 train rows: the last batch holds 48
    model, history = train(ds, ModelConfig(), config)
    want_model, want_history = reference_train(ds, ModelConfig(), config)
    assert json.dumps(history.history_lines()) == json.dumps(want_history.history_lines())
    assert (history.best_epoch, history.stopping_reason) == (want_history.best_epoch, want_history.stopping_reason)
    assert model.param_values.tobytes() == want_model.param_values.tobytes()


def test_category_id_outside_the_table_fails_before_the_first_step(tiny, monkeypatch):
    ds = with_categorical_inputs(tiny)
    band = ds.columns["band"].copy()
    band[np.flatnonzero(ds.split_tags == 0)[-1]] = 5  # the table holds 4 levels and the unknown slot
    steps = []
    monkeypatch.setattr(Adam, "step", lambda self: steps.append(self))
    with pytest.raises(DataError, match=r"out of range \[0, 5\) for feature 'band'"):
        train(replace(ds, columns=dict(ds.columns, band=band)), ModelConfig(), quick_config(max_epochs=1))
    assert steps == []


def test_history_lines_have_exactly_the_contract_fields(trained):
    _, history = trained
    want = {"epoch", "l0", "l_sar", "l_ifc", "l_fc", "total", "val_auc", "val_ddp", "val_deo"}
    for line in history.history_lines():
        assert set(line) == want


def test_best_epoch_maximizes_validation_auc(trained):
    _, history = trained
    aucs = [r.val_report.auc for r in history.epochs]
    assert history.best_epoch == int(np.argmax(aucs))


def test_returned_params_reproduce_best_epoch_auc(tiny, trained):
    model, history = trained
    best = history.epochs[history.best_epoch].val_report
    again = evaluate_model(model, tiny, "val")
    assert again.auc == best.auc
    assert again.ddp == best.ddp


def test_early_stopping_cuts_the_run(tiny):
    config = quick_config(max_epochs=200, patience=2)
    _, history = train(tiny, ModelConfig(), config)
    # the run ends patience epochs after its best one, unless max_epochs comes first
    patience_end = history.best_epoch + 1 + config.patience
    assert len(history.epochs) == min(patience_end, config.max_epochs)
    assert history.stopping_reason == ("early_stopping" if patience_end <= config.max_epochs else "max_epochs")


def _scripted_validation(monkeypatch, aucs):
    """Make each epoch-end validation of train() report the next AUC of ``aucs``;
    returns the parameters the model held at each validation."""
    seen = []

    def validate(model, dataset, split):
        seen.append(model.param_values.copy())
        return FairnessReport(auc=aucs[len(seen) - 1], ddp=0.0, deo=0.0, group_rates={}, sar_accuracy=None,
                              threshold=0.5, groups_from="true")

    monkeypatch.setattr(fairint.training, "evaluate_model", validate)
    return seen


@pytest.mark.parametrize(
    "aucs, patience, max_epochs, best_epoch, reason",
    [
        ([0.6, 0.7, 0.7, 0.7, 0.7], 3, 10, 1, "early_stopping"),
        ([0.5, 0.9, 0.8, 0.7], 2, 10, 1, "early_stopping"),
        ([0.7, 0.6, 0.8, 0.7, 0.6, 0.5], 3, 10, 2, "early_stopping"),
        ([0.7, 0.7], 1, 10, 0, "early_stopping"),
        ([0.5, 0.6, 0.7, 0.8, 0.75], 3, 5, 3, "max_epochs"),
        ([0.8, 0.7, 0.6], 3, 3, 0, "max_epochs"),
        ([], 2, 0, None, "max_epochs"),
    ],
    ids=["tie_is_not_a_new_best", "falls_after_best", "rises_after_a_fall", "patience_1",
         "best_inside_the_last_patience_epochs", "max_epochs_one_short_of_patience", "zero_epochs"],
)
def test_early_stopping_follows_the_validation_aucs(tiny, monkeypatch, aucs, patience, max_epochs, best_epoch,
                                                    reason):
    seen = _scripted_validation(monkeypatch, aucs)
    config = quick_config(max_epochs=max_epochs, patience=patience)
    model, history = train(tiny, ModelConfig(), config)
    assert [r.val_report.auc for r in history.epochs] == aucs  # each scripted epoch runs, and no more
    assert (history.best_epoch, history.stopping_reason) == (best_epoch, reason)
    untrained = new_model(tiny.input_columns, ModelConfig(), config).param_values
    want = untrained if best_epoch is None else seen[best_epoch]
    assert model.param_values.tobytes() == want.tobytes()


@pytest.mark.parametrize("enable_bid, cls", [(True, FairIntModel), (False, VanillaModel)], ids=["fair", "vanilla"])
def test_train_builds_the_model_its_configs_name(tiny, enable_bid, cls):
    model_config, train_config = ModelConfig(embed_dim=8), quick_config(enable_bid=enable_bid, max_epochs=1)
    model, _ = train(tiny, model_config, train_config)
    assert type(model) is cls and model.config == model_config
    shapes = {name: values.shape for name, values in model.parameter_arrays().items()}
    drawn = new_model(tiny.input_columns, model_config, train_config)
    assert shapes == {name: values.shape for name, values in drawn.parameter_arrays().items()}
    assert shapes["embed.proxy1"] == (1, 8)


# -- ablations -----------------------------------------------------------------


def test_disabled_terms_log_zero(tiny):
    config = quick_config(lambda_ifc=0.0, lambda_fc=0.0)
    _, history = train(tiny, ModelConfig(), config)
    for line in history.history_lines():
        assert line["l_ifc"] == 0.0
        assert line["l_fc"] == 0.0


def test_bid_disabled_trains_the_plain_baseline(tiny):
    model, history = train(tiny, ModelConfig(), quick_config(enable_bid=False))
    assert isinstance(model, VanillaModel)
    for line in history.history_lines():
        assert line["l_sar"] == 0.0
        assert line["l_ifc"] == 0.0
        assert line["l_fc"] == 0.0
        assert line["total"] == line["l0"]
    report = evaluate_model(model, tiny, "test")
    assert report.sar_accuracy is None
    with pytest.raises(UsageError, match="reconstructor"):
        evaluate_model(model, tiny, "test", groups_from="reconstructed")


def test_vanilla_and_fair_epoch_records_carry_the_same_fields(tiny):
    one_epoch = dict(max_epochs=1, patience=1)
    fair = train(tiny, ModelConfig(), quick_config(lambda_fc=1.0, **one_epoch))[1].epochs[0].losses
    vanilla = train(tiny, ModelConfig(), quick_config(enable_bid=False, **one_epoch))[1].epochs[0].losses
    assert list(fair.as_dict()) == list(vanilla.as_dict()) == ["l0", "l_sar", "l_ifc", "l_fc", "total"]
    assert fair.l_ifc == 0.0 and fair.l_fc > 0.0 and fair.l_sar > 0.0
    assert vanilla.l_sar == vanilla.l_ifc == vanilla.l_fc == 0.0 and vanilla.total == vanilla.l0 > 0.0


# -- evaluation ----------------------------------------------------------------


def test_evaluate_twice_is_identical(tiny, trained):
    model, _ = trained
    assert evaluate_model(model, tiny, "test").to_dict() == evaluate_model(model, tiny, "test").to_dict()


def test_report_gaps_reconstruct_from_group_rates(tiny, trained):
    model, _ = trained
    report = evaluate_model(model, tiny, "test")
    rates = report.group_rates
    ddp = abs(rates["0"]["positive_rate"] - rates["1"]["positive_rate"])
    deo = abs(rates["0"]["tpr"] - rates["1"]["tpr"]) + abs(rates["0"]["fpr"] - rates["1"]["fpr"])
    assert report.ddp == ddp
    assert report.deo == deo


def test_evaluate_empty_split_is_an_error(trained):
    model, _ = trained
    ds = tiny_dataset(n=200)
    # retag every row as train so the validation split is genuinely empty
    ds.split_tags.setflags(write=True)
    ds.split_tags[:] = 0
    ds.split_tags.setflags(write=False)
    with pytest.raises(UsageError, match="no rows"):
        evaluate_model(model, ds, "val")


@pytest.mark.parametrize("which", ["all", "train", "test"])
def test_blocked_evaluation_equals_the_single_block_report(monkeypatch, tiny, trained, which):
    # 400 rows in all, 240 in train and 80 in test: blocks of 64 give 6, 3 and 1 forward
    vanilla, _ = train(tiny, ModelConfig(), quick_config(enable_bid=False, max_epochs=2))
    runs = [(trained[0], "true"), (trained[0], "reconstructed"), (vanilla, "true")]
    monkeypatch.setattr(fairint.model, "SCORE_BLOCK_ROWS", 10 * tiny.n)
    whole = [evaluate_model(model, tiny, which, groups_from=groups) for model, groups in runs]
    monkeypatch.setattr(fairint.model, "SCORE_BLOCK_ROWS", 64)
    assert [evaluate_model(model, tiny, which, groups_from=groups) for model, groups in runs] == whole


def traced_peak(fn) -> int:
    """Bytes allocated at the peak of ``fn()`` beyond what was live before it; tracemalloc sees numpy."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def evaluation_peaks(model_class) -> list:
    """Traced peaks of ``evaluate_model`` over 1 and 16 score blocks of synth rows."""
    warm = synth_generate(n=200, bias_strength=2.0, proxy_corr=0.8, seed=0)
    model = model_class(warm.input_columns, ModelConfig(), seed=0)
    evaluate_model(model, warm, "all")  # first calls allocate numpy's lazy imports and caches
    peaks = []
    for blocks in (1, 16):
        ds = synth_generate(n=blocks * fairint.model.SCORE_BLOCK_ROWS, bias_strength=2.0, proxy_corr=0.8, seed=1)
        peaks.append(traced_peak(lambda: evaluate_model(model, ds, "all")))
    return peaks


def test_evaluation_memory_does_not_grow_with_the_row_count():
    # the vanilla model: its 64-wide hidden layer makes a block's activations outweigh the per-row arrays
    peaks = evaluation_peaks(VanillaModel)
    assert peaks[1] < 2 * peaks[0], peaks


def test_fair_evaluation_memory_does_not_grow_with_the_row_count():
    # the fair model's block is narrower, so the per-row arrays weigh more: no attention is kept per row
    peaks = evaluation_peaks(FairIntModel)
    assert peaks[1] < 2 * peaks[0], peaks


def test_reconstructed_groups_follow_the_reconstructor(separated):
    ds, model, _ = separated
    by_true = evaluate_model(model, ds, "test")
    by_pseudo = evaluate_model(model, ds, "test", groups_from="reconstructed")
    assert by_true.groups_from == "true"
    assert by_pseudo.groups_from == "reconstructed"
    # the reconstructor is essentially perfect here, so the gap metrics agree
    assert by_true.sar_accuracy > 0.95
    assert abs(by_true.ddp - by_pseudo.ddp) < 0.1


def test_model_inputs_exclude_the_sensitive_column(tiny):
    assert all(c.name != "s" for c in tiny.input_columns)
    batch = full_batch(tiny, "train")
    assert set(batch.features) == {c.name for c in tiny.input_columns}


# -- divergence ----------------------------------------------------------------


def test_divergence_reports_epoch_and_batch(tiny):
    with pytest.raises(TrainingError, match=r"epoch \d+, batch \d+"):
        train(tiny, ModelConfig(), quick_config(learning_rate=1e12, max_epochs=10))


@pytest.mark.filterwarnings("error")
def test_divergence_first_seen_in_validation_reports_the_epoch():
    # one batch per epoch, so the overflowing update shows first in the epoch-end validation forward;
    # train() silences numpy's overflow warnings itself, since every op checks its own output
    ds = split(synth_generate(600, 2.0, 0.8, 1), (0.6, 0.2, 0.2), seed=1)
    with pytest.raises(TrainingError, match=r"^validation diverged at epoch 0: operation 'dense'"):
        train(ds, ModelConfig(), TrainConfig(learning_rate=1e300, batch_size=1000, max_epochs=2))


# -- sweep -----------------------------------------------------------------------


def test_sweep_rejects_empty_grid(tiny):
    with pytest.raises(UsageError, match="grid"):
        sweep(tiny, ModelConfig(), quick_config(), [])


def test_single_point_sweep_equals_train_plus_evaluate(tiny):
    base = quick_config()
    [point] = sweep(tiny, ModelConfig(), base, [(1.0, 5.0)])
    model, _ = train(tiny, ModelConfig(), replace(base, lambda_ifc=1.0, lambda_fc=5.0))
    direct = evaluate_model(model, tiny, "test")
    assert point.error is None
    assert point.report.to_dict() == direct.to_dict()


def test_zero_point_matches_ablation_baseline_bitwise(tiny):
    base = quick_config(lambda_ifc=9.0, lambda_fc=9.0)
    [point] = sweep(tiny, ModelConfig(), base, [(0.0, 0.0)])
    model, _ = train(tiny, ModelConfig(), quick_config(lambda_ifc=0.0, lambda_fc=0.0))
    assert point.report.to_dict() == evaluate_model(model, tiny, "test").to_dict()


def test_sweep_keeps_grid_order_and_isolates_failures(tiny):
    grid = [(0.0, 0.0), (-1.0, 0.0), (1.0, 0.0)]
    points = sweep(tiny, ModelConfig(), quick_config(), grid)
    assert [(p.lambda_ifc, p.lambda_fc) for p in points] == grid
    assert points[0].error is None and points[2].error is None
    assert points[1].report is None
    assert "ConfigError" in points[1].error
    row = points[1].tradeoff_row()
    assert row["auc"] is None and row["ddp"] is None and row["deo"] is None


# -- optimization sanity at scale -------------------------------------------------


def test_training_loss_descends_at_tuned_weights():
    # tuned-weight run on the reference synthetic task; seed pinned because
    # the fairness terms switching on mid-descent makes some seeds bumpy
    ds = synth_generate(n=20000, bias_strength=2.0, proxy_corr=0.8, seed=1)
    ds = split(ds, (0.7, 0.15, 0.15), seed=1)
    config = TrainConfig(lambda_ifc=2.0, lambda_fc=30.0, learning_rate=3e-3,
                         batch_size=128, max_epochs=5, patience=5, seed=1)
    _, history = train(ds, ModelConfig(), config)
    totals = [r.losses.total for r in history.epochs]
    assert all(late < early for early, late in zip(totals, totals[1:]))
