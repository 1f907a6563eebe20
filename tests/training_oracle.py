"""Reference training loop: the per-batch loop that ``training.train`` replaced.

It walks :func:`fairint.data.batches` and hands each batch's raw feature
columns to ``model.forward``, so every step encodes its own rows. Model
selection, early stopping and the restore of the best epoch follow
``train`` step for step; the optimizer, the losses and the validation
report are the library's own.
"""

import math

import numpy as np

from fairint.autodiff import backward
from fairint.data import batches
from fairint.losses import LossBreakdown, ce_loss, joint_loss
from fairint.model import FairIntModel, VanillaModel
from fairint.training import Adam, EpochRecord, TrainHistory, evaluate_model


def reference_train(dataset, model_config, cfg):
    """(model, history) of one run, as ``train`` returns them, from the per-batch loop."""
    cls = FairIntModel if cfg.enable_bid else VanillaModel
    model = cls(dataset.input_columns, model_config, seed=cfg.seed, dropout=cfg.dropout)
    optimizer = Adam(model.param_values, model.param_grads, cfg.learning_rate, l2=cfg.l2)
    records, best_auc, best_epoch, best_values, since_best = [], -math.inf, None, None, 0
    stopping_reason = "max_epochs"
    for epoch in range(cfg.max_epochs):
        dropout_rng = np.random.default_rng([cfg.seed, epoch, 1])
        sums = dict.fromkeys(("l0", "l_sar", "l_ifc", "l_fc", "total"), 0.0)
        rows = 0
        for batch in batches(dataset, "train", cfg.batch_size, cfg.seed, epoch):
            out = model.forward(batch.features, training=True, rng=dropout_rng)
            if cfg.enable_bid:
                total, breakdown = joint_loss(out, batch.labels, batch.true_sensitive, cfg.lambda_ifc, cfg.lambda_fc)
            else:
                total = ce_loss(out.prediction, batch.labels)
                breakdown = LossBreakdown(l0=total.item(), l_sar=0.0, l_ifc=0.0, l_fc=0.0, total=total.item())
            model.param_grads.fill(0.0)
            backward(total)
            optimizer.step()
            for key, value in breakdown.as_dict().items():
                sums[key] += value * batch.size
            rows += batch.size
        report = evaluate_model(model, dataset, "val")
        records.append(EpochRecord(epoch, LossBreakdown(**{k: v / rows for k, v in sums.items()}), report))
        if report.auc > best_auc:
            best_auc, best_epoch, best_values, since_best = report.auc, epoch, model.param_values.copy(), 0
        else:
            since_best += 1
            if since_best >= cfg.patience:
                stopping_reason = "early_stopping"
                break
    if best_values is not None:
        model.param_values[:] = best_values
    model.freeze()
    return model, TrainHistory(epochs=records, best_epoch=best_epoch, stopping_reason=stopping_reason)
