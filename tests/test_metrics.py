"""Metric oracles, including brute-force recomputation on random instances."""

import json

import numpy as np
import pytest

from fairint.errors import MetricError, UsageError
from fairint.metrics import (
    auc_roc,
    delta_dp,
    delta_eo,
    evaluate,
    sar_accuracy,
    threshold_labels,
)


# -- demographic parity gap -----------------------------------------------------


def test_ddp_rates_oracle():
    # group 0 rate 0.6, group 1 rate 0.4
    pred = np.array([1, 1, 1, 0, 0] + [1, 1, 0, 0, 0])
    s = np.array([0] * 5 + [1] * 5)
    assert abs(delta_dp(pred, s) - 0.2) < 1e-12


def test_ddp_identical_rates_zero():
    pred = np.array([1, 0, 1, 0])
    s = np.array([0, 0, 1, 1])
    assert delta_dp(pred, s) == 0.0


def test_ddp_brute_force_random():
    rng = np.random.default_rng(0)
    for _ in range(10):
        pred = rng.integers(0, 2, 200)
        s = rng.integers(0, 2, 200)
        want = abs(
            sum(p for p, g in zip(pred, s) if g == 0) / (s == 0).sum()
            - sum(p for p, g in zip(pred, s) if g == 1) / (s == 1).sum()
        )
        assert abs(delta_dp(pred, s) - want) < 1e-12


def test_ddp_single_group_raises():
    with pytest.raises(MetricError, match="both groups"):
        delta_dp(np.array([1, 0]), np.array([1, 1]))


def test_ddp_requires_binary_groups():
    with pytest.raises(MetricError, match="binary"):
        delta_dp(np.array([1, 0, 1]), np.array([0, 1, 2]))


# -- equalized odds gap -------------------------------------------------------------


def test_deo_component_oracle():
    # group 0: TPR 1.0 (2/2), FPR 0.5 (1/2); group 1: TPR 0.9 (9/10), FPR 0.45 (9/20)
    y = np.array([1, 1, 0, 0] + [1] * 10 + [0] * 20)
    pred = np.array([1, 1, 1, 0] + [1] * 9 + [0] + [1] * 9 + [0] * 11)
    s = np.array([0] * 4 + [1] * 30)
    want = abs(1.0 - 0.9) + abs(0.5 - 0.45)
    assert abs(delta_eo(pred, y, s) - want) < 1e-12
    assert abs(delta_eo(pred, y, s) - 0.15) < 1e-12


def test_deo_perfect_classifier_zero():
    y = np.array([1, 0, 1, 0, 1, 0])
    s = np.array([0, 0, 0, 1, 1, 1])
    assert delta_eo(y, y, s) == 0.0


def test_deo_brute_force_random():
    rng = np.random.default_rng(1)
    done = 0
    while done < 10:
        pred = rng.integers(0, 2, 120)
        y = rng.integers(0, 2, 120)
        s = rng.integers(0, 2, 120)
        rates = {}
        for g in (0, 1):
            tp = fn = fp = tn = 0
            for p, t, gg in zip(pred, y, s):
                if gg != g:
                    continue
                if t == 1:
                    tp, fn = tp + (p == 1), fn + (p == 0)
                else:
                    fp, tn = fp + (p == 1), tn + (p == 0)
            if tp + fn == 0 or fp + tn == 0:
                rates = None
                break
            rates[g] = (tp / (tp + fn), fp / (fp + tn))
        if rates is None:
            continue
        want = abs(rates[0][0] - rates[1][0]) + abs(rates[0][1] - rates[1][1])
        assert abs(delta_eo(pred, y, s) - want) < 1e-12
        done += 1


def test_deo_missing_class_names_group_and_class():
    y = np.array([1, 1, 1, 0])  # group 0 has no negatives
    pred = np.array([1, 0, 1, 0])
    s = np.array([0, 0, 1, 1])
    with pytest.raises(MetricError, match="group 0.*negative"):
        delta_eo(pred, y, s)
    y2 = np.array([0, 0, 1, 0])  # group 0 has no positives
    with pytest.raises(MetricError, match="group 0.*positive"):
        delta_eo(pred, y2, s)


# -- AUC --------------------------------------------------------------------------------


def test_auc_perfect_separation():
    assert auc_roc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0
    assert auc_roc([0.9, 0.8, 0.1, 0.2], [0, 0, 1, 1]) == 0.0


def test_auc_all_ties_is_half():
    assert auc_roc([0.5] * 6, [0, 1, 0, 1, 0, 1]) == 0.5


def test_auc_hand_oracle():
    # pairs (0.35 vs 0.1), (0.35 vs 0.4), (0.8 vs 0.1), (0.8 vs 0.4): 3 of 4 concordant
    assert abs(auc_roc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) - 0.75) < 1e-12


def test_auc_brute_force_pair_counting_with_ties():
    rng = np.random.default_rng(2)
    for _ in range(10):
        scores = rng.integers(0, 5, 60).astype(float)  # integer scores force ties
        y = rng.integers(0, 2, 60)
        if y.min() == y.max():
            continue
        pos = scores[y == 1]
        neg = scores[y == 0]
        wins = sum((p > q) + 0.5 * (p == q) for p in pos for q in neg)
        want = wins / (len(pos) * len(neg))
        assert abs(auc_roc(scores, y) - want) < 1e-12


def test_auc_invariant_under_monotone_transform():
    rng = np.random.default_rng(3)
    scores = rng.random(100)
    y = rng.integers(0, 2, 100)
    base = auc_roc(scores, y)
    assert auc_roc(np.exp(scores), y) == base
    assert auc_roc(3.0 * scores + 1.0, y) == base


def test_auc_single_class_raises():
    with pytest.raises(MetricError, match="both classes"):
        auc_roc([0.1, 0.9], [1, 1])


# -- reconstruction accuracy -----------------------------------------------------------------


def test_sar_accuracy_identity_and_anti_identity():
    s = np.array([0, 1, 1, 0])
    assert sar_accuracy(s.astype(float), s) == 1.0
    assert sar_accuracy(1.0 - s, s) == 0.0


def test_sar_accuracy_majority_constant():
    s = np.array([1, 1, 1, 0, 0])
    assert sar_accuracy(np.full(5, 0.9), s) == 0.6
    with pytest.raises(UsageError, match="empty"):
        sar_accuracy(np.array([]), np.array([]))


def test_threshold_labels_tie_is_positive():
    np.testing.assert_array_equal(threshold_labels([0.5, 0.4999, 0.6]), [1, 0, 1])
    np.testing.assert_array_equal(threshold_labels([0.5, 0.7], threshold=0.7), [0, 1])


# -- permutation invariance --------------------------------------------------------------------


def test_metrics_invariant_under_row_permutation():
    rng = np.random.default_rng(4)
    scores = rng.random(150)
    y = rng.integers(0, 2, 150)
    s = rng.integers(0, 2, 150)
    pred = threshold_labels(scores)
    perm = rng.permutation(150)
    assert delta_dp(pred, s) == delta_dp(pred[perm], s[perm])
    assert delta_eo(pred, y, s) == delta_eo(pred[perm], y[perm], s[perm])
    assert auc_roc(scores, y) == auc_roc(scores[perm], y[perm])
    assert sar_accuracy(scores, s) == sar_accuracy(scores[perm], s[perm])


# -- report -----------------------------------------------------------------------------------


def test_report_fields_and_reconstruction_invariant():
    rng = np.random.default_rng(5)
    scores = rng.random(200)
    y = rng.integers(0, 2, 200)
    s = rng.integers(0, 2, 200)
    report = evaluate(scores, y, s)

    doc = json.loads(json.dumps(report.to_dict()))
    assert set(doc) == {"auc", "ddp", "deo", "group_rates", "sar_accuracy", "threshold", "groups_from"}
    assert set(doc["group_rates"]) == {"0", "1"}
    for g in ("0", "1"):
        assert set(doc["group_rates"][g]) == {"positive_rate", "tpr", "fpr", "count"}

    g0, g1 = doc["group_rates"]["0"], doc["group_rates"]["1"]
    assert abs(doc["ddp"] - abs(g0["positive_rate"] - g1["positive_rate"])) < 1e-12
    assert abs(doc["deo"] - (abs(g0["tpr"] - g1["tpr"]) + abs(g0["fpr"] - g1["fpr"]))) < 1e-12
    assert g0["count"] + g1["count"] == 200
    assert doc["threshold"] == 0.5
    assert doc["groups_from"] == "true"


def test_report_without_reconstructor_has_null_sar_accuracy():
    rng = np.random.default_rng(6)
    report = evaluate(rng.random(100), rng.integers(0, 2, 100), rng.integers(0, 2, 100))
    assert report.sar_accuracy is None
    assert json.loads(json.dumps(report.to_dict()))["sar_accuracy"] is None


def test_report_groups_from_flag_is_validated():
    rng = np.random.default_rng(7)
    with pytest.raises(UsageError, match="groups_from"):
        evaluate(rng.random(10), rng.integers(0, 2, 10), rng.integers(0, 2, 10), groups_from="guess")
    report = evaluate(
        rng.random(100),
        rng.integers(0, 2, 100),
        rng.integers(0, 2, 100),
        groups_from="reconstructed",
    )
    assert report.groups_from == "reconstructed"


def test_report_respects_custom_threshold():
    scores = np.array([0.3, 0.6, 0.3, 0.6, 0.2, 0.9, 0.2, 0.9])
    y = np.array([0, 1, 1, 0, 0, 1, 1, 0])
    s = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    strict = evaluate(scores, y, s, threshold=0.7)
    lenient = evaluate(scores, y, s, threshold=0.25)
    assert strict.threshold == 0.7
    assert strict.group_rates["0"]["positive_rate"] == 0.0
    assert lenient.group_rates["0"]["positive_rate"] == 1.0
