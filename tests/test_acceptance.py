"""Acceptance suite.

One test per criterion; each prints a single pass line (visible with
``pytest -s`` or in captured output) containing the measured quantities,
and enforces the stated tolerances and runtime budgets.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

import coocrefine as cr
from coocrefine.cli import main

from oracles import (
    brute_average_precision,
    brute_conditional,
    brute_cooccurrence,
    central_difference,
    dense_gcn,
    gradient_close,
)


def ok(criterion, detail):
    print(f"[acceptance {criterion}] PASS - {detail}")


def labels_from(values):
    values = np.asarray(values, dtype=np.uint8)
    ids = tuple(f"s{i}" for i in range(values.shape[0]))
    names = tuple(f"c{j}" for j in range(values.shape[1]))
    return cr.LabelMatrix(values, ids, names)


def test_criterion_1_prior_oracle_equivalence():
    """Co-occurrence and conditional probabilities match brute force exactly."""
    rng = np.random.default_rng(1234)
    start = time.perf_counter()
    for _ in range(200):
        n = int(rng.integers(1, 9))
        c = int(rng.integers(2, 6))
        values = rng.integers(0, 2, size=(n, c)).astype(np.uint8)
        cooc = cr.cooccurrence(labels_from(values))
        assert np.array_equal(cooc.counts, brute_cooccurrence(values))
        cond = cr.conditional_prob(cooc)
        assert np.array_equal(cond.probs, brute_conditional(cooc.counts))
        assert (cond.probs >= 0.0).all() and (cond.probs <= 1.0).all()
        assert np.array_equal(cond.probs.diagonal(), np.ones(c))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    ok(1, f"200 random matrices, exact match, {elapsed:.2f}s")


def test_criterion_2_combined_gradient_matches_finite_differences():
    """GCN+RASL gradient vs central differences, step 1e-3, rel err < 1e-4."""
    rng = np.random.default_rng(99)
    start = time.perf_counter()
    checked = 0
    worst = 0.0
    while checked < 50:
        n = int(rng.integers(2, 7))
        batch = int(rng.integers(1, 4))
        probs = rng.random((n, n)) * 0.8
        np.fill_diagonal(probs, 1.0)
        cond = cr.CondProbMatrix(probs)
        model = cr.init_model((1, 4, 4, 1), seed=int(rng.integers(0, 2**31)))
        h0 = rng.normal(size=(batch, n)) * 2.0
        labels = rng.integers(0, 2, size=(batch, n))
        params = cr.RaslParams(
            alphas=cr.ReweightVector(rng.uniform(0.5, 2.0, size=n), "frequency"),
        )

        refined, cache = cr.gcn_forward(model, cond, h0)
        s = cr.sigmoid(refined)
        # keep negatives clear of the shift kink so the FD step cannot
        # cross it (the criterion's 1e-6 band is inside this margin), and
        # keep every pre-activation clear of the LeakyReLU kink at 0 for
        # the same reason: a sign flip during the +-1e-3 perturbation
        # would put the two FD evaluations on different linear pieces
        if np.any(np.abs(s[labels == 0] - params.delta) < 2e-3):
            continue
        *_, pre_acts = dense_gcn(model.weights, model.leaky_slope, model.final_nonlinearity,
                                 cond.propagation, h0, np.zeros_like(h0))
        if min(np.abs(z).min() for z in pre_acts) < 5e-3:
            continue

        grad_logits = cr.rasl_grad(refined, labels, params)
        grads = cr.gcn_backward(model, cond, cache, grad_logits)

        weights = [w.copy() for w in model.weights]

        def total():
            out, _ = cr.gcn_forward(replace(model, weights=weights), cond, h0)
            return cr.rasl_loss(out, labels, params)[0]

        for layer, analytic in enumerate(grads.d_weights):
            numeric = central_difference(total, weights[layer], step=1e-3)
            assert gradient_close(analytic, numeric, rel_tol=1e-4, abs_tol=1e-7)
            scale = np.maximum(np.abs(analytic), np.abs(numeric))
            with np.errstate(invalid="ignore", divide="ignore"):
                rel = np.abs(analytic - numeric) / np.where(scale > 1e-7, scale, np.inf)
            worst = max(worst, float(np.nanmax(rel)))

        def total_fixed_weights():
            out, _ = cr.gcn_forward(model, cond, h0)
            return cr.rasl_loss(out, labels, params)[0]

        numeric_input = central_difference(total_fixed_weights, h0, step=1e-3)
        assert gradient_close(grads.d_input, numeric_input, rel_tol=1e-4, abs_tol=1e-7)
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    ok(2, f"{checked} configurations, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_loss_reductions():
    """Degenerate RASL equals BCE; zero-weight head is the exact identity."""
    rng = np.random.default_rng(7)
    params = cr.RaslParams(
        alphas=cr.ReweightVector(np.ones(5), "none"),
        gamma_pos=0.0,
        gamma_neg=0.0,
        delta=0.0,
    )
    worst = 0.0
    for _ in range(50):
        logits = rng.normal(size=(6, 5)) * 3
        labels = rng.integers(0, 2, size=(6, 5))
        _, per_element = cr.rasl_loss(logits, labels, params)
        s = cr.sigmoid(logits)
        bce = -(labels * np.log(s) + (1 - labels) * np.log(1 - s))
        worst = max(worst, float(np.abs(per_element - bce).max()))
    assert worst < 1e-9

    probs = rng.random((5, 5)) * 0.9
    np.fill_diagonal(probs, 1.0)
    cond = cr.CondProbMatrix(probs)
    model = cr.init_model((1, 64, 64, 1), seed=0)
    zero = replace(model, weights=[np.zeros_like(w) for w in model.weights])
    h0 = rng.normal(size=(8, 5)) * 4
    refined, _ = cr.gcn_forward(zero, cond, h0)
    assert np.array_equal(refined, h0)
    ok(3, f"BCE max deviation {worst:.1e}; zero-weight head exactly identity")


def test_criterion_4_metric_oracle():
    """AP equals brute-force PR-area enumeration; perfect predictor scores 1."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 13))
        labels = rng.integers(0, 2, size=n)
        if labels.sum() == 0:
            labels[int(rng.integers(0, n))] = 1
        scores = np.round(rng.normal(size=n), 1)
        expected = brute_average_precision(scores.tolist(), labels.tolist())
        got = cr.average_precision(scores, labels)
        worst = max(worst, abs(got - expected))
    assert worst <= 1e-12

    values = rng.integers(0, 2, size=(12, 4)).astype(np.uint8)
    values[0] = 1    # every class has a positive
    labels_matrix = labels_from(values)
    perfect = np.where(values == 1, 9.0, -9.0)
    report = cr.evaluate(perfect, labels_matrix, threshold=0.5)
    for name in ("map", "cp", "cr", "cf1", "op", "or_", "of1"):
        assert getattr(report, name) == 1.0
    ok(4, f"500 AP instances, worst |diff| {worst:.1e}; perfect predictor all 1")


CLUSTERS = tuple(tuple(range(4 * i, 4 * i + 4)) for i in range(4))
WEAK = [c[0] for c in CLUSTERS]
ISOLATED = list(range(16, 20))
STRENGTH = tuple(0.3 if j in WEAK else 2.0 for j in range(20))


def synth_experiment(seed, cluster_probs=None):
    spec = cr.SyntheticSpec(
        n_classes=20,
        n_samples=4000,
        clusters=CLUSTERS,
        within_cluster_prob=0.9,
        base_prob=0.15,
        signal_strength=STRENGTH,
        noise_std=1.0,
        seed=seed,
        cluster_probs=cluster_probs,
    )
    labels, logits = cr.synth_generate(spec)
    return cr.split(labels, logits, 0.5, seed=seed)


def test_criterion_5_synthetic_refinement_experiment():
    """Refinement lifts mAP, favors weak clustered classes, and tracks
    co-occurrence strength."""
    start = time.perf_counter()
    seed = 0
    (train_labels, train_logits), (test_labels, test_logits) = synth_experiment(seed)
    config = cr.TrainConfig(seed=seed)    # 50 epochs, lr0 2e-3, batch 32, defaults
    model, _, cond, _ = cr.train(train_labels, train_logits, config)

    refined, _ = cr.gcn_forward(model, cond, test_logits.values)
    ap_before, excluded_b = cr.per_class_average_precision(test_logits.values, test_labels.values)
    ap_after, excluded_a = cr.per_class_average_precision(refined, test_labels.values)
    assert excluded_b == () and excluded_a == ()

    delta_map = ap_after.mean() - ap_before.mean()
    weak_gain = (ap_after[WEAK] - ap_before[WEAK]).mean()
    isolated_gain = (ap_after[ISOLATED] - ap_before[ISOLATED]).mean()
    analysis = cr.delta_ap_analysis(ap_before, ap_after, cond, k=3)
    elapsed = time.perf_counter() - start

    assert delta_map >= 0.02
    assert weak_gain > isolated_gain
    assert analysis.spearman_defined and analysis.spearman > 0.0
    assert elapsed < 120.0
    ok(
        5,
        f"dmAP {delta_map:+.4f} (>= +0.02), weak {weak_gain:+.4f} > isolated "
        f"{isolated_gain:+.4f}, spearman {analysis.spearman:+.3f} > 0, {elapsed:.0f}s",
    )


def test_criterion_6_reweighting_ablation():
    """Frequency reweighting does not hurt the rare cluster on the pinned seed."""
    start = time.perf_counter()
    seed = 6
    tail = list(CLUSTERS[0])
    rare = (0.015, 0.15, 0.15, 0.15)    # first cluster 10x rarer

    tail_ap = {}
    for mode in ("frequency", "none"):
        (train_labels, train_logits), (test_labels, test_logits) = synth_experiment(
            seed, cluster_probs=rare
        )
        config = cr.TrainConfig(seed=seed, reweight_mode=mode)
        model, _, cond, _ = cr.train(train_labels, train_logits, config)
        refined, _ = cr.gcn_forward(model, cond, test_logits.values)
        ap, excluded = cr.per_class_average_precision(refined, test_labels.values)
        assert not set(excluded) & set(tail)
        tail_ap[mode] = ap[tail].mean()

    gap = tail_ap["frequency"] - tail_ap["none"]
    elapsed = time.perf_counter() - start
    assert tail_ap["frequency"] >= tail_ap["none"]
    assert elapsed < 120.0
    ok(
        6,
        f"tail mean AP frequency {tail_ap['frequency']:.4f} >= uniform "
        f"{tail_ap['none']:.4f} (gap {gap:+.4f}), {elapsed:.0f}s",
    )


def test_criterion_7_pipeline_determinism(tmp_path):
    """The CLI pipeline rerun from its manifests is byte-identical."""
    data = tmp_path / "data"
    run = tmp_path / "run"

    def full_pipeline(from_manifests):
        if from_manifests:
            assert main(["synth", "--config", str(data / "synth_manifest.json")]) == 0
            assert main(["prior", "--config", str(run / "prior_manifest.json")]) == 0
            assert main(["train", "--config", str(run / "train_manifest.json")]) == 0
            assert main(["eval", "--config", str(run / "eval_manifest.json")]) == 0
            assert main(["analyze", "--config", str(run / "analyze_manifest.json")]) == 0
            return
        assert main([
            "synth", "--n-classes", "8", "--n-samples", "200",
            "--clusters", "0,1,2;3,4", "--within-cluster-prob", "0.9",
            "--base-prob", "0.25", "--signal-strength", "0.3,2.0,2.0,0.3,2.0,2.0,2.0,2.0",
            "--seed", "13", "--out-dir", str(data),
        ]) == 0
        assert main([
            "prior", "--labels", str(data / "labels.csv"), "--out-dir", str(run),
            "--seed", "13",
        ]) == 0
        assert main([
            "train", "--labels", str(data / "labels.csv"),
            "--logits", str(data / "logits.csv"),
            "--epochs", "5", "--batch-size", "16", "--gcn-dims", "1,8,8,1",
            "--seed", "13", "--out-dir", str(run),
        ]) == 0
        assert main([
            "eval", "--labels", str(data / "labels.csv"),
            "--logits", str(data / "logits.csv"),
            "--model", str(run / "model.txt"), "--cond-prob", str(run / "A.csv"),
            "--refined-out", "refined.csv", "--seed", "13", "--out-dir", str(run),
        ]) == 0
        assert main([
            "analyze", "--labels", str(data / "labels.csv"),
            "--cond-prob", str(run / "A.csv"),
            "--before", str(data / "logits.csv"), "--after", str(run / "refined.csv"),
            "--seed", "13", "--out-dir", str(run),
        ]) == 0

    full_pipeline(from_manifests=False)
    outputs = sorted(list(data.iterdir()) + list(run.iterdir()))
    first = {path.name: path.read_bytes() for path in outputs}
    assert first, "pipeline produced no outputs"

    full_pipeline(from_manifests=True)
    second = {path.name: path.read_bytes() for path in sorted(list(data.iterdir()) + list(run.iterdir()))}

    assert first.keys() == second.keys()
    different = [name for name in first if first[name] != second[name]]
    assert different == []
    ok(7, f"{len(first)} output files byte-identical across reruns (incl. manifests)")
