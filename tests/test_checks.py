"""The boundary checks of constructors and public functions that no
other test reaches: each case is a call and the message of the
ValidationError it raises."""

import os
import re

import numpy as np
import pytest

from coocrefine import (
    CondProbMatrix,
    CoocMatrix,
    GcnGradients,
    GcnModel,
    LabelMatrix,
    LogitMatrix,
    RaslParams,
    ReweightVector,
    SyntheticSpec,
    TrainConfig,
    ValidationError,
    average_precision,
    batches,
    cosine_lr,
    delta_ap_analysis,
    gcn_forward,
    init_model,
    per_class_average_precision,
    rasl_loss,
    reweighting,
    sgd_step,
    split,
    synth_generate,
    train,
    write_logits,
)
from coocrefine.seeding import rng_for


def labels(n=2):
    return LabelMatrix(np.eye(n, 2), tuple(f"s{i}" for i in range(n)), ("c0", "c1"))


def spec(**overrides):
    return SyntheticSpec(**{
        "n_classes": 2, "n_samples": 10, "clusters": ((0, 1),), "within_cluster_prob": 0.5,
        "base_prob": 0.5, "signal_strength": 1.0, "noise_std": 1.0, "seed": 0, **overrides,
    })


CHECKS = {
    # data.py
    "labels-1d": (lambda: LabelMatrix(np.zeros(2), ("a", "b"), ("c0", "c1")),
                  "label values must be a 2-d matrix"),
    "labels-no-rows": (lambda: LabelMatrix(np.zeros((0, 2)), (), ("c0", "c1")), "no samples"),
    "labels-ids": (lambda: LabelMatrix(np.zeros((2, 2)), ("a",), ("c0", "c1")),
                   "sample_ids length does not match row count"),
    "labels-names": (lambda: LabelMatrix(np.zeros((1, 2)), ("a",), ("c0",)),
                     "class_names length does not match column count"),
    "logits-1d": (lambda: LogitMatrix(np.zeros(2)), "logit values must be a 2-d matrix"),
    "spec-samples": (lambda: spec(n_samples=0), "need at least 1 sample"),
    "spec-within": (lambda: spec(within_cluster_prob=1.5), "within_cluster_prob must be in [0, 1]"),
    "spec-base": (lambda: spec(base_prob=-0.1), "base_prob must be in [0, 1]"),
    "spec-cluster-probs-count": (lambda: spec(cluster_probs=(0.5, 0.5)),
                                 "cluster_probs length must match clusters"),
    "spec-cluster-probs-range": (lambda: spec(cluster_probs=(1.5,)),
                                 "cluster_probs must be in [0, 1]"),
    "spec-strength": (lambda: spec(signal_strength=-1.0), "signal_strength must be non-negative"),
    "spec-strength-nan": (lambda: spec(signal_strength=np.nan), "signal_strength must be finite"),
    "spec-noise-inf": (lambda: spec(noise_std=np.inf), "noise_std must be positive and finite"),
    "spec-seed": (lambda: spec(seed=-1), "seed must be a non-negative integer"),
    "spec-cluster-repeat": (lambda: spec(clusters=((0, 0),)),
                            "class 0 appears more than once in one cluster"),
    "synth-overflow": (lambda: synth_generate(spec(n_samples=1000, noise_std=1e308)),
                       "logits overflow float64: lower noise_std or signal_strength"),
    "write-logits-shape": (lambda: write_logits(LogitMatrix(np.zeros((2, 3))), labels(), os.devnull),
                           "logits shape does not match labels"),
    "split-shape": (lambda: split(labels(), LogitMatrix(np.zeros((2, 3))), 0.5, 0),
                    "labels and logits shapes differ"),
    "batches-samples": (lambda: batches(0, 1, 0, 0), "n_samples must be >= 1"),
    # gcn.py
    "model-weight-count": (lambda: GcnModel((1, 1), ()), "weight count does not match layer_dims"),
    "model-weight-shape": (lambda: GcnModel((1, 1), (np.zeros((1, 2)),)),
                           "layer 1 weights must have shape (1, 1)"),
    "forward-1d": (lambda: gcn_forward(init_model((1, 1), seed=0), CondProbMatrix(np.eye(2)),
                                       np.zeros(2)),
                   "h0 must be a 2-d (batch, classes) matrix"),
    # loss.py
    "loss-shape": (lambda: rasl_loss(np.zeros((1, 2)), np.zeros((2, 2)),
                                     RaslParams(ReweightVector(np.ones(2)))),
                   "logits and labels must be matching 2-d matrices"),
    # metrics.py
    "ap-length": (lambda: average_precision(np.zeros(2), np.ones(3)),
                  "scores and labels must have equal length"),
    "per-class-ap-shape": (lambda: per_class_average_precision(np.zeros((2, 2)), np.ones((2, 3))),
                           "scores and labels must be matching 2-d matrices"),
    "delta-ap-none-left": (lambda: delta_ap_analysis(np.zeros(2), np.zeros(2),
                                                     CondProbMatrix(np.eye(2)), k=1,
                                                     exclude=(0, 1)),
                           "no classes left to analyze"),
    "delta-ap-exclude-range": (lambda: delta_ap_analysis(np.zeros(3), np.zeros(3),
                                                         CondProbMatrix(np.eye(3)), k=1,
                                                         exclude=(5, -1)),
                               "exclude index 5 out of range for 3 classes"),
    # prior.py
    "cooc-square": (lambda: CoocMatrix(np.zeros((2, 3))), "co-occurrence counts must be square"),
    "cooc-negative": (lambda: CoocMatrix(-np.eye(2)), "co-occurrence counts must be non-negative"),
    "cooc-pair": (lambda: CoocMatrix(np.array([[1, 2], [2, 1]])),
                  "pair count exceeds a class frequency"),
    "cond-square": (lambda: CondProbMatrix(np.ones((2, 3))),
                    "conditional probabilities must be square"),
    "cond-range": (lambda: CondProbMatrix(np.array([[1.0, 1.5], [0.0, 1.0]])),
                   "conditional probabilities must lie in [0, 1]"),
    "cond-diagonal-near-one": (lambda: CondProbMatrix(np.array([[1 - 1e-9, 0.0], [0.0, 1.0]])),
                               "diagonal conditional probabilities must be 1"),
    "alphas-2d": (lambda: ReweightVector(np.ones((2, 2))), "alphas must be a vector"),
    "alphas-mode": (lambda: reweighting(CoocMatrix(np.eye(2, dtype=int)), "bogus"),
                    "unknown reweight mode 'bogus'"),
    # seeding.py
    "rng-seed": (lambda: rng_for(-1, 1), "seed must be a non-negative integer"),
    # train.py
    "cosine-steps": (lambda: cosine_lr(0.1, 0, 0), "total_steps must be >= 1"),
    "sgd-layer-count": (lambda: sgd_step(init_model((1, 1), seed=0), GcnGradients((), None), 0.1),
                        "gradient/velocity layer count does not match the model"),
    "validation-shape": (lambda: train(labels(), LogitMatrix(np.zeros((2, 2))), TrainConfig(),
                                       (labels(), LogitMatrix(np.zeros((2, 3))))),
                         "validation labels and logits shapes differ"),
    "train-seed": (lambda: TrainConfig(seed=-1), "seed must be a non-negative integer"),
}


@pytest.mark.parametrize("case", CHECKS)
def test_check_rejects_with_its_message(case):
    call, message = CHECKS[case]
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()
