"""Reweighted asymmetric loss over sigmoid probabilities.

Per element, with s = sigmoid(logit) and per-class weight alpha_j:

    positive (y=1):  alpha_j * (1 - s)^gamma_pos * -log(max(s, eps))
    negative (y=0):  alpha_j * sd^gamma_neg * -log(max(1 - sd, eps))
                     where sd = max(s - delta, 0)

The shift delta carves a margin in probability space: negatives whose
probability is at or below delta contribute exactly zero loss and zero
gradient. Separate focusing exponents down-weight easy positives and
easy negatives independently; alpha_j counteracts class imbalance. The
eps clamp inside the logs keeps saturated predictions finite and is a
documented deviation from the pure formula. The total is the plain sum
over all batch elements and classes, accumulated in fixed order.

``sigmoid`` is ``where(x >= 0, 1, e) / (1 + e)`` with ``e = exp(-|x|)``:
bit for bit the two-branch stable form, without boolean-mask indexing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ValidationError
from .prior import ReweightVector


def _check_settings(gamma_pos, gamma_neg, delta, eps) -> None:
    """The rules for the loss's hyperparameters; the error names the broken one."""
    for name, gamma in (("gamma_pos", gamma_pos), ("gamma_neg", gamma_neg)):
        if not 0 <= gamma < math.inf:
            raise ValidationError(f"{name} must be finite and non-negative")
    if not 0.0 <= delta < 1.0:
        raise ValidationError("delta must be in [0, 1)")
    if not 0.0 < eps <= 1e-4:
        raise ValidationError("eps must be in (0, 1e-4]")


@dataclass(frozen=True)
class RaslParams:
    """Loss hyperparameters plus the per-class weight vector."""

    alphas: ReweightVector
    gamma_pos: float = 1.0
    gamma_neg: float = 3.0
    delta: float = 0.05
    eps: float = 1e-8

    def __post_init__(self):
        _check_settings(self.gamma_pos, self.gamma_neg, self.delta, self.eps)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function (see the module docstring)."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _check_inputs(logits: np.ndarray, labels: np.ndarray, params: RaslParams):
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    if logits.ndim != 2 or labels.shape != logits.shape:
        raise ValidationError("logits and labels must be matching 2-d matrices")
    if not np.isfinite(logits).all():
        raise NumericError("non-finite logit")
    if not ((labels == 0) | (labels == 1)).all():
        raise ValidationError("labels must be 0 or 1")
    if params.alphas.n_classes != logits.shape[1]:
        raise ValidationError(
            f"alphas cover {params.alphas.n_classes} classes but logits have "
            f"{logits.shape[1]}"
        )
    return logits, labels.astype(bool)


def rasl_loss(
    logits: np.ndarray, labels: np.ndarray, params: RaslParams
) -> tuple[float, np.ndarray]:
    """Total and per-element loss for a batch of logits.

    Every per-element value is >= 0; the total is their sum.
    """
    logits, positive = _check_inputs(logits, labels, params)
    s = sigmoid(logits)
    alpha = params.alphas.alphas[None, :]

    pos_loss = -alpha * (1.0 - s) ** params.gamma_pos * np.log(np.maximum(s, params.eps))

    sd = np.maximum(s - params.delta, 0.0)
    neg_loss = -alpha * sd ** params.gamma_neg * np.log(np.maximum(1.0 - sd, params.eps))

    per_element = np.where(positive, pos_loss, neg_loss)
    return float(per_element.sum()), per_element


def rasl_grad(logits: np.ndarray, labels: np.ndarray, params: RaslParams) -> np.ndarray:
    """Exact per-element derivative of the total loss w.r.t. each logit.

    This is the derivative of the pure loss formula chained through
    dsigmoid/dlogit = s*(1-s); the eps clamp only keeps reported loss
    values finite and does not flatten the gradient, so a saturated
    wrong positive keeps its full recovery gradient of magnitude
    alpha_j (the limit of the true derivative). At the negative-branch
    kink (s exactly delta) the subgradient is 0.

    Positive branch, written without negative powers so saturation needs
    no special cases:

        -alpha * (1-s)^gamma_pos * [ (1-s) - gamma_pos * s*log(s) ]

    Negative branch (only where s > delta), with sd = s - delta:

        alpha * [ s*sd^gamma_neg * (1-s)/(1-sd)
                  - gamma_neg * sd^(gamma_neg-1) * log(1-sd) * s*(1-s) ]
    """
    logits, positive = _check_inputs(logits, labels, params)
    gp, gn = params.gamma_pos, params.gamma_neg
    tiny = np.finfo(np.float64).tiny
    s = sigmoid(logits)
    one_m = 1.0 - s
    sm = s * one_m                  # d sigmoid / d logit
    alpha = params.alphas.alphas[None, :]

    # s*log(s) -> 0 as s -> 0; finite, so at gamma_pos = 0 the bracket is 1-s exactly
    slog = np.where(s > tiny, s * np.log(np.maximum(s, tiny)), 0.0)
    g_pos = -alpha * one_m ** gp * (one_m - gp * slog)

    sd = np.maximum(s - params.delta, 0.0)
    active = s > params.delta
    sd_safe = np.where(active, sd, 1.0)
    one_m_sd = 1.0 - sd
    # (1-s)/(1-sd) <= 1; the 0/0 case (delta=0, s=1) has limit 1
    ratio = np.where(one_m_sd > 0, one_m / np.maximum(one_m_sd, tiny), 1.0)
    inner_n = s * sd_safe ** gn * ratio
    if gn > 0:
        log_1m = np.log(np.maximum(one_m_sd, tiny))
        inner_n = inner_n - gn * sd_safe ** (gn - 1.0) * log_1m * sm
    g_neg = alpha * np.where(active, inner_n, 0.0)

    return np.where(positive, g_pos, g_neg)
