"""Training loop for the refinement head.

The co-occurrence prior (counts, conditional probabilities, reweighting
vector) is computed from the training labels only. The head is then fit
to minimize the summed reweighted asymmetric loss of the refined logits
with plain SGD (optional classic momentum) under a per-epoch cosine
learning-rate schedule. The batch objective is the sum, not the mean, of
per-element losses, so the configured learning rate is interpreted
against sum reduction. Class weights are rescaled to unit mean before
use (see ``_unit_mean``); the returned ReweightVector is the rescaled
one actually trained with.

Everything is deterministic given the config: batch order is keyed by
(seed, epoch), initialization by the same seed, and gradient
accumulation uses fixed-order reductions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .data import LabelMatrix, LogitMatrix, batches
from .errors import NumericError, ValidationError
from .gcn import GcnModel, _check_slope, _widths, gcn_backward, gcn_forward, init_model
from .loss import RaslParams, _check_settings, rasl_grad, rasl_loss
from .metrics import _mean_ap, per_class_average_precision
from .prior import (
    REWEIGHT_MODES,
    CondProbMatrix,
    ReweightVector,
    conditional_prob,
    cooccurrence,
    reweighting,
)
from .seeding import _check_seed


def _hp(default, help: str, choices: tuple = ()):
    """A hyperparameter; the CLI derives its ``train`` flag from it."""
    return field(default=default, metadata={"help": help, "choices": choices})


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one training run."""

    epochs: int = _hp(50, "passes over the training set")
    batch_size: int = _hp(32, "samples per SGD step")
    lr0: float = _hp(0.002, "initial learning rate (cosine-annealed per epoch)")
    momentum: float = _hp(0.0, "classic momentum coefficient")
    seed: int = _hp(0, "base seed; all stages derive from it")
    gamma_pos: float = _hp(1.0, "positive focusing exponent")
    gamma_neg: float = _hp(3.0, "negative focusing exponent")
    delta: float = _hp(0.05, "negative probability shift")
    eps: float = _hp(1e-8, "log clamp inside the loss")
    gcn_dims: tuple[int, ...] = _hp((1, 64, 64, 1), "layer widths, e.g. '1,64,64,1'")
    leaky_slope: float = _hp(0.01, "LeakyReLU negative slope")
    final_nonlinearity: bool = _hp(False, "apply the nonlinearity on the last layer too")
    reweight_mode: str = _hp("frequency", "per-class loss weights", REWEIGHT_MODES)

    def __post_init__(self):
        try:
            object.__setattr__(self, "gcn_dims", _widths(self.gcn_dims))
        except ValidationError as exc:
            raise ValidationError(f"gcn_dims: {exc}") from None
        if self.epochs < 1:
            raise ValidationError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValidationError("batch_size must be >= 1")
        if not 0 < self.lr0 < math.inf:
            raise ValidationError("lr0 must be positive and finite")
        if not 0.0 <= self.momentum < 1.0:
            raise ValidationError("momentum must be in [0, 1)")
        _check_settings(self.gamma_pos, self.gamma_neg, self.delta, self.eps)
        _check_slope(self.leaky_slope)
        _check_seed(self.seed)


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    mean_loss: float                # summed loss over the epoch / n_samples
    lr: float
    val_map: float | None


def cosine_lr(lr0: float, step: int, total_steps: int) -> float:
    """Cosine-annealed learning rate: lr0 at step 0, 0 at step total_steps.

    No warmup, no restarts; the training loop steps this once per epoch.
    """
    if total_steps < 1:
        raise ValidationError("total_steps must be >= 1")
    if not 0 <= step <= total_steps:
        raise ValidationError(f"step {step} outside [0, {total_steps}]")
    return lr0 * 0.5 * (1.0 + math.cos(math.pi * step / total_steps))


def sgd_step(
    model: GcnModel,
    grads,
    lr: float,
    momentum: float = 0.0,
    velocity=None,
):
    """Classic-momentum SGD update: v <- momentum*v + g; W <- W - lr*v.

    Returns (updated model, updated velocity). With momentum=0 this is
    plain SGD. The checks here validate the new weights, so they are
    frozen in place, and the new model is neither copied nor checked again.
    It takes the model's fields, not the tables the model caches.
    """
    if velocity is None:
        velocity = tuple(np.zeros_like(w) for w in model.weights)
    if len(grads.d_weights) != model.n_layers or len(velocity) != model.n_layers:
        raise ValidationError("gradient/velocity layer count does not match the model")
    new_velocity = []
    new_weights = []
    for w, g, v in zip(model.weights, grads.d_weights, velocity):
        if g.shape != w.shape or v.shape != w.shape:
            raise ValidationError("gradient/velocity shape does not match the model")
        v_next = momentum * v + g
        updated = w - lr * v_next
        if not np.isfinite(updated).all():
            raise NumericError("training diverged: non-finite weights after update")
        updated.flags.writeable = False
        new_velocity.append(v_next)
        new_weights.append(updated)
    new_model = object.__new__(GcnModel)
    vars(new_model).update({f.name: getattr(model, f.name) for f in fields(model)},
                           weights=tuple(new_weights))
    return new_model, tuple(new_velocity)


def _unit_mean(weights: ReweightVector) -> ReweightVector:
    """Rescale class weights to mean 1 for training.

    The batch objective is a sum, so a uniform factor in the weights is
    indistinguishable from rescaling the learning rate; normalizing keeps
    lr0 calibrated independently of the dataset's class-count mass and
    makes a reweighted run comparable to a uniform-weight run. Only the
    relative per-class weighting survives; uniform modes come out as
    exactly 1.
    """
    return ReweightVector(weights.alphas / weights.alphas.mean())


def _validation_map(model, cond, val_labels, val_logits) -> float:
    refined, _ = gcn_forward(model, cond, val_logits.values)
    return _mean_ap(*per_class_average_precision(refined, val_labels.values))


def _check_data(train_labels, train_logits, validation) -> None:
    """The checks ``train`` makes of its data before it computes anything."""
    if train_labels.values.shape != train_logits.values.shape:
        raise ValidationError("training labels and logits shapes differ")
    if validation is not None:
        val_labels, val_logits = validation
        if val_labels.values.shape != val_logits.values.shape:
            raise ValidationError("validation labels and logits shapes differ")
        if val_labels.class_names != train_labels.class_names:
            raise ValidationError("validation class names differ from training")


def train(
    train_labels: LabelMatrix,
    train_logits: LogitMatrix,
    config: TrainConfig,
    validation: tuple[LabelMatrix, LogitMatrix] | None = None,
) -> tuple[GcnModel, ReweightVector, CondProbMatrix, tuple[EpochRecord, ...]]:
    """Fit the refinement head; returns (model, reweighting, cond-prob, history).

    The history holds one ``EpochRecord`` per epoch. The prior is estimated
    from the training split only.
    """
    _check_data(train_labels, train_logits, validation)

    cooc = cooccurrence(train_labels)
    cond = conditional_prob(cooc)
    weights = _unit_mean(reweighting(cooc, config.reweight_mode))
    params = RaslParams(
        alphas=weights,
        gamma_pos=config.gamma_pos,
        gamma_neg=config.gamma_neg,
        delta=config.delta,
        eps=config.eps,
    )
    model = init_model(
        config.gcn_dims, config.leaky_slope, config.seed, config.final_nonlinearity
    )
    velocity = None

    x = train_logits.values
    y = train_labels.values
    n = train_labels.n_samples
    records = []
    for epoch in range(config.epochs):
        lr = cosine_lr(config.lr0, epoch, config.epochs)
        epoch_loss = 0.0
        for idx in batches(n, config.batch_size, config.seed, epoch):
            refined, cache = gcn_forward(model, cond, x[idx])
            batch_loss, _ = rasl_loss(refined, y[idx], params)
            grad_logits = rasl_grad(refined, y[idx], params)
            grads = gcn_backward(cache, grad_logits)
            model, velocity = sgd_step(model, grads, lr, config.momentum, velocity)
            epoch_loss += batch_loss
        val_map = None
        if validation is not None:
            val_map = _validation_map(model, cond, *validation)
        records.append(EpochRecord(epoch, epoch_loss / n, lr, val_map))
    return model, weights, cond, tuple(records)
