"""Co-occurrence statistics over training labels.

Three artifacts are derived from a label matrix: the symmetric pairwise
co-occurrence count matrix, the row-conditional probability matrix used
as fixed propagation weights by the refinement network, and the
per-class loss reweighting vector that counteracts class imbalance.

All functions are pure; inputs and outputs are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._arrays import frozen_array
from .data import LabelMatrix
from .errors import ValidationError

REWEIGHT_MODES = ("frequency", "none")


@dataclass(frozen=True)
class CoocMatrix:
    """Pairwise label co-occurrence counts; diagonal holds class frequencies."""

    counts: np.ndarray              # (N, N) int64, symmetric

    def __post_init__(self):
        counts = frozen_array(self.counts, np.int64)
        if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
            raise ValidationError("co-occurrence counts must be square")
        if (counts < 0).any():
            raise ValidationError("co-occurrence counts must be non-negative")
        if (counts != counts.T).any():
            raise ValidationError("co-occurrence counts must be symmetric")
        diag = counts.diagonal()
        if (counts > np.minimum(diag[:, None], diag[None, :])).any():
            raise ValidationError("pair count exceeds a class frequency")
        object.__setattr__(self, "counts", counts)

    @property
    def n_classes(self) -> int:
        return self.counts.shape[0]


@dataclass(frozen=True, eq=False)
class CondProbMatrix:
    """Estimated P(column class present | row class present), compared and
    hashed by identity, as a forward cache binds it.

    Rows of classes never seen in training cannot be normalized; they are
    set to the identity row (probability 1 on the class itself, 0
    elsewhere). Under identity rows, graph propagation degrades to
    self-propagation for such classes instead of producing NaNs.
    ``cooc`` is the counts ``conditional_prob`` derived it from, else None.
    """

    probs: np.ndarray               # (N, N) float64 in [0, 1]
    cooc: CoocMatrix | None = None

    def __post_init__(self):
        probs = frozen_array(self.probs, np.float64)
        if probs.ndim != 2 or probs.shape[0] != probs.shape[1]:
            raise ValidationError("conditional probabilities must be square")
        if not np.isfinite(probs).all():
            raise ValidationError("conditional probabilities must be finite")
        if (probs < 0).any() or (probs > 1).any():
            raise ValidationError("conditional probabilities must lie in [0, 1]")
        if not (probs.diagonal() == 1.0).all():
            raise ValidationError("diagonal conditional probabilities must be 1")
        object.__setattr__(self, "probs", probs)

    @property
    def n_classes(self) -> int:
        return self.probs.shape[0]

    @cached_property
    def propagation(self) -> np.ndarray:
        """Row-normalized operator the refinement head propagates through.

        Each row is divided by its sum, so a node aggregates a weighted
        average of its co-occurrence neighborhood and the operator's gain is
        bounded by 1 regardless of how dense co-occurrence is. Without this,
        stacking layers multiplies activations by the matrix's spectral
        radius (easily 5-10 on strongly clustered data) per layer, saturating
        every sigmoid at initialization and making training unrecoverable.
        Identity rows (never-seen classes) are unchanged, so their locality
        is preserved. Rows always sum to at least 1 (unit diagonal), so the
        division is safe. Computed on first use, then kept, read-only.
        """
        prop = self.probs / self.probs.sum(axis=1, keepdims=True)
        prop.setflags(write=False)
        return prop


@dataclass(frozen=True)
class ReweightVector:
    """Per-class multiplicative loss weights.

    ``frequency`` mode weights a class by the inverse of its share of the
    total class-frequency mass, and ``none`` assigns 1 everywhere.
    """

    alphas: np.ndarray              # (N,) positive finite float64
    mode: str

    def __post_init__(self):
        alphas = frozen_array(self.alphas, np.float64)
        if alphas.ndim != 1:
            raise ValidationError("alphas must be a vector")
        if not np.isfinite(alphas).all() or (alphas <= 0).any():
            raise ValidationError("alphas must be positive and finite")
        if self.mode not in REWEIGHT_MODES:
            raise ValidationError(f"unknown reweight mode '{self.mode}'")
        if self.mode == "none" and not np.all(alphas == alphas[0]):
            raise ValidationError("none mode requires equal alphas")
        object.__setattr__(self, "alphas", alphas)

    @property
    def n_classes(self) -> int:
        return self.alphas.shape[0]


def cooccurrence(labels: LabelMatrix) -> CoocMatrix:
    """Count, for every class pair, the samples where both are present.

    Equals Y^T Y for the binary label matrix Y; the diagonal counts each
    class's positive samples. The product runs in float64 BLAS, which
    counts exactly while the sample count is below 2**53.
    """
    y = labels.values.astype(np.float64)
    return CoocMatrix((y.T @ y).astype(np.int64))


def conditional_prob(cooc: CoocMatrix) -> CondProbMatrix:
    """Normalize each co-occurrence row by its diagonal count.

    Entry (m, n) estimates the probability that class n is present given
    class m is. Zero-count rows become identity rows.
    """
    diag = cooc.counts.diagonal()
    zero = np.flatnonzero(diag == 0)
    probs = cooc.counts / np.maximum(diag, 1.0)[:, None]
    probs[zero, :] = 0.0
    probs[zero, zero] = 1.0
    return CondProbMatrix(probs, cooc)


def reweighting(cooc: CoocMatrix, mode: str = "frequency") -> ReweightVector:
    """Per-class loss weights from the co-occurrence diagonal.

    frequency: alpha_j = (sum_k c_kk) / max(c_jj, 1), i.e. the inverse of
    class j's relative frequency share; rarer classes get larger weights.
    Zero counts are clamped to 1, and an all-zero diagonal degrades to
    uniform weights of 1. none: alpha_j = 1. ReweightVector rejects any other mode.
    """
    if mode == "frequency":
        diag = cooc.counts.diagonal().astype(np.float64)
        total = max(float(diag.sum()), 1.0)
        alphas = total / np.maximum(diag, 1.0)
    else:
        alphas = np.ones(cooc.n_classes)
    return ReweightVector(alphas, mode)


def _check_k(k: int, n_classes: int, name: str = "k") -> None:
    if not 1 <= k <= n_classes - 1:
        raise ValidationError(f"{name} must be in [1, {n_classes - 1}], got {k}")


def _top_k_means(cond: CondProbMatrix, k: int) -> np.ndarray:
    """Mean of the k largest off-diagonal conditional probabilities of every row."""
    n = cond.n_classes
    _check_k(k, n)
    off_diagonal = cond.probs[~np.eye(n, dtype=bool)].reshape(n, n - 1)
    return np.sort(off_diagonal, axis=1)[:, -k:].mean(axis=1)
