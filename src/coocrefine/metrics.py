"""Multi-label evaluation: per-class AP, mAP, precision/recall/F1 suites,
and the per-class improvement-vs-co-occurrence-strength analysis.

Average precision uses the precision-at-positive-ranks estimator: samples
are sorted by descending score (ties broken by ascending sample index),
and AP is the mean over positives of the precision at each positive's
rank, k / rank_k for the k-th positive. This equals the area under the
precision-recall step function. ``per_class_average_precision`` is the one
implementation; it checks that its labels are 0 or 1 once per matrix, and
``average_precision`` is its one-column case.

Aggregate conventions, also recorded in emitted reports:

* CP averages per-class precision over all classes; a class with no
  predicted positives contributes precision 0.
* CR averages per-class recall over classes that have actual positives.
* CF1/OF1 are the harmonic means of the (CP, CR) / (OP, OR) pairs, not
  means of per-class F1 values.
* OP/OR pool true positives over all decisions; a zero denominator gives 0.
* mAP is threshold-free, computed on raw scores; classes without any
  positive sample are excluded and listed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import LabelMatrix, _check_labels
from .errors import ValidationError
from .loss import sigmoid
from .prior import CondProbMatrix, _top_k_means


@dataclass(frozen=True)
class MetricsReport:
    """Full evaluation summary for one score matrix."""

    per_class_ap: np.ndarray        # 0.0 at excluded classes
    map: float
    cp: float
    cr: float
    cf1: float
    op: float
    or_: float
    of1: float
    threshold: float | None
    top_k: int | None
    excluded_classes: tuple[int, ...]


@dataclass(frozen=True)
class DeltaApBin:
    """One co-occurrence-strength bucket of per-class AP improvements."""

    bin_low: float
    bin_high: float
    mean_delta_ap: float
    class_count: int


@dataclass(frozen=True)
class DeltaApResult:
    """Binned AP-improvement curve plus its rank correlation.

    ``spearman_defined`` is False when either axis is constant (e.g. all
    improvements are zero); the coefficient is then reported as 0.
    """

    bins: tuple[DeltaApBin, ...]
    spearman: float
    spearman_defined: bool
    class_indices: tuple[int, ...]
    top_k_mean: np.ndarray
    delta_ap: np.ndarray


def average_precision(scores, labels) -> float:
    """AP of one class: ``per_class_average_precision`` of one column."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels).ravel()
    if scores.shape != labels.shape:
        raise ValidationError("scores and labels must have equal length")
    ap, excluded = per_class_average_precision(scores[:, None], labels[:, None])
    if excluded:
        raise ValidationError("average precision needs at least one positive label")
    return float(ap[0])


def per_class_average_precision(
    scores: np.ndarray, label_values: np.ndarray
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Per-class AP over columns; classes without positives are excluded.

    Returns (ap vector with 0.0 at excluded classes, excluded indices).
    Every AP in this package, both sides of every comparison included, goes
    through this single code path.
    """
    scores, label_values = _check_labels(scores, label_values, "scores")
    ap = np.zeros(scores.shape[1])
    excluded = []
    for j in range(scores.shape[1]):
        # descending score, ties broken by ascending sample index
        order = np.argsort(-scores[:, j], kind="stable")
        ranks = np.flatnonzero(label_values[order, j]) + 1
        if ranks.size:
            # the k-th positive has k hits at its rank
            ap[j] = (np.arange(1, ranks.size + 1) / ranks).mean()
        else:
            excluded.append(j)
    return ap, tuple(excluded)


def _mean_ap(ap: np.ndarray, excluded: tuple[int, ...]) -> float:
    """mAP: the mean of ``ap`` over the classes not ``excluded``; 0 if none is left."""
    included = np.setdiff1d(np.arange(ap.size), excluded)
    return float(ap[included].mean()) if included.size else 0.0


def evaluate(
    scores: np.ndarray,
    labels: LabelMatrix,
    threshold: float | None = 0.5,
    top_k: int | None = None,
) -> MetricsReport:
    """Score a batch of raw logits against ground-truth labels.

    Predictions are sigmoid(score) >= threshold, or, in top-k mode, the k
    highest-scoring classes per sample (ties broken by ascending class
    index). mAP ignores the decision rule and ranks raw scores.
    """
    if top_k is not None and not 1 <= top_k <= labels.n_classes:
        raise ValidationError(f"top_k must be in [1, {labels.n_classes}], got {top_k}")
    if top_k is None and (threshold is None or not 0.0 < threshold < 1.0):
        raise ValidationError("threshold must be in (0, 1)")
    scores = np.asarray(scores, dtype=np.float64)
    ap, excluded = per_class_average_precision(scores, labels.values)    # checks the shapes
    y = labels.values.astype(bool)
    if top_k is not None:
        order = np.argsort(-scores, axis=1, kind="stable")
        preds = np.zeros_like(y)
        np.put_along_axis(preds, order[:, :top_k], True, axis=1)
        threshold = None
    else:
        preds = sigmoid(scores) >= threshold

    tp = (preds & y).sum(axis=0).astype(np.float64)
    predicted = preds.sum(axis=0).astype(np.float64)
    actual = y.sum(axis=0).astype(np.float64)

    precision_c = np.where(predicted > 0, tp / np.maximum(predicted, 1), 0.0)
    cp = float(precision_c.mean())
    with_pos = actual > 0
    cr = float((tp[with_pos] / actual[with_pos]).mean()) if with_pos.any() else 0.0
    op = float(tp.sum() / predicted.sum()) if predicted.sum() > 0 else 0.0
    or_ = float(tp.sum() / actual.sum()) if actual.sum() > 0 else 0.0

    def harmonic(p: float, r: float) -> float:
        return 2.0 * p * r / (p + r) if p + r > 0 else 0.0

    return MetricsReport(
        per_class_ap=ap,
        map=_mean_ap(ap, excluded),
        cp=cp,
        cr=cr,
        cf1=harmonic(cp, cr),
        op=op,
        or_=or_,
        of1=harmonic(op, or_),
        threshold=threshold,
        top_k=top_k,
        excluded_classes=excluded,
    )


def _average_ranks(v: np.ndarray) -> np.ndarray:
    """1-based ranks of ``v``; tied values share the mean of their ranks."""
    order = np.argsort(v, kind="stable")
    ordered = v[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], v.size]
    ranks = np.empty(v.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2, ends - starts)
    return ranks


def delta_ap_analysis(
    ap_before,
    ap_after,
    cond: CondProbMatrix,
    k: int = 3,
    bin_size: float = 0.02,
    exclude=(),
) -> DeltaApResult:
    """Relate per-class AP improvement to co-occurrence strength.

    For each class (minus ``exclude``), x is the mean of its k strongest
    off-diagonal conditional probabilities and delta is ap_after -
    ap_before. Classes are grouped into [i*bin_size, (i+1)*bin_size)
    buckets of x; bins are emitted sorted by bin_low with their mean
    delta and class count, together with the Spearman rank correlation
    between x and delta across the individual classes: the Pearson
    correlation of their ranks, where tied values share their average rank.
    """
    ap_before = np.asarray(ap_before, dtype=np.float64)
    ap_after = np.asarray(ap_after, dtype=np.float64)
    n = cond.n_classes
    if ap_before.shape != (n,) or ap_after.shape != (n,):
        raise ValidationError("AP vectors must align with the probability matrix classes")
    if not bin_size > 0:
        raise ValidationError("bin_size must be positive")
    if not 2.0**-53 < bin_size < np.inf:    # so every bin index, at most 1 / bin_size, is exact
        raise ValidationError("bin_size must be finite and greater than 2**-53")
    excluded = [int(i) for i in exclude]
    for i in excluded:
        if not 0 <= i < n:
            raise ValidationError(f"exclude index {i} out of range for {n} classes")
    keep = [j for j in range(n) if j not in excluded]
    if not keep:
        raise ValidationError("no classes left to analyze")

    x = _top_k_means(cond, k)[keep]
    delta = ap_after[keep] - ap_before[keep]

    # small guard so values sitting on a boundary land in the upper bin
    bin_idx = np.floor(x / bin_size + 1e-9).astype(int)
    bins = []
    for i in sorted(set(bin_idx)):
        members = bin_idx == i
        bins.append(
            DeltaApBin(
                bin_low=float(i * bin_size),
                bin_high=float((i + 1) * bin_size),
                mean_delta_ap=float(delta[members].mean()),
                class_count=int(members.sum()),
            )
        )

    if np.all(x == x[0]) or np.all(delta == delta[0]):
        spearman, defined = 0.0, False
    else:
        ranks = np.column_stack((_average_ranks(x), _average_ranks(delta)))
        spearman, defined = float(np.corrcoef(ranks, rowvar=False)[1, 0]), True

    return DeltaApResult(
        bins=tuple(bins),
        spearman=spearman,
        spearman_defined=defined,
        class_indices=tuple(keep),
        top_k_mean=x,
        delta_ap=delta,
    )
