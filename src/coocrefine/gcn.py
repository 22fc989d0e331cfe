"""Graph-convolutional refinement head over class nodes.

Each sample's per-class logits form a one-feature-per-node graph signal.
A layer propagates features through the fixed conditional-probability
matrix and mixes them with a learned weight matrix:

    H_l = act(P @ H_{l-1} @ W_l)

where P is the row-normalized conditional-probability matrix (see
``propagation_matrix``), W_l the layer's learnable weights, and act a
LeakyReLU applied on hidden layers (and on the last layer only when
``final_nonlinearity`` is set). Layers carry no
bias, so zero input maps to zero output. The head's output is added back
onto the input logits: refined = h0 + head(h0).

The formula is evaluated exactly, but P only ever multiplies signals of
width 1 or 2. The input has width 1 and LeakyReLU is positively
homogeneous, so per sample, with a = P h0 and w1 the single row of W_1:

* layer 1: ``H_1 = leaky(a ⊗ w1) = a+ ⊗ u+ + a- ⊗ u-``, where
  ``a± = max/min(a, 0)``, ``u+ = leaky(w1)`` and ``u- = -leaky(-w1)``;
  H_1 has rank at most 2;
* layer 2: ``P H_1 W_2 = q+ ⊗ (u+ W_2) + q- ⊗ (u- W_2)`` with ``q± = P a±``;
* layers >= 3 propagate at width ``min(d_in, d_out)``: ``P (H W)`` when
  ``d_out < d_in`` (the 64 -> 1 output layer), ``(P H) W`` otherwise.

The backward pass uses the same factors. Results agree with the literal
dense evaluation to within 1e-13 relative, not bit for bit, so model
files and refined logits differ in their last digits from those of
versions that evaluated the formula literally.

Gradients are computed analytically in reverse mode; the LeakyReLU
subgradient at exactly 0 uses the positive-branch slope 1. Forward and
backward are pure functions of their inputs and bitwise deterministic.

Model file format (version ``coocrefine-gcn v1``), all tokens space
separated, floats written with shortest round-trip repr:

    coocrefine-gcn v1
    layer_dims 1 64 64 1
    leaky_slope 0.01
    final_nonlinearity 0
    weights 0 1 64
    <one line per weight-matrix row: d_out floats>
    weights 1 64 64
    ...
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ._arrays import frozen_array
from .data import read_text
from .errors import NumericError, ValidationError
from .prior import CondProbMatrix
from .seeding import STREAM_INIT, rng_for

MODEL_FORMAT_HEADER = "coocrefine-gcn v1"


@dataclass(frozen=True)
class GcnModel:
    """Stack of per-layer weight matrices plus architecture metadata.

    ``layer_dims`` lists per-node feature widths, starting and ending at 1
    (one scalar logit in and out per class node).
    """

    layer_dims: tuple[int, ...]
    weights: tuple[np.ndarray, ...]
    leaky_slope: float = 0.01
    final_nonlinearity: bool = False

    def __post_init__(self):
        dims = tuple(int(d) for d in self.layer_dims)
        object.__setattr__(self, "layer_dims", dims)
        if len(dims) < 2:
            raise ValidationError("need at least one layer")
        if dims[0] != 1 or dims[-1] != 1:
            raise ValidationError("first and last layer widths must be 1")
        if any(d < 1 for d in dims):
            raise ValidationError("layer widths must be positive")
        if len(self.weights) != len(dims) - 1:
            raise ValidationError("weight count does not match layer_dims")
        frozen = []
        for l, w in enumerate(self.weights):
            w = frozen_array(w, np.float64)
            if w.shape != (dims[l], dims[l + 1]):
                raise ValidationError(
                    f"layer {l + 1} weights must have shape {(dims[l], dims[l + 1])}"
                )
            if not np.isfinite(w).all():
                raise ValidationError(f"layer {l + 1} weights contain non-finite values")
            frozen.append(w)
        object.__setattr__(self, "weights", tuple(frozen))
        if not 0.0 < self.leaky_slope < 1.0:
            raise ValidationError("leaky_slope must be in (0, 1)")

    @property
    def n_layers(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class GcnGradients:
    """Gradients w.r.t. every weight matrix and the input logits."""

    d_weights: tuple[np.ndarray, ...]
    d_input: np.ndarray             # (batch, N)

    def __post_init__(self):
        object.__setattr__(self, "d_weights", tuple(self.d_weights))
        for g in self.d_weights:
            if not np.isfinite(g).all():
                raise NumericError("non-finite weight gradient")
        if not np.isfinite(self.d_input).all():
            raise NumericError("non-finite input gradient")


@dataclass(frozen=True)
class GcnCache:
    """Forward intermediates needed by the backward pass.

    Arrays are node-major, ``(N, batch, width)``. Layer 1's pre-activation
    ``a ⊗ w1`` stays factored and is built only when ``pre_acts`` is read.
    """

    first_input: np.ndarray                 # a = P h0 per sample, (N, batch)
    first_weights: np.ndarray               # w1, the single row of W_1, (d_1,)
    signals: tuple[np.ndarray, ...]         # per layer >= 2: P F, or F if it propagates after mixing
    later_pre_acts: tuple[np.ndarray, ...]  # Z_l per layer >= 2, (N, batch, d_l)

    @property
    def pre_acts(self) -> tuple[np.ndarray, ...]:
        """Pre-activation Z_l of every layer, each ``(batch, N, d_l)``."""
        first = self.first_input[:, :, None] * self.first_weights
        return tuple(z.transpose(1, 0, 2) for z in (first,) + self.later_pre_acts)


def init_model(
    layer_dims,
    leaky_slope: float = 0.01,
    seed: int = 0,
    final_nonlinearity: bool = False,
) -> GcnModel:
    """Seeded Glorot-uniform initialization.

    Layer l's entries are i.i.d. uniform in +-sqrt(6 / (d_{l-1} + d_l)).
    """
    dims = tuple(int(d) for d in layer_dims)
    if len(dims) < 2 or dims[0] != 1 or dims[-1] != 1:
        raise ValidationError("layer_dims must start and end with width 1")
    rng = rng_for(seed, STREAM_INIT)
    weights = []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (d_in + d_out))
        weights.append(rng.uniform(-bound, bound, size=(d_in, d_out)))
    return GcnModel(dims, tuple(weights), leaky_slope, final_nonlinearity)


def propagation_matrix(cond: CondProbMatrix) -> np.ndarray:
    """The row-normalized operator P, computed once per ``cond`` (see
    ``CondProbMatrix.propagation``)."""
    return cond.propagation


def _leaky(z: np.ndarray, slope: float) -> np.ndarray:
    # equals where(z >= 0, z, slope * z) bit for bit, as 0 < slope < 1
    return np.maximum(z, slope * z)


def _dleaky(z: np.ndarray, slope: float) -> np.ndarray:
    # subgradient at 0 takes the positive branch
    return np.where(z >= 0, 1.0, slope)


def _activated(model: GcnModel, layer: int) -> bool:
    return layer < model.n_layers - 1 or model.final_nonlinearity


def _flat(x: np.ndarray) -> np.ndarray:
    return x.reshape(-1, x.shape[-1])


def _mix(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w`` on the feature axis of a node-major signal, as one GEMM."""
    return (_flat(x) @ w).reshape(x.shape[:-1] + (w.shape[1],))


def _propagate(prop: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``prop @ x`` for every sample of a node-major signal, as one GEMM."""
    return (prop @ x.reshape(x.shape[0], -1)).reshape(x.shape)


def _split(a: np.ndarray) -> np.ndarray:
    """Positive and negative part of ``a``, stacked on a new last axis."""
    return np.stack([np.maximum(a, 0.0), np.minimum(a, 0.0)], axis=-1)


def _first_layer(model: GcnModel) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``[u+; u-; w1]`` of layer 1 and the slopes ``[d+; d-]``.

    ``H_1 = a+ ⊗ u+ + a- ⊗ u-`` with ``u± = w1 * d±``; the row ``w1``
    carries the gradient where ``a == 0``.
    """
    w1 = model.weights[0][0]
    if _activated(model, 0):
        slopes = np.stack([_dleaky(w1, model.leaky_slope), _dleaky(-w1, model.leaky_slope)])
    else:
        slopes = np.ones((2, w1.size))
    return np.vstack([w1 * slopes, w1]), slopes


def gcn_forward(
    model: GcnModel, cond: CondProbMatrix, h0: np.ndarray
) -> tuple[np.ndarray, GcnCache]:
    """Refine a batch of per-class logits; returns (refined, cache).

    ``h0`` has one row per sample and one column per class node. The
    returned cache feeds ``gcn_backward``.
    """
    h0 = np.asarray(h0, dtype=np.float64)
    if h0.ndim != 2:
        raise ValidationError("h0 must be a 2-d (batch, classes) matrix")
    n = cond.n_classes
    if h0.shape[1] != n:
        raise ValidationError(
            f"h0 has {h0.shape[1]} classes but the propagation matrix has {n}"
        )
    if not np.isfinite(h0).all():
        raise NumericError("non-finite value in input logits")

    prop = propagation_matrix(cond)
    rows, _ = _first_layer(model)
    w1 = model.weights[0][0]
    with np.errstate(over="ignore", invalid="ignore"):
        a = prop @ h0.T
        # |Z_1| = |a ⊗ w1| peaks at max|a| * max|w1|
        peak = np.abs(a).max(initial=0.0) * np.abs(w1).max()
    if not np.isfinite(peak):
        raise NumericError("non-finite value at layer 1")
    # the signal entering each layer is f @ u, with u None once it is dense
    f, u = _split(a), rows[:2]
    signals = []
    pre_acts = []
    for l in range(1, model.n_layers):
        with np.errstate(over="ignore", invalid="ignore"):
            v = model.weights[l] if u is None else u @ model.weights[l]
            # propagate the narrower side: P (F V) or (P F) V
            if v.shape[1] < f.shape[-1]:
                m = f
                z = _propagate(prop, _mix(f, v))
            else:
                m = _propagate(prop, f)
                z = _mix(m, v)
        if not np.isfinite(z).all():
            raise NumericError(f"non-finite value at layer {l + 1}")
        signals.append(m)
        pre_acts.append(z)
        f = _leaky(z, model.leaky_slope) if _activated(model, l) else z
        u = None
    with np.errstate(over="ignore", invalid="ignore"):
        h = f if u is None else _mix(f, u)
    refined = h0 + h[:, :, 0].T
    return refined, GcnCache(a, w1, tuple(signals), tuple(pre_acts))


def gcn_backward(
    model: GcnModel,
    cond: CondProbMatrix,
    cache: GcnCache,
    grad_refined: np.ndarray,
) -> GcnGradients:
    """Exact reverse-mode gradients of the refined output.

    ``grad_refined`` is the upstream gradient w.r.t. the refined logits;
    the result carries gradients for every weight matrix and for the
    input logits (the latter includes the residual identity term).
    Gradients over a batch are accumulated in fixed order, so results are
    reproducible.
    """
    n_layers = model.n_layers
    if len(cache.signals) != n_layers - 1 or len(cache.later_pre_acts) != n_layers - 1:
        raise ValidationError("cache does not match the model's layer count")
    grad_refined = np.asarray(grad_refined, dtype=np.float64)
    a = cache.first_input
    if grad_refined.shape != a.shape[::-1]:
        raise ValidationError(
            f"grad_refined shape {grad_refined.shape} does not match "
            f"forward batch shape {a.shape[::-1]}"
        )
    n, batch = a.shape
    dims = model.layer_dims
    if n != cond.n_classes or cache.first_weights.shape != (dims[1],):
        raise ValidationError("cache does not match the model/input shapes")
    for l in range(1, n_layers):
        width = 2 if l == 1 else dims[l]
        if cache.signals[l - 1].shape != (n, batch, width):
            raise ValidationError("cache does not match the model/input shapes")
        if cache.later_pre_acts[l - 1].shape != (n, batch, dims[l + 1]):
            raise ValidationError("cache does not match the model/input shapes")

    prop_t = propagation_matrix(cond).T
    rows, slopes = _first_layer(model)
    g = grad_refined.T[:, :, None]
    d_weights: list[np.ndarray | None] = [None] * n_layers
    with np.errstate(over="ignore", invalid="ignore"):
        for l in range(n_layers - 1, 0, -1):
            w = model.weights[l]
            if _activated(model, l):
                g = g * _dleaky(cache.later_pre_acts[l - 1], model.leaky_slope)
            m = cache.signals[l - 1]
            # layer 2 reads H_1 = F @ [u+; u-]; the extra row w1 gives dL/da at a == 0
            v = w if l > 1 else rows @ w
            if w.shape[1] < m.shape[-1]:
                back = _propagate(prop_t, g)
                d_v = _flat(m).T @ _flat(back)
                g = _mix(back, v.T)
            else:
                d_v = _flat(m).T @ _flat(g)
                g = _propagate(prop_t, _mix(g, v.T))
            if l > 1:
                d_weights[l] = d_v
            else:
                d_weights[1] = rows[:2].T @ d_v
                d_u = d_v @ w.T
        if n_layers == 1:           # the output is H_1 = F @ [u+; u-] itself
            d_u = _flat(_split(a)).T @ _flat(g)
            g = _mix(g, rows.T)
        d_weights[0] = (slopes * d_u).sum(axis=0, keepdims=True)
        # dL/da reads the a+ column where a > 0, the a- one where a < 0 and
        # the w1 one where a == 0
        g_a = np.where(a > 0, g[:, :, 0], np.where(a < 0, g[:, :, 1], g[:, :, 2]))
        d_input = (prop_t @ g_a).T + grad_refined
    return GcnGradients(tuple(d_weights), d_input)


def save_model(model: GcnModel, path) -> None:
    """Serialize a model in the documented ``coocrefine-gcn v1`` format."""
    lines = [
        MODEL_FORMAT_HEADER,
        "layer_dims " + " ".join(str(d) for d in model.layer_dims),
        f"leaky_slope {model.leaky_slope!r}",
        f"final_nonlinearity {int(model.final_nonlinearity)}",
    ]
    for l, w in enumerate(model.weights):
        lines.append(f"weights {l} {w.shape[0]} {w.shape[1]}")
        for row in w:
            lines.append(" ".join(repr(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_model(path) -> GcnModel:
    """Parse a ``coocrefine-gcn v1`` model file.

    A malformed file raises ValidationError naming it and the first bad line.
    """
    lines = read_text(path).splitlines()
    lineno = 1

    def tokens(keyword: str | None = None, count: int | None = None) -> list[str]:
        """The next line's tokens after its leading ``keyword``, ``count`` of them if given."""
        nonlocal lineno
        lineno += 1
        if lineno > len(lines):
            raise ValueError("unexpected end of file")
        toks = lines[lineno - 1].split()
        if keyword is not None:
            if toks[:1] != [keyword]:
                raise ValueError(f"expected {keyword}")
            toks = toks[1:]
        if count is not None and len(toks) != count:
            raise ValueError(f"expected {count} values, got {len(toks)}")
        return toks

    if lines[:1] != [MODEL_FORMAT_HEADER]:
        raise ValidationError(f"{path}: bad model file: expected header '{MODEL_FORMAT_HEADER}'")
    try:
        dims = tuple(int(t) for t in tokens("layer_dims"))
        if any(d < 1 for d in dims):
            raise ValueError("layer widths must be positive")
        slope = float(tokens("leaky_slope", 1)[0])
        final = tokens("final_nonlinearity")[:1]
        if final not in (["0"], ["1"]):
            raise ValueError("expected final_nonlinearity 0|1")
        weights = []
        for l, shape in enumerate(zip(dims[:-1], dims[1:])):
            if tuple(int(t) for t in tokens("weights", 3)) != (l, *shape):
                raise ValueError(f"expected 'weights {l} {shape[0]} {shape[1]}'")
            weights.append([[float(t) for t in tokens(count=shape[1])] for _ in range(shape[0])])
        if lineno != len(lines):
            lineno += 1
            raise ValueError("trailing content after weight blocks")
    except ValueError as exc:
        raise ValidationError(f"{path}: bad model file: line {lineno}: {exc}") from None
    try:
        return GcnModel(dims, tuple(weights), slope, final == ["1"])
    except ValidationError as exc:
        raise ValidationError(f"{path}: bad model file: {exc}") from None


def with_weights(model: GcnModel, weights) -> GcnModel:
    """Copy of the model with replaced weight matrices."""
    return replace(model, weights=tuple(weights))
