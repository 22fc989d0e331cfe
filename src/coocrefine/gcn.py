"""Graph-convolutional refinement head over class nodes.

Each sample's per-class logits form a one-feature-per-node graph signal.
A layer propagates features through the fixed conditional-probability
matrix and mixes them with a learned weight matrix:

    H_l = act(P @ H_{l-1} @ W_l)

where P is the row-normalized conditional-probability matrix
(``CondProbMatrix.propagation``), W_l the layer's learnable weights, and act a
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
* layer 2: ``P H_1 W_2 = q+ ⊗ A + q- ⊗ B`` with ``q± = P a±``,
  ``A = u+ W_2`` and ``B = u- W_2``.

A head of exactly three weight layers (the default 1-64-64-1) is then a
1-d piecewise-linear function per node and sample, and is evaluated in
that form; no array as wide as a hidden layer is built per node:

* ``q+ >= 0 >= q-``, as P >= 0. Where ``q+ - q- > 0`` the sign of layer
  2's unit k, ``q+ A_k + q- B_k``, depends only on
  ``t = q+ / (q+ - q-)`` in [0, 1]; it changes at the breakpoint
  ``t_k = B_k / (A_k + B_k)``, and is fixed when ``A_k + B_k == 0``.
* The distinct breakpoints cut the line into sectors: the open interval
  below each breakpoint, the breakpoint itself, and the interval above
  the last. Within a sector every unit has one LeakyReLU slope, so the
  sector's slope row D_s makes the head linear there:
  ``H_2 W_3 = g = q+ c+_s + q- c-_s`` with ``c±_s = (D_s ⊙ A|B) W_3``.
* The point ``q+ = q- = 0`` is a sector of its own, with every slope 1.
* Tie rule: at ``t == t_k`` unit k's pre-activation is 0 and takes the
  slope 1 of the ``z >= 0`` branch, which the breakpoint's own sector
  gives it.
* The output is ``P g``, through LeakyReLU if ``final_nonlinearity`` is
  set. The backward pass reduces the weight gradients to per-sector sums
  of ``back * q±`` with ``back = P^T dL/d(P g)``, and the input gradient
  to two ``P^T`` products, run only when ``d_input`` is first read.

Deeper or shallower heads run a layer loop on the same factors: layers
>= 3 propagate at width ``min(d_in, d_out)``, ``P (H W)`` when
``d_out < d_in`` and ``(P H) W`` otherwise.

Both forms agree with the literal dense evaluation to within 1e-13
relative, not bit for bit.

Gradients are computed analytically in reverse mode; the LeakyReLU
subgradient at exactly 0 uses the positive-branch slope 1, so where a == 0
the input gradient is the a+ and a- paths' sum over 1 + s, with s layer 1's
slope. ``GcnGradients.d_input`` is computed, and finiteness-checked, when
first read, so training, which never reads it, never computes it. Forward
and backward are pure functions of their inputs and bitwise deterministic.
What follows from the weights alone, layer 1's rows and the sector table,
belongs to the model: a ``GcnModel`` builds each once, when first read,
and keeps it. A forward cache holds only the arrays of its batch, plus
the very ``GcnModel`` and ``cond.propagation`` array that made it, and
the backward pass takes both from the cache: ``gcn_backward(cache, grad)``.

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

from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from ._arrays import frozen_array
from .data import read_lines
from .errors import NumericError, ValidationError
from .prior import CondProbMatrix
from .seeding import STREAM_INIT, rng_for

MODEL_FORMAT_HEADER = "coocrefine-gcn v1"


def _widths(dims) -> tuple[int, ...]:
    """``dims`` as ints, if they are a head's widths: at least two, the first
    and last 1 (one logit in and out per class node), none below 1."""
    dims = tuple(int(d) for d in dims)
    if len(dims) < 2:
        raise ValidationError("need at least one layer")
    if dims[0] != 1 or dims[-1] != 1:
        raise ValidationError("first and last layer widths must be 1")
    if min(dims) < 1:
        raise ValidationError("layer widths must be positive")
    return dims


def _check_slope(slope) -> None:
    """The LeakyReLU slope rule: strictly between 0 and 1."""
    if not 0.0 < slope < 1.0:
        raise ValidationError("leaky_slope must be in (0, 1)")


@dataclass(frozen=True, eq=False)
class GcnModel:
    """Stack of per-layer weight matrices plus architecture metadata.

    ``layer_dims`` lists per-node feature widths (see ``_widths``). A model
    equals only itself and hashes by identity: a generated ``__eq__`` would
    compare its weight arrays.
    """

    layer_dims: tuple[int, ...]
    weights: tuple[np.ndarray, ...]
    leaky_slope: float = 0.01
    final_nonlinearity: bool = False

    def __post_init__(self):
        dims = _widths(self.layer_dims)
        object.__setattr__(self, "layer_dims", dims)
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
        _check_slope(self.leaky_slope)

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @cached_property
    def first_layer(self) -> tuple[np.ndarray, np.ndarray]:
        """Rows ``u± = w1 * d±`` of ``H_1 = a+ ⊗ u+ + a- ⊗ u-`` and the slopes ``d±``."""
        w1 = self.weights[0][0]
        slopes = _dleaky(_SIGNS * w1, _first_slope(self))
        return w1 * slopes, slopes

    @cached_property
    def sectors(self) -> HeadSectors:
        """Sector table of a three-weight-layer head, built on first read."""
        if self.n_layers != 3:
            raise ValidationError(f"a sector table needs 3 weight layers, not {self.n_layers}")
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            factors = self.first_layer[0] @ self.weights[1]
            if not np.isfinite(factors).all():
                raise NumericError("non-finite value at layer 2")
            pos, neg = factors[0], factors[1]
            total = pos + neg
            t = np.where(total != 0, neg / total, -1.0)
            inside = (0.0 <= t) & (t <= 1.0)
            breaks = np.sort(t[inside])
            breaks = breaks[np.diff(breaks, append=2.0) != 0]       # the distinct ones
            at = 2 * np.searchsorted(breaks, t) + 1         # the sector of each unit's breakpoint
            last = 2 * breaks.size
            # unit k has slope 1 where q+ A_k + q- B_k >= 0: from its breakpoint on if
            # A_k + B_k > 0, up to it if A_k + B_k < 0 (so B_k <= 0); with no
            # breakpoint in [0, 1] it has the sign of -B_k throughout
            lo = np.where(inside & (total > 0), at, np.where(neg > 0, last + 1, 0))
            hi = np.where(inside & (total < 0), at, last)
            # the last row is the zero sector: its test 0 <= hi gives every unit slope 1
            s = np.arange(last + 2)[:, None]
            slopes = np.where((lo <= s) & (s % (last + 1) <= hi), 1.0, self.leaky_slope)
            coeffs = slopes @ (factors * self.weights[2][:, 0]).T
        return HeadSectors(factors, breaks, slopes, coeffs)


@dataclass(frozen=True)
class GcnGradients:
    """Gradients w.r.t. every weight matrix and, when first read, the input logits."""

    d_weights: tuple[np.ndarray, ...]
    input_grad: Callable[[], np.ndarray]    # computes d_input, (batch, N)

    def __post_init__(self):
        object.__setattr__(self, "d_weights", tuple(self.d_weights))
        for g in self.d_weights:
            if not np.isfinite(g).all():
                raise NumericError("non-finite weight gradient")

    @cached_property
    def d_input(self) -> np.ndarray:
        d_input = self.input_grad()
        if not np.isfinite(d_input).all():
            raise NumericError("non-finite input gradient")
        return d_input


@dataclass(frozen=True)
class GcnCache:
    """Forward intermediates needed by the backward pass.

    Arrays are node-major, ``(N, batch, width)``. Layer 1's pre-activation
    ``a ⊗ w1`` stays factored and is never built.
    """

    model: GcnModel                         # the forward's model, by reference
    prop: np.ndarray                        # its P, cond.propagation, by reference
    first_input: np.ndarray                 # a = P h0 per sample, (N, batch)
    signals: tuple[np.ndarray, ...]         # per layer >= 2: P F, or F if it propagates after mixing
    later_zs: tuple[np.ndarray, ...]        # pre-activation Z_l per layer >= 2, (N, batch, d_l)


@dataclass(frozen=True)
class HeadSectors:
    """Sector table of a three-weight-layer head (see the module docstring),
    owned by its model: ``GcnModel.sectors`` builds it once per model.

    Only breakpoints in [0, 1] cut sectors, as ``t`` never leaves that
    range. Sector ``2i`` is the open interval of ``t`` below ``breaks[i]``,
    sector ``2i + 1`` the point ``breaks[i]``, sector ``2m`` the interval
    above the last of the m breakpoints, and sector ``2m + 1`` the point
    ``q+ = q- = 0``.
    """

    factors: np.ndarray     # (2, d_2): rows A = u+ W_2 and B = u- W_2
    breaks: np.ndarray      # (m,) distinct breakpoints B_k / (A_k + B_k) in [0, 1], ascending
    slopes: np.ndarray      # (2m + 2, d_2): the slope row D_s of every sector
    coeffs: np.ndarray      # (2m + 2, 2): c+_s and c-_s of every sector


@dataclass(frozen=True)
class SectorCache:
    """Forward intermediates of a three-weight-layer head, each ``(N, batch)``
    except ``propagated`` (``(N, 2 batch)``). Only the batch's arrays: the
    sector table is read from ``model.sectors``.
    """

    model: GcnModel                 # the forward's model, by reference
    prop: np.ndarray                # its P, cond.propagation, by reference
    first_input: np.ndarray         # a = P h0
    propagated: np.ndarray          # [q+ q-] = P [a+ a-]
    sector_ids: np.ndarray          # sector of each node and sample
    last_pre_act: np.ndarray        # Z_3 = P g


def init_model(
    layer_dims,
    leaky_slope: float = 0.01,
    seed: int = 0,
    final_nonlinearity: bool = False,
) -> GcnModel:
    """Seeded Glorot-uniform initialization.

    Layer l's entries are i.i.d. uniform in +-sqrt(6 / (d_{l-1} + d_l)).
    """
    dims = _widths(layer_dims)
    rng = rng_for(seed, STREAM_INIT)
    weights = []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (d_in + d_out))
        weights.append(rng.uniform(-bound, bound, size=(d_in, d_out)))
    return GcnModel(dims, tuple(weights), leaky_slope, final_nonlinearity)


def _leaky(z: np.ndarray, slope: float) -> np.ndarray:
    # equals where(z >= 0, z, slope * z) bit for bit, as 0 < slope < 1
    return np.maximum(z, slope * z)


def _dleaky(z: np.ndarray, slope: float) -> np.ndarray:
    # subgradient at 0 takes the positive branch
    return np.where(z >= 0, 1.0, slope)


def _activated(model: GcnModel, layer: int) -> bool:
    return layer < model.n_layers - 1 or model.final_nonlinearity


def _first_slope(model: GcnModel) -> float:
    """Layer 1's negative-branch slope: 1 if it is linear."""
    return model.leaky_slope if _activated(model, 0) else 1.0


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


_SIGNS = np.array([[1.0], [-1.0]])


_BINS = 1024    # a power of 2, so t * _BINS is exact


def _sector_ids(breaks: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``searchsorted`` left plus right of every ``t`` in [0, 1] among ``breaks``.

    Read off a table of ``_BINS`` equal bins of [0, 1]; only a ``t`` whose
    bin holds a breakpoint is searched.
    """
    held = np.bincount((breaks * _BINS).astype(np.intp), minlength=_BINS + 1)
    below = held.cumsum() - held
    bins = (t * _BINS).astype(np.intp)
    ids = 2 * below[bins]
    search = held[bins] > 0
    hit = t[search]
    ids[search] = breaks.searchsorted(hit) + breaks.searchsorted(hit, "right")
    return ids


def _sector_forward(
    model: GcnModel, prop: np.ndarray, a: np.ndarray
) -> tuple[np.ndarray, SectorCache]:
    """Output ``(N, batch)`` and cache of a three-weight-layer head, from a = P h0."""
    sectors = model.sectors
    batch = a.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        q = prop @ np.concatenate([np.maximum(a, 0.0), np.minimum(a, 0.0)], axis=1)
        q_pos, q_neg = q[:, :batch], q[:, batch:]
        top_pos, top_neg = q_pos.max(initial=0.0), -q_neg.min(initial=0.0)
        # |Z_2| = |q+ A + q- B| is at most top+ max|A| + top- max|B|, and the
        # denominator q+ - q- of t at most top+ + top-
        peak_a, peak_b = 1.0 + np.abs(sectors.factors).max(axis=1)
        peak = top_pos * peak_a + top_neg * peak_b
    if not np.isfinite(peak):
        raise NumericError("non-finite value at layer 2")
    span = q_pos - q_neg
    zero = span == 0
    t = q_pos / np.where(zero, 1.0, span)
    ids = _sector_ids(sectors.breaks, t)
    ids[zero] = len(sectors.coeffs) - 1
    with np.errstate(over="ignore", invalid="ignore"):
        z = prop @ (q_pos * sectors.coeffs[:, 0][ids] + q_neg * sectors.coeffs[:, 1][ids])
    if not np.isfinite(z).all():
        raise NumericError("non-finite value at layer 3")
    out = _leaky(z, model.leaky_slope) if model.final_nonlinearity else z
    return out, SectorCache(model, prop, a, q, ids, z)


def _layer_forward(
    model: GcnModel, prop: np.ndarray, a: np.ndarray
) -> tuple[np.ndarray, GcnCache]:
    """Output ``(N, batch)`` and cache of a head of any depth, layer by layer."""
    rows = model.first_layer[0]
    # H_1 = F @ [u+; u-] stays factored: layer 2 mixes F with [u+; u-] @ W_2
    f = _split(a)
    signals, zs = [], []
    for l in range(1, model.n_layers):
        with np.errstate(over="ignore", invalid="ignore"):
            v = model.weights[l] if l > 1 else rows @ model.weights[l]
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
        zs.append(z)
        f = _leaky(z, model.leaky_slope) if _activated(model, l) else z
    with np.errstate(over="ignore", invalid="ignore"):
        h = f if model.n_layers > 1 else _mix(f, rows)
    return h[:, :, 0], GcnCache(model, prop, a, tuple(signals), tuple(zs))


def gcn_forward(
    model: GcnModel, cond: CondProbMatrix, h0: np.ndarray
) -> tuple[np.ndarray, GcnCache | SectorCache]:
    """Refine a batch of per-class logits; returns (refined, cache).

    ``h0`` has one row per sample and one column per class node. The
    returned cache feeds ``gcn_backward``. A head of three weight layers
    runs in sector form, any other depth layer by layer.
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

    prop = cond.propagation
    with np.errstate(over="ignore", invalid="ignore"):
        a = prop @ h0.T
        # |Z_1| = |a ⊗ w1| peaks at max|a| * max|w1|
        peak = np.abs(a).max(initial=0.0) * np.abs(model.weights[0]).max()
    if not np.isfinite(peak):
        raise NumericError("non-finite value at layer 1")
    forward = _sector_forward if model.n_layers == 3 else _layer_forward
    h, cache = forward(model, prop, a)
    return h0 + h.T, cache


def _sector_backward(cache: SectorCache, prop_t: np.ndarray, grad: np.ndarray):
    """``dL/d[u+; u-]``, the gradients of layers >= 2 and a function for
    ``[dL/da+, dL/da-]``, ``(N, batch, 2)``."""
    model, sectors = cache.model, cache.model.sectors
    n, batch = cache.first_input.shape
    if model.final_nonlinearity:
        grad = grad * _dleaky(cache.last_pre_act, model.leaky_slope)
    back = prop_t @ grad                            # dL/dg, g = H_2 W_3
    # per sector, the sums of back * q+ and back * q-, each in a fixed order
    ids = cache.sector_ids.ravel()
    sums = np.array([np.bincount(ids, (back * q).ravel(), len(sectors.coeffs))
                     for q in (cache.propagated[:, :batch], cache.propagated[:, batch:])])
    # dL/dA and dL/dB are W_3 times the slope-weighted sums per unit
    r = sums @ sectors.slopes
    d_ab = r * model.weights[2][:, 0]
    d_w3 = (sectors.factors * r).sum(axis=0)[:, None]
    return d_ab @ model.weights[1].T, [model.first_layer[0].T @ d_ab, d_w3], lambda: (prop_t @ (
        back[:, :, None] * sectors.coeffs[cache.sector_ids]).reshape(n, -1)).reshape(n, batch, 2)


def _layer_backward(cache: GcnCache, prop_t: np.ndarray, grad: np.ndarray):
    """What ``_sector_backward`` returns, for a head of any depth, layer by layer."""
    model = cache.model
    n_layers = model.n_layers
    rows = model.first_layer[0]
    g = grad[:, :, None]
    d_later: list[np.ndarray | None] = [None] * (n_layers - 1)
    for l in range(n_layers - 1, 0, -1):
        w = model.weights[l]
        if _activated(model, l):
            g = g * _dleaky(cache.later_zs[l - 1], model.leaky_slope)
        m = cache.signals[l - 1]
        v = w if l > 1 else rows @ w        # layer 2 reads H_1 = F @ [u+; u-]
        if w.shape[1] < m.shape[-1]:
            back = _propagate(prop_t, g)
            d_v = _flat(m).T @ _flat(back)
            g = _mix(back, v.T)
        else:
            d_v = _flat(m).T @ _flat(g)
            g = _propagate(prop_t, _mix(g, v.T))
        if l > 1:
            d_later[l - 1] = d_v
        else:
            d_later[0] = rows.T @ d_v
            d_u = d_v @ w.T
    if n_layers == 1:           # the output is H_1 = F @ [u+; u-] itself
        d_u = _flat(_split(cache.first_input)).T @ _flat(g)
        g = _mix(g, rows.T)
    return d_u, d_later, lambda: g


def gcn_backward(cache: GcnCache | SectorCache, grad_refined: np.ndarray) -> GcnGradients:
    """Exact reverse-mode gradients of the refined output.

    ``grad_refined`` is the upstream gradient w.r.t. the refined logits;
    the result carries gradients for every weight matrix and, computed when
    first read, for the input logits (with the residual identity term).
    Gradients over a batch are accumulated in fixed order, so results are
    reproducible.

    The model and ``P`` are the ones ``cache`` holds from ``gcn_forward``;
    ``grad_refined`` must have its batch's shape, else ValidationError.
    """
    grad_refined = np.asarray(grad_refined, dtype=np.float64)
    if not isinstance(cache, (GcnCache, SectorCache)):
        raise ValidationError("cache must be the one gcn_forward returns")
    model = cache.model
    a = cache.first_input
    if grad_refined.shape != a.shape[::-1]:
        raise ValidationError(
            f"grad_refined shape {grad_refined.shape} does not match "
            f"forward batch shape {a.shape[::-1]}"
        )
    prop_t = cache.prop.T
    backward = _sector_backward if isinstance(cache, SectorCache) else _layer_backward
    with np.errstate(over="ignore", invalid="ignore"):
        d_u, d_later, input_grad = backward(cache, prop_t, grad_refined.T)
        d_w1 = (model.first_layer[1] * d_u).sum(axis=0, keepdims=True)

    def d_input():
        # dL/da reads the a+ column where a > 0, the a- one where a < 0, and
        # their sum over 1 + s where a == 0: there dH_1/da = w1 = (u+ + u-) / (1 + s)
        with np.errstate(over="ignore", invalid="ignore"):
            g = input_grad()
            at_zero = (g[:, :, 0] + g[:, :, 1]) / (1.0 + _first_slope(model))
            g_a = np.where(a > 0, g[:, :, 0], np.where(a < 0, g[:, :, 1], at_zero))
            return (prop_t @ g_a).T + grad_refined
    return GcnGradients((d_w1, *d_later), d_input)


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
    lines = list(read_lines(path))
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
        dims = _widths(int(t) for t in tokens("layer_dims"))
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
