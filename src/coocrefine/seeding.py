"""Deterministic random-number streams.

All randomness in the package flows from one user-facing 64-bit seed.
Each consumer derives its own independent stream by combining that seed
with a fixed stream tag (plus optional extras such as the epoch index),
so adding a consumer never perturbs the draws seen by existing ones.

Bit generator is Philox (64-bit counter-based). Gaussian variates are
produced by an explicit Box-Muller transform over Philox uniforms so the
sampling algorithm is pinned by this module rather than inherited from
library internals. Identical seeds give bit-identical output within this
implementation.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

# Stream tags: the documented fan-out of the single --seed value.
STREAM_SYNTH = 1   # synthetic dataset generation
STREAM_SPLIT = 2   # train/test splitting
STREAM_BATCH = 3   # per-epoch batch shuffling (extra = epoch index)
STREAM_INIT = 4    # model weight initialization


def _check_seed(seed) -> None:
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ValidationError("seed must be a non-negative integer")


def rng_for(seed: int, stream: int, *extra: int) -> np.random.Generator:
    """Philox generator keyed by (seed, stream, *extra)."""
    _check_seed(seed)
    entropy = [int(seed), int(stream), *(int(e) for e in extra)]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def gaussian(rng: np.random.Generator, shape, std: float = 1.0) -> np.ndarray:
    """Normal(0, std^2) deviates via Box-Muller.

    Uses u1 in (0, 1] so the log stays finite; pairs of uniforms yield
    pairs of deviates (cos/sin branches) and the surplus one is dropped
    for odd counts.
    """
    n = int(np.prod(shape)) if shape else 1
    half = (n + 1) // 2
    radius = np.sqrt(-2.0 * np.log(1.0 - rng.random(half)))
    angle = 2.0 * np.pi * rng.random(half)
    z = np.empty(2 * half)      # both branches, then the scale, written in place
    np.multiply(radius, np.cos(angle, out=z[:half]), out=z[:half])
    np.multiply(radius, np.sin(angle, out=z[half:]), out=z[half:])
    z *= std
    return z[:n].reshape(shape)
