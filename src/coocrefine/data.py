"""Label and logit matrices: file I/O, synthetic data, splitting, batching.

CSV format (shared by labels and logits): UTF-8, comma separated, LF or
CRLF line endings, no quoting (sample ids must not contain commas). The
first header column is ``sample_id``; the remaining headers are class
names. Label cells are ``0``/``1``; logit cells are decimal floats
(scientific notation accepted). Files written by this module always end
lines with LF, so a loaded file is reproduced byte for byte modulo the
trailing newline.

All values are immutable after construction (arrays are marked
read-only) and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._arrays import frozen_array
from .errors import ValidationError
from .seeding import STREAM_BATCH, STREAM_SPLIT, STREAM_SYNTH, gaussian, rng_for


@dataclass(frozen=True)
class LabelMatrix:
    """Binary ground-truth matrix: one row per sample, one column per class."""

    values: np.ndarray              # (n_samples, n_classes), {0, 1}
    sample_ids: tuple[str, ...]
    class_names: tuple[str, ...]

    def __post_init__(self):
        values = np.asarray(self.values)
        if values.ndim != 2:
            raise ValidationError("label values must be a 2-d matrix")
        if not np.isin(values, (0, 1)).all():
            raise ValidationError("label values must be 0 or 1")
        values = frozen_array(values, np.uint8)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "sample_ids", tuple(self.sample_ids))
        object.__setattr__(self, "class_names", tuple(self.class_names))
        n, c = values.shape
        if n < 1:
            raise ValidationError("no samples")
        if c < 2:
            raise ValidationError("need at least 2 classes")
        if len(self.sample_ids) != n:
            raise ValidationError("sample_ids length does not match row count")
        if len(set(self.sample_ids)) != n:
            raise ValidationError("duplicate sample_id")
        if len(self.class_names) != c:
            raise ValidationError("class_names length does not match column count")

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_classes(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class LogitMatrix:
    """Real-valued per-class scores from an upstream classifier."""

    values: np.ndarray              # (n_samples, n_classes), finite float64

    def __post_init__(self):
        values = frozen_array(self.values, np.float64)
        if values.ndim != 2:
            raise ValidationError("logit values must be a 2-d matrix")
        if not np.isfinite(values).all():
            raise ValidationError("non-finite logit")
        object.__setattr__(self, "values", values)

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_classes(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class SyntheticSpec:
    """Configuration for the synthetic correlated-label generator.

    ``clusters`` are pairwise disjoint groups of class indices whose
    members co-occur. Per sample, each cluster activates with its
    activation probability (``base_prob`` unless overridden per cluster
    via ``cluster_probs``); on activation one uniformly chosen member is
    set present and every other member is set present independently with
    ``within_cluster_prob``. Classes outside every cluster activate
    independently with ``base_prob``.

    ``signal_strength`` may be a scalar or one value per class; class j's
    logit is s_j * (2*y - 1) plus Gaussian noise with ``noise_std``.
    """

    n_classes: int
    n_samples: int
    clusters: tuple[tuple[int, ...], ...]
    within_cluster_prob: float
    base_prob: float
    signal_strength: tuple[float, ...]
    noise_std: float
    seed: int
    cluster_probs: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(
            self, "clusters", tuple(tuple(int(i) for i in c) for c in self.clusters)
        )
        strength = self.signal_strength
        if np.isscalar(strength):
            strength = (float(strength),) * self.n_classes
        object.__setattr__(self, "signal_strength", tuple(float(s) for s in strength))
        if self.cluster_probs is not None:
            object.__setattr__(
                self, "cluster_probs", tuple(float(p) for p in self.cluster_probs)
            )

        if self.n_classes < 2:
            raise ValidationError("need at least 2 classes")
        if self.n_samples < 1:
            raise ValidationError("need at least 1 sample")
        seen: set[int] = set()
        for cluster in self.clusters:
            for idx in cluster:
                if not 0 <= idx < self.n_classes:
                    raise ValidationError(f"cluster index {idx} out of range")
                if idx in seen:
                    raise ValidationError(f"class {idx} appears in more than one cluster")
                seen.add(idx)
        if not 0.0 <= self.within_cluster_prob <= 1.0:
            raise ValidationError("within_cluster_prob must be in [0, 1]")
        if not 0.0 <= self.base_prob <= 1.0:
            raise ValidationError("base_prob must be in [0, 1]")
        if self.cluster_probs is not None:
            if len(self.cluster_probs) != len(self.clusters):
                raise ValidationError("cluster_probs length must match clusters")
            if any(not 0.0 <= p <= 1.0 for p in self.cluster_probs):
                raise ValidationError("cluster_probs must be in [0, 1]")
        if len(self.signal_strength) != self.n_classes:
            raise ValidationError("signal_strength length must match n_classes")
        if any(s < 0 for s in self.signal_strength):
            raise ValidationError("signal_strength must be non-negative")
        if not self.noise_std > 0:
            raise ValidationError("noise_std must be positive")


def _read_lines(path) -> list[str]:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ValidationError(f"file not found: {path}") from None
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    return text.splitlines()


def _parse_header(line: str, path) -> list[str]:
    header = line.split(",")
    if header[0] != "sample_id":
        raise ValidationError(
            f"{path}: line 1: malformed header: first column must be sample_id"
        )
    if len(header) < 3:
        raise ValidationError(
            f"{path}: line 1: malformed header: need at least 2 class columns"
        )
    return header


def load_labels(path) -> LabelMatrix:
    """Load a label CSV. Row order equals file order.

    Raises ValidationError naming the offending line for a malformed
    header, non-binary cell, ragged row, or duplicate sample_id.
    """
    lines = _read_lines(path)
    if not lines:
        raise ValidationError(f"{path}: empty file")
    header = _parse_header(lines[0], path)
    n_cols = len(header)

    ids: list[str] = []
    seen: set[str] = set()
    rows: list[list[int]] = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != n_cols:
            raise ValidationError(
                f"{path}: line {lineno}: expected {n_cols} cells, got {len(cells)}"
            )
        sid = cells[0]
        if sid in seen:
            raise ValidationError(f"{path}: line {lineno}: duplicate sample_id '{sid}'")
        seen.add(sid)
        row = []
        for col, cell in enumerate(cells[1:], start=1):
            if cell == "0":
                row.append(0)
            elif cell == "1":
                row.append(1)
            else:
                raise ValidationError(
                    f"{path}: line {lineno}: label cell must be 0 or 1, got '{cell}'"
                )
        ids.append(sid)
        rows.append(row)
    if not rows:
        raise ValidationError(f"{path}: no samples")
    return LabelMatrix(np.array(rows, dtype=np.uint8), tuple(ids), tuple(header[1:]))


def load_logits(path, labels: LabelMatrix) -> LogitMatrix:
    """Load a logits CSV aligned row-for-row with ``labels``.

    The header must repeat the label file's class names and the
    sample_id column must match ``labels`` exactly, in order.
    """
    lines = _read_lines(path)
    if not lines:
        raise ValidationError(f"{path}: empty file")
    header = _parse_header(lines[0], path)
    if tuple(header[1:]) != labels.class_names:
        raise ValidationError(f"{path}: class header mismatch with labels")
    n_cols = len(header)

    data_lines = lines[1:]
    if len(data_lines) != labels.n_samples:
        raise ValidationError(
            f"{path}: shape mismatch: {len(data_lines)} logit rows vs "
            f"{labels.n_samples} label rows"
        )
    rows = np.empty((labels.n_samples, labels.n_classes), dtype=np.float64)
    for row_idx, line in enumerate(data_lines):
        lineno = row_idx + 2
        cells = line.split(",")
        if len(cells) != n_cols:
            raise ValidationError(
                f"{path}: line {lineno}: expected {n_cols} cells, got {len(cells)}"
            )
        if cells[0] != labels.sample_ids[row_idx]:
            raise ValidationError(
                f"{path}: sample_id mismatch at row {row_idx + 1}: "
                f"expected '{labels.sample_ids[row_idx]}', got '{cells[0]}'"
            )
        for col, cell in enumerate(cells[1:]):
            try:
                value = float(cell)
            except ValueError:
                raise ValidationError(
                    f"{path}: line {lineno}: invalid logit '{cell}'"
                ) from None
            if not math.isfinite(value):
                raise ValidationError(f"{path}: line {lineno}: non-finite logit")
            rows[row_idx, col] = value
    return LogitMatrix(rows)


def write_table(path, header, rows) -> None:
    """Write a CSV table: a header line, then one line per row of cells.

    Cells are written with ``str``, so Python floats keep their shortest
    round-trip repr; pass NumPy values through ``tolist()`` or ``float``
    first. LF line endings, trailing newline.
    """
    lines = [",".join(header)]
    lines.extend(",".join(map(str, row)) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_labels(labels: LabelMatrix, path) -> None:
    """Write a label CSV (LF line endings, trailing newline)."""
    rows = ((sid, *row.tolist()) for sid, row in zip(labels.sample_ids, labels.values))
    write_table(path, ("sample_id", *labels.class_names), rows)


def write_logits(logits: LogitMatrix, labels: LabelMatrix, path) -> None:
    """Write a logits CSV using ids and class names from the paired labels.

    Floats are written with shortest round-trip repr, so reloading gives
    numerically identical values.
    """
    if logits.values.shape != labels.values.shape:
        raise ValidationError("logits shape does not match labels")
    rows = ((sid, *row.tolist()) for sid, row in zip(labels.sample_ids, logits.values))
    write_table(path, ("sample_id", *labels.class_names), rows)


def synth_generate(spec: SyntheticSpec) -> tuple[LabelMatrix, LogitMatrix]:
    """Generate a correlated multi-label dataset with paired noisy logits.

    Draw order is fixed (non-cluster block, then each cluster in listed
    order, then noise), so identical specs give bit-identical output.
    """
    rng = rng_for(spec.seed, STREAM_SYNTH)
    n, n_classes = spec.n_samples, spec.n_classes
    y = np.zeros((n, n_classes), dtype=np.uint8)

    in_cluster = np.zeros(n_classes, dtype=bool)
    for cluster in spec.clusters:
        in_cluster[list(cluster)] = True
    free = np.flatnonzero(~in_cluster)
    if free.size:
        y[:, free] = rng.random((n, free.size)) < spec.base_prob

    for ci, cluster in enumerate(spec.clusters):
        size = len(cluster)
        p_act = spec.cluster_probs[ci] if spec.cluster_probs is not None else spec.base_prob
        active = rng.random(n) < p_act
        chosen = rng.integers(0, size, size=n)
        members = rng.random((n, size)) < spec.within_cluster_prob
        members[np.arange(n), chosen] = True
        y[:, list(cluster)] = members & active[:, None]

    strength = np.array(spec.signal_strength)
    noise = gaussian(rng, (n, n_classes), spec.noise_std)
    logit_values = strength[None, :] * (2.0 * y - 1.0) + noise

    width = max(6, len(str(n - 1)))
    ids = tuple(f"s{i:0{width}d}" for i in range(n))
    names = tuple(f"c{j}" for j in range(n_classes))
    return LabelMatrix(y, ids, names), LogitMatrix(logit_values)


def _take(labels: LabelMatrix, logits: LogitMatrix, idx: np.ndarray):
    sub_labels = LabelMatrix(
        labels.values[idx],
        tuple(labels.sample_ids[i] for i in idx),
        labels.class_names,
    )
    return sub_labels, LogitMatrix(logits.values[idx])


def split(
    labels: LabelMatrix,
    logits: LogitMatrix,
    fraction: float,
    seed: int,
):
    """Deterministic seeded train/test partition.

    The train part takes floor(n * fraction) samples of a seeded
    permutation, the test part the rest; order within each part follows
    the permutation. Raises if either part would be empty.
    """
    if not 0.0 < fraction < 1.0:
        raise ValidationError("fraction must be in (0, 1)")
    if labels.values.shape != logits.values.shape:
        raise ValidationError("labels and logits shapes differ")
    n = labels.n_samples
    # tiny guard absorbs float residue in n * fraction, far below 1/n for sane n
    n_train = math.floor(n * fraction + 1e-9)
    if n_train == 0 or n_train == n:
        raise ValidationError(
            f"fraction {fraction} produces an empty part for {n} samples"
        )
    perm = rng_for(seed, STREAM_SPLIT).permutation(n)
    return _take(labels, logits, perm[:n_train]), _take(labels, logits, perm[n_train:])


def batches(n_samples: int, batch_size: int, seed: int, epoch: int) -> list[np.ndarray]:
    """Seeded shuffled batch index lists for one epoch.

    Keyed by (seed, epoch); every index appears exactly once and the last
    batch may be short.
    """
    if batch_size < 1:
        raise ValidationError("batch_size must be >= 1")
    if n_samples < 1:
        raise ValidationError("n_samples must be >= 1")
    perm = rng_for(seed, STREAM_BATCH, epoch).permutation(n_samples)
    return [perm[i:i + batch_size] for i in range(0, n_samples, batch_size)]
