"""Label and logit matrices: file I/O, synthetic data, splitting, batching.

``read_lines`` is the one place an input file is opened, a line at a time;
a missing, unreadable or non-UTF-8 file raises ValidationError naming it.

CSV grammar, shared by labels, logits and ``A.csv`` and parsed only by
``read_table``: UTF-8, comma separated, LF or CRLF line endings, no
quoting (keys must not contain commas). The first header column is the
key column, ``sample_id`` (labels, logits) or ``class`` (``A.csv``); the
remaining headers are class names, and every further line is one key and
one cell per class. Label cells are ``0``/``1``; logit and probability
cells are finite decimal floats (scientific notation accepted). Files
written by this module always end lines with LF, so a loaded file is
reproduced byte for byte modulo the trailing newline.

All values are immutable after construction (arrays are marked
read-only) and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from ._arrays import frozen_array
from .errors import ValidationError
from .seeding import STREAM_BATCH, STREAM_SPLIT, STREAM_SYNTH, _check_seed, gaussian, rng_for


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
        if not ((values == 0) | (values == 1)).all():
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
        if len(set(self.class_names)) != c:
            raise ValidationError("duplicate class name")

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

    ``signal_strength`` may be one value for every class (a scalar or a
    one-value sequence) or one value per class; class j's logit is
    s_j * (2*y - 1) plus Gaussian noise with ``noise_std``.
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
        strength = np.ravel(self.signal_strength).tolist()
        if len(strength) == 1:
            strength *= self.n_classes
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
            for i, idx in enumerate(cluster):
                if not 0 <= idx < self.n_classes:
                    raise ValidationError(f"cluster index {idx} out of range")
                if idx in cluster[:i]:
                    raise ValidationError(f"class {idx} appears more than once in one cluster")
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
        if not all(map(math.isfinite, self.signal_strength)):
            raise ValidationError("signal_strength must be finite")
        if any(s < 0 for s in self.signal_strength):
            raise ValidationError("signal_strength must be non-negative")
        if not 0 < self.noise_std < math.inf:
            raise ValidationError("noise_std must be positive and finite")
        _check_seed(self.seed)


def _check_labels(values, labels, what: str):
    """``values`` as float64 and ``labels`` as given, if they match and every label is 0 or 1."""
    values = np.asarray(values, dtype=np.float64)
    labels = np.asarray(labels)
    if values.ndim != 2 or labels.shape != values.shape:
        raise ValidationError(f"{what} and labels must be matching 2-d matrices")
    if not ((labels == 0) | (labels == 1)).all():
        raise ValidationError("labels must be 0 or 1")
    return values, labels


def read_lines(path):
    """The lines of a UTF-8 input file, each with its end (LF, CRLF or CR) as
    it is, read one at a time; so a CRLF is never cut."""
    path = Path(path)
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            yield from fh
    except FileNotFoundError:
        raise ValidationError(f"file not found: {path}") from None
    except UnicodeDecodeError as exc:
        try:    # a streamed decode counts byte positions from its chunk: name the file's
            path.read_bytes().decode("utf-8")
        except UnicodeDecodeError as whole:
            exc = whole
        raise ValidationError(f"{path}: not UTF-8 text: {exc}") from None
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None


def binary_cells(texts: list[str]) -> np.ndarray:
    """Label cells, each exactly ``0`` or ``1``, as a uint8 vector."""
    if not set(texts) <= {"0", "1"}:
        bad = next(t for t in texts if t not in ("0", "1"))
        raise ValueError(f"label cell must be 0 or 1, got '{bad}'")
    return np.frombuffer("".join(texts).encode("ascii"), np.uint8) - ord("0")


def finite_cells(texts: list[str], what: str) -> np.ndarray:
    """Decimal cells (scientific notation accepted) as a finite float64 vector."""
    values = np.fromiter(map(float, texts), np.float64, len(texts))
    if not np.isfinite(values).all():
        raise ValueError(f"non-finite {what}")
    return values


def read_table(path, key: str, cell, names=None, keys=None):
    """Parse a class-indexed CSV; the one parse loop for labels, logits and ``A.csv``.

    The header is ``key`` (``sample_id`` or ``class``) then at least two
    class names, equal to ``names`` if given. Every further line holds a
    key and one cell per class; the keys are unique, and equal to ``keys``
    in order if given. ``cell`` turns one row's cell texts into a vector,
    raising ValueError on a cell it rejects. Returns the keys, the class
    names and the (rows, classes) matrix; a fault raises ValidationError
    naming the file and, for a row, its line. Lines are cut as by
    ``str.splitlines`` and streamed. A fault first decodes and counts the
    whole file, so a decoding fault outranks every other, and a row count
    fault any row's.
    """
    def count() -> int:
        return sum(len(raw.splitlines()) for raw in read_lines(path)) - 1

    def fault(message: str, row: bool = True) -> ValidationError:
        n_rows = count()
        if row and keys is not None and n_rows != len(keys):
            where = f"line {len(keys) + 2}: " if n_rows > len(keys) else ""
            message = f"{where}shape mismatch: {n_rows} {key} rows, expected {len(keys)}"
        return ValidationError(f"{path}: {message}")

    n_rows = count() if keys is None else len(keys)
    lines = (line for raw in read_lines(path) for line in raw.splitlines())
    header = next(lines, None)
    if header is None:
        raise fault("empty file", row=False)
    header = header.split(",")
    if header[0] != key:
        raise fault(f"line 1: malformed header: first column must be {key}", row=False)
    if len(header) < 3:
        raise fault("line 1: malformed header: need at least 2 class columns", row=False)
    classes = header[1:]
    if len(set(classes)) != len(classes):
        repeated = next(name for i, name in enumerate(classes) if name in classes[:i])
        raise fault(f"line 1: repeated class name '{repeated}'", row=False)
    if names is not None and tuple(classes) != tuple(names):
        raise fault("class header mismatch with labels", row=False)
    if n_rows == 0:
        raise fault("no samples")
    seen: dict[str, None] = {}      # the keys in file order, when not given
    i = -1
    for i, line in zip(range(n_rows), lines):
        cells = line.split(",")
        if len(cells) != len(header):
            raise fault(f"line {i + 2}: expected {len(header)} cells, got {len(cells)}")
        if keys is None:
            if cells[0] in seen:
                raise fault(f"line {i + 2}: duplicate {key} '{cells[0]}'")
            seen[cells[0]] = None
        elif cells[0] != keys[i]:
            raise fault(f"line {i + 2}: {key} mismatch at row {i + 1}: "
                        f"expected '{keys[i]}', got '{cells[0]}'")
        try:
            row = cell(cells[1:])
        except ValueError as exc:
            raise fault(f"line {i + 2}: {exc}") from None
        # filled in place: stacking the row vectors instead kept freed heap resident
        if i == 0:
            values = np.empty((n_rows, row.size), row.dtype)
        values[i] = row
    if i + 1 != n_rows or next(lines, None) is not None:
        raise fault(f"{i + 1} rows read, expected {n_rows}")
    return tuple(seen if keys is None else keys), tuple(classes), values


def load_labels(path) -> LabelMatrix:
    """Load a label CSV. Row order equals file order.

    Raises ValidationError naming the offending line for a malformed
    header, non-binary cell, ragged row, or duplicate sample_id.
    """
    ids, names, values = read_table(path, "sample_id", binary_cells)
    return LabelMatrix(values, ids, names)


def load_logits(path, labels: LabelMatrix) -> LogitMatrix:
    """Load a logits CSV aligned row-for-row with ``labels``.

    The header must repeat the label file's class names and the
    sample_id column must match ``labels`` exactly, in order.
    """
    _, _, values = read_table(path, "sample_id", partial(finite_cells, what="logit"),
                              labels.class_names, labels.sample_ids)
    return LogitMatrix(values)


def write_table(path, header, rows) -> None:
    """Write a CSV table: a header line, then one line per row of cells.

    Cells are written with ``str``, so Python floats keep their shortest
    round-trip repr; pass NumPy values through ``tolist()`` or ``float``
    first. LF line endings, trailing newline. Lines are written as they are
    formatted, so the table is never held in memory as text.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(str, row)) + "\n" for row in rows)


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

    with np.errstate(over="ignore", invalid="ignore"):
        logit_values = gaussian(rng, (n, n_classes), spec.noise_std)
        logit_values += np.array(spec.signal_strength) * (2.0 * y - 1.0)
    if not np.isfinite(logit_values).all():
        raise ValidationError("logits overflow float64: lower noise_std or signal_strength")

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
