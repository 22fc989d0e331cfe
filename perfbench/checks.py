"""Output checks against independent numpy references.

Each check returns None when the output is right, else a one-line reason.
None of them calls into coocrefine, so a defect there cannot hide itself.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

CHUNK_ROWS = 128     # keeps the reference forward far below the program's peak RSS
REFINED_RTOL = 1e-9


def _matrix_csv(path: Path, names, dtype):
    """Body of a CSV whose header is ``<key>,<names>``, without its first column."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
    if tuple(header[1:]) != tuple(names):
        raise ValueError(f"{path.name}: header does not list the classes in order")
    cols = range(1, len(names) + 1)
    return np.loadtxt(path, delimiter=",", skiprows=1, usecols=cols, dtype=dtype, ndmin=2)


def check_cooccurrence(c_csv: Path, names, expected: np.ndarray) -> str | None:
    """``C.csv`` equals Y^T Y of the training labels exactly."""
    try:
        counts = _matrix_csv(c_csv, names, np.int64)
    except (OSError, ValueError) as exc:
        return f"C.csv unreadable: {exc}"
    if counts.shape != expected.shape or not np.array_equal(counts, expected):
        return "C.csv differs from Y^T Y of the training labels"
    return None


def read_model(path: Path):
    """(layer dims, weights, leaky slope, final nonlinearity) of a model file.

    Keyed lines and ``weights <l> <rows> <cols>`` blocks are found by their
    first token, so lines of other kinds are skipped.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    fields = {line.split()[0]: line.split()[1:] for line in lines if line.split()}
    dims = [int(t) for t in fields["layer_dims"]]
    slope = float(fields["leaky_slope"][0])
    final = fields["final_nonlinearity"][0] == "1"
    weights = []
    for i, line in enumerate(lines):
        tokens = line.split()
        if tokens and tokens[0] == "weights":
            rows, cols = int(tokens[2]), int(tokens[3])
            block = [[float(v) for v in row.split()] for row in lines[i + 1:i + 1 + rows]]
            weights.append(np.array(block, dtype=np.float64).reshape(rows, cols))
    if [w.shape for w in weights] != list(zip(dims[:-1], dims[1:])):
        raise ValueError("weight blocks do not match layer_dims")
    return dims, weights, slope, final


def reference_refine(h0: np.ndarray, cond: np.ndarray, weights, slope: float, final: bool):
    """h0 + head(h0) with the row-normalised propagation, in row chunks.

    Propagation is one (N, N) @ (N, rows*d) product per layer instead of the
    program's batched matmul.
    """
    prop = cond / cond.sum(axis=1, keepdims=True)
    n = h0.shape[1]
    out = np.empty_like(h0)
    for lo in range(0, h0.shape[0], CHUNK_ROWS):
        x = h0[lo:lo + CHUNK_ROWS]
        b = x.shape[0]
        h = x.T[:, :, None]                          # (N, b, d), node-major
        for layer, w in enumerate(weights):
            d = h.shape[2]
            mixed = (prop @ h.reshape(n, b * d)).reshape(n, b, d)
            h = mixed @ w
            if layer < len(weights) - 1 or final:
                h = np.where(h >= 0, h, slope * h)
        out[lo:lo + CHUNK_ROWS] = x + h[:, :, 0].T
    return out


def check_refined(refined_csv: Path, model_txt: Path, a_csv: Path, names, h0: np.ndarray) -> str | None:
    """The refined CSV equals the reference forward to REFINED_RTOL (max-norm)."""
    try:
        got = _matrix_csv(refined_csv, names, np.float64)
        _, weights, slope, final = read_model(model_txt)
        cond = _matrix_csv(a_csv, names, np.float64)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return f"refined check inputs unreadable: {exc}"
    if got.shape != h0.shape:
        return f"refined CSV has shape {got.shape}, expected {h0.shape}"
    ref = reference_refine(h0, cond, weights, slope, final)
    err = float(np.max(np.abs(got - ref))) / max(float(np.max(np.abs(ref))), 1e-300)
    if not err <= REFINED_RTOL:
        return f"refined CSV differs from the reference forward (relative error {err:.3g})"
    return None
