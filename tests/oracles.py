"""Independent brute-force oracles and numeric helpers for the tests.

Everything here is deliberately written as plain loops or as the literal
formula, separate from the library's vectorized code paths, so agreement
between the two is meaningful.
"""

import numpy as np


def brute_cooccurrence(values):
    """O(N^2 * samples) pairwise co-occurrence counting."""
    n_samples, n_classes = values.shape
    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    for m in range(n_classes):
        for n in range(n_classes):
            total = 0
            for i in range(n_samples):
                if values[i, m] == 1 and values[i, n] == 1:
                    total += 1
            counts[m, n] = total
    return counts


def brute_conditional(counts):
    """Row-wise division with the identity-row convention for zero rows."""
    n = counts.shape[0]
    probs = np.zeros((n, n))
    for m in range(n):
        if counts[m, m] == 0:
            probs[m, m] = 1.0
        else:
            for c in range(n):
                probs[m, c] = counts[m, c] / counts[m, m]
    return probs


def per_row_top_k_mean(probs, class_index, k):
    """Mean of the k largest off-diagonal entries of one row, taken by
    deleting the diagonal entry and sorting that row alone."""
    row = np.delete(probs[class_index], class_index)
    return np.sort(row)[-k:].mean()


def brute_average_precision(scores, labels):
    """PR-step-function area by prefix enumeration.

    Sorts by descending score with ties broken by ascending index, walks
    every prefix computing precision/recall by explicit counting, and
    integrates precision over the recall increments.
    """
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    n_pos = sum(labels)
    area = 0.0
    prev_recall = 0.0
    hits = 0
    for rank, idx in enumerate(order, start=1):
        if labels[idx] == 1:
            hits += 1
        precision = hits / rank
        recall = hits / n_pos
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return area


def central_difference(f, array, step=1e-3):
    """Entrywise central finite differences of a scalar function.

    ``f`` takes no arguments and reads ``array``, which is temporarily
    perturbed in place.
    """
    grad = np.zeros_like(array, dtype=np.float64)
    it = np.nditer(array, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        original = array[idx]
        array[idx] = original + step
        upper = f()
        array[idx] = original - step
        lower = f()
        array[idx] = original
        grad[idx] = (upper - lower) / (2.0 * step)
    return grad


def gradient_close(analytic, numeric, rel_tol=1e-4, abs_tol=1e-7):
    """Relative comparison with an absolute floor near zero."""
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    return np.all(np.abs(analytic - numeric) <= np.maximum(rel_tol * scale, abs_tol))


def dense_gcn(weights, slope, final_nonlinearity, prop, h0, grad_refined):
    """The head as written, ``H_l = act((P @ H_{l-1}) @ W_l)``, with its
    reverse pass layer by layer; LeakyReLU's subgradient at 0 is 1.

    Returns (refined, weight gradients, input gradient, pre-activations),
    the pre-activations ``(batch, N, d_l)`` per layer.
    """
    n_layers = len(weights)
    h = h0[:, :, None]
    propagated, pre_acts = [], []
    for l, w in enumerate(weights):
        m = np.matmul(prop, h)
        z = m @ w
        propagated.append(m)
        pre_acts.append(z)
        activated = l < n_layers - 1 or final_nonlinearity
        h = np.where(z >= 0, z, slope * z) if activated else z
    refined = h0 + h[:, :, 0]

    g = grad_refined[:, :, None]
    d_weights = [None] * n_layers
    for l in range(n_layers - 1, -1, -1):
        if l < n_layers - 1 or final_nonlinearity:
            g = g * np.where(pre_acts[l] >= 0, 1.0, slope)
        d_in, d_out = weights[l].shape
        d_weights[l] = propagated[l].reshape(-1, d_in).T @ g.reshape(-1, d_out)
        g = np.matmul(prop.T, g @ weights[l].T)
    return refined, d_weights, g[:, :, 0] + grad_refined, pre_acts


def masked_sigmoid(x):
    """The logistic function by boolean masks: ``1 / (1 + exp(-x))`` where
    ``x >= 0``, ``exp(x) / (1 + exp(x))`` elsewhere."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def stacked_sector_table(weights, slope):
    """Factors, breakpoints, slope rows and coefficients of a 1-d-d-1 head,
    built as the sector form first did: ``np.unique`` breakpoints, one slope
    row per sector in ``[0, 2m]`` and the zero sector's all-ones row
    stacked below them."""
    w1 = weights[0][0]
    first = np.where(np.array([[1.0], [-1.0]]) * w1 >= 0, 1.0, slope)
    factors = (w1 * first) @ weights[1]
    pos, neg = factors[0], factors[1]
    total = pos + neg
    t = np.divide(neg, total, out=np.full_like(neg, -1.0), where=total != 0)
    inside = (0.0 <= t) & (t <= 1.0)
    breaks = np.unique(t[inside])
    at = 2 * np.searchsorted(breaks, t) + 1
    last = 2 * breaks.size
    lo = np.where(inside & (total > 0), at, np.where(inside | (neg <= 0), 0, last + 1))
    hi = np.where(inside & (total < 0), at, last)
    s = np.arange(last + 1)[:, None]
    slopes = np.vstack([np.where((lo <= s) & (s <= hi), 1.0, slope), np.ones(neg.size)])
    coeffs = slopes @ (factors * weights[2][:, 0]).T
    return factors, breaks, slopes, coeffs


def whole_text_read_table(path, key, cell, names=None, keys=None):
    """``read_table`` as a whole-text reader: decode the entire file, reading
    every CRLF and CR as LF, cut it at LF, then check the header, the row
    count and each row in turn. The streamed reader must reach the same
    decision, array and message on every input."""
    from pathlib import Path

    from coocrefine import ValidationError

    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ValidationError(f"file not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text: {exc}") from None
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    lines = text.split("\n")
    if lines[-1] == "":
        del lines[-1]       # the last line's end, or an empty file
    if not lines:
        raise ValidationError(f"{path}: empty file")
    header = lines[0].split(",")
    if header[0] != key:
        raise ValidationError(f"{path}: line 1: malformed header: first column must be {key}")
    if len(header) < 3:
        raise ValidationError(f"{path}: line 1: malformed header: need at least 2 class columns")
    classes = header[1:]
    if len(set(classes)) != len(classes):
        repeated = next(name for i, name in enumerate(classes) if name in classes[:i])
        raise ValidationError(f"{path}: line 1: repeated class name '{repeated}'")
    if names is not None and tuple(classes) != tuple(names):
        raise ValidationError(f"{path}: class header mismatch with labels")
    n_rows = len(lines) - 1
    if n_rows == 0 and keys is None:
        raise ValidationError(f"{path}: no samples")
    if keys is not None and n_rows != len(keys):
        where = f"line {len(keys) + 2}: " if n_rows > len(keys) else ""
        raise ValidationError(
            f"{path}: {where}shape mismatch: {n_rows} {key} rows, expected {len(keys)}"
        )
    seen = {}
    rows = []
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValidationError(
                f"{path}: line {i + 2}: expected {len(header)} cells, got {len(cells)}"
            )
        if keys is None:
            if cells[0] in seen:
                raise ValidationError(f"{path}: line {i + 2}: duplicate {key} '{cells[0]}'")
            seen[cells[0]] = None
        elif cells[0] != keys[i]:
            raise ValidationError(
                f"{path}: line {i + 2}: {key} mismatch at row {i + 1}: "
                f"expected '{keys[i]}', got '{cells[0]}'"
            )
        try:
            rows.append(cell(cells[1:]))
        except ValueError as exc:
            raise ValidationError(f"{path}: line {i + 2}: {exc}") from None
    return tuple(seen if keys is None else keys), tuple(classes), np.stack(rows)
