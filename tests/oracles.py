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

    Returns (refined, weight gradients, input gradient).
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
    return refined, d_weights, g[:, :, 0] + grad_refined
