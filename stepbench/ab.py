"""Interleaved A/B timing of one training step, between two source trees.

    python stepbench/ab.py <parent-tree> <change-tree>

Both trees' ``src/coocrefine`` are loaded side by side in one process, each
as its own package (``importlib.util.spec_from_file_location`` with
``submodule_search_locations``; the package imports itself relatively).
Given the same tree twice, it is an A/A run: it shows how far this machine's
noise alone moves the ratio.

A step is what ``train`` runs per batch: ``gcn_forward``, ``rasl_loss``,
``rasl_grad``, ``gcn_backward`` and ``sgd_step``, with the default 1-64-64-1
head, a batch of 32 rows and one BLAS thread, at N = 20, 80 and 300
classes. The data follow perfbench's recipe (``make_dataset``: clusters of
four, a weak first member in each), drawn by the parent tree's
``synth_generate``. Each side trains its own model on the same batches in
the same order, so both sides do the same work. A pair times ``STEPS``
consecutive steps on each side, the side that runs first alternating from
pair to pair. For each of ``ROUNDS`` rounds and each N it prints the median
of ``PAIRS`` per-pair time ratios (change / parent), their interquartile
range and "change faster in k/n" pairs; the last line of stdout is the same
as JSON.

Only the whole step is timed, and the two sides' outputs are not compared.
"""

from __future__ import annotations

import os
import sys

# one BLAS thread, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

SIZES = (20, 80, 300)
HEAD = (1, 64, 64, 1)
BATCH = 32
ROWS = 640          # 20 batches, cycled
STEPS = 50          # steps per side per pair
LR = 0.002          # TrainConfig's default lr0
WARMUP_PAIRS = 2
PAIRS = 40          # timed pairs per N and round
ROUNDS = 3          # rounds over every N


def load_tree(tree: Path, name: str):
    """``<tree>/src/coocrefine`` as a package named ``name``."""
    package = tree / "src" / "coocrefine"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    if spec is None:
        raise SystemExit(f"no package at {package}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


class Side:
    """One tree's training run on one data set, advanced ``STEPS`` steps at a time."""

    def __init__(self, cr, labels: np.ndarray, logits: np.ndarray):
        names = [f"c{j}" for j in range(labels.shape[1])]
        ids = [f"s{i}" for i in range(labels.shape[0])]
        cooc = cr.cooccurrence(cr.LabelMatrix(labels, ids, names))
        self.cr, self.cond = cr, cr.conditional_prob(cooc)
        alphas = cr.reweighting(cooc, "frequency").alphas
        self.params = cr.RaslParams(alphas=cr.ReweightVector(alphas / alphas.mean()))
        self.model = cr.init_model(HEAD, seed=0)
        self.x, self.y = logits, labels
        self.batch = 0

    def run(self) -> float:
        """Seconds taken by the next ``STEPS`` steps."""
        cr, cond, params, model = self.cr, self.cond, self.params, self.model
        start = time.perf_counter()
        for _ in range(STEPS):
            rows = slice(self.batch * BATCH, (self.batch + 1) * BATCH)
            self.batch = (self.batch + 1) % (ROWS // BATCH)
            x, y = self.x[rows], self.y[rows]
            refined, cache = cr.gcn_forward(model, cond, x)
            cr.rasl_loss(refined, y, params)
            grads = cr.gcn_backward(cache, cr.rasl_grad(refined, y, params))
            model, _ = cr.sgd_step(model, grads, LR)
        elapsed = time.perf_counter() - start
        self.model = model
        return elapsed


def data(cr, n_classes: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Labels and logits of perfbench's synthetic recipe, ``ROWS`` rows."""
    clusters = tuple(tuple(range(4 * i, 4 * i + 4)) for i in range(n_classes // 5))
    weak = {cluster[0] for cluster in clusters}
    labels, logits = cr.synth_generate(cr.SyntheticSpec(
        n_classes=n_classes, n_samples=ROWS, clusters=clusters,
        within_cluster_prob=0.9, base_prob=0.15,
        signal_strength=tuple(0.3 if j in weak else 2.0 for j in range(n_classes)),
        noise_std=1.0, seed=seed))
    return labels.values, logits.values


def compare(parent, change, n_classes: int, seed: int) -> dict:
    labels, logits = data(parent, n_classes, seed)
    sides = {"parent": Side(parent, labels, logits), "change": Side(change, labels, logits)}
    times = {"parent": [], "change": []}
    for i in range(-WARMUP_PAIRS, PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            elapsed = sides[side].run()
            if i >= 0:
                times[side].append(elapsed)
    parent_s, change_s = np.array(times["parent"]), np.array(times["change"])
    ratio = change_s / parent_s
    q1, median, q3 = np.percentile(ratio, [25, 50, 75])
    return {
        "parent_step_ms_p50": round(float(np.median(parent_s)) / STEPS * 1e3, 4),
        "change_step_ms_p50": round(float(np.median(change_s)) / STEPS * 1e3, 4),
        "ratio_p50": round(float(median), 4),
        "ratio_iqr": round(float(q3 - q1), 4),
        "change_faster": f"{int((change_s < parent_s).sum())}/{PAIRS}",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="source tree of the parent")
    parser.add_argument("change", type=Path, help="source tree of the change")
    args = parser.parse_args(argv)
    parent = load_tree(args.parent.resolve(), "coocrefine_parent")
    change = load_tree(args.change.resolve(), "coocrefine_change")
    rounds = []
    for r in range(ROUNDS):
        result = {}
        for n in SIZES:
            result[f"N={n}"] = row = compare(parent, change, n, seed=n + r)
            print(f"round {r + 1} N={n}: ratio {row['ratio_p50']:.4f} "
                  f"(IQR {row['ratio_iqr']:.4f}), change faster in {row['change_faster']}",
                  flush=True)
        rounds.append(result)
    print(json.dumps({
        "how": "python stepbench/ab.py <parent> <change>",
        "same_tree": args.parent.resolve() == args.change.resolve(),
        "step": "gcn_forward, rasl_loss, rasl_grad, gcn_backward, sgd_step",
        "head": list(HEAD), "batch": BATCH, "steps_per_pair": STEPS, "blas_threads": 1,
        "pairs_per_round": PAIRS, "data": "perfbench make_dataset recipe",
        "python": platform.python_version(), "numpy": np.__version__,
        "rounds": rounds,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
