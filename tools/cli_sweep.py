"""Run a fixed list of coocrefine CLI cases against one source tree and
print, as JSON, what each case returned and wrote; or against two trees and
print where they differ.

    python tools/cli_sweep.py <tree> > sweep.json
    python tools/cli_sweep.py <parent-tree> <change-tree>

Each case runs as ``python -m coocrefine <args>`` in a child process with
``PYTHONPATH=<tree>/src`` and ``OPENBLAS_NUM_THREADS=1``, inside one fresh
temporary directory, on relative paths, so no absolute path can enter an
output. Later cases read what earlier ones wrote. The JSON holds, per case,
the exit code and the SHA-256 of its stdout and stderr; the SHA-256 of every
file left in the directory; and two overall digests, ``records_sha256`` over
the cases and ``files_sha256`` over the files. Two trees whose overall
digests are equal ran every case alike and wrote byte-identical files.

Given two trees, it sweeps each, prints every case and file whose digests
differ and both trees' overall digests, and exits 1 if anything differs.
Given the same tree twice, it checks that the CLI is deterministic.

In both modes a case named ``exit-1-*`` must exit 1 and every other case
0; each case that does not is printed (to stderr given one tree), and the
run exits 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

N_CLASSES = 8
DATA = ("--labels", "data/labels.csv", "--logits", "data/logits.csv")
VAL = ("--val-labels", "val/labels.csv", "--val-logits", "val/logits.csv")
TRAIN = ("train", *DATA, "--epochs", "3", "--batch-size", "32")
MODEL = ("--model", "train_val/model.txt", "--cond-prob", "train_val/A.csv")
ANALYZE = ("analyze", "--labels", "data/labels.csv", "--cond-prob", "train_val/A.csv")

# (name, arguments); a case may read the outputs of the cases before it
CASES = (
    ("synth-clusters", ("synth", "--n-classes", str(N_CLASSES), "--n-samples", "600",
                        "--clusters", "0,1,2;3,4", "--seed", "1", "--out-dir", "data")),
    ("synth-validation", ("synth", "--n-classes", str(N_CLASSES), "--n-samples", "200",
                          "--clusters", "0,1,2;3,4", "--seed", "2", "--out-dir", "val")),
    ("synth-cluster-probs", ("synth", "--n-classes", "6", "--n-samples", "300",
                             "--clusters", "0,1;2,3,4", "--cluster-probs", "0.4,0.2",
                             "--signal-strength", "1,2,0.5,1.5,1,2", "--seed", "3",
                             "--out-dir", "data6")),
    ("prior-frequency", ("prior", "--labels", "data/labels.csv", "--out-dir", "prior_freq")),
    ("prior-none", ("prior", "--labels", "data6/labels.csv", "--reweight-mode", "none",
                    "--out-dir", "prior_none")),
    ("train-validation", (*TRAIN, *VAL, "--out-dir", "train_val")),
    ("train-deep-momentum", (*TRAIN, "--gcn-dims", "1,3,4,5,1", "--momentum", "0.9",
                             "--final-nonlinearity", "--out-dir", "train_deep")),
    ("train-linear-gamma-pos-0", (*TRAIN, "--gcn-dims", "1,1", "--gamma-pos", "0",
                                  "--out-dir", "train_linear")),
    ("train-lr0-10", (*TRAIN, "--lr0", "10", "--out-dir", "train_lr10")),
    ("train-final-nonlinearity", (*TRAIN, "--final-nonlinearity", "--out-dir", "train_final")),
    ("eval-raw", ("eval", *DATA, "--out-dir", "eval_raw")),
    ("eval-refined-out", ("eval", *DATA, *MODEL, "--refined-out", "refined.csv",
                          "--out-dir", "eval_refined")),
    ("eval-topk-2-condprob-k-1", ("eval", *DATA, *MODEL, "--topk", "2", "--condprob-k", "1",
                                  "--out-dir", "eval_topk")),
    ("eval-condprob-k-max", ("eval", *DATA, *MODEL, "--condprob-k", str(N_CLASSES - 1),
                             "--out-dir", "eval_kmax")),
    ("analyze-before-after", (*ANALYZE, "--before", "data/logits.csv",
                              "--after", "eval_refined/refined.csv", "--out-dir", "an_scores")),
    ("analyze-model-k-1", (*ANALYZE, "--model", "train_val/model.txt",
                           "--logits", "data/logits.csv", "--k", "1", "--bin-size", "0.1",
                           "--out-dir", "an_k1")),
    ("analyze-model-k-max", (*ANALYZE, "--model", "train_val/model.txt",
                             "--logits", "data/logits.csv", "--k", str(N_CLASSES - 1),
                             "--out-dir", "an_kmax")),
    ("train-config-rerun", ("train", "--config", "train_val/train_manifest.json",
                            "--out-dir", "train_rerun")),
    ("eval-config-rerun", ("eval", "--config", "eval_refined/eval_manifest.json",
                           "--out-dir", "eval_rerun")),
    ("exit-1-condprob-k-n", ("eval", *DATA, *MODEL, "--condprob-k", str(N_CLASSES),
                             "--out-dir", "bad_condprob_k")),
    ("exit-1-k-0", (*ANALYZE, "--model", "train_val/model.txt", "--logits", "data/logits.csv",
                    "--k", "0", "--out-dir", "bad_k")),
    ("exit-1-k-before-model", (*ANALYZE, "--model", "data/labels.csv",
                               "--logits", "data/logits.csv", "--k", "0",
                               "--out-dir", "bad_k_model")),
    ("exit-1-eps-1", (*TRAIN, "--eps", "1", "--out-dir", "bad_eps")),
    ("exit-1-synth-seed", ("synth", "--seed", "-1", "--out-dir", "bad_synth_seed")),
    ("exit-1-synth-noise-inf", ("synth", "--noise-std", "inf", "--out-dir", "bad_noise")),
    ("exit-1-train-seed", (*TRAIN, "--seed", "-1", "--out-dir", "bad_train_seed")),
    ("exit-1-bin-size-inf", (*ANALYZE, "--model", "train_val/model.txt",
                             "--logits", "data/logits.csv", "--bin-size", "inf",
                             "--out-dir", "bad_bin_size")),
    ("exit-1-synth-noise-overflow", ("synth", "--noise-std", "1e308",
                                     "--out-dir", "bad_noise_overflow")),
    ("help", ("--help",)),
    *((f"help-{sub}", (sub, "--help")) for sub in ("synth", "prior", "train", "eval", "analyze")),
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sweep(tree: Path) -> dict:
    # argparse wraps --help pages at COLUMNS; no bytecode is written into the tree
    env = {**os.environ, "PYTHONPATH": str(tree.resolve() / "src"),
           "OPENBLAS_NUM_THREADS": "1", "COLUMNS": "80", "PYTHONDONTWRITEBYTECODE": "1"}
    records = []
    with tempfile.TemporaryDirectory() as work:
        for name, args in CASES:
            done = subprocess.run([sys.executable, "-m", "coocrefine", *args], cwd=work,
                                  env=env, capture_output=True, check=False)
            records.append({"case": name, "args": list(args), "exit": done.returncode,
                            "stdout_sha256": _sha256(done.stdout),
                            "stderr_sha256": _sha256(done.stderr)})
        files = {path.relative_to(work).as_posix(): _sha256(path.read_bytes())
                 for path in sorted(Path(work).rglob("*")) if path.is_file()}
    return {
        "records": records,
        "files": files,
        "records_sha256": _sha256(json.dumps(records, sort_keys=True).encode()),
        "files_sha256": _sha256(json.dumps(files, sort_keys=True).encode()),
    }


def differences(a: dict, b: dict) -> list[str]:
    """The cases and files of two sweeps whose digests differ."""
    cases = [f"case {x['case']}" for x, y in zip(a["records"], b["records"]) if x != y]
    names = sorted(a["files"].keys() | b["files"].keys())
    return cases + [f"file {name}" for name in names if a["files"].get(name) != b["files"].get(name)]


def wrong_exits(tree: Path, result: dict) -> list[str]:
    """The cases of ``tree``'s sweep that exit otherwise than their names say."""
    return [f"{tree}: case {r['case']} exited {r['exit']}, expected {expected}"
            for r in result["records"]
            if r["exit"] != (expected := int(r["case"].startswith("exit-1-")))]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree", type=Path, help="source tree holding src/coocrefine")
    parser.add_argument("other", type=Path, nargs="?", help="a second tree to compare with")
    args = parser.parse_args()
    if args.other is None:
        result = sweep(args.tree)
        print(json.dumps(result, indent=2))
        wrong = wrong_exits(args.tree, result)
        for line in wrong:
            print(line, file=sys.stderr)
        return 1 if wrong else 0
    a, b = sweep(args.tree), sweep(args.other)
    diff = differences(a, b)
    for line in diff:
        print(f"differs: {line}")
    wrong = wrong_exits(args.tree, a) + wrong_exits(args.other, b)
    for line in wrong:
        print(line)
    for tree, result in ((args.tree, a), (args.other, b)):
        print(f"{tree}: records_sha256 {result['records_sha256']} "
              f"files_sha256 {result['files_sha256']}")
    print(f"{len(diff)} differences over {len(CASES)} cases and {len(a['files'])} files")
    return 1 if diff or wrong else 0


if __name__ == "__main__":
    sys.exit(main())
