"""Benchmark of the coocrefine CLI pipeline: prior -> train -> eval -> analyze.

Run from the repository root, one workload per process:

    python3 perfbench/run.py --workload acc-n20 --seed 1 --seconds 30 --trace 0

The program is driven in-process through ``coocrefine.cli.main`` on seeded
synthetic CSVs and receives nothing else. With ``--trace 0`` every stage is
timed from outside with tracing off; with ``--trace 1`` only traced
pipelines run and the per-layer numbers come from them (see ``tracing.py``).
Every stage's outputs are checked (see ``checks.py``).

Stdout ends with two lines: ``info {...}``, the environment and the facts
that are recorded but not gated, then the result object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Exit code 0 means every operation
succeeded, 1 that one failed, 2 that the program could not be loaded.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread, never more than nproc, set before numpy is first imported:
# a single process generates the load and shared-machine noise stays low.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / ".work"

STAGES = ("prior", "train", "eval", "analyze")
SETUP_ROUNDS = 2          # before measuring; --trace 0 adds one per pass
WARMUP_SAMPLES = 256
REPEAT_SHARE = 0.25


@dataclass(frozen=True)
class Workload:
    """Sizes of one workload; the data follow the acceptance-criterion-5 recipe."""

    n_classes: int
    n_samples: int
    n_train: int                 # the rest is the test split
    epochs: int
    validate: bool               # train with --val-labels/--val-logits = test split
    map_floor: float | None      # refined minus raw test mAP must exceed this


WORKLOADS = {
    # Per-step fixed cost dominates (validation, small BLAS calls, per-epoch
    # validation forwards); CSV, prior and BLAS work are negligible.
    "acc-n20": Workload(20, 4000, 2000, 20, True, 0.04),
    # P @ H propagation dominates every stage that runs the head; whole-set
    # forwards of 800 rows take most of a gigabyte.
    "wide-n300": Workload(300, 4000, 3200, 1, False, None),
    # COCO-sized: CSV parsing, co-occurrence, SHA-256 of a large logits CSV,
    # per-class AP sorting, the refined-CSV writer and whole-set memory.
    "bulk-n80": Workload(80, 24000, 20000, 1, False, None),
}

# prior, eval and analyze alone run 0.02-2.5 s and swing by a fifth between
# runs on a shared machine, so only their sum inside pipeline_s is gated;
# their medians go to the info line and their layers to the traced run.
END_TO_END_UNITS = {
    "setup_s": "s",
    "train_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
    "refined_map": "mAP",
}


def _load_program():
    if not (SRC / "coocrefine" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no coocrefine sources under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import coocrefine.cli  # noqa: F401


def environment() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def source_digest() -> str:
    """SHA-256 over the program's Python sources, names and contents."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "coocrefine").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


@dataclass
class Dataset:
    """Generated CSVs in ``dir`` plus what the checks need from memory."""

    dir: Path
    names: tuple
    train_cooc: np.ndarray       # Y^T Y of the training labels, int64
    test_logits: np.ndarray      # exactly the values written to test_logits.csv
    map_floor: float | None
    digests: dict = field(default_factory=dict)    # output -> sha256 of its first version
    reports: list = field(default_factory=list)    # eval's report.json, one per run

    def csv(self, name: str) -> str:
        return str(self.dir / f"{name}.csv")

    def out(self, stage: str) -> Path:
        return self.dir / "run" / stage


def make_dataset(wl: Workload, seed: int, n_samples: int, directory: Path, map_floor) -> Dataset:
    from coocrefine import data

    n = wl.n_classes
    clusters = tuple(tuple(range(4 * i, 4 * i + 4)) for i in range(n // 5))
    weak = {cluster[0] for cluster in clusters}
    spec = data.SyntheticSpec(
        n_classes=n,
        n_samples=n_samples,
        clusters=clusters,
        within_cluster_prob=0.9,
        base_prob=0.15,
        signal_strength=tuple(0.3 if j in weak else 2.0 for j in range(n)),
        noise_std=1.0,
        seed=seed,
    )
    labels, logits = data.synth_generate(spec)
    n_train = n_samples * wl.n_train // wl.n_samples
    (train_labels, train_logits), (test_labels, test_logits) = data.split(
        labels, logits, n_train / n_samples, seed=seed
    )
    if train_labels.n_samples != n_train:
        raise RuntimeError(f"split gave {train_labels.n_samples} training rows, wanted {n_train}")
    directory.mkdir(parents=True, exist_ok=True)
    data.write_labels(train_labels, directory / "train_labels.csv")
    data.write_logits(train_logits, train_labels, directory / "train_logits.csv")
    data.write_labels(test_labels, directory / "test_labels.csv")
    data.write_logits(test_logits, test_labels, directory / "test_logits.csv")
    y = train_labels.values.astype(np.int64)
    return Dataset(directory, labels.class_names, y.T @ y, test_logits.values, map_floor)


class Bench:
    """Runs CLI stages and their output checks; counts every operation."""

    def __init__(self, wl: Workload, seed: int):
        self.wl = wl
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def op(self, error: str | None) -> bool:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.errors.append(error)
        return error is None

    def argv(self, stage: str, ds: Dataset) -> list[str]:
        model, cond = str(ds.out("train") / "model.txt"), str(ds.out("train") / "A.csv")
        if stage == "prior":
            args = ["--labels", ds.csv("train_labels")]
        elif stage == "train":
            args = ["--labels", ds.csv("train_labels"), "--logits", ds.csv("train_logits"),
                    "--epochs", str(self.wl.epochs), "--batch-size", "32", "--gcn-dims", "1,64,64,1"]
            if self.wl.validate:
                args += ["--val-labels", ds.csv("test_labels"), "--val-logits", ds.csv("test_logits")]
        elif stage == "eval":
            args = ["--labels", ds.csv("test_labels"), "--logits", ds.csv("test_logits"),
                    "--model", model, "--cond-prob", cond, "--refined-out", "refined.csv"]
        else:
            args = ["--labels", ds.csv("test_labels"), "--cond-prob", cond,
                    "--model", model, "--logits", ds.csv("test_logits")]
        return [stage, *args, "--seed", str(self.seed), "--out-dir", str(ds.out(stage))]

    def stage(self, stage: str, ds: Dataset) -> float | None:
        """Wall time of one stage, or None when it or its output check failed."""
        from coocrefine import cli

        argv = self.argv(stage, ds)
        err = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
        seconds = time.perf_counter() - start
        if not self.op(None if rc == 0 else f"{stage} exited {rc}: {err.getvalue().strip()}"):
            return None
        return seconds if self.check(stage, ds) else None

    def check(self, stage: str, ds: Dataset) -> bool:
        out = ds.out(stage)
        if stage == "prior":
            return self.op(checks.check_cooccurrence(out / "C.csv", ds.names, ds.train_cooc))
        if stage == "train":
            return self.op(_same_as_first(ds, "model", out / "model.txt"))
        if stage != "eval":
            return True
        refined = out / "refined.csv"
        if "refined" in ds.digests:
            ok = self.op(_same_as_first(ds, "refined", refined))
        else:
            ok = self.op(checks.check_refined(
                refined, ds.out("train") / "model.txt", ds.out("train") / "A.csv",
                ds.names, ds.test_logits))
            ds.digests["refined"] = _sha256(refined)
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        ds.reports.append(report)
        if ds.map_floor is not None:
            gain = report["delta_map"]
            ok &= self.op(None if gain > ds.map_floor else f"delta_map {gain:.4f} <= floor {ds.map_floor}")
        return ok

    def pipeline(self, ds: Dataset) -> dict | None:
        times = {}
        for stage in STAGES:
            seconds = self.stage(stage, ds)
            if seconds is None:
                return None
            times[stage] = seconds
        return times


def _same_as_first(ds: Dataset, key: str, path: Path) -> str | None:
    """Repeats of a deterministic stage write byte-identical outputs."""
    digest = _sha256(path)
    first = ds.digests.setdefault(key, digest)
    return None if digest == first else f"{path.name} differs between repeats of the same stage"


def setup_round(bench: Bench, wl: Workload, seed: int, work: Path) -> tuple[Dataset, float | None]:
    """Generate and write the workload's CSVs, then run an untimed warm-up
    pipeline on a small dataset of the same class count. Returns the data
    and the round's seconds, None when the warm-up failed."""
    start = time.perf_counter()
    ds = make_dataset(wl, seed, wl.n_samples, work / "data", wl.map_floor)
    warm = bench.pipeline(make_dataset(wl, seed, WARMUP_SAMPLES, work / "warmup", None))
    return ds, None if warm is None else time.perf_counter() - start


def measure(bench: Bench, ds: Dataset, seconds: float, again) -> dict[str, list[float]]:
    """Run every stage once, then repeat in pipeline order each stage that
    takes at most REPEAT_SHARE of the measuring time while it still fits in
    the time left. Long stages average out short noise by themselves and
    leave the time to the short ones, which need the repeats. A set-up
    round (``again``) closes each pass by the same rule, so that set-up is
    sampled across the whole run, as the stages are."""
    steps = {stage: functools.partial(bench.stage, stage, ds) for stage in STAGES}
    steps["setup"] = again
    times = {name: [] for name in steps}
    deadline = time.perf_counter() + seconds
    ran = True
    while ran:
        ran = False
        for name, step in steps.items():
            if times[name] and (times[name][-1] > REPEAT_SHARE * seconds
                                or time.perf_counter() + times[name][-1] > deadline):
                continue
            elapsed = step()
            if elapsed is None:
                return times
            times[name].append(elapsed)
            ran = True
    return times


def end_to_end(bench: Bench, ds: Dataset, seconds: float, rounds: list[float], again, info: dict) -> dict:
    times = measure(bench, ds, seconds, again)
    rounds = rounds + times.pop("setup")
    info["samples"] = {stage: len(values) for stage, values in times.items()}
    info["setup_rounds_s"] = rounds
    if not all(times.values()):
        return {}
    stage_s = {stage: statistics.median(values) for stage, values in times.items()}
    info["stage_s"] = stage_s
    metrics = {"setup_s": statistics.median(rounds), "train_s": stage_s["train"],
               "pipeline_s": sum(stage_s.values())}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["refined_map"] = ds.reports[-1]["refined"]["map"]
    return metrics


def per_layer(bench: Bench, ds: Dataset, seconds: float, run_id: str, info: dict) -> dict:
    """Run traced pipelines while they fit in the time; the per-layer numbers
    are medians over them. The tracing overhead of a pipeline is its span
    count times the calibrated cost of one span, plus its annotation time."""
    tracer = tracing.Tracer()
    span_s = tracing.span_cost()
    totals = []
    per_run = []
    deadline = time.perf_counter() + seconds
    while not totals or time.perf_counter() + totals[-1] <= deadline:
        tracer.run += 1
        spent = 0.0
        with tracing.traced(tracer):
            for stage in STAGES:
                elapsed = bench.stage(stage, ds)
                if elapsed is None:
                    return {}
                spent += elapsed
        totals.append(spent)
        spans = [s for s in tracer.spans if s.run == tracer.run]
        metrics = tracing.layer_metrics(spans)
        metrics["trace.overhead_s"] = len(spans) * span_s + tracer.annotate_s[tracer.run]
        per_run.append(metrics)

    trace_file = WORK / "traces" / f"{run_id}.json"
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    trace_file.write_text(json.dumps({"run": run_id, "env": info["env"], "spans": tracer.rows()}) + "\n",
                          encoding="utf-8")
    info["trace_file"] = str(trace_file.relative_to(HERE.parent))
    info["traced_pipeline_s"] = totals
    info["span_cost_us"] = span_s * 1e6
    metrics = {}
    for name in tracing.UNITS:
        values = [m[name] for m in per_run if name in m]
        if len(values) == len(per_run):
            metrics[name] = statistics.median(values)
    _check_exact(bench, per_run, f"{info['workload']} seed={info['seed']} src={info['source_sha256']}")
    info["absent"] = [name for name in tracing.UNITS if name not in metrics]
    info["exact"] = tracing.EXACT
    return metrics


def _check_exact(bench: Bench, per_run: list[dict], key: str) -> None:
    """Exact numbers repeat across traced pipelines, and across runs of the
    same workload, seed and program sources in this checkout (kept in
    WORK/exact_counts.json)."""
    current = {}
    for name in tracing.EXACT:
        values = [m[name] for m in per_run if name in m]
        if values:
            current[name] = values[0]
            bench.op(None if len(set(values)) == 1 else f"{name} differs between traced pipelines: {values}")
    path = WORK / "exact_counts.json"
    seen = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    for name, value in seen.get(key, {}).items():
        if name in current:
            bench.op(None if current[name] == value else f"{name} {current[name]} != {value} of an earlier run")
    seen[key] = {**seen.get(key, {}), **current}
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(seen, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    tmp.replace(path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _load_program()

    wl = WORKLOADS[args.workload]
    bench = Bench(wl, args.seed)
    run_id = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work = WORK / run_id
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": environment(),
            "source_sha256": source_digest()}
    units = tracing.UNITS if args.trace else END_TO_END_UNITS
    metrics = {}
    try:
        rounds = []
        for _ in range(SETUP_ROUNDS):
            ds, seconds = setup_round(bench, wl, args.seed, work)
            rounds.append(seconds)
        if not bench.failed and args.trace:
            metrics = per_layer(bench, ds, args.seconds, run_id, info)
        elif not bench.failed:
            def again():
                return setup_round(bench, wl, args.seed, work)[1]
            metrics = end_to_end(bench, ds, args.seconds, rounds, again, info)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    info["failed_frac"] = bench.failed / max(bench.attempted, 1)
    info["errors"] = bench.errors[:5]
    info["model_sha256"] = ds.digests.get("model")
    info["delta_map"] = ds.reports[-1]["delta_map"] if ds.reports else None
    correct = bench.failed == 0 and set(metrics) == set(units) - set(info.get("absent", ()))
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units if name in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
