"""Command-line interface.

Subcommands compose the library into reproducible experiments:

* ``synth``   generate a correlated synthetic dataset (labels + logits)
* ``prior``   co-occurrence counts, conditional probabilities, reweighting
* ``train``   fit the refinement head
* ``eval``    metrics report for raw and/or refined logits
* ``analyze`` AP improvement vs. co-occurrence strength, binned

Every subcommand writes ``<subcommand>_manifest.json`` next to its
outputs, recording the tool version, the fully resolved configuration,
SHA-256 digests of all inputs, and the produced file names. Re-running a
subcommand with ``--config <manifest>`` reproduces its outputs byte for
byte.

Flag precedence: explicit flag > --config file value > built-in default.
A config file is a flat JSON object keyed by flag names (dashes as
underscores); a manifest file is accepted anywhere a config file is.

Exit codes: 0 success, 1 validation/input error, 2 runtime or numeric
failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import fields
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from . import __version__
from .data import (
    LogitMatrix,
    SyntheticSpec,
    finite_cells,
    load_labels,
    load_logits,
    read_table,
    read_text,
    synth_generate,
    write_labels,
    write_logits,
    write_table,
)
from .errors import NumericError, ValidationError
from .gcn import gcn_forward, load_model, save_model
from .metrics import delta_ap_analysis, evaluate, per_class_average_precision
from .prior import (
    REWEIGHT_MODES,
    CondProbMatrix,
    conditional_prob,
    cooccurrence,
    reweighting,
)
from .train import TrainConfig, train

_TOOL = "coocrefine"


# ---------------------------------------------------------------------------
# options: one table per subcommand
# ---------------------------------------------------------------------------

class Opt(NamedTuple):
    """One setting: flag ``--<name with dashes>``, config and manifest key ``<name>``.

    ``type`` turns the value given on the command line or in a config file
    into the one the command uses; a value of None stays None.
    """

    name: str
    default: object
    type: object
    help: str
    choices: tuple = ()


def _parse_list(value, kind) -> tuple:
    """Comma-separated text, or an already-parsed JSON list, as a tuple of ``kind``."""
    if isinstance(value, (list, tuple)):
        return tuple(kind(v) for v in value)
    return tuple(kind(v) for v in str(value).split(","))


_ints = partial(_parse_list, kind=int)
_floats = partial(_parse_list, kind=float)


def _clusters(value) -> tuple[tuple[int, ...], ...]:
    """Cluster sets as 'i,j,k;m,n' or an already-parsed nested list."""
    if isinstance(value, (list, tuple)):
        return tuple(_ints(group) for group in value)
    return tuple(_ints(group) for group in str(value).split(";") if group)


def _train_options():
    """The training hyperparameters, as TrainConfig declares them."""
    for f in fields(TrainConfig):
        if isinstance(f.default, tuple):
            yield Opt(f.name, ",".join(map(str, f.default)), _ints, f.metadata["help"])
        else:
            yield Opt(f.name, f.default, type(f.default), f.metadata["help"], f.metadata["choices"])


_COMMON = (
    Opt("seed", 0, int, "base seed; all stages derive from it"),
    Opt("out_dir", ".", str, "output directory"),
)
_A_CSV = "A.csv written by prior/train, classes in label-file order"

# subcommand -> (help, options besides _COMMON); an option named like a
# common one replaces it
_SUBCOMMANDS = {
    "synth": ("generate a synthetic correlated dataset", (
        Opt("n_classes", 20, int, "number of classes"),
        Opt("n_samples", 1000, int, "number of samples"),
        Opt("clusters", "", _clusters, "co-occurring class-index groups, e.g. '0,1,2;3,4'"),
        Opt("within_cluster_prob", 0.9, float,
            "co-activation probability of non-chosen cluster members"),
        Opt("base_prob", 0.3, float, "activation probability of clusters and free classes"),
        Opt("cluster_probs", None, _floats,
            "per-cluster activation probabilities, comma separated"),
        Opt("signal_strength", "2.0", _floats,
            "scalar or per-class comma-separated logit separation"),
        Opt("noise_std", 1.0, float, "logit noise std"),
    )),
    "prior": ("co-occurrence counts, conditional probabilities, alphas", (
        Opt("labels", None, str, "label CSV path"),
        Opt("reweight_mode", "frequency", str, "per-class loss weights", REWEIGHT_MODES),
    )),
    "train": ("fit the refinement head", (
        Opt("labels", None, str, "training label CSV"),
        Opt("logits", None, str, "training logits CSV"),
        Opt("val_labels", None, str, "validation label CSV"),
        Opt("val_logits", None, str, "validation logits CSV"),
        *_train_options(),
    )),
    "eval": ("evaluate raw and optionally refined logits", (
        Opt("labels", None, str, "label CSV path"),
        Opt("logits", None, str, "logits CSV path"),
        Opt("model", None, str, "model file; requires --cond-prob"),
        Opt("cond_prob", None, str, _A_CSV),
        Opt("threshold", 0.5, float, "sigmoid probability threshold for P/R/F1"),
        Opt("topk", None, int, "predict the k best classes per sample instead of thresholding"),
        Opt("condprob_k", 3, int, "k for the per-class co-occurrence strength column"),
        Opt("refined_out", None, str, "also write refined logits CSV under this name (--model)"),
    )),
    "analyze": ("AP improvement vs. co-occurrence strength", (
        Opt("labels", None, str, "label CSV path"),
        Opt("cond_prob", None, str, _A_CSV),
        Opt("before", None, str, "scores CSV before refinement"),
        Opt("after", None, str, "scores CSV after refinement"),
        Opt("model", None, str, "alternative to --before/--after: refine --logits with this model"),
        Opt("logits", None, str, "logits CSV for --model mode"),
        Opt("k", 3, int, "top-k conditional probabilities per class"),
        Opt("bin_size", 0.02, float, "width of the co-occurrence strength bins"),
    )),
}


def _options(subcommand: str) -> dict[str, Opt]:
    return {opt.name: opt for opt in (*_COMMON, *_SUBCOMMANDS[subcommand][1])}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


# ---------------------------------------------------------------------------
# config resolution and manifests
# ---------------------------------------------------------------------------

def _load_config_file(path) -> dict:
    try:
        raw = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ValidationError(f"{path}: config must be a JSON object")
    if "subcommand" in raw and "config" in raw:
        raw = raw["config"]        # a manifest doubles as a config file
        if not isinstance(raw, dict):
            raise ValidationError(f"{path}: manifest config must be a JSON object")
    raw.pop("threads", None)       # older manifests record a since-removed no-op flag
    return raw


def _resolve(args: argparse.Namespace) -> tuple[dict, SimpleNamespace]:
    """Merge flag > config file > default, per documented precedence.

    Returns the values as given, which the manifest records, and the same
    values converted by their options' types.
    """
    options = _options(args.subcommand)
    file_cfg = _load_config_file(args.config) if args.config else {}
    unknown = set(file_cfg) - set(options)
    if unknown:
        raise ValidationError(f"unknown config keys: {', '.join(sorted(unknown))}")
    resolved, typed = {}, {}
    for name, opt in options.items():
        value = getattr(args, name)
        if value is None:
            value = file_cfg.get(name, opt.default)
        if opt.choices and value not in opt.choices:
            raise ValidationError(f"invalid {_flag(name)} '{value}' (one of {opt.choices})")
        # a boolean only for a bool option, and no fraction for an int one
        if isinstance(value, bool) != (opt.type is bool) or (
            opt.type is int and isinstance(value, float) and not value.is_integer()
        ):
            raise ValidationError(f"invalid {_flag(name)} '{value}'")
        try:
            typed[name] = None if value is None else opt.type(value)
        except (TypeError, ValueError):
            raise ValidationError(f"invalid {_flag(name)} '{value}'") from None
        resolved[name] = value
    return resolved, SimpleNamespace(**typed)


def _fill(cls, values: SimpleNamespace):
    """Build dataclass ``cls`` from the resolved options of the same names."""
    return cls(**{f.name: getattr(values, f.name) for f in fields(cls)})


def _require(resolved: dict, *keys: str):
    for key in keys:
        if resolved[key] is None:
            raise ValidationError(f"missing required {_flag(key)}")


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _out_dir(path) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    probe = out / ".write_probe"
    try:
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise ValidationError(f"out_dir not writable: {out}: {exc}") from None
    return out


def _write_manifest(out: Path, subcommand: str, resolved: dict, inputs: dict, outputs):
    manifest = {
        "tool": _TOOL,
        "version": __version__,
        "subcommand": subcommand,
        "seed": resolved.get("seed"),
        "config": resolved,
        "inputs": {role: {"path": str(p), "sha256": _sha256(p)} for role, p in inputs.items()},
        "outputs": sorted(str(o) for o in outputs),
    }
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    (out / f"{subcommand}_manifest.json").write_text(text, encoding="utf-8")


def _write_prior_files(out: Path, labels) -> tuple[list[str], object]:
    cooc = cooccurrence(labels)
    names = labels.class_names
    for name, matrix in (("C.csv", cooc.counts), ("A.csv", conditional_prob(cooc).probs)):
        rows = ((cls, *row) for cls, row in zip(names, matrix.tolist()))
        write_table(out / name, ("class", *names), rows)
    return ["C.csv", "A.csv"], cooc


def _write_alpha(out: Path, weights, names) -> str:
    write_table(out / "alpha.csv", ("class", "alpha"), zip(names, weights.alphas.tolist()))
    return "alpha.csv"


def _load_cond_prob(path, labels) -> CondProbMatrix:
    """Read an A.csv whose header and row labels are the labels' class names, in order.

    Zero-count bookkeeping is not stored in the CSV; propagation only
    needs the matrix itself.
    """
    names = labels.class_names
    cells = partial(finite_cells, what="conditional probability")
    _, _, matrix = read_table(path, "class", cells, names, names)
    try:
        return CondProbMatrix(matrix, frozenset())
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _refine(values, labels, logits, inputs: dict) -> tuple[CondProbMatrix, np.ndarray]:
    """Refine ``logits`` with the --model head over the --cond-prob prior."""
    cond = _load_cond_prob(values.cond_prob, labels)
    refined, _ = gcn_forward(load_model(values.model), cond, logits.values)
    inputs.update(model=values.model, cond_prob=values.cond_prob)
    return cond, refined


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    resolved, o = _resolve(args)
    out = _out_dir(o.out_dir)
    if len(o.signal_strength) == 1:
        o.signal_strength *= o.n_classes
    spec = _fill(SyntheticSpec, o)
    labels, logits = synth_generate(spec)
    labels_path, logits_path = out / "labels.csv", out / "logits.csv"
    write_labels(labels, labels_path)
    write_logits(logits, labels, logits_path)
    _write_manifest(out, "synth", resolved, {}, [labels_path.name, logits_path.name])
    print(f"wrote {labels_path} and {logits_path} ({spec.n_samples} samples)")
    return 0


def cmd_prior(args) -> int:
    resolved, o = _resolve(args)
    _require(resolved, "labels")
    out = _out_dir(o.out_dir)
    labels = load_labels(o.labels)
    outputs, cooc = _write_prior_files(out, labels)
    outputs.append(_write_alpha(out, reweighting(cooc, o.reweight_mode), labels.class_names))
    _write_manifest(out, "prior", resolved, {"labels": o.labels}, outputs)
    print(f"wrote {', '.join(outputs)} to {out}")
    return 0


def cmd_train(args) -> int:
    resolved, o = _resolve(args)
    _require(resolved, "labels", "logits")
    if (o.val_labels is None) != (o.val_logits is None):
        raise ValidationError("--val-labels and --val-logits must be given together")
    out = _out_dir(o.out_dir)

    labels = load_labels(o.labels)
    logits = load_logits(o.logits, labels)
    validation = None
    inputs = {"labels": o.labels, "logits": o.logits}
    if o.val_labels is not None:
        val_labels = load_labels(o.val_labels)
        validation = (val_labels, load_logits(o.val_logits, val_labels))
        inputs.update(val_labels=o.val_labels, val_logits=o.val_logits)

    config = _fill(TrainConfig, o)
    model, weights, _, history = train(labels, logits, config, validation)

    save_model(model, out / "model.txt")
    outputs, _ = _write_prior_files(out, labels)
    outputs += [_write_alpha(out, weights, labels.class_names), "model.txt", "history.csv"]
    write_table(out / "history.csv", ("epoch", "loss", "lr", "val_mAP"), (
        (rec.epoch, rec.mean_loss, rec.lr, "" if rec.val_map is None else rec.val_map)
        for rec in history.records
    ))
    _write_manifest(out, "train", resolved, inputs, outputs)
    last = history.records[-1]
    msg = f"trained {config.epochs} epochs, final mean loss {last.mean_loss:.6g}"
    if last.val_map is not None:
        msg += f", val mAP {last.val_map:.4f}"
    print(msg)
    return 0


def _metrics_block(report, names) -> dict:
    per_class = [
        {"class": name, "ap": float(ap), "excluded": j in report.excluded_classes}
        for j, (name, ap) in enumerate(zip(names, report.per_class_ap))
    ]
    return {
        "per_class_ap": [float(v) for v in report.per_class_ap],
        "map": report.map,
        "cp": report.cp,
        "cr": report.cr,
        "cf1": report.cf1,
        "op": report.op,
        "or": report.or_,
        "of1": report.of1,
        "threshold": report.threshold,
        "top_k": report.top_k,
        "excluded_classes": list(report.excluded_classes),
        "per_class": per_class,
    }


def cmd_eval(args) -> int:
    resolved, o = _resolve(args)
    _require(resolved, "labels", "logits")
    if (o.model is None) != (o.cond_prob is None):
        raise ValidationError("--model and --cond-prob must be given together")
    if o.refined_out is not None and o.model is None:
        raise ValidationError("--refined-out needs --model (and --cond-prob)")
    out = _out_dir(o.out_dir)

    labels = load_labels(o.labels)
    logits = load_logits(o.logits, labels)
    inputs = {"labels": o.labels, "logits": o.logits}
    kwargs = {"threshold": None if o.topk is not None else o.threshold, "top_k": o.topk}

    report = {
        "tool": _TOOL,
        "version": __version__,
        "notes": {
            "cf1": "harmonic mean of the aggregate CP and CR (not a mean of per-class F1)",
            "of1": "harmonic mean of the aggregate OP and OR",
            "map": "threshold-free, on raw scores; classes without positives excluded",
        },
        "initial": _metrics_block(evaluate(logits.values, labels, **kwargs), labels.class_names),
    }
    outputs = ["report.json"]

    if o.model is not None:
        cond, refined = _refine(o, labels, logits, inputs)
        refined_report = evaluate(refined, labels, **kwargs)
        report["refined"] = _metrics_block(refined_report, labels.class_names)
        report["delta_map"] = report["refined"]["map"] - report["initial"]["map"]

        ap_before = report["initial"]["per_class_ap"]
        ap_after = report["refined"]["per_class_ap"]
        analysis = delta_ap_analysis(np.array(ap_before), np.array(ap_after), cond,
                                     k=o.condprob_k, exclude=refined_report.excluded_classes)
        header = ("class", f"top{o.condprob_k}_mean_cond_prob", "ap_before", "ap_after", "delta_ap")
        columns = zip(analysis.class_indices, analysis.top_k_mean.tolist(),
                      analysis.delta_ap.tolist())
        rows = ((labels.class_names[j], x, ap_before[j], ap_after[j], d) for j, x, d in columns)
        write_table(out / "per_class.csv", header, rows)
        outputs.append("per_class.csv")

        if o.refined_out is not None:
            refined_path = out / o.refined_out
            write_logits(LogitMatrix(refined), labels, refined_path)
            outputs.append(refined_path.name)

    (out / "report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    _write_manifest(out, "eval", resolved, inputs, outputs)
    summary = f"initial mAP {report['initial']['map']:.4f}"
    if "refined" in report:
        summary += f", refined mAP {report['refined']['map']:.4f}"
    print(summary)
    return 0


def cmd_analyze(args) -> int:
    resolved, o = _resolve(args)
    _require(resolved, "labels", "cond_prob")
    out = _out_dir(o.out_dir)

    labels = load_labels(o.labels)
    inputs = {"labels": o.labels, "cond_prob": o.cond_prob}
    if o.before is not None and o.after is not None:
        cond = _load_cond_prob(o.cond_prob, labels)
        before = load_logits(o.before, labels).values
        after = load_logits(o.after, labels).values
        inputs.update(before=o.before, after=o.after)
    elif o.model is not None and o.logits is not None:
        logits = load_logits(o.logits, labels)
        cond, after = _refine(o, labels, logits, inputs)
        before = logits.values
        inputs["logits"] = o.logits
    else:
        raise ValidationError("need either --before and --after, or --model and --logits")

    ap_before, excluded_b = per_class_average_precision(before, labels.values)
    ap_after, excluded_a = per_class_average_precision(after, labels.values)
    excluded = sorted(set(excluded_b) | set(excluded_a))
    result = delta_ap_analysis(
        ap_before, ap_after, cond, k=o.k, bin_size=o.bin_size, exclude=excluded
    )

    status = "defined" if result.spearman_defined else "degenerate"
    rows = [(b.bin_low, b.bin_high, b.mean_delta_ap, b.class_count) for b in result.bins]
    rows.append((f"# spearman={result.spearman!r} classes={len(result.class_indices)} {status}",))
    bins_path = out / "bins.csv"
    write_table(bins_path, ("bin_low", "bin_high", "mean_delta_ap", "class_count"), rows)
    _write_manifest(out, "analyze", resolved, inputs, [bins_path.name])
    print(f"wrote {bins_path} (spearman {result.spearman:.4f}, {status})")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=_TOOL,
        description="Refine multi-label classifier logits with class co-occurrence priors",
    )
    parser.add_argument("--version", action="version", version=f"{_TOOL} {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for subcommand, (help_text, _) in _SUBCOMMANDS.items():
        p = subs.add_parser(subcommand, help=help_text)
        for opt in _options(subcommand).values():
            if opt.type is bool:
                p.add_argument(_flag(opt.name), action=argparse.BooleanOptionalAction,
                               help=opt.help)
            else:
                # list-valued options keep their text until _resolve parses them
                p.add_argument(_flag(opt.name), help=opt.help, choices=opt.choices or None,
                               type=opt.type if opt.type in (int, float) else None)
        p.add_argument("--config", help="JSON config file or a previously written manifest")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # looked up at call time, so a wrapper set on this module takes effect
        return globals()[f"cmd_{args.subcommand}"](args)
    except (ValidationError, OSError) as exc:
        print(f"{_TOOL}: error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"{_TOOL}: numeric failure: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"{_TOOL}: unexpected failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
