"""Command-line interface.

Subcommands compose the library into reproducible experiments:

* ``synth``   generate a correlated synthetic dataset (labels + logits)
* ``prior``   co-occurrence counts, conditional probabilities, reweighting
* ``train``   fit the refinement head
* ``eval``    metrics report for raw and/or refined logits
* ``analyze`` AP improvement vs. co-occurrence strength, binned

Every subcommand runs one sequence (``_run``): resolve its options and
check the required ones; check its other option rules, read its inputs and
check them against each other and the options, writing nothing; create
``--out-dir``; hash every input, i.e. every option whose type is
``_input``, before any output is written; write the outputs; write
``<subcommand>_manifest.json``, recording the tool version, the fully
resolved configuration, SHA-256 digests of all inputs, and the produced file
names; print one summary line. So a run that exits 1 on a bad option or
input creates no ``--out-dir``. Re-running a subcommand with ``--config
<manifest>`` reproduces its outputs byte for byte; an input path it takes
from the manifest must still hash to the recorded digest.

Flag precedence: explicit flag > --config file value > built-in default.
A config file is a flat JSON object keyed by flag names (dashes as
underscores); a manifest file is accepted anywhere a config file is.
Values from flags and from config files are checked and converted alike.

Exit codes: 0 success, 1 validation/input error (a bad option value
included), 2 runtime or numeric failure or a command line argparse cannot
parse.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from dataclasses import fields
from functools import partial, wraps
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
    read_lines,
    read_table,
    synth_generate,
    write_labels,
    write_logits,
    write_table,
)
from .errors import NumericError, ValidationError
from .gcn import gcn_forward, load_model, save_model
from .metrics import delta_ap_analysis, evaluate, per_class_average_precision
from .prior import (
    CondProbMatrix,
    _check_k,
    conditional_prob,
    cooccurrence,
    reweighting,
)
from .train import TrainConfig, _check_data, train

_TOOL = "coocrefine"


# ---------------------------------------------------------------------------
# options: one table per subcommand
# ---------------------------------------------------------------------------

class Opt(NamedTuple):
    """One setting: flag ``--<name with dashes>``, config and manifest key ``<name>``.

    ``type`` turns the value given on the command line or in a config file
    into the one the command uses; a value of None stays None. An option of
    type ``_input`` names an input file.
    """

    name: str
    default: object
    type: object
    help: str
    choices: tuple = ()


def _wrong_kind(value, kind) -> bool:
    """A boolean for a non-bool setting, a non-boolean for a bool one, or a
    fraction for an int one."""
    return isinstance(value, bool) != (kind is bool) or (
        kind is int and isinstance(value, float) and not value.is_integer()
    )


def _parse_list(value, kind) -> tuple:
    """Comma-separated text, or an already-parsed JSON list, as a tuple of ``kind``."""
    if isinstance(value, (list, tuple)):
        if any(_wrong_kind(v, kind) for v in value):
            raise ValueError(f"list elements must be of type {kind.__name__}")
        return tuple(kind(v) for v in value)
    return tuple(kind(v) for v in str(value).split(","))


_ints = partial(_parse_list, kind=int)
_floats = partial(_parse_list, kind=float)


def _input(value) -> str:
    """The path of an input file, hashed and recorded in the manifest."""
    return str(value)


def _clusters(value) -> tuple[tuple[int, ...], ...]:
    """Cluster sets as 'i,j,k;m,n' or an already-parsed nested list."""
    if isinstance(value, (list, tuple)):
        return tuple(_ints(group) for group in value)
    return tuple(_ints(group) for group in str(value).split(";") if group)


def _train_option(f) -> Opt:
    """A training hyperparameter's option, as TrainConfig declares it."""
    if isinstance(f.default, tuple):
        return Opt(f.name, ",".join(map(str, f.default)), _ints, f.metadata["help"])
    return Opt(f.name, f.default, type(f.default), f.metadata["help"], f.metadata["choices"])


_TRAIN = {f.name: _train_option(f) for f in fields(TrainConfig)}
_COMMON = (_TRAIN["seed"], Opt("out_dir", ".", str, "output directory"))
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
        Opt("labels", None, _input, "label CSV path"),
        _TRAIN["reweight_mode"],
    )),
    "train": ("fit the refinement head", (
        Opt("labels", None, _input, "training label CSV"),
        Opt("logits", None, _input, "training logits CSV"),
        Opt("val_labels", None, _input, "validation label CSV"),
        Opt("val_logits", None, _input, "validation logits CSV"),
        *_TRAIN.values(),
    )),
    "eval": ("evaluate raw and optionally refined logits", (
        Opt("labels", None, _input, "label CSV path"),
        Opt("logits", None, _input, "logits CSV path"),
        Opt("model", None, _input, "model file; requires --cond-prob"),
        Opt("cond_prob", None, _input, _A_CSV),
        Opt("threshold", 0.5, float, "sigmoid probability threshold for P/R/F1"),
        Opt("topk", None, int, "predict the k best classes per sample instead of thresholding"),
        Opt("condprob_k", 3, int, "k for the per-class co-occurrence strength column"),
        Opt("refined_out", None, str, "also write refined logits CSV under this name (--model)"),
    )),
    "analyze": ("AP improvement vs. co-occurrence strength", (
        Opt("labels", None, _input, "label CSV path"),
        Opt("cond_prob", None, _input, _A_CSV),
        Opt("before", None, _input, "scores CSV before refinement"),
        Opt("after", None, _input, "scores CSV after refinement"),
        Opt("model", None, _input, "alternative to --before/--after: refine --logits with this model"),
        Opt("logits", None, _input, "logits CSV for --model mode"),
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

def _load_config_file(path) -> tuple[dict, dict]:
    """The config's values, and the inputs a manifest records (none for a plain config)."""
    try:
        raw = json.loads("".join(read_lines(path)))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ValidationError(f"{path}: config must be a JSON object")
    inputs = {}
    if "subcommand" in raw and "config" in raw:
        # a manifest doubles as a config file
        raw, inputs = raw["config"], raw.get("inputs", {})
        if not isinstance(raw, dict):
            raise ValidationError(f"{path}: manifest config must be a JSON object")
        if not (isinstance(inputs, dict) and all(isinstance(e, dict) for e in inputs.values())):
            raise ValidationError(f"{path}: manifest inputs must map each input to its path and sha256")
        raw.pop("threads", None)       # older manifests record a since-removed no-op flag
    return raw, inputs


def _convert(name: str, opt: Opt, value):
    """Option ``name``'s value from a flag or a config file, checked and converted."""
    if opt.choices and value not in opt.choices:
        raise ValidationError(f"invalid {_flag(name)} '{value}' (one of {opt.choices})")
    if _wrong_kind(value, opt.type) or (value is None and opt.default is not None):
        raise ValidationError(f"invalid {_flag(name)} '{value}'")
    try:
        return None if value is None else opt.type(value)
    except (TypeError, ValueError):
        raise ValidationError(f"invalid {_flag(name)} '{value}'") from None


def _resolve(args: argparse.Namespace) -> tuple[dict, SimpleNamespace, dict]:
    """Merge flag > config file > default, per documented precedence.

    Every flag's text and config file's value passes the same checks and
    conversion, overridden or not. Returns the values the manifest records
    (a number given as a flag as that number, anything else as given), the
    same values converted by their options' types, and the input records of
    a manifest for each input path taken from it.
    """
    options = _options(args.subcommand)
    file_cfg, file_inputs = _load_config_file(args.config) if args.config else ({}, {})
    unknown = set(file_cfg) - set(options)
    if unknown:
        raise ValidationError(f"unknown config keys: {', '.join(sorted(unknown))}")
    flags = {name: getattr(args, name) for name in options if getattr(args, name) is not None}
    resolved, typed = {}, {}
    for name, opt in options.items():
        if name in file_cfg and name in flags:
            _convert(name, opt, file_cfg[name])         # checked, though the flag wins
        source = flags if name in flags else file_cfg if name in file_cfg else {name: opt.default}
        typed[name] = _convert(name, opt, source[name])
        numeric = source is flags and opt.type in (int, float)
        resolved[name] = typed[name] if numeric else source[name]
    recorded = {n: e for n, e in file_inputs.items() if n in file_cfg and n not in flags}
    return resolved, SimpleNamespace(**typed), recorded


def _fill(cls, values: SimpleNamespace):
    """Build dataclass ``cls`` from the resolved options of the same names."""
    return cls(**{f.name: getattr(values, f.name) for f in fields(cls)})


def _together(o: SimpleNamespace, *keys: str) -> None:
    if len({getattr(o, key) is None for key in keys}) > 1:
        raise ValidationError(f"{' and '.join(map(_flag, keys))} must be given together")


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _out_dir(path) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    try:
        tempfile.TemporaryFile(dir=out).close()    # unnamed: no file of out is touched
    except OSError as exc:
        raise ValidationError(f"out_dir not writable: {out}: {exc}") from None
    return out


def _hash_inputs(out: Path, subcommand: str, o: SimpleNamespace, outputs, recorded: dict):
    """Path and SHA-256 of every given ``_input`` option, before any output is written.

    An output under ``out``, the manifest included, that is an input file
    exits 1 before anything is written, and so does an input taken from a
    manifest whose SHA-256 differs from the one it ``recorded``.
    """
    inputs = {name: getattr(o, name) for name, opt in _options(subcommand).items()
              if opt.type is _input and getattr(o, name) is not None}
    for name in (*outputs, f"{subcommand}_manifest.json"):
        flag = "refined_out" if name == getattr(o, "refined_out", None) else "out_dir"
        for role, path in inputs.items():
            if (out / name).exists() and os.path.samefile(out / name, path):
                raise ValidationError(f"{_flag(flag)} would overwrite the {_flag(role)} input {path}")
    hashed = {role: {"path": str(p), "sha256": _sha256(p)} for role, p in inputs.items()}
    for role, entry in recorded.items():
        if role in hashed and entry.get("sha256") != hashed[role]["sha256"]:
            raise ValidationError(f"{_flag(role)} input {inputs[role]} differs from the one "
                                  "its manifest records (SHA-256 mismatch)")
    return hashed


def _write_prior(out: Path, names, cond, weights) -> None:
    """C.csv, A.csv and alpha.csv, one row per class in label-file order."""
    for name, matrix in (("C.csv", cond.cooc.counts), ("A.csv", cond.probs)):
        rows = ((cls, *row) for cls, row in zip(names, matrix.tolist()))
        write_table(out / name, ("class", *names), rows)
    write_table(out / "alpha.csv", ("class", "alpha"), zip(names, weights.alphas.tolist()))


def _load_cond_prob(path, labels) -> CondProbMatrix:
    """Read an A.csv whose header and row labels are the labels' class names, in order."""
    names = labels.class_names
    cells = partial(finite_cells, what="conditional probability")
    _, _, matrix = read_table(path, "class", cells, names, names)
    try:
        return CondProbMatrix(matrix)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _refine(values, labels, logits) -> tuple[CondProbMatrix, np.ndarray]:
    """Refine ``logits`` with the --model head over the --cond-prob prior."""
    cond = _load_cond_prob(values.cond_prob, labels)
    refined, _ = gcn_forward(load_model(values.model), cond, logits.values)
    return cond, refined


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _run(args, body, required) -> int:
    """Run ``body`` (see ``_subcommand``) in the sequence the module docstring states."""
    resolved, o, recorded = _resolve(args)
    for key in required:
        if getattr(o, key) is None:
            raise ValidationError(f"missing required {_flag(key)}")
    steps = body(o)
    outputs = next(steps)
    out = _out_dir(o.out_dir)
    inputs = _hash_inputs(out, args.subcommand, o, outputs, recorded)
    summary = steps.send(out)
    manifest = {
        "tool": _TOOL,
        "version": __version__,
        "subcommand": args.subcommand,
        "seed": resolved.get("seed"),
        "config": resolved,
        "inputs": inputs,
        "outputs": sorted(outputs),
    }
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    (out / f"{args.subcommand}_manifest.json").write_text(text, encoding="utf-8")
    print(summary)
    return 0


def _subcommand(*required: str):
    """A subcommand that ``_run`` runs from generator ``body``; ``required`` must be given.

    The body gets the resolved options. It checks them and reads its inputs,
    writing nothing, and yields its output names. It is then sent the output
    directory, writes its outputs there and yields its summary line.
    """
    def command(body):
        # a function, not a partial: perfbench's tracer wraps every cmd_* function
        @wraps(body)
        def cmd(args) -> int:
            return _run(args, body, required)
        return cmd
    return command


@_subcommand()
def cmd_synth(o):
    spec = _fill(SyntheticSpec, o)
    labels, logits = synth_generate(spec)
    out = yield ["labels.csv", "logits.csv"]
    labels_path, logits_path = out / "labels.csv", out / "logits.csv"
    write_labels(labels, labels_path)
    write_logits(logits, labels, logits_path)
    yield f"wrote {labels_path} and {logits_path} ({spec.n_samples} samples)"


@_subcommand("labels")
def cmd_prior(o):
    labels = load_labels(o.labels)
    outputs = ["C.csv", "A.csv", "alpha.csv"]
    out = yield outputs
    cond = conditional_prob(cooccurrence(labels))
    _write_prior(out, labels.class_names, cond, reweighting(cond.cooc, o.reweight_mode))
    yield f"wrote {', '.join(outputs)} to {out}"


@_subcommand("labels", "logits")
def cmd_train(o):
    _together(o, "val_labels", "val_logits")
    config = _fill(TrainConfig, o)
    labels = load_labels(o.labels)
    logits = load_logits(o.logits, labels)
    validation = None
    if o.val_labels is not None:
        val_labels = load_labels(o.val_labels)
        validation = (val_labels, load_logits(o.val_logits, val_labels))
    _check_data(labels, logits, validation)
    out = yield ["C.csv", "A.csv", "alpha.csv", "model.txt", "history.csv"]

    model, weights, cond, history = train(labels, logits, config, validation)

    save_model(model, out / "model.txt")
    _write_prior(out, labels.class_names, cond, weights)
    write_table(out / "history.csv", ("epoch", "loss", "lr", "val_mAP"), (
        (rec.epoch, rec.mean_loss, rec.lr, "" if rec.val_map is None else rec.val_map)
        for rec in history
    ))
    last = history[-1]
    msg = f"trained {config.epochs} epochs, final mean loss {last.mean_loss:.6g}"
    if last.val_map is not None:
        msg += f", val mAP {last.val_map:.4f}"
    yield msg


def _metrics_block(report, names) -> dict:
    """A MetricsReport as report.json records it; field ``or_`` is key ``or``."""
    block = {f.name.rstrip("_"): getattr(report, f.name) for f in fields(report)}
    block["per_class_ap"] = report.per_class_ap.tolist()
    block["per_class"] = [
        {"class": name, "ap": ap, "excluded": j in report.excluded_classes}
        for j, (name, ap) in enumerate(zip(names, block["per_class_ap"]))
    ]
    return block


@_subcommand("labels", "logits")
def cmd_eval(o):
    _together(o, "model", "cond_prob")
    if o.refined_out is not None and o.model is None:
        raise ValidationError("--refined-out needs --model (and --cond-prob)")
    own = ("report.json", "per_class.csv", "eval_manifest.json")
    if o.refined_out is not None and (
        Path(o.refined_out).name != o.refined_out or o.refined_out in ("", "..", *own)
    ):
        raise ValidationError(f"--refined-out must be a bare file name other than "
                              f"{', '.join(own)}, not '{o.refined_out}'")

    labels = load_labels(o.labels)
    logits = load_logits(o.logits, labels)
    kwargs = {"threshold": o.threshold, "top_k": o.topk}

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
        cond, refined = _refine(o, labels, logits)
        _check_k(o.condprob_k, labels.n_classes, "--condprob-k")
        outputs.append("per_class.csv")
        refined_report = evaluate(refined, labels, **kwargs)
        report["refined"] = _metrics_block(refined_report, labels.class_names)
        report["delta_map"] = report["refined"]["map"] - report["initial"]["map"]

        ap_before = report["initial"]["per_class_ap"]
        ap_after = report["refined"]["per_class_ap"]
        analysis = delta_ap_analysis(np.array(ap_before), np.array(ap_after), cond,
                                     k=o.condprob_k, exclude=refined_report.excluded_classes)
    if o.refined_out is not None:
        outputs.append(o.refined_out)
    out = yield outputs

    if o.model is not None:
        header = ("class", f"top{o.condprob_k}_mean_cond_prob", "ap_before", "ap_after", "delta_ap")
        columns = zip(analysis.class_indices, analysis.top_k_mean.tolist(),
                      analysis.delta_ap.tolist())
        rows = ((labels.class_names[j], x, ap_before[j], ap_after[j], d) for j, x, d in columns)
        write_table(out / "per_class.csv", header, rows)

        if o.refined_out is not None:
            write_logits(LogitMatrix(refined), labels, out / o.refined_out)

    (out / "report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    summary = f"initial mAP {report['initial']['map']:.4f}"
    if "refined" in report:
        summary += f", refined mAP {report['refined']['map']:.4f}"
    yield summary


@_subcommand("labels", "cond_prob")
def cmd_analyze(o):
    given = tuple(k for k in ("before", "after", "model", "logits") if getattr(o, k) is not None)
    if given not in (("before", "after"), ("model", "logits")):
        raise ValidationError("need either --before and --after, or --model and --logits "
                              f"(given: {' '.join(map(_flag, given)) or 'none'})")

    labels = load_labels(o.labels)
    if given == ("before", "after"):
        cond = _load_cond_prob(o.cond_prob, labels)
        before = load_logits(o.before, labels).values
        after = load_logits(o.after, labels).values
    else:
        logits = load_logits(o.logits, labels)
        cond, after = _refine(o, labels, logits)
        before = logits.values
    _check_k(o.k, labels.n_classes, "--k")

    # both sides score the same labels, so they exclude the same classes
    ap_before, excluded = per_class_average_precision(before, labels.values)
    ap_after, _ = per_class_average_precision(after, labels.values)
    result = delta_ap_analysis(
        ap_before, ap_after, cond, k=o.k, bin_size=o.bin_size, exclude=excluded
    )
    out = yield ["bins.csv"]

    status = "defined" if result.spearman_defined else "degenerate"
    rows = [(b.bin_low, b.bin_high, b.mean_delta_ap, b.class_count) for b in result.bins]
    rows.append((f"# spearman={result.spearman!r} classes={len(result.class_indices)} {status}",))
    bins_path = out / "bins.csv"
    write_table(bins_path, ("bin_low", "bin_high", "mean_delta_ap", "class_count"), rows)
    yield f"wrote {bins_path} (spearman {result.spearman:.4f}, {status})"


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
                # the text is kept as given; _resolve checks and converts it
                p.add_argument(_flag(opt.name), help=opt.help,
                               metavar="{" + ",".join(opt.choices) + "}" if opt.choices else None)
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
