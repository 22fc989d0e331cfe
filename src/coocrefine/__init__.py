"""Co-occurrence priors and a trainable graph-convolutional head for
refining per-class logits from any upstream multi-label classifier."""

from .data import (
    LabelMatrix,
    LogitMatrix,
    SyntheticSpec,
    batches,
    load_labels,
    load_logits,
    split,
    synth_generate,
    write_labels,
    write_logits,
)
from .errors import NumericError, ValidationError
from .gcn import (
    GcnGradients,
    GcnModel,
    gcn_backward,
    gcn_forward,
    init_model,
    load_model,
    save_model,
)
from .loss import RaslParams, rasl_grad, rasl_loss, sigmoid
from .metrics import (
    DeltaApBin,
    DeltaApResult,
    MetricsReport,
    average_precision,
    delta_ap_analysis,
    evaluate,
    per_class_average_precision,
)
from .prior import (
    CondProbMatrix,
    CoocMatrix,
    ReweightVector,
    conditional_prob,
    cooccurrence,
    reweighting,
)
from .train import TrainConfig, cosine_lr, sgd_step, train

__version__ = "0.1.0"

__all__ = [
    "LabelMatrix",
    "LogitMatrix",
    "SyntheticSpec",
    "batches",
    "load_labels",
    "load_logits",
    "split",
    "synth_generate",
    "write_labels",
    "write_logits",
    "NumericError",
    "ValidationError",
    "GcnGradients",
    "GcnModel",
    "gcn_backward",
    "gcn_forward",
    "init_model",
    "load_model",
    "save_model",
    "RaslParams",
    "rasl_grad",
    "rasl_loss",
    "sigmoid",
    "DeltaApBin",
    "DeltaApResult",
    "MetricsReport",
    "average_precision",
    "delta_ap_analysis",
    "evaluate",
    "per_class_average_precision",
    "CondProbMatrix",
    "CoocMatrix",
    "ReweightVector",
    "conditional_prob",
    "cooccurrence",
    "reweighting",
    "TrainConfig",
    "cosine_lr",
    "sgd_step",
    "train",
    "__version__",
]
