"""The benchmark's tracer sees every layer of a pipeline.

``perfbench/tracing.py`` wraps the public functions that ``coocrefine.cli``
and ``coocrefine.train`` call by name, and a traced benchmark result must
carry every per-layer metric. A function that leaves that call path (fused,
renamed, or called through a private alias) drops its metrics, which this
test catches on a pipeline small enough for every run of the suite.
"""

import math
import sys
from pathlib import Path

import pytest

from coocrefine.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
ROWS, BATCH, EPOCHS = 64, 16, 2


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)    # leave perfbench/ as it is
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    import tracing

    return tracing


def test_traced_pipeline_reports_every_layer_metric(tracing, tmp_path, capsys):
    data, run = tmp_path / "data", tmp_path / "run"
    labels, logits = str(data / "labels.csv"), str(data / "logits.csv")
    model, cond = str(run / "model.txt"), str(run / "A.csv")
    assert main(["synth", "--n-classes", "6", "--n-samples", str(ROWS), "--clusters", "0,1,2",
                 "--seed", "3", "--out-dir", str(data)]) == 0
    stages = [
        ["prior", "--labels", labels],
        ["train", "--labels", labels, "--logits", logits, "--val-labels", labels,
         "--val-logits", logits, "--epochs", str(EPOCHS), "--batch-size", str(BATCH),
         "--gcn-dims", "1,8,8,1"],
        ["eval", "--labels", labels, "--logits", logits, "--model", model,
         "--cond-prob", cond, "--refined-out", "refined.csv"],
        ["analyze", "--labels", labels, "--cond-prob", cond, "--model", model,
         "--logits", logits],
    ]
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        for stage in stages:
            assert main([*stage, "--seed", "3", "--out-dir", str(run)]) == 0, capsys.readouterr().err

    metrics = tracing.layer_metrics(tracer.spans)
    assert set(metrics) == set(tracing.UNITS) - {"trace.overhead_s"}
    assert metrics["train.steps"] == math.ceil(ROWS / BATCH) * EPOCHS
