import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import coocrefine
from coocrefine import init_model, save_model
from coocrefine.cli import main

LABELS_CSV = "sample_id,c0,c1,c2\na,1,1,0\nb,1,0,1\nc,0,0,1\n"
LOGITS_CSV = "sample_id,c0,c1,c2\na,2.0,1.5,-1.0\nb,1.0,-2.0,2.0\nc,-1.5,-1.0,0.5\n"


@pytest.fixture
def fixtures(tmp_path):
    labels = tmp_path / "labels.csv"
    labels.write_text(LABELS_CSV)
    logits = tmp_path / "logits.csv"
    logits.write_text(LOGITS_CSV)
    return tmp_path, labels, logits


def read_matrix_csv(path):
    lines = path.read_text().splitlines()
    names = lines[0].split(",")[1:]
    rows = [[float(c) for c in line.split(",")[1:]] for line in lines[1:]]
    return names, np.array(rows)


class TestPrior:
    def test_matches_hand_derived_matrices(self, fixtures):
        tmp_path, labels, _ = fixtures
        out = tmp_path / "out"
        assert main(["prior", "--labels", str(labels), "--out-dir", str(out)]) == 0
        _, counts = read_matrix_csv(out / "C.csv")
        assert counts.tolist() == [[2, 1, 1], [1, 1, 0], [1, 0, 2]]
        _, probs = read_matrix_csv(out / "A.csv")
        assert probs.tolist() == [[1.0, 0.5, 0.5], [1.0, 1.0, 0.0], [0.5, 0.0, 1.0]]
        alpha_lines = (out / "alpha.csv").read_text().splitlines()
        assert alpha_lines[0] == "class,alpha"
        assert [float(l.split(",")[1]) for l in alpha_lines[1:]] == [2.5, 5.0, 2.5]

    def test_manifest_written_with_digest(self, fixtures):
        tmp_path, labels, _ = fixtures
        out = tmp_path / "out"
        main(["prior", "--labels", str(labels), "--out-dir", str(out)])
        manifest = json.loads((out / "prior_manifest.json").read_text())
        assert manifest["subcommand"] == "prior"
        assert set(manifest["outputs"]) == {"A.csv", "C.csv", "alpha.csv"}
        assert len(manifest["inputs"]["labels"]["sha256"]) == 64

    def test_missing_file_exit_code_and_message(self, tmp_path, capsys):
        rc = main(["prior", "--labels", str(tmp_path / "absent.csv"), "--out-dir", str(tmp_path)])
        assert rc == 1
        assert "absent.csv" in capsys.readouterr().err

    def test_bad_cell_is_validation_failure(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("sample_id,c0,c1\na,1,0\nb,2,1\n")
        rc = main(["prior", "--labels", str(bad), "--out-dir", str(tmp_path)])
        assert rc == 1
        assert "line 3" in capsys.readouterr().err

    def test_unwritable_out_dir(self, fixtures, capsys):
        tmp_path, labels, _ = fixtures
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        rc = main(["prior", "--labels", str(labels), "--out-dir", str(blocker / "sub")])
        assert rc == 1


class TestSynth:
    def test_deterministic_outputs(self, tmp_path):
        args = [
            "synth", "--n-classes", "4", "--n-samples", "50",
            "--clusters", "0,1", "--within-cluster-prob", "1.0",
            "--base-prob", "0.4", "--seed", "9",
        ]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out-dir", str(out_a)]) == 0
        assert main(args + ["--out-dir", str(out_b)]) == 0
        assert (out_a / "labels.csv").read_bytes() == (out_b / "labels.csv").read_bytes()
        assert (out_a / "logits.csv").read_bytes() == (out_b / "logits.csv").read_bytes()

    def test_forced_cluster_shows_in_prior(self, tmp_path):
        out = tmp_path / "run"
        main([
            "synth", "--n-classes", "4", "--n-samples", "300",
            "--clusters", "0,1", "--within-cluster-prob", "1.0",
            "--base-prob", "0.5", "--seed", "3", "--out-dir", str(out),
        ])
        assert main(["prior", "--labels", str(out / "labels.csv"), "--out-dir", str(out)]) == 0
        _, probs = read_matrix_csv(out / "A.csv")
        assert probs[0, 1] == 1.0 and probs[1, 0] == 1.0

    def test_row_count(self, tmp_path):
        out = tmp_path / "run"
        main(["synth", "--n-samples", "25", "--n-classes", "3", "--out-dir", str(out)])
        assert len((out / "labels.csv").read_text().splitlines()) == 26


def pipeline(tmp_path, seed="4", epochs="6"):
    """synth -> train -> eval -> analyze on a small dataset."""
    data = tmp_path / "data"
    run = tmp_path / "run"
    assert main([
        "synth", "--n-classes", "6", "--n-samples", "240",
        "--clusters", "0,1,2", "--within-cluster-prob", "0.9",
        "--base-prob", "0.3", "--signal-strength", "0.3,2.0,2.0,2.0,2.0,2.0",
        "--seed", seed, "--out-dir", str(data),
    ]) == 0
    assert main([
        "train", "--labels", str(data / "labels.csv"), "--logits", str(data / "logits.csv"),
        "--epochs", epochs, "--batch-size", "16", "--gcn-dims", "1,8,8,1",
        "--seed", seed, "--out-dir", str(run),
    ]) == 0
    assert main([
        "eval", "--labels", str(data / "labels.csv"), "--logits", str(data / "logits.csv"),
        "--model", str(run / "model.txt"), "--cond-prob", str(run / "A.csv"),
        "--refined-out", "refined.csv", "--seed", seed, "--out-dir", str(run),
    ]) == 0
    assert main([
        "analyze", "--labels", str(data / "labels.csv"), "--cond-prob", str(run / "A.csv"),
        "--model", str(run / "model.txt"), "--logits", str(data / "logits.csv"),
        "--seed", seed, "--out-dir", str(run),
    ]) == 0
    return data, run


class TestTrainEvalAnalyze:
    def test_end_to_end_artifacts(self, tmp_path):
        data, run = pipeline(tmp_path)
        for name in ("model.txt", "C.csv", "A.csv", "alpha.csv", "history.csv",
                     "report.json", "per_class.csv", "refined.csv", "bins.csv"):
            assert (run / name).exists(), name

        history = (run / "history.csv").read_text().splitlines()
        assert history[0] == "epoch,loss,lr,val_mAP"
        assert len(history) == 1 + 6

        report = json.loads((run / "report.json").read_text())
        assert set(report) >= {"initial", "refined", "delta_map", "notes"}
        for block in (report["initial"], report["refined"]):
            assert set(block) >= {"map", "cp", "cr", "cf1", "op", "or", "of1", "per_class"}
            assert len(block["per_class"]) == 6

        bins = (run / "bins.csv").read_text().splitlines()
        assert bins[0] == "bin_low,bin_high,mean_delta_ap,class_count"
        assert bins[-1].startswith("# spearman=")
        for line in bins[1:-1]:
            low, high, mean_delta, count = line.split(",")
            assert float(high) - float(low) == pytest.approx(0.02)
            float(mean_delta)
            assert int(count) >= 1

        # plain decimal cells everywhere, no stray scalar reprs
        for name in ("bins.csv", "per_class.csv", "history.csv", "alpha.csv", "A.csv"):
            assert "np.float" not in (run / name).read_text()

    def test_train_with_validation_records_val_map(self, tmp_path):
        data = tmp_path / "data"
        main([
            "synth", "--n-classes", "4", "--n-samples", "120", "--clusters", "0,1",
            "--base-prob", "0.4", "--seed", "2", "--out-dir", str(data),
        ])
        run = tmp_path / "run"
        assert main([
            "train", "--labels", str(data / "labels.csv"), "--logits", str(data / "logits.csv"),
            "--val-labels", str(data / "labels.csv"), "--val-logits", str(data / "logits.csv"),
            "--epochs", "3", "--batch-size", "16", "--gcn-dims", "1,4,1",
            "--momentum", "0.9", "--seed", "2", "--out-dir", str(run),
        ]) == 0
        rows = (run / "history.csv").read_text().splitlines()[1:]
        assert len(rows) == 3
        for row in rows:
            val = row.split(",")[3]
            assert val and 0.0 <= float(val) <= 1.0

    def test_validation_class_names_must_match_training(self, tmp_path, capsys):
        data = tmp_path / "data"
        main([
            "synth", "--n-classes", "4", "--n-samples", "40", "--seed", "2",
            "--out-dir", str(data),
        ])
        # the same rows with the class columns in reverse order
        for name in ("labels.csv", "logits.csv"):
            lines = [line.split(",") for line in (data / name).read_text().splitlines()]
            reversed_csv = "\n".join(",".join(c[:1] + c[:0:-1]) for c in lines) + "\n"
            (data / f"val_{name}").write_text(reversed_csv)
        rc = main([
            "train", "--labels", str(data / "labels.csv"), "--logits", str(data / "logits.csv"),
            "--val-labels", str(data / "val_labels.csv"), "--val-logits", str(data / "val_logits.csv"),
            "--epochs", "1", "--gcn-dims", "1,4,1", "--out-dir", str(tmp_path / "run"),
        ])
        assert rc == 1
        assert "validation class names differ" in capsys.readouterr().err

    def test_eval_without_model_reports_initial_only(self, fixtures):
        tmp_path, labels, logits = fixtures
        out = tmp_path / "eval"
        assert main([
            "eval", "--labels", str(labels), "--logits", str(logits),
            "--out-dir", str(out),
        ]) == 0
        report = json.loads((out / "report.json").read_text())
        assert "refined" not in report
        assert 0.0 <= report["initial"]["map"] <= 1.0

    def test_analyze_from_score_files(self, tmp_path):
        data, run = pipeline(tmp_path)
        out = tmp_path / "scores_mode"
        assert main([
            "analyze", "--labels", str(data / "labels.csv"),
            "--cond-prob", str(run / "A.csv"),
            "--before", str(data / "logits.csv"), "--after", str(run / "refined.csv"),
            "--out-dir", str(out),
        ]) == 0
        assert (out / "bins.csv").read_bytes() == (run / "bins.csv").read_bytes()

    def test_refined_out_needs_model(self, fixtures, capsys):
        tmp_path, labels, logits = fixtures
        rc = main([
            "eval", "--labels", str(labels), "--logits", str(logits),
            "--refined-out", "refined.csv", "--out-dir", str(tmp_path / "eval"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "--refined-out" in err and "--model" in err

    def test_topk_eval(self, fixtures):
        tmp_path, labels, logits = fixtures
        out = tmp_path / "topk"
        assert main([
            "eval", "--labels", str(labels), "--logits", str(logits),
            "--topk", "2", "--out-dir", str(out),
        ]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["initial"]["top_k"] == 2
        assert report["initial"]["threshold"] is None


A_CSV = "class,c0,c1,c2\nc0,1.0,0.5,0.5\nc1,1.0,1.0,0.0\nc2,0.5,0.0,1.0\n"
A_CSV_NAN = A_CSV.replace("0.5,0.5", "nan,0.5")
# the fixture labels' A.csv with classes reversed, header and rows consistently
A_CSV_REVERSED = "class,c2,c1,c0\nc2,1.0,0.0,0.5\nc1,0.0,1.0,1.0\nc0,0.5,0.5,1.0\n"


class TestCondProbFile:
    @pytest.mark.parametrize("content, fragment", [
        pytest.param(A_CSV_NAN, "line 2: non-finite", id="nan"),
        pytest.param(A_CSV_REVERSED, "class header mismatch", id="reversed"),
        pytest.param(A_CSV.replace("1.0,1.0,0.0", "1.0,1.0"), "line 3", id="ragged"),
        pytest.param(A_CSV + "c3,0.0,0.0,1.0\n", "line 5", id="extra-row"),
    ])
    @pytest.mark.parametrize("mode", ["eval", "analyze-scores", "analyze-model"])
    def test_rejected_with_exit_1(self, fixtures, capsys, content, fragment, mode):
        tmp_path, labels, logits = fixtures
        cond = tmp_path / "A.csv"
        cond.write_text(content)
        model = tmp_path / "model.txt"
        save_model(init_model((1, 4, 1), 0.01, 0, False), model)
        common = ["--labels", str(labels), "--cond-prob", str(cond), "--out-dir", str(tmp_path)]
        if mode == "eval":
            argv = ["eval", "--logits", str(logits), "--model", str(model)]
        elif mode == "analyze-scores":
            argv = ["analyze", "--before", str(logits), "--after", str(logits)]
        else:
            argv = ["analyze", "--logits", str(logits), "--model", str(model)]
        assert main(argv + common) == 1
        err = capsys.readouterr().err
        assert str(cond) in err and fragment in err


@pytest.mark.parametrize("kind", ["labels", "logits", "cond_prob", "model", "config"])
def test_undecodable_input_exits_1_naming_it(fixtures, capsys, kind):
    tmp_path, labels, logits = fixtures
    files = {"labels": labels, "logits": logits, "cond_prob": tmp_path / "A.csv",
             "model": tmp_path / "model.txt", "config": tmp_path / "config.json"}
    files["cond_prob"].write_text(A_CSV)
    save_model(init_model((1, 4, 1), 0.01, 0, False), files["model"])
    files["config"].write_text("{}")
    files[kind].write_bytes(b"\xff" + files[kind].read_bytes())
    argv = ["eval", "--out-dir", str(tmp_path / "eval")]
    for name, path in files.items():
        argv += [f"--{name.replace('_', '-')}", str(path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert str(files[kind]) in err and "not UTF-8" in err


class TestConfigPrecedence:
    def test_flag_beats_config_beats_default(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n_samples": 30, "n_classes": 5}))
        out = tmp_path / "out"
        assert main([
            "synth", "--config", str(config), "--n-samples", "12",
            "--out-dir", str(out),
        ]) == 0
        lines = (out / "labels.csv").read_text().splitlines()
        assert len(lines) == 13                      # flag wins over config
        assert len(lines[0].split(",")) == 6         # config wins over default

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"sample_count": 30}))
        rc = main(["synth", "--config", str(config), "--out-dir", str(tmp_path)])
        assert rc == 1
        assert "sample_count" in capsys.readouterr().err

    def test_rerun_from_manifest_reproduces_outputs(self, tmp_path):
        out = tmp_path / "out"
        assert main([
            "synth", "--n-classes", "4", "--n-samples", "40", "--seed", "11",
            "--out-dir", str(out),
        ]) == 0
        first = (out / "labels.csv").read_bytes()
        manifest = out / "synth_manifest.json"
        assert main(["synth", "--config", str(manifest)]) == 0
        assert (out / "labels.csv").read_bytes() == first

    def test_manifest_with_removed_threads_key_reruns(self, fixtures):
        tmp_path, labels, _ = fixtures
        out = tmp_path / "out"
        assert main(["prior", "--labels", str(labels), "--out-dir", str(out)]) == 0
        manifest = json.loads((out / "prior_manifest.json").read_text())
        manifest["config"]["threads"] = 1           # as older versions wrote it
        older = tmp_path / "older_manifest.json"
        older.write_text(json.dumps(manifest))
        rerun = tmp_path / "rerun"
        assert main(["prior", "--config", str(older), "--out-dir", str(rerun)]) == 0
        for name in ("C.csv", "A.csv", "alpha.csv"):
            assert (rerun / name).read_bytes() == (out / name).read_bytes()

    @pytest.mark.parametrize("subcommand", ["prior", "train"])
    def test_removed_literal_mode_rejected(self, fixtures, capsys, subcommand):
        tmp_path, labels, logits = fixtures
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"reweight_mode": "literal", "labels": str(labels)}))
        rc = main([subcommand, "--config", str(config), "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        assert "literal" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("final_nonlinearity", "false"),
        ("final_nonlinearity", 0),
        ("final_nonlinearity", None),
        ("epochs", 1.9),
        ("epochs", True),
        ("seed", 0.5),
    ])
    def test_config_value_of_wrong_kind_rejected(self, fixtures, capsys, key, value):
        tmp_path, labels, logits = fixtures
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"epochs": 1, "gcn_dims": "1,4,1", key: value}))
        rc = main(["train", "--labels", str(labels), "--logits", str(logits),
                   "--config", str(config), "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        assert f"--{key.replace('_', '-')}" in capsys.readouterr().err

    def test_config_integral_number_and_boolean_accepted(self, fixtures):
        tmp_path, labels, logits = fixtures
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"epochs": 2.0, "batch_size": 2, "gcn_dims": "1,4,1", "final_nonlinearity": True}
        ))
        out = tmp_path / "out"
        assert main(["train", "--labels", str(labels), "--logits", str(logits),
                     "--config", str(config), "--out-dir", str(out)]) == 0
        assert "final_nonlinearity 1" in (out / "model.txt").read_text().splitlines()
        assert len((out / "history.csv").read_text().splitlines()) == 3

    def test_missing_required_flag(self, tmp_path, capsys):
        rc = main(["prior", "--out-dir", str(tmp_path)])
        assert rc == 1
        assert "--labels" in capsys.readouterr().err


def test_module_entry_point_runs():
    # the child process imports the package from where this process found it
    env = {**os.environ, "PYTHONPATH": str(Path(coocrefine.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "coocrefine", "--version"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "coocrefine" in proc.stdout
