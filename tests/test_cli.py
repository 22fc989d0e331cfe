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

    def test_repeated_class_name_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("sample_id,c0,c0,c2\na,1,0,1\nb,0,1,1\n")
        out = tmp_path / "out"
        rc = main(["prior", "--labels", str(bad), "--out-dir", str(out)])
        assert rc == 1
        assert "bad.csv: line 1: repeated class name 'c0'" in capsys.readouterr().err
        assert not (out / "A.csv").exists()

    @pytest.mark.parametrize("char", ["\x0c", "\x85"], ids=["ff", "nel"])
    def test_character_that_ends_no_line_stays_in_its_row(self, tmp_path, char):
        counts = []
        for name, key in (("lf", "ab"), ("other", f"a{char}b")):
            labels = tmp_path / f"{name}.csv"
            labels.write_text(f"sample_id,c0,c1\n{key},1,0\nc,1,1\n", encoding="utf-8")
            assert main(["prior", "--labels", str(labels), "--out-dir", str(tmp_path / name)]) == 0
            counts.append((tmp_path / name / "C.csv").read_bytes())
        assert counts[0] == counts[1]
        assert read_matrix_csv(tmp_path / "other" / "C.csv")[1].tolist() == [[2, 1], [1, 1]]

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

    @pytest.mark.parametrize("name", ["per_class.csv", "../escaped.csv", ".."])
    def test_refined_out_must_be_a_new_bare_name(self, fixtures, capsys, name):
        tmp_path, labels, logits = fixtures
        (tmp_path / "A.csv").write_text(A_CSV)
        save_model(init_model((1, 4, 1), 0.01, 0, False), tmp_path / "model.txt")
        out = tmp_path / "eval"
        rc = main([
            "eval", "--labels", str(labels), "--logits", str(logits),
            "--model", str(tmp_path / "model.txt"), "--cond-prob", str(tmp_path / "A.csv"),
            "--refined-out", name, "--out-dir", str(out),
        ])
        assert rc == 1
        assert "--refined-out" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "escaped.csv").exists()

    @pytest.mark.parametrize("extra, named", [
        (["--before", "--after", "--model", "--logits"], "--after --model"),
        (["--before", "--model", "--logits"], "--before --model"),
    ], ids=["both-modes", "stray-before"])
    def test_analyze_takes_exactly_one_mode(self, fixtures, capsys, extra, named):
        tmp_path, labels, logits = fixtures
        (tmp_path / "A.csv").write_text(A_CSV)
        save_model(init_model((1, 4, 1), 0.01, 0, False), tmp_path / "model.txt")
        paths = {"--model": tmp_path / "model.txt"}
        argv = ["analyze", "--labels", str(labels), "--cond-prob", str(tmp_path / "A.csv"),
                "--out-dir", str(tmp_path / "out")]
        for flag in extra:
            argv += [flag, str(paths.get(flag, logits))]
        assert main(argv) == 1
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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


class TestOutputNeverReplacesInput:
    def test_eval_refined_out_onto_its_logits(self, fixtures, capsys):
        tmp_path, labels, logits = fixtures
        (tmp_path / "A.csv").write_text(A_CSV)
        save_model(init_model((1, 4, 1), 0.01, 0, False), tmp_path / "model.txt")
        before = logits.read_bytes()
        rc = main([
            "eval", "--labels", str(labels), "--logits", str(logits),
            "--model", str(tmp_path / "model.txt"), "--cond-prob", str(tmp_path / "A.csv"),
            "--condprob-k", "2", "--refined-out", "logits.csv", "--out-dir", str(tmp_path),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "--refined-out" in err and "--logits" in err
        assert logits.read_bytes() == before
        assert not (tmp_path / "report.json").exists()

    def test_writability_probe_touches_no_file(self, fixtures):
        tmp_path, labels, _ = fixtures
        probe = tmp_path / ".write_probe"
        probe.write_bytes(labels.read_bytes())
        assert main(["prior", "--labels", str(probe), "--out-dir", str(tmp_path)]) == 0
        assert probe.read_bytes() == labels.read_bytes()

    def test_prior_onto_its_labels(self, fixtures, capsys):
        tmp_path, labels, _ = fixtures
        run = tmp_path / "run"
        run.mkdir()
        counts = run / "C.csv"
        counts.write_bytes(labels.read_bytes())
        rc = main(["prior", "--labels", str(counts), "--out-dir", str(run)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "--out-dir" in err and "--labels" in err
        assert counts.read_bytes() == labels.read_bytes()
        assert [p.name for p in run.iterdir()] == ["C.csv"]


@pytest.mark.parametrize("argv", [
    ["synth", "--n-classes", "3", "--n-samples", "5"],
    ["prior", "--labels", "{labels}"],
    ["train", "--labels", "{labels}", "--logits", "{logits}", "--epochs", "1", "--gcn-dims", "1,4,1"],
    ["train", "--labels", "{labels}", "--logits", "{logits}", "--epochs", "1", "--gcn-dims", "1,4,1",
     "--val-labels", "{labels}", "--val-logits", "{logits}"],
    ["eval", "--labels", "{labels}", "--logits", "{logits}"],
    ["eval", "--labels", "{labels}", "--logits", "{logits}", "--model", "{model}",
     "--cond-prob", "{cond}", "--condprob-k", "2"],
    ["eval", "--labels", "{labels}", "--logits", "{logits}", "--model", "{model}",
     "--cond-prob", "{cond}", "--condprob-k", "2", "--refined-out", "refined.csv"],
    ["analyze", "--labels", "{labels}", "--cond-prob", "{cond}", "--before", "{logits}",
     "--after", "{logits}", "--k", "2"],
    ["analyze", "--labels", "{labels}", "--cond-prob", "{cond}", "--model", "{model}",
     "--logits", "{logits}", "--k", "2"],
], ids=["synth", "prior", "train", "train-validation", "eval", "eval-model",
        "eval-refined-out", "analyze-scores", "analyze-model"])
def test_manifest_lists_every_output_and_every_given_input(fixtures, argv):
    tmp_path, labels, logits = fixtures
    paths = {"labels": str(labels), "logits": str(logits), "model": str(tmp_path / "model.txt"),
             "cond": str(tmp_path / "A.csv")}
    (tmp_path / "A.csv").write_text(A_CSV)
    save_model(init_model((1, 4, 1), 0.01, 0, False), tmp_path / "model.txt")
    argv = [arg.format(**paths) for arg in argv]
    out = tmp_path / "out"
    assert main([*argv, "--out-dir", str(out)]) == 0
    manifest_name = f"{argv[0]}_manifest.json"
    manifest = json.loads((out / manifest_name).read_text())
    assert sorted(p.name for p in out.iterdir()) == sorted([*manifest["outputs"], manifest_name])
    given = {flag[2:].replace("-", "_") for flag, value in zip(argv, argv[1:])
             if value in paths.values()}
    assert set(manifest["inputs"]) == given


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
        # k is valid for the 3 classes: a bad k is reported before A.csv is read
        if mode == "eval":
            argv = ["eval", "--logits", str(logits), "--model", str(model), "--condprob-k", "2"]
        elif mode == "analyze-scores":
            argv = ["analyze", "--before", str(logits), "--after", str(logits), "--k", "2"]
        else:
            argv = ["analyze", "--logits", str(logits), "--model", str(model), "--k", "2"]
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
    argv = ["eval", "--condprob-k", "2", "--out-dir", str(tmp_path / "eval")]
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

    def test_threads_key_of_a_plain_config_rejected(self, fixtures, capsys):
        tmp_path, labels, _ = fixtures
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"threads": 4}))
        out = tmp_path / "out"
        rc = main(["prior", "--labels", str(labels), "--config", str(config), "--out-dir", str(out)])
        assert rc == 1
        assert "unknown config keys: threads" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value, flag_value", [
        ("epochs", True, "1"),
        ("epochs", None, "1"),
        ("gcn_dims", [1, 4.5, 1], "1,4,1"),
        ("reweight_mode", "literal", "none"),
    ])
    def test_config_value_a_flag_overrides_is_still_checked(
        self, fixtures, capsys, key, value, flag_value
    ):
        tmp_path, labels, logits = fixtures
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}))
        flag = f"--{key.replace('_', '-')}"
        out = tmp_path / "out"
        rc = main(["train", "--labels", str(labels), "--logits", str(logits), "--epochs", "1",
                   "--config", str(config), flag, flag_value, "--out-dir", str(out)])
        assert rc == 1
        assert f"invalid {flag} " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text, key", [
        ('{"epochs": "abc", "epochs": 1}', "epochs"),
        ('{"subcommand": "train", "config": {"epochs": "abc", "epochs": 1}}', "epochs"),
        ('{"subcommand": "train", "config": {}, "inputs": {"labels": {"path": "a", "path": "b"}}}',
         "path"),
    ], ids=["config", "manifest-config", "manifest-inputs"])
    def test_repeated_key_rejected(self, fixtures, capsys, text, key):
        tmp_path, labels, logits = fixtures
        config = tmp_path / "c.json"
        config.write_text(text)
        out = tmp_path / "out"
        rc = main(["train", "--labels", str(labels), "--logits", str(logits),
                   "--config", str(config), "--out-dir", str(out)])
        assert rc == 1
        assert f"c.json: repeated key '{key}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_config_line_ends_resolve_alike(self, tmp_path, end):
        text = json.dumps({"n_samples": 12, "n_classes": 5, "clusters": [[0, 1]]}, indent=2)
        runs = []
        for name, ends in (("lf", "\n"), ("other", end)):
            config = tmp_path / f"{name}.json"
            config.write_bytes(text.replace("\n", ends).encode())
            out = tmp_path / name
            assert main(["synth", "--config", str(config), "--out-dir", str(out)]) == 0
            resolved = json.loads((out / "synth_manifest.json").read_text())["config"]
            del resolved["out_dir"]
            runs.append((resolved, (out / "labels.csv").read_bytes()))
        assert runs[0][0]["n_samples"] == 12 and runs[0][0]["clusters"] == [[0, 1]]
        assert runs[0] == runs[1]

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
        ("epochs", None),
        ("lr0", None),
        ("gcn_dims", None),
        ("out_dir", None),
    ])
    def test_config_value_of_wrong_kind_rejected(self, fixtures, capsys, key, value):
        tmp_path, labels, logits = fixtures
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"epochs": 1, "gcn_dims": "1,4,1",
                                      "out_dir": str(tmp_path / "out"), key: value}))
        rc = main(["train", "--labels", str(labels), "--logits", str(logits),
                   "--config", str(config)])
        assert rc == 1
        assert f"--{key.replace('_', '-')}" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand, key, value", [
        ("train", "gcn_dims", [1, 4.5, 1]),
        ("train", "gcn_dims", [1, True, 1]),
        ("synth", "clusters", [[0, 1.5]]),
        ("synth", "signal_strength", [2.0] * 19 + [False]),
    ])
    def test_config_list_element_of_wrong_kind_rejected(
        self, fixtures, capsys, subcommand, key, value
    ):
        tmp_path, labels, logits = fixtures
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}))
        inputs = ["--labels", str(labels), "--logits", str(logits), "--epochs", "1"]
        rc = main([subcommand, *(inputs if subcommand == "train" else []),
                   "--config", str(config), "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        assert f"--{key.replace('_', '-')}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, fragment", [
        ("{epochs: 1}", "invalid JSON"),
        ("[1, 2]", "config must be a JSON object"),
        ('{"subcommand": "prior", "config": [1]}', "manifest config must be a JSON object"),
        ('{"subcommand": "prior", "config": {}, "inputs": {"labels": "x.csv"}}',
         "manifest inputs must map"),
    ])
    def test_malformed_config_file_rejected(self, fixtures, capsys, text, fragment):
        tmp_path, labels, _ = fixtures
        config = tmp_path / "config.json"
        config.write_text(text)
        rc = main(["prior", "--labels", str(labels), "--config", str(config),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        assert f"config.json: {fragment}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_list_of_widths_accepted(self, fixtures):
        tmp_path, labels, logits = fixtures
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"epochs": 1, "gcn_dims": [1, 8, 1]}))
        out = tmp_path / "out"
        assert main(["train", "--labels", str(labels), "--logits", str(logits),
                     "--config", str(config), "--out-dir", str(out)]) == 0
        assert "layer_dims 1 8 1" in (out / "model.txt").read_text().splitlines()

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


def test_runtime_imports_no_scipy(fixtures):
    # a child process: the Spearman oracle test loads scipy into this one
    tmp_path, labels, logits = fixtures
    negated = tmp_path / "negated.csv"
    negated.write_text("sample_id,c0,c1,c2\na,-2.0,-1.5,1.0\nb,-1.0,2.0,-2.0\nc,1.5,1.0,-0.5\n")
    script = """import sys
from coocrefine.cli import main
d, labels, before, after = sys.argv[1:]
assert main(["prior", "--labels", labels, "--out-dir", d + "/prior"]) == 0
assert main(["analyze", "--labels", labels, "--cond-prob", d + "/prior/A.csv",
             "--before", before, "--after", after, "--k", "1", "--out-dir", d + "/analyze"]) == 0
print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
"""
    env = {**os.environ, "PYTHONPATH": str(Path(coocrefine.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path), str(labels), str(logits), str(negated)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    *summaries, loaded = proc.stdout.splitlines()
    assert "defined)" in summaries[-1]         # the rank correlation was computed
    assert loaded == "[]"


def train_argv(labels, logits, out, *extra):
    return ["train", "--labels", str(labels), "--logits", str(logits), "--epochs", "1",
            "--gcn-dims", "1,4,1", *extra, "--out-dir", str(out)]


@pytest.mark.parametrize("flag, value, setting", [
    ("--gcn-dims", "1,-1,1", "gcn_dims"),
    ("--gcn-dims", "1,-3,1", "gcn_dims"),
    ("--gamma-pos", "nan", "gamma_pos"),
    ("--gamma-pos", "inf", "gamma_pos"),
    ("--gamma-neg", "inf", "gamma_neg"),
    ("--lr0", "inf", "lr0"),
    ("--delta", "1.5", "delta"),
    ("--eps", "1", "eps"),
    ("--leaky-slope", "2", "leaky_slope"),
])
def test_bad_hyperparameter_exits_1_naming_it(fixtures, capsys, flag, value, setting):
    tmp_path, labels, logits = fixtures
    out = tmp_path / "out"
    assert main(train_argv(labels, logits, out, flag, value)) == 1
    assert f"error: {setting}" in capsys.readouterr().err
    assert not out.exists()


class TestOptionValues:
    """Flag text and config values take one conversion path."""

    @pytest.mark.parametrize("subcommand, key, value", [
        ("train", "epochs", "abc"),
        ("train", "epochs", "1.5"),
        ("train", "lr0", "fast"),
        ("train", "reweight_mode", "literal"),
        ("prior", "reweight_mode", "literal"),
        ("synth", "n_samples", "many"),
        ("eval", "topk", "two"),
    ])
    def test_flag_and_config_give_the_same_error(self, fixtures, capsys, subcommand, key, value):
        tmp_path, labels, logits = fixtures
        inputs = {"synth": [], "prior": ["--labels", str(labels)]}.get(
            subcommand, ["--labels", str(labels), "--logits", str(logits)])
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}))
        out = tmp_path / "out"
        errors = []
        for given in ([f"--{key.replace('_', '-')}", value], ["--config", str(config)]):
            assert main([subcommand, *inputs, *given, "--out-dir", str(out)]) == 1
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert f"--{key.replace('_', '-')} '{value}'" in errors[0]
        assert not out.exists()

    def test_numbers_given_as_flags_are_recorded_as_numbers(self, fixtures):
        tmp_path, labels, logits = fixtures
        out = tmp_path / "out"
        assert main(train_argv(labels, logits, out, "--lr0", "0.01", "--seed", "3")) == 0
        config = json.loads((out / "train_manifest.json").read_text())["config"]
        assert (config["epochs"], config["lr0"], config["seed"]) == (1, 0.01, 3)
        assert config["gcn_dims"] == "1,4,1"

    def test_help_lists_the_choices(self, capsys):
        with pytest.raises(SystemExit):
            main(["prior", "--help"])
        assert "--reweight-mode {frequency,none}" in capsys.readouterr().out


class TestManifestRerunChecksInputs:
    def test_edited_input_exits_1_and_writes_nothing(self, fixtures, capsys):
        tmp_path, labels, _ = fixtures
        run = tmp_path / "run"
        assert main(["prior", "--labels", str(labels), "--out-dir", str(run)]) == 0
        written = {p.name: p.read_bytes() for p in run.iterdir()}
        labels.write_text(LABELS_CSV.replace("c,0,0,1", "c,0,1,1"))
        assert main(["prior", "--config", str(run / "prior_manifest.json")]) == 1
        err = capsys.readouterr().err
        assert "--labels" in err and str(labels) in err
        assert {p.name: p.read_bytes() for p in run.iterdir()} == written

    def test_input_given_as_flag_is_not_checked(self, fixtures):
        tmp_path, labels, _ = fixtures
        run = tmp_path / "run"
        assert main(["prior", "--labels", str(labels), "--out-dir", str(run)]) == 0
        labels.write_text(LABELS_CSV.replace("c,0,0,1", "c,0,1,1"))
        manifest = run / "prior_manifest.json"
        assert main(["prior", "--config", str(manifest), "--labels", str(labels)]) == 0
        _, counts = read_matrix_csv(run / "C.csv")
        assert counts[1, 2] == 1


class TestDocumentedExits:
    def test_numeric_failure_exits_2(self, fixtures, capsys):
        tmp_path, labels, logits = fixtures
        assert main(train_argv(labels, logits, tmp_path / "out", "--epochs", "2", "--lr0", "1e160")) == 2
        assert "numeric failure" in capsys.readouterr().err

    def test_unexpected_failure_exits_2(self, fixtures, capsys, monkeypatch):
        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(coocrefine.cli, "cmd_prior", broken)
        tmp_path, labels, _ = fixtures
        assert main(["prior", "--labels", str(labels), "--out-dir", str(tmp_path)]) == 2
        assert "unexpected failure: boom" in capsys.readouterr().err

    def test_val_labels_need_val_logits(self, fixtures, capsys):
        tmp_path, labels, logits = fixtures
        out = tmp_path / "out"
        assert main(train_argv(labels, logits, out, "--val-labels", str(labels))) == 1
        assert "--val-labels and --val-logits" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["synth", "--n-classes", "1"],
        ["prior", "--labels", "{missing}"],
        ["eval", "--labels", "{labels}", "--logits", "{missing}"],
        ["synth", "--seed", "-1"],
        ["synth", "--noise-std", "inf"],
        ["synth", "--signal-strength", "nan"],
        ["train", "--labels", "{labels}", "--logits", "{logits}", "--seed", "-1"],
        # a RuntimeWarning raises under this suite's filterwarnings, so none may be emitted
        ["synth", "--noise-std", "1e308"],
        ["synth", "--noise-std", "1e308", "--signal-strength", "1e308"],
    ], ids=["synth-one-class", "prior-missing-labels", "eval-missing-logits", "synth-seed",
            "synth-noise-inf", "synth-strength-nan", "train-seed", "synth-noise-overflow",
            "synth-signal-overflow"])
    def test_exit_1_creates_no_out_dir(self, fixtures, capsys, argv):
        tmp_path, labels, logits = fixtures
        out = tmp_path / "out"
        argv = [arg.format(labels=labels, logits=logits, missing=tmp_path / "absent.csv")
                for arg in argv]
        assert main([*argv, "--out-dir", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["eval", "--labels", "{labels}", "--logits", "{logits}", "--model", "{model}",
          "--cond-prob", "{cond}"], "--condprob-k must be in [1, 2], got 3"),
        (["analyze", "--labels", "{labels}", "--cond-prob", "{cond}", "--before", "{logits}",
          "--after", "{logits}", "--k", "0"], "--k must be in [1, 2], got 0"),
        (["analyze", "--labels", "{labels}", "--cond-prob", "{cond}", "--model", "{model}",
          "--logits", "{logits}", "--k", "2", "--bin-size", "0"], "bin_size must be positive"),
        *((["analyze", "--labels", "{labels}", "--cond-prob", "{cond}", "--model", "{model}",
            "--logits", "{logits}", "--k", "2", "--bin-size", size],
           "bin_size must be finite and greater than 2**-53") for size in ("inf", "1e-320")),
        (["train", "--labels", "{labels}", "--logits", "{logits}", "--val-labels", "{renamed}",
          "--val-logits", "{renamed_logits}", "--epochs", "1", "--gcn-dims", "1,4,1"],
         "validation class names differ from training"),
        (["eval", "--labels", "{labels}", "--logits", "{logits}", "--topk", "9"],
         "top_k must be in [1, 3], got 9"),
        # a label CSV is no model file, but k is checked before the model is read
        (["eval", "--labels", "{labels}", "--logits", "{logits}", "--model", "{labels}",
          "--cond-prob", "{cond}", "--condprob-k", "99"], "--condprob-k must be in [1, 2], got 99"),
        (["analyze", "--labels", "{labels}", "--cond-prob", "{cond}", "--model", "{labels}",
          "--logits", "{logits}", "--k", "0"], "--k must be in [1, 2], got 0"),
    ], ids=["eval-condprob-k", "analyze-k", "analyze-bin-size", "analyze-bin-size-inf",
            "analyze-bin-size-tiny", "train-val-class-names", "eval-topk",
            "eval-condprob-k-before-model", "analyze-k-before-model"])
    def test_checks_on_read_inputs_create_no_out_dir(self, fixtures, capsys, argv, message):
        tmp_path, labels, logits = fixtures
        (tmp_path / "A.csv").write_text(A_CSV)
        save_model(init_model((1, 4, 1), 0.01, 0, False), tmp_path / "model.txt")
        (tmp_path / "renamed.csv").write_text(LABELS_CSV.replace("c2", "c9"))
        (tmp_path / "renamed_logits.csv").write_text(LOGITS_CSV.replace("c2", "c9"))
        paths = {name: tmp_path / f"{name}.csv" for name in ("renamed", "renamed_logits")}
        argv = [arg.format(labels=labels, logits=logits, model=tmp_path / "model.txt",
                           cond=tmp_path / "A.csv", **paths) for arg in argv]
        out = tmp_path / "out"
        assert main([*argv, "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == f"coocrefine: error: {message}\n"
        assert not out.exists()

    def test_model_needs_cond_prob(self, fixtures, capsys):
        tmp_path, labels, logits = fixtures
        save_model(init_model((1, 4, 1), 0.01, 0, False), tmp_path / "model.txt")
        out = tmp_path / "out"
        assert main(["eval", "--labels", str(labels), "--logits", str(logits),
                     "--model", str(tmp_path / "model.txt"), "--out-dir", str(out)]) == 1
        assert "--model and --cond-prob" in capsys.readouterr().err
        assert not out.exists()

    def test_cond_prob_diagonal_not_one_exits_1_naming_it(self, fixtures, capsys):
        tmp_path, labels, logits = fixtures
        save_model(init_model((1, 4, 1), 0.01, 0, False), tmp_path / "model.txt")
        for diagonal in ("0.5", "0.999999999"):
            cond = tmp_path / f"A_{diagonal}.csv"
            cond.write_text(A_CSV.replace("c1,1.0,1.0,0.0", f"c1,1.0,{diagonal},0.0"))
            assert main(["eval", "--labels", str(labels), "--logits", str(logits),
                         "--model", str(tmp_path / "model.txt"), "--cond-prob", str(cond),
                         "--condprob-k", "2", "--out-dir", str(tmp_path / "out")]) == 1
            err = capsys.readouterr().err
            assert str(cond) in err and "diagonal" in err
