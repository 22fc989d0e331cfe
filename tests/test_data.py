import numpy as np
import pytest

from coocrefine import (
    LabelMatrix,
    LogitMatrix,
    SyntheticSpec,
    ValidationError,
    batches,
    load_labels,
    load_logits,
    split,
    synth_generate,
    write_labels,
    write_logits,
)

from oracles import brute_average_precision

LABELS_CSV = "sample_id,c0,c1\na,1,0\nb,1,1\nc,0,1\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadLabels:
    def test_happy_path(self, tmp_path):
        labels = load_labels(write(tmp_path, "l.csv", LABELS_CSV))
        assert labels.n_samples == 3 and labels.n_classes == 2
        assert labels.values.tolist() == [[1, 0], [1, 1], [0, 1]]
        assert labels.sample_ids == ("a", "b", "c")
        assert labels.class_names == ("c0", "c1")

    def test_header_only_is_no_samples(self, tmp_path):
        with pytest.raises(ValidationError, match="no samples"):
            load_labels(write(tmp_path, "l.csv", "sample_id,c0,c1\n"))

    def test_bad_cell_names_line(self, tmp_path):
        bad = "sample_id,c0,c1\na,1,0\nb,2,1\n"
        with pytest.raises(ValidationError, match="line 3"):
            load_labels(write(tmp_path, "l.csv", bad))

    def test_ragged_row_names_line(self, tmp_path):
        bad = "sample_id,c0,c1\na,1,0\nb,1\n"
        with pytest.raises(ValidationError, match="line 3"):
            load_labels(write(tmp_path, "l.csv", bad))

    def test_duplicate_sample_id(self, tmp_path):
        bad = "sample_id,c0,c1\na,1,0\na,0,1\n"
        with pytest.raises(ValidationError, match="duplicate sample_id 'a'"):
            load_labels(write(tmp_path, "l.csv", bad))

    def test_malformed_header(self, tmp_path):
        with pytest.raises(ValidationError, match="malformed header"):
            load_labels(write(tmp_path, "l.csv", "id,c0,c1\na,1,0\n"))

    def test_single_class_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="malformed header"):
            load_labels(write(tmp_path, "l.csv", "sample_id,c0\na,1\n"))

    def test_missing_file_names_path(self, tmp_path):
        with pytest.raises(ValidationError, match="nope.csv"):
            load_labels(tmp_path / "nope.csv")

    def test_crlf_accepted(self, tmp_path):
        labels = load_labels(write(tmp_path, "l.csv", LABELS_CSV.replace("\n", "\r\n")))
        assert labels.values.tolist() == [[1, 0], [1, 1], [0, 1]]

    def test_round_trip_bytes(self, tmp_path):
        path = write(tmp_path, "l.csv", LABELS_CSV)
        out = tmp_path / "copy.csv"
        write_labels(load_labels(path), out)
        assert out.read_bytes() == path.read_bytes()


class TestLoadLogits:
    def test_happy_path(self, tmp_path):
        labels = load_labels(write(tmp_path, "l.csv", LABELS_CSV))
        logits_csv = "sample_id,c0,c1\na,0.5,-1.25\nb,2e-1,3.0\nc,-0.75,0.0\n"
        logits = load_logits(write(tmp_path, "g.csv", logits_csv), labels)
        assert logits.values.shape == (3, 2)
        assert logits.values[1, 0] == 0.2

    def test_id_mismatch_names_row(self, tmp_path):
        labels = load_labels(write(tmp_path, "l.csv", LABELS_CSV))
        swapped = "sample_id,c0,c1\na,0.5,0.5\nc,0.5,0.5\nb,0.5,0.5\n"
        with pytest.raises(ValidationError, match="sample_id mismatch at row 2"):
            load_logits(write(tmp_path, "g.csv", swapped), labels)

    def test_non_finite_value(self, tmp_path):
        labels = load_labels(write(tmp_path, "l.csv", LABELS_CSV))
        bad = "sample_id,c0,c1\na,0.5,0.5\nb,inf,0.5\nc,0.5,0.5\n"
        with pytest.raises(ValidationError, match="non-finite logit"):
            load_logits(write(tmp_path, "g.csv", bad), labels)

    def test_row_count_mismatch(self, tmp_path):
        labels = load_labels(write(tmp_path, "l.csv", LABELS_CSV))
        short = "sample_id,c0,c1\na,0.5,0.5\nb,0.5,0.5\n"
        with pytest.raises(ValidationError, match="shape mismatch"):
            load_logits(write(tmp_path, "g.csv", short), labels)

    @pytest.mark.parametrize("logits_csv, fragment", [
        ("sample_id,c0,c1\na,0.5,0.5\nb,0.5\nc,0.5,0.5\n", "line 3: expected 3 cells"),
        ("sample_id,c0,c1\na,0.5,0.5\nb,0.5,0.5\nc,0.5,0.5\nd,0.5,0.5\n", "line 5"),
        ("sample_id,c0,c1\na,0.5,0.5\nb,0.5,0.5\nc,0.5,x\n", "line 4"),
    ], ids=["ragged", "extra-row", "bad-cell"])
    def test_bad_row_names_line(self, tmp_path, logits_csv, fragment):
        labels = load_labels(write(tmp_path, "l.csv", LABELS_CSV))
        with pytest.raises(ValidationError, match=f"g.csv: {fragment}"):
            load_logits(write(tmp_path, "g.csv", logits_csv), labels)

    def test_class_header_mismatch(self, tmp_path):
        labels = load_labels(write(tmp_path, "l.csv", LABELS_CSV))
        other = "sample_id,x,y\na,0.5,0.5\nb,0.5,0.5\nc,0.5,0.5\n"
        with pytest.raises(ValidationError, match="class header mismatch"):
            load_logits(write(tmp_path, "g.csv", other), labels)

    def test_write_read_numeric_round_trip(self, tmp_path):
        labels = load_labels(write(tmp_path, "l.csv", LABELS_CSV))
        rng = np.random.default_rng(5)
        logits = LogitMatrix(rng.normal(size=(3, 2)) * 1e-7)
        path = tmp_path / "g.csv"
        write_logits(logits, labels, path)
        again = load_logits(path, labels)
        assert np.array_equal(again.values, logits.values)


class TestTypes:
    def test_label_values_must_be_binary(self):
        with pytest.raises(ValidationError):
            LabelMatrix(np.array([[0, 2]]), ("a",), ("c0", "c1"))

    def test_needs_two_classes(self):
        with pytest.raises(ValidationError):
            LabelMatrix(np.array([[1], [0]]), ("a", "b"), ("c0",))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            LabelMatrix(np.array([[1, 0], [0, 1]]), ("a", "a"), ("c0", "c1"))

    def test_logits_must_be_finite(self):
        with pytest.raises(ValidationError, match="non-finite"):
            LogitMatrix(np.array([[0.0, np.nan]]))

    def test_values_read_only(self):
        labels = LabelMatrix(np.array([[1, 0]]), ("a",), ("c0", "c1"))
        with pytest.raises(ValueError):
            labels.values[0, 0] = 0

    def test_constructor_does_not_freeze_caller_array(self):
        source = np.array([[1, 0]])
        LabelMatrix(source, ("a",), ("c0", "c1"))
        source[0, 0] = 0    # caller's array stays writable


def spec_with(**overrides):
    base = dict(
        n_classes=4,
        n_samples=200,
        clusters=((0, 1),),
        within_cluster_prob=1.0,
        base_prob=0.4,
        signal_strength=1.0,
        noise_std=1.0,
        seed=11,
    )
    base.update(overrides)
    return SyntheticSpec(**base)


class TestSynthGenerate:
    def test_forced_cluster_equality(self):
        labels, _ = synth_generate(spec_with(within_cluster_prob=1.0))
        y = labels.values
        assert np.array_equal(y[:, 0], y[:, 1])
        present = y[:, 0] == 1
        assert present.any()
        assert (y[present, 1] == 1).all()

    def test_deterministic(self):
        a_labels, a_logits = synth_generate(spec_with())
        b_labels, b_logits = synth_generate(spec_with())
        assert np.array_equal(a_labels.values, b_labels.values)
        assert np.array_equal(a_logits.values, b_logits.values)
        assert a_labels.sample_ids == b_labels.sample_ids

    def test_seed_changes_output(self):
        a_labels, _ = synth_generate(spec_with())
        b_labels, _ = synth_generate(spec_with(seed=12))
        assert not np.array_equal(a_labels.values, b_labels.values)

    def test_zero_signal_class_scores_at_chance(self):
        # a class with no signal ranks randomly: AP ~ its prevalence
        spec = spec_with(
            n_classes=4,
            n_samples=2000,
            clusters=(),
            base_prob=0.3,
            signal_strength=(0.0, 2.0, 2.0, 2.0),
            seed=7,
        )
        labels, logits = synth_generate(spec)
        prevalence = labels.values[:, 0].mean()
        ap = brute_average_precision(logits.values[:, 0].tolist(), labels.values[:, 0].tolist())
        assert abs(ap - prevalence) < 0.05

    def test_within_cluster_conditional_matches_derivation(self):
        # one forced member plus Bernoulli(q) others gives
        # P(n present | m present) = (2q + (k-2) q^2) / (1 + (k-1) q)
        q, k = 0.7, 4
        spec = spec_with(
            n_classes=6,
            n_samples=5000,
            clusters=(tuple(range(k)),),
            within_cluster_prob=q,
            base_prob=0.5,
            seed=3,
        )
        labels, _ = synth_generate(spec)
        y = labels.values
        expected = (2 * q + (k - 2) * q * q) / (1 + (k - 1) * q)
        for m in range(k):
            c_mm = int(y[:, m].sum())
            for n in range(k):
                if m == n:
                    continue
                est = (y[:, m] & y[:, n]).sum() / c_mm
                band = 3 * np.sqrt(expected * (1 - expected) / c_mm)
                assert abs(est - expected) <= band

    def test_cluster_probs_override(self):
        spec = spec_with(
            n_classes=6,
            n_samples=4000,
            clusters=((0, 1), (2, 3)),
            cluster_probs=(0.05, 0.5),
            base_prob=0.4,
            seed=9,
        )
        labels, _ = synth_generate(spec)
        rare = labels.values[:, 0].mean()
        common = labels.values[:, 2].mean()
        assert rare < common / 3

    def test_invariants_enforced(self):
        with pytest.raises(ValidationError, match="more than one cluster"):
            spec_with(clusters=((0, 1), (1, 2)))
        with pytest.raises(ValidationError, match="out of range"):
            spec_with(clusters=((0, 9),))
        with pytest.raises(ValidationError, match="noise_std"):
            spec_with(noise_std=0.0)
        with pytest.raises(ValidationError, match="signal_strength"):
            spec_with(signal_strength=(1.0, 1.0))


class TestSplit:
    def make(self, n=10):
        rng = np.random.default_rng(0)
        values = rng.integers(0, 2, size=(n, 3)).astype(np.uint8)
        values[:, 0] = 1    # keep at least one positive anywhere
        labels = LabelMatrix(values, tuple(f"s{i}" for i in range(n)), ("a", "b", "c"))
        return labels, LogitMatrix(rng.normal(size=(n, 3)))

    def test_sizes(self):
        labels, logits = self.make(10)
        (tr, _), (te, _) = split(labels, logits, 0.8, seed=1)
        assert tr.n_samples == 8 and te.n_samples == 2

    def test_floor_keeps_test_nonempty(self):
        labels, logits = self.make(10)
        (tr, _), (te, _) = split(labels, logits, 0.99, seed=1)
        assert tr.n_samples == 9 and te.n_samples == 1

    def test_deterministic(self):
        labels, logits = self.make(10)
        first = split(labels, logits, 0.7, seed=5)
        second = split(labels, logits, 0.7, seed=5)
        assert first[0][0].sample_ids == second[0][0].sample_ids
        assert np.array_equal(first[1][1].values, second[1][1].values)

    def test_partition_is_exhaustive_and_disjoint(self):
        labels, logits = self.make(13)
        (tr, _), (te, _) = split(labels, logits, 0.6, seed=2)
        ids = set(tr.sample_ids) | set(te.sample_ids)
        assert ids == set(labels.sample_ids)
        assert not set(tr.sample_ids) & set(te.sample_ids)

    def test_rows_stay_aligned(self):
        labels, logits = self.make(12)
        (tr_l, tr_g), _ = split(labels, logits, 0.5, seed=3)
        lookup = {sid: i for i, sid in enumerate(labels.sample_ids)}
        for row, sid in enumerate(tr_l.sample_ids):
            src = lookup[sid]
            assert np.array_equal(tr_l.values[row], labels.values[src])
            assert np.array_equal(tr_g.values[row], logits.values[src])

    def test_empty_part_is_error(self):
        labels, logits = self.make(10)
        with pytest.raises(ValidationError, match="empty part"):
            split(labels, logits, 0.05, seed=1)
        with pytest.raises(ValidationError):
            split(labels, logits, 1.5, seed=1)


class TestBatches:
    def test_sizes_with_short_tail(self):
        out = batches(5, 2, seed=0, epoch=0)
        assert [len(b) for b in out] == [2, 2, 1]

    def test_single_batch_is_permutation(self):
        (only,) = batches(5, 5, seed=0, epoch=0)
        assert sorted(only.tolist()) == [0, 1, 2, 3, 4]

    def test_deterministic_per_seed_epoch(self):
        a = batches(64, 8, seed=7, epoch=0)
        b = batches(64, 8, seed=7, epoch=0)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        c = batches(64, 8, seed=7, epoch=1)
        assert not all(np.array_equal(x, y) for x, y in zip(a, c))

    def test_every_index_once(self):
        out = batches(23, 4, seed=1, epoch=3)
        flat = np.concatenate(out)
        assert sorted(flat.tolist()) == list(range(23))

    def test_batch_size_validation(self):
        with pytest.raises(ValidationError):
            batches(5, 0, seed=0, epoch=0)
