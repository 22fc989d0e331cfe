import hashlib
import tracemalloc
from functools import partial

import numpy as np
import pytest

from coocrefine import (
    LabelMatrix,
    LogitMatrix,
    RaslParams,
    ReweightVector,
    SyntheticSpec,
    ValidationError,
    average_precision,
    batches,
    load_labels,
    load_logits,
    per_class_average_precision,
    rasl_loss,
    split,
    synth_generate,
    write_labels,
    write_logits,
)
from coocrefine.data import binary_cells, finite_cells, read_table

from oracles import brute_average_precision, whole_text_read_table

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

    def test_repeated_class_name(self, tmp_path):
        bad = "sample_id,c0,c1,c0\na,1,0,1\n"
        with pytest.raises(ValidationError, match="l.csv: line 1: repeated class name 'c0'"):
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


# kind -> (key column, cell parser, whether the reader is given names and keys)
READERS = {
    "labels": ("sample_id", binary_cells, False),
    "logits": ("sample_id", partial(finite_cells, what="logit"), True),
    "A.csv": ("class", partial(finite_cells, what="conditional probability"), True),
}


def valid_table(kind):
    """Header, rows, class names and keys of a valid ``kind`` file several
    times larger than one read of a streamed text file (8 KiB)."""
    if kind == "A.csv":
        names = keys = tuple(f"c{j}" for j in range(60))
        rows = [",".join([name, *("1.0" if j == i else f"0.{(i + j) % 9 + 1}"
                                  for j in range(60))]) for i, name in enumerate(names)]
    else:
        names, keys = ("c0", "c1", "c2"), tuple(f"s{i:05d}" for i in range(2000))
        cell = (lambda i, j: str((i + j) % 2)) if kind == "labels" else (
            lambda i, j: repr((i * 7 + j) / 3 - 4.5))
        rows = [",".join([key, *(cell(i, j) for j in range(3))]) for i, key in enumerate(keys)]
    return ",".join([READERS[kind][0], *names]), rows, names, keys


def joined(header, rows, sep="\n", end="\n"):
    return (sep.join([header, *rows]) + end).encode("utf-8")


def bad_cell(row):
    return row.rsplit(",", 1)[0] + ",x"


def inserted(row, char):
    return row[:len(row) // 2] + char + row[len(row) // 2:]


def late_bytes(header, rows, bad):
    """The file with byte(s) ``bad`` in a row far past the first 8 KiB."""
    head, tail = joined(header, rows[:-5]), joined(rows[-5], rows[-4:])
    return head + tail[:3] + bad + tail[3:]


# case -> the file's bytes, given a valid table's header and rows
READ_CASES = {
    "lf": lambda h, r: joined(h, r),
    "crlf": lambda h, r: joined(h, r, "\r\n", "\r\n"),
    "lone-cr": lambda h, r: joined(h, r, "\r", "\r"),
    "mixed-endings": lambda h, r: b"".join(
        line.encode() + (b"\n", b"\r\n", b"\r")[i % 3] for i, line in enumerate([h, *r])),
    "cr-then-crlf": lambda h, r: joined(h, r, "\r\r\n"),
    **{f"{name}-in-row": partial(lambda h, r, c: joined(h, [r[0], inserted(r[1], c), *r[2:]]),
                                 c=char)
       for name, char in (("ff", "\f"), ("vt", "\v"), ("x1c", "\x1c"), ("x85", "\x85"),
                          ("u2028", "\u2028"))},
    "blank-line-mid-file": lambda h, r: joined(h, [*r[:2], "", *r[2:]]),
    "trailing-blank-line": lambda h, r: joined(h, r) + b"\n",
    "no-final-newline": lambda h, r: joined(h, r, end=""),
    "header-only": lambda h, r: joined(h, []),
    "empty": lambda h, r: b"",
    "bom": lambda h, r: b"\xef\xbb\xbf" + joined(h, r),
    "bad-cell-late": lambda h, r: joined(h, [*r[:-5], bad_cell(r[-5]), *r[-4:]]),
    "bad-cell-late-crlf": lambda h, r: joined(h, [*r[:-5], bad_cell(r[-5]), *r[-4:]], "\r\n"),
    "ragged-row-late": lambda h, r: joined(h, [*r[:-3], r[-3].rsplit(",", 1)[0], *r[-2:]]),
    "duplicate-key-late": lambda h, r: joined(h, [*r[:-1], r[0]]),
    "non-utf8-byte-late": lambda h, r: late_bytes(h, r, b"\xff"),
    "truncated-utf8-at-end": lambda h, r: joined(h, r) + b"\xc3",
    "bad-cell-early-non-utf8-late": lambda h, r: late_bytes(h, [bad_cell(r[0]), *r[1:]], b"\xff"),
    "extra-row-and-bad-cell": lambda h, r: joined(h, [bad_cell(r[0]), *r, r[0]]),
    "missing-row-and-bad-cell": lambda h, r: joined(h, [bad_cell(r[0]), *r[1:-1]]),
    "bad-header-non-utf8-late": lambda h, r: late_bytes("x" + h, r, b"\xff"),
}


ENDINGS = {"lf", "crlf", "lone-cr", "mixed-endings", "no-final-newline"}
# kind -> its valid cases: any change of line ending, and for labels a character
# that ends no line, which lands in a key (in the other kinds' rows, in a number)
OK_CASES = {**dict.fromkeys(READERS, ENDINGS),
            "labels": ENDINGS | {case for case in READ_CASES if case.endswith("-in-row")}}


def read_outcome(reader, path, kind, names, keys):
    key, cell, given = READERS[kind]
    try:
        keys, classes, values = reader(path, key, cell, *((names, keys) if given else ()))
    except ValidationError as exc:
        return "error", str(exc)
    return "ok", keys, classes, values.dtype.str, values.shape, values.tobytes()


class TestStreamedRead:
    """``read_table`` streams its file, and decides every input as the
    whole-text reader does: the same array, or the same message."""

    @pytest.mark.parametrize("case", READ_CASES)
    @pytest.mark.parametrize("kind", READERS)
    def test_same_outcome_as_whole_text(self, tmp_path, kind, case):
        header, rows, names, keys = valid_table(kind)
        path = tmp_path / "t.csv"
        path.write_bytes(READ_CASES[case](header, rows))
        streamed = read_outcome(read_table, path, kind, names, keys)
        assert streamed == read_outcome(whole_text_read_table, path, kind, names, keys)
        assert (streamed[0] == "ok") == (case in OK_CASES[kind])

    @pytest.mark.parametrize("make", [lambda p: None, lambda p: p.mkdir()],
                             ids=["missing", "directory"])
    def test_unreadable_file_same_message(self, tmp_path, make):
        path = tmp_path / "t.csv"
        make(path)
        assert read_outcome(read_table, path, "labels", None, None) == read_outcome(
            whole_text_read_table, path, "labels", None, None)

    def test_load_logits_peak_memory_is_bounded(self, tmp_path):
        labels, logits = synth_generate(spec_with(n_classes=80, n_samples=4000, clusters=()))
        write_labels(labels, tmp_path / "l.csv")
        write_logits(logits, labels, tmp_path / "g.csv")
        labels = load_labels(tmp_path / "l.csv")
        tracemalloc.start()
        try:
            loaded = load_logits(tmp_path / "g.csv", labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(loaded.values, logits.values)
        # the whole-text reader peaked at 5.0x: the text, its lines and the array
        assert peak <= 3 * loaded.values.nbytes


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

    def test_duplicate_class_names_rejected(self):
        with pytest.raises(ValidationError, match="duplicate class name"):
            LabelMatrix(np.array([[1, 0]]), ("a",), ("c0", "c0"))

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


LABEL_CHECKS = {
    "LabelMatrix": lambda y: LabelMatrix(y, ("a", "b"), ("c0", "c1")),
    "rasl_loss": lambda y: rasl_loss(
        np.zeros(y.shape), y, RaslParams(ReweightVector(np.ones(2)))),
    "average_precision": lambda y: average_precision(np.arange(y.size, dtype=float), y),
    "per_class_average_precision": lambda y: per_class_average_precision(np.zeros(y.shape), y),
}


@pytest.mark.parametrize("check", LABEL_CHECKS)
@pytest.mark.parametrize("value", [0.5, 2, -1, np.nan])
def test_label_checks_reject_non_binary(check, value):
    with pytest.raises(ValidationError, match="must be 0 or 1"):
        LABEL_CHECKS[check](np.array([[value, True], [True, False]]))


@pytest.mark.parametrize("check", LABEL_CHECKS)
@pytest.mark.parametrize("value", [0, 1, True])
def test_label_checks_accept_binary(check, value):
    LABEL_CHECKS[check](np.array([[value, True], [True, False]]))


class TestSynthGenerate:
    @pytest.mark.parametrize("overrides, digest", [
        (dict(n_classes=7, n_samples=333, clusters=((0, 1, 2), (4, 5)), within_cluster_prob=0.9,
              base_prob=0.2, signal_strength=(0.3, 2.0, 2.0, 1.0, 0.3, 2.0, 2.0), seed=7),
         "5fa5e0a11520943771005c965ccc3c1457104b0326034d4df9489097adbd12d1"),
        (dict(n_classes=5, n_samples=1, within_cluster_prob=0.5, base_prob=0.3,
              signal_strength=2.0, noise_std=0.5, seed=3),
         "62a3e4d2e1b2f92ba82d5fa5c1a5109cf445eba5546ec54b01b3fdfa521ed56e"),
        (dict(n_classes=5, n_samples=1, within_cluster_prob=0.5, base_prob=0.3,
              signal_strength=(2.0,), noise_std=0.5, seed=3),
         "62a3e4d2e1b2f92ba82d5fa5c1a5109cf445eba5546ec54b01b3fdfa521ed56e"),
        (dict(n_classes=20, n_samples=1000, clusters=((0, 1, 2, 3), (4, 5, 6, 7)),
              within_cluster_prob=0.9, base_prob=0.15, signal_strength=1.5, noise_std=1.3,
              cluster_probs=(0.4, 0.1)),
         "dccc501060febb94466c97d7179aa98c73fa95c1a7c05c0d38d34019281941ce"),
        (dict(n_classes=3, n_samples=4, clusters=(), within_cluster_prob=0.0, base_prob=1.0,
              signal_strength=0.0, noise_std=2.0, seed=0),
         "685ab3497e6e3eb6bd35bb976936117db57b5ab34748a2e9216d6960adba50a7"),
    ], ids=["per-class-strength", "one-odd-sample", "one-value-strength", "cluster-probs",
            "no-clusters"])
    def test_output_is_pinned(self, overrides, digest):
        """SHA-256 of the label and logit bytes, as first generated: the in-place
        arithmetic must not move a bit."""
        labels, logits = synth_generate(spec_with(**overrides))
        assert hashlib.sha256(labels.values.tobytes() + logits.values.tobytes()).hexdigest() == digest

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
