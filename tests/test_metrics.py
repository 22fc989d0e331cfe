import numpy as np
import pytest

from coocrefine import (
    CondProbMatrix,
    LabelMatrix,
    ValidationError,
    average_precision,
    delta_ap_analysis,
    evaluate,
    per_class_average_precision,
)

from oracles import brute_average_precision


def labels_from(rows):
    rows = np.asarray(rows, dtype=np.uint8)
    ids = tuple(f"s{i}" for i in range(rows.shape[0]))
    names = tuple(f"c{j}" for j in range(rows.shape[1]))
    return LabelMatrix(rows, ids, names)


def logit(p):
    return float(np.log(p / (1 - p)))


class TestAveragePrecision:
    def test_perfect_ranking(self):
        assert average_precision([0.9, 0.8, 0.1], [1, 1, 0]) == 1.0

    def test_single_positive_at_bottom(self):
        assert average_precision([0.1, 0.9], [1, 0]) == 0.5

    def test_tie_broken_by_ascending_index(self):
        assert average_precision([0.5, 0.5], [0, 1]) == 0.5
        assert average_precision([0.5, 0.5], [1, 0]) == 1.0

    def test_requires_a_positive(self):
        with pytest.raises(ValidationError, match="positive"):
            average_precision([0.1, 0.2], [0, 0])

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 13))
            labels = rng.integers(0, 2, size=n)
            if labels.sum() == 0:
                labels[int(rng.integers(0, n))] = 1
            scores = np.round(rng.normal(size=n), 1)   # coarse grid forces ties
            expected = brute_average_precision(scores.tolist(), labels.tolist())
            assert average_precision(scores, labels) == pytest.approx(expected, abs=1e-12)

    def test_invariant_under_monotone_transforms(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(2, 20))
            labels = rng.integers(0, 2, size=n)
            labels[0] = 1
            scores = rng.normal(size=n)
            base = average_precision(scores, labels)
            assert average_precision(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)
            assert average_precision(3.0 * scores + 11.0, labels) == pytest.approx(base, abs=1e-12)


class TestEvaluate:
    def test_perfect_predictions(self):
        labels = labels_from([[1, 0], [0, 1], [1, 1]])
        scores = np.where(labels.values == 1, 4.0, -4.0)
        report = evaluate(scores, labels, threshold=0.5)
        for value in (report.cp, report.cr, report.cf1, report.op, report.or_, report.of1, report.map):
            assert value == 1.0
        assert report.excluded_classes == ()

    def test_all_negative_predictions_use_zero_conventions(self):
        labels = labels_from([[1, 0], [0, 1]])
        report = evaluate(np.full((2, 2), -5.0), labels, threshold=0.5)
        assert report.op == 0.0 and report.or_ == 0.0
        assert report.cp == 0.0 and report.cf1 == 0.0

    def test_hand_confusion_counts(self):
        labels = labels_from([[1, 0], [0, 1]])
        scores = np.array(
            [[logit(0.9), logit(0.2)], [logit(0.6), logit(0.8)]]
        )
        report = evaluate(scores, labels, threshold=0.5)
        assert report.cp == pytest.approx(0.75)
        assert report.cr == pytest.approx(1.0)
        assert report.op == pytest.approx(2 / 3)
        assert report.or_ == pytest.approx(1.0)
        assert report.cf1 == pytest.approx(2 * 0.75 * 1.0 / 1.75)

    def test_metrics_bounded(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            values = rng.integers(0, 2, size=(8, 4)).astype(np.uint8)
            labels = labels_from(values)
            report = evaluate(rng.normal(size=(8, 4)), labels, threshold=0.5)
            for value in (report.cp, report.cr, report.cf1, report.op, report.or_, report.of1, report.map):
                assert 0.0 <= value <= 1.0
            assert np.all(report.per_class_ap >= 0) and np.all(report.per_class_ap <= 1)

    def test_classes_without_positives_are_excluded_from_map(self):
        labels = labels_from([[1, 0, 0], [1, 0, 1]])
        report = evaluate(np.zeros((2, 3)), labels, threshold=0.5)
        assert report.excluded_classes == (1,)
        assert report.per_class_ap[1] == 0.0
        included = [report.per_class_ap[0], report.per_class_ap[2]]
        assert report.map == pytest.approx(np.mean(included))

    def test_top_k_mode(self):
        labels = labels_from([[1, 1, 0], [0, 1, 1]])
        scores = np.array([[3.0, 2.0, -1.0], [0.0, 5.0, 4.0]])
        report = evaluate(scores, labels, top_k=2)
        assert report.threshold is None and report.top_k == 2
        assert report.cr == 1.0 and report.cp == pytest.approx((1.0 + 1.0 + 1.0) / 3)

    def test_top_k_tie_prefers_lower_class_index(self):
        labels = labels_from([[1, 0, 0]])
        scores = np.array([[1.0, 1.0, 1.0]])
        report = evaluate(scores, labels, top_k=1)
        assert report.or_ == 1.0    # class 0 picked on the three-way tie

    def test_validation(self):
        labels = labels_from([[1, 0], [0, 1]])
        with pytest.raises(ValidationError):
            evaluate(np.zeros((2, 3)), labels, threshold=0.5)
        with pytest.raises(ValidationError):
            evaluate(np.zeros((2, 2)), labels, threshold=0.0)
        with pytest.raises(ValidationError):
            evaluate(np.zeros((2, 2)), labels, top_k=3)


class TestDeltaApAnalysis:
    def cond(self, probs):
        return CondProbMatrix(np.asarray(probs, dtype=float))

    def uniform_cond(self, n, off=0.3):
        probs = np.full((n, n), off)
        np.fill_diagonal(probs, 1.0)
        return self.cond(probs)

    def test_no_change_reports_degenerate_spearman(self):
        ap = np.array([0.5, 0.6, 0.7])
        result = delta_ap_analysis(ap, ap, self.uniform_cond(3), k=2)
        assert result.spearman == 0.0 and not result.spearman_defined
        assert all(b.mean_delta_ap == 0.0 for b in result.bins)

    def test_nearby_values_share_one_bin(self):
        probs = np.eye(4)
        probs[0, 1] = 0.011
        probs[1, 0] = 0.013
        result = delta_ap_analysis(
            np.zeros(4), np.array([0.1, 0.2, 0.0, 0.0]), self.cond(probs), k=1, exclude=(2, 3)
        )
        assert len(result.bins) == 1
        only = result.bins[0]
        assert (only.bin_low, only.bin_high) == (0.0, 0.02)
        assert only.class_count == 2
        assert only.mean_delta_ap == pytest.approx(0.15)

    def test_bin_width_and_ordering(self):
        probs = np.eye(5)
        xs = [0.01, 0.05, 0.21, 0.33]
        for j, x in enumerate(xs):
            probs[j, 4] = x
        result = delta_ap_analysis(
            np.zeros(5), np.array([0.0, 0.1, 0.2, 0.3, 0.4]), self.cond(probs), k=1
        )
        lows = [b.bin_low for b in result.bins]
        assert lows == sorted(lows)
        for b in result.bins:
            assert b.bin_high - b.bin_low == pytest.approx(0.02)
            assert b.class_count >= 1

    def test_monotone_relation_gives_positive_spearman(self):
        n = 6
        probs = np.eye(n)
        for j in range(n):
            probs[j, (j + 1) % n] = 0.1 + 0.15 * j
        delta = 0.05 * np.arange(n)
        result = delta_ap_analysis(np.zeros(n), delta, self.cond(probs), k=1)
        assert result.spearman_defined and result.spearman == pytest.approx(1.0)

    @pytest.mark.parametrize("ties", [False, True])
    @pytest.mark.parametrize("n", [2, 3, 7, 40, 151, 300])
    def test_spearman_equals_scipy_bit_for_bit(self, n, ties):
        from scipy import stats     # the oracle; the package itself does not use scipy

        rng = np.random.default_rng(1000 * n + ties)
        for _ in range(20):
            if ties:    # a few distinct levels on both axes, all exact in binary
                probs = np.repeat(rng.integers(1, 5, (n, 1)) / 8, n, axis=1)
                before = rng.integers(0, 4, n) / 8
                after = before + rng.integers(-2, 3, n) / 8
            else:
                probs, before, after = rng.random((n, n)), rng.random(n), rng.random(n)
            np.fill_diagonal(probs, 1.0)
            result = delta_ap_analysis(before, after, self.cond(probs), k=1)
            x, delta = result.top_k_mean, result.delta_ap
            if np.all(x == x[0]) or np.all(delta == delta[0]):
                assert not result.spearman_defined
                continue
            assert result.spearman_defined
            assert result.spearman == stats.spearmanr(x, delta).statistic

    def test_exclude_classes(self):
        cond = self.uniform_cond(4)
        result = delta_ap_analysis(
            np.zeros(4), np.array([0.1, 0.2, 0.3, 0.4]), cond, k=2, exclude=(1, 3)
        )
        assert result.class_indices == (0, 2)
        assert sum(b.class_count for b in result.bins) == 2

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            delta_ap_analysis(np.zeros(3), np.zeros(4), self.uniform_cond(4), k=1)


class TestSharedApPath:
    def test_per_class_wrapper_matches_scalar_calls(self):
        rng = np.random.default_rng(3)
        scores = rng.normal(size=(10, 4))
        values = rng.integers(0, 2, size=(10, 4)).astype(np.uint8)
        values[:, 2] = 0    # force an excluded class
        ap, excluded = per_class_average_precision(scores, values)
        assert excluded == (2,)
        for j in (0, 1, 3):
            assert ap[j] == average_precision(scores[:, j], values[:, j])
