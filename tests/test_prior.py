import numpy as np
import pytest

from coocrefine import (
    CondProbMatrix,
    CoocMatrix,
    LabelMatrix,
    ReweightVector,
    SyntheticSpec,
    ValidationError,
    conditional_prob,
    cooccurrence,
    delta_ap_analysis,
    reweighting,
    synth_generate,
)
from coocrefine.prior import _top_k_means

from oracles import brute_conditional, brute_cooccurrence, per_row_top_k_mean


def labels_from(rows):
    rows = np.asarray(rows, dtype=np.uint8)
    ids = tuple(f"s{i}" for i in range(rows.shape[0]))
    names = tuple(f"c{j}" for j in range(rows.shape[1]))
    return LabelMatrix(rows, ids, names)


class TestCooccurrence:
    def test_hand_counted_example(self):
        cooc = cooccurrence(labels_from([[1, 1, 0], [1, 0, 1], [0, 0, 1]]))
        assert cooc.counts.tolist() == [[2, 1, 1], [1, 1, 0], [1, 0, 2]]

    def test_all_zero_labels(self):
        cooc = cooccurrence(labels_from([[0, 0], [0, 0]]))
        assert cooc.counts.tolist() == [[0, 0], [0, 0]]

    def test_single_sample(self):
        cooc = cooccurrence(labels_from([[1, 1]]))
        assert cooc.counts.tolist() == [[1, 1], [1, 1]]

    def test_matches_brute_force_on_random_matrices(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            n = int(rng.integers(1, 9))
            c = int(rng.integers(2, 6))
            values = rng.integers(0, 2, size=(n, c)).astype(np.uint8)
            cooc = cooccurrence(labels_from(values))
            assert np.array_equal(cooc.counts, brute_cooccurrence(values))

    def test_symmetry_enforced(self):
        with pytest.raises(ValidationError, match="symmetric"):
            CoocMatrix(np.array([[1, 2], [0, 1]]))


class TestConditionalProb:
    def test_hand_derived_example(self):
        cooc = cooccurrence(labels_from([[1, 1, 0], [1, 0, 1], [0, 0, 1]]))
        cond = conditional_prob(cooc)
        assert cond.probs.tolist() == [[1.0, 0.5, 0.5], [1.0, 1.0, 0.0], [0.5, 0.0, 1.0]]
        assert cond.cooc is cooc and CondProbMatrix(cond.probs).cooc is None

    def test_diagonal_is_one_for_observed_classes(self):
        cooc = cooccurrence(labels_from([[1, 1], [1, 0], [0, 1]]))
        assert np.array_equal(conditional_prob(cooc).probs.diagonal(), [1.0, 1.0])

    def test_zero_count_class_becomes_identity_row(self):
        cond = conditional_prob(cooccurrence(labels_from([[1, 0], [1, 0]])))
        assert cond.probs[1].tolist() == [0.0, 1.0]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            CondProbMatrix(np.array([[1.0, bad], [0.5, 1.0]]))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            n = int(rng.integers(1, 9))
            c = int(rng.integers(2, 6))
            values = rng.integers(0, 2, size=(n, c)).astype(np.uint8)
            cond = conditional_prob(cooccurrence(labels_from(values)))
            assert np.allclose(cond.probs, brute_conditional(brute_cooccurrence(values)))
            assert (cond.probs >= 0).all() and (cond.probs <= 1).all()

    def test_empirical_cluster_conditionals(self):
        # within-cluster estimate should track the generator's exact
        # conditional (2q + (k-2)q^2) / (1 + (k-1)q) within 3 SE
        q, k = 0.8, 3
        spec = SyntheticSpec(
            n_classes=5,
            n_samples=6000,
            clusters=(tuple(range(k)),),
            within_cluster_prob=q,
            base_prob=0.5,
            signal_strength=1.0,
            noise_std=1.0,
            seed=21,
        )
        labels, _ = synth_generate(spec)
        cond = conditional_prob(cooccurrence(labels))
        counts = cooccurrence(labels).counts
        expected = (2 * q + (k - 2) * q * q) / (1 + (k - 1) * q)
        for m in range(k):
            band = 3 * np.sqrt(expected * (1 - expected) / counts[m, m])
            for n in range(k):
                if m != n:
                    assert abs(cond.probs[m, n] - expected) <= band


class TestReweighting:
    def test_frequency_mode_hand_example(self):
        cooc = CoocMatrix(np.diag([2, 1, 2]))
        assert reweighting(cooc, "frequency").alphas.tolist() == [2.5, 5.0, 2.5]

    def test_zero_count_clamped(self):
        cooc = CoocMatrix(np.diag([0, 4]))
        assert reweighting(cooc, "frequency").alphas.tolist() == [4.0, 1.0]

    def test_none_mode_is_uniform_ones(self):
        cooc = CoocMatrix(np.diag([3, 7]))
        assert reweighting(cooc, "none").alphas.tolist() == [1.0, 1.0]

    def test_monotone_against_diagonal(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            diag = rng.integers(0, 30, size=6)
            alphas = reweighting(CoocMatrix(np.diag(diag)), "frequency").alphas
            order = np.argsort(diag)
            assert np.all(np.diff(alphas[order]) <= 1e-12)

    def test_unknown_mode(self):
        with pytest.raises(ValidationError, match="unknown reweight mode"):
            reweighting(CoocMatrix(np.diag([1, 1])), "bogus")

    def test_vector_invariants(self):
        with pytest.raises(ValidationError):
            ReweightVector(np.array([1.0, 0.0]))


class TestTopKMeanCondProb:
    def cond(self, rows):
        return CondProbMatrix(np.array(rows, dtype=float))

    def test_equal_off_diagonals(self):
        cond = self.cond([[1, 0.5, 0.5], [0.5, 1, 0.5], [0.5, 0.5, 1]])
        assert _top_k_means(cond, 2)[0] == 0.5

    def test_mean_of_top_two(self):
        cond = self.cond(
            [
                [1.0, 0.9, 0.1, 0.0],
                [0.9, 1.0, 0.0, 0.0],
                [0.1, 0.0, 1.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )
        assert _top_k_means(cond, 2)[0] == pytest.approx(0.5)

    def test_identity_row_is_zero(self):
        cond = self.cond([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        for k in (1, 2):
            assert _top_k_means(cond, k)[1] == 0.0

    @pytest.mark.parametrize("ties", [False, True])
    @pytest.mark.parametrize("n", [2, 3, 8, 20, 80, 300])
    def test_every_row_equals_the_per_row_oracle(self, n, ties):
        rng = np.random.default_rng(n)
        probs = rng.random((n, n))
        if ties:
            probs = probs.round(1)
        np.fill_diagonal(probs, 1.0)
        cond = CondProbMatrix(probs)
        exclude = range(0, n, 3)
        keep = [j for j in range(n) if j not in exclude]
        for k in sorted({min(max(k, 1), n - 1) for k in (1, 2, 3, 8, 9, n - 1)}):
            expected = [per_row_top_k_mean(probs, j, k) for j in range(n)]
            assert _top_k_means(cond, k).tolist() == expected
            assert _top_k_means(cond, k)[n - 1] == expected[-1]
            result = delta_ap_analysis(np.zeros(n), rng.random(n), cond, k=k, exclude=exclude)
            assert result.class_indices == tuple(keep)
            assert result.top_k_mean.tolist() == [expected[j] for j in keep]

    def test_k_bounds(self):
        cond = self.cond([[1, 0.5], [0.5, 1]])
        with pytest.raises(ValidationError):
            _top_k_means(cond, 2)
        with pytest.raises(ValidationError):
            _top_k_means(cond, 0)
