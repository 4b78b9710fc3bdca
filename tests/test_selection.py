import itertools

import numpy as np
import pytest
from conftest import (
    first_subject,
    loop_distance,
    random_spd,
    reference_pam,
    relative_error,
    total_cost,
)

from labelalign.errors import DimMismatchError, KTooLargeError, NonFiniteError
from labelalign.features import trial_covariance
from labelalign.selection import k_medoids, pairwise_distances
from labelalign.spd import CHUNK_WORDS, riemannian_distance
from labelalign.synth import SynthConfig


def random_distance_matrix(rng, n):
    a = rng.uniform(0.1, 2.0, size=(n, n))
    d = 0.5 * (a + a.T)
    np.fill_diagonal(d, 0.0)
    return d


def tied_distance_matrix(rng, n):
    """Distances between points on a 0.1 grid, so with many exact ties."""
    x = np.round(rng.uniform(0.0, 2.0, size=(n, 2)), 1)
    return np.sqrt(((x[:, None] - x[None]) ** 2).sum(axis=-1))


def equal_distance_matrix(rng, n):
    """Every distance between two points ties."""
    return 1.0 - np.eye(n)


def geodesic_distance_matrix(rng, n):
    """The geodesic distances of a generated subject's trial covariances."""
    cfg = SynthConfig(channels=6, samples=40, classes=2, trials_per_class=n // 2 + 1,
                      subjects=1, class_separation=1.0, subject_shift=0.5,
                      seed=int(rng.integers(1 << 30)), noise_df=12)
    data, _ = first_subject(cfg)
    return pairwise_distances(trial_covariance(data[:n]))


def exhaustive_optimum(d, k):
    n = d.shape[0]
    return min(total_cost(d, combo) for combo in itertools.combinations(range(n), k))


class TestPairwiseDistances:
    def test_single_matrix(self):
        d = pairwise_distances([np.eye(3)])
        assert d.shape == (1, 1)
        assert d[0, 0] == 0.0

    def test_duplicate_matrices(self):
        rng = np.random.default_rng(61)
        p = random_spd(rng, 4)
        d = pairwise_distances([p, p])
        assert np.max(np.abs(d)) <= 1e-10

    def test_matches_per_pair_calls(self):
        rng = np.random.default_rng(62)
        covs = [random_spd(rng, 4) for _ in range(5)]
        d = pairwise_distances(covs)
        for i in range(5):
            for j in range(5):
                expected = riemannian_distance(covs[i], covs[j]) if i != j else 0.0
                assert d[i, j] == pytest.approx(expected, abs=1e-12)
        assert np.array_equal(d, d.T)

    def test_matches_per_pair_loop(self):
        rng = np.random.default_rng(69)
        covs = np.stack([random_spd(rng, 8) for _ in range(12)])
        expected = np.zeros((12, 12))
        for i in range(12):
            for j in range(i + 1, 12):
                expected[i, j] = expected[j, i] = loop_distance(covs[i], covs[j])
        assert relative_error(pairwise_distances(covs), expected) <= 1e-10


    def test_rows_equal_the_per_row_distance_bitwise(self):
        # The medoids depend on exact ties and orderings of these values.
        rng = np.random.default_rng(70)
        covs = np.stack([random_spd(rng, 22) for _ in range(30)])
        d = pairwise_distances(covs)
        for i in range(29):
            assert np.array_equal(d[i, i + 1 :], riemannian_distance(covs[i], covs[i + 1 :]))

    @pytest.mark.parametrize(("n", "dim"), [
        pytest.param(2, 8, id="one-pair"),
        pytest.param(3, 8, id="one-chunk"),
        pytest.param(40, 8, id="c8"),  # 256 whitened 8 x 8 matrices fill a chunk
        pytest.param(32, 16, id="c16"),
        pytest.param(96, 22, id="c22"),  # 33 matrices of 22 x 22 fill a chunk
    ])
    def test_pair_chunks_equal_the_per_pair_distance_bitwise(self, monkeypatch, n, dim):
        rng = np.random.default_rng(71)
        covs = np.stack([random_spd(rng, dim) for _ in range(n)])
        expected = np.zeros((n, n))
        for i, j in zip(*np.triu_indices(n, 1)):
            expected[i, j] = riemannian_distance(covs[i], covs[j])
        calls = []  # the matrices of each eigvalsh call
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(len(a)) or eigvalsh(a))
        d = pairwise_distances(covs)
        assert d.tobytes() == (expected + expected.T).tobytes()
        fits = CHUNK_WORDS // (dim * dim)
        assert sum(calls) == n * (n - 1) // 2 and max(calls) <= fits
        assert calls[:-1] == [fits] * (len(calls) - 1)


class TestKMedoids:
    def test_k_equals_n(self):
        rng = np.random.default_rng(63)
        d = random_distance_matrix(rng, 5)
        assert k_medoids(d, 5) == [0, 1, 2, 3, 4]

    def test_one_medoid_by_brute_force(self):
        rng = np.random.default_rng(64)
        for _ in range(10):
            d = random_distance_matrix(rng, 12)
            expected = int(np.argmin(d.sum(axis=1)))
            assert k_medoids(d, 1) == [expected]

    def test_matches_exhaustive_optimum_on_small_instances(self):
        rng = np.random.default_rng(65)
        misses = 0
        for trial in range(20):
            n = int(rng.integers(4, 8))
            k = int(rng.integers(1, 4))
            d = random_distance_matrix(rng, n)
            got = total_cost(d, k_medoids(d, k))
            best = exhaustive_optimum(d, k)
            assert got <= best * 1.05 + 1e-12
            if got > best + 1e-9:
                misses += 1
        assert misses <= 1  # >= 95% of 20 instances exactly optimal

    def test_deterministic(self):
        rng = np.random.default_rng(66)
        d = random_distance_matrix(rng, 15)
        assert k_medoids(d, 4) == k_medoids(d, 4)

    def test_local_optimum_no_improving_swap(self):
        rng = np.random.default_rng(67)
        d = random_distance_matrix(rng, 12)
        medoids = k_medoids(d, 3)
        cost = total_cost(d, medoids)
        for mi in range(3):
            for h in range(12):
                if h in medoids:
                    continue
                swapped = medoids.copy()
                swapped[mi] = h
                assert total_cost(d, swapped) >= cost - 1e-12

    def test_output_indices_valid(self):
        rng = np.random.default_rng(68)
        d = random_distance_matrix(rng, 9)
        medoids = k_medoids(d, 4)
        assert medoids == sorted(medoids)
        assert len(set(medoids)) == 4
        assert all(0 <= m < 9 for m in medoids)

    @pytest.mark.parametrize("matrix", [random_distance_matrix, tied_distance_matrix,
                                        equal_distance_matrix, geodesic_distance_matrix])
    @pytest.mark.parametrize("n", [2, 3, 9, 24, 41])
    def test_equals_the_reference_pam_at_every_k(self, matrix, n):
        d = matrix(np.random.default_rng(n), n)
        for k in range(1, n + 1):
            assert k_medoids(d, k) == reference_pam(d, k), k

    @pytest.mark.parametrize(("d", "error"), [
        (np.zeros((2, 3)), DimMismatchError),
        (np.zeros(3), DimMismatchError),
        (np.array([[0.0, np.nan], [np.nan, 0.0]]), NonFiniteError),
        (np.array([[0.0, np.inf], [np.inf, 0.0]]), NonFiniteError),
    ])
    def test_a_matrix_that_is_not_square_and_finite_is_refused(self, d, error):
        with pytest.raises(error, match="distance matrix"):
            k_medoids(d, 1)

    def test_k_out_of_range(self):
        d = np.zeros((3, 3))
        with pytest.raises(KTooLargeError):
            k_medoids(d, 4)
        with pytest.raises(KTooLargeError):
            k_medoids(d, 0)
