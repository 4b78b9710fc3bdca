import numpy as np
import pytest
from conftest import loop_distance, random_invertible, random_spd

from labelalign.classifiers import (
    lda_fit,
    lda_predict,
    lda_predict_many,
    mdm_fit,
    mdm_predict,
    svm_fit,
    svm_predict,
    svm_predict_many,
)
from labelalign.errors import ConfigError, SingularCovarianceError
from labelalign.features import trial_covariance
from labelalign.spd import riemannian_distance
from labelalign.synth import SynthConfig, generate_synthetic


def symmetric_two_gaussian(rng, n_per_class, separation=2.0, noise=0.5):
    a = rng.standard_normal((n_per_class, 2)) * noise + [separation / 2, 0.0]
    b = rng.standard_normal((n_per_class, 2)) * noise + [-separation / 2, 0.0]
    x = np.vstack([a, b])
    y = np.array([1] * n_per_class + [0] * n_per_class)
    return x, y


class TestLda:
    def test_symmetric_means_boundary(self):
        # Four points per class, isotropic scatter around +/- e1: the
        # boundary is x1 = 0 and (0.5, 7) lands with the +e1 class.
        delta = 0.3
        plus = np.array([[1 + delta, 0], [1 - delta, 0], [1, delta], [1, -delta]])
        minus = -plus
        x = np.vstack([plus, minus])
        y = [1, 1, 1, 1, 0, 0, 0, 0]
        model = lda_fit(x, y)
        assert lda_predict(model, np.array([0.5, 7.0])) == 1
        assert lda_predict(model, np.array([-0.5, 7.0])) == 0

    def test_class_mean_classified_as_class(self):
        rng = np.random.default_rng(71)
        x = rng.standard_normal((40, 3))
        y = [0] * 20 + [1] * 20
        model = lda_fit(x, y)
        for i, c in enumerate(model.classes):
            assert lda_predict(model, model.means[i]) == c

    def test_close_to_bayes_rule_on_gaussian_task(self):
        rng = np.random.default_rng(72)
        mu = np.array([0.8, 0.0])
        x_train, y_train = symmetric_two_gaussian(rng, 100, separation=1.6, noise=1.0)
        model = lda_fit(x_train, y_train)
        x_test, y_test = symmetric_two_gaussian(rng, 1000, separation=1.6, noise=1.0)
        preds = lda_predict_many(model, x_test)
        acc = np.mean(np.asarray(preds) == y_test)
        # Bayes rule for equal isotropic covariances: sign of x . mu.
        bayes = np.where(x_test @ mu > 0, 1, 0)
        bayes_acc = np.mean(bayes == y_test)
        assert abs(acc - bayes_acc) <= 0.02

    def test_affine_invariance_of_predictions(self):
        # Exact for the unregularized rule; use a vanishing ridge so the
        # perturbation is far below any test point's margin.
        rng = np.random.default_rng(73)
        x, y = symmetric_two_gaussian(rng, 50)
        x_test = rng.standard_normal((100, 2)) * 1.5
        base = lda_predict_many(lda_fit(x, y, gamma=1e-12), x_test)
        a = random_invertible(rng, 2)
        b = rng.standard_normal(2)
        mapped = lda_predict_many(lda_fit(x @ a.T + b, y, gamma=1e-12), x_test @ a.T + b)
        assert base == mapped

    def test_constant_features_singular(self):
        x = np.ones((10, 3))
        y = [0] * 5 + [1] * 5
        with pytest.raises(SingularCovarianceError):
            lda_fit(x, y)

    def test_needs_two_classes(self):
        with pytest.raises(ConfigError):
            lda_fit(np.ones((4, 2)), [1, 1, 1, 1])


class TestLinearSvm:
    def test_separable_task_perfect_training_accuracy(self):
        rng = np.random.default_rng(74)
        n = 40
        a = rng.uniform(1.0, 2.0, size=(n, 2)) * [1, 0] + rng.standard_normal((n, 2)) * [0, 1]
        b = -rng.uniform(1.0, 2.0, size=(n, 2)) * [1, 0] + rng.standard_normal((n, 2)) * [0, 1]
        x = np.vstack([a, b])
        y = [1] * n + [0] * n
        model = svm_fit(x, y, seed=5)
        preds = svm_predict_many(model, x)
        assert preds == y

    def test_identical_features_fall_back_to_first_class(self):
        x = np.tile([2.0, -1.0], (10, 1))
        y = [3] * 5 + [7] * 5
        model = svm_fit(x, y, seed=1)
        assert svm_predict(model, x[0]) == 3

    def test_agrees_with_lda_on_gaussian_task(self):
        rng = np.random.default_rng(75)
        x, y = symmetric_two_gaussian(rng, 100, separation=2.0, noise=0.8)
        x_test, y_test = symmetric_two_gaussian(rng, 500, separation=2.0, noise=0.8)
        lda_acc = np.mean(
            np.asarray(lda_predict_many(lda_fit(x, y), x_test)) == y_test
        )
        svm_acc = np.mean(
            np.asarray(svm_predict_many(svm_fit(x, y, seed=2), x_test)) == y_test
        )
        assert abs(lda_acc - svm_acc) <= 0.03

    def test_deterministic_weights_bitwise(self):
        rng = np.random.default_rng(76)
        x, y = symmetric_two_gaussian(rng, 30)
        m1 = svm_fit(x, y, lam=1e-3, epochs=50, seed=9)
        m2 = svm_fit(x, y, lam=1e-3, epochs=50, seed=9)
        for key in m1.weights:
            w1, b1 = m1.weights[key]
            w2, b2 = m2.weights[key]
            assert np.array_equal(w1, w2)
            assert b1 == b2

    def test_multiclass_one_vs_one(self):
        rng = np.random.default_rng(77)
        centers = np.array([[3.0, 0.0], [-3.0, 0.0], [0.0, 3.0]])
        x = np.vstack([c + 0.3 * rng.standard_normal((20, 2)) for c in centers])
        y = [0] * 20 + [1] * 20 + [2] * 20
        model = svm_fit(x, y, seed=4)
        assert len(model.weights) == 3
        preds = svm_predict_many(model, centers)
        assert preds == [0, 1, 2]


class TestMdm:
    def test_class_mean_recovered(self):
        rng = np.random.default_rng(78)
        covs = [random_spd(rng, 4) for _ in range(6)]
        labels = [0, 0, 0, 1, 1, 1]
        model = mdm_fit(covs, labels)
        for c in model.classes:
            assert mdm_predict(model, model.means[c]) == c

    def test_hand_computed_distances(self):
        # d(diag(2,2), I) = sqrt(2) log 2 < d(diag(2,2), diag(9,9)).
        model = mdm_fit([np.eye(2), np.diag([9.0, 9.0])], [0, 1])
        assert mdm_predict(model, np.diag([2.0, 2.0])) == 0

    def test_perfect_on_well_separated_clusters(self):
        cfg = SynthConfig(channels=4, samples=200, classes=2, trials_per_class=20,
                          subjects=1, class_separation=2.0, subject_shift=0.0, seed=11)
        data = generate_synthetic(cfg)
        trials = data.subjects[0]
        covs = [trial_covariance(t.data) for t in trials]
        labels = [t.label for t in trials]
        train_c, train_l = covs[::2], labels[::2]
        test_c, test_l = covs[1::2], labels[1::2]
        model = mdm_fit(train_c, train_l)
        preds = [mdm_predict(model, c) for c in test_c]
        assert preds == test_l

    def test_congruence_invariance_single_trial_means(self):
        # With one covariance per class the class mean is that covariance,
        # so distances (and predictions) are exactly congruence-invariant.
        rng = np.random.default_rng(79)
        covs = [random_spd(rng, 4), random_spd(rng, 4)]
        labels = [0, 1]
        tests = [random_spd(rng, 4) for _ in range(10)]
        model = mdm_fit(covs, labels)
        base = [mdm_predict(model, c) for c in tests]
        w = random_invertible(rng, 4)
        model_t = mdm_fit([w.T @ c @ w for c in covs], labels)
        mapped = [mdm_predict(model_t, w.T @ c @ w) for c in tests]
        assert base == mapped

    def test_congruence_invariance_orthogonal_transform(self):
        # The Log-Euclidean mean commutes with orthogonal congruences, so
        # multi-trial class means stay invariant under channel rotations.
        rng = np.random.default_rng(80)
        covs = [random_spd(rng, 4) for _ in range(8)]
        labels = [0, 1] * 4
        tests = [random_spd(rng, 4) for _ in range(10)]
        model = mdm_fit(covs, labels)
        base = [mdm_predict(model, c) for c in tests]
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        model_t = mdm_fit([q.T @ c @ q for c in covs], labels)
        mapped = [mdm_predict(model_t, q.T @ c @ q) for c in tests]
        assert base == mapped

    def test_stack_prediction_matches_per_matrix_loop(self):
        rng = np.random.default_rng(81)
        covs = np.stack([random_spd(rng, 5) for _ in range(9)])
        model = mdm_fit(covs, [0, 1, 2] * 3)
        tests = np.stack([random_spd(rng, 5) for _ in range(20)])
        means = np.stack([model.means[c] for c in model.classes])
        loops = np.array([[loop_distance(t, m) for m in means] for t in tests])
        batched = riemannian_distance(tests[:, None], means)
        assert np.max(np.abs(batched - loops)) <= 1e-10 * np.max(loops)
        preds = mdm_predict(model, tests)
        assert preds == [model.classes[i] for i in np.argmin(loops, axis=1)]
        assert preds == [mdm_predict(model, t) for t in tests]
