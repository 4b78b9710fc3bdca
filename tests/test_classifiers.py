import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    exact_line_search,
    exact_newton_pair,
    loop_distance,
    loop_lda_scores,
    random_invertible,
    random_spd,
    relative_error,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from labelalign import classifiers, spd
from labelalign.classifiers import (
    LinearSvmModel,
    lda_fit,
    lda_predict_many,
    mdm_fit,
    mdm_predict,
    svm_fit,
    svm_predict_many,
)
from labelalign.errors import (
    ConfigError,
    DimMismatchError,
    NotConvergedError,
    SingularCovarianceError,
)
from labelalign.experiment import ScenarioSpec, run_scenario
from labelalign.features import trial_covariance
from labelalign.spd import riemannian_distance, spd_log
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
        assert lda_predict_many(model, np.array([[0.5, 7.0]])) == [1]
        assert lda_predict_many(model, np.array([[-0.5, 7.0]])) == [0]
        for bad in (np.array([0.5, 7.0]), np.ones((1, 1, 2))):  # rows (n, d) only
            with pytest.raises(DimMismatchError, match=r"expected feature rows \(n, d\)"):
                lda_predict_many(model, bad)
            with pytest.raises(DimMismatchError, match=r"expected feature rows \(n, d\)"):
                lda_fit(bad, [1])

    def test_class_mean_classified_as_class(self):
        rng = np.random.default_rng(71)
        x = rng.standard_normal((40, 3))
        y = [0] * 20 + [1] * 20
        model = lda_fit(x, y)
        for i, c in enumerate(model.classes):
            assert lda_predict_many(model, model.means[i:i + 1]) == [c]

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

    def test_affine_invariance_of_predictions(self, monkeypatch):
        # Exact for the unregularized rule; use a vanishing ridge so the
        # perturbation is far below any test point's margin.
        monkeypatch.setattr(classifiers, "LDA_GAMMA", 1e-12)
        rng = np.random.default_rng(73)
        x, y = symmetric_two_gaussian(rng, 50)
        x_test = rng.standard_normal((100, 2)) * 1.5
        base = lda_predict_many(lda_fit(x, y), x_test)
        a = random_invertible(rng, 2)
        b = rng.standard_normal(2)
        mapped = lda_predict_many(lda_fit(x @ a.T + b, y), x_test @ a.T + b)
        assert base == mapped

    def test_constant_features_singular(self):
        x = np.ones((10, 3))
        y = [0] * 5 + [1] * 5
        with pytest.raises(SingularCovarianceError):
            lda_fit(x, y)

    def test_needs_two_classes(self):
        with pytest.raises(ConfigError):
            lda_fit(np.ones((4, 2)), [1, 1, 1, 1])

    @pytest.mark.parametrize("d", [2, 36, 253])
    def test_scores_match_the_inverse_reference(self, d):
        rng = np.random.default_rng(84)
        y = np.arange(3 * d + 30) % 3
        x = rng.standard_normal((len(y), d)) * rng.uniform(0.1, 10.0, d) + 0.3 * y[:, None]
        x_test = rng.standard_normal((50, d))
        got = classifiers._lda_scores(lda_fit(x, y), x_test)
        expected = loop_lda_scores(x, y, x_test, classifiers.LDA_GAMMA)
        assert relative_error(got, expected) <= 1e-10

    def test_fit_takes_no_eigendecomposition(self, monkeypatch):
        calls = []

        def spy(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", spy)
        rng = np.random.default_rng(85)
        lda_fit(rng.standard_normal((40, 36)), np.arange(40) % 2)
        assert calls == []


class TestLinearSvm:
    def test_separable_task_perfect_training_accuracy(self):
        rng = np.random.default_rng(74)
        n = 40
        a = rng.uniform(1.0, 2.0, size=(n, 2)) * [1, 0] + rng.standard_normal((n, 2)) * [0, 1]
        b = -rng.uniform(1.0, 2.0, size=(n, 2)) * [1, 0] + rng.standard_normal((n, 2)) * [0, 1]
        x = np.vstack([a, b])
        y = [1] * n + [0] * n
        model = svm_fit(x, y)
        preds = svm_predict_many(model, x)
        assert preds == y

    def test_no_newton_step_left_is_not_converged(self, monkeypatch):
        monkeypatch.setattr(classifiers, "SVM_MAX_ITER", 0)
        x, y = symmetric_two_gaussian(np.random.default_rng(79), 10)
        with pytest.raises(NotConvergedError, match=r"^linear SVM: gradient norm \S+ after 0 "
                                                    r"Newton steps \(tolerance \S+\)$"):
            svm_fit(x, y)

    # The arguments of the first line search that returned inf, in the golden
    # run with subject s0 scaled by 10**2.5 under the ambient-coordinate
    # tangent map ref^{1/2} log(...) ref^{1/2}: the first Newton step of the
    # zero model. Every sample leaves the support set along it, and the
    # tangent vectors' scale leaves SVM_LAMBDA ||step_w||^2 at 5e-17 against a
    # data term of 1.75, below its rounding.
    NONFINITE = {key: np.array(values) for key, values in json.loads(
        (Path(__file__).parent / "fixtures" / "nonfinite_line_search.json").read_text()).items()}

    def test_a_curvature_below_the_rounding_gives_the_exact_minimiser(self):
        # The oracle's line search, held to the minimiser of the exact
        # piecewise quadratic, found by bisecting its derivative in rational
        # arithmetic. A slope and curvature taken as running sums cancelled
        # to exactly 0 past the last breakpoint and gave inf.
        assert exact_line_search(**self.NONFINITE) == pytest.approx(
            4.18389960139675, rel=1e-13)

    def test_a_full_step_that_does_not_lower_the_objective_is_halved(self):
        x, y = overshooting_problem()
        # The fit's iterates are the undamped Newton iterates up to the first
        # full step that does not lower the objective; find that step here.
        yx = np.where(y == 1, 1.0, -1.0)[:, None] * np.hstack([x, np.ones((len(y), 1))])
        reg = np.append(np.full(x.shape[1], classifiers.SVM_LAMBDA), 0.0)
        z = np.zeros(x.shape[1] + 1)
        for _ in range(10):
            slack = 1.0 - yx @ z
            xs = yx[slack > 0.0]
            grad = reg * z - 2.0 / len(y) * (slack[slack > 0.0] @ xs)
            step = -np.linalg.solve(2.0 / len(y) * (xs.T @ xs) + np.diag(reg), grad)
            if svm_objective(yx, z + step) >= svm_objective(yx, z):
                break
            z = z + step
        assert svm_objective(yx, z + step) > 5.0 * svm_objective(yx, z)
        model = svm_fit(x, y)
        assert max_gradient_norm(model, x, y) <= 1e-8
        assert exact_newton_error(model, x, y) <= 1e-9

    def test_a_non_finite_step_is_not_converged_at_once(self, monkeypatch):
        calls = []

        def solve(a, b):
            calls.append(b)
            return np.full_like(b, np.nan) if len(calls) == 3 else real_solve(a, b)

        real_solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", solve)
        x, y = symmetric_two_gaussian(np.random.default_rng(66), 10)
        with pytest.raises(NotConvergedError, match=r"^linear SVM: Newton step 2 is not "
                                                    r"finite; the features are too badly scaled$"):
            svm_fit(x, y)
        assert len(calls) == 3

    def test_identical_features_fall_back_to_first_class(self):
        x = np.tile([2.0, -1.0], (10, 1))
        y = [3] * 5 + [7] * 5
        model = svm_fit(x, y)
        assert svm_predict_many(model, x[:1]) == [3]
        for bad in (x[0], x[None]):  # rows (n, d) only
            with pytest.raises(DimMismatchError, match=r"expected feature rows \(n, d\)"):
                svm_predict_many(model, bad)
            with pytest.raises(DimMismatchError, match=r"expected feature rows \(n, d\)"):
                svm_fit(bad, y[:len(bad)])

    def test_agrees_with_lda_on_gaussian_task(self):
        rng = np.random.default_rng(75)
        x, y = symmetric_two_gaussian(rng, 100, separation=2.0, noise=0.8)
        x_test, y_test = symmetric_two_gaussian(rng, 500, separation=2.0, noise=0.8)
        lda_acc = np.mean(
            np.asarray(lda_predict_many(lda_fit(x, y), x_test)) == y_test
        )
        svm_acc = np.mean(
            np.asarray(svm_predict_many(svm_fit(x, y), x_test)) == y_test
        )
        assert abs(lda_acc - svm_acc) <= 0.03

    def test_deterministic_weights_bitwise(self):
        rng = np.random.default_rng(76)
        x, y = symmetric_two_gaussian(rng, 30)
        m1 = svm_fit(x, y)
        m2 = svm_fit(x, y)
        assert np.array_equal(m1.coef, m2.coef)
        assert np.array_equal(m1.intercept, m2.intercept)

    def test_multiclass_one_vs_one(self):
        rng = np.random.default_rng(77)
        centers = np.array([[3.0, 0.0], [-3.0, 0.0], [0.0, 3.0]])
        x = np.vstack([c + 0.3 * rng.standard_normal((20, 2)) for c in centers])
        y = [0] * 20 + [1] * 20 + [2] * 20
        model = svm_fit(x, y)
        assert model.coef.shape == (2, 3)
        preds = svm_predict_many(model, centers)
        assert preds == [0, 1, 2]

    def test_gradient_vanishes_on_random_problems(self):
        for x, y in random_problems():
            model = svm_fit(x, y)
            assert max_gradient_norm(model, x, y) <= 1e-8

    def test_agrees_with_the_exact_line_search_on_random_problems(self):
        for x, y in random_problems():
            assert exact_newton_error(svm_fit(x, y), x, y) <= 1e-9

    def test_newton_step_from_an_empty_support_set(self):
        # On these separated clusters one iterate has every margin >= 1, so
        # the generalized Hessian has no curvature along the bias there.
        rng = np.random.default_rng(4)
        x = np.vstack([rng.standard_normal((4, 2)) + 3, rng.standard_normal((4, 2)) - 3])
        y = [0] * 4 + [1] * 4
        model = svm_fit(x, y)
        assert max_gradient_norm(model, x, y) <= 1e-8
        assert svm_predict_many(model, x) == y

    def test_gradient_vanishes_on_every_fit_of_a_benchmark_run(self, benchmark_fits):
        norms = [max_gradient_norm(model, x, y) for x, y, model in benchmark_fits]
        assert max(norms) <= 1e-8

    def test_agrees_with_the_exact_line_search_on_every_fit_of_a_benchmark_run(
            self, benchmark_fits):
        assert max(exact_newton_error(model, x, y) for x, y, model in benchmark_fits) <= 1e-9

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_row_order_does_not_change_weights(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((24, 5))
        y = np.arange(24) % 3
        x[:, 0] += y
        order = rng.permutation(24)
        m1, m2 = svm_fit(x, y), svm_fit(x[order], y[order])
        assert np.max(np.abs(m1.coef - m2.coef)) <= 1e-9
        assert np.max(np.abs(m1.intercept - m2.intercept)) <= 1e-9

    def test_three_class_ties_go_to_the_earliest_class(self):
        rng = np.random.default_rng(83)
        model = LinearSvmModel(
            classes=(4, 7, 9),
            pairs=np.array([[0, 1], [0, 2], [1, 2]]),
            coef=rng.standard_normal((2, 3)),
            intercept=rng.standard_normal(3),
        )
        x = rng.standard_normal((400, 2)) * 5.0
        expected, ties = [], 0
        for row in x:
            votes = [0, 0, 0]
            for p, (a, b) in enumerate(model.pairs):
                votes[b if row @ model.coef[:, p] + model.intercept[p] > 0.0 else a] += 1
            ties += max(votes) == 1
            expected.append(model.classes[votes.index(max(votes))])
        assert ties > 0
        assert svm_predict_many(model, x) == expected


def max_gradient_norm(model, features, labels) -> float:
    """Largest norm of the full gradient (w and bias) of a pairwise objective
    SVM_LAMBDA/2 ||w||^2 + mean(max(0, 1 - y (w . x + b))^2) at the fitted model."""
    x, labels = np.asarray(features), np.asarray(labels)
    norms = []
    for p, (ai, bi) in enumerate(model.pairs):
        rows = np.isin(labels, [model.classes[ai], model.classes[bi]])
        y = np.where(labels[rows] == model.classes[bi], 1.0, -1.0)
        x1 = np.hstack([x[rows], np.ones((len(y), 1))])
        z = np.append(model.coef[:, p], model.intercept[p])
        slack = np.maximum(0.0, 1.0 - y * (x1 @ z))
        grad = np.append(classifiers.SVM_LAMBDA * z[:-1], 0.0) - 2.0 / len(y) * ((y * slack) @ x1)
        norms.append(np.linalg.norm(grad))
    return max(norms)


def svm_objective(yx, z) -> float:
    """SVM_LAMBDA/2 ||w||^2 + mean(max(0, 1 - y (w . x + b))^2) at z = [w, b],
    from the design rows ``yx`` = y [x, 1]."""
    hinge = np.maximum(1.0 - yx @ z, 0.0)
    return classifiers.SVM_LAMBDA / 2.0 * (z[:-1] @ z[:-1]) + (hinge @ hinge) / len(hinge)


def overshooting_problem():
    """Two shifted Gaussian classes of 6 rows in 2 dimensions, one row scaled
    by 8: an outlier that makes the full Newton step overshoot at step 3, and
    on which undamped Newton iterates without converging."""
    rng = np.random.default_rng(28)
    x = rng.standard_normal((12, 2))
    y = np.arange(12) % 2
    x[:, 0] += 2 * y - 1
    x[rng.integers(12)] *= 8
    return x, y


def random_problems():
    """Feature rows and labels of four random SVM problems, 2 to 4 classes."""
    rng = np.random.default_rng(82)
    for n, d, classes in [(30, 3, 2), (40, 10, 3), (25, 40, 2), (60, 21, 4)]:
        x = rng.standard_normal((n, d)) * rng.uniform(0.1, 100.0)
        y = np.arange(n) % classes
        x += 0.5 * y[:, None]
        yield x, y


def exact_newton_error(model, features, labels) -> float:
    """Largest relative error of a fitted model's pairs [w, b] against
    :func:`exact_newton_pair` on the same rows."""
    x, labels = np.asarray(features), np.asarray(labels)
    return max(
        relative_error(np.append(model.coef[:, p], model.intercept[p]), exact_newton_pair(
            x, labels == model.classes[a], labels == model.classes[b]))
        for p, (a, b) in enumerate(model.pairs)
    )


@pytest.fixture(scope="module")
def benchmark_fits():
    """Every svm_fit of loso-c8-full at its confirmation seed, in memory, as
    (features, labels, model)."""
    workloads = load_benchmark_workloads()
    w = workloads.WORKLOADS["loso-c8-full"]
    fits = []

    def fit_spy(features, labels, *args, **kwargs):
        model = svm_fit(features, labels, *args, **kwargs)
        # The unit's next cell rewrites the buffers that these rows view.
        fits.append((np.array(features), np.array(labels), model))
        return model

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(classifiers, "svm_fit", fit_spy)
        seed = workloads.CONFIRM_SEED
        run_scenario(ScenarioSpec(
            source_labels=workloads.SOURCE_LABELS,
            target_labels=workloads.TARGET_LABELS,
            strategies=w.strategies,
            pipelines=("ts-svm",),  # the other pipelines never reach svm_fit
            k_grid=w.k_grid,
            seed=seed,
            synth=SynthConfig(**w.synth_fields(seed)),
        ))
    assert len(fits) == w.subjects * len(w.k_grid) * len(w.strategies)
    return fits


def load_benchmark_workloads():
    """The benchmark's workload table, read from its file."""
    path = Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve annotations there
    spec.loader.exec_module(module)
    return module


class TestMdm:
    def test_class_mean_recovered(self):
        rng = np.random.default_rng(78)
        covs = [random_spd(rng, 4) for _ in range(6)]
        labels = [0, 0, 0, 1, 1, 1]
        model = mdm_fit(spd_log(covs), labels)
        assert mdm_predict(model, model.means) == list(model.classes)

    def test_hand_computed_distances(self):
        # d(diag(2,2), I) = sqrt(2) log 2 < d(diag(2,2), diag(9,9)).
        model = mdm_fit(spd_log([np.eye(2), np.diag([9.0, 9.0])]), [0, 1])
        assert mdm_predict(model, np.diag([2.0, 2.0])[None]) == [0]
        with pytest.raises(DimMismatchError, match="mdm_predict: expected a stack"):
            mdm_predict(model, np.diag([2.0, 2.0]))  # one matrix is not a stack

    def test_perfect_on_well_separated_clusters(self):
        cfg = SynthConfig(channels=4, samples=200, classes=2, trials_per_class=20,
                          subjects=1, class_separation=2.0, subject_shift=0.0, seed=11)
        data = generate_synthetic(cfg)
        trials = data.subjects[0]
        covs = trial_covariance(np.stack([t.data for t in trials]))
        labels = [t.label for t in trials]
        train_c, train_l = covs[::2], labels[::2]
        test_c, test_l = covs[1::2], labels[1::2]
        model = mdm_fit(spd_log(train_c), train_l)
        preds = mdm_predict(model, test_c)
        assert preds == test_l

    def test_congruence_invariance_single_trial_means(self):
        # With one covariance per class the class mean is that covariance,
        # so distances (and predictions) are exactly congruence-invariant.
        rng = np.random.default_rng(79)
        covs = [random_spd(rng, 4), random_spd(rng, 4)]
        labels = [0, 1]
        tests = [random_spd(rng, 4) for _ in range(10)]
        model = mdm_fit(spd_log(covs), labels)
        base = mdm_predict(model, tests)
        w = random_invertible(rng, 4)
        model_t = mdm_fit(spd_log([w.T @ c @ w for c in covs]), labels)
        mapped = mdm_predict(model_t, [w.T @ c @ w for c in tests])
        assert base == mapped

    def test_congruence_invariance_orthogonal_transform(self):
        # The Log-Euclidean mean commutes with orthogonal congruences, so
        # multi-trial class means stay invariant under channel rotations.
        rng = np.random.default_rng(80)
        covs = [random_spd(rng, 4) for _ in range(8)]
        labels = [0, 1] * 4
        tests = [random_spd(rng, 4) for _ in range(10)]
        model = mdm_fit(spd_log(covs), labels)
        base = mdm_predict(model, tests)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        model_t = mdm_fit(spd_log([q.T @ c @ q for c in covs]), labels)
        mapped = mdm_predict(model_t, [q.T @ c @ q for c in tests])
        assert base == mapped

    def test_stack_prediction_matches_per_matrix_loop(self):
        rng = np.random.default_rng(81)
        covs = np.stack([random_spd(rng, 5) for _ in range(9)])
        model = mdm_fit(spd_log(covs), [0, 1, 2] * 3)
        tests = np.stack([random_spd(rng, 5) for _ in range(20)])
        means = model.means
        loops = np.array([[loop_distance(t, m) for m in means] for t in tests])
        batched = riemannian_distance(tests[:, None], means)
        assert np.max(np.abs(batched - loops)) <= 1e-10 * np.max(loops)
        preds = mdm_predict(model, tests)
        assert preds == [model.classes[i] for i in np.argmin(loops, axis=1)]
        assert preds == [mdm_predict(model, t[None])[0] for t in tests]

    def test_prediction_factors_only_the_class_means(self, monkeypatch):
        rng = np.random.default_rng(86)
        model = mdm_fit(spd_log(np.stack([random_spd(rng, 5) for _ in range(9)])), [0, 1, 2] * 3)
        tests = np.stack([random_spd(rng, 5) for _ in range(20)])
        expected = mdm_predict(model, tests)
        factored = []

        def spy(p):
            factored.append(int(np.prod(np.shape(p)[:-2])))
            return inv_sqrt(p)

        inv_sqrt = spd.spd_inv_sqrt
        monkeypatch.setattr(spd, "spd_inv_sqrt", spy)
        assert mdm_predict(model, tests) == expected
        assert factored == [3]
