from dataclasses import replace

import numpy as np
import pytest
from conftest import align_sources, first_subject, random_spd, relative_error

from labelalign import spd
from labelalign.alignment import (
    domain,
    ea_reference,
    la_fit,
    la_per_trial,
    match_labels,
    relabel,
    target_roots,
    LabelMapping,
)
from labelalign.errors import (
    CardinalityMismatchError,
    ConfigError,
    MissingClassError,
    UnknownLabelError,
)
from labelalign.experiment import source_view
from labelalign.features import CovStack, covariance_stack, trial_covariance
from labelalign.selection import k_medoids, pairwise_distances
from labelalign.spd import (
    arithmetic_mean_cov,
    log_euclidean_mean,
    riemannian_distance,
    spd_inv_sqrt,
    spd_log,
    spd_sqrt,
)
from labelalign.synth import SynthConfig, generate_synthetic


def stack_of(data, labels=None):
    return covariance_stack(data, labels)


def joined(*subjects):
    """``(data, labels)`` subjects concatenated into one."""
    data, labels = zip(*subjects)
    return np.concatenate(data), np.concatenate(labels)


def inv_roots(stack):
    """Inverse roots of the stack's class means, as a source domain keeps them."""
    return domain(stack, source=True).inv_roots


def roots(means):
    """``{label: Ct^{1/2}}`` of target class means, what :func:`la_fit` takes of a target."""
    return {label: spd_sqrt(mean) for label, mean in means.items()}


def la_apply(transform, stack):
    """Each trial of a source stack moved by its class matrix, as ``align("la")`` does."""
    return stack.transformed(la_per_trial(transform, stack.labels))


def with_logs(d):
    """A domain whose raw and whitened stacks carry their matrix logs."""
    return replace(d, stack=d.stack.with_logs(), ea_stack=d.ea_stack.with_logs())


def in_target_labels(stack, mapping):
    """A source stack relabeled to target labels: the harness's source view."""
    return source_view("s0", stack, mapping)


def random_trials(rng, count, channels, samples, label=0):
    return rng.standard_normal((count, channels, samples)), np.full(count, label)


def trials_with_covariance(rng, cov, count, samples=64, label=None):
    """Distinct trials sharing the exact Gram matrix ``cov``."""
    half = spd_sqrt(cov)
    out = []
    for _ in range(count):
        q, _ = np.linalg.qr(rng.standard_normal((samples, cov.shape[0])))
        out.append(half @ q.T)
    return np.stack(out), None if label is None else np.full(count, label)


class TestMatchLabels:
    def test_partial_overlap_keeps_common_labels(self):
        for seed in range(10):
            mapping = match_labels({1, 2, 3}, {1, 4, 5}, seed=seed)
            assert mapping.as_dict()[1] == 1
            assert sorted(mapping.as_dict()[s] for s in (2, 3)) == [4, 5]

    def test_identical_sets_identity_for_any_seed(self):
        for seed in range(10):
            mapping = match_labels({2, 5, 9}, {2, 5, 9}, seed=seed)
            assert mapping.as_dict() == {2: 2, 5: 5, 9: 9}

    def test_disjoint_sets_deterministic_bijection(self):
        seen = set()
        for seed in range(20):
            mapping = match_labels({1, 2}, {3, 4}, seed=seed)
            again = match_labels({1, 2}, {3, 4}, seed=seed)
            assert mapping == again
            assert mapping.as_dict() in ({1: 3, 2: 4}, {1: 4, 2: 3})
            seen.add(tuple(sorted(mapping.as_dict().items())))
        assert len(seen) == 2  # both bijections reachable across seeds

    def test_cardinality_mismatch(self):
        with pytest.raises(CardinalityMismatchError):
            match_labels({1, 2}, {3}, seed=0)

    def test_duplicate_labels_are_rejected(self):
        with pytest.raises(ConfigError, match=r"duplicate source labels: \(0, 0, 1\)"):
            match_labels([0, 0, 1], [2, 3, 3])
        with pytest.raises(ConfigError, match=r"duplicate target labels: \(2, 3, 3\)"):
            match_labels([0, 1, 2], [2, 3, 3])

    def test_mapping_must_be_bijection(self):
        with pytest.raises(CardinalityMismatchError):
            LabelMapping(((1, 3), (2, 3)))


class TestEuclideanAlignment:
    def test_identity_mean_covariance(self):
        whitener = ea_reference(stack_of(np.eye(2)[None]).covs)
        assert np.allclose(whitener, np.eye(2), atol=1e-12)

    def test_diagonal_reference(self):
        trials = np.diag([2.0, 1.0])[None]  # covariance diag(4, 1)
        whitener = ea_reference(stack_of(trials).covs)
        assert np.allclose(whitener, np.diag([0.5, 1.0]), atol=1e-12)

    def test_reference_whitens_mean(self):
        rng = np.random.default_rng(111)
        covs = stack_of(rng.standard_normal((10, 4, 50))).covs
        r = ea_reference(covs)
        mean = arithmetic_mean_cov(covs)
        assert np.linalg.norm(r @ mean @ r - np.eye(4)) <= 1e-10

    def test_align_identity_transform(self):
        rng = np.random.default_rng(112)
        stack = stack_of(rng.standard_normal((1, 3, 30)), [1])
        out = stack.transformed(np.eye(3))
        assert np.array_equal(out.covs, stack.covs)
        assert out.labels.tolist() == [1]

    def test_aligned_mean_covariance_is_identity(self):
        rng = np.random.default_rng(113)
        stack = stack_of(*random_trials(rng, 12, 4, 60))
        aligned = domain(stack).ea_stack
        mean = arithmetic_mean_cov(aligned.covs)
        assert np.linalg.norm(mean - np.eye(4)) <= 1e-10

    def test_alignment_preserves_pairwise_distances(self):
        rng = np.random.default_rng(114)
        stack = stack_of(*random_trials(rng, 6, 4, 60))
        before = stack.covs
        after = domain(stack).ea_stack.covs
        for i in range(6):
            for j in range(i + 1, 6):
                d0 = riemannian_distance(before[i], before[j])
                d1 = riemannian_distance(after[i], after[j])
                assert abs(d1 - d0) <= 1e-9 * (1.0 + d0)


def medoid_means(stack, k, n_classes):
    """As in a harness unit: the means of the pool's k medoids, labeled (the
    squares of their :func:`target_roots`)."""
    medoids = k_medoids(pairwise_distances(stack.covs), k)
    halves = target_roots(stack.take(medoids), n_classes)
    return None if halves is None else {l: r @ r for l, r in halves.items()}, medoids


class TestTargetMeanEstimation:
    def test_singleton_class_means_are_medoid_covariances(self):
        rng = np.random.default_rng(115)
        pool = np.stack([2.0 * rng.standard_normal((3, 40)), 0.5 * rng.standard_normal((3, 40))])
        labels = [0, 1]
        means, medoids = medoid_means(stack_of(pool, labels), k=2, n_classes=2)
        assert medoids == [0, 1]
        for idx in medoids:
            label = labels[idx]
            assert np.allclose(
                means[label], trial_covariance(pool[idx : idx + 1])[0], atol=1e-9
            )
        assert sorted(means) == [0, 1]

    def test_single_label_coverage_falls_back(self):
        rng = np.random.default_rng(116)
        pool = random_trials(rng, 6, 3, 40)
        means, medoids = medoid_means(stack_of(*pool), k=3, n_classes=2)
        assert means is None
        assert len(medoids) == 3

    def test_estimates_near_generator_prototypes(self):
        cfg = SynthConfig(channels=4, samples=300, classes=2, trials_per_class=15,
                          subjects=1, class_separation=1.0, subject_shift=0.5, seed=13)
        data = generate_synthetic(cfg)
        pool = first_subject(cfg)
        means, _ = medoid_means(stack_of(*pool), k=10, n_classes=2)
        for m in (0, 1):
            # Trial covariances carry the raw Gram scale; divide by the
            # sample count before comparing against the prototype.
            estimate = means[m] / cfg.samples
            truth = data.expected_covariance(0, m)
            assert riemannian_distance(estimate, truth) <= 0.5


class TestLabelAlignment:
    def test_equal_means_give_identity(self):
        rng = np.random.default_rng(117)
        cov = random_spd(rng, 3)
        stack = stack_of(*trials_with_covariance(rng, cov, 3, label=0))
        target = {5: cov}
        mapping = LabelMapping(((0, 5),))
        transform = la_fit(inv_roots(in_target_labels(stack, mapping)), roots(target))
        assert np.allclose(transform[5], np.eye(3), atol=1e-10)

    def test_diagonal_closed_form(self):
        rng = np.random.default_rng(118)
        stack = stack_of(*trials_with_covariance(rng, np.diag([4.0, 1.0]), 2, label=0))
        target = {1: np.diag([1.0, 4.0])}
        transform = la_fit(inv_roots(in_target_labels(stack, LabelMapping(((0, 1),)))),
                           roots(target))
        assert np.allclose(transform[1], np.diag([0.5, 2.0]), atol=1e-10)

    def test_recenters_class_mean_exactly(self):
        rng = np.random.default_rng(119)
        stack = stack_of(*random_trials(rng, 5, 8, 40))
        target_mean = random_spd(rng, 8, scale=0.8)
        target = {2: target_mean}
        mapping = LabelMapping(((0, 2),))
        transform = la_fit(inv_roots(in_target_labels(stack, mapping)), roots(target))
        a = transform[2]
        source_mean = arithmetic_mean_cov(stack.covs)
        gap = a @ source_mean @ a.T - target_mean
        assert np.linalg.norm(gap) <= 1e-9 * np.linalg.norm(target_mean)

    @staticmethod
    def same_covariance_classes(rng):
        """Two classes of four trials, each class sharing one covariance."""
        cov0, cov1 = random_spd(rng, 3), random_spd(rng, 3)
        return joined(trials_with_covariance(rng, cov0, 4, label=0),
                      trials_with_covariance(rng, cov1, 4, label=1))

    @staticmethod
    def dispersed_classes(rng):
        """Two classes of four trials whose covariances scatter about the class."""
        cfg = SynthConfig(channels=6, samples=100, classes=2, trials_per_class=4,
                          subjects=1, class_separation=1.0, subject_shift=0.5,
                          seed=5, noise_df=12)
        return first_subject(cfg)

    def test_align_relabels_and_recenters(self):
        for classes in (self.same_covariance_classes, self.dispersed_classes):
            rng = np.random.default_rng(120)
            trials = classes(rng)
            c = trials[0].shape[1]
            t_means = {7: random_spd(rng, c), 9: random_spd(rng, c)}
            mapping = LabelMapping(((0, 7), (1, 9)))
            stack = in_target_labels(stack_of(*trials), mapping)
            transform = la_fit(inv_roots(stack), roots(t_means))
            aligned = la_apply(transform, stack)
            assert aligned.labels.tolist() == [7] * 4 + [9] * 4
            for label in (7, 9):
                # The arithmetic mean commutes with the congruence, so each
                # aligned class lands on its target mean however its trials scatter.
                mean = arithmetic_mean_cov(aligned.covs[aligned.labels == label])
                assert riemannian_distance(mean, t_means[label]) <= 1e-10

    def test_identity_transform_only_relabels(self):
        rng = np.random.default_rng(121)
        stack = stack_of(rng.standard_normal((1, 2, 20)), [0])
        out = la_apply({4: np.eye(2)}, in_target_labels(stack, LabelMapping(((0, 4),))))
        assert np.array_equal(out.covs, stack.covs)
        assert out.labels.tolist() == [4]

    def test_within_class_distances_preserved(self):
        rng = np.random.default_rng(122)
        stack = in_target_labels(stack_of(*random_trials(rng, 5, 4, 50)), LabelMapping(((0, 1),)))
        target = {1: random_spd(rng, 4)}
        transform = la_fit(inv_roots(stack), roots(target))
        before = stack.covs
        after = la_apply(transform, stack).covs
        for i in range(5):
            for j in range(i + 1, 5):
                d0 = riemannian_distance(before[i], before[j])
                d1 = riemannian_distance(after[i], after[j])
                assert abs(d1 - d0) <= 1e-9 * (1.0 + d0)

    def test_missing_class_errors(self):
        rng = np.random.default_rng(123)
        stack = stack_of(rng.standard_normal((1, 2, 20)), [0])
        source = inv_roots(stack)  # label 0, in target labels
        with pytest.raises(MissingClassError, match="no source trials for label 4") as info:
            la_fit(source, {0: np.eye(2), 4: np.eye(2)})
        assert info.value.label == 4
        with pytest.raises(MissingClassError, match="no target mean for label 9") as info:
            la_fit({**source, 9: np.eye(2)}, {0: np.eye(2)})
        assert info.value.label == 9

    def test_unknown_label_on_align(self):
        rng = np.random.default_rng(124)
        transform = {0: np.eye(2)}
        stray = stack_of(rng.standard_normal((1, 2, 20)), [3])
        with pytest.raises(UnknownLabelError):
            la_apply(transform, stray)

    def test_aligned_covariances_match_aligned_trials(self):
        # A C Aᵀ on the stack is what re-multiplying the raw trials by A
        # and recomputing their covariances gives, scatter included.
        rng = np.random.default_rng(130)
        data, labels = joined(random_trials(rng, 3, 4, 30, label=0),
                              random_trials(rng, 3, 4, 30, label=1))
        means = {5: random_spd(rng, 4), 6: random_spd(rng, 4)}
        mapping = LabelMapping(((0, 5), (1, 6)))
        stack = in_target_labels(covariance_stack(data, labels, scatter=True), mapping)
        transform = la_fit(inv_roots(stack), roots(means))
        aligned = la_apply(transform, stack)
        target_label = mapping.as_dict()
        moved = np.stack([transform[target_label[l]] @ x for x, l in zip(data, labels)])
        reference = covariance_stack(moved, labels, scatter=True)
        assert relative_error(aligned.covs, reference.covs) <= 1e-12
        assert relative_error(aligned.scatter, reference.scatter) <= 1e-12


class TestAlignDispatch:
    def test_raw_without_mapping_echoes(self):
        rng = np.random.default_rng(125)
        source = stack_of(rng.standard_normal((1, 2, 20)), [0])
        target = stack_of(rng.standard_normal((1, 2, 20)), [1])
        sources, aligned_target = align_sources("raw", [domain(source, source=True)],
                                                domain(target))
        assert np.array_equal(sources[0].covs, source.covs)
        assert sources[0].labels.tolist() == [0]
        assert np.array_equal(aligned_target.covs, target.covs)

    def test_raw_with_mapping_relabels_only(self):
        rng = np.random.default_rng(126)
        source = stack_of(rng.standard_normal((1, 2, 20)), [0])
        target = stack_of(rng.standard_normal((1, 2, 20)), [1])
        source_view = in_target_labels(source, LabelMapping(((0, 1),)))
        sources, _ = align_sources("raw", [domain(source_view)], domain(target))
        assert np.array_equal(sources[0].covs, source.covs)
        assert sources[0].labels.tolist() == [1]

    def test_ea_whitens_every_subject(self):
        rng = np.random.default_rng(127)
        subjects = [domain(stack_of(*random_trials(rng, 8, 3, 40))) for _ in range(2)]
        target = domain(stack_of(*random_trials(rng, 8, 3, 40, label=1)))
        sources, aligned_target = align_sources("ea", subjects, target)
        for aligned in [*sources, aligned_target]:
            mean = arithmetic_mean_cov(aligned.covs)
            assert np.linalg.norm(mean - np.eye(3)) <= 1e-9 * 3

    def test_la_dispatch_matches_manual_pipeline(self):
        rng = np.random.default_rng(128)
        source = stack_of(*trials_with_covariance(rng, random_spd(rng, 3), 4, label=0))
        target_mean = random_spd(rng, 3)
        means = {5: target_mean}
        source = in_target_labels(source, LabelMapping(((0, 5),)))
        empty_target = domain(CovStack(np.eye(3)[None], np.array([5])))
        sources, _ = align_sources("la", [domain(source, source=True)], empty_target,
                                   roots(means))
        assert np.linalg.norm(
            log_euclidean_mean(spd_log(sources[0].covs)) - target_mean
        ) <= 1e-8 * np.linalg.norm(target_mean)

    @pytest.mark.parametrize("matrices", [1, 3, 100])  # 7 rows: 7 x 1, 3 + 3 + 1, one chunk
    def test_la_rows_in_chunks_are_the_whole_source_bit_for_bit(self, monkeypatch, matrices):
        rng = np.random.default_rng(134)
        mapping = LabelMapping(((0, 2), (1, 3)))
        sources = []
        for _ in range(2):
            data, labels = joined(random_trials(rng, 4, 3, 30), random_trials(rng, 3, 3, 30, 1))
            stack = covariance_stack(data, labels, scatter=True)
            sources.append(domain(in_target_labels(stack, mapping), source=True))
        halves = roots({2: random_spd(rng, 3), 3: random_spd(rng, 3)})
        target = domain(stack_of(*random_trials(rng, 4, 3, 30, label=2)))
        wholes = [la_apply(la_fit(d.inv_roots, halves), d.stack).with_logs() for d in sources]
        monkeypatch.setattr(spd, "CHUNK_WORDS", matrices * 3 * 3)
        rows, _ = align_sources("la", sources, target, halves, logs=True)
        for got, whole in zip(rows, wholes, strict=True):
            for field_name in ("covs", "scatter", "logs", "labels"):
                assert getattr(got, field_name).tobytes() == getattr(whole, field_name).tobytes()

    def test_domain_keeps_its_whitened_stack(self):
        rng = np.random.default_rng(131)
        stack = covariance_stack(*random_trials(rng, 6, 3, 30, label=0), scatter=True)
        d = domain(stack)
        reference = stack.transformed(ea_reference(stack.covs))
        assert np.array_equal(d.ea_stack.covs, reference.covs)
        assert np.array_equal(d.ea_stack.scatter, reference.scatter)
        assert np.array_equal(d.ea_stack.with_logs().logs, spd_log(reference.covs))
        assert np.array_equal(d.stack.with_logs().logs, spd_log(stack.covs))
        assert d.stack.logs is None and d.ea_stack.logs is None

    def test_ea_and_raw_return_the_domain_stacks(self):
        rng = np.random.default_rng(132)
        mapping = LabelMapping(((0, 1),))
        source_view = in_target_labels(stack_of(*random_trials(rng, 5, 3, 30)), mapping)
        source = with_logs(domain(source_view, source=True))
        target = with_logs(domain(stack_of(*random_trials(rng, 5, 3, 30, label=1))))
        for strategy, view in (("raw", "stack"), ("ea", "ea_stack")):
            sources, aligned_target = align_sources(strategy, [source], target, logs=True)
            assert aligned_target is getattr(target, view)
            assert np.array_equal(sources[0].covs, getattr(source, view).covs)
            assert np.array_equal(sources[0].logs, getattr(source, view).logs)
            assert sources[0].labels.tolist() == [1] * 5

    def test_source_domain_keeps_the_inverse_roots_of_its_class_means(self):
        rng = np.random.default_rng(133)
        stack = stack_of(*joined(random_trials(rng, 4, 3, 30), random_trials(rng, 3, 3, 30, label=2)))
        means = {l: arithmetic_mean_cov(stack.covs[stack.labels == l]) for l in (0, 2)}
        roots = domain(stack, source=True).inv_roots
        assert sorted(roots) == [0, 2]
        for label in roots:
            assert np.array_equal(roots[label], spd_inv_sqrt(means[label]))
        assert domain(stack).inv_roots is None

    def test_relabel_requires_known_labels(self):
        with pytest.raises(UnknownLabelError):
            relabel([9], LabelMapping(((0, 1),)))
