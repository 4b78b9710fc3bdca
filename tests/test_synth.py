import hashlib

import numpy as np
import pytest

from labelalign.errors import ConfigError
from labelalign.rng import CounterRng, derive_key
from labelalign.spd import riemannian_distance
from labelalign.synth import SynthConfig, generate_synthetic, synthetic_subjects


def frob(a):
    return float(np.linalg.norm(a, "fro"))


class TestCounterRng:
    def test_values_are_pure_functions_of_index(self):
        a = CounterRng(42)
        first = a.raw(10)
        b = CounterRng(42)
        chunks = np.concatenate([b.raw(3), b.raw(7)])
        assert np.array_equal(first, chunks)

    def test_uniform_range_and_moments(self):
        u = CounterRng(7).uniforms(20000)
        assert np.all((0.0 <= u) & (u < 1.0))
        assert np.mean(u) == pytest.approx(0.5, abs=0.01)
        assert np.var(u) == pytest.approx(1.0 / 12.0, abs=0.005)

    def test_normal_moments(self):
        z = CounterRng(8).normals(20001)  # odd count exercises the tail cut
        assert np.mean(z) == pytest.approx(0.0, abs=0.03)
        assert np.std(z) == pytest.approx(1.0, abs=0.03)

    def test_permutation_is_a_permutation(self):
        perm = CounterRng(9).permutation(100)
        assert sorted(perm.tolist()) == list(range(100))
        assert np.array_equal(perm, CounterRng(9).permutation(100))

    def test_derive_key_distinct_streams(self):
        keys = {
            derive_key(1, "a"),
            derive_key(1, "b"),
            derive_key(2, "a"),
            derive_key(1, "a", 0),
            derive_key(1, "a", 1),
        }
        assert len(keys) == 5

    def test_derive_key_rejects_other_types(self):
        with pytest.raises(TypeError):
            derive_key(1.5)


class TestGenerator:
    def test_deterministic_given_seed(self):
        cfg = SynthConfig(channels=3, samples=40, classes=2, trials_per_class=4,
                          subjects=2, class_separation=1.0, subject_shift=0.5, seed=5)
        d1 = generate_synthetic(cfg)
        d2 = generate_synthetic(cfg)
        for t1, t2 in zip(d1.subjects[0], d2.subjects[0]):
            assert np.array_equal(t1.data, t2.data)
        for p1, p2 in zip(d1.prototypes, d2.prototypes):
            assert np.array_equal(p1, p2)

    def test_dataset_is_the_per_subject_generator_output(self):
        cfg = SynthConfig(channels=3, samples=20, classes=2, trials_per_class=3, subjects=3,
                          class_separation=1.0, subject_shift=0.5, seed=4, noise_df=5)
        data = generate_synthetic(cfg)
        streamed = list(synthetic_subjects(cfg))
        assert len(streamed) == len(data.subjects) == 3
        digest = hashlib.sha256()
        for trials, again in zip(data.subjects, streamed):
            assert [t.label for t in trials] == [t.label for t in again]
            for t, u in zip(trials, again, strict=True):
                assert t.data.tobytes() == u.data.tobytes()
                digest.update(t.data.tobytes() + bytes([t.label]))
        for m in (*data.prototypes, *data.shifts):
            digest.update(m.tobytes())
        # Pinned bits: any change to the generated values or their order shows here.
        assert digest.hexdigest() == (
            "301627d386437703d446c3ef94ae7ec83f779b86f1bb4c1a6e95b5c5cbe60193"
        )

    def test_no_shift_no_separation_gives_identity_covariances(self):
        cfg = SynthConfig(channels=4, samples=300, classes=2, trials_per_class=5,
                          subjects=2, class_separation=0.0, subject_shift=0.0, seed=6)
        data = generate_synthetic(cfg)
        for s in range(2):
            for m in range(2):
                assert np.allclose(data.expected_covariance(s, m), np.eye(4))
        for t in data.subjects[0]:
            emp = t.data @ t.data.T / cfg.samples
            assert frob(emp - np.eye(4)) <= 0.2 * cfg.channels

    def test_prototypes_separated(self):
        cfg = SynthConfig(channels=4, samples=30, classes=2, trials_per_class=2,
                          subjects=1, class_separation=1.0, subject_shift=0.0, seed=7)
        data = generate_synthetic(cfg)
        assert riemannian_distance(data.prototypes[0], data.prototypes[1]) > 0.0

    def test_empirical_class_covariance_converges(self):
        cfg = SynthConfig(channels=4, samples=300, classes=1, trials_per_class=100,
                          subjects=1, class_separation=1.0, subject_shift=0.8, seed=8)
        data = generate_synthetic(cfg)
        expected = data.expected_covariance(0, 0)
        emp = np.mean([t.data @ t.data.T for t in data.subjects[0]], axis=0) / cfg.samples
        assert frob(emp - expected) / frob(expected) <= 0.1

    def test_dispersion_preserves_expected_covariance(self):
        cfg = SynthConfig(channels=4, samples=300, classes=1, trials_per_class=200,
                          subjects=1, class_separation=1.0, subject_shift=0.5, seed=9,
                          noise_df=64)
        data = generate_synthetic(cfg)
        expected = data.expected_covariance(0, 0)
        emp = np.mean([t.data @ t.data.T for t in data.subjects[0]], axis=0) / cfg.samples
        assert frob(emp - expected) / frob(expected) <= 0.15

    def test_dispersion_actually_disperses(self):
        base = dict(channels=4, samples=300, classes=1, trials_per_class=30,
                    subjects=1, class_separation=1.0, subject_shift=0.0, seed=10)
        tight = generate_synthetic(SynthConfig(**base))
        loose = generate_synthetic(SynthConfig(**base, noise_df=8 + 1))

        def spread(data):
            covs = [t.data @ t.data.T / 300 for t in data.subjects[0]]
            proto = data.prototypes[0]
            return np.mean([riemannian_distance(c, proto) for c in covs])

        assert spread(loose) > 2.0 * spread(tight)

    def test_subject_shift_norm(self):
        cfg = SynthConfig(channels=5, samples=30, classes=1, trials_per_class=1,
                          subjects=3, class_separation=0.0, subject_shift=0.7, seed=11)
        data = generate_synthetic(cfg)
        from labelalign.spd import spd_log

        for w in data.shifts:
            assert frob(spd_log(w.T @ w)) == pytest.approx(2 * 0.7, abs=1e-9)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SynthConfig(channels=0, samples=10, classes=1, trials_per_class=1,
                        subjects=1, class_separation=0.0, subject_shift=0.0, seed=0)
        with pytest.raises(ConfigError):
            SynthConfig(channels=4, samples=10, classes=1, trials_per_class=1,
                        subjects=1, class_separation=0.0, subject_shift=0.0, seed=0,
                        noise_df=4)
