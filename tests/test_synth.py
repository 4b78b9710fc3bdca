import hashlib

import numpy as np
import pytest
from conftest import first_subject, loop_synthetic_subjects

from labelalign import spd, synth
from labelalign.errors import ConfigError
from labelalign.rng import CounterRng, derive_key, derive_keys
from labelalign.spd import riemannian_distance
from labelalign.synth import (
    SynthConfig,
    generate_synthetic,
    synthetic_parameters,
    synthetic_subjects,
)


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

    @pytest.mark.parametrize("seed", [0, 1, -5, 2**63 + 7, 10**30])
    def test_derive_keys_are_the_derive_key_of_each_index(self, seed):
        keys = derive_keys(seed, "noise", 2, 3, count=300)  # i >= 256 uses a second byte
        assert keys.dtype == np.uint64
        assert keys.tolist() == [derive_key(seed, "noise", 2, 3, i) for i in range(300)]
        assert derive_keys(seed, count=0).shape == (0,)

    def test_array_keys_give_each_key_its_scalar_stream(self):
        keys = derive_keys(12, "rows", count=4)
        rows, singles = CounterRng(keys), [CounterRng(int(k)) for k in keys]
        draws = [("raw", 3), ("raw", 7), ("uniforms", 5), ("normals", 7),
                 ("normal_matrix", 3, 5), ("normals", 4)]
        for method, *args in draws:
            got = getattr(rows, method)(*args)
            assert len(got) == len(keys)
            for row, single in zip(got, singles):
                want = getattr(single, method)(*args)
                assert row.shape == want.shape
                assert row.tobytes() == want.tobytes()


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
        streamed = list(synthetic_subjects(cfg, *synthetic_parameters(cfg)))
        assert len(streamed) == len(data.subjects) == 3
        digest = hashlib.sha256()
        for trials, (again, labels) in zip(data.subjects, streamed):
            assert [t.label for t in trials] == labels.tolist()
            for t, u in zip(trials, again, strict=True):
                assert t.data.tobytes() == u.tobytes()
                digest.update(t.data.tobytes() + bytes([t.label]))
        for m in (*data.prototypes, *data.shifts):
            digest.update(m.tobytes())
        # Pinned bits: any change to the generated values or their order shows here.
        assert digest.hexdigest() == (
            "301627d386437703d446c3ef94ae7ec83f779b86f1bb4c1a6e95b5c5cbe60193"
        )

    @pytest.mark.parametrize("fields,batch", [
        (dict(channels=4, samples=30, trials_per_class=6, noise_df=None), 4),
        (dict(channels=3, samples=7, trials_per_class=5, noise_df=11), 2),  # odd C*T, C*df
        (dict(channels=4, samples=25, trials_per_class=7, noise_df=9), 3),  # 7 = 3 + 3 + 1
        (dict(channels=5, samples=40, trials_per_class=3, noise_df=7), 0),  # over the bound
    ])
    def test_batches_give_the_per_trial_loop_bit_for_bit(self, monkeypatch, fields, batch):
        cfg = SynthConfig(classes=2, subjects=2, class_separation=1.0, subject_shift=0.5,
                          seed=3, **fields)
        words = cfg.channels * max(cfg.samples, cfg.noise_df or 0)  # one trial's draw
        monkeypatch.setattr(spd, "CHUNK_WORDS", batch * words if batch else words // 2)

        def trial_bytes(subjects):
            return [(labels.tolist(), data.shape, data.tobytes()) for data, labels in subjects]

        batched = synthetic_subjects(cfg, *synthetic_parameters(cfg))
        assert trial_bytes(batched) == trial_bytes(loop_synthetic_subjects(cfg))

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

    def test_the_first_subject_draws_only_its_own_shift(self, monkeypatch):
        cfg = SynthConfig(channels=2, samples=2, classes=3, trials_per_class=1,
                          subjects=2**20, class_separation=1.0, subject_shift=0.5, seed=12)
        drawn = []

        def spy(rng, dim):
            drawn.append(dim)
            return direction(rng, dim)

        direction = synth._unit_symmetric_direction
        monkeypatch.setattr(synth, "_unit_symmetric_direction", spy)
        data, labels = first_subject(cfg)
        assert len(drawn) == cfg.classes + 1
        assert labels.tolist() == [0, 1, 2] and data.shape == (3, 2, 2)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SynthConfig(channels=0, samples=10, classes=1, trials_per_class=1,
                        subjects=1, class_separation=0.0, subject_shift=0.0, seed=0)
        with pytest.raises(ConfigError):
            SynthConfig(channels=4, samples=10, classes=1, trials_per_class=1,
                        subjects=1, class_separation=0.0, subject_shift=0.0, seed=0,
                        noise_df=4)

    @pytest.mark.parametrize("field,value", [
        ("samples", 20.0), ("channels", True), ("subjects", "3"), ("seed", 1.0),
        ("seed", None), ("noise_df", 9.5), ("class_separation", True),
    ])
    def test_config_rejects_values_of_the_wrong_type(self, field, value):
        fields = dict(channels=4, samples=10, classes=1, trials_per_class=1, subjects=1,
                      class_separation=0.0, subject_shift=0.0, seed=0, noise_df=8)
        with pytest.raises(ConfigError, match=field):
            SynthConfig(**{**fields, field: value})
