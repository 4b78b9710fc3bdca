import hashlib
import re
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from conftest import random_invertible, random_spd, read_subject, tangent_unmap, traced_peak

from labelalign import spd
from labelalign.dataio import (
    HEADER_SIZE,
    load_manifest,
    read_trial_blocks,
    read_trials,
    write_labels,
    write_manifest,
    write_trials,
)
from labelalign.errors import (
    BadMagicError,
    ConfigError,
    DataError,
    DegenerateCovarianceError,
    DimMismatchError,
    NonFinitePayloadError,
    NotPositiveDefiniteError,
    TruncatedPayloadError,
)
from labelalign.experiment import subject_stack
from labelalign.features import (
    CovStack,
    covariance_stack,
    csp_features,
    csp_fit,
    trial_covariance,
    ts_features,
)
from labelalign.spd import riemannian_distance, spd_from_matrix, spd_inv_sqrt, spd_log


class TestTrialCovariance:
    def test_identity_trial(self):
        assert np.array_equal(trial_covariance(np.eye(2)[None]), np.eye(2)[None])

    def test_rank_deficient_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            trial_covariance(np.array([[[1.0, 1.0], [0.0, 0.0]]]), shrinkage=0.0)

    def test_shrinkage_repairs_rank_deficiency(self):
        c = trial_covariance(np.array([[[1.0, 1.0], [0.0, 0.0]]]), shrinkage=0.1)
        assert np.min(np.linalg.eigvalsh(c)) > 0.0

    def test_against_naive_gram(self):
        rng = np.random.default_rng(41)
        x = rng.standard_normal((4, 300))
        naive = np.zeros((4, 4))
        for i in range(4):
            for j in range(4):
                naive[i, j] = float(np.dot(x[i], x[j]))
        c = trial_covariance(x[None])[0]
        assert np.max(np.abs(c - naive)) / np.max(np.abs(naive)) <= 1e-12

    def test_bad_shrinkage(self):
        with pytest.raises(ConfigError):
            trial_covariance(np.eye(2)[None], shrinkage=1.0)

    def test_stack_is_bitwise_the_per_trial_covariances(self):
        rng = np.random.default_rng(52)
        x = rng.standard_normal((6, 5, 40))
        for shrinkage in (0.0, 0.2):
            expected = np.concatenate([trial_covariance(t[None], shrinkage) for t in x])
            assert np.array_equal(trial_covariance(x, shrinkage), expected)

    def test_degenerate_trial_of_a_stack_is_named(self):
        rng = np.random.default_rng(53)
        x = rng.standard_normal((4, 3, 30))
        x[2, 1] = 0.0  # one all-zero channel
        with pytest.raises(NotPositiveDefiniteError, match="trial 2: smallest eigenvalue"):
            trial_covariance(x)

    def test_covariance_stack_keeps_labels_and_scatter(self):
        rng = np.random.default_rng(54)
        trials, labels = rng.standard_normal((3, 3, 20)), [0, 1, 1]
        stack = covariance_stack(trials, labels, scatter=True)
        assert stack.labels.tolist() == [0, 1, 1]
        assert np.array_equal(stack.covs[1:2], trial_covariance(trials[1:2]))
        assert np.array_equal(stack.scatter[2], whole_stack_scatter(trials[2]))
        assert covariance_stack(trials, labels).scatter is None
        assert covariance_stack(trials, None).labels is None

    def test_covariance_stack_checks_the_label_count(self):
        trials = np.ones((1, 1, 2))
        with pytest.raises(DimMismatchError, match="^1 trials but 2 labels$"):
            covariance_stack(trials, [1, 2])
        with pytest.raises(DimMismatchError, match="^subject s1, 1 trials but 2 labels$"):
            subject_stack("s1", (trials, [1, 2]))


def whole_stack_covariance(x, shrinkage):
    """The estimator as one product over the stacked trials, the reference
    for the chunked one."""
    c = x @ np.swapaxes(x, -1, -2)
    if shrinkage > 0.0:
        trace = np.trace(c, axis1=-2, axis2=-1)[..., None, None]
        c = (1.0 - shrinkage) * c + shrinkage * (trace / c.shape[-1]) * np.eye(c.shape[-1])
    return spd_from_matrix(c, name="trial")


def whole_stack_scatter(x):
    centred = x - x.mean(axis=-1, keepdims=True)
    return centred @ np.swapaxes(centred, -1, -2)


def same_bytes(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestChunkedCovariances:
    """Covariances are estimated in chunks of at most ``spd.CHUNK_WORDS`` values
    and equal the whole-stack products byte for byte."""

    C, T = 3, 20

    @pytest.mark.parametrize("words", [
        pytest.param(None, id="default"),
        pytest.param(C * T, id="one-trial-chunks"),
        pytest.param(3 * C * T, id="uneven-last-chunk"),  # 7 trials: 3 + 3 + 1
        pytest.param(C * T - 1, id="trial-larger-than-the-bound"),
        pytest.param(1 << 40, id="one-chunk"),
    ])
    @pytest.mark.parametrize("shrinkage", [0.0, 0.2])
    def test_chunking_is_bytewise_the_whole_stack(self, monkeypatch, words, shrinkage):
        if words is not None:
            monkeypatch.setattr(spd, "CHUNK_WORDS", words)
        rng = np.random.default_rng(55)
        x = rng.standard_normal((7, self.C, self.T))
        covs, scatter = whole_stack_covariance(x, shrinkage), whole_stack_scatter(x)
        for given in (x, list(x)):  # one array, or the trials' own arrays
            assert same_bytes(trial_covariance(given, shrinkage), covs)
            stack = covariance_stack(given, np.arange(7) % 2, shrinkage, scatter=True)
            assert same_bytes(stack.covs, covs) and same_bytes(stack.scatter, scatter)
        stack = covariance_stack(x[4:5], None, shrinkage, scatter=True)
        assert same_bytes(stack.covs, covs[4:5]) and same_bytes(stack.scatter, scatter[4:5])

    def test_a_degenerate_trial_is_named_by_its_subject_wide_index(self, monkeypatch):
        monkeypatch.setattr(spd, "CHUNK_WORDS", 4 * self.C * self.T)  # chunks of 4
        x = np.random.default_rng(56).standard_normal((40, self.C, self.T))
        x[37, 1] = 0.0  # one all-zero channel, in the tenth chunk
        with pytest.raises(NotPositiveDefiniteError, match="^trial 37: smallest eigenvalue"):
            covariance_stack(x, None)
        with pytest.raises(NotPositiveDefiniteError,
                           match="^subject s1, trial 37: smallest eigenvalue"):
            subject_stack("s1", (x, None))

    def test_trials_of_different_shapes_are_named(self):
        rng = np.random.default_rng(57)
        trials = [rng.standard_normal(shape) for shape in ((3, 20), (3, 20), (4, 20))]
        expected = "trials must be one (n, C, T) array"
        with pytest.raises(DimMismatchError, match=f"^{re.escape(expected)}"):
            covariance_stack(trials, None, scatter=True)
        with pytest.raises(DimMismatchError, match=f"^{re.escape('subject s1, ' + expected)}"):
            subject_stack("s1", (trials, None))
        one = r"^trials must be \(n, C, T\), got \(3, 20\)$"  # one trial is not a stack
        with pytest.raises(DimMismatchError, match=one):
            trial_covariance(trials[0])
        with pytest.raises(DimMismatchError, match=one):
            covariance_stack(trials[0], None)

    def test_covariance_stack_copies_no_subject(self):
        rng = np.random.default_rng(58)
        data = rng.standard_normal((64, 8, 2000))  # an 8 MiB payload
        tracemalloc.start()
        try:
            stack = covariance_stack(data, None, scatter=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        extra = peak - stack.covs.nbytes - stack.scatter.nbytes
        assert extra < data.nbytes / 4

    def test_an_estimate_holds_one_stack_beside_its_result(self):
        # Beside the covariances and the scatter, the Gram stack that is
        # validated and one chunk's scratch: 1.35 covariance stacks measured
        # with numpy 2.4. Validating the whole stack at once held 3.00.
        data = np.random.default_rng(59).standard_normal((192, 22, 30))
        stack = 192 * 22 * 22 * 8  # the bytes of one covariance stack
        peak = traced_peak(lambda: covariance_stack(data, None, scatter=True))
        assert peak - 2 * stack < 1.5 * stack


def one_subject_manifest(tmp_path, x):
    """A manifest of one subject ``s1`` whose trials are ``x``; returns the
    path of its trial file and the loaded manifest."""
    write_trials(tmp_path / "s1.trials", x)
    write_labels(tmp_path / "s1.labels", np.arange(len(x)) % 2)
    write_manifest(tmp_path / "m.json", 100.0, [0, 1], [("s1", "s1.trials", "s1.labels")])
    return tmp_path / "s1.trials", load_manifest(tmp_path / "m.json")


def read_both_ways(manifest):
    """The error of the stack of the manifest's one subject, from its trial
    file read whole (``read_subject``) and read in blocks
    (:meth:`iter_subject_blocks`, as the harness reads it)."""
    errors = []
    for subjects in (lambda: [read_subject(manifest, manifest.subjects[0])],
                     manifest.iter_subject_blocks):
        with pytest.raises(DataError) as err:
            for subject in subjects():
                subject_stack("s1", subject, 0.0, True)
        errors.append(err.value)
    return errors


class TestStreamedCovariances:
    """A trial file read in blocks (``read_trial_blocks``) gives the stacks of
    the same file read whole (``read_trials``), byte for byte, and each fault
    of the file raises the same error, with the same text, either way."""

    @pytest.mark.parametrize("n, c, t, blocks", [
        pytest.param(3, 8, 2100, [1, 1, 1], id="one-trial-per-block"),  # 16,800 words
        pytest.param(50, 4, 100, [40, 10], id="several-trials-per-block"),
        pytest.param(6, 4, 100, [6], id="smaller-than-one-block"),
    ])
    @pytest.mark.parametrize("shrinkage", [0.0, 0.2])
    def test_equals_the_stack_of_the_whole_file(self, tmp_path, n, c, t, blocks, shrinkage):
        path = tmp_path / "s.trials"
        write_trials(path, np.random.default_rng(59).standard_normal((n, c, t)))
        assert [len(block) for _, block in read_trial_blocks(path).blocks] == blocks
        labels = np.arange(n) % 2
        whole = covariance_stack(read_trials(path), labels, shrinkage, scatter=True)
        streamed = covariance_stack(read_trial_blocks(path), labels, shrinkage, scatter=True)
        assert same_bytes(streamed.covs, whole.covs)
        assert same_bytes(streamed.scatter, whole.scatter)
        assert np.array_equal(streamed.labels, labels)
        assert same_bytes(trial_covariance(read_trial_blocks(path), shrinkage), whole.covs)

    def test_the_blocks_of_a_file_share_one_buffer(self, tmp_path):
        path = tmp_path / "s.trials"
        write_trials(path, np.random.default_rng(60).standard_normal((50, 4, 100)))
        owners = {id(block.base) for _, block in read_trial_blocks(path).blocks}
        assert len(owners) == 1

    def test_a_bad_magic(self, tmp_path):
        path, manifest = one_subject_manifest(tmp_path, np.ones((3, 2, 5)))
        path.write_bytes(b"XXXX" + path.read_bytes()[4:])
        whole, streamed = read_both_ways(manifest)
        assert type(streamed) is type(whole) is BadMagicError
        assert str(streamed) == str(whole) == "subject s1: bad magic b'XXXX' at byte offset 0"
        assert streamed.offset == whole.offset == 0

    def test_a_truncated_payload_fails_before_any_block_is_read(self, tmp_path):
        path, manifest = one_subject_manifest(tmp_path, np.ones((50, 4, 100)))
        path.write_bytes(path.read_bytes()[:-8])
        end = path.stat().st_size
        with pytest.raises(TruncatedPayloadError,
                           match=f"^payload ends at byte {end}, expected {end + 8}$"):
            read_trial_blocks(path)  # the blocks are never handed out
        whole, streamed = read_both_ways(manifest)
        assert type(streamed) is type(whole) is TruncatedPayloadError
        assert str(streamed) == str(whole)
        assert (streamed.offset, streamed.expected_size) == (whole.offset, whole.expected_size)

    def test_a_nan_in_a_later_block_is_named_at_its_byte_offset(self, tmp_path):
        path, manifest = one_subject_manifest(tmp_path, np.ones((50, 4, 100)))
        offset = HEADER_SIZE + 8 * (45 * 400 + 2 * 100 + 7)  # trial 45, in the second block
        with path.open("r+b") as f:
            f.seek(offset)
            f.write(struct.pack("<d", np.nan))
        blocks = read_trial_blocks(path).blocks
        assert len(next(blocks)[1]) == 40  # the first block is read and handed out
        with pytest.raises(NonFinitePayloadError) as err:
            next(blocks)
        assert err.value.offset == offset
        whole, streamed = read_both_ways(manifest)
        assert type(streamed) is type(whole) is NonFinitePayloadError
        assert str(streamed) == str(whole) == f"subject s1: non-finite value at byte offset {offset}"
        assert streamed.offset == whole.offset == offset

    def test_a_degenerate_trial_is_named_by_its_index_in_the_subject(self, tmp_path):
        x = np.random.default_rng(61).standard_normal((50, 4, 100))
        x[45, 1] = 0.0  # one all-zero channel, in the second block of 40 trials
        _, manifest = one_subject_manifest(tmp_path, x)
        whole, streamed = read_both_ways(manifest)
        assert type(streamed) is type(whole) is NotPositiveDefiniteError
        assert str(streamed) == str(whole)
        assert str(streamed).startswith("subject s1, trial 45: smallest eigenvalue")


class TestStackLogs:
    """A stack's matrix logs are taken once and travel with its covariances."""

    def stack(self, seed=47):
        rng = np.random.default_rng(seed)
        covs = np.stack([random_spd(rng, 4) for _ in range(7)])
        return CovStack(covs, np.arange(7) % 3, covs + np.eye(4))

    def test_with_logs_takes_them_once(self):
        stack = self.stack()
        assert stack.logs is None
        logged = stack.with_logs()
        assert np.array_equal(logged.logs, spd_log(stack.covs))
        assert logged.with_logs() is logged

    def test_take_keeps_logs(self):
        taken = self.stack().with_logs().take([5, 0, 3])
        assert np.array_equal(taken.logs, spd_log(taken.covs))

    def test_relabeling_keeps_logs(self):
        logged = self.stack().with_logs()
        relabeled = replace(logged, labels=logged.labels + 10)
        assert relabeled.logs is logged.logs
        assert np.array_equal(relabeled.logs, spd_log(relabeled.covs))

    def test_congruence_drops_logs(self):
        rng = np.random.default_rng(51)
        assert self.stack().with_logs().transformed(random_invertible(rng, 4)).logs is None


def csp_eigvals(filters, c1):
    """The generalized eigenvalue of each filter row w, w^T c1 w: every row
    has w^T (c1 + c2) w = 1."""
    return np.einsum("ij,jk,ik->i", filters, c1, filters)


class TestCspFit:
    def test_2x2_hand_computed(self):
        # With class covariances diag(4,1) and diag(1,4) the whitened matrix
        # is diag(4/5, 1/5), so the generalized eigenvalues are 0.8 and 0.2
        # and the filters align with the coordinate axes.
        c1 = np.diag([4.0, 1.0])
        filters = csp_fit(np.stack([c1, np.diag([1.0, 4.0])]), [0, 1], 1)
        assert filters.shape == (2, 2)  # binary: 2 * pairs rows
        assert np.allclose(sorted(csp_eigvals(filters, c1)), [0.2, 0.8], atol=1e-12)
        f = filters
        assert abs(f[0, 1]) <= 1e-12 and abs(f[0, 0]) > 0  # axis e1 (largest)
        assert abs(f[1, 0]) <= 1e-12 and abs(f[1, 1]) > 0  # axis e2 (smallest)

    def test_identical_classes_tie(self):
        rng = np.random.default_rng(42)
        c = random_spd(rng, 4)
        filters = csp_fit(np.stack([c, c]), [0, 1], 2)
        assert np.allclose(csp_eigvals(filters, c), 0.5, atol=1e-12)
        assert filters.shape == (4, 4)

    def test_filters_normalized_by_composite(self):
        rng = np.random.default_rng(43)
        c1 = random_spd(rng, 6)
        c2 = random_spd(rng, 6)
        filters = csp_fit(np.stack([c1, c2]), [0, 1], 3)
        composite = c1 + c2
        for w in filters:
            assert w @ composite @ w == pytest.approx(1.0, abs=1e-10)

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(44)
        covs = np.stack([random_spd(rng, 6) for _ in range(6)])
        labels = [0, 0, 0, 1, 1, 1]
        f1 = csp_fit(covs, labels, 2)
        f2 = csp_fit(covs, labels, 2)
        assert np.array_equal(f1, f2)
        c1 = np.mean(covs[:3], axis=0)
        assert np.array_equal(csp_eigvals(f1, c1), csp_eigvals(f2, c1))

    def test_one_vs_rest_filter_count(self):
        rng = np.random.default_rng(45)
        covs = np.stack([random_spd(rng, 8) for _ in range(12)])
        filters = csp_fit(covs, np.repeat([0, 1, 2], 4), 2)
        assert filters.shape == (2 * 2 * 3, 8)  # one-vs-rest: 2 * pairs rows per class

    def test_one_vs_rest_filters_are_pinned(self):
        # Interleaved labels: each class's mean runs over its rows in stack
        # order, and the pool of the others concatenates them in sorted class
        # order, whose sum differs in its last bits from the masked rows'.
        rng = np.random.default_rng(53)
        labels = rng.permutation(np.repeat([0, 1, 2], 5))
        covs = np.stack([random_spd(rng, 6) for _ in labels])
        filters = csp_fit(covs, labels, 2)
        assert filters.shape == (12, 6)
        assert hashlib.sha256(filters.tobytes()).hexdigest() == (
            "d04eabe45a10ec8078cfe1cb9277229576b083d8ae5c18173a9e5f5cb8bc0d15"
        )

    def test_needs_two_classes_and_valid_pairs(self):
        rng = np.random.default_rng(46)
        with pytest.raises(ConfigError):
            csp_fit(random_spd(rng, 4)[None], [0], 1)
        with pytest.raises(ConfigError):
            csp_fit(np.stack([np.eye(4), np.eye(4)]), [0, 1], 3)

    def test_zero_class_covariances_are_degenerate(self):
        with pytest.raises(DegenerateCovarianceError,
                           match=r"^composite covariance not SPD \(min eigenvalue 0\)$"):
            csp_fit(np.zeros((2, 4, 4)), [0, 1], 1)


class TestCspFeatures:
    def test_uniform_variance_rows(self):
        base = np.arange(10.0)
        x = np.vstack([base, base[::-1], np.roll(base, 3)])  # equal sample variance
        filters = np.eye(3)
        f = csp_features(filters, whole_stack_scatter(x[None]))
        assert np.allclose(f, np.log(1.0 / 3.0), atol=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(47)
        x = rng.standard_normal((4, 50))
        filters = rng.standard_normal((2, 4))
        f1 = csp_features(filters, whole_stack_scatter(x[None]))
        f2 = csp_features(filters, whole_stack_scatter(3.0 * x[None]))
        assert np.allclose(f1, f2, atol=1e-12)

    def test_direct_formula(self):
        # Features from the centred scatter equal the normalized ddof=1
        # log-variance of the filtered raw trials.
        rng = np.random.default_rng(48)
        x = rng.standard_normal((7, 5, 80)) + rng.standard_normal((7, 5, 1))
        filters = rng.standard_normal((4, 5))
        f = csp_features(filters, covariance_stack(x, None, scatter=True).scatter)
        assert f.shape == (7, 4)
        for row, trial in zip(f, x):
            v = (filters @ trial).var(axis=1, ddof=1)
            assert np.max(np.abs(row - np.log(v / v.sum()))) <= 1e-12

    def test_channel_mismatch(self):
        filters = np.eye(3)
        with pytest.raises(DimMismatchError):
            csp_features(filters, whole_stack_scatter(np.ones((1, 4, 10))))
        scatter = whole_stack_scatter(np.ones((1, 3, 10)))
        for bad in (scatter[0], scatter[0, 0]):  # one scatter, or a vector: stacks only
            with pytest.raises(DimMismatchError, match="csp_features: expected a stack"):
                csp_features(filters, bad)

    def test_end_to_end_congruence_invariance(self):
        # Re-mixing the channels by an invertible matrix and refitting yields
        # the same log-variance features (filters absorb the mixing).
        rng = np.random.default_rng(49)
        trials = rng.standard_normal((12, 5, 100))
        labels = [0] * 6 + [1] * 6
        filters = csp_fit(trial_covariance(trials), labels, 2)
        probe = trials[:1]
        f_orig = csp_features(filters, whole_stack_scatter(probe))

        w = random_invertible(rng, 5)
        filters_mixed = csp_fit(trial_covariance(w.T @ trials), labels, 2)
        f_mixed = csp_features(filters_mixed, whole_stack_scatter(w.T @ probe))
        assert np.max(np.abs(np.sort(f_mixed) - np.sort(f_orig))) <= 1e-8


class TestTsFeatures:
    def test_reference_maps_to_zero(self):
        rng = np.random.default_rng(50)
        ref = random_spd(rng, 4)
        vecs = ts_features(spd_inv_sqrt(ref), [ref])
        assert vecs.shape == (1, 10)
        assert np.linalg.norm(vecs[0]) <= 1e-9

    def test_dimension_is_triangle_count(self):
        ref = np.eye(22)
        vecs = ts_features(ref, [np.eye(22)])
        assert vecs.shape == (1, 253)

    def test_unmapping_recovers_covariance(self):
        rng = np.random.default_rng(51)
        ref = random_spd(rng, 5)
        covs = [random_spd(rng, 5) for _ in range(4)]
        vecs = ts_features(spd_inv_sqrt(ref), covs)
        for cov, vec in zip(covs, vecs):
            back = tangent_unmap(ref, vec)
            assert np.linalg.norm(back - cov) / np.linalg.norm(cov) <= 1e-9
            assert riemannian_distance(back, cov) <= 1e-7
