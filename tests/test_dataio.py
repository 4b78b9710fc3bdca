import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelalign.cli import main
from labelalign.dataio import (
    HEADER_SIZE,
    Trial,
    TrialBlocks,
    as_blocks,
    load_manifest,
    read_labels,
    read_trial_blocks,
    read_trials,
    write_labels,
    write_manifest,
    write_trials,
)
from labelalign.errors import (
    BadMagicError,
    DataError,
    DimMismatchError,
    NonFinitePayloadError,
    TruncatedPayloadError,
)


def make_trials(rng, count, channels, samples):
    return rng.standard_normal((count, channels, samples))


def drain_blocks(path) -> None:
    """Read every block of the trial file ``path`` through ``read_trial_blocks``."""
    for _ in read_trial_blocks(path).blocks:
        pass


# A fault of a trial file raises the same error at the same offset through
# either reader.
READERS = pytest.mark.parametrize("read", [read_trials, drain_blocks], ids=["whole", "blocks"])


class TestTrialFile:
    def test_round_trip_values(self, tmp_path):
        rng = np.random.default_rng(101)
        trials = make_trials(rng, 3, 4, 25)
        path = tmp_path / "x.trials"
        write_trials(path, trials)
        back = read_trials(path)
        assert len(back) == 3
        for a, b in zip(trials, back):
            assert np.array_equal(a, b)

    @settings(max_examples=20, deadline=None)
    @given(
        count=st.integers(1, 4),
        channels=st.integers(1, 6),
        samples=st.integers(1, 40),
        seed=st.integers(0, 2**31),
    )
    def test_round_trip_bytes(self, tmp_path_factory, count, channels, samples, seed):
        rng = np.random.default_rng(seed)
        tmp = tmp_path_factory.mktemp("trialfile")
        p1, p2 = tmp / "a", tmp / "b"
        write_trials(p1, make_trials(rng, count, channels, samples))
        write_trials(p2, read_trials(p1))
        assert p1.read_bytes() == p2.read_bytes()
        write_trials(p2, read_trial_blocks(p1))  # over the file, from the blocks of another
        assert p1.read_bytes() == p2.read_bytes()

    @READERS
    def test_bad_magic_offset_zero(self, tmp_path, read):
        path = tmp_path / "bad"
        path.write_bytes(b"XXXX" + bytes(20))
        with pytest.raises(BadMagicError) as err:
            read(path)
        assert err.value.offset == 0

    @READERS
    def test_bad_version_offset_four(self, tmp_path, read):
        path = tmp_path / "bad"
        path.write_bytes(b"EEGT" + bytes([9]) + struct.pack("<III", 1, 1, 1) + bytes(8))
        with pytest.raises(BadMagicError) as err:
            read(path)
        assert err.value.offset == 4

    @READERS
    def test_truncated_payload_offset(self, tmp_path, read):
        rng = np.random.default_rng(102)
        channels, samples = 3, 10
        path = tmp_path / "t"
        write_trials(path, make_trials(rng, 1, channels, samples))
        blob = bytearray(path.read_bytes())
        blob[13:17] = struct.pack("<I", 2)  # header now claims 2 trials
        path.write_bytes(bytes(blob))
        with pytest.raises(TruncatedPayloadError) as err:
            read(path)
        trial_bytes = 8 * channels * samples
        assert err.value.offset == HEADER_SIZE + trial_bytes
        assert err.value.expected_size == HEADER_SIZE + 2 * trial_bytes

    @READERS
    def test_nonfinite_payload_names_offset(self, tmp_path, read):
        rng = np.random.default_rng(103)
        path = tmp_path / "n"
        write_trials(path, make_trials(rng, 1, 2, 5))
        blob = bytearray(path.read_bytes())
        bad_index = 7
        start = HEADER_SIZE + 8 * bad_index
        blob[start : start + 8] = struct.pack("<d", np.nan)
        path.write_bytes(bytes(blob))
        with pytest.raises(NonFinitePayloadError) as err:
            read(path)
        assert err.value.offset == start

    def test_a_file_of_many_blocks_reads_the_same_through_either_reader(self, tmp_path):
        trials = make_trials(np.random.default_rng(104), 50, 4, 100)  # blocks of 40 and 10
        path = tmp_path / "b.trials"
        write_trials(path, trials)
        blocks = [block.tobytes() for _, block in read_trial_blocks(path).blocks]
        assert len(blocks) == 2
        assert read_trials(path).tobytes() == b"".join(blocks) == trials.tobytes()

    def test_write_rejects_mixed_shapes(self, tmp_path):
        with pytest.raises(DimMismatchError):
            write_trials(tmp_path / "m", [Trial(np.ones((2, 3))), Trial(np.ones((3, 3)))])

    @pytest.mark.parametrize("shape", [(3, 7), (2, 0, 7)])
    def test_write_rejects_an_array_that_is_not_n_c_t(self, tmp_path, shape):
        with pytest.raises(DimMismatchError, match="trials must (be|have)"):
            write_trials(tmp_path / "m", np.ones(shape))
        assert not (tmp_path / "m").exists()

    def test_read_returns_writable_views_of_one_array(self, tmp_path):
        rng = np.random.default_rng(105)
        trials = make_trials(rng, 4, 3, 7)
        path = tmp_path / "v.trials"
        write_trials(path, trials)
        back = read_trials(path)
        assert back.shape == (4, 3, 7) and back.dtype == np.float64 and back.flags.writeable
        for t, b in zip(trials, back, strict=True):
            assert b.base is back
            assert b.tobytes() == t.tobytes()
        back[1][0, 0] = 5.0
        assert back[1, 0, 0] == 5.0

    def test_write_streams_without_a_copy_of_the_payload(self, tmp_path):
        rng = np.random.default_rng(106)
        trials = make_trials(rng, 64, 8, 1000)
        path = tmp_path / "w.trials"
        tracemalloc.start()
        try:
            write_trials(path, trials)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * trials[0].nbytes
        header = b"EEGT\x01" + struct.pack("<III", 8, 1000, 64)
        reference = header + trials.astype("<f8").tobytes()
        assert path.read_bytes() == reference

    def test_write_names_the_offset_of_a_nonfinite_value_and_writes_nothing(self, tmp_path):
        rng = np.random.default_rng(107)
        trials = make_trials(rng, 3, 2, 5)
        trials[2, 1, 3] = np.inf
        path = tmp_path / "n"
        with pytest.raises(NonFinitePayloadError) as err:
            write_trials(path, trials)
        assert err.value.offset == HEADER_SIZE + 8 * (2 * 10 + 1 * 5 + 3)
        assert not path.exists()

    def test_a_nan_in_a_later_block_leaves_the_file_as_it_was(self, tmp_path):
        trials = make_trials(np.random.default_rng(108), 50, 4, 100)  # blocks of 40 and 10
        trials[45, 2, 7] = np.nan
        written = []

        def blocks():
            for rows, block in as_blocks(trials).blocks:
                yield rows, block
                written.append(len(block))  # the write loop asks for the next block

        path = tmp_path / "x.trials"
        path.write_bytes(b"earlier bytes")
        with pytest.raises(NonFinitePayloadError) as err:
            write_trials(path, TrialBlocks(trials.shape, blocks()))
        assert written == [40]
        assert err.value.offset == HEADER_SIZE + 8 * (45 * 400 + 2 * 100 + 7)
        assert path.read_bytes() == b"earlier bytes"
        assert [p.name for p in tmp_path.iterdir()] == ["x.trials"]

    @READERS
    def test_header_claiming_more_than_the_file_holds_is_truncated(self, tmp_path, read):
        path = tmp_path / "huge"
        path.write_bytes(b"EEGT\x01" + struct.pack("<III", 2**16, 2**16, 2**16) + bytes(8))
        with pytest.raises(TruncatedPayloadError) as err:
            read(path)
        assert err.value.offset == HEADER_SIZE + 8
        assert err.value.expected_size == HEADER_SIZE + 8 * 2**48

    @pytest.mark.parametrize("shape", [(0, 10), (4, 0)])
    def test_empty_trials_rejected(self, tmp_path, shape):
        with pytest.raises(DimMismatchError, match="C > 0 and T > 0"):
            Trial(np.empty(shape))
        path = tmp_path / "e.trials"
        path.write_bytes(b"EEGT\x01" + struct.pack("<III", *shape, 3))
        with pytest.raises(DimMismatchError, match="e.trials: 3 trials of"):
            read_trials(path)


class TestLabels:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "l"
        write_labels(path, [3, 1, 4, 1])
        assert read_labels(path) == [3, 1, 4, 1]

    def test_non_integer_rejected(self, tmp_path):
        path = tmp_path / "l"
        path.write_text("1\nfoo\n")
        with pytest.raises(DataError):
            read_labels(path)


class TestManifest:
    def _write_dataset(self, tmp_path, labels=(0, 1, 0)):
        rng = np.random.default_rng(104)
        write_trials(tmp_path / "s0.trials", make_trials(rng, len(labels), 2, 10))
        write_labels(tmp_path / "s0.labels", labels)
        write_manifest(
            tmp_path / "manifest.json", 100.0, [0, 1], [("s0", "s0.trials", "s0.labels")]
        )

    def test_round_trip(self, tmp_path):
        self._write_dataset(tmp_path)
        manifest = load_manifest(tmp_path / "manifest.json")
        assert manifest.sample_rate == 100.0
        assert manifest.label_set == (0, 1)
        assert [e.name for e in manifest.subjects] == ["s0"]
        (trials, labels), = manifest.iter_subject_blocks()
        assert trials.shape == (3, 2, 10) and labels.tolist() == [0, 1, 0]

    def test_missing_file_rejected(self, tmp_path):
        self._write_dataset(tmp_path)
        (tmp_path / "s0.labels").unlink()
        with pytest.raises(DataError):
            load_manifest(tmp_path / "manifest.json")

    def test_label_outside_declared_set(self, tmp_path):
        self._write_dataset(tmp_path, labels=(0, 1, 7))
        manifest = load_manifest(tmp_path / "manifest.json")
        with pytest.raises(DataError, match=r"^subject s0: labels \[7\] not in declared set$"):
            next(manifest.iter_subject_blocks())

    def test_label_count_mismatch(self, tmp_path):
        self._write_dataset(tmp_path)
        write_labels(tmp_path / "s0.labels", [0, 1])
        manifest = load_manifest(tmp_path / "manifest.json")
        with pytest.raises(DataError, match="^subject s0: 3 trials but 2 labels$"):
            next(manifest.iter_subject_blocks())

    @pytest.mark.parametrize("field, value, message", [
        ("label_set", [0.9, 1.5], "label_set[0] must be an integer, got 0.9"),
        ("label_set", ["0", "1"], "label_set[0] must be an integer, got '0'"),
        ("label_set", "01", "label_set must be a non-empty list, got '01'"),
        ("sample_rate", float("nan"), "sample_rate must be a finite number, got nan"),
        ("sample_rate", "100", "sample_rate must be a finite number, got '100'"),
        ("sample_rate", -5, "sample_rate must be > 0, got -5"),
        ("sample_rate", 0.0, "sample_rate must be > 0, got 0.0"),
    ])
    def test_label_set_and_sample_rate_are_checked_not_converted(
        self, tmp_path, capsys, field, value, message
    ):
        self._write_dataset(tmp_path)
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), field: value}))
        with pytest.raises(DataError) as err:
            load_manifest(path)
        assert str(err.value) == f"{path}: {message}"
        assert main(["align", "--strategy", "raw", "--manifest", str(path),
                     "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("{not json")
        with pytest.raises(DataError):
            load_manifest(path)
