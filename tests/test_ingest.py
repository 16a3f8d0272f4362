import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neurolock import dsp, connectivity
from neurolock.errors import ConfigError, EmptyRecording, ParseError
from neurolock.ingest import (Protocol, Recording, SyntheticSpec, read_csv_matrix,
                              read_edf, synthesize, write_csv_matrix, write_edf)


def build_edf_bytes(n_signals=1, n_records=1, samples_per_record=4,
                    phys=(-100.0, 100.0), dig=(-32768, 32767),
                    digital_values=None, header_bytes=None, version=b"0",
                    record_duration="1", labels=None):
    """Hand-rolled EDF payload for parser fixtures."""
    def pad(text, width):
        return str(text)[:width].ljust(width).encode("ascii")

    if header_bytes is None:
        header_bytes = 256 + 256 * n_signals
    head = b"".join([
        version.ljust(8), pad("patient", 80), pad("rec", 80),
        pad("01.01.00", 8), pad("00.00.00", 8), pad(header_bytes, 8),
        pad("", 44), pad(n_records, 8), pad(record_duration, 8), pad(n_signals, 4),
    ])
    labels = labels or [f"EEG {i}" for i in range(n_signals)]
    cols = [
        [pad(lab, 16) for lab in labels],
        [pad("", 80)] * n_signals,
        [pad("uV", 8)] * n_signals,
        [pad(phys[0], 8)] * n_signals,
        [pad(phys[1], 8)] * n_signals,
        [pad(dig[0], 8)] * n_signals,
        [pad(dig[1], 8)] * n_signals,
        [pad("", 80)] * n_signals,
        [pad(samples_per_record, 8)] * n_signals,
        [pad("", 32)] * n_signals,
    ]
    head += b"".join(b"".join(col) for col in cols)
    if digital_values is None:
        digital_values = np.zeros((n_signals, n_records * samples_per_record), dtype="<i2")
    body = b""
    for r in range(n_records):
        for s in range(n_signals):
            body += digital_values[s, r * samples_per_record:(r + 1) * samples_per_record] \
                .astype("<i2").tobytes()
    return head + body


class TestReadEdf:
    def test_midpoint_digital_maps_to_zero(self, tmp_path):
        path = tmp_path / "zero.edf"
        path.write_bytes(build_edf_bytes())
        rec = read_edf(path)
        step = 200.0 / 65535.0
        assert rec.data.shape == (1, 4)
        assert np.all(np.abs(rec.data) <= step)

    def test_header_length_disagreement_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.edf"
        path.write_bytes(build_edf_bytes(header_bytes=999))
        with pytest.raises(ParseError):
            read_edf(path)

    def test_bad_version_is_parse_error_at_offset_zero(self, tmp_path):
        path = tmp_path / "vers.edf"
        path.write_bytes(build_edf_bytes(version=b"9"))
        with pytest.raises(ParseError) as err:
            read_edf(path)
        assert err.value.offset == 0

    def test_zero_records_is_empty_recording(self, tmp_path):
        path = tmp_path / "empty.edf"
        path.write_bytes(build_edf_bytes(n_records=0))
        with pytest.raises(EmptyRecording):
            read_edf(path)

    def test_truncated_payload_is_parse_error(self, tmp_path):
        blob = build_edf_bytes(n_records=2, samples_per_record=4)
        path = tmp_path / "trunc.edf"
        path.write_bytes(blob[:-4])
        with pytest.raises(ParseError):
            read_edf(path)

    @pytest.mark.parametrize("field,kwargs,offset", [
        ("record-duration", {"record_duration": "nan"}, 244),
        ("record-duration", {"record_duration": "inf"}, 244),
        ("phys-min", {"phys": ("nan", 100.0)}, 256 + 104),
        ("phys-max", {"phys": (-100.0, "-inf")}, 256 + 112),
    ])
    def test_non_finite_header_number_is_parse_error(self, tmp_path, field, kwargs,
                                                     offset):
        path = tmp_path / "nonfinite.edf"
        path.write_bytes(build_edf_bytes(**kwargs))
        with pytest.raises(ParseError, match=f"EDF {field} field") as err:
            read_edf(path)
        assert err.value.offset == offset

    @pytest.mark.parametrize("phys,dig", [
        (("-1e308", "1e308"), (-32768, 32767)),  # the gain overflows
        ((0.0, "1e305"), (0, 1)),                 # digital 32767 maps past 1.8e308
        (("1e308", "1.7e308"), (-30000, -29999)),  # finite gain, the offset overflows
    ])
    def test_physical_range_out_of_float_range_is_parse_error(self, tmp_path, phys, dig):
        path = tmp_path / "huge.edf"
        path.write_bytes(build_edf_bytes(n_signals=2, phys=phys, dig=dig))
        with pytest.raises(ParseError, match="signal 0: physical range") as err:
            read_edf(path)
        assert err.value.offset == 256 + 104 * 2

    def test_non_positive_samples_per_record_is_parse_error(self, tmp_path):
        # -1 samples per record with an unknown (-1) record count used to reach numpy
        blob = build_edf_bytes(samples_per_record=4).replace(b"4" + b" " * 7, b"-1" + b" " * 6)
        path = tmp_path / "spr.edf"
        path.write_bytes(blob[:236] + b"-1".ljust(8) + blob[244:])
        with pytest.raises(ParseError, match="no samples per record"):
            read_edf(path)

    def test_annotation_channels_dropped(self, tmp_path):
        digital = np.zeros((2, 4), dtype="<i2")
        path = tmp_path / "ann.edf"
        path.write_bytes(build_edf_bytes(n_signals=2, digital_values=digital,
                                         labels=["C3", "EDF Annotations"]))
        rec = read_edf(path)
        assert rec.channels == ["C3"]
        assert rec.data.shape == (1, 4)

    def test_hand_computed_scaling_three_fixtures(self, tmp_path):
        # phys = phys_min + (d - dig_min) * (phys_max - phys_min) / (dig_max - dig_min)
        cases = [
            ((-100.0, 100.0), (-32768, 32767), 16384),  # -> 100*(16384+32768)/32767.5 - 100
            ((0.0, 10.0), (0, 1000), 250),              # -> 2.5
            ((-5.0, 5.0), (-100, 100), 50),             # -> 2.5
        ]
        for idx, ((pmin, pmax), (dmin, dmax), value) in enumerate(cases):
            expected = pmin + (value - dmin) * (pmax - pmin) / (dmax - dmin)
            digital = np.full((1, 4), value, dtype="<i2")
            path = tmp_path / f"scale{idx}.edf"
            path.write_bytes(build_edf_bytes(phys=(pmin, pmax), dig=(dmin, dmax),
                                             digital_values=digital))
            rec = read_edf(path)
            assert rec.data == pytest.approx(np.full((1, 4), expected), abs=1e-9)

    def test_write_then_read_round_trip(self, tmp_path, rng):
        data = rng.normal(scale=40.0, size=(2, 320))
        rec = Recording(channels=["a", "b"], fs=160.0, data=data,
                        protocol_tag=Protocol.EO, subject_id="S1")
        path = tmp_path / "rt.edf"
        write_edf(rec, path)
        back = read_edf(path)
        # quantization step per channel from the written physical range
        for ch in range(2):
            lo, hi = data[ch].min() , data[ch].max()
            step = (hi - lo) * 1.001 / 65535.0 + 1e-9
            assert np.max(np.abs(back.data[ch] - data[ch])) <= step

    def test_multi_record_round_trip(self, tmp_path, rng):
        data = rng.normal(size=(2, 480))
        rec = Recording(channels=["a", "b"], fs=160.0, data=data)
        path = tmp_path / "mr.edf"
        write_edf(rec, path, record_seconds=1.0)
        back = read_edf(path)
        assert back.data.shape == (2, 480)
        assert back.fs == 160.0
        assert np.max(np.abs(back.data - data)) < 1e-3

    def test_multi_record_file_bytes_pinned(self, tmp_path):
        # digest taken from the writer that appended one record slice per
        # signal in a Python loop; 8 records of 80 samples, no annotations
        data = np.random.default_rng(2024).normal(scale=30.0, size=(3, 640))
        rec = Recording(channels=["Fp1", "Cz", "O2"], fs=160.0, data=data,
                        protocol_tag=Protocol.EC, subject_id="S7")
        path = tmp_path / "pinned.edf"
        write_edf(rec, path, record_seconds=0.5)
        assert list(tmp_path.iterdir()) == [path]
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            "4f98eb6934960e2565f9a0415e6e8fe88a3f4aee2289454eb6a4788ec682160b"


class TestCsv:
    def test_2x2(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,4\n")
        rec = read_csv_matrix(path, fs=160.0)
        assert rec.data.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert rec.fs == 160.0

    def test_ragged_row_reports_row(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(ParseError, match="row 2"):
            read_csv_matrix(path, fs=160.0)

    def test_non_numeric_reports_position(self, tmp_path):
        path = tmp_path / "n.csv"
        path.write_text("1,2\n3,x\n")
        with pytest.raises(ParseError, match="row 2, col 2"):
            read_csv_matrix(path, fs=160.0)

    def test_round_trip(self, tmp_path, rng):
        data = rng.normal(size=(3, 50))
        rec = Recording(channels=["a", "b", "c"], fs=128.0, data=data)
        path = tmp_path / "rt.csv"
        write_csv_matrix(rec, path)
        back = read_csv_matrix(path, fs=128.0)
        assert np.array_equal(back.data, data)


class TestSynthesize:
    def test_deterministic(self):
        spec = SyntheticSpec(n_subjects=2, n_channels=4, duration_s=4.0, fs=160.0,
                             master_seed=5)
        a = synthesize(spec)
        b = synthesize(spec)
        assert len(a) == len(b) == 4  # 2 subjects x 2 protocols
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.data, rb.data)

    def test_subject_output_independent_of_population_size(self):
        small = SyntheticSpec(n_subjects=1, n_channels=4, duration_s=2.0, fs=160.0,
                              master_seed=5)
        large = SyntheticSpec(n_subjects=3, n_channels=4, duration_s=2.0, fs=160.0,
                              master_seed=5)
        a = synthesize(small)
        b = synthesize(large)
        assert np.array_equal(a[0].data, b[0].data)

    def test_too_few_channels(self):
        with pytest.raises(ConfigError):
            synthesize(SyntheticSpec(n_subjects=1, n_channels=1, duration_s=1.0,
                                     fs=160.0, master_seed=0))

    def test_identical_oscillators_no_noise_give_perfect_sync(self):
        n = 4
        spec = SyntheticSpec(
            n_subjects=1, n_channels=n, duration_s=8.0, fs=160.0, master_seed=1,
            noise_level=0.0, coupling=np.ones((n, n)),
            base_freqs=np.full(n, 17.0))
        rec = synthesize(spec)[0]
        frame = dsp.frame(rec, 2.0)[0]
        adjacency = connectivity.build_graph(dsp.instantaneous_phase(frame))
        off_diag = adjacency[~np.eye(n, dtype=bool)]
        assert np.all(off_diag == 1.0)

    def test_within_subject_features_more_similar_than_across(self, small_dataset):
        def cosine(a, b):
            return a @ b / (np.linalg.norm(a) * np.linalg.norm(b))

        subjects = small_dataset.subjects
        within, across = [], []
        for s in subjects:
            frames = small_dataset.frames(s, Protocol.EO)
            for i in range(0, len(frames) - 1, 2):
                within.append(cosine(frames[i], frames[i + 1]))
        for i, s in enumerate(subjects):
            fs_a = small_dataset.frames(s, Protocol.EO)
            for t in subjects[i + 1:]:
                fs_b = small_dataset.frames(t, Protocol.EO)
                across.append(cosine(fs_a[0], fs_b[0]))
        assert np.mean(within) > np.mean(across)

    def test_recording_invariants(self):
        spec = SyntheticSpec(n_subjects=2, n_channels=3, duration_s=2.0, fs=160.0,
                             master_seed=3)
        for rec in synthesize(spec):
            assert rec.n_channels == 3
            assert rec.n_samples == 320
            assert rec.fs > 0
            assert np.all(np.isfinite(rec.data))


class TestReaderInvariants:
    @given(st.integers(1, 5), st.integers(1, 40),
           st.floats(1.0, 1000.0), st.integers(0, 2 ** 31))
    @settings(max_examples=40, deadline=None)
    def test_csv_reader_yields_valid_recordings(self, tmp_path_factory,
                                                n_channels, n_samples, fs, seed):
        data = np.random.default_rng(seed).normal(scale=50.0,
                                                  size=(n_channels, n_samples))
        rec = Recording(channels=[f"c{i}" for i in range(n_channels)],
                        fs=fs, data=data)
        path = tmp_path_factory.mktemp("csv") / "m.csv"
        write_csv_matrix(rec, path)
        back = read_csv_matrix(path, fs=fs)
        assert back.fs > 0
        assert back.n_channels == n_channels
        assert back.n_samples == n_samples
        assert np.all(np.isfinite(back.data))
        assert len(back.channels) == back.data.shape[0]

    @given(st.integers(1, 4), st.integers(2, 30), st.integers(0, 2 ** 31))
    @settings(max_examples=25, deadline=None)
    def test_edf_round_trip_yields_valid_recordings(self, tmp_path_factory,
                                                    n_channels, n_samples, seed):
        data = np.random.default_rng(seed).normal(scale=80.0,
                                                  size=(n_channels, n_samples))
        rec = Recording(channels=[f"c{i}" for i in range(n_channels)],
                        fs=100.0, data=data)
        path = tmp_path_factory.mktemp("edf") / "m.edf"
        write_edf(rec, path)
        back = read_edf(path)
        assert back.fs > 0
        assert back.n_channels == n_channels
        assert back.n_samples == n_samples
        assert np.all(np.isfinite(back.data))
