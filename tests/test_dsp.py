import numpy as np
import pytest

from neurolock import dsp
from neurolock.errors import ConfigError, DegenerateSignal, LengthError
from neurolock.ingest import Protocol, Recording


def make_recording(data, fs=160.0):
    data = np.atleast_2d(np.asarray(data, dtype=float))
    return Recording(channels=[f"c{i}" for i in range(data.shape[0])], fs=fs,
                     data=data, protocol_tag=Protocol.EO, subject_id="S")


def response_at(taps, freq_hz, fs=160.0):
    """Single-pass magnitude response of FIR taps at one frequency."""
    import scipy.signal
    _, h = scipy.signal.freqz(taps, worN=[2.0 * np.pi * freq_hz / fs])
    return float(np.abs(h[0]))


# Hamming-window design rule of thumb for 331 taps at 160 Hz: ~3.3
# normalized-frequency units
TRANSITION_WIDTH_HZ = 3.3 * 160.0 / 331


class TestDetrend:
    def test_constant_channel_goes_to_zero(self):
        out = dsp.detrend(make_recording([5.0, 5.0, 5.0, 5.0]))
        assert out.data == pytest.approx(np.zeros((1, 4)), abs=1e-12)

    def test_ramp_goes_to_zero(self):
        out = dsp.detrend(make_recording([0.0, 1.0, 2.0, 3.0]))
        assert out.data == pytest.approx(np.zeros((1, 4)), abs=1e-12)

    def test_ramp_plus_sine_equals_sine_minus_its_own_fit(self):
        n = 200
        t = np.arange(n)
        sine = np.sin(2 * np.pi * 7 * t / n)
        ramp = 0.5 * t + 3.0
        out = dsp.detrend(make_recording(sine + ramp))
        # closed-form least-squares line fit of the sine alone
        x = t - t.mean()
        slope = (sine @ x) / (x @ x)
        expected = sine - sine.mean() - slope * x
        assert out.data[0] == pytest.approx(expected, abs=1e-9)

    def test_residual_fit_is_zero(self, rng):
        data = rng.normal(size=(3, 100)) + np.arange(100) * 0.3
        out = dsp.detrend(make_recording(data))
        x = np.arange(100) - 49.5
        for ch in out.data:
            assert abs(ch.mean()) < 1e-9
            assert abs((ch @ x) / (x @ x)) < 1e-9

    def test_single_sample_raises(self):
        with pytest.raises(LengthError):
            dsp.detrend(make_recording([1.0]))


class TestDesignBandpass:
    def test_taps_exactly_symmetric(self):
        taps = dsp.design_bandpass(160.0, 13.0, 30.0, order=330)
        assert np.array_equal(taps, taps[::-1])
        assert taps.size == 331

    def test_dc_gain_near_zero(self):
        taps = dsp.design_bandpass(160.0, 13.0, 30.0, order=330)
        assert abs(taps.sum()) < 1e-3  # |H(0)| = sum of taps

    def test_band_centre_gain_near_unity(self):
        taps = dsp.design_bandpass(160.0, 13.0, 30.0, order=330)
        assert 0.9 <= response_at(taps, 21.5) <= 1.1

    def test_stopband_attenuation(self):
        taps = dsp.design_bandpass(160.0, 13.0, 30.0, order=330)
        tw = TRANSITION_WIDTH_HZ
        for freq in (2.0, 13.0 - 1.5 * tw, 30.0 + 1.5 * tw, 70.0):
            assert response_at(taps, freq) <= 10 ** (-40 / 20)

    def test_passband_within_6db(self):
        taps = dsp.design_bandpass(160.0, 13.0, 30.0, order=330)
        tw = TRANSITION_WIDTH_HZ
        for freq in np.linspace(13.0 + tw, 30.0 - tw, 9):
            assert response_at(taps, freq) >= 10 ** (-6 / 20)

    @pytest.mark.parametrize("low,high,order", [(0.0, 30.0, 330), (30.0, 13.0, 330),
                                                (13.0, 90.0, 330), (13.0, 30.0, 331)])
    def test_invalid_configs(self, low, high, order):
        with pytest.raises(ConfigError):
            dsp.design_bandpass(160.0, low, high, order)


class TestFilterZeroPhase:
    def test_in_band_sinusoid_amplitude_and_phase(self):
        fs, f0 = 160.0, 20.0
        t = np.arange(4000) / fs
        x = np.cos(2 * np.pi * f0 * t)
        taps = dsp.design_bandpass(fs, 13.0, 30.0, order=330)
        out = dsp.filter_zero_phase(make_recording(x, fs), taps).data[0]
        mid = slice(1500, 2500)
        gain = response_at(taps, f0, fs) ** 2  # forward-backward squares the response
        amp = np.sqrt(2.0 * np.mean(out[mid] ** 2))
        assert amp == pytest.approx(gain, rel=0.02)
        # phase preserved at mid-signal
        mid_idx = 2000
        analytic_phase = np.angle(np.exp(2j * np.pi * f0 * t[mid_idx]))
        window = out[mid_idx - 80:mid_idx + 81]
        import scipy.signal
        measured = np.angle(scipy.signal.hilbert(window)[80])
        assert abs(np.angle(np.exp(1j * (measured - analytic_phase)))) < 1e-2

    def test_out_of_band_attenuated_30db(self):
        fs = 160.0
        t = np.arange(4000) / fs
        x = np.sin(2 * np.pi * 2.0 * t)
        taps = dsp.design_bandpass(fs, 13.0, 30.0, order=330)
        out = dsp.filter_zero_phase(make_recording(x, fs), taps).data[0]
        mid = slice(1500, 2500)
        in_rms = np.sqrt(np.mean(x[mid] ** 2))
        out_rms = np.sqrt(np.mean(out[mid] ** 2))
        assert 20 * np.log10(in_rms / max(out_rms, 1e-300)) >= 30.0

    def test_zero_signal_stays_zero(self):
        taps = dsp.design_bandpass(160.0, 13.0, 30.0, order=330)
        out = dsp.filter_zero_phase(make_recording(np.zeros(2000)), taps)
        assert np.all(out.data == 0.0)

    def test_too_short_signal_raises(self):
        taps = dsp.design_bandpass(160.0, 13.0, 30.0, order=330)
        with pytest.raises(LengthError):
            dsp.filter_zero_phase(make_recording(np.ones(990)), taps)


class TestFrame:
    def test_60s_at_160hz_gives_30_frames(self, rng):
        rec = make_recording(rng.normal(size=(2, 9600)))
        frames = dsp.frame(rec, 2.0)
        assert frames.shape == (30, 2, 320)

    def test_remainder_dropped(self, rng):
        rec = make_recording(rng.normal(size=(1, int(3.9 * 160))))
        assert len(dsp.frame(rec, 2.0)) == 1

    def test_exact_two_seconds_is_one_frame(self, rng):
        rec = make_recording(rng.normal(size=(1, 320)))
        frames = dsp.frame(rec, 2.0)
        assert frames.shape == (1, 1, 320)
        assert np.array_equal(frames[0], rec.data)

    def test_frames_non_overlapping_and_ordered(self, rng):
        rec = make_recording(rng.normal(size=(1, 1000)))
        frames = dsp.frame(rec, 2.0)
        for k, fr in enumerate(frames):
            assert np.array_equal(fr, rec.data[:, k * 320:(k + 1) * 320])

    @pytest.mark.parametrize("overlap", [0.0, 0.25, 0.5])
    def test_rows_equal_recording_slices(self, rng, overlap):
        rec = make_recording(rng.normal(size=(3, 1000)))
        frames = dsp.frame(rec, 2.0, overlap)
        step = int(round(320 * (1 - overlap)))
        assert not np.shares_memory(frames, rec.data)
        for k, fr in enumerate(frames):
            assert np.array_equal(fr, rec.data[:, k * step:k * step + 320])

    def test_count_formula_matches_enumeration(self, rng):
        for n_samples in (100, 319, 320, 321, 640, 959, 960, 1234):
            for overlap in (0.0, 0.5, 0.9):
                length, step = 320, int(round(320 * (1 - overlap)))
                count = 0
                start = 0
                while start + length <= n_samples:
                    count += 1
                    start += step
                assert dsp.frame_layout(n_samples, 160.0, 2.0, overlap)[0] == count
                if count:
                    rec = make_recording(rng.normal(size=(1, n_samples)))
                    assert len(dsp.frame(rec, 2.0, overlap)) == count

    def test_too_short_recording_raises(self):
        with pytest.raises(LengthError):
            dsp.frame(make_recording(np.ones((1, 100))), 2.0)


class TestInstantaneousPhase:
    def test_cosine_phase_derivative(self):
        fs, f0 = 160.0, 20.0
        t = np.arange(320) / fs
        fr = dsp.frame(make_recording(np.cos(2 * np.pi * f0 * t), fs), 2.0)[0]
        phase = dsp.instantaneous_phase(fr)[0]
        deriv = np.diff(np.unwrap(phase))
        edge = 32  # exclude 10% of samples at each edge
        expected = 2 * np.pi * f0 / fs
        assert np.abs(deriv[edge:-edge] - expected).max() < 0.01 * expected

    def test_sine_lags_cosine_by_half_pi(self):
        fs, f0 = 160.0, 20.0
        t = np.arange(320) / fs
        data = np.stack([np.cos(2 * np.pi * f0 * t), np.sin(2 * np.pi * f0 * t)])
        fr = dsp.frame(make_recording(data, fs), 2.0)[0]
        phase = dsp.instantaneous_phase(fr)
        mid = 160
        diff = np.angle(np.exp(1j * (phase[0, mid] - phase[1, mid])))
        assert diff == pytest.approx(np.pi / 2, abs=0.05)

    def test_all_zero_channel_raises(self):
        fr = dsp.frame(make_recording(np.zeros((1, 320))), 2.0)[0]
        with pytest.raises(DegenerateSignal, match="channel 0"):
            dsp.instantaneous_phase(fr)

    def test_dead_channel_names_frame_and_channel(self, rng):
        data = rng.normal(size=(3, 1600))
        data[1, 640:960] = 0.0  # channel 1 is silent for exactly frame 2
        frames = dsp.frame(make_recording(data), 2.0)
        with pytest.raises(DegenerateSignal, match=r"all-zero frame 2 channel 1: "):
            dsp.instantaneous_phase(frames)

    def test_phase_range(self, rng):
        fr = dsp.frame(make_recording(rng.normal(size=(4, 320))), 2.0)[0]
        phase = dsp.instantaneous_phase(fr)
        assert np.all(phase > -np.pi)
        assert np.all(phase <= np.pi)

    def test_short_frame_raises(self):
        with pytest.raises(LengthError):
            dsp.instantaneous_phase(np.ones((2, 4)))

    def test_batched_frames_equal_per_frame_calls(self, rng, small_recordings):
        band = dsp.design_bandpass(160.0, 13.0, 30.0, order=330)
        for rec in (make_recording(rng.normal(size=(5, 3200))),
                    dsp.filter_zero_phase(small_recordings[0], band)):
            frames = dsp.frame(rec, 2.0)
            batched = dsp.instantaneous_phase(frames)
            per_frame = np.stack([dsp.instantaneous_phase(fr) for fr in frames])
            assert batched.shape == frames.shape
            assert np.array_equal(batched, per_frame)


def test_pipeline_determinism(small_recordings):
    from neurolock.pipeline import DspConfig, extract_frame_features
    rec = small_recordings[0]
    a = extract_frame_features(rec, DspConfig(), "graph")
    b = extract_frame_features(rec, DspConfig(), "graph")
    assert np.array_equal(a, b)


def test_pipeline_errors_name_the_recording(rng):
    from neurolock.pipeline import DspConfig, extract_frame_features
    data = rng.normal(size=(3, 1600))
    data[2] = 0.0
    rec = Recording(channels=["a", "b", "c"], fs=160.0, data=data,
                    protocol_tag=Protocol.EC, subject_id="S042")
    with pytest.raises(DegenerateSignal,
                       match=r"^subject 'S042' / EC: all-zero frame 0 channel 2, "):
        extract_frame_features(rec, DspConfig(), "graph")


def test_pipeline_refuses_samples_that_overflow(rng):
    """Finite samples too large to detrend: refused, naming the recording,
    before numpy warns of an overflow or of casting a NaN phase."""
    from neurolock.pipeline import DspConfig, extract_frame_features
    rec = Recording(channels=["a", "b", "c"], fs=160.0, data=1e307 * rng.normal(size=(3, 1600)),
                    protocol_tag=Protocol.EO, subject_id="S042")
    with pytest.raises(DegenerateSignal, match=r"^subject 'S042' / EO: samples too large"):
        extract_frame_features(rec, DspConfig(), "graph")


class TestMatchesScipySignal:
    """The numpy filters equal the scipy.signal calls they replace, bit for bit."""

    ORDERS = (2, 4, 6, 10, 32, 64, 100, 254, 330, 332, 500, 998, 1000)

    @pytest.mark.parametrize("fs", [128.0, 160.0, 173.61, 256.0])
    @pytest.mark.parametrize("low,high", [(13.0, 30.0), (1.0, 4.0), (0.5, 60.0)])
    def test_design_bandpass_equals_firwin(self, fs, low, high):
        import scipy.signal
        for order in self.ORDERS:
            taps = dsp.design_bandpass(fs, low, high, order)
            reference = scipy.signal.firwin(order + 1, [low, high], pass_zero=False,
                                            window="hamming", fs=fs)
            assert np.array_equal(taps, (reference + reference[::-1]) / 2.0), order

    @pytest.mark.parametrize("channels", [1, 16])
    @pytest.mark.parametrize("order", [2, 10, 330])
    def test_filter_zero_phase_equals_filtfilt(self, rng, channels, order):
        import scipy.signal
        taps = dsp.design_bandpass(160.0, 13.0, 30.0, order)
        padlen = 3 * order
        for n_samples in (padlen + 1, padlen + 2, padlen + 321, padlen + 640):
            data = 40.0 * rng.normal(size=(channels, n_samples))
            out = dsp.filter_zero_phase(make_recording(data), taps).data
            reference = scipy.signal.filtfilt(taps, [1.0], data, axis=-1, padlen=padlen)
            assert np.array_equal(out, reference), n_samples

    @pytest.mark.parametrize("band", [(0.5, 42.0), (13.0, 30.0)])  # the two default filters
    @pytest.mark.parametrize("order", [2, 20, 100, 330])
    def test_filter_zero_phase_equals_the_full_length_passes(self, rng, band, order):
        import scipy.signal
        taps = dsp.design_bandpass(160.0, *band, order)
        padlen = 3 * order
        for n_samples in sorted({padlen + 1, padlen + 2, padlen + 3, 2 * padlen + 5,
                                 padlen + 331, 4000, 9920}):
            data = 40.0 * rng.normal(size=(3, n_samples))
            out = dsp.filter_zero_phase(make_recording(data), taps).data
            assert np.array_equal(out, full_length_filtfilt(data, taps)), n_samples
            assert np.array_equal(out, scipy.signal.filtfilt(taps, [1.0], data, axis=-1,
                                                             padlen=padlen)), n_samples

    @pytest.mark.parametrize("shape", [(1, 8), (1, 9), (16, 320), (16, 321),
                                       (3, 16, 320), (2, 1, 347),
                                       *((2, 3, n) for n in [*range(8, 40), 97, 100, 127,
                                                             320, 321, 331, 640, 1009])])
    def test_instantaneous_phase_equals_hilbert(self, rng, shape):
        import scipy.signal
        x = rng.normal(size=shape)
        assert np.array_equal(dsp.instantaneous_phase(x),
                              np.angle(scipy.signal.hilbert(x, axis=-1)))

    def test_instantaneous_phase_equals_hilbert_on_nan_input(self, rng):
        import scipy.signal
        x = rng.normal(size=(2, 4, 321))
        x[1, 2, 17] = np.nan
        assert np.array_equal(dsp.instantaneous_phase(x),
                              np.angle(scipy.signal.hilbert(x, axis=-1)), equal_nan=True)


def full_length_filtfilt(data, taps):
    """Reference: both FIR passes over the whole odd extension by 3 * order samples,
    each cut to its row's length, then the padding cut off."""
    padlen = 3 * (taps.size - 1)
    ext = np.concatenate((2 * data[:, :1] - data[:, padlen:0:-1], data,
                          2 * data[:, -1:] - data[:, -2:-(padlen + 2):-1]), axis=1)
    rows = []
    for row in ext:
        forward = np.convolve(taps, row)[:row.size]
        rows.append(np.convolve(taps, forward[::-1])[:row.size][::-1])
    return np.stack(rows)[:, padlen:-padlen]
