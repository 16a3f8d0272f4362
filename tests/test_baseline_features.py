import numpy as np
import pytest

from neurolock import baseline_features as bf
from neurolock.errors import ConfigError, DegenerateSignal, LengthError


def fuzzy_entropy_reference(x, m=2, r_factor=0.2, n_exp=2.0):
    """Direct double-loop implementation used as the oracle."""
    x = np.asarray(x, dtype=float)
    n = x.size
    r = r_factor * np.std(x)

    def phi(width):
        count = n - m
        templates = []
        for i in range(count):
            t = x[i:i + width]
            templates.append(t - t.mean())
        total = 0.0
        for i in range(count):
            for j in range(count):
                if i == j:
                    continue
                d = max(abs(a - b) for a, b in zip(templates[i], templates[j]))
                total += np.exp(-((d / r) ** n_exp))
        return total / (count * (count - 1))

    return -np.log(phi(m + 1) / phi(m))


class TestArReflection:
    def test_white_noise_coefficients_small(self):
        for seed in range(5):
            x = np.random.default_rng(seed).standard_normal(320)
            k = bf.ar_reflection_coeffs(x)
            assert np.all(np.abs(k) < 0.2)

    def test_ar1_process_first_coefficient(self):
        rng = np.random.default_rng(42)
        x = np.zeros(4000)
        for t in range(1, x.size):
            x[t] = 0.9 * x[t - 1] + rng.standard_normal()
        k = bf.ar_reflection_coeffs(x)
        assert k[0] == pytest.approx(-0.9, abs=0.05)

    def test_stability_bound(self, rng):
        for _ in range(20):
            x = rng.standard_normal(64)
            k = bf.ar_reflection_coeffs(x)
            assert np.all(np.abs(k) <= 1.0)

    def test_constant_input_raises(self):
        with pytest.raises(DegenerateSignal):
            bf.ar_reflection_coeffs(np.ones(100))

    def test_too_short_raises(self):
        with pytest.raises(LengthError):
            bf.ar_reflection_coeffs(np.arange(10.0))


class TestBandPowers:
    def test_alpha_dominates_for_10hz(self):
        t = np.arange(320) / 160.0
        powers = bf.band_powers(np.sin(2 * np.pi * 10.0 * t), fs=160.0)
        alpha = powers[2]
        others = np.delete(powers, 2)
        assert np.all(alpha >= 10.0 * others)

    def test_zero_signal_gives_zeros(self):
        assert np.all(bf.band_powers(np.zeros(320), fs=160.0) == 0.0)

    def test_equal_amplitude_tones_balance_theta_beta(self):
        t = np.arange(320) / 160.0
        x = np.sin(2 * np.pi * 5.0 * t) + np.sin(2 * np.pi * 20.0 * t)
        powers = bf.band_powers(x, fs=160.0)
        theta, beta = powers[1], powers[3]
        assert abs(theta - beta) <= 0.2 * max(theta, beta)

    def test_parseval_total(self, rng):
        t = np.arange(640) / 160.0
        x = (np.sin(2 * np.pi * 6.0 * t) + 0.5 * np.sin(2 * np.pi * 24.0 * t)
             + 0.2 * np.sin(2 * np.pi * 35.0 * t))
        powers = bf.band_powers(x, fs=160.0)
        assert powers.sum() == pytest.approx(np.var(x), rel=0.05)

    def test_short_signal_raises(self):
        with pytest.raises(LengthError):
            bf.band_powers(np.zeros(32), fs=160.0)
        with pytest.raises(LengthError):
            bf.welch(np.zeros(63), fs=160.0)


def band_powers_reference(x, fs):
    """The band sums over scipy.signal.welch, the call `band_powers` replaced."""
    import scipy.signal
    nperseg = min(160, x.size)
    freqs, psd = scipy.signal.welch(x, fs=fs, window="hamming", nperseg=nperseg,
                                    noverlap=nperseg // 2, detrend=False)
    df = freqs[1] - freqs[0]
    out = np.empty(len(bf.BANDS))
    for i, (lo, hi) in enumerate(bf.BANDS):
        if i == len(bf.BANDS) - 1:
            mask = (freqs >= lo) & (freqs <= hi)
        else:
            mask = (freqs >= lo) & (freqs < hi)
        out[i] = psd[mask].sum() * df
    return freqs, psd, out


class TestMatchesScipyWelch:
    """The numpy Welch periodogram equals scipy.signal.welch bit for bit."""

    EDGES = (64, 65, 158, 159, 160, 161, 239, 240, 241, 320, 9919, 9920)

    @pytest.mark.parametrize("fs", [128.0, 160.0, 173.61, 256.0])
    def test_welch_and_band_powers_equal_scipy(self, fs):
        rng = np.random.default_rng(int(fs * 100))
        # below 160 samples nperseg is the length, odd or even; above it is 160
        sizes = [*self.EDGES, *rng.integers(64, 160, 15), *rng.integers(160, 9921, 15)]
        assert {n % 2 for n in sizes if n < 160} == {0, 1}
        for size in sizes:
            x = rng.uniform(0.1, 100.0) * rng.standard_normal(int(size))
            freqs, psd, powers = band_powers_reference(x, fs)
            ours = bf.welch(x, fs)
            assert np.array_equal(ours[0], freqs) and np.array_equal(ours[1], psd), size
            assert np.array_equal(bf.band_powers(x, fs), powers), size


class TestFuzzyEntropy:
    def test_short_period_series_near_zero(self):
        x = np.tile([1.0, -1.0], 160)
        assert bf.fuzzy_entropy(x) < 0.2

    def test_matches_double_loop_reference(self):
        x = np.random.default_rng(7).standard_normal(120)
        assert bf.fuzzy_entropy(x) == pytest.approx(
            fuzzy_entropy_reference(x), abs=1e-12)

    def test_scaling_invariance(self, rng):
        x = rng.standard_normal(320)
        assert bf.fuzzy_entropy(7.3 * x) == pytest.approx(
            bf.fuzzy_entropy(x), abs=1e-9)

    def test_constant_series_raises(self):
        with pytest.raises(DegenerateSignal):
            bf.fuzzy_entropy(np.full(100, 2.5))

    def test_noise_above_periodic(self, rng):
        periodic = np.tile([0.0, 1.0, 0.0, -1.0], 80)
        noise = rng.standard_normal(320)
        assert bf.fuzzy_entropy(noise) > bf.fuzzy_entropy(periodic)


class TestVectors:
    def test_lengths_per_kind(self, rng):
        data = rng.standard_normal((3, 320))
        assert bf.baseline_vector(data, 160.0, bf.BaselineKind.AR).shape == (15,)
        assert bf.baseline_vector(data, 160.0, bf.BaselineKind.PSD).shape == (15,)
        assert bf.baseline_vector(data, 160.0, bf.BaselineKind.FUZZEN).shape == (3,)
        assert bf.baseline_vector(data, 160.0, bf.BaselineKind.CONCAT).shape == (33,)

    def test_concat_order(self, rng):
        data = rng.standard_normal((3, 320))
        parts = [bf.baseline_vector(data, 160.0, kind) for kind in
                 (bf.BaselineKind.AR, bf.BaselineKind.PSD, bf.BaselineKind.FUZZEN)]
        cat = bf.baseline_vector(data, 160.0, bf.BaselineKind.CONCAT)
        assert np.array_equal(cat, np.concatenate(parts))

    def test_non_finite_values_raise(self, rng):
        data = rng.standard_normal((2, 320))
        data[1, 5] = np.nan
        with pytest.raises(ConfigError, match="non-finite"):
            bf.baseline_vector(data, 160.0, bf.BaselineKind.PSD)

    def test_deterministic(self, rng):
        data = rng.standard_normal((3, 320))
        a = bf.baseline_vector(data, 160.0, bf.BaselineKind.CONCAT)
        b = bf.baseline_vector(data, 160.0, bf.BaselineKind.CONCAT)
        assert np.array_equal(a, b)

    def test_names_match_lengths(self, rng):
        data = rng.standard_normal((4, 320))
        for kind in bf.BaselineKind:
            names = bf.baseline_feature_names(kind, 4)
            assert len(names) == len(set(names))
            assert len(names) == bf.baseline_vector(data, 160.0, kind).size
