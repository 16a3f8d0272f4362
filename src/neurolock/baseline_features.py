"""Classical per-channel comparison features: AR reflection coefficients,
spectral band powers, and fuzzy entropy, in numpy alone."""

from __future__ import annotations

import enum

import numpy as np

from .errors import ConfigError, DegenerateSignal, LengthError

# band edges in Hz: delta, theta, alpha, beta, gamma
BANDS = ((0.5, 4.0), (4.0, 8.0), (8.0, 13.0), (13.0, 30.0), (30.0, 42.0))
BAND_NAMES = ("delta", "theta", "alpha", "beta", "gamma")
AR_ORDER = 5  # Burg reflection coefficients per channel


class BaselineKind(enum.Enum):
    AR = "ar"          # AR_ORDER reflection coefficients per channel
    PSD = "psd"        # 5 band powers per channel
    FUZZEN = "fuzzen"  # 1 entropy value per channel
    CONCAT = "concat"  # AR then PSD then FuzzEn


# per-channel component names of each single kind; CONCAT joins the kinds
# in this order
_COMPONENTS = {BaselineKind.AR: [f"ar_k{i + 1}" for i in range(AR_ORDER)],
               BaselineKind.PSD: [f"bp_{b}" for b in BAND_NAMES],
               BaselineKind.FUZZEN: ["fuzzen"]}


def ar_reflection_coeffs(channel: np.ndarray) -> np.ndarray:
    """Burg-method reflection coefficients k_1..k_AR_ORDER, each in [-1, 1].

    Sign convention: the coefficient is the (negative) normalized cross
    correlation of forward and backward prediction errors, so a strongly
    positively autocorrelated AR(1) process yields k_1 close to -0.9.
    """
    x = np.asarray(channel, dtype=float).ravel()
    if x.size <= 2 * AR_ORDER:
        raise LengthError(f"need more than {2 * AR_ORDER} samples, got {x.size}")
    if np.ptp(x) == 0.0:
        raise DegenerateSignal("zero-variance input: AR model undefined")
    f = x[1:].astype(float)   # forward prediction error
    b = x[:-1].astype(float)  # backward prediction error, lagged one sample
    coeffs = np.zeros(AR_ORDER)
    for m in range(AR_ORDER):
        denom = float(f @ f + b @ b)
        if denom == 0.0:
            break
        k = -2.0 * float(f @ b) / denom
        coeffs[m] = k
        f_next = f + k * b
        b_next = b + k * f
        f = f_next[1:]
        b = b_next[:-1]
    return coeffs


def welch(channel: np.ndarray, fs: float) -> tuple[np.ndarray, np.ndarray]:
    """Frequencies and one-sided density (Welch 1967) of a series x: periodic Hamming
    windows of n = min(160, x.size) samples, overlapping by n // 2, no detrend. Bit for
    bit ``scipy.signal.welch(x, fs, "hamming", n, n // 2, detrend=False)`` (scipy 1.17)."""
    x = np.asarray(channel, dtype=float).ravel()
    if x.size < 64:
        raise LengthError(f"need at least 64 samples, got {x.size}")
    n = min(160, x.size)
    hop = n - n // 2
    # periodic: the first n points of the symmetric (n + 1)-point window
    w = 0.54 + (1 - 0.54) * np.cos(np.linspace(-np.pi, np.pi, n + 1)[:-1])
    w = w * (1.0 / np.sqrt(sum(w ** 2) / (1.0 / fs)))  # Python's sum, to density
    starts = np.arange((x.size - n // 2) // hop) * hop
    # (frequencies, segments): the mean then sums each row as scipy's does
    spectrum = np.fft.rfft(x[np.arange(n)[:, None] + starts] * w[:, None], axis=0)
    psd = spectrum.real ** 2 + spectrum.imag ** 2
    psd[1:-1 if n % 2 == 0 else None] *= 2  # one-sided: all but DC and Nyquist
    return np.fft.rfftfreq(n, 1.0 / fs), psd.mean(axis=-1)


def band_powers(channel: np.ndarray, fs: float) -> np.ndarray:
    """Band power over delta/theta/alpha/beta/gamma from a Welch periodogram.

    Each entry integrates the spectral density (`welch`) across its band, so
    the five values sum to (roughly) the in-band signal power.
    """
    freqs, psd = welch(channel, fs)
    df = freqs[1] - freqs[0]
    out = np.empty(len(BANDS))
    for i, (lo, hi) in enumerate(BANDS):
        upper = freqs <= hi if i == len(BANDS) - 1 else freqs < hi  # the last band is closed
        out[i] = psd[(freqs >= lo) & upper].sum() * df
    return out


def fuzzy_entropy(channel: np.ndarray) -> float:
    """Fuzzy entropy -ln(phi_{m+1} / phi_m) with exponential membership, m = 2.

    Templates of lengths m and m+1 have their own means removed; pair
    distances are Chebyshev; membership is exp(-(d / r)^2) with
    r = 0.2 * std(channel).
    """
    m = 2
    x = np.asarray(channel, dtype=float).ravel()
    if x.size <= m + 2:
        raise LengthError(f"need more than {m + 2} samples, got {x.size}")
    r = 0.2 * float(np.std(x))
    if r == 0.0:
        raise DegenerateSignal("constant series: tolerance r is zero")

    def phi(width: int) -> float:
        count = x.size - m  # same template count for widths m and m+1
        idx = np.arange(count)[:, None] + np.arange(width)[None, :]
        templates = x[idx]
        templates = templates - templates.mean(axis=1, keepdims=True)
        dists = np.abs(templates[:, None, :] - templates[None, :, :]).max(axis=2)
        members = np.exp(-np.power(dists / r, 2.0))
        total = members.sum() - np.trace(members)  # exclude self-matches
        return total / (count * (count - 1))

    return float(-np.log(phi(m + 1) / phi(m)))


def baseline_vector(data: np.ndarray, fs: float, kind: BaselineKind) -> np.ndarray:
    """Baseline feature vector of one (channels, samples) frame, channel-major."""
    if kind == BaselineKind.CONCAT:
        return np.concatenate([baseline_vector(data, fs, part) for part in _COMPONENTS])
    if kind == BaselineKind.AR:
        values = np.concatenate([ar_reflection_coeffs(ch) for ch in data])
    elif kind == BaselineKind.PSD:
        values = np.concatenate([band_powers(ch, fs) for ch in data])
    elif kind == BaselineKind.FUZZEN:
        values = np.array([fuzzy_entropy(ch) for ch in data])
    else:
        raise ConfigError(f"unknown baseline kind {kind}")
    if not np.all(np.isfinite(values)):
        raise ConfigError("baseline feature vector contains non-finite entries")
    return values


def baseline_feature_names(kind: BaselineKind, n_channels: int) -> list[str]:
    parts = list(_COMPONENTS) if kind == BaselineKind.CONCAT else [kind]
    return [f"ch{c:02d}_{name}" for part in parts for c in range(n_channels)
            for name in _COMPONENTS[part]]
