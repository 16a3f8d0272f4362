"""Preprocessing: detrend, band-pass filtering, framing, instantaneous phase.

Filtering is applied forward-backward so that downstream phase estimates are
not biased by the filter's group delay; the effective magnitude response is
the square of the single-pass response. The artifact-removal stage of the
source pipeline is a deliberate no-op here.

The filter design, the zero-phase filter and the analytic signal are computed
in numpy (and scipy.fft), with the float operations of scipy.signal's
``firwin``, ``filtfilt`` and ``hilbert`` in the same order, so they match them
bit for bit without importing scipy.signal, which takes about a second.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import ConfigError, DegenerateSignal, LengthError
from .ingest import Recording


def detrend(recording: Recording) -> Recording:
    """Remove the least-squares line from each channel."""
    if recording.n_samples < 2:
        raise LengthError("detrend needs at least 2 samples per channel")
    n = recording.n_samples
    x = np.arange(n, dtype=float)
    x_centered = x - x.mean()
    denom = float(x_centered @ x_centered)
    data = recording.data
    slopes = (data @ x_centered) / denom
    means = data.mean(axis=1)
    fitted = means[:, None] + slopes[:, None] * x_centered[None, :]
    return replace(recording, data=data - fitted)


def design_bandpass(fs: float, low_hz: float, high_hz: float, order: int) -> np.ndarray:
    """Taps (order + 1, exactly symmetric) of a Hamming-window FIR band-pass
    filter of even order."""
    if not (0.0 < low_hz < high_hz < fs / 2.0):
        raise ConfigError(f"band [{low_hz}, {high_hz}] invalid for fs={fs}")
    if order <= 0 or order % 2:
        raise ConfigError(f"order must be even and positive, got {order}")
    left, right = np.array([low_hz, high_hz]) / (0.5 * fs)
    m = np.arange(order + 1) - 0.5 * order
    taps = right * np.sinc(right * m) - left * np.sinc(left * m)
    taps *= 0.54 + (1.0 - 0.54) * np.cos(np.linspace(-np.pi, np.pi, order + 1))  # Hamming
    taps /= np.sum(taps * np.cos(np.pi * m * (0.5 * (left + right))))
    return (taps + taps[::-1]) / 2.0  # enforce exact symmetry


def filter_zero_phase(recording: Recording, taps: np.ndarray) -> Recording:
    """Apply the FIR taps forward and backward (zero phase distortion), over the
    recording extended at each end by its odd reflection of 3 * order samples."""
    padlen = 3 * (taps.size - 1)
    if recording.n_samples <= padlen:
        raise LengthError(
            f"need more than {padlen} samples for zero-phase filtering, "
            f"got {recording.n_samples}")
    x = recording.data
    ext = np.concatenate((2 * x[:, :1] - x[:, padlen:0:-1], x,
                          2 * x[:, -1:] - x[:, -2:-(padlen + 2):-1]), axis=1)
    # scipy.signal.filtfilt also starts each pass from lfilter_zi's steady state,
    # but that only changes the first taps.size - 1 outputs of a pass, and they
    # land in the padding that is cut off: the kept samples never depend on it.
    rows = []
    for row in ext:
        forward = np.convolve(taps, row)[:row.size]
        rows.append(np.convolve(taps, forward[::-1])[:row.size][::-1])
    return replace(recording, data=np.stack(rows)[:, padlen:-padlen])


def _frame_layout(n_samples: int, fs: float, frame_seconds: float, overlap: float):
    """(frame count, samples per frame, samples between frame starts)."""
    if not (0.0 <= overlap < 1.0):
        raise ConfigError(f"overlap fraction must be in [0, 1), got {overlap}")
    length = int(round(frame_seconds * fs))
    if length < 1:
        raise ConfigError(f"frame of {frame_seconds}s is shorter than one sample")
    step = max(int(round(length * (1.0 - overlap))), 1)
    return max((n_samples - length) // step + 1, 0), length, step


def frame_count(n_samples: int, fs: float, frame_seconds: float, overlap: float) -> int:
    """Frames `frame` cuts from n_samples samples per channel; 0 when none fits."""
    return _frame_layout(n_samples, fs, frame_seconds, overlap)[0]


def frame(recording: Recording, frame_seconds: float,
          overlap_fraction: float = 0.0) -> np.ndarray:
    """Cut a recording into (frames, channels, samples); the remainder is dropped."""
    count, length, step = _frame_layout(recording.n_samples, recording.fs,
                                        frame_seconds, overlap_fraction)
    if count < 1:
        raise LengthError(
            f"recording has {recording.n_samples} samples, one frame needs {length}")
    return np.stack([recording.data[:, k * step: k * step + length] for k in range(count)])


def instantaneous_phase(x: np.ndarray) -> np.ndarray:
    """Phase in (-pi, pi] of the analytic signal of each row of a (channels, samples)
    frame or a (frames, channels, samples) stack.

    The analytic signal is built with a full-length DFT of each row: negative
    frequencies zeroed, positive doubled, DC and Nyquist kept.
    """
    if x.shape[-1] < 8:
        raise LengthError(f"need at least 8 samples for phase, got {x.shape[-1]}")
    dead = np.argwhere(np.abs(x).max(axis=-1) == 0.0)
    if dead.size:
        axes = ("frame", "channel")[-dead.shape[1]:]
        where = ", ".join(" ".join(f"{axis} {i}" for axis, i in zip(axes, index))
                          for index in dead.tolist())
        raise DegenerateSignal(f"all-zero {where}: phase undefined")
    import scipy.fft  # numpy.fft differs from scipy.signal.hilbert in the last bits
    n = x.shape[-1]
    spectrum = scipy.fft.fft(x, axis=-1)
    spectrum[..., 1:(n + 1) // 2] *= 2.0
    spectrum[..., n // 2 + 1:] = 0.0
    return np.angle(scipy.fft.ifft(spectrum, axis=-1))
