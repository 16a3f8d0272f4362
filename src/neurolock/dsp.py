"""Preprocessing: detrend, band-pass filtering, framing, instantaneous phase.

Filtering is applied forward-backward so that downstream phase estimates are
not biased by the filter's group delay; the effective magnitude response is
the square of the single-pass response. The artifact-removal stage of the
source pipeline is a deliberate no-op here.

The filter design, the zero-phase filter and the analytic signal are computed
in numpy alone, with the float operations of scipy.signal's ``firwin``,
``filtfilt`` and ``hilbert`` in the same order, so they match them bit for bit
without importing scipy.signal, which takes about a second, or scipy.fft.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import ConfigError, DegenerateSignal, LengthError
from .ingest import Recording

PHASE_SAMPLES = 8  # the shortest frame `instantaneous_phase` takes


def detrend(recording: Recording) -> Recording:
    """Remove the least-squares line from each channel."""
    if recording.n_samples < 2:
        raise LengthError("detrend needs at least 2 samples per channel")
    x = np.arange(recording.n_samples, dtype=float)
    x_centered = x - x.mean()
    data = recording.data
    slopes = (data @ x_centered) / float(x_centered @ x_centered)
    fitted = data.mean(axis=1)[:, None] + slopes[:, None] * x_centered[None, :]
    return replace(recording, data=data - fitted)


def check_band(fs: float, low_hz: float, high_hz: float) -> None:
    if not (0.0 < low_hz < high_hz < fs / 2.0):
        raise ConfigError(f"band [{low_hz}, {high_hz}] invalid for fs={fs}")


def design_bandpass(fs: float, low_hz: float, high_hz: float, order: int) -> np.ndarray:
    """Taps (order + 1, exactly symmetric) of a Hamming-window FIR band-pass
    filter of even order."""
    check_band(fs, low_hz, high_hz)
    if order <= 0 or order % 2:
        raise ConfigError(f"order must be even and positive, got {order}")
    left, right = np.array([low_hz, high_hz]) / (0.5 * fs)
    m = np.arange(order + 1) - 0.5 * order
    taps = right * np.sinc(right * m) - left * np.sinc(left * m)
    taps *= 0.54 + (1.0 - 0.54) * np.cos(np.linspace(-np.pi, np.pi, order + 1))  # Hamming
    taps /= np.sum(taps * np.cos(np.pi * m * (0.5 * (left + right))))
    return (taps + taps[::-1]) / 2.0  # enforce exact symmetry


def check_padding(n_samples: int, order: int) -> None:
    """Refuse a recording too short for `filter_zero_phase` with taps of `order`."""
    if n_samples <= 3 * order:
        raise LengthError(f"need more than {3 * order} samples for zero-phase filtering, "
                          f"got {n_samples}")


def filter_zero_phase(recording: Recording, taps: np.ndarray) -> Recording:
    """Apply the FIR taps forward and backward (zero phase distortion), equal bit for bit to
    scipy.signal.filtfilt with padlen = 3 * order: each kept sample is the dot product that
    filtfilt takes, over the same operands in the same order. Only the kept samples are
    computed, so the odd reflection at each end is read `order` samples deep."""
    order = taps.size - 1
    check_padding(recording.n_samples, order)
    ext = np.pad(recording.data, ((0, 0), (order, order)), "reflect", reflect_type="odd")
    return replace(recording, data=np.stack(
        [np.convolve(taps, np.convolve(taps, row, "valid")[::-1], "valid")[::-1] for row in ext]))


def frame_layout(n_samples: int, fs: float, frame_seconds: float, overlap: float):
    """(frames `frame` cuts from n_samples samples, samples per frame, between starts)."""
    if not (0.0 <= overlap < 1.0):
        raise ConfigError(f"overlap fraction must be in [0, 1), got {overlap}")
    if not np.isfinite(frame_seconds * fs):
        raise ConfigError(f"frame of {frame_seconds}s at fs={fs} has too many samples to count")
    length = int(round(frame_seconds * fs))
    if length < 1:
        raise ConfigError(f"frame of {frame_seconds}s is shorter than one sample")
    step = max(int(round(length * (1.0 - overlap))), 1)
    return max((n_samples - length) // step + 1, 0), length, step


def frame(recording: Recording, frame_seconds: float,
          overlap_fraction: float = 0.0) -> np.ndarray:
    """Cut a recording into (frames, channels, samples); the remainder is dropped."""
    count, length, step = frame_layout(recording.n_samples, recording.fs,
                                       frame_seconds, overlap_fraction)
    if count < 1:
        raise LengthError(f"recording has {recording.n_samples} samples, one frame needs {length}")
    return np.stack([recording.data[:, k * step: k * step + length] for k in range(count)])


def instantaneous_phase(x: np.ndarray) -> np.ndarray:
    """Phase in (-pi, pi] of the analytic signal of each row of a (channels, samples)
    frame or a (frames, channels, samples) stack.

    The analytic signal is built with a full-length DFT of each row: negative
    frequencies zeroed, positive doubled, DC and Nyquist kept.
    """
    if x.shape[-1] < PHASE_SAMPLES:
        raise LengthError(f"need at least {PHASE_SAMPLES} samples for phase, got {x.shape[-1]}")
    dead = np.argwhere(np.abs(x).max(axis=-1) == 0.0)
    if dead.size:
        axes = ("frame", "channel")[-dead.shape[1]:]
        where = ", ".join(" ".join(f"{axis} {i}" for axis, i in zip(axes, index))
                          for index in dead.tolist())
        raise DegenerateSignal(f"all-zero {where}: phase undefined")
    n = x.shape[-1]
    spectrum = np.fft.rfft(x, axis=-1)
    spectrum[..., 1:(n + 1) // 2] *= 2.0
    return np.angle(np.fft.ifft(spectrum, n, axis=-1))  # zero-fills the negative frequencies
