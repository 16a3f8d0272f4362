"""Preprocessing: detrend, band-pass filtering, framing, instantaneous phase.

Filtering is applied forward-backward so that downstream phase estimates are
not biased by the filter's group delay; the effective magnitude response is
the square of the single-pass response. The artifact-removal stage of the
source pipeline is a deliberate no-op here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.signal

from .errors import ConfigError, DegenerateSignal, LengthError
from .ingest import Recording


@dataclass
class FirFilter:
    """Linear-phase FIR band-pass filter (order + 1 symmetric taps)."""

    taps: np.ndarray
    fs: float
    low_hz: float
    high_hz: float
    order: int

    @property
    def transition_width_hz(self) -> float:
        # Hamming-window design rule of thumb: ~3.3 normalized-frequency units
        return 3.3 * self.fs / (self.order + 1)

    def response_at(self, freq_hz: float) -> float:
        """Single-pass magnitude response at one frequency."""
        w = 2.0 * np.pi * freq_hz / self.fs
        _, h = scipy.signal.freqz(self.taps, worN=[w])
        return float(np.abs(h[0]))


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


def design_bandpass(fs: float, low_hz: float, high_hz: float, order: int) -> FirFilter:
    """Design a Hamming-window FIR band-pass filter of even order."""
    if not (0.0 < low_hz < high_hz < fs / 2.0):
        raise ConfigError(f"band [{low_hz}, {high_hz}] invalid for fs={fs}")
    if order <= 0 or order % 2:
        raise ConfigError(f"order must be even and positive, got {order}")
    taps = scipy.signal.firwin(order + 1, [low_hz, high_hz], pass_zero=False,
                               window="hamming", fs=fs)
    taps = (taps + taps[::-1]) / 2.0  # enforce exact symmetry
    return FirFilter(taps=taps, fs=fs, low_hz=low_hz, high_hz=high_hz, order=order)


def filter_zero_phase(recording: Recording, filt: FirFilter) -> Recording:
    """Apply the filter forward and backward (zero phase distortion)."""
    if recording.n_samples <= 3 * filt.order:
        raise LengthError(
            f"need more than {3 * filt.order} samples for zero-phase filtering, "
            f"got {recording.n_samples}")
    data = scipy.signal.filtfilt(filt.taps, [1.0], recording.data, axis=-1,
                                 padlen=3 * filt.order)
    return replace(recording, data=data)


def frame(recording: Recording, frame_seconds: float,
          overlap_fraction: float = 0.0) -> np.ndarray:
    """Cut a recording into (frames, channels, samples); the remainder is dropped."""
    if not (0.0 <= overlap_fraction < 1.0):
        raise ConfigError(f"overlap fraction must be in [0, 1), got {overlap_fraction}")
    length = int(round(frame_seconds * recording.fs))
    if length < 1:
        raise ConfigError(f"frame of {frame_seconds}s is shorter than one sample")
    if recording.n_samples < length:
        raise LengthError(
            f"recording has {recording.n_samples} samples, one frame needs {length}")
    step = max(int(round(length * (1.0 - overlap_fraction))), 1)
    count = (recording.n_samples - length) // step + 1
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
    return np.angle(scipy.signal.hilbert(x, axis=-1))
