"""Entropy-based phase-synchronization graphs.

For two channels the synchronization index compares the entropy of their
relative-phase histogram against the maximum-entropy (uniform) case: 1 means
the relative phase is constant (perfect coupling), 0 means it is uniformly
spread (no coupling). Computing the index for every channel pair yields a
symmetric weighted graph with a zero diagonal.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, LengthError

TWO_PI = 2.0 * np.pi


def default_bin_count(n_samples: int) -> int:
    """Histogram bin count rule: max(8, ceil(exp(0.626 + 0.4 ln(L - 1))))."""
    if n_samples < 2:
        raise LengthError("need at least 2 samples to choose a bin count")
    return max(8, math.ceil(math.exp(0.626 + 0.4 * math.log(n_samples - 1))))


def _bin_indices(wrapped: np.ndarray, bins: int) -> np.ndarray:
    """Equal-width bin index over [0, 2*pi); shared by scalar and batch paths."""
    idx = np.floor(wrapped * (bins / TWO_PI)).astype(np.int64)
    return np.clip(idx, 0, bins - 1)


def rho_index(rel_phase: np.ndarray, bins: int) -> float:
    """Normalized entropy deficit of the relative-phase histogram, in [0, 1].

    Empty bins contribute zero entropy (0 ln 0 = 0). The histogram spans
    [0, 2*pi) with `bins` equal cells; values are wrapped into that range.
    """
    if bins < 2:
        raise ConfigError(f"need at least 2 histogram bins, got {bins}")
    rel_phase = np.asarray(rel_phase, dtype=float).ravel()
    if rel_phase.size < bins:
        raise LengthError(f"series of {rel_phase.size} samples for {bins} bins")
    wrapped = np.mod(rel_phase, TWO_PI)
    counts = np.bincount(_bin_indices(wrapped, bins), minlength=bins)
    p = counts[counts > 0] / rel_phase.size
    entropy = float(-(p * np.log(p)).sum())
    max_entropy = math.log(bins)
    # rounding can leave an exactly uniform histogram a hair below zero
    return max(0.0, (max_entropy - entropy) / max_entropy)


def build_graph(phase: np.ndarray, bins: int | None = None) -> np.ndarray:
    """Adjacency of one (channels, samples) phase frame: the synchronization
    index on every unordered channel pair, symmetric, diagonal zero.

    All pairs are computed in one vectorized pass, equal to rho_index on each
    pair bit for bit. When every |a - b| lies in [0, 2*pi], as for phases in
    [-pi, pi], wrapping only maps 2*pi to 0, so the pass skips np.mod.
    """
    n, length = phase.shape
    if n < 2:
        raise ConfigError(f"need at least 2 channels to build a graph, got {n}")
    if bins is None:
        bins = default_bin_count(length)
    if length < bins:
        raise LengthError(f"frames of {length} samples for {bins} bins")
    iu, ju = np.triu_indices(n, k=1)
    diff = phase[iu] - phase[ju]  # pairs x samples
    np.abs(diff, out=diff)
    if diff.max() <= TWO_PI:  # phases within [-pi, pi]; NaN fails this and wraps below
        diff[diff == TWO_PI] = 0.0  # np.mod's wrap of [0, 2*pi]
        idx = (diff * (bins / TWO_PI)).astype(np.int64)  # truncation floors values >= 0
        np.minimum(idx, bins - 1, out=idx)
    else:
        idx = _bin_indices(np.mod(diff, TWO_PI), bins)
    flat = idx + (np.arange(iu.size)[:, None] * bins)
    counts = np.bincount(flat.ravel(), minlength=iu.size * bins)
    counts = counts.reshape(iu.size, bins)
    p = counts / length
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, p * np.log(p), 0.0)
    entropy = -terms.sum(axis=1)
    values = np.maximum((math.log(bins) - entropy) / math.log(bins), 0.0)  # as rho_index
    adjacency = np.zeros((n, n), dtype=float)
    adjacency[iu, ju] = values
    adjacency[ju, iu] = values
    return adjacency
