"""End-to-end feature extraction: recordings in, per-frame feature vectors out.

Stages: detrend, wide pre-filter, then either the graph path (beta-band
filter, framing into a (frames, channels, samples) array, instantaneous phase
of all frames at once, one synchronization graph per frame, and the features
of that graph stack at once) or a classical per-channel path on the frames.
"""

from __future__ import annotations

import hashlib
import numbers
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from . import baseline_features as bf
from . import connectivity, dsp, graph_features
from .errors import ConfigError, DegenerateSignal, ShapeError, error_context, is_a, require
from .ingest import PROTOCOL_PAIR, Protocol, Recording, atomic_write, csv_text

FEATURE_KINDS = ("graph", *(kind.value for kind in bf.BaselineKind))


@dataclass
class DspConfig:
    prefilter: tuple[float, float] = (0.5, 42.0)
    band: tuple[float, float] = (13.0, 30.0)
    frame_seconds: float = 2.0
    overlap: float = 0.0
    fir_order: int = 330
    rho_bins: int | None = None

    def __post_init__(self):
        """Check types and ranges; `check_extraction` checks the rest against a rate."""
        def band(pair):
            return len(pair) == 2 and all(is_a(v, numbers.Real) for v in pair) \
                and 0 < pair[0] < pair[1]

        pair_rule = ((list, tuple), band, "a [low, high] pair with 0 < low < high")
        rules = (("prefilter", *pair_rule), ("band", *pair_rule),
                 ("frame_seconds", numbers.Real, lambda v: 0 < v < np.inf, "a positive number"),
                 ("overlap", numbers.Real, lambda v: 0 <= v < 1, "a number in [0, 1)"),
                 ("fir_order", numbers.Integral, lambda v: v > 0 and v % 2 == 0,
                  "an even positive integer"),
                 ("rho_bins", (numbers.Integral, type(None)), lambda v: v is None or v >= 2,
                  "null or an integer of at least 2"))
        for name, kind, ok, what in rules:
            require(name, getattr(self, name), kind, ok, what)


@dataclass
class FeatureDataset:
    """Per-frame feature vectors grouped by (subject, protocol)."""

    vectors: dict[tuple[str, Protocol], np.ndarray] = field(default_factory=dict)
    feature_kind: str = "graph"
    names: list[str] = field(default_factory=list)

    @property
    def subjects(self) -> list[str]:
        return sorted({s for s, _ in self.vectors})

    @property
    def protocols(self) -> list[Protocol]:
        return sorted({p for _, p in self.vectors}, key=lambda p: p.value)

    @property
    def dim(self) -> int:
        first = next(iter(self.vectors.values()))
        return first.shape[1]

    def frames(self, subject: str, protocol: Protocol) -> np.ndarray:
        key = (subject, protocol)
        if key not in self.vectors:
            raise ConfigError(f"no features for subject {subject!r} / {protocol.value}")
        return self.vectors[key]

    def n_frames(self, subject: str, protocol: Protocol) -> int:
        return self.frames(subject, protocol).shape[0]


def stable_int(text: str) -> int:
    """32-bit seed from a string's blake2s digest, the same in every process."""
    return int.from_bytes(hashlib.blake2s(text.encode(), digest_size=4).digest(), "big")


def check_extraction(config: DspConfig, fs: float, kind: str = "graph",
                     n_samples: int | None = None, n_channels: int | None = None,
                     frames_needed: int = 1) -> list[tuple[float, float]]:
    """The bands a `kind` extraction filters with at `fs` (the prefilter, then for graph
    features the band) once every rule that needs no data holds, else a ConfigError. Given
    a recording's sample and channel counts, it checks them too, for `frames_needed` frames."""
    if n_samples is not None and n_samples <= 3 * config.fir_order:
        raise ConfigError(f"a recording has {n_samples} samples; zero-phase filtering "
                          f"needs more than 3 * dsp.fir_order = {3 * config.fir_order}")
    bands = ("prefilter", "band") if kind == "graph" else ("prefilter",)
    for name in bands:
        with error_context(f"dsp.{name}"):
            dsp.check_band(fs, *getattr(config, name))
    count, length, _ = dsp.frame_layout(n_samples or 0, fs, config.frame_seconds, config.overlap)
    if kind == "graph" and length < dsp.PHASE_SAMPLES:
        raise ConfigError(f"dsp.frame_seconds = {config.frame_seconds} gives frames of "
                          f"{length} samples, fewer than the {dsp.PHASE_SAMPLES} the phase needs")
    if kind == "graph" and config.rho_bins is not None and config.rho_bins > length:
        raise ConfigError(f"dsp.rho_bins = {config.rho_bins} is more than the "
                          f"{length} samples of a frame")
    if n_samples is not None and count < frames_needed:
        raise ConfigError(f"a recording has {count} frames < {frames_needed} needed")
    if kind == "graph" and n_channels is not None and n_channels < graph_features.MIN_NODES:
        raise ConfigError(f"graph features need at least {graph_features.MIN_NODES} "
                          f"channels, got {n_channels}")
    return [getattr(config, name) for name in bands]


def extract_frame_features(recording: Recording, config: DspConfig,
                           kind: str = "graph") -> np.ndarray:
    """Run one recording through the pipeline; rows are frames. Errors name the recording."""
    if kind not in FEATURE_KINDS:
        raise ConfigError(f"unknown feature kind {kind!r}; expected one of {FEATURE_KINDS}")
    with error_context(f"subject {recording.subject_id!r} / {recording.protocol_tag.value}"):
        bands = check_extraction(config, recording.fs, kind)
        dsp.check_padding(recording.n_samples, config.fir_order)  # before designing taps
        with np.errstate(over="ignore", invalid="ignore"):  # refused below unless finite
            rec = dsp.detrend(recording)
            for taps in (dsp.design_bandpass(rec.fs, *band, config.fir_order) for band in bands):
                rec = dsp.filter_zero_phase(rec, taps)
        if not np.isfinite(rec.data).all():
            raise DegenerateSignal("samples too large: the detrended, filtered signal overflows")
        frames = dsp.frame(rec, config.frame_seconds, config.overlap)
        if kind != "graph":
            return np.stack([bf.baseline_vector(fr, rec.fs, bf.BaselineKind(kind))
                             for fr in frames])
        phases = dsp.instantaneous_phase(frames)
        graphs = np.stack([connectivity.build_graph(phase, config.rho_bins) for phase in phases])
        # per-frame seeds keep the output independent of extraction order
        return graph_features.extract_features(
            graphs, [stable_int(f"{recording.subject_id}:{k}") for k in range(len(graphs))])


def same_channels(recordings: Iterable[Recording]) -> Iterator[Recording]:
    """Each recording in turn, once it has the first one's channel count; else ShapeError."""
    first = None
    for rec in recordings:
        name = f"{rec.subject_id}/{rec.protocol_tag.value}"
        first = first or (name, rec.n_channels)
        if rec.n_channels != first[1]:
            raise ShapeError(f"recording {name} has {rec.n_channels} channels, "
                             f"{first[0]} has {first[1]}")
        yield rec


def build_feature_dataset(recordings: Iterable[Recording], config: DspConfig,
                          kind: str = "graph") -> FeatureDataset:
    """Extract features for every recording, grouped by (subject, protocol).

    One pass over any iterable, keeping only each recording's feature matrix: fed
    by a generator such as `synthesize`, it holds one recording at a time. A
    recording with another channel count than the first raises ShapeError as it
    arrives, after the recordings before it are extracted.
    """
    vectors, n_channels = {}, 0
    for rec in same_channels(recordings):
        key = (rec.subject_id, rec.protocol_tag)
        if key in vectors:
            raise ConfigError(f"duplicate recording for {key}")
        vectors[key], n_channels = extract_frame_features(rec, config, kind), rec.n_channels
    if not vectors:
        raise ConfigError("no recordings to extract features from")
    names = (graph_features.feature_names(n_channels) if kind == "graph"
             else bf.baseline_feature_names(bf.BaselineKind(kind), n_channels))
    return FeatureDataset(vectors=vectors, feature_kind=kind, names=names)


def write_feature_csv(path, matrix: np.ndarray, names: list[str]) -> None:
    """One row per frame, header with component names; written atomically."""
    atomic_write(path, csv_text([["frame_index", *names]]
                                + [[idx] + [repr(float(v)) for v in row]
                                   for idx, row in enumerate(matrix)]))


def random_feature_dataset(n_subjects: int, n_frames: int, dim: int,
                           seed: int) -> FeatureDataset:
    """Seeded random feature dataset (subject anchor + frame jitter).

    Each protocol of `PROTOCOL_PAIR` scales the subject's anchor by a
    uniform factor in [0.75, 1.25] per feature, and each frame adds 10 %
    Gaussian jitter.
    Useful for protocol-count checks and metric plumbing where realistic EEG
    structure is unnecessary. Values stay positive, loosely mimicking graph
    feature magnitudes.
    """
    vectors = {}
    for s in range(n_subjects):
        anchor_rng = np.random.default_rng([seed, s])
        anchor = anchor_rng.uniform(0.2, 1.0, size=dim)
        for p_idx, protocol in enumerate(PROTOCOL_PAIR):
            rng = np.random.default_rng([seed, s, p_idx])
            shift = rng.uniform(0.75, 1.25, size=dim)
            frames = anchor * shift * (1.0 + 0.1 * rng.standard_normal((n_frames, dim)))
            vectors[(f"S{s + 1:03d}", protocol)] = np.abs(frames)
    return FeatureDataset(vectors=vectors, feature_kind="random",
                          names=[f"f{i:03d}" for i in range(dim)])
