"""End-to-end feature extraction: recordings in, per-frame feature vectors out.

Stages: detrend, wide pre-filter, then either the graph path (beta-band
filter, framing into a (frames, channels, samples) array, instantaneous phase
of all frames at once, one synchronization graph and feature vector per
frame) or a classical per-channel feature path on the pre-filtered frames.
"""

from __future__ import annotations

import hashlib
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import baseline_features as bf
from . import connectivity, dsp, graph_features
from .errors import ConfigError, ShapeError, error_context, is_a, require
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
        """Check types and ranges before any extraction; band edges are checked
        against each recording's Nyquist frequency where its filters are designed."""
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


def extract_frame_features(recording: Recording, config: DspConfig,
                           kind: str = "graph") -> np.ndarray:
    """Run one recording through the pipeline; rows are frames. Errors name the recording."""
    if kind not in FEATURE_KINDS:
        raise ConfigError(f"unknown feature kind {kind!r}; expected one of {FEATURE_KINDS}")
    with error_context(f"subject {recording.subject_id!r} / {recording.protocol_tag.value}"):
        rec = dsp.detrend(recording)
        pre = dsp.design_bandpass(rec.fs, *config.prefilter, config.fir_order)
        rec = dsp.filter_zero_phase(rec, pre)
        if kind != "graph":
            frames = dsp.frame(rec, config.frame_seconds, config.overlap)
            return np.stack([bf.baseline_vector(fr, rec.fs, bf.BaselineKind(kind))
                             for fr in frames])
        beta = dsp.design_bandpass(rec.fs, *config.band, config.fir_order)
        rec = dsp.filter_zero_phase(rec, beta)
        phases = dsp.instantaneous_phase(dsp.frame(rec, config.frame_seconds, config.overlap))
        return np.stack([graph_features.extract_features(
            connectivity.build_graph(phase, config.rho_bins),
            # per-frame seeds keep the output independent of extraction order
            seed=stable_int(f"{recording.subject_id}:{k}")) for k, phase in enumerate(phases)])


def build_feature_dataset(recordings: list[Recording], config: DspConfig,
                          kind: str = "graph") -> FeatureDataset:
    """Extract features for every recording, grouped by (subject, protocol).

    Every recording must have the first one's channel count; a mismatch
    raises ShapeError before any extraction.
    """
    if not recordings:
        raise ConfigError("no recordings to extract features from")
    first = recordings[0]
    for rec in recordings:
        if rec.n_channels != first.n_channels:
            raise ShapeError(
                f"recording {rec.subject_id}/{rec.protocol_tag.value} has "
                f"{rec.n_channels} channels, {first.subject_id}/"
                f"{first.protocol_tag.value} has {first.n_channels}")
    vectors = {}
    for rec in recordings:
        key = (rec.subject_id, rec.protocol_tag)
        if key in vectors:
            raise ConfigError(f"duplicate recording for {key}")
        vectors[key] = extract_frame_features(rec, config, kind)
    names = (graph_features.feature_names(first.n_channels) if kind == "graph"
             else bf.baseline_feature_names(bf.BaselineKind(kind), first.n_channels))
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
