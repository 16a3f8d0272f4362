"""Key-driven non-invertible template transform and encrypted-domain matcher.

A user key seeds two independent deterministic streams: a permutation of the
feature indices and a wide-to-narrow projection matrix with fewer columns
than rows. Two protocol-tagged feature vectors are fused by permuting the
first, taking the elementwise product with the second, and projecting; the
projected vector (averaged over frames) is quantized to 8-bit gray codes.
Because the projection discards dimensions, recovering the features from a
template and its key is underdetermined; revoking a template simply means
issuing a new key. `calibrate_params` fits a key's range over population
windows and keeps their gray code bytes, one per projected dimension;
`encode_bytes` encodes any batch of frame stacks so, and `encode` unpacks
bytes to bits. A `CancellableTemplate` is one bit string and its metadata.

Template file layout (magic "CEEG1"): 5 magic bytes, 4-byte big-endian JSON
length, UTF-8 JSON metadata, then the bit payload packed big-endian
(MSB-first within each byte).
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (ConfigError, IncompatibleTemplates, ParseError,
                     ShapeError, error_context, require)
from .ingest import atomic_write

TEMPLATE_MAGIC = b"CEEG1"
BITS_PER_DIM = 8
LEVELS = (1 << BITS_PER_DIM) - 1  # 255
# the key domain, as `errors.require` checks it
KEY_RULE = (numbers.Integral, lambda v: 0 <= v < 2 ** 64, "an unsigned 64-bit integer")

# stream labels keeping permutation and projection draws independent
_PERM_STREAM = 0x7065726D
_PROJ_STREAM = 0x70726F6A


def output_dim(dim: int, delta: float) -> int:
    """Number of projected dimensions: round(delta * dim), half away from zero."""
    return int(np.floor(delta * dim + 0.5))


def key_identifier(user_key: int) -> str:
    """Short public identifier for a key (not a secret, not reversible in use)."""
    return hashlib.blake2s(int(user_key).to_bytes(8, "big"), digest_size=6).hexdigest()


@dataclass
class TransformParams:
    """Everything revocation replaces: key, permutation, projection, ratio,
    and the per-output-dimension quantization range."""

    user_key: int
    dim: int
    delta: float
    permutation: np.ndarray      # 0-based permutation of range(dim)
    projection: np.ndarray       # dim x output_dim(dim, delta)
    key_id: str
    quant_range: np.ndarray | None = None  # n_out x 2, set by calibration
    codes: np.ndarray | None = None        # the calibration windows' gray bytes, likewise

    @property
    def n_out(self) -> int:
        return self.projection.shape[1]


@dataclass
class TemplateMeta:
    """Public template metadata stored alongside the bits."""

    subject_id: str
    key_id: str
    delta: float
    frames_averaged: int             # F
    quant_range: np.ndarray          # n_out x 2, [r_min, r_max] per dimension

    def to_dict(self) -> dict:
        return {
            "subject_id": self.subject_id,
            "key_id": self.key_id,
            "delta": self.delta,
            "frames_averaged": self.frames_averaged,
            "quant_range": [[float(lo), float(hi)] for lo, hi in self.quant_range],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TemplateMeta":
        """Metadata from its stored JSON form; a malformed field raises ParseError."""
        if not isinstance(d, dict):
            raise ParseError(f"metadata is a {type(d).__name__}, not an object")
        if not isinstance(d["subject_id"], str) or not isinstance(d["key_id"], str):
            raise ParseError("subject_id and key_id must be strings")
        delta, frames = d["delta"], d["frames_averaged"]
        if type(delta) not in (int, float) or not (0.0 < delta < 1.0):
            raise ParseError(f"delta must be a number in (0, 1), got {delta!r}")
        if type(frames) is not int or frames < 1:
            raise ParseError(f"frames_averaged must be a positive integer, got {frames!r}")
        quant_range = np.asarray(d["quant_range"], dtype=float)
        if (quant_range.ndim != 2 or quant_range.shape[1] != 2
                or not np.isfinite(quant_range).all()
                or (quant_range[:, 0] >= quant_range[:, 1]).any()):
            raise ParseError("quant_range must be finite n x 2 [lo, hi] rows with lo < hi")
        return cls(subject_id=d["subject_id"], key_id=d["key_id"], delta=float(delta),
                   frames_averaged=frames, quant_range=quant_range)


@dataclass
class CancellableTemplate:
    """One fixed-length bit string plus its public metadata: a single record.

    Batches of queries are plain `encode` bit arrays, not templates.
    """

    bits: np.ndarray  # uint8 array of 0/1, shape (n_bits,)
    meta: TemplateMeta

    def __post_init__(self):
        self.bits = np.asarray(self.bits, dtype=np.uint8)
        if self.bits.ndim != 1 or self.bits.size % BITS_PER_DIM:
            raise ShapeError(f"a template holds one bit string of a multiple of "
                             f"{BITS_PER_DIM} bits, got shape {self.bits.shape}")
        if self.meta.frames_averaged < 1:
            raise ConfigError("template must average at least one frame")

    @property
    def n_bits(self) -> int:
        return self.bits.size


@dataclass
class MatchResult:
    score: float       # normalized Hamming distance in [0, 1]
    raw: int           # differing bit count
    decision: bool     # accept iff score <= threshold
    threshold: float


def derive_params(user_key: int, dim: int, delta: float) -> TransformParams:
    """Deterministically derive permutation and projection from a user key.

    Identical (key, dim, delta) always produce identical parameters; the
    permutation and projection come from independent seeded streams, and the
    projection entries are i.i.d. uniform on [0, 1).
    """
    if dim < 2:
        raise ConfigError(f"feature dimension must be at least 2, got {dim}")
    if not (0.0 < delta < 1.0):
        raise ConfigError(f"dimension ratio must lie in (0, 1), got {delta}")
    require("user key", user_key, *KEY_RULE)
    n_out = output_dim(dim, delta)
    if n_out < 1:
        raise ConfigError(f"delta={delta} with dim={dim} projects to zero dimensions")
    if n_out >= dim:
        raise ConfigError(
            f"delta={delta} with dim={dim} would not reduce dimension ({n_out} >= {dim})")
    permutation = np.random.default_rng([int(user_key), _PERM_STREAM]).permutation(dim)
    projection = np.random.default_rng([int(user_key), _PROJ_STREAM]).random((dim, n_out))
    return TransformParams(user_key=int(user_key), dim=dim, delta=delta,
                           permutation=permutation, projection=projection,
                           key_id=key_identifier(user_key))


def combine(v1: np.ndarray, v2: np.ndarray, params: TransformParams) -> np.ndarray:
    """Permute the first vector and take the elementwise product with the second.

    Convention: out[..., i] = v1[..., permutation[i]] * v2[..., i]; leading
    axes are a batch.
    """
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    if v1.shape[-1:] != (params.dim,) or v2.shape[-1:] != (params.dim,):
        raise ShapeError(
            f"feature shapes {v1.shape} and {v2.shape} do not match params dim {params.dim}")
    return v1.take(params.permutation, axis=-1) * v2


def project(c: np.ndarray, params: TransformParams) -> np.ndarray:
    """Project fused vectors (last axis) to round(delta * dim) dimensions.

    One vector-matrix product per row, so a row projects exactly as it would
    alone: a blocked batch C @ P moves the last ulp of most rows, which can
    shift a gray level.
    """
    c = np.asarray(c, dtype=float)
    if c.shape[-1:] != (params.dim,):
        raise ShapeError(f"vectors of shape {c.shape}, projection expects {params.dim}")
    return np.matmul(c[..., None, :], params.projection)[..., 0, :]


def _gray_levels(x: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                 scale: np.ndarray) -> np.ndarray:
    """The quantization rule, unchecked: clamp into [lo, hi], scale by
    `scale` = LEVELS / (hi - lo), round half up and cap at LEVELS; one gray
    code byte per value. Every step after the clamp's first runs in place:
    on a large batch, fresh temporaries cost several times the arithmetic."""
    scaled = np.maximum(x, lo)
    np.minimum(scaled, hi, out=scaled)
    np.subtract(scaled, lo, out=scaled)
    np.multiply(scaled, scale, out=scaled)
    np.add(scaled, 0.5, out=scaled)
    np.floor(scaled, out=scaled)
    levels = np.minimum(scaled, LEVELS, out=scaled).astype(np.uint8)
    return levels ^ (levels >> 1)


def gray_bytes(r: np.ndarray, quant_range: np.ndarray) -> np.ndarray:
    """Quantize each entry to 256 levels over its range: one gray code byte each.

    Values are clamped into the range first. The last axis holds one vector's
    values; leading axes are a batch. Packed MSB-first, these bytes are the
    bits `gray_encode` gives.
    """
    r = np.asarray(r, dtype=float)
    quant_range = np.asarray(quant_range, dtype=float).reshape(-1, 2)
    if quant_range.shape[0] != r.shape[-1]:
        raise ShapeError(
            f"{r.shape[-1]} values but {quant_range.shape[0]} quantization ranges")
    if (quant_range[:, 0] >= quant_range[:, 1]).any():
        raise ConfigError("every quantization range needs r_min < r_max")
    lo, hi = quant_range[:, 0], quant_range[:, 1]
    return _gray_levels(r, lo, hi, LEVELS / (hi - lo))


def gray_encode(r: np.ndarray, quant_range: np.ndarray) -> np.ndarray:
    """`gray_bytes` unpacked: 8 bits per value, MSB-first."""
    return np.unpackbits(gray_bytes(r, quant_range), axis=-1)


def gray_decode(bits: np.ndarray, quant_range: np.ndarray) -> np.ndarray:
    """Invert gray_encode up to quantization (within half a step of the clamp)."""
    bits = np.asarray(bits, dtype=np.uint8).ravel()
    if bits.size % BITS_PER_DIM:
        raise ShapeError(f"bit length {bits.size} not a multiple of {BITS_PER_DIM}")
    quant_range = np.asarray(quant_range, dtype=float).reshape(-1, 2)
    n = bits.size // BITS_PER_DIM
    if quant_range.shape[0] != n:
        raise ShapeError(f"{n} encoded values but {quant_range.shape[0]} ranges")
    gray = np.packbits(bits)
    levels = gray.copy()
    for shift in (1, 2, 4):
        levels = levels ^ (levels >> shift)
    lo = quant_range[:, 0]
    hi = quant_range[:, 1]
    return lo + levels.astype(float) * (hi - lo) / LEVELS


def calibrate_params(params: TransformParams, windows_v1, windows_v2,
                     margin: float) -> TransformParams:
    """Fix a parameter set's quantization range from population windows, and
    keep each window's gray bytes under it: the one calibration path.

    Frames run along axis -2, as in `encode_bytes`. One projection of every
    frame pair spans the per-dimension [min, max], widened by margin times the
    span (a degenerate dimension gets a magnitude-proportional margin, so the
    range stays non-empty); its window means, encoded over that range, are
    the read-only `codes`. Fed the whole enrolled population under one key,
    the bytes encode where each user's average sits within the population,
    which makes them carry identity. A range past the largest float raises
    ConfigError.
    """
    projected = project(combine(windows_v1, windows_v2, params), params)
    samples = projected.reshape(-1, projected.shape[-1])
    lo, hi = samples.min(axis=0), samples.max(axis=0)
    with np.errstate(over="ignore", invalid="ignore"):  # an infinite range is refused below
        width = hi - lo
        pad = np.where(width > 1e-12, margin * width,
                       np.maximum(margin * np.abs((lo + hi) / 2.0), 1e-6))
        params.quant_range = np.stack([lo - pad, hi + pad], axis=1)
        finite = np.isfinite(np.diff(params.quant_range)).all()  # gray_bytes divides by it
    if not finite:
        raise ConfigError(f"calibration_margin = {margin} widens the range of key "
                          f"{params.key_id} past the largest float")
    params.codes = gray_bytes(projected.mean(axis=-2), params.quant_range)
    params.codes.flags.writeable = False
    return params


def encode_bytes(v1: np.ndarray, v2: np.ndarray, params: TransformParams) -> np.ndarray:
    """The one path from standardized feature frames to template bytes.

    Frames run along axis -2, features along axis -1, after any batch axes.
    Each stack of frame pairs is fused, projected and averaged, and the mean
    quantized over the params' range: gray code bytes of shape (..., n_out),
    one per projected dimension, as `packed_hamming` counts them.
    """
    if params.quant_range is None:
        raise ConfigError(f"key {params.key_id} has no quantization range; "
                          "calibrate its params first (calibrate_params)")
    projected = project(combine(v1, v2, params), params)
    return gray_bytes(projected.mean(axis=-2), params.quant_range)


def encode(v1: np.ndarray, v2: np.ndarray, params: TransformParams) -> np.ndarray:
    """`encode_bytes` unpacked to bits, shape (..., n_bits), MSB-first per byte."""
    return np.unpackbits(encode_bytes(v1, v2, params), axis=-1)


def make_template(frames_v1, frames_v2, params: TransformParams,
                  subject_id: str = "") -> CancellableTemplate:
    """`encode` of every frame pair in the window, with metadata from the params."""
    shape = np.shape(frames_v1)
    if np.shape(frames_v2) != shape or len(shape) < 2 or shape[-2] < 1:
        raise ShapeError(f"frame windows of shapes {shape} and {np.shape(frames_v2)}: "
                         "a template needs two equal windows of at least one frame")
    bits = encode(frames_v1, frames_v2, params)
    meta = TemplateMeta(subject_id=subject_id, key_id=params.key_id,
                        delta=params.delta, frames_averaged=shape[-2],
                        quant_range=params.quant_range)
    return CancellableTemplate(bits=bits, meta=meta)


def hamming_score(bits_a: np.ndarray, bits_b: np.ndarray) -> tuple:
    """Raw and normalized Hamming distance between equal-length bit strings.

    Bit strings run along the last axis and leading axes broadcast, giving
    arrays of distances; two 1-D strings give (int, float).
    """
    n_bits = bits_a.shape[-1]
    if bits_b.shape[-1] != n_bits:
        raise IncompatibleTemplates(
            f"bit lengths differ: {n_bits} vs {bits_b.shape[-1]}")
    raw = np.bitwise_xor(bits_a, bits_b).sum(axis=-1)
    if raw.ndim == 0:
        raw = int(raw)
    return raw, raw / n_bits


def packed_hamming(bytes_a: np.ndarray, bytes_b: np.ndarray) -> np.ndarray:
    """Differing bit counts of bit strings packed MSB-first into uint8 bytes.

    Strings run along the last axis and leading axes broadcast, as in
    `hamming_score`, whose raw counts these equal, as uint64. The XORed
    bytes are read as the widest unsigned words (8, 4, 2 or 1 bytes) that
    divide a string's length, so 60 bytes are 15 uint32 words;
    `np.bitwise_count` counts each word's set bits, and one reduction sums
    a string's counts, which is the sum of the unpacked XOR. The evaluation
    protocols and the batch scorer count gray code bytes here without ever
    unpacking them.
    """
    xor = np.ascontiguousarray(np.bitwise_xor(bytes_a, bytes_b))  # `view` needs C order
    words = xor.view(f"u{math.gcd(xor.shape[-1], 8)}")
    return np.einsum("...i->...", np.bitwise_count(words), dtype=np.uint64)


def match(query: CancellableTemplate, enrolled: CancellableTemplate,
          threshold: float) -> MatchResult:
    """XOR-and-count matcher; accepts when the normalized distance is <= threshold.

    Templates under other keys, ratios or quantization ranges raise
    IncompatibleTemplates: their bits do not code the same space."""
    if query.meta.key_id != enrolled.meta.key_id:
        raise IncompatibleTemplates(
            f"key ids differ: {query.meta.key_id} vs {enrolled.meta.key_id}")
    if query.meta.delta != enrolled.meta.delta:
        raise IncompatibleTemplates(
            f"dimension ratios differ: {query.meta.delta} vs {enrolled.meta.delta}")
    if not np.array_equal(query.meta.quant_range, enrolled.meta.quant_range):
        raise IncompatibleTemplates(
            "quantization ranges differ: the template was calibrated over another "
            "population or config than the query")
    raw, score = hamming_score(query.bits, enrolled.bits)
    return MatchResult(score=score, raw=raw, decision=score <= threshold,
                       threshold=threshold)


def save_template(template: CancellableTemplate, path) -> None:
    """Write the CEEG1 container: magic, meta JSON, packed bit payload."""
    meta_bytes = json.dumps(template.meta.to_dict(), sort_keys=True).encode("utf-8")
    payload = np.packbits(template.bits).tobytes()
    atomic_write(path, TEMPLATE_MAGIC + len(meta_bytes).to_bytes(4, "big") + meta_bytes
                 + payload)


def load_template(path) -> CancellableTemplate:
    raw = Path(path).read_bytes()
    with error_context(Path(path).name, ParseError):
        if raw[:5] != TEMPLATE_MAGIC:
            raise ParseError(f"bad template magic {raw[:5]!r}", offset=0)
        meta_len = int.from_bytes(raw[5:9], "big")
        try:
            meta = TemplateMeta.from_dict(json.loads(raw[9:9 + meta_len].decode("utf-8")))
        except (ParseError, KeyError, TypeError, ValueError) as exc:
            what = f"missing field {exc}" if isinstance(exc, KeyError) else exc
            raise ParseError(f"corrupt template metadata: {what}", offset=9) from None
        payload = raw[9 + meta_len:]
        n_dims = meta.quant_range.shape[0]
        expected_bytes = n_dims  # 8 bits per dimension = 1 byte
        if len(payload) != expected_bytes:
            raise ParseError(
                f"payload of {len(payload)} bytes, metadata implies {expected_bytes}",
                offset=9 + meta_len)
        bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8))
        return CancellableTemplate(bits=bits, meta=meta)
