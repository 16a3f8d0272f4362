"""Load multi-channel recordings from EDF files, CSV matrices, or a seeded synthetic generator.

The EDF reader handles plain continuous EDF (256-byte fixed header plus 256
bytes per signal, 16-bit little-endian samples). Two (field, width) tables,
`EDF_HEADER` and `EDF_SIGNAL`, lay out the fixed header and the per-signal
block, which holds each field for every signal in turn, for reader and writer.
Annotation channels are dropped. The synthetic generator produces coupled
in-band oscillators plus pink noise so that downstream phase-synchronization
graphs are stable within a subject and distinct across subjects.
"""

from __future__ import annotations

import csv
import enum
import io
import math
import numbers
import os
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

import numpy as np

from .errors import (MAX_COUNT, ConfigError, DegenerateSignal, EmptyRecording, ParseError,
                     error_context, require)

EDF_HEADER = (("version", 8), ("patient", 80), ("recording", 80), ("start_date", 8),
              ("start_time", 8), ("header_bytes", 8), ("reserved", 44), ("n_records", 8),
              ("record_duration", 8), ("n_signals", 4))
EDF_SIGNAL = (("label", 16), ("transducer", 80), ("unit", 8), ("phys_min", 8),
              ("phys_max", 8), ("dig_min", 8), ("dig_max", 8), ("prefilter", 80),
              ("samples", 8), ("reserved", 32))
EDF_HEADER_BYTES = sum(width for _, width in EDF_HEADER)
EDF_PER_SIGNAL_BYTES = sum(width for _, width in EDF_SIGNAL)
ANNOTATION_LABEL = "EDF Annotations"


class Protocol(enum.Enum):
    """Signal elicitation protocol under which a recording was captured."""

    EO = "EO"   # eyes open, resting
    EC = "EC"   # eyes closed, resting
    PHY = "PHY"  # physical movement task
    IMA = "IMA"  # imagined movement task
    OTHER = "OTHER"


# the two protocols whose frames the transform fuses, first and second stream
PROTOCOL_PAIR = (Protocol.EO, Protocol.EC)


@dataclass
class Recording:
    """Uniform multi-channel timeseries, data in microvolts (channels x samples)."""

    channels: list[str]
    fs: float
    data: np.ndarray
    protocol_tag: Protocol = Protocol.OTHER
    subject_id: str = ""

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim != 2:
            raise ConfigError(f"recording data must be 2-D, got ndim={self.data.ndim}")
        if self.data.shape[1] < 1:
            raise ConfigError("recording must contain at least one sample")
        if self.fs <= 0:
            raise ConfigError(f"sampling rate must be positive, got {self.fs}")
        if len(self.channels) != self.data.shape[0]:
            raise ConfigError(
                f"{len(self.channels)} channel labels for {self.data.shape[0]} data rows"
            )

    @property
    def n_channels(self) -> int:
        return self.data.shape[0]

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]


# ---------------------------------------------------------------------------
# EDF
# ---------------------------------------------------------------------------

def _edf_layout(table) -> dict[str, tuple[int, int]]:
    """Field name to (start, width), the fields laid out in table order."""
    return {name: (sum(w for _, w in table[:i]), width) for i, (name, width) in enumerate(table)}


_HEAD, _SIGNAL = _edf_layout(EDF_HEADER), _edf_layout(EDF_SIGNAL)


def _edf_field(raw: bytes, start: int, length: int) -> str:
    return raw[start:start + length].decode("ascii", errors="replace").strip()


def _edf_int(raw: bytes, start: int, length: int, what: str) -> int:
    text = _edf_field(raw, start, length)
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"non-integer EDF {what} field {text!r}", offset=start) from None


def _edf_float(raw: bytes, start: int, length: int, what: str) -> float:
    text = _edf_field(raw, start, length)
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not np.isfinite(value):
        raise ParseError(f"EDF {what} field {text!r} is not a finite number", offset=start)
    return value


def read_edf(path, protocol_tag: Protocol = Protocol.OTHER,
             subject_id: str | None = None) -> Recording:
    """Read a continuous EDF file into a Recording.

    Digital samples are mapped to physical units per signal via
    phys = phys_min + (digital - dig_min) * (phys_max - phys_min) / (dig_max - dig_min).
    Channels labelled "EDF Annotations" are discarded. All retained signals
    must share one sampling rate.
    """
    path = Path(path)
    raw = path.read_bytes()
    with error_context(path.name, (ParseError, EmptyRecording)):
        if len(raw) < EDF_HEADER_BYTES:
            raise ParseError("file shorter than the 256-byte EDF header", offset=len(raw))
        version = _edf_field(raw, *_HEAD["version"])
        if version != "0":
            raise ParseError(f"bad EDF version field {version!r}", offset=_HEAD["version"][0])

        header_bytes = _edf_int(raw, *_HEAD["header_bytes"], "header-bytes")
        n_records = _edf_int(raw, *_HEAD["n_records"], "record-count")
        record_duration = _edf_float(raw, *_HEAD["record_duration"], "record-duration")
        n_signals = _edf_int(raw, *_HEAD["n_signals"], "signal-count")
        if n_signals < 1:
            raise ParseError("EDF declares no signals", offset=_HEAD["n_signals"][0])

        expected_header = EDF_HEADER_BYTES + EDF_PER_SIGNAL_BYTES * n_signals
        if header_bytes != expected_header:
            raise ParseError(
                f"header length field {header_bytes} disagrees with "
                f"{expected_header} bytes implied by {n_signals} signals",
                offset=_HEAD["header_bytes"][0])
        if len(raw) < expected_header:
            raise ParseError("file truncated inside the signal header block", offset=len(raw))

        def at(name: str, signal: int = 0) -> int:  # offset of a signal's value of a field
            start, width = _SIGNAL[name]
            return EDF_HEADER_BYTES + start * n_signals + signal * width

        def column(name: str, parse, what: str) -> list:
            base, width = at(name), _SIGNAL[name][1]
            return [parse(raw, base + i * width, width, what) for i in range(n_signals)]

        labels = [_edf_field(raw, at("label", i), _SIGNAL["label"][1]) for i in range(n_signals)]
        phys_min = column("phys_min", _edf_float, "phys-min")
        phys_max = column("phys_max", _edf_float, "phys-max")
        dig_min = column("dig_min", _edf_int, "dig-min")
        dig_max = column("dig_max", _edf_int, "dig-max")
        samples_per_record = column("samples", _edf_int, "samples-per-record")

        if min(samples_per_record) < 1:
            raise ParseError("EDF declares a signal with no samples per record",
                             offset=at("samples"))
        record_bytes = 2 * sum(samples_per_record)
        payload = len(raw) - expected_header
        if n_records < 0:
            # -1 means "unknown"; infer from the payload when it divides evenly
            if payload % record_bytes:
                raise ParseError(
                    f"cannot infer record count: payload {payload} not a multiple of "
                    f"record size {record_bytes}", offset=_HEAD["n_records"][0])
            n_records = payload // record_bytes
        if n_records == 0:
            raise EmptyRecording("zero data records")
        if payload != n_records * record_bytes:
            raise ParseError(
                f"payload is {payload} bytes but {n_records} records of "
                f"{record_bytes} bytes were declared", offset=expected_header)

        keep = [i for i, lab in enumerate(labels) if lab != ANNOTATION_LABEL]
        if not keep:
            raise EmptyRecording("only annotation channels present")
        rates = {samples_per_record[i] for i in keep}
        if len(rates) != 1:
            raise ParseError(f"mixed sampling rates across signals: {sorted(rates)}")
        if record_duration <= 0:
            raise ParseError("non-positive record duration", offset=_HEAD["record_duration"][0])
        fs = samples_per_record[keep[0]] / record_duration
        if not np.isfinite(fs):
            raise ParseError(f"record duration {record_duration} is too short",
                             offset=_HEAD["record_duration"][0])

        gains, offsets = [], []
        for i in keep:
            if dig_max[i] == dig_min[i]:
                raise ParseError(f"signal {i}: digital min equals digital max",
                                 offset=at("dig_min"))
            g = (phys_max[i] - phys_min[i]) / (dig_max[i] - dig_min[i])
            offset = phys_min[i] - g * dig_min[i]
            # every sample maps between these two; a non-finite gain or offset makes them
            # non-finite too
            if not (math.isfinite(-32768 * g + offset) and math.isfinite(32767 * g + offset)):
                raise ParseError(f"signal {i}: physical range [{phys_min[i]}, {phys_max[i]}] "
                                 "maps samples out of float range", offset=at("phys_min", i))
            gains.append(g)
            offsets.append(offset)

    records = np.frombuffer(raw, dtype="<i2", offset=expected_header).reshape(n_records, -1)
    data = np.empty((len(keep), n_records * samples_per_record[keep[0]]), dtype=float)
    starts = np.cumsum([0] + samples_per_record)  # sample offsets within one record
    for row, i in enumerate(keep):
        data[row] = records[:, starts[i]:starts[i + 1]].ravel() * gains[row] + offsets[row]

    return Recording(
        channels=[labels[i] for i in keep],
        fs=fs,
        data=data,
        protocol_tag=protocol_tag,
        subject_id=subject_id if subject_id is not None else path.stem,
    )


def write_edf(recording: Recording, path, record_seconds: float | None = None) -> None:
    """Write a Recording as a plain EDF file (16-bit, one physical range per channel).

    With record_seconds=None the whole recording is stored as a single data
    record; otherwise the duration must divide the recording evenly.
    """
    n_sig = recording.n_channels
    n_samples = recording.n_samples
    if record_seconds is None:
        n_records, spr = 1, n_samples
        duration = n_samples / recording.fs
    else:
        spr = int(round(record_seconds * recording.fs))
        if spr <= 0 or n_samples % spr:
            raise ConfigError(
                f"record of {record_seconds}s ({spr} samples) does not divide "
                f"{n_samples} samples evenly")
        n_records = n_samples // spr
        duration = record_seconds

    dig_min, dig_max = -32768, 32767
    phys_text = []  # each channel's physical range as its 8-char header fields
    for ch in recording.data:
        lo, hi = float(np.min(ch)), float(np.max(ch))
        if lo == hi:
            lo, hi = lo - 1.0, hi + 1.0
        phys_text.append((f"{lo:.6g}"[:8], f"{hi:.6g}"[:8]))

    dur_text = f"{duration:.8g}"[:8]
    if abs(float(dur_text) - duration) > 1e-9 * max(duration, 1.0):
        raise ConfigError(f"record duration {duration} does not fit the 8-char EDF field")

    fixed = {"version": "0", "patient": recording.subject_id or "X", "recording": "neurolock",
             "start_date": "01.01.00", "start_time": "00.00.00",
             "header_bytes": str(EDF_HEADER_BYTES + EDF_PER_SIGNAL_BYTES * n_sig),
             "n_records": str(n_records), "record_duration": dur_text, "n_signals": str(n_sig)}
    per_signal = {"label": recording.channels, "unit": ["uV"] * n_sig,
                  "phys_min": [lo for lo, _ in phys_text], "phys_max": [hi for _, hi in phys_text],
                  "dig_min": [str(dig_min)] * n_sig, "dig_max": [str(dig_max)] * n_sig,
                  "samples": [str(spr)] * n_sig}

    fields = [(fixed.get(name, ""), width) for name, width in EDF_HEADER]  # the rest blank
    fields += [(text, width) for name, width in EDF_SIGNAL
               for text in per_signal.get(name, [""] * n_sig)]
    head = b"".join(text[:width].ljust(width).encode("ascii") for text, width in fields)

    digital = np.empty((n_sig, n_samples), dtype="<i2")
    for i, (ch, text) in enumerate(zip(recording.data, phys_text)):
        # invert the reader's scaling; phys ranges are parsed back from the
        # 8-char header text, so quantize against the parsed values
        lo_r, hi_r = map(float, text)
        scaled = (ch - lo_r) * (dig_max - dig_min) / (hi_r - lo_r) + dig_min
        digital[i] = np.clip(np.rint(scaled), dig_min, dig_max).astype("<i2")

    # each data record holds spr samples of every signal in turn
    records = digital.reshape(n_sig, n_records, spr).transpose(1, 0, 2)
    atomic_write(path, head + records.tobytes())


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

def read_csv_matrix(path, fs: float, protocol_tag: Protocol = Protocol.OTHER,
                    subject_id: str | None = None) -> Recording:
    """Read a rectangular CSV of finite numbers (rows = channels) into a Recording."""
    path = Path(path)
    rows: list[list[float]] = []
    with error_context(path.name, (ParseError, EmptyRecording)), path.open(newline="") as fh:
        for r, record in enumerate(csv.reader(fh), start=1):
            if not record or (len(record) == 1 and not record[0].strip()):
                continue
            values = []
            for c, cell in enumerate(record, start=1):
                try:
                    values.append(float(cell))
                except ValueError:
                    raise ParseError(
                        f"non-numeric cell {cell!r} at row {r}, col {c}") from None
                if not math.isfinite(values[-1]):
                    raise ParseError(f"non-finite cell {cell!r} at row {r}, col {c}")
            if rows and len(values) != len(rows[0]):
                raise ParseError(f"ragged row {r} has {len(values)} cells, "
                                 f"expected {len(rows[0])}")
            rows.append(values)
        if not rows:
            raise EmptyRecording("no data rows")
    data = np.array(rows, dtype=float)
    return Recording(
        channels=[f"ch{i:02d}" for i in range(data.shape[0])],
        fs=fs,
        data=data,
        protocol_tag=protocol_tag,
        subject_id=subject_id if subject_id is not None else path.stem,
    )


def write_csv_matrix(recording: Recording, path) -> None:
    """Write recording data as CSV, one row per channel; atomic replace."""
    atomic_write(path, csv_text([repr(float(v)) for v in ch] for ch in recording.data))


def csv_text(rows) -> str:
    """Rows rendered by the csv module's default dialect (CRLF line ends)."""
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    return out.getvalue()


def atomic_write(path, data: str | bytes) -> None:
    """Write text (as UTF-8) or bytes to a temporary sibling, then rename it over path,
    so a reader never sees a half-written file. A failed rename removes the
    temporary file and re-raises."""
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_bytes(data.encode() if isinstance(data, str) else data)
    try:
        os.replace(tmp, path)
    except OSError:
        tmp.unlink()
        raise


# ---------------------------------------------------------------------------
# Synthetic generator
# ---------------------------------------------------------------------------

@dataclass
class SyntheticSpec:
    """Deterministic desk-scale stand-in for a resting-state EEG database.

    Each subject gets seeded latent parameters: per-channel oscillator
    frequencies inside the 13-30 Hz beta band and a symmetric cross-channel
    coupling matrix with entries in [0, 1]. Channels mix each other's
    oscillators through the coupling matrix, so phase synchronization
    patterns are stable within a subject and differ across subjects.
    Every subject is recorded under both protocols of `PROTOCOL_PAIR`.
    Identical specs produce bit-identical output.
    """

    n_subjects: int
    n_channels: int
    duration_s: float
    fs: float
    master_seed: int
    noise_level: float = 0.2
    protocols: ClassVar[tuple[Protocol, Protocol]] = PROTOCOL_PAIR

    def __post_init__(self):
        """Check types and ranges; cheap enough to run before any synthesis."""
        for name, kind, ok, what in (
                ("n_subjects", numbers.Integral, lambda v: 1 <= v <= MAX_COUNT,
                 f"an integer from 1 to {MAX_COUNT}"),
                ("n_channels", numbers.Integral, lambda v: v >= 2, "an integer of at least 2"),
                ("master_seed", numbers.Integral, lambda v: v >= 0, "a non-negative integer"),
                ("duration_s", numbers.Real, lambda v: 0 < v < np.inf,
                 "a finite positive number"),
                ("fs", numbers.Real, lambda v: 0 < v < np.inf, "a finite positive number"),
                ("noise_level", numbers.Real, lambda v: 0 <= v < np.inf,
                 "a finite non-negative number")):
            require(name, getattr(self, name), kind, ok, what)
        require("duration_s", self.duration_s, numbers.Real,
                lambda v: v * self.fs > 0.5, f"at least one sample at fs={self.fs}")
        require("duration_s", self.duration_s, numbers.Real, lambda v: v * self.fs < np.inf
                and self.n_channels * round(v * self.fs) <= MAX_COUNT,
                f"short enough that {self.n_channels} channels at fs={self.fs} fit in one array")

    def subject_ids(self) -> list[str]:
        return [f"S{i + 1:03d}" for i in range(self.n_subjects)]

    @property
    def n_samples(self) -> int:  # per channel of every recording
        return int(round(self.duration_s * self.fs))


def _pink_noise(rng: np.random.Generator, n: int) -> np.ndarray:
    """1/f-amplitude noise, unit standard deviation."""
    white = rng.standard_normal(n)
    spectrum = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(n)
    freqs[0] = freqs[1] if n > 1 else 1.0
    spectrum /= np.sqrt(freqs)
    out = np.fft.irfft(spectrum, n)
    return out / max(np.std(out), 1e-12)


def _subject_latents(spec: SyntheticSpec, subject_idx: int):
    # subject-specific block structure: channels in the same group lock to
    # a shared oscillator, cross-group coupling stays weak. One frequency
    # per group on a jittered grid keeps cross-group beat periods short
    # relative to a frame, so relative-phase histograms are stationary
    # from window to window. Identity lives mostly in the grouping
    # pattern; coupling levels vary only mildly across subjects so that
    # no scalar magnitude trait survives re-keying.
    rng = np.random.default_rng([spec.master_seed, subject_idx])
    n = spec.n_channels
    n_groups = int(rng.integers(max(2, n // 8), max(3, n // 4) + 1))
    groups = rng.integers(0, n_groups, size=n)
    lo, hi = 13.0, 30.0  # the beta band, DspConfig.band's default
    grid = np.linspace(lo + 1.2, hi - 1.2, n_groups)
    freqs = (grid + rng.uniform(-0.5, 0.5, size=n_groups))[groups]
    same = groups[:, None] == groups[None, :]
    strong_level = rng.uniform(0.80, 0.92)
    weak_level = rng.uniform(0.26, 0.42)
    strong = np.clip(strong_level + rng.uniform(-0.02, 0.02, (n, n)), 0.0, 1.0)
    weak = np.clip(weak_level + rng.uniform(-0.02, 0.02, (n, n)), 0.0, 1.0)
    coupling = np.where(same, strong, weak)
    coupling = (coupling + coupling.T) / 2.0
    np.fill_diagonal(coupling, 1.0)
    return freqs, coupling


def _synthetic_recording(spec: SyntheticSpec, t: np.ndarray, s_idx: int, subject: str, p_idx: int):
    """One recording at sample times t; DegenerateSignal, naming it, if its samples overflow."""
    freqs, coupling = _subject_latents(spec, s_idx)
    weights = coupling / coupling.sum(axis=1, keepdims=True)
    protocol, rng = spec.protocols[p_idx], np.random.default_rng([spec.master_seed, s_idx, p_idx])
    phases = rng.uniform(0.0, 2.0 * np.pi, size=spec.n_channels)
    with error_context(f"subject {subject!r} / {protocol.value}"), \
            np.errstate(over="ignore", invalid="ignore"):  # refused below unless finite
        data = (weights @ np.cos(2.0 * np.pi * freqs[:, None] * t[None, :] + phases[:, None])
                + spec.noise_level * np.stack([_pink_noise(rng, spec.n_samples)
                                               for _ in range(spec.n_channels)]))
        if not np.isfinite(data).all():
            raise DegenerateSignal(f"samples too large: noise_level = {spec.noise_level} overflows")
    return Recording(channels=[f"ch{i:02d}" for i in range(spec.n_channels)], fs=spec.fs,
                     data=data, protocol_tag=protocol, subject_id=subject)


def synthesize(spec: SyntheticSpec) -> Iterator[Recording]:
    """Yield one Recording per subject and protocol tag, subject by subject.

    Channel i mixes every channel's oscillator cos(2*pi*f_j*t + phi_j)
    weighted by coupling[i, j], then adds pink noise scaled by noise_level.
    Seeding is per (master_seed, subject, protocol), so output is independent
    of generation order. Nothing holds a yielded recording but the caller.
    A recording whose samples overflow raises DegenerateSignal.
    """
    t = np.arange(spec.n_samples) / spec.fs  # made once: per recording, it grows the heap
    for s_idx, subject in enumerate(spec.subject_ids()):
        for p_idx in range(len(spec.protocols)):  # no local holds the recording
            yield _synthetic_recording(spec, t, s_idx, subject, p_idx)
