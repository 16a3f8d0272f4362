"""The evaluation protocols must give the scores and reports of the earlier
implementation, bit for bit.

The reference below is that implementation, unchanged apart from its names
(and `AuthSystem.windows` taken out of its class): every query encoded to
bits and packed again for counting, the other subjects' first windows
encoded once per claimed account, one `windows` and `encode` call per
subject in the decidability protocol, each revocation key projecting the
enrolled population twice (to calibrate, then to encode), and a table
popcount. On random datasets of 2 to 12 subjects with unequal frame counts
per subject and per protocol, both key modes, several dimension ratios and
frame schedules, every genuine, impostor, pseudo-impostor, mated, non-mated
and decidability score must match bit for bit, and so must every
`EvalReport` field. Tier-1 draws the default number of examples;
`--hypothesis-profile=ci` draws more. The published-shape pins were taken
with the reference code.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from neurolock import matching_eval as me
from neurolock import transform as tr
from neurolock.errors import ConfigError, IncompatibleTemplates, NeurolockError
from neurolock.ingest import PROTOCOL_PAIR
from neurolock.pipeline import FeatureDataset, random_feature_dataset
from neurolock.system import AuthSystem, SystemConfig, fresh_keys
from neurolock.transform import TransformParams

# ---------------------------------------------------------------------------
# reference
# ---------------------------------------------------------------------------

# set bits of every byte value
_POPCOUNT = np.array([bin(byte).count("1") for byte in range(256)], dtype=np.uint8)


def reference_gray_encode(r: np.ndarray, quant_range: np.ndarray) -> np.ndarray:
    """Quantize each entry to 256 levels over its range and emit 8-bit gray codes.

    Values are clamped into the range first; bits are MSB-first per dimension.
    The last axis holds one vector's values; leading axes are a batch.
    """
    r = np.asarray(r, dtype=float)
    quant_range = np.asarray(quant_range, dtype=float).reshape(-1, 2)
    if quant_range.shape[0] != r.shape[-1]:
        raise ShapeError(
            f"{r.shape[-1]} values but {quant_range.shape[0]} quantization ranges")
    if (quant_range[:, 0] >= quant_range[:, 1]).any():
        raise ConfigError("every quantization range needs r_min < r_max")
    lo, hi = quant_range[:, 0], quant_range[:, 1]
    return np.unpackbits(tr._gray_levels(r, lo, hi, tr.LEVELS / (hi - lo)), axis=-1)


def reference_encode(v1: np.ndarray, v2: np.ndarray, params: TransformParams) -> np.ndarray:
    """The one path from standardized feature frames to bits.

    Frames run along axis -2, features along axis -1, after any batch axes.
    Each stack of frame pairs is fused, projected and averaged, and the mean
    gray-encoded over the params' range: bits of shape (..., n_bits).
    """
    if params.quant_range is None:
        raise ConfigError(f"key {params.key_id} has no quantization range; "
                          "calibrate its params first (calibrate_params)")
    projected = tr.project(tr.combine(v1, v2, params), params)
    return reference_gray_encode(projected.mean(axis=-2), params.quant_range)


def reference_calibrate_params(params: TransformParams, population_frames_v1,
                               population_frames_v2, margin: float) -> TransformParams:
    """Fix the quantization range of a parameter set from population data.

    Projects every provided frame pair under the parameters and spans the
    per-dimension [min, max] widened by margin times the span. Fed the whole
    enrolled population under one key, quantization then encodes where a
    user's average sits within the population, which is what makes template
    bits carry identity. A degenerate dimension falls back to a
    magnitude-proportional margin so the range stays non-empty. Deterministic
    for fixed inputs; the range is stored on the returned params, and
    make_template copies it into public template metadata.
    """
    projected = tr.project(tr.combine(population_frames_v1, population_frames_v2, params),
                        params)
    samples = projected.reshape(-1, projected.shape[-1])
    lo = samples.min(axis=0)
    hi = samples.max(axis=0)
    width = hi - lo
    pad = np.where(width > 1e-12,
                   margin * width,
                   np.maximum(margin * np.abs((lo + hi) / 2.0), 1e-6))
    params.quant_range = np.stack([lo - pad, hi + pad], axis=1)
    return params


def reference_packed_hamming(bytes_a: np.ndarray, bytes_b: np.ndarray) -> np.ndarray:
    """Differing bit counts of bit strings packed MSB-first into uint8 bytes.

    Strings run along the last axis and leading axes broadcast, as in
    `hamming_score`, whose raw counts these equal: each XORed byte's set bits
    come from a 256-entry table, and the sum of the bytes' counts is the sum
    of the unpacked XOR.
    """
    return _POPCOUNT.take(np.bitwise_xor(bytes_a, bytes_b)).sum(axis=-1)


def reference_windows(system, sources, starts, n_frames: int) -> tuple[np.ndarray, np.ndarray]:
    """Standardized frame windows: the one way a query reads its frames.

    `sources` (subject ids) and `starts` (frame offsets) broadcast; each
    entry of the broadcast shape is one window of n_frames frame pairs, so
    v1 and v2 have shape broadcast.shape + (n_frames, dim). A negative
    start or a window past the subject's usable frames raises ConfigError.
    """
    if n_frames < 1:
        raise ConfigError(f"a window needs at least one frame, got {n_frames}")
    sources, starts = np.broadcast_arrays(np.asarray(sources), np.asarray(starts))
    rows = starts[..., None] + np.arange(n_frames)
    frames = np.empty((2,) + rows.shape + (system.dim,))
    for subject in np.unique(sources).tolist():
        here = sources == subject
        if starts[here].min() < 0:
            raise ConfigError(f"subject {subject}: negative frame offset "
                              f"{starts[here].min()}")
        if starts[here].max() + n_frames > system.usable_frames(subject):
            raise ConfigError(f"subject {subject}: not enough frames at offset "
                              f"{starts[here].max()}")
        for stream, protocol in zip(frames, PROTOCOL_PAIR):
            stream[here] = system.dataset.frames(subject, protocol)[rows[here]]
    return system.standardize_a(frames[0]), system.standardize_b(frames[1])


def reference_score_pairs(enrolled: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Normalized Hamming distances of enrolled bits to query bits.

    Bit strings run along the last axis and leading axes broadcast: one
    enrolled string against a batch of queries, or batch against batch.
    Both sides are packed to bytes and counted by `transform.packed_hamming`;
    the counts, and so the scores, equal `transform.hamming_score`'s.
    """
    n_bits = enrolled.shape[-1]
    if queries.shape[-1] != n_bits:
        raise IncompatibleTemplates(f"bit lengths differ: {n_bits} vs {queries.shape[-1]}")
    return reference_packed_hamming(np.packbits(enrolled, axis=-1),
                             np.packbits(queries, axis=-1)) / n_bits


def reference_protocol_tests(dataset: FeatureDataset, enroll_frames: int,
                             query_frames: int, config: SystemConfig | None = None,
                             system: AuthSystem | None = None
                             ) -> tuple[np.ndarray, np.ndarray]:
    """Genuine and impostor scores per the frame schedule.

    Genuine: per subject, one query per consecutive group of query_frames
    after the enrollment block. Impostor: per subject, one query from every
    other subject's first post-enrollment frame group, transformed with the
    claimed account's parameters. Each query is scored against the claimed
    account's enrolled bits; scores run by claimed subject, then query.
    A `system` already built over `dataset` with these frame counts is
    reused instead of enrolling the population again; any other system,
    or a `config` passed along with it, raises ConfigError.
    """
    if system is None:
        config = SystemConfig() if config is None else config
        system = AuthSystem(dataset, replace(config, enroll_frames=enroll_frames,
                                             query_frames=query_frames))
    elif config is not None:
        raise ConfigError("pass a config or a system built from one, not both")
    elif system.dataset is not dataset:
        raise ConfigError("the system passed in was built over another dataset")
    elif (system.config.enroll_frames, system.config.query_frames) != (enroll_frames,
                                                                       query_frames):
        raise ConfigError(
            f"the system passed in enrolls F_e = {system.config.enroll_frames} and "
            f"queries F_t = {system.config.query_frames} frames, not "
            f"{enroll_frames} and {query_frames}")
    subjects = system.subjects
    # every subject's first post-enrollment window, cut once for all claims
    first_v1, first_v2 = reference_windows(system, subjects, enroll_frames, query_frames)
    genuine, impostor = [], []
    for index, subject in enumerate(subjects):
        account = system.users[subject]
        n_queries = (system.usable_frames(subject) - enroll_frames) // query_frames
        starts = enroll_frames + query_frames * np.arange(n_queries)
        others = np.arange(len(subjects)) != index
        own = reference_encode(*reference_windows(system, subject, starts, query_frames),
                               account.params)
        claims = reference_encode(first_v1[others], first_v2[others], account.params)
        genuine.append(reference_score_pairs(account.template.bits, own))
        impostor.append(reference_score_pairs(account.template.bits, claims))
    return np.concatenate(genuine), np.concatenate(impostor)


def reference_protocol_score_set(dataset: FeatureDataset, enroll_frames: int,
                                 query_frames: int, config: SystemConfig) -> me.ScoreSet:
    genuine, impostor = reference_protocol_tests(dataset, enroll_frames, query_frames, config)
    return me.ScoreSet(genuine=genuine, impostor=impostor)


def reference_decidability_protocol(dataset: FeatureDataset, subject: str,
                                    config: SystemConfig) -> me.ScoreSet:
    """Per-user single-frame score distributions.

    Genuine: every unordered pair of the subject's single-frame encodings.
    Impostor: every subject frame against every frame of every other
    subject, scored one other subject at a time. Every frame is encoded with
    the claimed subject's parameters (and their calibrated quantization
    range), exactly as queries against that account would be.
    """
    system = AuthSystem(dataset, config)

    def frame_bits(source: str) -> np.ndarray:
        starts = np.arange(system.usable_frames(source))
        return reference_encode(*reference_windows(system, source, starts, 1),
                                system.users[subject].params)

    own_bits = frame_bits(subject)
    first, second = np.triu_indices(own_bits.shape[0], k=1)
    genuine = reference_score_pairs(own_bits[first], own_bits[second])
    impostor = [reference_score_pairs(own_bits, frame_bits(other)[:, None, :]).ravel()
                for other in dataset.subjects if other != subject]
    return me.ScoreSet(genuine=genuine, impostor=np.concatenate(impostor))


def reference_revocability_scores(user_features: tuple[np.ndarray, np.ndarray],
                                  params_list: list[tr.TransformParams],
                                  enrolled_templates: list[tr.CancellableTemplate]
                                  ) -> np.ndarray:
    """Pseudo-impostor scores: original templates vs same-feature new-key templates.

    `user_features` holds standardized (v1, v2) frames of shape (..., F, dim).
    The enrolled templates' bits stack along a leading axis that broadcasts
    against the feature batch: several templates of one user's features, or
    one template per user of a batch. Scores are ordered by template, then key.
    """
    if not params_list or not enrolled_templates:
        raise ConfigError("revocability needs at least one new key and one "
                          "enrolled template")
    enrolled_ids = {t.meta.key_id for t in enrolled_templates}
    for params in params_list:
        if params.key_id in enrolled_ids:
            raise ConfigError(
                f"revocation key list contains the enrolled key {params.key_id}")
    n_frames = enrolled_templates[0].meta.frames_averaged
    if any(t.meta.frames_averaged != n_frames for t in enrolled_templates):
        raise ConfigError("enrolled templates must average the same number of frames")
    enrolled = np.stack([t.bits for t in enrolled_templates])
    v1, v2 = (np.asarray(v, dtype=float)[..., :n_frames, :] for v in user_features)
    if min(v1.shape[-2], v2.shape[-2]) < n_frames:
        raise ConfigError(f"enrolled templates average {n_frames} frames; "
                          "the features hold fewer")
    scores = [reference_score_pairs(enrolled, reference_encode(v1, v2, params))
              for params in params_list]
    return np.stack(scores, axis=-1).ravel()


def reference_revocability_protocol(dataset: FeatureDataset, config: SystemConfig,
                                    n_keys: int = 50, seed: int = 0) -> me.ScoreSet:
    """Genuine/impostor/pseudo-impostor distributions over the whole population."""
    system = AuthSystem(dataset, config)
    genuine, impostor = reference_protocol_tests(dataset, config.enroll_frames,
                                       config.query_frames, system=system)
    accounts = [system.users[s] for s in system.subjects]
    keys = fresh_keys(np.random.default_rng(seed), n_keys,
                      forbidden={a.params.user_key for a in accounts})
    pseudo = reference_revocability_scores(
        (np.stack([a.enroll_v1 for a in accounts]),
         np.stack([a.enroll_v2 for a in accounts])),
        [system.calibrated_params(k) for k in keys],
        [a.template for a in accounts])
    return me.ScoreSet(genuine=genuine, impostor=impostor, pseudo_impostor=pseudo)


def reference_unlinkability_protocol(dataset: FeatureDataset, config: SystemConfig,
                                     n_keys: int = 6, seed: int = 0
                                     ) -> tuple[np.ndarray, np.ndarray]:
    """Mated and non-mated score samples from n_keys transformed databases.

    Mated: templates built from the same single frame of a subject under
    two different keys; every frame contributes, which multiplies the mated
    sample count (histogram densities need it). Non-mated: different
    subjects' first frames under different keys.
    """
    if n_keys < 2:
        raise ConfigError(f"unlinkability needs at least two keys, got {n_keys}")
    keys = fresh_keys(np.random.default_rng(seed), n_keys, forbidden=set())
    subjects = dataset.subjects
    system = AuthSystem(dataset, config)
    n_frames = min(system.usable_frames(s) for s in subjects)
    v1, v2 = reference_windows(system, np.array(subjects)[:, None], np.arange(n_frames), 1)
    # one (subjects, frames, n_bits) database per key
    bits = [reference_encode(v1, v2, system.calibrated_params(key)) for key in keys]
    other = ~np.eye(len(subjects), dtype=bool)
    mated, non_mated = [], []
    for a_idx in range(n_keys):
        for b_idx in range(a_idx + 1, n_keys):
            mated.append(reference_score_pairs(bits[a_idx], bits[b_idx]).ravel())
            firsts = reference_score_pairs(bits[a_idx][:, None, 0], bits[b_idx][None, :, 0])
            non_mated.append(firsts[other])
    return np.concatenate(mated), np.concatenate(non_mated)


def reference_eer(score_set: me.ScoreSet) -> tuple[float, float]:
    """Equal error rate and its threshold.

    Sweeps every distinct score; at the threshold minimizing |FAR - FRR| the
    EER is reported as (FAR + FRR) / 2.
    """
    points = me.roc_points(score_set)
    best = min(points, key=lambda p: (abs(p[1] - p[2]), p[0]))
    threshold, far, frr = best
    return (far + frr) / 2.0, threshold


def reference_evaluate(dataset: FeatureDataset, config: SystemConfig,
                       revocability_keys: int = 0, unlink_keys: int = 0,
                       seed: int = 0) -> me.EvalReport:
    """Full evaluation campaign: protocol scores, EER, d', optional
    revocability and unlinkability passes."""
    if revocability_keys:
        scores = reference_revocability_protocol(dataset, config, revocability_keys, seed)
    else:
        scores = reference_protocol_score_set(dataset, config.enroll_frames,
                                    config.query_frames, config)
    eer_value, threshold = reference_eer(scores)
    d_prime = me.decidability(scores)
    report = me.EvalReport(
        eer=float(eer_value),
        threshold_at_eer=float(threshold),
        d_prime=float(d_prime),
        d_prime_abs=abs(float(d_prime)),
        n_genuine=int(scores.genuine.size),
        n_impostor=int(scores.impostor.size),
        genuine_mean=float(scores.genuine.mean()),
        genuine_std=float(scores.genuine.std()),
        impostor_mean=float(scores.impostor.mean()),
        impostor_std=float(scores.impostor.std()),
        roc=me.roc_points(scores),
        scores=scores,
    )
    if scores.pseudo_impostor is not None:
        report.pseudo_impostor_mean = float(scores.pseudo_impostor.mean())
        report.pseudo_impostor_std = float(scores.pseudo_impostor.std())
        report.n_pseudo_impostor = int(scores.pseudo_impostor.size)
    if unlink_keys:
        mated, non_mated = reference_unlinkability_protocol(dataset, config, unlink_keys, seed)
        report.d_sys = me.unlinkability(mated, non_mated).d_sys
    return report



# ---------------------------------------------------------------------------
# random datasets
# ---------------------------------------------------------------------------

DELTAS = (0.15, 0.3, 0.5, 0.7, 0.85, 0.95)


@st.composite
def eval_cases(draw):
    """A random dataset and a config it can hold, with key counts.

    Every (subject, protocol) stream gets its own frame count, at least
    F_e + F_t, so subjects offer unequal numbers of usable frame pairs and a
    subject's two streams differ in length. Some datasets are quantized to
    one decimal, which ties scores, and some hold a constant feature, which
    gives a degenerate quantization range.
    """
    n_subjects = draw(st.integers(2, 12))
    dim = draw(st.integers(2, 12))
    delta = draw(st.sampled_from([d for d in DELTAS
                                  if 1 <= tr.output_dim(dim, d) < dim] or [0.5]))
    enroll_frames = draw(st.integers(1, 5))
    query_frames = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    extra = rng.integers(0, draw(st.integers(1, 8)), size=(n_subjects, 2))
    quantized = draw(st.booleans())
    constant = draw(st.booleans())
    vectors = {}
    for s in range(n_subjects):
        anchor = rng.uniform(0.2, 1.0, size=dim)
        for p, protocol in enumerate(PROTOCOL_PAIR):
            n = enroll_frames + query_frames + int(extra[s, p])
            frames = anchor * (1.0 + 0.3 * rng.standard_normal((n, dim)))
            if quantized:
                frames = np.round(frames, 1)
            if constant:
                frames[:, 0] = 0.5
            vectors[(f"S{s + 1:03d}", protocol)] = frames
    config = SystemConfig(delta=delta, enroll_frames=enroll_frames,
                          query_frames=query_frames, lost_key=draw(st.booleans()),
                          master_key=draw(st.integers(0, 2 ** 64 - 1)))
    return dict(dataset=FeatureDataset(vectors=vectors, feature_kind="random"),
                config=config, revocability_keys=draw(st.integers(1, 4)),
                unlink_keys=draw(st.integers(2, 4)), seed=draw(st.integers(0, 2 ** 16)),
                subject=f"S{draw(st.integers(1, n_subjects)):03d}")


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shape, dtype and bytes: equality that tells -0.0 and 0.0 apart."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def same_score_sets(a: me.ScoreSet, b: me.ScoreSet) -> bool:
    return (same_bits(a.genuine, b.genuine) and same_bits(a.impostor, b.impostor)
            and (a.pseudo_impostor is None) == (b.pseudo_impostor is None)
            and (a.pseudo_impostor is None
                 or same_bits(a.pseudo_impostor, b.pseudo_impostor)))


def outcome(fn, *args, **kwargs):
    """fn's result, or the type and message of the library error it raised."""
    try:
        return fn(*args, **kwargs)
    except NeurolockError as exc:
        return type(exc), str(exc)


def report_text(report) -> str:
    """Every serialized `EvalReport` field, floats by repr."""
    if isinstance(report, tuple):
        return repr(report)
    return json.dumps(report.to_json_dict(), sort_keys=True)


# ---------------------------------------------------------------------------
# equality
# ---------------------------------------------------------------------------

@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(eval_cases())
def test_protocols_match_reference(case):
    dataset, config = case["dataset"], case["config"]
    enroll, query = config.enroll_frames, config.query_frames
    got = me.protocol_tests(dataset, enroll, query, config)
    want = reference_protocol_tests(dataset, enroll, query, config)
    assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])

    assert same_score_sets(me.decidability_protocol(dataset, case["subject"], config),
                           reference_decidability_protocol(dataset, case["subject"], config))

    n_keys, seed = case["revocability_keys"], case["seed"]
    assert same_score_sets(me.revocability_protocol(dataset, config, n_keys, seed),
                           reference_revocability_protocol(dataset, config, n_keys, seed))

    mated, non_mated = me.unlinkability_protocol(dataset, config, case["unlink_keys"], seed)
    ref_mated, ref_non_mated = reference_unlinkability_protocol(dataset, config,
                                                                case["unlink_keys"], seed)
    assert same_bits(mated, ref_mated) and same_bits(non_mated, ref_non_mated)


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(eval_cases(), st.booleans(), st.booleans())
def test_evaluate_matches_reference(case, revocability, unlinkability):
    """Every report field and the scores behind it; a population too small
    for the unlinkability metric raises the same error on both sides."""
    dataset, config = case["dataset"], case["config"]
    kwargs = dict(revocability_keys=case["revocability_keys"] if revocability else 0,
                  unlink_keys=case["unlink_keys"] if unlinkability else 0,
                  seed=case["seed"])
    got = outcome(me.evaluate, dataset, config, **kwargs)
    want = outcome(reference_evaluate, dataset, config, **kwargs)
    assert report_text(got) == report_text(want)
    if not isinstance(want, tuple):
        assert got == want
        assert same_score_sets(got.scores, want.scores)


@st.composite
def window_requests(draw):
    """Sources and starts that broadcast, some of them out of range or unknown."""
    n_subjects = draw(st.integers(1, 5))
    names = [f"S{s + 1:03d}" for s in range(n_subjects)] + ["S404"]
    shape = draw(st.sampled_from([(), (3,), (2, 3), (4, 1)]))
    size = int(np.prod(shape))
    sources = np.array(draw(st.lists(st.sampled_from(names if draw(st.booleans())
                                                     else names[:-1]),
                                     min_size=size, max_size=size)) or ["S001"])
    starts = np.array(draw(st.lists(st.integers(-2, 14), min_size=size, max_size=size))
                      or [0])
    sources = sources.reshape(shape) if shape else sources[0]
    starts = starts.reshape(shape) if shape else starts[0]
    if draw(st.booleans()) and shape:
        sources = sources[..., :1]  # broadcasts against the starts
    return n_subjects, sources, starts, draw(st.integers(1, 4)), draw(st.integers(0, 99))


@settings(deadline=None)
@given(window_requests())
def test_windows_match_reference(request):
    n_subjects, sources, starts, n_frames, seed = request
    rng = np.random.default_rng(seed)
    vectors = {(f"S{s + 1:03d}", protocol): rng.random((int(rng.integers(2, 16)), 5))
               for s in range(n_subjects) for protocol in PROTOCOL_PAIR}
    system = AuthSystem(FeatureDataset(vectors=vectors),
                        SystemConfig(enroll_frames=1, query_frames=1))
    got = outcome(system.windows, sources, starts, n_frames)
    want = outcome(reference_windows, system, sources, starts, n_frames)
    if isinstance(want, tuple) and isinstance(want[0], type):
        assert got == want
    else:
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])


def test_windows_with_no_window_match_reference(random_dataset):
    system = AuthSystem(random_dataset, SystemConfig())
    for sources, starts in ((np.array([], dtype=str), np.array([], dtype=int)),
                            (["S001", "S002"], np.zeros((0, 2), dtype=int))):
        got = system.windows(sources, starts, 2)
        want = reference_windows(system, sources, starts, 2)
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 70),
       st.sampled_from([((), ()), ((3,), ()), ((3, 5), (5,)), ((4, 1, 6), (1, 3, 6)),
                        ((2, 9), (2, 9)), ((0,), ()), ((0, 3), (1, 3))]),
       st.sampled_from(["C", "F", "reversed"]))
def test_packed_hamming_matches_reference(seed, n_bytes, shapes, layout):
    """Every string length from 1 to 70 bytes, so every word width; strings
    that broadcast or number none, and F-ordered or reversed inputs, whose
    XOR is not C-contiguous."""
    rng = np.random.default_rng(seed)
    a, b = (rng.integers(0, 256, size=shape + (n_bytes,), dtype=np.uint8)
            for shape in shapes)
    if layout == "F":
        a, b = np.asfortranarray(a), np.asfortranarray(b)
    elif layout == "reversed":
        a, b = a[(slice(None, None, -1),) * a.ndim], b[(slice(None, None, -1),) * b.ndim]
    assert same_bits(tr.packed_hamming(a, b), reference_packed_hamming(a, b))


@given(eval_cases())
@settings(deadline=None)
def test_keyring_calibrates_as_reference(case):
    """An account's params, calibrated on first read, against the earlier
    eager calibration over the stacked enrollment frames; its enrolled bytes,
    and a fresh key's, against the reference encode of each enrollment under
    the reference's range."""
    dataset, config = case["dataset"], case["config"]
    system = AuthSystem(dataset, config)
    accounts = [system.users[s] for s in system.subjects]
    population = [np.concatenate([getattr(a, name) for a in accounts])
                  for name in ("enroll_v1", "enroll_v2")]
    codes = system.codes()
    for index, account in enumerate(accounts[:3]):
        want = reference_calibrate_params(
            tr.derive_params(account.key, system.dim, config.delta), *population,
            margin=config.calibration_margin)
        assert same_bits(account.params.quant_range, want.quant_range)
        assert same_bits(account.params.projection, want.projection)
        enrolled = np.packbits(reference_encode(account.enroll_v1, account.enroll_v2, want))
        assert same_bits(account.codes, enrolled) and same_bits(codes[index], enrolled)
    key = fresh_keys(np.random.default_rng(0), 1, forbidden={a.key for a in accounts})[0]
    want = reference_calibrate_params(tr.derive_params(key, system.dim, config.delta),
                                      *population, margin=config.calibration_margin)
    windows = [np.stack([getattr(a, name) for a in accounts])
               for name in ("enroll_v1", "enroll_v2")]
    assert same_bits(system.keyring(key).codes,
                     np.packbits(reference_encode(*windows, want), axis=-1))


# ---------------------------------------------------------------------------
# published-shape pins
# ---------------------------------------------------------------------------

def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


# taken with the reference implementation: 109 subjects x 30 frames x 70
# features, delta = 0.85, F_e = 10, F_t = 1, 50 revocation and 6 unlinkability keys
PUBLISHED_PINS = {
    (1234, True): dict(
        scores="b2a316cb6e385eb7d7aa74750b6f4aa0c3e8174f0e25c8ed825bf405a107c76f",
        unlinkability="96e8d28be77a552b22c6de69ba0a6a4997bc1de3ed229c85bfc00121b01b7ce1",
        report="354e24de2d9bb80a903887cb1b990b0bf309141b0c23eceb735928c4141e97b4",
        decidability=["048511fa40305a8da5523dd9e0e5b1c224c90a9133412ffab385913d8cb91202",
                      "edb658d9d8bdeb6fe5bcc6d6052de4d9f0df9e5425f0f25444e1c26ecaf2a0a4"]),
    (1234, False): dict(
        scores="d009742c5cc55d76379346f0054deba85c4f9801dcabc8b3bf0d9ce123edef0f",
        unlinkability="96e8d28be77a552b22c6de69ba0a6a4997bc1de3ed229c85bfc00121b01b7ce1",
        report="c594731d99aa27619875503c6d3be0c3bea6495f919e0ce7a9b2be8e155867a0",
        decidability=["c3543fcaa357e87b7470c9b8ffe2527e695948c5d65807a38712a6e1ed42674f",
                      "739c2bd79e07b22fb54e0042862c4e97737f02622c2a7a12294655f803ca377d"]),
    (7, True): dict(
        scores="4fedd16857708e232e54daaced6ca2ecbdd79bc533703edece3d29baf775c7c7",
        unlinkability="9db84c196a9776bfb054555a624832696e4169570c2ca08a1ac4cdfc3b1d9c70",
        report="b5437842cd2102eea8352b4eaf2ab38036c3320987fa4d25e6ff301c685c8857",
        decidability=["b807aa4351fad6846588eaee1c01d627e16cf2146a56bec1e83e5b04dbdfc1f8",
                      "17e7415a37dafca48159347d7a625b25af88b9745e7091407ca486811b65eadf"]),
    (7, False): dict(
        scores="2918de4ab600e0eebfc2b75232b6890763d5673439a05fd36b353d4c04c503b9",
        unlinkability="9db84c196a9776bfb054555a624832696e4169570c2ca08a1ac4cdfc3b1d9c70",
        report="fcc35dc90f5f48e060f3c34307baff7467abbd2a781324bb4c7901b6058beb79",
        decidability=["5a8615d5e59458bb8fe1ed66f443e9bc1c87372120b02dafa98496f29382cfe0",
                      "d1d59abff1b27e1b8e70d0cf103d714fa0a3e2c8d406fb425ec0f546d627513c"]),
}


@pytest.mark.parametrize("seed, lost_key", sorted(PUBLISHED_PINS),
                         ids=[f"seed{s}-{'lost' if k else 'per-user'}-key"
                              for s, k in sorted(PUBLISHED_PINS)])
def test_published_shape_scores_are_pinned(seed, lost_key):
    dataset = random_feature_dataset(n_subjects=109, n_frames=30, dim=70, seed=seed)
    config = SystemConfig(enroll_frames=10, query_frames=1, delta=0.85, lost_key=lost_key)
    report = me.evaluate(dataset, config, revocability_keys=50, unlink_keys=6, seed=seed)
    mated, non_mated = me.unlinkability_protocol(dataset, config, 6, seed)
    scores = report.scores
    assert {
        "scores": digest(scores.genuine, scores.impostor, scores.pseudo_impostor),
        "unlinkability": digest(mated, non_mated),
        "report": hashlib.sha256(report_text(report).encode()).hexdigest(),
        "decidability": [digest(d.genuine, d.impostor)
                         for d in (me.decidability_protocol(dataset, subject, config)
                                   for subject in ("S001", "S055"))],
    } == PUBLISHED_PINS[(seed, lost_key)]
