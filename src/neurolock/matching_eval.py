"""Evaluation protocols and metrics: EER/ROC, decidability, revocability,
unlinkability.

Genuine/impostor test counts follow the enrollment schedule: the first F_e
frame pairs enroll each subject, every following group of F_t frames is one
genuine query, and one frame group from every other subject is one impostor
query. All scores are normalized Hamming distances (smaller = more similar).
The protocols score gray bytes end to end: each distinct key encodes the
stacked windows it needs once with `transform.encode_bytes`, and every
distance is `score_pairs` of those bytes and the enrolled templates' bytes.
Every key is calibrated by the system's `Keyring`, which also encodes the
enrollment under each new key of the revocability protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import transform as tr
from .errors import ConfigError, IncompatibleTemplates, LengthError
from .pipeline import FeatureDataset
from .system import AuthSystem, SystemConfig, fresh_keys

MIN_UNLINK_SCORES = 100  # mated and non-mated scores each, for `unlinkability`'s densities


def mated_unlink_scores(n_keys: int, n_subjects: int, n_frames: int) -> int:
    """Mated scores `unlinkability_protocol` gives: every frame, per key pair."""
    return n_keys * (n_keys - 1) // 2 * n_subjects * n_frames


def non_mated_unlink_scores(n_keys: int, n_subjects: int) -> int:
    """Non-mated scores it gives: every ordered pair of subjects, per key pair."""
    return n_keys * (n_keys - 1) // 2 * n_subjects * (n_subjects - 1)


@dataclass
class ScoreSet:
    genuine: np.ndarray
    impostor: np.ndarray
    pseudo_impostor: np.ndarray | None = None

    def __post_init__(self):
        self.genuine = np.asarray(self.genuine, dtype=float)
        self.impostor = np.asarray(self.impostor, dtype=float)
        if self.pseudo_impostor is not None:
            self.pseudo_impostor = np.asarray(self.pseudo_impostor, dtype=float)


@dataclass
class UnlinkabilityResult:
    bin_centers: np.ndarray
    d_local: np.ndarray
    d_sys: float
    mated_density: np.ndarray
    non_mated_density: np.ndarray


@dataclass
class EvalReport:
    eer: float
    threshold_at_eer: float
    d_prime: float
    d_prime_abs: float
    n_genuine: int
    n_impostor: int
    genuine_mean: float
    genuine_std: float
    impostor_mean: float
    impostor_std: float
    roc: list[tuple[float, float, float]]  # (threshold, FAR, FRR)
    pseudo_impostor_mean: float | None = None
    pseudo_impostor_std: float | None = None
    n_pseudo_impostor: int | None = None
    d_sys: float | None = None
    # the scores behind the report, kept for histograms; not serialized
    scores: ScoreSet | None = field(default=None, repr=False, compare=False)

    def to_json_dict(self) -> dict:
        return {key: value for key, value in self.__dict__.items() if key != "scores"}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def roc_points(score_set: ScoreSet) -> list[tuple[float, float, float]]:
    """(threshold, FAR, FRR) at every distinct observed score.

    Distance orientation: FAR(t) is the impostor fraction at or below t,
    FRR(t) the genuine fraction above t.
    """
    genuine = np.sort(score_set.genuine)
    impostor = np.sort(score_set.impostor)
    if genuine.size == 0 or impostor.size == 0:
        raise LengthError("both genuine and impostor scores are required")
    thresholds = np.unique(np.concatenate([genuine, impostor]))
    far = np.searchsorted(impostor, thresholds, side="right") / impostor.size
    frr = (genuine.size - np.searchsorted(genuine, thresholds, side="right")) \
        / genuine.size
    return list(zip(thresholds.tolist(), far.tolist(), frr.tolist()))


def eer(score_set: ScoreSet) -> tuple[float, float]:
    """Equal error rate and its threshold.

    Sweeps every distinct score; at the threshold minimizing |FAR - FRR| the
    EER is reported as (FAR + FRR) / 2.
    """
    return _eer_of(roc_points(score_set))


def _eer_of(points: list[tuple[float, float, float]]) -> tuple[float, float]:
    """`eer` read from `roc_points` already built."""
    threshold, far, frr = min(points, key=lambda p: (abs(p[1] - p[2]), p[0]))
    return (far + frr) / 2.0, threshold


def decidability(score_set: ScoreSet) -> float:
    """d' = (m_intra - m_inter) / sqrt((s_intra^2 + s_inter^2) / 2).

    Population standard deviations. For distance scores the genuine mean is
    the smaller one, so d' is negative; report abs() alongside when mirroring
    magnitude-style tables.
    """
    genuine, impostor = score_set.genuine, score_set.impostor
    if genuine.size < 2 or impostor.size < 2:
        raise LengthError("need at least 2 scores on each side")
    m_intra, m_inter = genuine.mean(), impostor.mean()
    s_intra, s_inter = genuine.std(), impostor.std()
    denom = np.sqrt((s_intra ** 2 + s_inter ** 2) / 2.0)
    if denom == 0.0:
        return 0.0 if m_intra == m_inter else np.sign(m_intra - m_inter) * np.inf
    return float((m_intra - m_inter) / denom)


def unlinkability(mated: np.ndarray, non_mated: np.ndarray) -> UnlinkabilityResult:
    """Score-wise and system-wide linkability from 50 shared-bin histograms.

    D_local(s) = max(0, 2 LR / (1 + LR) - 1) with LR the mated/non-mated
    density ratio; bins where only the mated density is positive count as
    fully linkable. D_sys integrates D_local under the mated density.
    """
    mated = np.asarray(mated, dtype=float)
    non_mated = np.asarray(non_mated, dtype=float)
    if mated.size < MIN_UNLINK_SCORES or non_mated.size < MIN_UNLINK_SCORES:
        raise LengthError(f"need at least {MIN_UNLINK_SCORES} mated and non-mated scores")
    bins = 50
    lo = min(mated.min(), non_mated.min())
    hi = max(mated.max(), non_mated.max())
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    edges = np.linspace(lo, hi, bins + 1)
    width = edges[1] - edges[0]
    p_mated = np.histogram(mated, bins=edges)[0] / (mated.size * width)
    p_non = np.histogram(non_mated, bins=edges)[0] / (non_mated.size * width)
    d_local = np.zeros(bins)
    both = (p_mated > 0) & (p_non > 0)
    ratio = np.divide(p_mated, p_non, out=np.zeros(bins), where=both)
    d_local[both] = np.maximum(0.0, 2.0 * ratio[both] / (1.0 + ratio[both]) - 1.0)
    d_local[(p_mated > 0) & (p_non == 0)] = 1.0
    d_sys = float((d_local * p_mated * width).sum())
    centers = (edges[:-1] + edges[1:]) / 2.0
    return UnlinkabilityResult(bin_centers=centers, d_local=d_local, d_sys=d_sys,
                               mated_density=p_mated, non_mated_density=p_non)


# ---------------------------------------------------------------------------
# protocols
# ---------------------------------------------------------------------------

def system_tests(system: AuthSystem) -> tuple[np.ndarray, np.ndarray]:
    """Genuine and impostor scores per the frame schedule of `system.config`.

    Genuine: per subject, one query per consecutive group of F_t frames after
    the F_e enrollment frames. Impostor: per subject, one query from every
    other subject's first post-enrollment frame group, transformed with the
    claimed account's parameters. Each query is scored against the claimed
    account's enrolled template; scores run by claimed subject, then query.
    Every genuine window is cut in one `windows` call, and each distinct key
    encodes the windows its accounts are scored against once: under the
    shared lost key, every window once.
    """
    enroll_frames, query_frames = system.config.enroll_frames, system.config.query_frames
    subjects = system.subjects
    accounts = [system.users[subject] for subject in subjects]
    n_queries = [(system.usable_frames(s) - enroll_frames) // query_frames for s in subjects]
    # every genuine query window, subject by subject; `first` indexes each
    # subject's first one, which is also its impostor query against the others
    owner = np.repeat(np.arange(len(subjects)), n_queries)
    first = np.cumsum(n_queries) - n_queries
    v1, v2 = system.windows(np.asarray(subjects)[owner], enroll_frames + query_frames
                            * (np.arange(owner.size) - first[owner]), query_frames)
    enrolled = np.stack([np.packbits(a.template.bits) for a in accounts])
    genuine = np.empty(owner.size)
    impostor = np.empty((len(subjects), len(subjects)))
    codes = np.empty((owner.size, enrolled.shape[-1]), dtype=np.uint8)
    for key, claims in _accounts_by_key(accounts).items():
        # encode what any of the key's accounts is scored against, once each
        mine = np.isin(owner, claims)
        needed = mine.copy()
        needed[first] = True
        codes[needed] = tr.encode_bytes(v1[needed], v2[needed], accounts[claims[0]].params)
        genuine[mine] = score_pairs(enrolled[owner[mine]], codes[mine])
        impostor[claims] = score_pairs(enrolled[claims, None], codes[first])
    return genuine, impostor[~np.eye(len(subjects), dtype=bool)]


def protocol_tests(dataset: FeatureDataset, enroll_frames: int, query_frames: int,
                   config: SystemConfig | None = None) -> tuple[np.ndarray, np.ndarray]:
    """`system_tests` of a system enrolled over `dataset` with these frame counts."""
    config = SystemConfig() if config is None else config
    return system_tests(AuthSystem(dataset, replace(config, enroll_frames=enroll_frames,
                                                    query_frames=query_frames)))


def _accounts_by_key(accounts: list) -> dict[int, list[int]]:
    """Indices of the accounts under each distinct key, in account order."""
    groups: dict[int, list[int]] = {}
    for index, account in enumerate(accounts):
        groups.setdefault(account.key, []).append(index)
    return groups


def score_pairs(enrolled: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Normalized Hamming distances of enrolled gray bytes to query gray bytes.

    Byte strings run along the last axis and leading axes broadcast: one
    enrolled template against a batch of queries, or batch against batch.
    `transform.packed_hamming` counts the differing bits, so the scores
    equal `transform.hamming_score`'s over the unpacked bits.
    """
    n_bytes = enrolled.shape[-1]
    if queries.shape[-1] != n_bytes:
        raise IncompatibleTemplates(f"byte lengths differ: {n_bytes} vs {queries.shape[-1]}")
    return tr.packed_hamming(enrolled, queries) / (tr.BITS_PER_DIM * n_bytes)


def protocol_score_set(dataset: FeatureDataset, enroll_frames: int,
                       query_frames: int, config: SystemConfig) -> ScoreSet:
    genuine, impostor = protocol_tests(dataset, enroll_frames, query_frames, config)
    return ScoreSet(genuine=genuine, impostor=impostor)


def decidability_protocol(dataset: FeatureDataset, subject: str,
                          config: SystemConfig) -> ScoreSet:
    """Per-user single-frame score distributions.

    Genuine: every unordered pair of the subject's single-frame encodings.
    Impostor: every subject frame against every frame of every other
    subject, in subject order, each other frame against each subject frame.
    Every frame is encoded with the claimed subject's parameters (and their
    calibrated quantization range), exactly as queries against that account
    would be: all frames are cut in one `windows` call and encoded to gray
    bytes in one `encode_bytes` call, and only the claimed key is calibrated.
    """
    system = AuthSystem(dataset, config)
    params = system.users[subject].params
    sources = dataset.subjects
    n_frames = [system.usable_frames(source) for source in sources]
    owner = np.repeat(np.arange(len(sources)), n_frames)
    start = np.cumsum(n_frames) - n_frames
    codes = tr.encode_bytes(*system.windows(np.asarray(sources)[owner],
                                            np.arange(owner.size) - start[owner], 1), params)
    own = owner == sources.index(subject)
    first, second = np.triu_indices(np.count_nonzero(own), k=1)
    genuine = score_pairs(codes[own][first], codes[own][second])
    impostor = score_pairs(codes[~own][:, None], codes[own])
    return ScoreSet(genuine=genuine, impostor=impostor.ravel())


def revocability_scores(system: AuthSystem, keys: list[int]) -> np.ndarray:
    """Pseudo-impostor scores, by account, then key: each account's enrolled
    template against its enrollment frames encoded under each new key by the
    system's `Keyring`. The keys must be new to every account."""
    if not keys:
        raise ConfigError("revocability needs at least one new key")
    accounts = [system.users[s] for s in system.subjects]
    if {a.key for a in accounts}.intersection(keys):
        raise ConfigError("the revocation keys include a key an account holds")
    enrolled = np.stack([np.packbits(a.template.bits) for a in accounts])
    scores = [score_pairs(enrolled, system.keyring.enrolled_codes(key)) for key in keys]
    return np.stack(scores, axis=-1).ravel()


def revocability_protocol(dataset: FeatureDataset, config: SystemConfig,
                          n_keys: int = 50, seed: int = 0) -> ScoreSet:
    """Genuine/impostor/pseudo-impostor distributions over the whole population."""
    system = AuthSystem(dataset, config)
    genuine, impostor = system_tests(system)
    keys = fresh_keys(np.random.default_rng(seed), n_keys,
                      forbidden={a.key for a in system.users.values()})
    return ScoreSet(genuine=genuine, impostor=impostor,
                    pseudo_impostor=revocability_scores(system, keys))


def unlinkability_protocol(dataset: FeatureDataset, config: SystemConfig,
                           n_keys: int = 6, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Mated and non-mated score samples from n_keys transformed databases.

    Mated: templates built from the same single frame of a subject under
    two different keys; every frame contributes, which multiplies the mated
    sample count (histogram densities need it). Non-mated: different
    subjects' first frames under different keys. Each key encodes the
    stacked frames once, to gray bytes.
    """
    if n_keys < 2:
        raise ConfigError(f"unlinkability needs at least two keys, got {n_keys}")
    keys = fresh_keys(np.random.default_rng(seed), n_keys, forbidden=set())
    subjects = dataset.subjects
    system = AuthSystem(dataset, config)
    n_frames = min(system.usable_frames(s) for s in subjects)
    v1, v2 = system.windows(np.array(subjects)[:, None], np.arange(n_frames), 1)
    # one (subjects, frames, n_out) database of gray bytes per key
    codes = [tr.encode_bytes(v1, v2, system.calibrated_params(key)) for key in keys]
    other = ~np.eye(len(subjects), dtype=bool)
    mated, non_mated = [], []
    for a_idx in range(n_keys):
        for b_idx in range(a_idx + 1, n_keys):
            mated.append(score_pairs(codes[a_idx], codes[b_idx]).ravel())
            firsts = score_pairs(codes[a_idx][:, None, 0], codes[b_idx][None, :, 0])
            non_mated.append(firsts[other])
    return np.concatenate(mated), np.concatenate(non_mated)


def evaluate(dataset: FeatureDataset, config: SystemConfig, revocability_keys: int = 0,
             unlink_keys: int = 0, seed: int = 0) -> EvalReport:
    """Full evaluation campaign: protocol scores, EER, d', optional
    revocability and unlinkability passes."""
    if revocability_keys:
        scores = revocability_protocol(dataset, config, revocability_keys, seed)
    else:
        scores = protocol_score_set(dataset, config.enroll_frames,
                                    config.query_frames, config)
    roc = roc_points(scores)
    eer_value, threshold = _eer_of(roc)
    d_prime = decidability(scores)
    report = EvalReport(
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
        roc=roc,
        scores=scores,
    )
    if scores.pseudo_impostor is not None:
        report.pseudo_impostor_mean = float(scores.pseudo_impostor.mean())
        report.pseudo_impostor_std = float(scores.pseudo_impostor.std())
        report.n_pseudo_impostor = int(scores.pseudo_impostor.size)
    if unlink_keys:
        mated, non_mated = unlinkability_protocol(dataset, config, unlink_keys, seed)
        report.d_sys = unlinkability(mated, non_mated).d_sys
    return report
