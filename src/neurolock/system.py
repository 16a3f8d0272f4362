"""Protected authentication system: enrollment store, score oracle, and re-keying.

Templates are enrolled from the first F_e frame pairs of each subject. In the
lost-key evaluation scenario every user shares one key (the attacker is assumed
to hold it); otherwise each user gets a key drawn from the master key.
`reissue` and `revoke` are the one way to give an account another key. Every
key is calibrated by the system's `Keyring`: an account's as its `params` are
first read (it alone holds the set), a revocation key's as it encodes the
enrollment under it. Every account keeps its enrolled gray bytes, which the
protocols and the scorers count against; `codes` stacks them in subject
order. Every query is a frame window cut by `windows`, within the frame
pairs that `usable_frames` counts, and encoded under the claimed account's
key. Every raw attack query is scored by an account's `AccountScorer`
(`scorer`, or one built over a `reissue`d state); `feature_query_bits` and
`score_bits` are the checked reference path whose scores it equals.
"""

from __future__ import annotations

import functools
import numbers
import weakref
from dataclasses import dataclass, field, replace

import numpy as np

from . import transform as tr
from .errors import ConfigError, is_a, require
from .ingest import PROTOCOL_PAIR
from .pipeline import FeatureDataset, stable_int


@dataclass
class SystemConfig:
    delta: float = 0.5
    enroll_frames: int = 10          # F_e
    query_frames: int = 1            # F_t
    theta: float = 0.389
    lost_key: bool = True            # one shared key (worst case) vs per-user keys
    master_key: int = 0x5EED
    # quantization window half-margin as a multiple of the population span;
    # generous margins keep out-of-population queries unclamped
    calibration_margin: float = 1.0

    def __post_init__(self):
        """Check types and ranges; cheap enough to run before any extraction."""
        count = (numbers.Integral, lambda v: v >= 1, "an integer of at least 1")
        for name, kind, ok, what in (
                ("delta", numbers.Real, lambda v: 0 < v < 1, "a number in (0, 1)"),
                ("enroll_frames", *count), ("query_frames", *count),
                ("theta", numbers.Real, lambda v: 0 <= v <= 1, "a number in [0, 1]"),
                ("lost_key", bool, lambda v: True, "true or false"),
                ("master_key", *tr.KEY_RULE),
                ("calibration_margin", numbers.Real, lambda v: 0 <= v < float("inf"),
                 "a finite non-negative number")):
            require(name, getattr(self, name), kind, ok, what)


@dataclass
class UserAccount:
    """One enrolled account: its key and enrollment frames, and what it derives
    from them on first read and keeps: `params`, its enrolled gray bytes
    `codes`, which every scoring path counts against, and `template`."""

    subject_id: str
    key: int                   # the user key; `params` are its calibrated set
    enroll_v1: np.ndarray      # F_e x dim, standardized working space
    enroll_v2: np.ndarray
    raw_v1: np.ndarray         # F_e x dim, as extracted
    raw_v2: np.ndarray
    keyring: Keyring = field(repr=False, compare=False)

    @functools.cached_property
    def params(self) -> tr.TransformParams:
        """`key`'s parameter set from the system's keyring, calibrated on first
        read."""
        return self.keyring(self.key)

    @functools.cached_property
    def codes(self) -> np.ndarray:
        """The enrolled gray bytes, one per projected dimension: `encode_bytes` of
        all F_e frame pairs under `params`, which are `template`'s bits packed.
        Encoded on first read."""
        return tr.encode_bytes(self.enroll_v1, self.enroll_v2, self.params)

    @functools.cached_property
    def template(self) -> tr.CancellableTemplate:
        """The enrolled template of all F_e frame pairs under `params`, built on
        first read."""
        return tr.make_template(self.enroll_v1, self.enroll_v2, self.params,
                                subject_id=self.subject_id)

    @property
    def true_features(self) -> np.ndarray:
        """Mean raw enrollment feature pair (reference for attack similarity)."""
        return np.concatenate([self.raw_v1.mean(axis=0), self.raw_v2.mean(axis=0)])


class Accounts(dict):
    """Subject id to `UserAccount`; looking up an unknown subject raises ConfigError."""

    def __missing__(self, subject):
        raise ConfigError(f"unknown subject {subject!r}")


def fresh_keys(rng: np.random.Generator, count: int, forbidden: set[int]) -> list[int]:
    """`count` distinct keys in [0, 2**63), one `rng` draw each; a draw that is in
    `forbidden` or repeats an earlier one is skipped."""
    keys: dict[int, None] = {}  # in draw order; a repeated draw adds nothing
    while len(keys) < count:
        key = int(rng.integers(0, 2 ** 63))
        if key not in forbidden:
            keys[key] = None
    return list(keys)


class Keyring:
    """The one place a key is derived and calibrated against the enrolled
    population: each account's parameter set on first request, shared with
    the accounts that hold the key while one does (`params` is weak), and
    every account's enrollment under a key no account holds. Accounts hold
    the keyring rather than their system, so an account keeps only the
    population and its own parameter set alive.
    """

    def __init__(self, population_v1: np.ndarray, population_v2: np.ndarray,
                 config: SystemConfig):
        self.population_v1, self.population_v2 = population_v1, population_v2
        self.config = config
        self.params = weakref.WeakValueDictionary()  # key -> its TransformParams

    def __call__(self, key: int) -> tr.TransformParams:
        if (params := self.params.get(key)) is None:  # the local name keeps a new set alive
            params = self.params[key] = tr.calibrate_params(
                self._derive(key), self.population_v1, self.population_v2,
                margin=self.config.calibration_margin)
        return params

    def enrolled_codes(self, key: int) -> np.ndarray:
        """Gray bytes of every account's enrollment frames under `key`, a row per
        account in subject order: one `calibrate_encode` projection of the
        population viewed as (accounts, F_e, dim) fits the range `__call__`
        fits and encodes it. The parameter set is not kept."""
        v1, v2 = (p.reshape(-1, self.config.enroll_frames, p.shape[-1])
                  for p in (self.population_v1, self.population_v2))
        return tr.calibrate_encode(self._derive(key), v1, v2, self.config.calibration_margin)

    def _derive(self, key: int) -> tr.TransformParams:
        return tr.derive_params(key, self.population_v1.shape[-1], self.config.delta)


class AuthSystem:
    """Enrolled population over a feature dataset.

    Parameter sets are calibrated per key against the whole enrolled
    population: the quantization range spans everyone's projections under
    that key, so a template's levels encode where the user sits within the
    population rather than a self-referential enrollment window. A key is
    calibrated when its parameters are first read, so building the system
    calibrates none; `keyring` calibrates every key.
    """

    def __init__(self, dataset: FeatureDataset, config: SystemConfig):
        self.dataset = dataset
        self.config = config
        self.dim = dataset.dim
        raw: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self._usable_frames: dict[str, int] = {}
        for subject in dataset.subjects:
            n_frames = self._usable_frames[subject] = self.usable_frames(subject)
            if n_frames < config.enroll_frames + config.query_frames:
                raise ConfigError(
                    f"subject {subject}: {n_frames} frames < F_e + F_t = "
                    f"{config.enroll_frames + config.query_frames}")
            # enrollment keeps its raw slice: the standardizer is fit on it
            raw[subject] = tuple(dataset.frames(subject, protocol)[:config.enroll_frames]
                                 for protocol in PROTOCOL_PAIR)
        # population z-scoring per protocol stream: without it, a user's mean
        # feature level survives every re-keying (the permutation only shuffles
        # terms of the same sum) and templates stay linkable across keys
        pooled_a = np.concatenate([raw[s][0] for s in dataset.subjects])
        pooled_b = np.concatenate([raw[s][1] for s in dataset.subjects])
        self._mean_a, self._scale_a = _standardizer(pooled_a)
        self._mean_b, self._scale_b = _standardizer(pooled_b)
        population_v1 = self.standardize_a(pooled_a)
        population_v2 = self.standardize_b(pooled_b)
        self.keyring = Keyring(population_v1, population_v2, config)

        self.users = Accounts()
        for index, subject in enumerate(dataset.subjects):
            if config.lost_key:
                key = config.master_key
            else:
                key = int(np.random.default_rng(
                    [config.master_key, stable_int(subject)]).integers(0, 2 ** 63))
            own = slice(index * config.enroll_frames, (index + 1) * config.enroll_frames)
            self.users[subject] = UserAccount(subject, key, population_v1[own],
                                              population_v2[own], raw[subject][0],
                                              raw[subject][1], self.keyring)

    def standardize_a(self, v: np.ndarray) -> np.ndarray:
        """Map first-protocol features into the calibrated z-score space:
        (v - mean) / scale, in place on one copy."""
        return _standardized(v, self._mean_a, self._scale_a)

    def standardize_b(self, v: np.ndarray) -> np.ndarray:
        return _standardized(v, self._mean_b, self._scale_b)

    def calibrated_params(self, key: int) -> tr.TransformParams:
        """`key`'s population-calibrated parameter set, kept while anyone holds it."""
        return self.keyring(key)

    @property
    def subjects(self) -> list[str]:
        return sorted(self.users)

    def codes(self) -> np.ndarray:
        """Every account's enrolled gray bytes (`UserAccount.codes`), a row per
        account in subject order."""
        return np.stack([self.users[subject].codes for subject in self.subjects])

    # -- query construction -------------------------------------------------

    def usable_frames(self, subject: str) -> int:
        """Frame pairs `subject` offers: the shorter of its two protocol streams,
        counted once when the system is built. Any other subject is counted in
        the dataset, which names an unknown one in a ConfigError."""
        if subject in self._usable_frames:
            return self._usable_frames[subject]
        return min(self.dataset.n_frames(subject, protocol) for protocol in PROTOCOL_PAIR)

    def windows(self, sources, starts, n_frames: int) -> tuple[np.ndarray, np.ndarray]:
        """Standardized frame windows: the one way a query reads its frames.

        `sources` (subject ids) and `starts` (frame offsets) broadcast; each
        entry of the broadcast shape is one window of n_frames frame pairs, so
        v1 and v2 have shape broadcast.shape + (n_frames, dim). A start or an
        n_frames that is not an integer (a float, even a whole one, or a bool,
        also one inside a list of ints), a negative start, or a window past the
        subject's usable frames raises ConfigError before any frame is read.
        The frames of every subject named are stacked once per protocol and
        every window is read from the stack in one gather.
        """
        if not is_a(n_frames, numbers.Integral) or n_frames < 1:
            raise ConfigError(f"a window needs an integer count of at least one frame, "
                              f"got {n_frames!r}")
        offsets = np.asarray(starts)
        if not (isinstance(starts, np.ndarray) and offsets.dtype.kind in "iu"):
            # read each start as given: numpy makes [1, True] an int array, and
            # ints past int64 a float or object one
            given = np.asarray(starts, dtype=object)
            for offset in given.ravel().tolist():
                if not is_a(offset, numbers.Integral):
                    raise ConfigError(f"a frame offset must be an integer, got {offset!r}")
            if offsets.dtype.kind not in "iu":
                offsets = given
        sources, starts = np.broadcast_arrays(np.asarray(sources), offsets)
        names, seen, which = np.unique(sources, return_index=True, return_inverse=True)
        which = which.reshape(sources.shape)
        # each subject's first and last start in the starts' own dtype: none wraps
        first, last = starts.ravel()[seen], starts.ravel()[seen]
        np.minimum.at(first, which, starts)
        np.maximum.at(last, which, starts)
        for subject, lo, hi in zip(names.tolist(), first.tolist(), last.tolist()):
            if lo < 0:
                raise ConfigError(f"subject {subject}: negative frame offset {lo}")
            if hi + n_frames > self.usable_frames(subject):
                raise ConfigError(f"subject {subject}: not enough frames at offset {hi}")
        v1, v2 = (self._gather(protocol, names.tolist(), which, starts, n_frames)
                  for protocol in PROTOCOL_PAIR)
        return self.standardize_a(v1), self.standardize_b(v2)

    def _gather(self, protocol, subjects: list[str], which: np.ndarray,
                starts: np.ndarray, n_frames: int) -> np.ndarray:
        """Windows of one protocol's frames: `subjects[which]` from `starts`."""
        frames = [self.dataset.frames(subject, protocol) for subject in subjects]
        offsets = np.cumsum([0] + [f.shape[0] for f in frames])[:-1]
        rows = (offsets[which] + starts)[..., None] + np.arange(n_frames)
        return np.concatenate(frames or [np.empty((0, self.dim))])[rows]

    def query_template(self, claimed: str, source: str, start_frame: int,
                       n_frames: int | None = None) -> tr.CancellableTemplate:
        """Template for one window of `source`'s frames presented against
        `claimed`'s account, under its key and quantization range exactly as
        the deployed matcher would build it."""
        n_frames = self.config.query_frames if n_frames is None else n_frames
        v1, v2 = self.windows(source, start_frame, n_frames)
        return tr.make_template(v1, v2, self.users[claimed].params, subject_id=source)

    def feature_query_bits(self, claimed: str, v1: np.ndarray,
                           v2: np.ndarray) -> np.ndarray:
        """Bits single raw feature-pair queries (last axis) produce against
        `claimed`'s account."""
        return tr.encode(self.standardize_a(v1)[..., None, :],
                         self.standardize_b(v2)[..., None, :], self.users[claimed].params)

    # -- scoring -------------------------------------------------------------

    def score_bits(self, claimed: str, bits: np.ndarray) -> float:
        """Normalized Hamming distance of raw query bits to the enrolled template."""
        _, score = tr.hamming_score(bits, self.users[claimed].template.bits)
        return score

    def scorer(self, claimed: str) -> AccountScorer:
        """`claimed`'s score oracle, built from its current account state."""
        return AccountScorer(self, self.users[claimed])

    # -- revocation ----------------------------------------------------------

    def reissue(self, subject: str, new_key: int) -> UserAccount:
        """Fresh account state under a new key, calibrated now and held by it alone
        (a key that `derive_params` refuses fails here); does not mutate the system."""
        account = replace(self.users[subject], key=new_key)
        account.params  # read once: the keyring keeps no set that no account holds
        return account

    def revoke(self, subject: str, new_key: int) -> None:
        """Replace the stored account state under a new key."""
        self.users[subject] = self.reissue(subject, new_key)


class AccountScorer:
    """One account's score oracle, with everything a query reuses precomputed.

    `feature_score` takes one raw v1|v2 feature vector, `projected_score`
    one projected vector; each returns exactly what `score_bits` gives for
    `feature_query_bits` or `gray_encode` of the same input. Every float step
    keeps the reference chain's order and form. The gray bytes, one per
    projected value, are read as one integer and XORed with the account's
    enrolled gray bytes (`UserAccount.codes`) read the same way; its set-bit
    count is the integer that the reference's unpacked XOR-and-sum gives.
    `feature_scores` and `projected_scores` score a (k, ·) block of such
    vectors at once, each row exactly as the single-query method scores it:
    the same elementwise steps, `project`'s one vector-matrix product per
    row, and the gray bytes XORed with the enrolled bytes and counted by
    `transform.packed_hamming`. One query alone is faster through the
    single-query methods, a block of tens of queries through the batch ones.
    Queries are not checked: they must be float vectors of the right length.
    The scorer does not follow a later `revoke`; build a new one.
    """

    def __init__(self, system: AuthSystem, account: UserAccount):
        params = account.params
        self._dim = system.dim
        self._permutation = params.permutation
        # standardizing and then permuting v1 equals permuting it and then
        # standardizing with the statistics gathered through the permutation
        self._mean_a = system._mean_a[params.permutation]
        self._scale_a = system._scale_a[params.permutation]
        self._mean_b, self._scale_b = system._mean_b, system._scale_b
        self._projection = params.projection
        self._lo, self._hi = params.quant_range[:, 0], params.quant_range[:, 1]
        self._scale = tr.LEVELS / (self._hi - self._lo)
        self._enrolled_bytes = account.codes
        self._enrolled = _as_int(self._enrolled_bytes)
        self._n_bits = tr.BITS_PER_DIM * self._enrolled_bytes.size

    def feature_score(self, x: np.ndarray) -> float:
        """Score of one raw feature pair, v1 and v2 concatenated."""
        v1 = (x.take(self._permutation) - self._mean_a) / self._scale_a
        v2 = (x[self._dim:] - self._mean_b) / self._scale_b
        # transform.project's product shape; the mean over one frame is exact
        projected = np.matmul((v1 * v2)[None, None, :], self._projection)[0, 0]
        return self.projected_score(projected)

    def projected_score(self, r: np.ndarray) -> float:
        """Score of one projected vector, gray-encoded over the account's range."""
        gray = tr._gray_levels(r, self._lo, self._hi, self._scale)
        return (_as_int(gray) ^ self._enrolled).bit_count() / self._n_bits

    def feature_scores(self, x: np.ndarray) -> np.ndarray:
        """Scores of a (k, 2 * dim) block of raw feature pairs, one per row."""
        v1 = (x.take(self._permutation, axis=1) - self._mean_a) / self._scale_a
        v2 = (x[:, self._dim:] - self._mean_b) / self._scale_b
        projected = np.matmul((v1 * v2)[:, None, :], self._projection)[:, 0, :]
        return self.projected_scores(projected)

    def projected_scores(self, r: np.ndarray) -> np.ndarray:
        """Scores of a (k, n_out) block of projected vectors, one per row."""
        gray = tr._gray_levels(r, self._lo, self._hi, self._scale)
        return tr.packed_hamming(gray, self._enrolled_bytes) / self._n_bits


def _as_int(gray: np.ndarray) -> int:
    """Gray code bytes read as one big-endian integer."""
    return int.from_bytes(gray.tobytes(), "big")


def _standardized(v, mean: np.ndarray, scale: np.ndarray) -> np.ndarray:
    z = np.array(v, dtype=float)
    z -= mean
    z /= scale
    return z


def _standardizer(pooled: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = pooled.mean(axis=0)
    scale = pooled.std(axis=0)
    scale = np.where(scale > 1e-12, scale, 1.0)
    return mean, scale
