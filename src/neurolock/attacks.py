"""Attack battery: score-oracle hill climbing, record-multiplicity inversion,
second attacks after revocation, and brute-force search-space accounting.

Hill climbing drives a derivative-free simplex search against the matcher's
score output. Case FEATURE_SPACE submits candidate feature-vector pairs and
runs them through the full transform; case TEMPLATE_SPACE searches the
pre-encoding projected space and gray-encodes each candidate. Every score
query counts against the attempt budget.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import transform as tr
from .errors import MAX_COUNT, ConfigError, ObjectiveError, ShapeError, require
from .ingest import PROTOCOL_PAIR
from .matching_eval import score_pairs
from .pipeline import stable_int
from .system import AccountScorer, AuthSystem, fresh_keys


class AttackCase(enum.Enum):
    FEATURE_SPACE = "feature_space"    # Case I: recover the feature vectors
    TEMPLATE_SPACE = "template_space"  # Case II: recover the stored template


CASES = tuple(case.value for case in AttackCase)


@dataclass
class AttackConfig:
    case: AttackCase = AttackCase.FEATURE_SPACE  # or its value, e.g. "feature_space"
    theta: float = 0.389
    max_attempts: int = 20000
    seed: int = 0
    bounds: np.ndarray | None = None  # per-dimension [lo, hi]; default: public stats

    def __post_init__(self):
        for name, kind, ok, what in (
                ("case", (AttackCase, str), lambda v: isinstance(v, AttackCase) or v in CASES,
                 f"one of {', '.join(CASES)}"),
                ("theta", numbers.Real, lambda v: 0 <= v <= 1, "a number in [0, 1]"),
                ("max_attempts", numbers.Integral, lambda v: 1 <= v <= MAX_COUNT,
                 f"an integer from 1 to {MAX_COUNT}"),
                ("seed", numbers.Integral, lambda v: v >= 0, "a non-negative integer")):
            require(name, getattr(self, name), kind, ok, what)
        self.case = AttackCase(self.case)


@dataclass
class HillClimbOutcome:
    subject: str
    success: bool
    attempts: int                 # oracle calls up to success, or the budget: len(trace)
    best_score: float
    solution: np.ndarray          # accepted candidate, or best found
    similarity: float | None      # cosine to true features (feature-space case)
    trace: list[float] = field(default_factory=list)  # query i's score is trace[i - 1]


@dataclass
class AttackReport:
    case: str
    theta: float
    outcomes: list[HillClimbOutcome]
    success_rate: float
    mean_attempts_to_success: float | None
    similarity_mean: float | None = None
    similarity_std: float | None = None
    score_mean: float | None = None
    score_std: float | None = None
    seeds: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "outcomes"}
        out["per_user"] = [{key: getattr(o, key) for key in
                            ("subject", "success", "attempts", "best_score", "similarity")}
                           for o in self.outcomes]
        return out


# ---------------------------------------------------------------------------
# Nelder-Mead
# ---------------------------------------------------------------------------

def nelder_mead(objective, x0, initial_step: np.ndarray | float):
    """Downhill-simplex minimization; returns the best vertex (x, value).

    The initial simplex steps `initial_step` (one value, or one per
    dimension; a zero step becomes 1e-3) from x0 along each axis. Standard
    reflection/expansion/contraction/shrink coefficients (1, 2, 0.5, 0.5).
    Runs until the simplex diameter collapses below 1e-10 or the objective
    raises: it keeps no budget and no best point of its own, so a caller
    that needs either (the hill climb's `ScoreOracle`) keeps them in the
    objective and ends the search by raising from it. A NaN value raises
    `ObjectiveError`.

    `objective` maps one point to a value. If it also has a `batch` method,
    which maps a (k, n) block of points to their k values in one call, the
    initial simplex and every shrink (n new vertices, most of a long run's
    evaluations) go through it; reflection, expansion and contraction stay
    single calls. An objective without `batch` is called one row at a time,
    first to last: the reference that a batch must reproduce.

    The vertices stay in the order a stable sort by value gives. Only the
    initial simplex and a shrink are sorted in full; any other step changes
    the worst vertex alone, which moves behind every value not above its
    own. The diameter test reads each vertex's largest coordinate distance
    to the best, remeasured for every vertex only when the best changes.
    The centroid is summed afresh from the sorted rows on every step, never
    updated incrementally: its row-order sum feeds every later vertex.
    """
    x0 = np.asarray(x0, dtype=float).ravel()
    n = x0.size
    if n < 1:
        raise ConfigError("objective dimension must be at least 1")
    step = np.broadcast_to(np.asarray(initial_step, dtype=float), (n,)).copy()
    step[step == 0.0] = 1e-3
    batch = getattr(objective, "batch", None)

    def evaluate(x):
        value = float(objective(x))
        if math.isnan(value):
            raise ObjectiveError("objective returned NaN")
        return value

    def evaluate_rows(rows):
        values = np.array(batch(rows) if batch is not None
                          else [evaluate(row) for row in rows], dtype=float)
        if np.isnan(values).any():
            raise ObjectiveError("objective returned NaN")
        return values

    simplex = np.tile(x0, (n + 1, 1))
    simplex[np.arange(1, n + 1), np.arange(n)] += step
    fvals = evaluate_rows(simplex)
    centroid = np.empty(n)
    spread = np.empty((n, n))   # scratch for the radii and the shrink
    radius = np.zeros(n + 1)    # max |vertex - best| of each vertex, in simplex order
    shrunk = True               # the initial simplex is unsorted, as a shrunk one is
    while True:
        if shrunk:
            order = fvals.argsort(kind="stable")
            simplex, fvals = simplex[order], fvals[order]
            best_moved = True
        else:  # fvals[:-1] is sorted: the stable argsort would move the new vertex to k
            k = int(fvals[:-1].searchsorted(fvals[-1], "right"))
            if k < n:
                vertex, value = simplex[-1].copy(), fvals[-1]
                simplex[k + 1:], fvals[k + 1:], radius[k + 1:] = (
                    simplex[k:-1], fvals[k:-1], radius[k:-1])
                simplex[k], fvals[k] = vertex, value
            best_moved = k == 0
            if not best_moved:
                radius[k] = np.abs(simplex[k] - simplex[0]).max()
        if best_moved:
            np.subtract(simplex[1:], simplex[0], out=spread)
            np.abs(spread, out=spread)
            spread.max(axis=1, out=radius[1:])
        if radius.max() < 1e-10:
            return simplex[0].copy(), float(fvals[0])
        np.add.reduce(simplex[:-1], axis=0, out=centroid)  # .mean(axis=0), bit for bit
        centroid /= n
        worst = simplex[-1]
        reflected = centroid + (centroid - worst)
        f_reflected = evaluate(reflected)
        shrunk = False
        if f_reflected < fvals[0]:
            expanded = centroid + 2.0 * (centroid - worst)
            f_expanded = evaluate(expanded)
            if f_expanded < f_reflected:
                simplex[-1], fvals[-1] = expanded, f_expanded
            else:
                simplex[-1], fvals[-1] = reflected, f_reflected
        elif f_reflected < fvals[-2]:
            simplex[-1], fvals[-1] = reflected, f_reflected
        else:
            if f_reflected < fvals[-1]:
                simplex[-1], fvals[-1] = reflected, f_reflected
            contracted = centroid + 0.5 * (simplex[-1] - centroid)
            f_contracted = evaluate(contracted)
            if f_contracted < fvals[-1]:
                simplex[-1], fvals[-1] = contracted, f_contracted
            else:
                # simplex[1:] = simplex[0] + 0.5 * (simplex[1:] - simplex[0]), in place
                np.subtract(simplex[1:], simplex[0], out=spread)
                np.multiply(spread, 0.5, out=spread)
                np.add(simplex[0], spread, out=simplex[1:])
                fvals[1:] = evaluate_rows(simplex[1:])
                shrunk = True


# ---------------------------------------------------------------------------
# hill-climbing attack
# ---------------------------------------------------------------------------

class _SearchOver(Exception):
    """Raised by `ScoreOracle` at the first accepted query or once the budget is spent."""


class ScoreOracle:
    """The one owner of a hill climb's state: it counts every matcher query and
    traces its score (query i's is `trace[i - 1]`), keeps the first-seen lowest
    query as `best_x` and `best_score`, and alone ends the search by raising
    `_SearchOver` at the first accepted query or at the query that spends the
    budget, after counting it. The search succeeded when `best_score <= theta`.

    `batch` scores a block of candidates (rows) with one `batch_fn` call,
    trimmed to the rows the budget covers, and counts the block as calls
    one row at a time would: up to and including its first accepted row,
    or to its end. The block's first lowest score, NaN counting as no
    lower, replaces the best only when it is strictly lower. Rows after an
    accept are scored, but never counted, traced or kept as the best query.
    """

    def __init__(self, score_fn, theta: float, max_attempts: int, batch_fn):
        self.score_fn = score_fn
        self.batch_fn = batch_fn
        self.theta = theta
        self.max_attempts = max_attempts
        self.attempts = 0
        self.trace: list[float] = []
        self.best_x: np.ndarray | None = None
        self.best_score = math.inf

    def __call__(self, candidate: np.ndarray) -> float:
        score = self.score_fn(candidate)
        self.attempts += 1
        self.trace.append(score)
        if score < self.best_score:
            self.best_x, self.best_score = np.array(candidate, dtype=float), score
        if score <= self.theta or self.attempts >= self.max_attempts:
            raise _SearchOver()
        return score

    def batch(self, candidates: np.ndarray) -> list[float]:
        candidates = candidates[:self.max_attempts - self.attempts]
        scores = self.batch_fn(candidates)
        accepted = scores <= self.theta
        stop = int(accepted.argmax()) + 1 if accepted.any() else len(scores)
        counted = scores[:stop]
        low = int(np.where(np.isnan(counted), np.inf, counted).argmin())
        if counted[low] < self.best_score:
            self.best_x = np.array(candidates[low], dtype=float)
            self.best_score = float(counted[low])
        self.attempts += stop
        self.trace.extend(counted.tolist())
        if accepted[stop - 1] or self.attempts >= self.max_attempts:
            raise _SearchOver()
        return scores.tolist()


def default_feature_bounds(system: AuthSystem) -> np.ndarray:
    """Search box from population feature statistics (the public-data assumption)."""
    ranges = []
    for proto in PROTOCOL_PAIR:
        stacked = np.concatenate([system.dataset.frames(s, proto) for s in system.subjects])
        ranges.append(np.stack([stacked.min(axis=0), stacked.max(axis=0)], axis=1))
    both = np.concatenate(ranges)
    width = both[:, 1] - both[:, 0]
    pad = np.maximum(0.1 * width, 1e-6)
    return np.stack([both[:, 0] - pad, both[:, 1] + pad], axis=1)


def hill_climb_attack(system: AuthSystem, subject: str,
                      config: AttackConfig) -> HillClimbOutcome:
    """Simplex search against one account's score oracle with seeded restarts.

    Alternates exploration (a simplex from a fresh seeded uniform draw over
    the bounds) with refinement sweeps that restart the simplex at the
    incumbent with shrinking scales, run only when the incumbent improved:
    otherwise the deterministic sweep would just retrace itself. The
    `ScoreOracle` holds the attempts, the trace and the incumbent, and ends
    the climb at the first accepted query or once the budget is spent; the
    outcome is read from it.
    """
    account = system.users[subject]
    feature_space = config.case == AttackCase.FEATURE_SPACE
    bounds = config.bounds
    if bounds is None:
        bounds = (default_feature_bounds(system) if feature_space
                  else account.params.quant_range)
    bounds = np.asarray(bounds, dtype=float)
    search_dim = 2 * system.dim if feature_space else account.params.n_out
    if bounds.shape != (search_dim, 2):
        raise ShapeError(f"search bounds of shape {bounds.shape}; the {config.case.value} "
                         f"search needs ({search_dim}, 2)")
    if not np.isfinite(bounds).all() or (bounds[:, 0] > bounds[:, 1]).any():
        raise ConfigError("search bounds must be finite [lo, hi] rows with lo <= hi")
    scorer = system.scorer(subject)
    score_fn, batch_fn = ((scorer.feature_score, scorer.feature_scores) if feature_space
                          else (scorer.projected_score, scorer.projected_scores))
    oracle = ScoreOracle(score_fn, config.theta, config.max_attempts, batch_fn)
    width = bounds[:, 1] - bounds[:, 0]
    try:
        restart, last_refined = 0, math.inf
        while True:
            rng = np.random.default_rng([config.seed, stable_int(subject), restart])
            restart += 1
            nelder_mead(oracle, rng.uniform(bounds[:, 0], bounds[:, 1]),
                        initial_step=0.25 * width)
            while oracle.best_score < last_refined:
                last_refined = oracle.best_score
                for scale in (0.08, 0.04, 0.02, 0.01, 0.005):
                    nelder_mead(oracle, oracle.best_x, initial_step=scale * width)
    except _SearchOver:
        pass
    similarity = (cosine_similarity(oracle.best_x, account.true_features)
                  if feature_space else None)
    return HillClimbOutcome(subject=subject, success=oracle.best_score <= config.theta,
                            attempts=oracle.attempts, best_score=float(oracle.best_score),
                            solution=oracle.best_x, similarity=similarity,
                            trace=oracle.trace)


def run_hill_climb_campaign(system: AuthSystem, config: AttackConfig) -> AttackReport:
    """Hill climb on every account. The feature-space box is the same for
    every account, so a default one is computed once for the campaign."""
    if config.case == AttackCase.FEATURE_SPACE and config.bounds is None:
        config = replace(config, bounds=default_feature_bounds(system))
    outcomes = [hill_climb_attack(system, subject, config)
                for subject in system.subjects]
    successes = [o for o in outcomes if o.success]
    sr = len(successes) / len(outcomes)
    n_att = float(np.mean([o.attempts for o in successes])) if successes else None
    sims = [o.similarity for o in successes if o.similarity is not None]
    scores = [o.best_score for o in successes]
    return AttackReport(
        case=config.case.value, theta=config.theta, outcomes=outcomes,
        success_rate=sr, mean_attempts_to_success=n_att,
        similarity_mean=float(np.mean(sims)) if sims else None,
        similarity_std=float(np.std(sims)) if sims else None,
        score_mean=float(np.mean(scores)) if scores else None,
        score_std=float(np.std(scores)) if scores else None,
        seeds={"attack": config.seed})


# ---------------------------------------------------------------------------
# attack via record multiplicity
# ---------------------------------------------------------------------------

@dataclass
class ArmResult:
    v1_hat: np.ndarray
    v2_hat: np.ndarray
    similarity: float | None
    n_equations: int
    n_unknowns: int
    rank: int
    residual: float
    monomials: list[tuple[int, int]]


def arm_attack(templates: list[tr.CancellableTemplate],
               params_list: list[tr.TransformParams],
               truth: tuple[np.ndarray, np.ndarray] | None = None) -> ArmResult:
    """Correlate several (template, parameters) pairs from the same features.

    Decodes each template over its own public quantization range (the
    attacker's view) to projected-value estimates, assembles the linear system
    over the product monomials v1[a]*v2[b] that the permutations select,
    solves it by minimum-norm least squares, and factors the recovered
    monomials into a rank-one estimate (v1_hat, v2_hat) by their leading
    singular pair.
    """
    if len(templates) != len(params_list) or not templates:
        raise ShapeError("need matching non-empty template and parameter lists")
    dim = params_list[0].dim
    if any(p.dim != dim for p in params_list):
        raise ShapeError("inconsistent feature dimensions across parameter sets")

    # each key adds n_out equations: projection[i, j] multiplies the monomial
    # v1[permutation[i]] * v2[i], a different one for every i
    monomial_col: dict[tuple[int, int], int] = {}
    blocks, rhs = [], []
    for template, params in zip(templates, params_list):
        if template.bits.size != tr.BITS_PER_DIM * params.n_out:
            raise ShapeError(f"template of {template.bits.size} bits under key "
                             f"{params.key_id}, which projects to {params.n_out} values")
        blocks.append(([monomial_col.setdefault((int(a), i), len(monomial_col))
                        for i, a in enumerate(params.permutation)], params.projection.T))
        rhs.append(tr.gray_decode(template.bits, template.meta.quant_range))
    n_unknowns = len(monomial_col)
    b_vector = np.concatenate(rhs)
    a_matrix = np.zeros((b_vector.size, n_unknowns))
    row = 0
    for cols, coeffs in blocks:
        a_matrix[row:row + len(coeffs), cols] = coeffs
        row += len(coeffs)
    z, *_ = np.linalg.lstsq(a_matrix, b_vector, rcond=None)
    residual = float(np.linalg.norm(a_matrix @ z - b_vector))
    rank = int(np.linalg.matrix_rank(a_matrix))

    z_matrix = np.zeros((dim, dim))
    z_matrix[tuple(zip(*monomial_col))] = z  # dict order is column order
    v1_hat, v2_hat = _rank_one_factor(z_matrix)
    similarity = None
    if truth is not None:
        truth_cat = np.concatenate([np.asarray(truth[0], float).ravel(),
                                    np.asarray(truth[1], float).ravel()])
        similarity = cosine_similarity(np.concatenate([v1_hat, v2_hat]), truth_cat)
    return ArmResult(v1_hat=v1_hat, v2_hat=v2_hat, similarity=similarity,
                     n_equations=b_vector.size, n_unknowns=n_unknowns, rank=rank,
                     residual=residual, monomials=sorted(monomial_col))


def _rank_one_factor(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best rank-one factorization of the recovered monomial matrix.

    Monomials the permutations never selected stay at zero, extending the
    minimum-norm convention of the linear solve into the factorization; the
    leading singular pair then splits the matrix into the two vector
    estimates, with the scale balanced and the sign oriented by the dominant
    component.
    """
    left, svals, right_t = np.linalg.svd(z)
    u = left[:, 0] * np.sqrt(svals[0])
    v = right_t[0] * np.sqrt(svals[0])
    if u[np.argmax(np.abs(u))] < 0:
        u, v = -u, -v
    return u, v


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, float).ravel()
    b = np.asarray(b, float).ravel()
    denom = np.linalg.norm(a) * np.linalg.norm(b)
    if denom == 0.0:
        return 0.0
    return float(a @ b / denom)


# ---------------------------------------------------------------------------
# second attacks
# ---------------------------------------------------------------------------

@dataclass
class Solution:
    """A pre-obtained break-in solution to replay after revocation."""

    subject: str
    kind: str                 # "feature" (v1+v2 concatenated) or "template" (bits)
    payload: np.ndarray
    source: str = ""          # mathematical | computational | public


@dataclass
class SecondAttackReport:
    n_tests: int
    n_successes: int
    sar: float
    score_mean: float | None
    score_std: float | None
    similarity_mean: float | None
    similarity_std: float | None
    per_solution: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return asdict(self)


def second_attack(system: AuthSystem, solutions: list[Solution],
                  n_keys: int = 200, theta: float | None = None,
                  seed: int = 0) -> SecondAttackReport:
    """Replay pre-obtained solutions against freshly re-keyed accounts.

    For every solution and every fresh key the account is re-enrolled from
    its true features under the new key; feature solutions are scored by the
    re-keyed account's `AccountScorer`, template solutions bit for bit: packed
    once, they are counted against the re-keyed account's enrolled gray bytes
    (`UserAccount.codes`) by `matching_eval.score_pairs`.
    """
    if n_keys < 1:
        raise ConfigError(f"a second attack needs at least one fresh key, got {n_keys}")
    for s in solutions:
        account = system.users[s.subject]
        if s.kind not in ("feature", "template"):
            raise ConfigError(f"unknown solution kind {s.kind!r}")
        if s.kind == "feature" and np.shape(s.payload) != (2 * system.dim,):
            raise ShapeError(f"feature solution for {s.subject} is not {2 * system.dim} values")
        if s.kind == "template":
            n_bits = tr.BITS_PER_DIM * account.params.n_out
            bits = np.asarray(s.payload)
            if (bits.shape != (n_bits,) or bits.dtype.kind not in "biu"
                    or not np.isin(bits, (0, 1)).all()):
                raise ShapeError(f"template solution for {s.subject} is not a 1-D integer "
                                 f"or bool array of {n_bits} bits, each 0 or 1")
    theta = system.config.theta if theta is None else theta
    rng = np.random.default_rng(seed)
    scores, sims, per_solution = [], [], []
    for solution in solutions:
        account = system.users[solution.subject]
        packed = np.packbits(solution.payload) if solution.kind == "template" else None
        sol_scores = []
        for new_key in fresh_keys(rng, n_keys, forbidden={account.key}):
            fresh = system.reissue(solution.subject, new_key)
            if solution.kind == "feature":
                sol_scores.append(AccountScorer(system, fresh).feature_score(solution.payload))
            else:
                sol_scores.append(float(score_pairs(packed, fresh.codes)))
        if solution.kind == "feature":
            sims.append(cosine_similarity(solution.payload, account.true_features))
        else:
            sims.extend(1.0 - score for score in sol_scores)
        scores.extend(sol_scores)
        per_solution.append({
            "subject": solution.subject, "kind": solution.kind,
            "source": solution.source,
            "score_mean": float(np.mean(sol_scores)),
            "successes": int(sum(s <= theta for s in sol_scores)),
        })
    n_tests = len(scores)
    successes = sum(entry["successes"] for entry in per_solution)
    return SecondAttackReport(
        n_tests=n_tests, n_successes=successes,
        sar=successes / n_tests if n_tests else 0.0,
        score_mean=float(np.mean(scores)) if scores else None,
        score_std=float(np.std(scores)) if scores else None,
        similarity_mean=float(np.mean(sims)) if sims else None,
        similarity_std=float(np.std(sims)) if sims else None,
        per_solution=per_solution)


def public_data_solutions(system: AuthSystem, n_per_user: int = 1,
                          seed: int = 0) -> list[Solution]:
    """Random feature pairs drawn from public population statistics."""
    bounds = default_feature_bounds(system)
    rng = np.random.default_rng(seed)
    out = []
    for subject in system.subjects:
        for _ in range(n_per_user):
            payload = rng.uniform(bounds[:, 0], bounds[:, 1])
            out.append(Solution(subject=subject, kind="feature",
                                payload=payload, source="public"))
    return out


# ---------------------------------------------------------------------------
# brute force accounting
# ---------------------------------------------------------------------------

def brute_force_space(dim: int, bits_per_dim: int) -> int:
    """Exponent e such that exhaustively guessing both protected feature
    vectors takes 2**e trials."""
    if dim < 1 or bits_per_dim < 1:
        raise ConfigError("dimension and bit depth must be positive")
    return 2 * dim * bits_per_dim
