"""The simplex search and its score oracle must make the queries, and reach the
results, of the earlier implementation.

The reference below is that implementation, unchanged apart from its names:
a stable argsort of every vertex and the diameter over the whole simplex on
every iteration, and an oracle that counts each row of a block through the
same loop as a single query. On seeded random objectives, with plateaus and
ties, infinite and NaN values, accepts and spent budgets anywhere in a block
or between blocks, both must return the same point and value or raise the
same exception, and leave the oracle with the same attempts, trace and best
query, bit for bit. The reference traces (attempt, score) pairs; the oracle
traces the scores alone, so each pair's attempt must be its position. Tier-1
draws the default number of examples; `--hypothesis-profile=ci` draws more.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neurolock import attacks as atk
from neurolock.errors import ConfigError, ObjectiveError

_SearchOver = atk._SearchOver


# ---------------------------------------------------------------------------
# reference
# ---------------------------------------------------------------------------

def reference_nelder_mead(objective, x0, initial_step: np.ndarray | float):
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
    """
    x0 = np.asarray(x0, dtype=float).ravel()
    n = x0.size
    if n < 1:
        raise ConfigError("objective dimension must be at least 1")
    step = np.broadcast_to(np.asarray(initial_step, dtype=float), (n,)).copy()
    step[step == 0.0] = 1e-3
    batch = getattr(objective, "batch", None)

    def checked(value):
        value = float(value)
        if math.isnan(value):
            raise ObjectiveError("objective returned NaN")
        return value

    def evaluate(x):
        return checked(objective(x))

    def evaluate_rows(rows):
        return [checked(value) for value in
                (batch(rows) if batch is not None else map(objective, rows))]

    simplex = np.tile(x0, (n + 1, 1))
    simplex[np.arange(1, n + 1), np.arange(n)] += step
    fvals = np.array(evaluate_rows(simplex))
    while True:
        order = np.argsort(fvals, kind="stable")
        simplex, fvals = simplex[order], fvals[order]
        if np.max(np.abs(simplex[1:] - simplex[0])) < 1e-10:
            return simplex[0].copy(), float(fvals[0])
        centroid = simplex[:-1].mean(axis=0)
        worst = simplex[-1]
        reflected = centroid + (centroid - worst)
        f_reflected = evaluate(reflected)
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
                simplex[1:] = simplex[0] + 0.5 * (simplex[1:] - simplex[0])
                fvals[1:] = evaluate_rows(simplex[1:])


class ReferenceScoreOracle:
    """The one owner of a hill climb's state: it counts and traces every
    matcher query, keeps the first-seen lowest-scoring query as `best_x` and
    `best_score`, and alone ends the search by raising `_SearchOver` at the
    first accepted query or at the query that spends the budget, after
    counting it. The search succeeded when `best_score <= theta`.

    `batch` scores a block of candidates (rows) with one `batch_fn` call,
    trimmed to the rows the budget covers, then counts and traces them one at
    a time, in order, exactly as calls would. Rows after an accept are
    scored, but never counted, traced or kept as the best query.
    """

    def __init__(self, score_fn, theta: float, max_attempts: int, batch_fn):
        self.score_fn = score_fn
        self.batch_fn = batch_fn
        self.theta = theta
        self.max_attempts = max_attempts
        self.attempts = 0
        self.trace: list[tuple[int, float]] = []
        self.best_x: np.ndarray | None = None
        self.best_score = math.inf

    def __call__(self, candidate: np.ndarray) -> float:
        return self._count([candidate], [self.score_fn(candidate)])[0]

    def batch(self, candidates: np.ndarray) -> list[float]:
        candidates = candidates[:self.max_attempts - self.attempts]
        return self._count(candidates, self.batch_fn(candidates).tolist())

    def _count(self, candidates, scores: list[float]) -> list[float]:
        for candidate, score in zip(candidates, scores):
            self.attempts += 1
            self.trace.append((self.attempts, score))
            if score < self.best_score:
                self.best_x, self.best_score = np.array(candidate, dtype=float), score
            if score <= self.theta or self.attempts >= self.max_attempts:
                raise _SearchOver()
        return scores


# ---------------------------------------------------------------------------
# random objectives
# ---------------------------------------------------------------------------

class Problem:
    """A seeded objective over n dimensions, vectorized over rows.

    A weighted quadratic or absolute distance to a random centre, floored to
    a quantum (0 keeps it smooth; a huge one makes the whole space one
    plateau), with optional +inf, -inf and NaN half-spaces on the first and
    last coordinates.
    """

    def __init__(self, seed, n, quantum, regions):
        rng = np.random.default_rng(seed)
        self.centre = rng.uniform(-1.0, 1.0, n)
        self.weights = rng.uniform(0.1, 2.0, n)
        self.absolute = bool(rng.integers(2))
        self.quantum = quantum
        self.cuts = {kind: rng.uniform(0.2, 1.0) for kind in regions}
        self.x0 = self.centre + rng.uniform(-1.0, 1.0, n)

    def scores(self, rows):
        d = rows - self.centre
        f = ((np.abs(d) if self.absolute else d * d) * self.weights).sum(axis=1)
        if self.quantum:
            f = np.floor(f / self.quantum) * self.quantum
        for kind, cut in self.cuts.items():
            value = {"inf": math.inf, "-inf": -math.inf, "nan": math.nan}[kind]
            side = d[:, 0] > cut if kind != "-inf" else d[:, -1] < -2.0 * cut
            f = np.where(side, value, f)
        return f

    def score(self, x):
        return float(self.scores(x[None, :])[0])


@st.composite
def problems(draw):
    n = draw(st.one_of(st.integers(1, 6), st.integers(7, 40), st.integers(41, 150)))
    problem = Problem(draw(st.integers(0, 2 ** 32 - 1)), n,
                      draw(st.sampled_from([0.0, 0.0, 1e-3, 0.05, 0.5, 1e9])),
                      draw(st.sets(st.sampled_from(["inf", "-inf", "nan"]), max_size=2)))
    if draw(st.booleans()):  # one step for every dimension
        step = draw(st.one_of(st.floats(-1.0, 1.0), st.sampled_from([0.0, -0.25, 1e-12])))
    else:  # one step per dimension, zeros and negatives among them
        step = np.array(draw(st.lists(st.sampled_from([0.0, -0.5, 0.01, 0.3, 2.0]),
                                      min_size=n, max_size=n)))
    theta = draw(st.sampled_from([-1.0, 0.0, 0.05, 0.3, 1.0, 3.0]))
    budget = draw(st.one_of(st.just(1), st.integers(2, 2 * n + 3), st.integers(1, 3000)))
    return problem, step, theta, budget, draw(st.booleans())


def scores(pairs: list) -> list:
    """The reference's (attempt, score) trace as the scores the oracle traces;
    each attempt must be its pair's position, from 1."""
    assert [attempt for attempt, _ in pairs] == list(range(1, len(pairs) + 1))
    return [score for _, score in pairs]


def search(nelder_mead, oracle_class, problem, step, theta, budget, batched):
    """Everything a search leaves behind, with exact floats and types."""
    oracle = oracle_class(problem.score, theta, budget, problem.scores)
    objective = oracle if batched else (lambda x: oracle(x))  # no `batch`
    try:
        x, f = nelder_mead(objective, problem.x0.copy(), step)
        result = (x.tobytes(), repr(f))
    except (_SearchOver, ObjectiveError, ConfigError) as error:
        result = type(error)
    best_x = None if oracle.best_x is None else oracle.best_x.tobytes()
    trace = scores(oracle.trace) if oracle_class is ReferenceScoreOracle else oracle.trace
    return result, oracle.attempts, repr(trace), best_x, repr(oracle.best_score)


@settings(deadline=None)
@given(problems())
def test_search_matches_reference(case):
    assert (search(atk.nelder_mead, atk.ScoreOracle, *case)
            == search(reference_nelder_mead, ReferenceScoreOracle, *case))


@pytest.mark.parametrize("batched", [True, False], ids=["batch", "row-by-row"])
@pytest.mark.parametrize("quantum,sizes", [(0.0, (1, 2, 5, 17)), (1e9, (1, 5, 60, 150))],
                         ids=["smooth", "one-plateau"])
def test_unbudgeted_search_collapses_where_the_reference_does(batched, quantum, sizes):
    """Runs that end on the diameter test, not on the oracle."""
    for n in sizes:
        case = (Problem(n, n, quantum, ()), 0.4, -1.0, 10 ** 5, batched)
        outcome = search(atk.nelder_mead, atk.ScoreOracle, *case)
        assert isinstance(outcome[0], tuple)
        assert outcome == search(reference_nelder_mead, ReferenceScoreOracle, *case)


def test_row_sum_over_n_is_the_mean():
    """The centroid's `np.add.reduce(rows, axis=0, out=c); c /= n` is `rows.mean(axis=0)`."""
    rng = np.random.default_rng(5)
    for n in range(1, 151):
        rows = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-12, 12, (n, 1))
        centroid = np.empty(n)
        np.add.reduce(rows, axis=0, out=centroid)
        centroid /= n
        assert centroid.tobytes() == rows.mean(axis=0).tobytes()


def test_in_place_shrink_is_the_expression():
    rng = np.random.default_rng(6)
    for n in range(1, 151):
        simplex = rng.standard_normal((n + 1, n)) * 10.0 ** rng.uniform(-12, 12, (n + 1, 1))
        expected = simplex[0] + 0.5 * (simplex[1:] - simplex[0])
        spread = np.empty((n, n))
        np.subtract(simplex[1:], simplex[0], out=spread)
        np.multiply(spread, 0.5, out=spread)
        np.add(simplex[0], spread, out=simplex[1:])
        assert simplex[1:].tobytes() == expected.tobytes()


@pytest.mark.parametrize("batched", [True, False], ids=["batch", "row-by-row"])
@pytest.mark.parametrize("case,subject,theta,budget,seed", [
    ("feature_space", "S001", 0.15, 2000, 1),
    ("feature_space", "S004", 0.0, 1500, 3),
    ("template_space", "S003", 0.25, 2000, 1),
    ("template_space", "S002", 0.0, 1500, 5)])
def test_hill_climb_matches_reference(small_system, monkeypatch, batched,
                                      case, subject, theta, budget, seed):
    config = atk.AttackConfig(case=case, theta=theta, max_attempts=budget, seed=seed)

    def climb(trace_scores):
        if not batched:
            monkeypatch.delattr(atk.ScoreOracle, "batch")
        outcome = atk.hill_climb_attack(small_system, subject, config)
        monkeypatch.undo()
        return (outcome.success, outcome.attempts, repr(outcome.best_score),
                outcome.similarity, repr(trace_scores(outcome.trace)),
                outcome.solution.tobytes())
    changed = climb(list)
    monkeypatch.setattr(atk, "nelder_mead", reference_nelder_mead)
    monkeypatch.setattr(atk, "ScoreOracle", ReferenceScoreOracle)
    reference = climb(scores)
    assert changed == reference
