"""The per-account scorer against the reference scoring chain.

`AuthSystem.scorer` precomputes one account's oracle state; each of its
scores must equal, with ==, what `score_bits` gives for the reference bits:
`feature_query_bits` of a raw feature pair, or `gray_encode` of a projected
vector over the account's quantization range. Its batch methods must give,
row for row and with ==, what the single-query methods give.
"""

import numpy as np
import pytest

from neurolock import attacks as atk
from neurolock import transform as tr
from neurolock.pipeline import random_feature_dataset
from neurolock.system import AuthSystem, SystemConfig

SHAPES = [(10, 0.5), (22, 0.85), (7, 0.3)]
QUERIES = 200


def build(dim, delta, lost_key):
    dataset = random_feature_dataset(n_subjects=5, n_frames=8, dim=dim, seed=dim)
    return AuthSystem(dataset, SystemConfig(enroll_frames=4, query_frames=1, delta=delta,
                                            lost_key=lost_key))


def feature_queries(system, rng):
    """Raw v1|v2 pairs inside the public search box, then far outside it, so
    that projected values clamp at both ends of the range."""
    bounds = atk.default_feature_bounds(system)
    inside = rng.uniform(bounds[:, 0], bounds[:, 1], (QUERIES, 2 * system.dim))
    centre = bounds.mean(axis=1)
    outside = centre + 50.0 * rng.standard_normal((QUERIES, 2 * system.dim)) \
        * (bounds[:, 1] - bounds[:, 0])
    return np.concatenate([inside, outside])


def projected_queries(quant_range, rng):
    """Values in range, clamped below and above, exactly at lo and hi, and on
    exact half-steps (scaled to k + 0.5, where floor(+0.5) rounds up)."""
    lo, hi = quant_range[:, 0], quant_range[:, 1]
    width = hi - lo
    scale = tr.LEVELS / width
    queries = [rng.uniform(lo, hi, (QUERIES, lo.size)),
               rng.uniform(lo - 2 * width, lo, (QUERIES, lo.size)),
               rng.uniform(hi, hi + 2 * width, (QUERIES, lo.size)),
               np.stack([lo, hi, np.where(np.arange(lo.size) % 2, lo, hi)])]
    half_steps = []
    for level in rng.integers(0, tr.LEVELS, 40):
        guess = lo + (level + 0.5) / scale
        # step ulp by ulp until the scaled value is exactly level + 0.5
        for _ in range(8):
            scaled = (guess - lo) * scale
            guess = np.where(scaled < level + 0.5, np.nextafter(guess, np.inf),
                             np.where(scaled > level + 0.5, np.nextafter(guess, -np.inf),
                                      guess))
        half_steps.append(guess)
    half_steps = np.array(half_steps)
    assert ((half_steps - lo) * scale == np.floor((half_steps - lo) * scale) + 0.5).any()
    return np.concatenate(queries + [half_steps])


def assert_scorer_matches(system, subject, rng):
    scorer = system.scorer(subject)
    dim = system.dim
    params = system.users[subject].params
    queries = feature_queries(system, rng)
    projected = tr.project(tr.combine(system.standardize_a(queries[:, :dim]),
                                      system.standardize_b(queries[:, dim:]), params), params)
    assert (projected < params.quant_range[:, 0]).any()
    assert (projected > params.quant_range[:, 1]).any()
    for x in queries:
        reference = system.score_bits(subject,
                                      system.feature_query_bits(subject, x[:dim], x[dim:]))
        assert scorer.feature_score(x) == reference
    quant_range = system.users[subject].params.quant_range
    for r in projected_queries(quant_range, rng):
        reference = system.score_bits(subject, tr.gray_encode(r, quant_range))
        assert scorer.projected_score(r) == reference


@pytest.mark.parametrize("dim,delta", SHAPES)
@pytest.mark.parametrize("lost_key", [True, False])
def test_scorer_equals_reference_chain(dim, delta, lost_key):
    system = build(dim, delta, lost_key)
    rng = np.random.default_rng([dim, int(lost_key)])
    for subject in ("S001", "S004"):
        assert_scorer_matches(system, subject, rng)


@pytest.mark.parametrize("dim,delta", SHAPES)
def test_scorer_of_a_reissued_account(dim, delta):
    system = build(dim, delta, lost_key=True)
    system.revoke("S002", 0xC0FFEE)
    assert system.users["S002"].params.user_key == 0xC0FFEE
    assert_scorer_matches(system, "S002", np.random.default_rng(dim))


@pytest.mark.parametrize("dim,delta", SHAPES)
@pytest.mark.parametrize("lost_key", [True, False])
def test_second_attack_scores_each_fresh_account_as_the_reference(dim, delta, lost_key,
                                                                 monkeypatch):
    """A feature solution replayed after re-keying is scored by the fresh
    account's scorer; each score equals the reference chain's on that account."""
    system = build(dim, delta, lost_key)
    queries = feature_queries(system, np.random.default_rng([dim, 7]))[::40]
    fresh, reissue = [], system.reissue

    def recorded(*args):
        fresh.append(reissue(*args))
        return fresh[-1]
    monkeypatch.setattr(system, "reissue", recorded)
    keys, theta = 5, 0.45
    report = atk.second_attack(system, [atk.Solution("S003", "feature", x) for x in queries],
                               n_keys=keys, theta=theta, seed=dim)
    reference = [tr.hamming_score(tr.encode(system.standardize_a(x[None, :dim]),
                                            system.standardize_b(x[None, dim:]),
                                            account.params), account.template.bits)[1]
                 for x, account in zip(np.repeat(queries, keys, axis=0), fresh)]
    assert len(fresh) == len(reference) == report.n_tests == keys * len(queries)
    assert len({account.params.user_key for account in fresh}) == len(fresh)
    for index, entry in enumerate(report.per_solution):
        scores = reference[index * keys:(index + 1) * keys]
        assert entry["score_mean"] == float(np.mean(scores))
        assert entry["successes"] == sum(score <= theta for score in scores)
    assert report.score_mean == float(np.mean(reference))


def assert_batches_match(system, subject, rng):
    """Blocks of k rows, for k in {1, 2, n, n + 1} with n the search
    dimension (the simplex has n + 1 vertices, a shrink scores n of them)."""
    scorer = system.scorer(subject)
    quant_range = system.users[subject].params.quant_range
    for queries, single, batch in (
            (feature_queries(system, rng), scorer.feature_score, scorer.feature_scores),
            (projected_queries(quant_range, rng), scorer.projected_score,
             scorer.projected_scores)):
        n = queries.shape[1]
        reference = [single(q) for q in queries]
        for k in (1, 2, n, n + 1):
            scores = []
            for start in range(0, len(queries), k):
                block = batch(queries[start:start + k])
                assert block.shape == (len(queries[start:start + k]),)
                scores.extend(block.tolist())
            assert scores == reference


@pytest.mark.parametrize("dim,delta", SHAPES)
@pytest.mark.parametrize("lost_key", [True, False])
def test_batch_scores_equal_single_scores(dim, delta, lost_key):
    system = build(dim, delta, lost_key)
    rng = np.random.default_rng([dim, int(lost_key), 1])
    for subject in ("S001", "S004"):
        assert_batches_match(system, subject, rng)


@pytest.mark.parametrize("dim,delta", SHAPES)
def test_batch_scores_of_a_reissued_account(dim, delta):
    system = build(dim, delta, lost_key=False)
    system.revoke("S003", 0xBEEF)
    assert_batches_match(system, "S003", np.random.default_rng([dim, 2]))


def test_decoded_template_scores_zero():
    system = build(10, 0.5, lost_key=True)
    account = system.users["S003"]
    enrolled_r = tr.gray_decode(account.template.bits, account.params.quant_range)
    assert system.scorer("S003").projected_score(enrolled_r) == 0.0


def test_scorer_keeps_every_ulp():
    """A range 128 ulps wide around one query's projection turns each ulp of
    a projected value into about two levels; queries a few ulps from that
    query then score alike only if every float step is the reference's."""
    system = build(22, 0.85, lost_key=True)
    dim, params = system.dim, system.users["S001"].params
    rng = np.random.default_rng(22)
    bounds = atk.default_feature_bounds(system)
    x0 = rng.uniform(bounds[:, 0], bounds[:, 1])
    r0 = tr.project(tr.combine(system.standardize_a(x0[:dim]),
                               system.standardize_b(x0[dim:]), params), params)
    ulps = 64 * np.spacing(np.abs(r0))
    system.users["S001"].template  # enrolled under the calibrated range, as its bytes are
    params.quant_range = np.stack([r0 - ulps, r0 + ulps], axis=1)
    scorer = system.scorer("S001")
    xs = x0 + rng.integers(-3, 4, (QUERIES, 2 * dim)) * np.spacing(x0)
    references = [system.score_bits("S001",
                                    system.feature_query_bits("S001", x[:dim], x[dim:]))
                  for x in xs]
    assert [scorer.feature_score(x) for x in xs] == references
    assert scorer.feature_scores(xs).tolist() == references
    rs = r0 + rng.integers(-40, 41, (QUERIES, r0.size)) * np.spacing(r0)
    projected_references = [system.score_bits("S001", tr.gray_encode(r, params.quant_range))
                            for r in rs]
    assert [scorer.projected_score(r) for r in rs] == projected_references
    assert scorer.projected_scores(rs).tolist() == projected_references
    assert len(set(references + projected_references)) > 20
