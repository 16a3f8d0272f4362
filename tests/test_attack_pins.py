"""Bit-equality pins for the attack battery.

The sha256 digests were taken from the earlier hill climb, which capped the
attempt budget both in the score oracle and in every Nelder-Mead call and
passed theta to Nelder-Mead as a stopping tolerance, and from the earlier
record-multiplicity solver, which assembled one coefficient dict per
equation, on numpy 2.4 with OpenBLAS. Every outcome, trace, campaign report
and inversion result must be reproduced bit for bit.
"""

import hashlib
import json

import numpy as np
import pytest

from neurolock import attacks as atk
from neurolock import transform as tr
from neurolock.pipeline import random_feature_dataset
from neurolock.system import AuthSystem, SystemConfig

PINNED = {
    "feature_accept":
        "5c64821e9876a2d3a04bf079a9cd6647c0ce77ab7afa486574b38c735c5232ff",
    "feature_budget":
        "4821d779b35eafcdb59e1ad96e09bf9889669aed6d00502ffc76bcf0e01f3089",
    "template_accept":
        "6bc4270e9d7822a9af2c7209907574476cc7720f8b9e97976e5fdcf1ff92d62d",
    "template_budget":
        "ce7808aea0913d9638a5652ae8888fec99bac832b902fd0485f507958744e677",
    "campaign_feature_space":
        "da8dc3bb3db3998b466d422ae96c105d5a1e8746ade476a7e22d2377ece26d4f",
    "campaign_template_space":
        "02eaefc6f78f5c0ab260d3892ec60b1ad7d442f654e00a790190894c23651361",
    "arm_2_keys":
        "0667c8f0c01b71e971de8b1fb57ddf7cf50ed539ba0cbbab58e3ab16b904352a",
    "arm_3_keys":
        "b8cf73d3c7e4f05ba6daa98c6ccebc4d0c7a049d85d7aaa32d0c233dc4c933ae",
    "arm_4_keys":
        "913dd5bca9dc79c5df702e9cbeb744f5820f5a3f371037820c672d5d46650307",
}

# tag: (subject, case, theta, max_attempts, seed, success, attempts); the
# accepting runs stop inside a refinement sweep, after two or more simplex runs
CLIMBS = {
    "feature_accept": ("S005", "feature_space", 0.15, 3000, 2, True, 1633),
    "feature_budget": ("S001", "feature_space", 0.1, 3000, 4, False, 3000),
    "template_accept": ("S003", "template_space", 0.16, 3000, 4, True, 549),
    "template_budget": ("S002", "template_space", 0.0, 1500, 4, False, 1500),
}


def _sha(*parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            digest.update(np.ascontiguousarray(part, dtype="<f8").tobytes())
        else:
            digest.update(repr(part).encode())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def system():
    dataset = random_feature_dataset(n_subjects=6, n_frames=20, dim=10, seed=31)
    return AuthSystem(dataset, SystemConfig(enroll_frames=5, query_frames=1, delta=0.5))


@pytest.mark.parametrize("tag", sorted(CLIMBS))
def test_hill_climb_outcome(system, tag):
    subject, case, theta, budget, seed, success, attempts = CLIMBS[tag]
    outcome = atk.hill_climb_attack(system, subject, atk.AttackConfig(
        case=case, theta=theta, max_attempts=budget, seed=seed))
    assert (outcome.success, outcome.attempts) == (success, attempts)
    assert _sha(outcome.subject, outcome.success, outcome.attempts,
                float(outcome.best_score), outcome.similarity,
                [(int(a), float(s)) for a, s in outcome.trace],
                outcome.solution) == PINNED[tag]


@pytest.mark.parametrize("case", atk.CASES)
def test_campaign_report(system, case):
    report = atk.run_hill_climb_campaign(
        system, atk.AttackConfig(case=case, theta=0.175, max_attempts=1000, seed=2),
        config_hash="pinned")
    assert _sha(json.dumps(report.to_json_dict(), sort_keys=True)) \
        == PINNED[f"campaign_{case}"]


@pytest.mark.parametrize("n_keys, dim, seed", [(2, 6, 11), (3, 9, 12), (4, 12, 13)])
def test_arm_result(n_keys, dim, seed):
    rng = np.random.default_rng(seed)
    v1 = rng.uniform(0.1, 1.0, dim)
    v2 = rng.uniform(0.1, 1.0, dim)
    templates, params_list = [], []
    for k in range(n_keys):
        params = tr.derive_params(100 * seed + k, dim, 0.5)
        r = tr.project(tr.combine(v1, v2, params), params)
        qr = np.stack([r - 1.0, r + 1.0], axis=1)
        meta = tr.TemplateMeta(subject_id="S", key_id=params.key_id, delta=0.5,
                               frames_averaged=1, quant_range=qr)
        templates.append(tr.CancellableTemplate(bits=tr.gray_encode(r, qr), meta=meta))
        params_list.append(params)
    result = atk.arm_attack(templates, params_list, truth=(v1, v2))
    assert _sha(result.v1_hat, result.v2_hat, result.similarity, result.n_equations,
                result.n_unknowns, result.rank, result.residual,
                result.monomials) == PINNED[f"arm_{n_keys}_keys"]
