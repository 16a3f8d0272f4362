"""Equality checks for the batched scoring path.

The sha256 pins were taken from the earlier per-template implementation
(one CancellableTemplate and one hamming_score call per score) on numpy 2.4
with OpenBLAS; the batched path must reproduce every score array bit for bit
and in the same order.
"""

import hashlib
import json

import numpy as np

from neurolock import attacks as atk
from neurolock import matching_eval as me
from neurolock import transform as tr
from neurolock.pipeline import random_feature_dataset
from neurolock.system import AuthSystem, SystemConfig

PINNED = {
    "protocol_lost_key.genuine":
        "49ceb840828a10d788c55a84058160178e5c153385de94d830f94701f6dcd2a3",
    "protocol_lost_key.impostor":
        "7d36336c7000d8d5e0e0fbad5da9491473d0eb8b0fdcda09d4bf90f21e7b94d3",
    "protocol_user_keys_ft2.genuine":
        "2db1b8d3235c81a6814d86b190fc7e4249ee6cef7234c4b2171736dbada888ac",
    "protocol_user_keys_ft2.impostor":
        "879ca69ef8cd7bf7b0990ccb9aaca6a343564100114d6444057d38e0d431aa07",
    "decidability_S001.genuine":
        "ed6e1df2189ee1649bbf5cd8215d67761f9ff57c759da4b6ff255f0255bd2466",
    "decidability_S001.impostor":
        "db2f1d5722a353672d70052359e62ff6dcace3c9019a74650e2176e9e383014c",
    "decidability_S012_user_keys.genuine":
        "4f0804f0ef617c8897ed6f97ba50c3fb928590f2cb37d99b362d8ee9eee5fdea",
    "decidability_S012_user_keys.impostor":
        "cc1f21b3b62bc2d67509e701daa57933ed47331fee83dae175c14f1c3c1a8583",
    "revocability.pseudo_impostor":
        "be08cc167f87152a102efff6f16e861675c2a7ac8b76729ab6534c21e1ac1320",
    "unlinkability.mated":
        "0861966ad18f985a25fd70da3c70ab429f0a91276166e2bf808d7cd699e14f0d",
    "unlinkability.non_mated":
        "0d6f968ea4a30c6df7e0c240ac8f0ca598c52d5eb5c678524072165bc1d25c76",
    "second_attack":
        "b5c4cb5c0b3157b726137329c9a2d547874af1bd2951324e912bfbde5b03e4ef",
}


def _sha(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=np.float64).tobytes()
                          ).hexdigest()


def _score_hashes() -> dict:
    dataset = random_feature_dataset(12, 30, 14, seed=21)
    lost = SystemConfig(enroll_frames=10, query_frames=1, delta=0.85)
    per_user = SystemConfig(enroll_frames=8, query_frames=2, delta=0.6,
                            lost_key=False)
    out = {}
    for tag, config in (("protocol_lost_key", lost),
                        ("protocol_user_keys_ft2", per_user)):
        scores = me.protocol_score_set(dataset, config.enroll_frames,
                                       config.query_frames, config)
        out[f"{tag}.genuine"] = _sha(scores.genuine)
        out[f"{tag}.impostor"] = _sha(scores.impostor)
    for tag, subject, config in (("decidability_S001", "S001", lost),
                                 ("decidability_S012_user_keys", "S012", per_user)):
        scores = me.decidability_protocol(dataset, subject, config)
        out[f"{tag}.genuine"] = _sha(scores.genuine)
        out[f"{tag}.impostor"] = _sha(scores.impostor)
    out["revocability.pseudo_impostor"] = _sha(
        me.revocability_protocol(dataset, lost, n_keys=5, seed=4).pseudo_impostor)
    mated, non_mated = me.unlinkability_protocol(dataset, lost, n_keys=3, seed=5)
    out["unlinkability.mated"] = _sha(mated)
    out["unlinkability.non_mated"] = _sha(non_mated)
    system = AuthSystem(dataset, lost)
    solutions = atk.public_data_solutions(system, 1, seed=6)[:3]
    solutions.append(atk.Solution("S002", "template",
                                  system.users["S002"].template.bits.copy()))
    report = atk.second_attack(system, solutions, n_keys=5, seed=7)
    out["second_attack"] = hashlib.sha256(
        json.dumps(report.to_json_dict(), sort_keys=True).encode()).hexdigest()
    return out


def test_score_arrays_match_the_per_template_implementation():
    assert _score_hashes() == PINNED


def test_batched_projection_equals_row_by_row():
    params = tr.derive_params(42, 70, 0.85)
    rng = np.random.default_rng(3)
    batch = rng.standard_normal((3, 40, 70))
    projected = tr.project(batch, params)
    rows = np.array([[tr.project(row, params) for row in block] for block in batch])
    assert projected.shape == (3, 40, params.n_out)
    assert np.array_equal(projected, rows)
