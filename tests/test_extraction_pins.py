"""Bit-equality pins for feature extraction.

The sha256 digests were taken from the earlier implementation, which wrapped
every frame, phase, graph and feature vector in its own dataclass, on numpy
2.4 and scipy 1.17; the array path must reproduce every feature matrix bit
for bit and in the same order.
"""

import hashlib

import numpy as np
import pytest

from neurolock.ingest import SyntheticSpec, synthesize
from neurolock.pipeline import DspConfig, build_feature_dataset, extract_frame_features

PINNED = {
    "graph_small_8ch":
        "bb2d318793d6c1f60d6a119b2af5506b258fc6163700a84a98bc8c6e30f40453",
    "graph_desk_16ch_seed7":
        "f8cd1261d306c49a52c6e73a5de48b9cdf7adc9627f15b8c9f974a3c5742e072",
    "ar": "868fcfa9edbab60d9c16c2d6bc36be7d6932707263ddfc604115386a409d44f3",
    "psd": "0fc0b3f348afad6291ba33e523ba52868abaaeef744db79b6ce7e59c6f5077fe",
    "fuzzen": "9008999ead32f3bf26690f94a0cb0a697f882778a86a2058b6a1034bd8120c35",
    "concat": "d330c2d94805c3b5fe82827058150cc925c5037c9ebdfed82539a527b4176515",
}


def _sha(matrices) -> str:
    digest = hashlib.sha256()
    for matrix in matrices:
        digest.update(np.ascontiguousarray(matrix, dtype="<f8").tobytes())
    return digest.hexdigest()


def _dataset_sha(dataset) -> str:
    keys = sorted(dataset.vectors, key=lambda k: (k[0], k[1].value))
    return _sha(dataset.vectors[k] for k in keys)


def test_graph_features_small_recordings(small_dataset):
    # 8 channels: exact modularity search
    assert _dataset_sha(small_dataset) == PINNED["graph_small_8ch"]


def test_graph_features_desk_channels():
    # 16 channels: greedy modularity restarts and scipy Dijkstra
    spec = SyntheticSpec(n_subjects=2, n_channels=16, duration_s=62.0, fs=160.0,
                         master_seed=7)
    dataset = build_feature_dataset(synthesize(spec), DspConfig(), "graph")
    assert sum(m.shape[0] for m in dataset.vectors.values()) == 4 * 31
    assert _dataset_sha(dataset) == PINNED["graph_desk_16ch_seed7"]


@pytest.mark.parametrize("kind", ["ar", "psd", "fuzzen", "concat"])
def test_baseline_features(small_recordings, kind):
    matrices = [extract_frame_features(rec, DspConfig(), kind)
                for rec in small_recordings[:2]]
    assert _sha(matrices) == PINNED[kind]
