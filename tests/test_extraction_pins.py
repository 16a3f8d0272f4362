"""Bit-equality pins for feature extraction.

The sha256 digests were taken from the earlier implementation, which wrapped
every frame, phase, graph and feature vector in its own dataclass, on numpy
2.4 and scipy 1.17; the array path must reproduce every feature matrix bit
for bit and in the same order. The 9- and 12-channel digests were taken from
the modularity search that indexed numpy arrays per element and recursed over
the set partitions of every small graph; the Python-scalar search and its
cached partition table must reproduce them too. The 5- and 24-channel digests
were taken from the per-frame graph features, before every graph metric took
a recording's whole frame stack at once. The 64-channel digest, the paper's
channel count, was taken from the greedy search that visited one frame and one
restart at a time.
"""

import hashlib

import numpy as np
import pytest

from neurolock.graph_features import _set_partitions
from neurolock.ingest import SyntheticSpec, synthesize
from neurolock.pipeline import DspConfig, build_feature_dataset, extract_frame_features

PINNED = {
    "graph_5ch_seed7":
        "5c437f46723fa7c618dbf1b8b76c44f8ef1282de7b2f521feb1ac2ab7b54dd91",
    "graph_small_8ch":
        "bb2d318793d6c1f60d6a119b2af5506b258fc6163700a84a98bc8c6e30f40453",
    "graph_9ch_seed7":
        "c9838993c75f04d0b37e28a9f24bd5bb494f6478c86a53f40489afc8d8540230",
    "graph_12ch_seed7":
        "c5ee7163a978af81a6b46a0713566bf085425cee3995c55b3ad04001e671de2f",
    "graph_24ch_seed7":
        "3d7f20e41e434ac6050315b49a55aaf44b12a78bbb980fb6111cd6ca2471414a",
    "graph_64ch_seed7":
        "623a354a04d88d24e700fe2d48f424ae9dfb3595737092f9d6928ff628a70a28",
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
    # 16 channels: greedy modularity restarts
    spec = SyntheticSpec(n_subjects=2, n_channels=16, duration_s=62.0, fs=160.0,
                         master_seed=7)
    dataset = build_feature_dataset(synthesize(spec), DspConfig(), "graph")
    assert sum(m.shape[0] for m in dataset.vectors.values()) == 4 * 31
    assert _dataset_sha(dataset) == PINNED["graph_desk_16ch_seed7"]


@pytest.mark.parametrize("n_channels", [9, 12])
def test_graph_features_greedy_boundary(n_channels):
    # just past the exact search's 8 nodes: the greedy path on small graphs
    spec = SyntheticSpec(n_subjects=2, n_channels=n_channels, duration_s=62.0, fs=160.0,
                         master_seed=7)
    dataset = build_feature_dataset(synthesize(spec), DspConfig(), "graph")
    assert _dataset_sha(dataset) == PINNED[f"graph_{n_channels}ch_seed7"]


@pytest.mark.parametrize("n_channels", [5, 24])
def test_graph_features_stack_pins(n_channels):
    # below the exact search's 8 nodes, and half again beyond the desk's 16
    spec = SyntheticSpec(n_subjects=2, n_channels=n_channels, duration_s=62.0, fs=160.0,
                         master_seed=7)
    dataset = build_feature_dataset(synthesize(spec), DspConfig(), "graph")
    assert _dataset_sha(dataset) == PINNED[f"graph_{n_channels}ch_seed7"]


def test_graph_features_published_channels():
    # the paper's 64 channels: long greedy levels and many aggregated ones
    spec = SyntheticSpec(n_subjects=1, n_channels=64, duration_s=20.0, fs=160.0,
                         master_seed=7)
    dataset = build_feature_dataset(synthesize(spec), DspConfig(), "graph")
    assert sum(m.shape[0] for m in dataset.vectors.values()) == 2 * 10
    assert _dataset_sha(dataset) == PINNED["graph_64ch_seed7"]


@pytest.mark.parametrize("n", range(1, 9))
def test_set_partition_table(n):
    table = _set_partitions(n)
    assert table.shape == ((1, 2, 5, 15, 52, 203, 877, 4140)[n - 1], n)
    assert not table.flags.writeable
    full = (1 << n) - 1
    for row in table.tolist():
        blocks = [b for b in row if b]
        assert row == blocks + [0] * (n - len(blocks))  # padding only at the end
        assert sum(blocks) == full and np.bitwise_or.reduce(blocks) == full  # disjoint cover
    assert len({tuple(row) for row in table.tolist()}) == len(table)


@pytest.mark.parametrize("kind", ["ar", "psd", "fuzzen", "concat"])
def test_baseline_features(small_recordings, kind):
    matrices = [extract_frame_features(rec, DspConfig(), kind)
                for rec in small_recordings[:2]]
    assert _sha(matrices) == PINNED[kind]
