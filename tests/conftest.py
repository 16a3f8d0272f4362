import numpy as np
import pytest

from neurolock.ingest import SyntheticSpec, synthesize
from neurolock.pipeline import DspConfig, build_feature_dataset, random_feature_dataset


@pytest.fixture(scope="session")
def small_recordings():
    """Six-subject, 8-channel synthetic recordings (12 frames each)."""
    spec = SyntheticSpec(n_subjects=6, n_channels=8, duration_s=28.0, fs=160.0,
                         master_seed=424, noise_level=0.1)
    return list(synthesize(spec))


@pytest.fixture(scope="session")
def small_dataset(small_recordings):
    """Graph-feature dataset extracted from the small recordings."""
    return build_feature_dataset(small_recordings, DspConfig(), "graph")


@pytest.fixture(scope="session")
def random_dataset():
    """Random (non-signal) feature dataset for protocol plumbing tests."""
    return random_feature_dataset(n_subjects=8, n_frames=30, dim=14, seed=99)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
