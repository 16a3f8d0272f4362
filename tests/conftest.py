import numpy as np
import pytest
from hypothesis import settings

from neurolock.ingest import SyntheticSpec, synthesize
from neurolock.pipeline import DspConfig, build_feature_dataset, random_feature_dataset
from neurolock.system import AuthSystem, SystemConfig

# `--hypothesis-profile=ci` runs a test that leaves max_examples unset on
# twenty times the default number of examples
settings.register_profile("ci", max_examples=2000)


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


@pytest.fixture(scope="module")
def small_system():
    """Six-subject system on random 10-dimensional features, for attack tests."""
    dataset = random_feature_dataset(n_subjects=6, n_frames=20, dim=10, seed=55)
    return AuthSystem(dataset, SystemConfig(enroll_frames=5, query_frames=1, delta=0.5))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
