"""Synthetic recordings stream through extraction one at a time.

The sha256 pins were taken from the generator that returned every recording of
a spec in one list; the streamed generator must yield the same recordings, in
the same order, and `synth` must write the same files. `build_feature_dataset`
takes any iterable in one pass, so the memory it needs does not grow with the
number of recordings.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner

from neurolock.cli import main
from neurolock.errors import ConfigError
from neurolock.ingest import SyntheticSpec, synthesize
from neurolock.pipeline import DspConfig, build_feature_dataset

DESK = SyntheticSpec(n_subjects=20, n_channels=16, duration_s=62.0, fs=160.0,
                     master_seed=1234, noise_level=0.10)
CLI_DEFAULT = SyntheticSpec(n_subjects=8, n_channels=8, duration_s=62.0, fs=160.0,
                            master_seed=1234, noise_level=0.1)


def recordings_sha(recordings) -> str:
    """One digest over each recording's rate, labels, subject, protocol, shape and data."""
    digest = hashlib.sha256()
    for rec in recordings:
        digest.update(repr((rec.fs, rec.channels, rec.subject_id, rec.protocol_tag.value,
                            rec.data.shape)).encode())
        digest.update(np.ascontiguousarray(rec.data, dtype="<f8").tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("spec, pinned", [
    (DESK, "fd3e491ea5fb763319418111f79f117fdaba128516914930d7904dfcae9dc87e"),
    (CLI_DEFAULT, "5fe0e8a159e1c695ac212a2f8f76781a46c144f46fd04ed9510f4cad39204894"),
], ids=["desk_20x16", "cli_default_8x8"])
def test_synthesized_recordings_pinned(spec, pinned):
    assert recordings_sha(synthesize(spec)) == pinned


def test_synth_writes_pinned_files_and_stdout(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the default output_dir, so the config hash is fixed
    result = CliRunner().invoke(main, ["synth"])
    assert result.exit_code == 0, result.output
    assert result.output == "wrote 16 recordings to out/dataset\n"
    digest = hashlib.sha256()
    for path in sorted((tmp_path / "out" / "dataset").iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    assert digest.hexdigest() == "a13cce1d8b12af0e0d1690954f0c04fc8e209dc540ae6e8dd4e28324f4277bb9"


@pytest.fixture(scope="module")
def short_spec():
    return SyntheticSpec(n_subjects=3, n_channels=4, duration_s=14.0, fs=160.0,
                         master_seed=9)


def test_a_generator_gives_the_features_of_the_list(short_spec):
    listed = build_feature_dataset(list(synthesize(short_spec)), DspConfig(), "graph")
    for recordings in (synthesize(short_spec), iter(list(synthesize(short_spec)))):
        streamed = build_feature_dataset(recordings, DspConfig(), "graph")
        assert list(streamed.vectors) == list(listed.vectors)
        assert all(np.array_equal(streamed.vectors[k], m) for k, m in listed.vectors.items())
        assert streamed.names == listed.names and streamed.feature_kind == "graph"


@pytest.mark.parametrize("empty", [[], iter([]), (r for r in [])],
                         ids=["list", "iterator", "generator"])
def test_no_recordings_is_a_config_error(empty):
    with pytest.raises(ConfigError, match="^no recordings to extract features from$"):
        build_feature_dataset(empty, DspConfig(), "graph")


def extraction_peak(spec) -> int:
    tracemalloc.start()
    try:
        build_feature_dataset(synthesize(spec), DspConfig(), "graph")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_extraction_memory_does_not_grow_with_the_subjects():
    specs = [SyntheticSpec(n_subjects=n, n_channels=8, duration_s=20.0, fs=160.0,
                           master_seed=5) for n in (2, 8)]
    recording_bytes = next(iter(synthesize(specs[0]))).data.nbytes
    extraction_peak(specs[0])  # warm every cache first
    small, large = (extraction_peak(spec) for spec in specs)
    assert abs(large - small) < recording_bytes, (small, large, recording_bytes)
