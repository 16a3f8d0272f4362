"""End-to-end tests of the benchmark on shrunken inputs (the CLI one runs at
its default config, about a minute)."""

import json

import numpy as np
import pytest

import run
import workloads as wl

SMALL = {
    (wl.ExtractDesk, "SPEC"): dict(n_subjects=2, n_channels=16, duration_s=14.0,
                                   fs=160.0, noise_level=0.10),
    (wl.ProtectPublished, "SHAPE"): dict(n_subjects=12, n_frames=13, dim=20),
    (wl.ProtectPublished, "REVOCABILITY_KEYS"): 3,
    (wl.ProtectPublished, "DECIDABILITY_ACCOUNTS"): ("S001", "S012"),
    (wl.ProtectPublished, "UNLINK_KEYS"): 3,
    (wl.ProtectPublished, "CLIMB_BUDGET"): 200,
    (wl.ProtectPublished, "REKEY_KEYS"): 3,
}
SEED = 5  # not pinned: the shrunken inputs have no reference values


@pytest.fixture
def small(monkeypatch, tmp_path):
    for (cls, attr), value in SMALL.items():
        monkeypatch.setattr(cls, attr, value)
    monkeypatch.setattr(run, "RUNS_DIR", tmp_path / "runs")


def bench(capsys, workload, trace):
    assert run.main(["--workload", workload, "--seed", str(SEED),
                     "--seconds", "0.1", "--trace", str(trace)]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    return json.loads(out[-1]), out


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_run_matches_untraced_and_covers_its_layers(small, capsys, workload):
    result, lines = bench(capsys, workload, trace=1)
    assert result["correct"] and result["failed"] == 0, "\n".join(lines)
    metrics = result["metrics"]
    assert list(metrics) == run.PER_LAYER
    for name in run.LAYERS[workload]:
        if name.endswith("ratio"):
            continue
        assert metrics[name]["value"] > 0, name
    if workload == "protect_published":
        assert metrics["eval.system.calibrated_params.hit_ratio"]["value"] > 0.5
        assert metrics["rekey.system.calibrated_params.hit_ratio"]["value"] == 0.0
    if workload != "protect_published":
        assert 0 < metrics["dsp.design_bandpass.reuse_ratio"]["value"] < 1
    assert metrics["trace.overhead_ratio"]["value"] > 0


@pytest.mark.parametrize("workload", ["extract_desk", "protect_published"])
def test_untraced_run_reports_end_to_end_metrics(small, capsys, workload):
    result, lines = bench(capsys, workload, trace=0)
    assert result["correct"], "\n".join(lines)
    assert result["attempted"] >= 1
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert list(result["metrics"]) == [m["name"] for m in declared["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "check: invariants only; no pinned reference for this seed" in lines


def test_benchmark_json_lists_the_per_layer_metrics():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == [
        (name, run.layer_unit(name)) for name in run.PER_LAYER]
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOAD_NAMES)


def _edf_bytes(seed, directory):
    workload = wl.ExtractDesk(seed, directory)
    workload.generate()
    return {p.name: p.read_bytes() for p in sorted(workload.edf_dir.iterdir())}


def test_input_generation_is_deterministic(small, tmp_path):
    assert _edf_bytes(3, tmp_path / "a") == _edf_bytes(3, tmp_path / "b")
    assert _edf_bytes(3, tmp_path / "a") != _edf_bytes(4, tmp_path / "c")
    first, again, other = (wl.ProtectPublished(s, tmp_path) for s in (3, 3, 4))
    for workload in (first, again, other):
        workload.generate()
    for key, matrix in first.dataset.vectors.items():
        assert np.array_equal(matrix, again.dataset.vectors[key])
        assert not np.array_equal(matrix, other.dataset.vectors[key])
    assert all(np.array_equal(a.payload, b.payload)
               for a, b in zip(first.solutions, again.solutions))


def test_missing_package_exits_nonzero(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path)
    assert run.main(["--workload", "extract_desk", "--seed", "1"]) == 2
    assert capsys.readouterr().out == ""
