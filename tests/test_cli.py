import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from neurolock import __version__, cli, matching_eval, pipeline
from neurolock import transform as tr
from neurolock.cli import main
from neurolock.errors import ConfigError
from neurolock.ingest import read_csv_matrix, write_edf

HUGE = 10 ** 22  # a 23-digit integer
NO_FLOAT = 10 ** 400  # an integer too large for a float
# leaves that count items; load_config refuses a count no array can index
COUNT_LEAVES = ("dataset.synthetic.n_subjects", "attack.max_attempts", "slx.seeds",
                "eval.revocability_keys", "eval.unlink_keys", "attack.second_attack_keys")

SMALL = [
    "--dataset.synthetic.n_subjects=4",
    "--dataset.synthetic.n_channels=4",
    "--dataset.synthetic.duration_s=14",
    "--transform.enroll_frames=3",
    "--transform.query_frames=1",
]


def run(tmp_path, *args, strip_small=False):
    runner = CliRunner()
    argv = list(args) + [f"--output_dir={tmp_path}"] + ([] if strip_small else SMALL)
    return runner.invoke(main, argv, catch_exceptions=False,
                         standalone_mode=False)


def invoke(args):
    return CliRunner().invoke(main, args)


def leaves(config, prefix=""):
    """Dotted paths of every non-section value in a config dict."""
    for key, value in config.items():
        if isinstance(value, dict):
            yield from leaves(value, f"{prefix}{key}.")
        else:
            yield prefix + key


class DataReached(Exception):
    """Raised in place of reading or synthesizing a dataset."""


def invoke_with_sentinel(monkeypatch, args):
    """Run a command whose data reads and synthesis raise DataReached."""
    def never(config):
        raise DataReached
    monkeypatch.setattr(cli, "load_recordings", never)
    monkeypatch.setattr(cli, "synthesize", never)
    extra = ["--subject=S001", "--key=1"] if args[0] == "enroll" else []
    return invoke(args[:1] + extra + args[1:])  # a test's own --key comes last and wins


def invoke_never_loading(monkeypatch, args):
    """Run a command that must stop with exit 2 before any data is read."""
    result = invoke_with_sentinel(monkeypatch, args)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    return result


def write_template(path, subject):
    """A small valid template file claiming `subject`."""
    meta = tr.TemplateMeta(subject_id=subject, key_id="k", delta=0.5, frames_averaged=1,
                           quant_range=np.array([[-1.0, 1.0]]))
    tr.save_template(tr.CancellableTemplate(np.zeros(8, dtype=np.uint8), meta), path)


class TestSynthExtract:
    def test_synth_writes_dataset(self, tmp_path):
        result = invoke(["synth", f"--output_dir={tmp_path}"] + SMALL)
        assert result.exit_code == 0, result.output
        files = sorted((tmp_path / "dataset").glob("*.csv"))
        assert len(files) == 8  # 4 subjects x 2 protocols
        manifest = json.loads((tmp_path / "dataset" / "manifest.json").read_text())
        assert manifest["fs"] == 160.0

    def test_extract_counts_and_idempotence(self, tmp_path):
        args = ["extract", f"--output_dir={tmp_path}"] + SMALL
        assert invoke(args).exit_code == 0
        feature_dir = tmp_path / "features"
        files = sorted(feature_dir.glob("*.csv"))
        assert len(files) == 8
        before = {f.name: f.read_bytes() for f in files}
        assert invoke(args).exit_code == 0
        after = {f.name: f.read_bytes() for f in sorted(feature_dir.glob("*.csv"))}
        assert before == after

    def test_extract_from_csv_dataset(self, tmp_path):
        assert invoke(["synth", f"--output_dir={tmp_path}"] + SMALL).exit_code == 0
        out2 = tmp_path / "second"
        args = ["extract", f"--output_dir={out2}", "--dataset.kind=csv",
                f"--dataset.path={tmp_path / 'dataset'}"] + SMALL
        assert invoke(args).exit_code == 0
        assert len(list((out2 / "features").glob("*.csv"))) == 8

    def test_extract_from_edf_dataset(self, tmp_path):
        from neurolock.ingest import Protocol, SyntheticSpec, synthesize, write_edf
        spec = SyntheticSpec(n_subjects=3, n_channels=4, duration_s=14.0,
                             fs=160.0, master_seed=1234)
        edf_dir = tmp_path / "edf"
        edf_dir.mkdir()
        for rec in synthesize(spec):
            write_edf(rec, edf_dir / f"{rec.subject_id}_{rec.protocol_tag.value}.edf",
                      record_seconds=1.0)
        out = tmp_path / "out"
        args = ["extract", f"--output_dir={out}", "--dataset.kind=edf",
                f"--dataset.path={edf_dir}", "--transform.enroll_frames=3"]
        assert invoke(args).exit_code == 0
        files = sorted((out / "features").glob("*.csv"))
        assert len(files) == 6
        manifest = json.loads((out / "features" / "manifest.json").read_text())
        assert manifest["dim"] == 10  # 4 channels + 6 global descriptors
        # an EDF file carries its own rate, so its frame is checked as it is extracted
        result = invoke(args[:1] + [f"--output_dir={tmp_path / 'rho'}", *args[2:],
                                    "--dsp.rho_bins=400"])
        assert result.exit_code == 2, result.output
        assert result.output == ("config error: subject 'S001' / EC: dsp.rho_bins = 400 "
                                 "is more than the 320 samples of a frame\n")

    def test_non_finite_csv_cell_exits_data_error(self, tmp_path):
        assert invoke(["synth", f"--output_dir={tmp_path}"] + SMALL).exit_code == 0
        path = tmp_path / "dataset" / "S002_EC.csv"
        rows = path.read_text().splitlines()
        cells = rows[1].split(",")
        cells[5] = "nan"
        rows[1] = ",".join(cells)
        path.write_text("\n".join(rows) + "\n")
        out = tmp_path / "second"
        result = invoke(["extract", f"--output_dir={out}", "--dataset.kind=csv",
                         f"--dataset.path={tmp_path / 'dataset'}"] + SMALL)
        assert result.exit_code == 3, result.output
        assert "S002_EC.csv: non-finite cell 'nan' at row 2, col 6" in result.output
        assert not (out / "features").exists()

    def test_mixed_channel_counts_exit_data_error_before_extraction(self, tmp_path,
                                                                     monkeypatch):
        assert invoke(["synth", f"--output_dir={tmp_path}"] + SMALL).exit_code == 0
        path = tmp_path / "dataset" / "S003_EO.csv"
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))

        def never(*args):
            raise AssertionError("features extracted")
        monkeypatch.setattr(pipeline, "extract_frame_features", never)
        result = invoke(["enroll", "--subject=S001", "--key=7", "--dataset.kind=csv",
                         f"--dataset.path={tmp_path / 'dataset'}",
                         f"--output_dir={tmp_path}"] + SMALL)
        assert result.exit_code == 3, result.output
        assert "S003/EO has 3 channels, S001/EC has 4" in result.output

    def test_unknown_override_is_config_error(self, tmp_path):
        result = invoke(["extract", f"--output_dir={tmp_path}",
                         "--nonsense.key=1"])
        assert result.exit_code == 2

    def test_missing_dataset_dir_is_config_error(self, tmp_path):
        result = invoke(["extract", f"--output_dir={tmp_path}",
                         "--dataset.kind=csv",
                         f"--dataset.path={tmp_path / 'nowhere'}"])
        assert result.exit_code == 2


class TestEnrollVerify:
    def test_enroll_verify_accepts_self_match(self, tmp_path):
        template = tmp_path / "u.ceeg"
        result = invoke(["enroll", "--subject=S001", "--key=777",
                         f"--out={template}", f"--output_dir={tmp_path}"] + SMALL)
        assert result.exit_code == 0, result.output
        assert template.exists()
        # query rebuilt from the enrollment frames themselves: score 0
        result = invoke(["verify", f"--template={template}", "--subject=S001",
                         "--key=777", "--transform.theta=0.389", "--from-frame=0",
                         "--frames=3", f"--output_dir={tmp_path}"] + SMALL)
        assert result.exit_code == 0, result.output
        assert "ACCEPT" in result.output
        assert "score=0.000000" in result.output

    def test_per_user_keys_self_match(self, tmp_path):
        per_user = SMALL + ["--transform.lost_key=false", f"--output_dir={tmp_path}"]
        assert invoke(["enroll", "--subject=S002", "--key=31"] + per_user).exit_code == 0
        result = invoke(["verify", f"--template={tmp_path / 'S002.ceeg'}",
                         "--subject=S002", "--key=31", "--from-frame=0", "--frames=3"]
                        + per_user)
        assert result.exit_code == 0, result.output
        assert "ACCEPT score=0.000000" in result.output

    def test_reenrollment_reproduces_file(self, tmp_path):
        a_path = tmp_path / "a.ceeg"
        b_path = tmp_path / "b.ceeg"
        for path in (a_path, b_path):
            assert invoke(["enroll", "--subject=S001", "--key=777",
                           f"--out={path}", f"--output_dir={tmp_path}"]
                          + SMALL).exit_code == 0
        assert a_path.read_bytes() == b_path.read_bytes()

    def test_new_key_changes_bits(self, tmp_path):
        a_path = tmp_path / "a.ceeg"
        b_path = tmp_path / "b.ceeg"
        invoke(["enroll", "--subject=S001", "--key=777", f"--out={a_path}",
                f"--output_dir={tmp_path}"] + SMALL)
        invoke(["enroll", "--subject=S001", "--key=778", f"--out={b_path}",
                f"--output_dir={tmp_path}"] + SMALL)
        assert a_path.read_bytes() != b_path.read_bytes()

    def test_key_mismatch_exits_data_error(self, tmp_path):
        template = tmp_path / "u.ceeg"
        invoke(["enroll", "--subject=S001", "--key=777", f"--out={template}",
                f"--output_dir={tmp_path}"] + SMALL)
        result = invoke(["verify", f"--template={template}", "--subject=S001",
                         "--key=42", f"--output_dir={tmp_path}"] + SMALL)
        assert result.exit_code == 3

    def test_template_calibrated_under_another_config_exits_data_error(self, tmp_path):
        """A query quantized over another range than the template's is refused,
        not scored: the genuine user would otherwise be rejected."""
        shared = ["--subject=S001", "--key=777", f"--output_dir={tmp_path}"] + SMALL
        assert invoke(["enroll"] + shared).exit_code == 0
        result = invoke(["verify", f"--template={tmp_path / 'S001.ceeg'}",
                         "--transform.calibration_margin=0.5"] + shared)
        assert result.exit_code == 3, result.output
        assert result.output == ("data error: quantization ranges differ: the template was "
                                 "calibrated over another population or config than "
                                 "the query\n")

    def test_impostor_rejected_at_strict_threshold(self, tmp_path):
        template = tmp_path / "u.ceeg"
        invoke(["enroll", "--subject=S001", "--key=777", f"--out={template}",
                f"--output_dir={tmp_path}"] + SMALL)
        result = invoke(["verify", f"--template={template}", "--subject=S003",
                         "--key=777", "--transform.theta=0.02",
                         f"--output_dir={tmp_path}"] + SMALL)
        assert result.exit_code == 4
        assert "REJECT" in result.output

    def test_verify_builds_only_the_query_template(self, tmp_path, monkeypatch):
        template = tmp_path / "u.ceeg"
        shared = ["--key=777", f"--output_dir={tmp_path}"] + SMALL
        assert invoke(["enroll", "--subject=S001", f"--out={template}"] + shared).exit_code == 0
        built = []
        original = tr.make_template

        def counted(*args, **kwargs):
            built.append(kwargs.get("subject_id"))
            return original(*args, **kwargs)
        monkeypatch.setattr(tr, "make_template", counted)
        result = invoke(["verify", f"--template={template}", "--subject=S002"] + shared)
        assert result.exit_code in (0, 4), result.output
        assert built == ["S002"]

    def test_missing_template_exits_data_error_before_loading(self, tmp_path,
                                                               monkeypatch):
        def never(config):
            raise AssertionError("load_features called")
        monkeypatch.setattr(cli, "load_features", never)
        result = invoke(["verify", f"--template={tmp_path / 'none.ceeg'}",
                         "--subject=S001", "--key=1", f"--output_dir={tmp_path}"])
        assert result.exit_code == 3, result.output
        assert result.output.startswith("data error: ")

    @pytest.mark.parametrize("where", ["enroll", "verify", "template", "csv"])
    def test_unknown_subject_exits_before_loading(self, tmp_path, monkeypatch, where):
        def never(config):
            raise AssertionError("load_features called")
        monkeypatch.setattr(cli, "load_features", never)
        template = tmp_path / "u.ceeg"
        write_template(template, "S999" if where == "template" else "S001")
        subject = "S001" if where == "template" else "S999"
        args = (["enroll", f"--subject={subject}", "--key=1"] if where in ("enroll", "csv")
                else ["verify", f"--template={template}", f"--subject={subject}", "--key=1"])
        if where == "csv":  # subjects come from the <subject>_<PROTOCOL>.csv names
            (tmp_path / "S001_EO.csv").write_text("")
            args += ["--dataset.kind=csv", f"--dataset.path={tmp_path}"]
        result = invoke(args + [f"--output_dir={tmp_path}"])
        assert result.exit_code == 2, result.output
        assert result.output == ("config error: template subject 'S999' not in dataset\n"
                                 if where == "template" else
                                 "config error: unknown subject 'S999'\n")

    def test_enroll_too_few_frames_is_config_error(self, tmp_path):
        result = invoke(["enroll", "--subject=S001", "--key=1",
                         f"--output_dir={tmp_path}",
                         "--transform.enroll_frames=99"] + SMALL[:3])
        assert result.exit_code == 2

    @pytest.mark.parametrize("command", ["enroll", "verify", "eval", "attack"])
    def test_synthetic_frames_short_of_the_schedule_exit_before_loading(
            self, tmp_path, monkeypatch, command):
        args = [command, f"--output_dir={tmp_path}", "--transform.enroll_frames=40"]
        if command == "verify":
            write_template(tmp_path / "u.ceeg", "S001")
            args += [f"--template={tmp_path / 'u.ceeg'}", "--subject=S001", "--key=1"]
        result = invoke_never_loading(monkeypatch, args)
        assert result.output == "config error: a recording has 31 frames < 41 needed\n"
        assert not (tmp_path / "cache").exists()

    @pytest.mark.parametrize("command", ["enroll", "verify", "eval", "attack", "extract",
                                         "slx"])
    def test_synthetic_recordings_too_short_to_filter_exit_before_synthesis(
            self, tmp_path, monkeypatch, command):
        # 6.1875 s at 160 Hz is 990 samples: three frames, but no room for the filters' padding
        args = [command, f"--output_dir={tmp_path}", "--dataset.synthetic.duration_s=6.1875",
                "--transform.enroll_frames=2", "--transform.query_frames=1"]
        if command == "verify":
            write_template(tmp_path / "u.ceeg", "S001")
            args += [f"--template={tmp_path / 'u.ceeg'}", "--subject=S001", "--key=1"]
        result = invoke_never_loading(monkeypatch, args)
        assert result.output == ("config error: a recording has 990 samples; "
                                 "zero-phase filtering needs more than 3 * dsp.fir_order "
                                 "= 990\n")
        assert not (tmp_path / "cache").exists()

    @pytest.mark.parametrize("command", ["enroll", "extract", "slx"])
    @pytest.mark.parametrize("override, message", [
        ("--dsp.rho_bins=400", "dsp.rho_bins = 400 is more than the 320 samples of a frame"),
        ("--dsp.prefilter=[0.5, 90]", "dsp.prefilter: band [0.5, 90] invalid for fs=160.0"),
    ], ids=["rho_bins", "prefilter"])
    def test_bins_or_band_beyond_the_synthetic_rate_exit_before_synthesis(
            self, tmp_path, monkeypatch, command, override, message):
        result = invoke_never_loading(monkeypatch, [command, f"--output_dir={tmp_path}",
                                                    override])
        assert result.output == f"config error: {message}\n"
        assert not (tmp_path / "cache").exists()

    @pytest.mark.parametrize("command", ["enroll", "extract"])
    @pytest.mark.parametrize("overrides, message", [
        (["--dsp.frame_seconds=0.04", "--transform.enroll_frames=2"],
         "dsp.frame_seconds = 0.04 gives frames of 6 samples, fewer than the 8 the phase "
         "needs"),
        (["--dsp.frame_seconds=1e308"], "frame of 1e+308s at fs=160.0 has too many samples "
                                        "to count"),
        (["--dataset.fs=1e308"], "dataset.synthetic.duration_s must be short enough that "
                                 "8 channels at fs=1e+308 fit in one array, got 62.0"),
    ], ids=["short_frame", "long_frame", "fast_rate"])
    def test_unusable_frame_lengths_exit_before_synthesis(
            self, tmp_path, monkeypatch, command, overrides, message):
        result = invoke_never_loading(monkeypatch, [command, f"--output_dir={tmp_path}",
                                                    *overrides])
        assert result.output == f"config error: {message}\n"
        assert not (tmp_path / "cache").exists()

    @pytest.mark.parametrize("args, message", [
        (["enroll", "--dataset.synthetic.duration_s=1e308"],
         "dataset.synthetic.duration_s must be short enough that 8 channels at fs=160.0 fit "
         "in one array, got 1e+308"),
        (["synth", "--dataset.synthetic.duration_s=1e308"],
         "dataset.synthetic.duration_s must be short enough that 8 channels at fs=160.0 fit "
         "in one array, got 1e+308"),
        (["eval", f"--dataset.fs={HUGE}"],
         "dataset.synthetic.duration_s must be short enough that 8 channels "
         f"at fs={HUGE} fit in one array, got 62.0"),
        (["attack", f"--dataset.synthetic.n_channels={HUGE}"],
         f"dataset.synthetic.duration_s must be short enough that {HUGE} channels "
         "at fs=160.0 fit in one array, got 62.0"),
        (["extract", "--dataset.synthetic.n_channels=2"],
         "graph features need at least 3 channels, got 2"),
        (["slx", "--dsp.frame_seconds=100"], "a recording has 0 frames < 1 needed"),
        (["enroll", f"--dsp.fir_order={HUGE}"],
         "a recording has 9920 samples; zero-phase filtering needs more than "
         f"3 * dsp.fir_order = {3 * HUGE}"),
        (["synth", f"--dataset.fs={NO_FLOAT}"],
         f"dataset.fs must be a finite positive number, got {NO_FLOAT}"),
    ], ids=["long_recording", "synth_long_recording", "fast_rate_23_digits",
            "channels_23_digits", "two_channels", "slx_long_frame", "fir_order_23_digits",
            "synth_fast_rate_401_digits"])
    def test_recordings_no_extraction_can_take_exit_before_synthesis(
            self, tmp_path, monkeypatch, args, message):
        result = invoke_never_loading(monkeypatch, [args[0], f"--output_dir={tmp_path}",
                                                    *args[1:]])
        assert result.output == f"config error: {message}\n"
        assert not (tmp_path / "cache").exists()

    @pytest.mark.parametrize("leaf", ["dataset.fs", "dataset.synthetic.duration_s",
                                      "dataset.synthetic.noise_level", "dsp.frame_seconds",
                                      "transform.calibration_margin"])
    def test_a_number_too_large_for_a_float_exits_before_loading(self, tmp_path, monkeypatch,
                                                                 leaf):
        result = invoke_never_loading(monkeypatch, ["enroll", f"--output_dir={tmp_path}",
                                                    f"--{leaf}={NO_FLOAT}"])
        assert result.output.startswith(f"config error: {leaf} must be ")
        assert result.output.endswith(f", got {NO_FLOAT}\n")

    @pytest.mark.parametrize("value", [HUGE, NO_FLOAT], ids=["23_digits", "401_digits"])
    @pytest.mark.parametrize("leaf", COUNT_LEAVES)
    def test_a_count_no_array_can_index_is_refused(self, leaf, value):
        """Checked on the config alone: a run with such a count would exhaust memory."""
        with pytest.raises(ConfigError) as refused:
            cli.load_config(None, (f"--{leaf}={value}",), None)
        message = str(refused.value)
        assert message.startswith(f"{leaf} must be ")
        assert message.endswith(f" to {np.iinfo(np.intp).max}, got {value}")

    def test_unlinkability_keys_too_few_for_its_scores_exit_before_loading(
            self, tmp_path, monkeypatch):
        # one key pair of 8 subjects scores 8 * 7 = 56 non-mated pairs, fewer than 100
        result = invoke_never_loading(monkeypatch, ["eval", f"--output_dir={tmp_path}",
                                                    "--eval.unlink_keys=2"])
        assert result.output == ("config error: eval.unlink_keys must be 0 or enough keys "
                                 "for 100 non-mated scores of 8 subjects, got 2\n")
        assert not (tmp_path / "cache").exists()
        result = invoke_with_sentinel(monkeypatch, ["eval", f"--output_dir={tmp_path}",
                                                    "--eval.unlink_keys=3"])
        assert isinstance(result.exception, DataReached)  # three pairs score 168

    def test_unlinkability_keys_too_few_for_its_mated_scores_exit_before_loading(
            self, tmp_path, monkeypatch):
        # 8 s at 160 Hz cut in 2 s frames is 4 frames: three key pairs of 8 subjects score 96
        args = ["eval", f"--output_dir={tmp_path}", "--eval.unlink_keys=3",
                "--transform.enroll_frames=2", "--dataset.synthetic.n_channels=4"]
        result = invoke_never_loading(monkeypatch, args + ["--dataset.synthetic.duration_s=8"])
        assert result.output == ("config error: eval.unlink_keys must be 0 or enough keys "
                                 "for 100 mated scores of 8 subjects with 4 frames each, "
                                 "got 3\n")
        assert not (tmp_path / "cache").exists()
        result = invoke_with_sentinel(monkeypatch, args + ["--dataset.synthetic.duration_s=10"])
        assert isinstance(result.exception, DataReached)  # 5 frames score 120

    def test_one_subject_exits_before_loading(self, tmp_path, monkeypatch):
        result = invoke_never_loading(monkeypatch, ["eval", f"--output_dir={tmp_path}",
                                                    "--dataset.synthetic.n_subjects=1"])
        assert result.output == ("config error: dataset.synthetic.n_subjects gives 1 "
                                 "subject; eval's impostor scores need 2\n")
        assert not (tmp_path / "cache").exists()
        files = tmp_path / "one"
        files.mkdir()
        for protocol in ("EO", "EC"):  # never read: the subject count comes from the names
            (files / f"S001_{protocol}.csv").write_text("not,read\n")
        result = invoke_never_loading(monkeypatch, [
            "eval", f"--output_dir={tmp_path}", "--dataset.kind=csv", f"--dataset.path={files}"])
        assert result.output == ("config error: dataset.path gives 1 subject; eval's "
                                 "impostor scores need 2\n")
        assert not (tmp_path / "cache").exists()

    @pytest.mark.parametrize("override, message", [
        ("--dsp.rho_bins=201", "dsp.rho_bins = 201 is more than the 200 samples of a frame"),
        ("--dsp.band=[13, 50]", "dsp.band: band [13, 50] invalid for fs=100"),
    ], ids=["rho_bins", "band"])
    def test_bins_or_band_beyond_the_csv_rate_exit_before_reading(
            self, tmp_path, monkeypatch, csv_dataset, override, message):
        out = tmp_path / "csv-out"
        result = invoke_never_loading(monkeypatch, [
            "extract", f"--output_dir={out}", "--dataset.kind=csv",
            f"--dataset.path={csv_dataset}", "--dataset.fs=100", override])
        assert result.output == f"config error: {message}\n"
        assert not (out / "cache").exists()

    @pytest.mark.parametrize("fir_order", [1000, HUGE], ids=["1000", "23_digits"])
    def test_csv_recordings_too_short_to_filter_exit_before_designing_taps(
            self, tmp_path, monkeypatch, csv_dataset, fir_order):
        """No sample count is known before a CSV file is read, so this is a data error,
        raised before the order's taps are designed."""
        designed = []
        monkeypatch.setattr(pipeline.dsp, "design_bandpass",
                            lambda *args: designed.append(args) or 1 / 0)
        result = invoke(["extract", f"--output_dir={tmp_path / 'out'}", "--dataset.kind=csv",
                         f"--dataset.path={csv_dataset}", f"--dsp.fir_order={fir_order}"])
        assert result.exit_code == 3, result.output
        assert result.output == (f"data error: subject 'S001' / EC: need more than "
                                 f"{3 * fir_order} samples for zero-phase filtering, got 2240\n")
        assert designed == []

    def test_baseline_features_ignore_the_band_and_bins(self, tmp_path):
        result = invoke(["extract", f"--output_dir={tmp_path}", "--features.kind=psd",
                         "--dsp.band=[13, 90]", "--dsp.rho_bins=400"] + SMALL)
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize("command, duration", [("synth", 6.1875), ("extract", 6.19375)])
    def test_synth_writes_short_recordings_and_one_sample_more_extracts(
            self, tmp_path, command, duration):
        result = invoke([command, f"--output_dir={tmp_path}"] + SMALL[:2]
                        + [f"--dataset.synthetic.duration_s={duration}"])
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize("command", ["synth", "extract"])
    def test_commands_without_accounts_accept_any_frame_schedule(self, tmp_path, command):
        result = invoke([command, f"--output_dir={tmp_path}"] + SMALL
                        + ["--transform.enroll_frames=99"])
        assert result.exit_code == 0, result.output

    def test_csv_frames_short_of_the_schedule_are_counted_after_extraction(
            self, tmp_path, csv_dataset):
        result = invoke(["enroll", "--subject=S001", "--key=1", "--dataset.kind=csv",
                         f"--dataset.path={csv_dataset}", f"--output_dir={tmp_path / 'out'}"]
                        + SMALL + ["--transform.enroll_frames=99"])
        assert result.exit_code == 2, result.output
        assert result.output == "config error: subject S001: 7 frames < F_e + F_t = 100\n"


class TestUnreadablePaths:
    """A path the command cannot read or write ends in its exit code, never a
    traceback: 2 for the config file, 3 as a data error for any other path."""

    @staticmethod
    def assert_data_error(result, path):
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith("data error: ")
        assert str(path) in result.output

    def test_template_that_is_a_directory(self, tmp_path, monkeypatch):
        def never(config):
            raise AssertionError("load_features called")
        monkeypatch.setattr(cli, "load_features", never)
        result = invoke(["verify", f"--template={tmp_path}", "--subject=S001",
                         "--key=1", f"--output_dir={tmp_path}"])
        self.assert_data_error(result, tmp_path)

    @pytest.mark.parametrize("content", [None, b"\xff\xfe{", b"[1]"])
    def test_config_file_that_cannot_be_read(self, tmp_path, monkeypatch, content):
        path = tmp_path / "f.json"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        result = invoke_never_loading(monkeypatch, ["eval", f"--config={path}"])
        assert result.output.startswith(f"config error: config file '{path}'")

    def test_output_dir_that_is_a_file(self, tmp_path, monkeypatch):
        def never(spec):
            raise AssertionError("synthesized")
        monkeypatch.setattr(cli, "synthesize", never)
        taken = tmp_path / "taken"
        taken.write_text("")
        result = invoke(["synth", f"--output_dir={taken}"] + SMALL)
        self.assert_data_error(result, taken)

    def test_recording_that_is_a_directory(self, tmp_path):
        dataset = tmp_path / "ds"
        (dataset / "S001_EO.csv").mkdir(parents=True)
        result = invoke(["extract", "--dataset.kind=csv", f"--dataset.path={dataset}",
                         f"--output_dir={tmp_path / 'out'}"] + SMALL)
        self.assert_data_error(result, dataset / "S001_EO.csv")

    def test_template_out_under_a_file(self, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("")
        result = invoke(["enroll", "--subject=S001", "--key=1",
                         f"--out={taken / 'x.ceeg'}", f"--output_dir={tmp_path}"] + SMALL)
        self.assert_data_error(result, taken / "x.ceeg")

    @pytest.mark.parametrize("where", ["missing-dir", "under-a-file", "default-under-a-file"])
    def test_template_out_parent_checked_before_extraction(self, tmp_path, monkeypatch,
                                                           where):
        def never(config):
            raise AssertionError("load_features called")
        monkeypatch.setattr(cli, "load_features", never)
        taken = tmp_path / "taken"
        taken.write_text("")
        args = ["enroll", "--subject=S001", "--key=1"]
        if where == "default-under-a-file":
            args.append(f"--output_dir={taken}")
            path = taken
        else:
            path = (tmp_path / "no" / "such" if where == "missing-dir" else taken) / "x.ceeg"
            args += [f"--out={path}", f"--output_dir={tmp_path}"]
        self.assert_data_error(invoke(args), path)


class TestConfigValidation:
    @pytest.mark.parametrize("override", [
        '--transform.delta="x"', '--transform.enroll_frames="3"',
        "--transform.delta=1.5", "--transform.theta=-0.1",
        "--transform.query_frames=0", "--transform.enroll_frames=2.5",
        "--transform=5",
    ])
    def test_bad_transform_value_exits_before_extraction(self, tmp_path, monkeypatch,
                                                         override):
        calls = []
        monkeypatch.setattr(cli, "load_features", lambda config: calls.append(config))
        result = invoke(["enroll", "--subject=S001", "--key=1",
                         f"--output_dir={tmp_path}", override])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert calls == []


    @pytest.mark.parametrize("command,override", [
        ("synth", '--dataset.synthetic.n_subjects="x"'),
        ("synth", "--dataset.synthetic.duration_s=-1"),
        ("extract", '--dsp.fir_order="x"'),
        ("extract", "--dsp.fir_order=331"),
        ("extract", "--dsp.band=5"),
        ("extract", "--dsp.band=[30, 13]"),
        ("extract", "--dsp.prefilter=[0.5]"),
        ("extract", "--dsp.overlap=1.0"),
        ("extract", "--dsp.rho_bins=1"),
        ("enroll", "--dsp.frame_seconds=0"),
        ("attack", "--attack.case=foo"),
        ("attack", '--attack.seed="x"'),
        ("attack", "--attack.max_attempts=0"),
        ("attack", "--attack.second_attack_keys=-1"),
        ("eval", "--eval.unlink_keys=1"),
        ("eval", '--eval.revocability_keys="x"'),
        ("slx", '--slx.seeds="x"'),
        ("slx", '--slx.n_users="x"'),
        ("slx", "--slx.split=5"),
        ("extract", '--dataset.fs="x"'),
        ("extract", "--dataset.path=5"),
        ("extract", "--dataset.kind=foo"),
        ("extract", "--dataset.kind=csv"),
        ("extract", "--features.kind=foo"),
        ("synth", "--master_seed=-1"),
        ("synth", "--output_dir=5"),
    ])
    def test_bad_dsp_or_dataset_value_exits_before_loading(self, tmp_path, monkeypatch,
                                                           command, override):
        result = invoke_never_loading(monkeypatch, [command, f"--output_dir={tmp_path}",
                                                    override])
        assert result.output.startswith("config error: ")

    @pytest.mark.parametrize("command,option", [
        ("enroll", "--key=-1"), ("enroll", f"--key={2 ** 64}"),
        ("verify", "--key=-1"), ("verify", "--transform.theta=NaN"),
        ("verify", "--transform.theta=5"), ("verify", "--transform.theta=-0.1"),
        ("verify", "--from-frame=-3"), ("verify", "--frames=0"),
        ("verify", "--from-frame=99999999999999999999999"), ("verify", f"--frames={2 ** 64}"),
    ])
    def test_bad_enroll_or_verify_option_exits_before_loading(self, tmp_path, monkeypatch,
                                                              command, option):
        args = [command, f"--output_dir={tmp_path}"]
        if command == "verify":
            args += [f"--template={tmp_path / 'none.ceeg'}", "--subject=S001", "--key=1"]
        result = invoke_never_loading(monkeypatch, args + [option])
        name = option.split("=")[0]
        if "." in name:  # a config key is named without its dashes
            name = name.lstrip("-")
        assert result.output.startswith(f"config error: {name} must be "), result.output

    @pytest.mark.parametrize("command,setting,message", [
        ("attack", "--attack.theta=0.3", "unknown config path 'attack.theta'"),
        ("synth", "--dataset.synthetic.fs=128", "unknown config path 'dataset.synthetic.fs'"),
        ("attack", {"attack": {"theta": 0.3}}, "unknown config key 'attack.theta'"),
        ("verify", "--theta=0.3", "unknown config path 'theta'"),
    ], ids=["attack.theta", "dataset.synthetic.fs", "attack.theta-in-a-file", "verify-theta"])
    def test_removed_setting_exits_before_loading(self, tmp_path, monkeypatch, command,
                                                  setting, message):
        """transform.theta, dataset.fs and --seed/master_seed are the one setting
        of each value."""
        args = [command, f"--output_dir={tmp_path}"]
        if command == "verify":
            args += [f"--template={tmp_path / 'none.ceeg'}", "--subject=S001", "--key=1"]
        if isinstance(setting, dict):
            path = tmp_path / "run.json"
            path.write_text(json.dumps(setting))
            setting = f"--config={path}"
        result = invoke_never_loading(monkeypatch, args + [setting])
        assert result.output == f"config error: {message}\n"

    @pytest.mark.parametrize("dotted,value", [
        *((dotted, '"x"') for dotted in leaves(cli.DEFAULT_CONFIG)
          if dotted not in ("dataset.path", "output_dir")),
        ("dataset.kind", "foo"), ("features.kind", "foo"), ("attack.case", "foo"),
    ])
    def test_every_config_leaf_is_checked(self, tmp_path, monkeypatch, dotted, value):
        """A key added to DEFAULT_CONFIG without a rule fails here."""
        result = invoke_never_loading(monkeypatch, ["extract", f"--output_dir={tmp_path}",
                                                    f"--{dotted}={value}"])
        assert result.output.startswith("config error: ")
        assert dotted.rsplit(".", 1)[-1] in result.output


HOSTILE_VALUES = ("0", "-1", "2", "1e308", "1e-300", "NaN", "Infinity", "-Infinity", "true",
                  "null", '"x"', "[]", "[2, 1]", "[0.5, 80]", str(HUGE), str(NO_FLOAT))


@pytest.mark.parametrize("command", ["enroll", "eval", "attack", "extract", "slx"])
def test_hostile_config_values_exit_2_or_reach_the_data(tmp_path, monkeypatch, command):
    """Each config leaf but the two paths, set to each hostile value in turn, either
    exits 2 before any data is read or reaches the data: no other exit, no traceback."""
    assert hostile_value_failures(monkeypatch, [command, f"--output_dir={tmp_path}"]) == []
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize("command", ["enroll", "eval", "attack", "extract", "slx"])
def test_hostile_config_values_on_csv_data_exit_2_or_reach_the_data(tmp_path, monkeypatch,
                                                                    command):
    """The same on a CSV dataset, whose sample counts are unknown until it is read. Its
    files are named for four subjects but never read."""
    (tmp_path / "csv").mkdir()
    for name in (f"S00{i}_{p}.csv" for i in range(1, 5) for p in ("EO", "EC")):
        (tmp_path / "csv" / name).write_text("")
    assert hostile_value_failures(monkeypatch, [
        command, f"--output_dir={tmp_path}", "--dataset.kind=csv",
        f"--dataset.path={tmp_path / 'csv'}"]) == []
    assert not (tmp_path / "cache").exists()


def hostile_value_failures(monkeypatch, args):
    """The cases of the config fuzz gate that neither exit 2 nor reach the data."""
    failures = []
    for dotted in leaves(cli.DEFAULT_CONFIG):
        for value in HOSTILE_VALUES:
            huge = value in (str(HUGE), str(NO_FLOAT))
            # a huge count is refused by load_config, and tested there alone
            # (test_a_count_no_array_can_index_is_refused): a run would exhaust memory
            if dotted in ("dataset.path", "output_dir") or huge and dotted in COUNT_LEAVES:
                continue
            result = invoke_with_sentinel(monkeypatch, [*args, f"--{dotted}={value}"])
            if not (isinstance(result.exception, DataReached) or result.exit_code == 2
                    and isinstance(result.exception, SystemExit)):
                failures.append(f"--{dotted}={value}: exit {result.exit_code}, "
                                f"{result.exception!r}")
    return failures


class TestReports:
    def test_eval_scores_the_protocol_once(self, tmp_path, monkeypatch):
        calls = []
        original = matching_eval.system_tests

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)
        monkeypatch.setattr(matching_eval, "system_tests", counted)
        for revocability_keys in (0, 3):
            calls.clear()
            result = invoke(["eval", f"--output_dir={tmp_path}",
                             f"--eval.revocability_keys={revocability_keys}"] + SMALL)
            assert result.exit_code == 0, result.output
            assert len(calls) == 1
            histogram = (tmp_path / "score_histograms.csv").read_text().splitlines()
            report = json.loads((tmp_path / "eval_report.json").read_text())
            assert sum(int(row.split(",")[2]) for row in histogram[1:]) \
                == report["n_genuine"]
            assert sum(int(row.split(",")[3]) for row in histogram[1:]) \
                == report["n_impostor"]


    def test_eval_report_and_reproducibility(self, tmp_path):
        args = ["eval", f"--output_dir={tmp_path}",
                "--eval.revocability_keys=4", "--eval.unlink_keys=4",
                "--dataset.synthetic.n_subjects=6",
                "--dataset.synthetic.n_channels=4",
                "--dataset.synthetic.duration_s=14",
                "--transform.enroll_frames=3", "--transform.query_frames=1"]
        assert invoke(args).exit_code == 0
        report_path = tmp_path / "eval_report.json"
        report = json.loads(report_path.read_text())
        assert 0.0 <= report["eer"] <= 0.5
        assert report["config_hash"]
        assert (tmp_path / "roc.csv").exists()
        with (tmp_path / "score_histograms.csv").open(newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["bin_low", "bin_high", "genuine", "impostor"]
        cells = np.array([[float(cell) for cell in row] for row in rows])
        edges = np.linspace(0.0, 1.0, 51)
        assert np.array_equal(cells[:, 0], edges[:-1])
        assert np.array_equal(cells[:, 1], edges[1:])
        assert cells[:, 2].sum() == report["n_genuine"]
        first = report_path.read_bytes()
        assert invoke(args).exit_code == 0
        assert report_path.read_bytes() == first

    def test_every_json_output_carries_its_stamps(self, tmp_path):
        args = ["--attack.max_attempts=200", "--slx.seeds=1", "--slx.n_users=3"] + SMALL
        for command in ("synth", "extract", "eval", "attack", "slx"):
            assert invoke([command, f"--output_dir={tmp_path}"] + args).exit_code == 0
        config = cli.load_config(None, (f"--output_dir={tmp_path}", *args), None)
        stamp = {"config_hash": cli.config_hash(config), "master_seed": 1234,
                 "version": __version__}
        seeds = {"dataset/manifest.json": None, "features/manifest.json": None,
                 "slx_report.json": None, "eval_report.json": None,
                 "attack_report.json": {"attack": config["attack"]["seed"]}}
        for name, report_seeds in seeds.items():
            report = json.loads((tmp_path / name).read_text())
            assert {key: report.get(key) for key in stamp} == stamp, name
            assert report.get("seeds") == report_seeds, name

    def test_attack_report(self, tmp_path):
        args = ["attack", f"--output_dir={tmp_path}", "--transform.theta=0.5",
                "--attack.max_attempts=300",
                "--attack.second_attack_keys=5"] + SMALL
        assert invoke(args).exit_code == 0
        report = json.loads((tmp_path / "attack_report.json").read_text())
        assert "success_rate" in report
        assert "second_attack" in report
        # a climb succeeds at transform.theta, not at its 0.389 default
        assert report["theta"] == 0.5
        outcomes = report["per_user"]
        assert [o["success"] for o in outcomes] == [o["best_score"] <= 0.5 for o in outcomes]
        assert any(0.389 < o["best_score"] <= 0.5 for o in outcomes)
        trace = (tmp_path / "attack_trace.csv").read_text().splitlines()
        assert trace[0] == "subject,attempt,score"
        assert len(trace) > 1

    def test_template_space_second_attack_replays_every_success(self, tmp_path):
        keys = 2
        args = ["attack", f"--output_dir={tmp_path}", "--attack.case=template_space",
                "--transform.theta=0.5", "--attack.max_attempts=300",
                f"--attack.second_attack_keys={keys}"] + SMALL
        assert invoke(args).exit_code == 0
        report = json.loads((tmp_path / "attack_report.json").read_text())
        successes = sum(entry["success"] for entry in report["per_user"])
        second = report["second_attack"]
        assert second["n_tests"] == keys * successes > 0
        assert [entry["kind"] for entry in second["per_solution"]] == ["template"] * successes

    def test_attack_reproducibility(self, tmp_path):
        args = ["attack", f"--output_dir={tmp_path}", "--transform.theta=0.3",
                "--attack.max_attempts=400", "--attack.second_attack_keys=5"] + SMALL
        outputs = [tmp_path / "attack_report.json", tmp_path / "attack_trace.csv"]
        assert invoke(args).exit_code == 0
        first = [path.read_bytes() for path in outputs]
        assert invoke(args).exit_code == 0
        assert [path.read_bytes() for path in outputs] == first

    def test_slx_report(self, tmp_path):
        args = ["slx", f"--output_dir={tmp_path}", "--slx.seeds=2",
                "--dataset.synthetic.n_subjects=5",
                "--dataset.synthetic.n_channels=4",
                "--dataset.synthetic.duration_s=14",
                "--slx.n_users=3"]
        assert invoke(args).exit_code == 0
        rows = json.loads((tmp_path / "slx_report.json").read_text())["rows"]
        assert len(rows) == 2
        table = (tmp_path / "slx_table.csv").read_text().splitlines()
        assert len(table) == 3

    @pytest.mark.parametrize("extra, users", [
        (["--slx.n_users=4"], 4),
        (["--dataset.synthetic.n_subjects=2"], 2),  # null n_users: max(2, 80 %)
    ], ids=["all-subjects", "default-on-two"])
    def test_slx_without_an_intruder_exits_before_loading(self, tmp_path, monkeypatch,
                                                          extra, users):
        def never(config):
            raise AssertionError("load_features called")
        monkeypatch.setattr(cli, "load_features", never)
        result = invoke(["slx", f"--output_dir={tmp_path}"] + SMALL + extra)
        assert result.exit_code == 2, result.output
        assert result.output == (f"config error: user-set size {users} must leave a "
                                 f"non-empty intruder set out of {users} subjects\n")
        assert not (tmp_path / "cache").exists()

    def test_seed_env_is_not_read(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NEUROLOCK_SEED", "777")
        args = ["synth", f"--output_dir={tmp_path}"] + SMALL
        assert invoke(args).exit_code == 0
        manifest = json.loads((tmp_path / "dataset" / "manifest.json").read_text())
        assert manifest["master_seed"] == cli.DEFAULT_CONFIG["master_seed"]

    def test_config_file_round_trip(self, tmp_path):
        config = {
            "output_dir": str(tmp_path / "from_config"),
            "master_seed": 555,
            "dataset": {"synthetic": {"n_subjects": 3, "n_channels": 4,
                                      "duration_s": 10.0}},
        }
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config))
        assert invoke(["synth", f"--config={config_path}"]).exit_code == 0
        manifest = json.loads(
            (tmp_path / "from_config" / "dataset" / "manifest.json").read_text())
        assert manifest["master_seed"] == 555
        assert len(manifest["subjects"]) == 3

    def test_config_file_with_scalar_section_rejected(self, tmp_path):
        config_path = tmp_path / "bad.json"
        config_path.write_text(json.dumps({"transform": 0.5}))
        result = invoke(["synth", f"--config={config_path}"])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)

    def test_config_file_with_unknown_key_rejected(self, tmp_path):
        config_path = tmp_path / "bad.json"
        config_path.write_text(json.dumps({"no_such_section": 1}))
        assert invoke(["synth", f"--config={config_path}"]).exit_code == 2


# the config sections and leaves the features depend on, each with another valid value
FEATURE_LEAVES = {
    "dataset.kind": "synthetic", "dataset.fs": 128.0,
    "dataset.synthetic.n_subjects": 5, "dataset.synthetic.n_channels": 5,
    "dataset.synthetic.duration_s": 15.0, "dataset.synthetic.noise_level": 0.2,
    "dsp.prefilter": [1.0, 42.0], "dsp.band": [12.0, 30.0], "dsp.frame_seconds": 1.0,
    "dsp.overlap": 0.5, "dsp.fir_order": 100, "dsp.rho_bins": 16,
    "features.kind": "psd", "master_seed": 99,
}
# every other leaf, each with another valid value
OTHER_LEAVES = {
    "transform.delta": 0.3, "transform.enroll_frames": 4, "transform.query_frames": 2,
    "transform.theta": 0.3, "transform.lost_key": False, "transform.master_key": 1,
    "transform.calibration_margin": 0.5,
    "eval.revocability_keys": 2, "eval.unlink_keys": 2,
    "attack.case": "template_space", "attack.max_attempts": 10,
    "attack.seed": 1, "attack.second_attack_keys": 1,
    "slx.split": 0.5, "slx.n_users": 3, "slx.seeds": 2,
}


@pytest.fixture
def extractions(monkeypatch):
    """Every feature extraction the CLI runs, counted."""
    calls = []
    build = cli.build_feature_dataset
    monkeypatch.setattr(cli, "build_feature_dataset",
                        lambda *args: calls.append(args) or build(*args))
    return calls


@pytest.fixture
def csv_dataset(tmp_path):
    assert invoke(["synth", f"--output_dir={tmp_path}"] + SMALL).exit_code == 0
    return tmp_path / "dataset"


class TestFeatureCache:
    def test_outputs_equal_cold_warm_and_after_deleting_the_cache(self, tmp_path,
                                                                   extractions):
        out = tmp_path / "out"
        template = out / "S001.ceeg"
        commands = [
            ["extract"],
            ["enroll", "--subject=S001", "--key=777"],
            ["verify", f"--template={template}", "--subject=S001", "--key=777",
             "--from-frame=0", "--frames=3"],
            ["verify", f"--template={template}", "--subject=S002", "--key=777"],
            ["eval", "--eval.revocability_keys=2"],
            ["attack", "--attack.max_attempts=200", "--attack.second_attack_keys=2"],
            ["slx", "--slx.seeds=2", "--slx.n_users=3"],
        ]

        def run_all(before_each):
            results = []
            for args in commands:
                before_each()
                result = invoke(args + [f"--output_dir={out}"] + SMALL)
                results.append((result.exit_code, result.output))
            files = {path.relative_to(out): path.read_bytes() for path in out.rglob("*")
                     if path.is_file() and path.parent.name != "cache"}
            return results, files

        first = run_all(lambda: None)  # the first command extracts and fills the cache
        assert len(extractions) == 1
        warm = run_all(lambda: None)
        assert len(extractions) == 1
        deleted = run_all(lambda: shutil.rmtree(out / "cache"))  # every command cold
        assert len(extractions) == 1 + len(commands)
        assert first == warm == deleted
        codes = [code for code, _ in first[0]]
        assert codes[:3] == [0, 0, 0] and codes[3] in (0, 4) and codes[4:] == [0, 0, 0]
        assert {"S001.ceeg", "eval_report.json", "attack_report.json", "slx_report.json",
                "features/S001_EO.csv"} <= {str(path) for path in first[1]}
        assert len(list((out / "cache").iterdir())) == 1

    def test_key_covers_every_feature_leaf_and_no_other(self, csv_dataset):
        assert set(FEATURE_LEAVES) | set(OTHER_LEAVES) | {"dataset.path", "output_dir"} \
            == set(leaves(cli.DEFAULT_CONFIG))
        base = ["--dataset.kind=csv", f"--dataset.path={csv_dataset}"] + SMALL

        def key(*overrides):
            return cli.feature_key(cli.load_config(None, (*base, *overrides), None))
        reference = key()
        copy = csv_dataset.parent / "copy"
        shutil.copytree(csv_dataset, copy)
        changed = {dotted: key(f"--{dotted}={json.dumps(value)}")
                   for dotted, value in {**FEATURE_LEAVES, "dataset.path": str(copy)}.items()}
        assert reference not in changed.values()
        assert len(set(changed.values())) == len(changed)
        for dotted, value in {**OTHER_LEAVES, "output_dir": "elsewhere"}.items():
            assert key(f"--{dotted}={json.dumps(value)}") == reference, dotted

    @pytest.mark.parametrize("kind", ["csv", "edf"])
    def test_one_input_byte_changes_the_key_and_extracts_again(self, tmp_path, csv_dataset,
                                                               extractions, kind):
        root = csv_dataset
        if kind == "edf":
            root = tmp_path / "edf"
            root.mkdir()
            for path in sorted(csv_dataset.glob("*.csv")):
                write_edf(read_csv_matrix(path, fs=160.0), root / f"{path.stem}.edf",
                          record_seconds=1.0)
        args = ["extract", f"--output_dir={tmp_path / 'out'}", f"--dataset.kind={kind}",
                f"--dataset.path={root}"] + SMALL
        config = cli.load_config(None, tuple(args[1:]), None)
        assert invoke(args).exit_code == 0
        assert invoke(args).exit_code == 0
        assert len(extractions) == 1
        before = cli.feature_key(config)
        path = root / f"S002_EC.{kind}"
        blob = bytearray(path.read_bytes())
        blob[-3] = ord("7") if blob[-3] != ord("7") else ord("3")  # a digit / a sample byte
        path.write_bytes(bytes(blob))
        assert cli.feature_key(config) != before
        assert invoke(args).exit_code == 0
        assert len(extractions) == 2
        assert [p.name for p in (tmp_path / "out" / "cache").iterdir()] == [
            f"features-{cli.feature_key(config)}.npz"]  # the stale file is gone


def test_the_cli_runs_without_scipy(tmp_path):
    """A cold graph enroll, a warm verify and a cold concat extract exit 0 in a
    process where `import scipy` fails, and write what an unblocked process writes,
    which loads no scipy module either."""
    script = f"""
import sys
if sys.argv[1] == "blocked":
    sys.modules["scipy"] = None  # every import of scipy or a submodule now raises
from neurolock import cli
for args in ({["enroll", "--subject=S001", "--key=777"]!r},
             {["verify", "--template=out/S001.ceeg", "--subject=S001", "--key=777",
               "--from-frame=0", "--frames=3"]!r},
             {["extract", "--features.kind=concat"]!r}):
    cli.main(args=args + {SMALL!r}, standalone_mode=False)
print(sorted(name for name, module in sys.modules.items()
             if name.split(".")[0] == "scipy" and module is not None))
"""
    outputs = {}
    for mode in ("blocked", "unblocked"):
        (tmp_path / mode).mkdir()
        lines = run_in_a_fresh_process(script, mode, cwd=tmp_path / mode)
        out = tmp_path / mode / "out"
        files = {str(path.relative_to(out)): path.read_bytes() for path in out.rglob("*")
                 if path.is_file() and path.parent.name != "cache"}
        outputs[mode] = lines, files, sorted(path.name for path in (out / "cache").iterdir())
    lines, files, cache = outputs["blocked"]
    assert lines == ["enrolled S001 -> out/S001.ceeg",
                     "ACCEPT score=0.000000 raw=0 threshold=0.389",
                     "wrote 8 feature files to out/features", "[]"]
    assert {"S001.ceeg", "features/S001_EO.csv", "features/manifest.json"} <= set(files)
    assert len(cache) == 1  # the concat features replaced the graph features
    assert outputs["unblocked"] == outputs["blocked"]


def run_in_a_fresh_process(script, *argv, cwd=None):
    """The stdout lines of a Python script run with `argv` in a new interpreter."""
    paths = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                          text=True, env=env, timeout=120, cwd=cwd)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()
