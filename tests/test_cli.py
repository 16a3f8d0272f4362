import json

import pytest
from click.testing import CliRunner

from neurolock import cli, matching_eval
from neurolock.cli import main

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


def invoke_never_loading(monkeypatch, args):
    """Run a command that must stop with exit 2 before any data is read."""
    def never(config):
        raise AssertionError("data read or synthesized")
    monkeypatch.setattr(cli, "load_recordings", never)
    monkeypatch.setattr(cli, "synthesize", never)
    extra = ["--subject=S001", "--key=1"] if args[0] == "enroll" else []
    result = invoke(args + extra)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    return result


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
                         "--key=777", "--theta=0.389", "--from-frame=0",
                         "--frames=3", f"--output_dir={tmp_path}"] + SMALL)
        assert result.exit_code == 0, result.output
        assert "ACCEPT" in result.output
        assert "score=0.000000" in result.output

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

    def test_impostor_rejected_at_strict_threshold(self, tmp_path):
        template = tmp_path / "u.ceeg"
        invoke(["enroll", "--subject=S001", "--key=777", f"--out={template}",
                f"--output_dir={tmp_path}"] + SMALL)
        result = invoke(["verify", f"--template={template}", "--subject=S003",
                         "--key=777", "--theta=0.02",
                         f"--output_dir={tmp_path}"] + SMALL)
        assert result.exit_code == 4
        assert "REJECT" in result.output

    def test_missing_template_exits_data_error_before_loading(self, tmp_path,
                                                               monkeypatch):
        def never(config):
            raise AssertionError("load_features called")
        monkeypatch.setattr(cli, "load_features", never)
        result = invoke(["verify", f"--template={tmp_path / 'none.ceeg'}",
                         "--subject=S001", "--key=1", f"--output_dir={tmp_path}"])
        assert result.exit_code == 3, result.output
        assert result.output.startswith("data error: ")

    def test_enroll_too_few_frames_is_config_error(self, tmp_path):
        result = invoke(["enroll", "--subject=S001", "--key=1",
                         f"--output_dir={tmp_path}",
                         "--transform.enroll_frames=99"] + SMALL[:3])
        assert result.exit_code == 2


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

    def test_non_integer_seed_env_exits_before_loading(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NEUROLOCK_SEED", "x")
        result = invoke_never_loading(monkeypatch, ["synth", f"--output_dir={tmp_path}"])
        assert result.output == "config error: NEUROLOCK_SEED must be an integer, got 'x'\n"

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


class TestReports:
    def test_eval_scores_the_protocol_once(self, tmp_path, monkeypatch):
        calls = []
        original = matching_eval.protocol_tests

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)
        monkeypatch.setattr(matching_eval, "protocol_tests", counted)
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
        assert (tmp_path / "score_histograms.csv").exists()
        first = report_path.read_bytes()
        assert invoke(args).exit_code == 0
        assert report_path.read_bytes() == first

    def test_attack_report(self, tmp_path):
        args = ["attack", f"--output_dir={tmp_path}", "--attack.theta=0.5",
                "--attack.max_attempts=300",
                "--attack.second_attack_keys=5"] + SMALL
        assert invoke(args).exit_code == 0
        report = json.loads((tmp_path / "attack_report.json").read_text())
        assert "success_rate" in report
        assert "second_attack" in report
        trace = (tmp_path / "attack_trace.csv").read_text().splitlines()
        assert trace[0] == "subject,attempt,score"
        assert len(trace) > 1

    def test_attack_reproducibility(self, tmp_path):
        args = ["attack", f"--output_dir={tmp_path}", "--attack.theta=0.3",
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

    def test_seed_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NEUROLOCK_SEED", "777")
        args = ["synth", f"--output_dir={tmp_path}"] + SMALL
        assert invoke(args).exit_code == 0
        manifest = json.loads((tmp_path / "dataset" / "manifest.json").read_text())
        assert manifest["master_seed"] == 777

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
