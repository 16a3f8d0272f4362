"""Command-line orchestration: dataset preparation, enrollment, verification,
evaluation campaigns, attack campaigns, and report emission.

One JSON config file drives everything; individual values can be overridden
on the command line with ``--section.key=value`` tokens (parsed as JSON where
possible), and ``--seed`` sets ``master_seed``. Each value has one setting:
``transform.theta`` is the threshold of ``verify``, the attack campaign and the
second attack, and ``dataset.fs`` the sampling rate of synthetic and csv data.
The commands stamp every JSON report and manifest with the config hash, the
master seed and the package version (``_stamp``), and identical configs
reproduce identical outputs byte for byte.
Extracted features are cached under ``<output_dir>/cache`` (``load_features``).

Exit codes: 0 success, 2 configuration error, 3 data error, 4 verification
reject (verify only).
"""

from __future__ import annotations

import copy
import functools
import hashlib
import io
import json
import numbers
from collections.abc import Iterable
from pathlib import Path

import click
import numpy as np

from . import __version__, baseline_features, connectivity, dsp, graph_features, ingest, pipeline
from . import attacks as atk
from . import matching_eval as me
from . import sl_eval
from . import transform as tr
from .errors import MAX_COUNT, ConfigError, NeurolockError, require
from .ingest import (Protocol, Recording, SyntheticSpec, atomic_write, csv_text,
                     read_csv_matrix, read_edf, synthesize, write_csv_matrix)
from .pipeline import (FEATURE_KINDS, DspConfig, FeatureDataset, build_feature_dataset,
                       check_extraction, same_channels, write_feature_csv)
from .system import AuthSystem, SystemConfig

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_REJECT = 4

DATASET_KINDS = ("synthetic", "csv", "edf")

DEFAULT_CONFIG = {
    "dataset": {
        "kind": "synthetic",          # synthetic | csv | edf
        "path": None,                 # directory for csv/edf datasets
        "fs": 160.0,                  # sampling rate of synthetic and csv data
        "synthetic": {
            "n_subjects": 8,
            "n_channels": 8,
            "duration_s": 62.0,
            "noise_level": 0.1,
        },
    },
    "dsp": {
        "prefilter": [0.5, 42.0],
        "band": [13.0, 30.0],
        "frame_seconds": 2.0,
        "overlap": 0.0,
        "fir_order": 330,
        "rho_bins": None,
    },
    "features": {"kind": "graph"},
    "transform": {
        "delta": 0.5,
        "enroll_frames": 10,
        "query_frames": 1,
        "theta": 0.389,
        "lost_key": True,
        "master_key": 24141,
        "calibration_margin": 1.0,
    },
    "eval": {"revocability_keys": 0, "unlink_keys": 0},
    "attack": {
        "case": "feature_space",
        "max_attempts": 20000,
        "seed": 0,
        "second_attack_keys": 0,
    },
    "slx": {"split": 0.8, "n_users": None, "seeds": 5},
    "output_dir": "out",
    "master_seed": 1234,
}


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def _deep_merge(base: dict, update: dict, path="") -> dict:
    out = copy.deepcopy(base)
    for key, value in update.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key {where!r}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config section {where!r} must be an object")
            out[key] = _deep_merge(base[key], value, where)
        else:
            out[key] = value
    return out


def _apply_override(config: dict, token: str) -> None:
    token = token.lstrip("-")
    if "=" not in token:
        raise ConfigError(f"override {token!r} must look like section.key=value")
    dotted, raw_value = token.split("=", 1)
    try:
        value = json.loads(raw_value)
    except json.JSONDecodeError:
        value = raw_value
    node = config
    *parents, leaf = dotted.split(".")
    for part in parents:
        node = node.get(part) if isinstance(node, dict) else None
    if not isinstance(node, dict) or leaf not in node:
        raise ConfigError(f"unknown config path {dotted!r}")
    if isinstance(node[leaf], dict):
        raise ConfigError(f"{dotted!r} is a config section; override its keys one by one")
    node[leaf] = value


def load_config(config_path: str | None, overrides: tuple[str, ...],
                seed_flag: int | None) -> dict:
    """Defaults, then the config file, overrides and --seed.

    Every value is checked here, before any data is read or synthesized: the
    dataclass sections by their constructors, the rest by the rules below.
    """
    config = copy.deepcopy(DEFAULT_CONFIG)
    if config_path:
        try:
            user = json.loads(Path(config_path).read_text())
        except (OSError, ValueError) as exc:  # unreadable, not UTF-8, or not JSON
            raise ConfigError(f"config file {config_path!r}: {exc}") from None
        if not isinstance(user, dict):
            raise ConfigError(f"config file {config_path!r} must hold a JSON object")
        config = _deep_merge(config, user)
    for token in overrides:
        _apply_override(config, token)
    if seed_flag is not None:
        config["master_seed"] = seed_flag
    ds, slx = config["dataset"], config["slx"]
    count = (numbers.Integral, lambda v: 0 <= v <= MAX_COUNT, f"an integer from 0 to {MAX_COUNT}")
    for name, value, kind, ok, what in (
            ("dataset.kind", ds["kind"], str, lambda v: v in DATASET_KINDS,
             f"one of {', '.join(DATASET_KINDS)}"),
            ("dataset.path", ds["path"], (str, type(None)),
             lambda v: v is not None or ds["kind"] == "synthetic",
             "null or a directory path (required when dataset.kind is csv or edf)"),
            ("dataset.fs", ds["fs"], numbers.Real, lambda v: 0 < v < np.inf,
             "a finite positive number"),
            ("features.kind", config["features"]["kind"], str, lambda v: v in FEATURE_KINDS,
             f"one of {', '.join(FEATURE_KINDS)}"),
            ("eval.revocability_keys", config["eval"]["revocability_keys"], *count),
            ("eval.unlink_keys", config["eval"]["unlink_keys"], numbers.Integral,
             lambda v: v == 0 or 2 <= v <= MAX_COUNT, f"0 or an integer from 2 to {MAX_COUNT}"),
            ("attack.second_attack_keys", config["attack"]["second_attack_keys"], *count),
            ("slx.split", slx["split"], numbers.Real, lambda v: 0 < v < 1,
             "a number in (0, 1)"),
            ("slx.n_users", slx["n_users"], (numbers.Integral, type(None)),
             lambda v: v is None or v >= 2, "null or an integer of at least 2"),
            ("slx.seeds", slx["seeds"], numbers.Integral, lambda v: 1 <= v <= MAX_COUNT,
             f"an integer from 1 to {MAX_COUNT}"),
            ("output_dir", config["output_dir"], str, lambda v: True, "a string"),
            ("master_seed", config["master_seed"], numbers.Integral, lambda v: v >= 0,
             "a non-negative integer")):
        require(name, value, kind, ok, what)
    for section, build in (("transform", system_config), ("dsp", dsp_config),
                           ("dataset.synthetic", synthetic_spec), ("attack", attack_config)):
        try:
            build(config)
        except ConfigError as exc:
            raise ConfigError(f"{section}.{exc}") from None
    return config


def config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# dataset loading and the feature cache
# ---------------------------------------------------------------------------

def dataset_files(config: dict) -> list[tuple[Path, str, Protocol]]:
    """(path, subject, protocol) of every recording of a csv or edf dataset
    directory, sorted by path; the subject and protocol come from the
    ``<subject>_<PROTOCOL>`` file name."""
    ds = config["dataset"]
    root = Path(ds["path"])
    suffix = f".{ds['kind']}"
    paths = sorted(root.glob(f"*{suffix}"))
    if not paths:
        raise ConfigError(f"no {suffix} files in {root}")
    files = []
    for path in paths:
        stem = path.stem
        if "_" not in stem:
            raise ConfigError(
                f"{path.name}: expected <subject>_<PROTOCOL>{suffix} naming")
        subject, proto_text = stem.rsplit("_", 1)
        try:
            protocol = Protocol(proto_text.upper())
        except ValueError:
            raise ConfigError(f"{path.name}: unknown protocol {proto_text!r}") from None
        files.append((path, subject, protocol))
    return files


def dataset_entries(config: dict) -> list[tuple[str, Protocol]]:
    """(subject, protocol) of every recording in extraction order, read from the
    config or the file names alone."""
    if config["dataset"]["kind"] == "synthetic":
        spec = synthetic_spec(config)
        return [(subject, protocol) for subject in spec.subject_ids()
                for protocol in spec.protocols]
    return [(subject, protocol) for _, subject, protocol in dataset_files(config)]


def load_recordings(config: dict) -> Iterable[Recording]:
    """Synthetic data as a generator; a file dataset read whole and its channels checked."""
    ds = config["dataset"]
    if ds["kind"] == "synthetic":
        return synthesize(synthetic_spec(config))
    read = functools.partial(read_csv_matrix, fs=ds["fs"]) if ds["kind"] == "csv" else read_edf
    return list(same_channels([read(path, protocol_tag=protocol, subject_id=subject)
                               for path, subject, protocol in dataset_files(config)]))


# the modules whose code decides the feature values
_EXTRACTION_MODULES = (ingest, dsp, connectivity, graph_features, baseline_features,
                       pipeline)


def feature_key(config: dict) -> str:
    """Hash of everything the features depend on: the dataset, dsp and features
    sections and master_seed, the name and bytes of each input file, the
    extraction modules' source, and the numpy version: the package's one
    numerical dependency."""
    files = ([] if config["dataset"]["kind"] == "synthetic" else
             [[path.name, hashlib.sha256(path.read_bytes()).hexdigest()]
              for path, _, _ in dataset_files(config)])
    return config_hash({
        "config": {name: config[name] for name in ("dataset", "dsp", "features", "master_seed")},
        "files": files,
        "sources": {module.__name__: hashlib.sha256(Path(module.__file__).read_bytes()).hexdigest()
                    for module in _EXTRACTION_MODULES},
        "versions": [np.__version__]})


def read_feature_cache(path: Path, entries: list[tuple[str, Protocol]],
                       kind: str) -> FeatureDataset | None:
    """The features stored at ``path`` for ``entries``, or None when the file is
    missing, unreadable, or holds other entries or anything but finite float64
    matrices of one row per frame and one column per name."""
    members = [f"{subject}_{protocol.value}" for subject, protocol in entries]
    try:
        with np.load(path, allow_pickle=False) as npz:
            # np.load reads a member only as far as its header's shape says,
            # which can skip the zip checksum; testzip reads every byte
            if npz.zip.testzip() is not None or sorted(npz.files) != sorted(
                    [*members, "names"]):
                return None
            names, *matrices = (npz[name] for name in ("names", *members))
    except Exception:  # zipfile, zlib, bz2, lzma and numpy each raise their own; all are a miss
        return None
    if names.ndim != 1 or names.dtype.kind != "U" or not all(
            m.dtype == np.float64 and m.ndim == 2 and m.shape[0] > 0
            and m.shape[1] == names.size > 0 and np.isfinite(m).all() for m in matrices):
        return None
    return FeatureDataset(vectors=dict(zip(entries, matrices)), feature_kind=kind,
                          names=names.tolist())


def write_feature_cache(path: Path, dataset: FeatureDataset) -> None:
    buffer = io.BytesIO()
    np.savez(buffer, names=np.array(dataset.names, dtype=str),
             **{f"{subject}_{protocol.value}": matrix
                for (subject, protocol), matrix in dataset.vectors.items()})
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write(path, buffer.getvalue())


def load_features(config: dict, frames_needed: int = 1) -> FeatureDataset:
    """The configured dataset's features, read from
    ``<output_dir>/cache/features-<feature_key>.npz`` when that file holds
    them; otherwise extracted and written there, replacing every other key's
    file in the directory. Refused first, before any data is read: for synthetic
    and csv data, sampled at dataset.fs, what `check_extraction` refuses, given for
    synthetic data the recording's sample and channel counts and `frames_needed`."""
    ds, kind = config["dataset"], config["features"]["kind"]
    if ds["kind"] != "edf":  # an EDF file's own rate is checked as it is extracted
        spec = synthetic_spec(config) if ds["kind"] == "synthetic" else None
        check_extraction(dsp_config(config), ds["fs"], kind, spec and spec.n_samples,
                         spec and spec.n_channels, frames_needed)
    path = Path(config["output_dir"]) / "cache" / f"features-{feature_key(config)}.npz"
    dataset = read_feature_cache(path, dataset_entries(config), kind)
    if dataset is None:
        dataset = build_feature_dataset(load_recordings(config), dsp_config(config), kind)
        write_feature_cache(path, dataset)
        for stale in path.parent.glob("features-*.npz"):
            if stale != path:
                stale.unlink(missing_ok=True)
    return dataset


def system_features(config: dict) -> FeatureDataset:
    """`load_features`, refusing a synthetic recording short of F_e + F_t frames."""
    t = config["transform"]
    return load_features(config, t["enroll_frames"] + t["query_frames"])


def synthetic_spec(config: dict) -> SyntheticSpec:
    return SyntheticSpec(**config["dataset"]["synthetic"], fs=config["dataset"]["fs"],
                         master_seed=config["master_seed"])


def dsp_config(config: dict) -> DspConfig:
    return DspConfig(**config["dsp"])


def system_config(config: dict) -> SystemConfig:
    return SystemConfig(**config["transform"])


def attack_config(config: dict) -> atk.AttackConfig:
    a = config["attack"]
    return atk.AttackConfig(case=a["case"], theta=config["transform"]["theta"],
                            max_attempts=a["max_attempts"], seed=a["seed"])


# ---------------------------------------------------------------------------
# CLI scaffolding
# ---------------------------------------------------------------------------

@click.group()
@click.version_option(version=__version__, prog_name="neurolock")
def main():
    """Cancellable EEG-template pipeline and evaluation harness."""


_SHARED_OPTIONS = (
    click.option("--config", "config_path", type=str, default=None,
                 help="JSON config file."),
    click.option("--seed", "seed_flag", type=int, default=None,
                 help="Override the master seed."),
    click.argument("overrides", nargs=-1, type=click.UNPROCESSED),
)


def command(*extra_options):
    """Register a subcommand of ``main`` that takes the loaded config.

    The command gets ``extra_options`` plus --config, --seed and the
    ``--section.key=value`` overrides. A ConfigError exits 2; any other
    NeurolockError or an OSError (a path that cannot be read or written)
    exits 3; a SystemExit raised by the command (verify's reject) passes
    through.
    """
    def register(body):
        def run(config_path, seed_flag, overrides, **options):
            try:
                body(load_config(config_path, overrides, seed_flag), **options)
            except ConfigError as exc:
                click.echo(f"config error: {exc}", err=True)
                raise SystemExit(EXIT_CONFIG)
            except (NeurolockError, OSError) as exc:
                click.echo(f"data error: {exc}", err=True)
                raise SystemExit(EXIT_DATA)
        run.__doc__ = body.__doc__
        for option in reversed(extra_options + _SHARED_OPTIONS):
            run = option(run)
        return main.command(body.__name__,
                            context_settings={"ignore_unknown_options": True})(run)
    return register


def _out_dir(config: dict, *parts: str) -> Path:
    out = Path(config["output_dir"], *parts)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _stamp(config: dict) -> dict:
    return {"config_hash": config_hash(config),
            "master_seed": config["master_seed"],
            "version": __version__}


@command()
def synth(config):
    """Write the synthetic dataset as CSV matrices."""
    out = _out_dir(config, "dataset")
    for rec in synthesize(synthetic_spec(config)):  # each written as it is made
        write_csv_matrix(rec, out / f"{rec.subject_id}_{rec.protocol_tag.value}.csv")
    entries = dataset_entries(config)
    manifest = {"fs": config["dataset"]["fs"],
                "subjects": sorted({subject for subject, _ in entries}),
                "protocols": sorted({protocol.value for _, protocol in entries}),
                **_stamp(config)}
    atomic_write(out / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True))
    click.echo(f"wrote {len(entries)} recordings to {out}")


@command()
def extract(config):
    """Extract per-frame feature vectors to one CSV per subject and protocol."""
    dataset = load_features(config)
    out = _out_dir(config, "features")
    for (subject, protocol), matrix in sorted(dataset.vectors.items(),
                                              key=lambda kv: (kv[0][0], kv[0][1].value)):
        write_feature_csv(out / f"{subject}_{protocol.value}.csv", matrix, dataset.names)
    manifest = {"feature_kind": dataset.feature_kind, "dim": dataset.dim,
                "subjects": dataset.subjects,
                "protocols": [p.value for p in dataset.protocols],
                **_stamp(config)}
    atomic_write(out / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True))
    click.echo(f"wrote {len(dataset.vectors)} feature files to {out}")


@command(click.option("--subject", required=True, help="Subject id to enroll."),
         click.option("--key", "user_key", type=int, required=True, help="User key."),
         click.option("--out", "template_path", type=str, default=None,
                      help="Template file path (default: <output_dir>/<subject>.ceeg)."))
def enroll(config, subject, user_key, template_path):
    """Enroll one subject and write the template file."""
    require("--key", user_key, *tr.KEY_RULE)
    path = Path(template_path) if template_path else _out_dir(config) / f"{subject}.ceeg"
    if not path.parent.is_dir():
        raise NotADirectoryError(f"cannot write the template {path}: "
                                 f"{path.parent} is not a directory")
    if subject not in {s for s, _ in dataset_entries(config)}:
        raise ConfigError(f"unknown subject {subject!r}")
    system = AuthSystem(system_features(config), system_config(config))
    tr.save_template(system.reissue(subject, user_key).template, path)
    click.echo(f"enrolled {subject} -> {path}")


@command(click.option("--template", "template_path", required=True, help="Template file."),
         click.option("--subject", required=True, help="Subject supplying query frames."),
         click.option("--key", "user_key", type=int, required=True,
                      help="User key the account is provisioned with."),
         click.option("--from-frame", "from_frame", type=int, default=None,
                      help="First query frame (default: first post-enrollment frame)."),
         click.option("--frames", "n_frames", type=int, default=None,
                      help="Frames averaged into the query (default: query_frames)."))
def verify(config, template_path, subject, user_key, from_frame, n_frames):
    """Generate a query from the subject's frames and match the template."""
    for name, value, kind, ok, what in (
            ("--key", user_key, *tr.KEY_RULE),
            ("--from-frame", from_frame, numbers.Integral, lambda v: 0 <= v <= MAX_COUNT,
             f"an integer from 0 to {MAX_COUNT}"),
            ("--frames", n_frames, numbers.Integral, lambda v: 1 <= v <= MAX_COUNT,
             f"an integer from 1 to {MAX_COUNT}")):
        if value is not None:
            require(name, value, kind, ok, what)
    enrolled = tr.load_template(template_path)
    subjects = {s for s, _ in dataset_entries(config)}
    if subject not in subjects:
        raise ConfigError(f"unknown subject {subject!r}")
    claimed = enrolled.meta.subject_id
    if claimed not in subjects:
        raise ConfigError(f"template subject {claimed!r} not in dataset")
    sys_cfg = system_config(config)
    system = AuthSystem(system_features(config), sys_cfg)
    system.revoke(claimed, user_key)
    start = sys_cfg.enroll_frames if from_frame is None else from_frame
    query = system.query_template(claimed, subject, start, n_frames)
    result = tr.match(query, enrolled, sys_cfg.theta)
    decision = "ACCEPT" if result.decision else "REJECT"
    click.echo(f"{decision} score={result.score:.6f} raw={result.raw} "
               f"threshold={result.threshold}")
    if not result.decision:
        raise SystemExit(EXIT_REJECT)


@command()
def eval(config):
    """Run the evaluation protocol and emit report, ROC, and histograms."""
    synthetic = config["dataset"]["kind"] == "synthetic"
    n = len({s for s, _ in dataset_entries(config)})
    if n < 2:  # an impostor score pairs two subjects
        source = "dataset.synthetic.n_subjects" if synthetic else "dataset.path"
        raise ConfigError(f"{source} gives {n} subject; eval's impostor scores need 2")
    k, floor = config["eval"]["unlink_keys"], me.MIN_UNLINK_SCORES
    require("eval.unlink_keys", k, numbers.Integral,
            lambda k: k == 0 or me.non_mated_unlink_scores(k, n) >= floor,
            f"0 or enough keys for {floor} non-mated scores of {n} subjects")
    if k and synthetic:  # a file dataset's frames are counted as it is extracted
        frames = dsp.frame_layout(synthetic_spec(config).n_samples, config["dataset"]["fs"],
                                  config["dsp"]["frame_seconds"], config["dsp"]["overlap"])[0]
        require("eval.unlink_keys", k, numbers.Integral,
                lambda k: me.mated_unlink_scores(k, n, frames) >= floor,
                f"0 or enough keys for {floor} mated scores of {n} subjects "
                f"with {frames} frames each")
    dataset = system_features(config)
    report = me.evaluate(dataset, system_config(config),
                         revocability_keys=config["eval"]["revocability_keys"],
                         unlink_keys=config["eval"]["unlink_keys"],
                         seed=config["master_seed"])
    out = _out_dir(config)
    payload = {**report.to_json_dict(), **_stamp(config)}
    atomic_write(out / "eval_report.json", json.dumps(payload, indent=2, sort_keys=True))
    atomic_write(out / "roc.csv", csv_text(
        [["threshold", "far", "frr"], *([repr(v) for v in row] for row in report.roc)]))
    scores = report.scores
    edges = np.linspace(0.0, 1.0, 51)
    g_hist = np.histogram(scores.genuine, bins=edges)[0]
    i_hist = np.histogram(scores.impostor, bins=edges)[0]
    atomic_write(out / "score_histograms.csv", csv_text(
        [["bin_low", "bin_high", "genuine", "impostor"],
         *zip(edges[:-1].tolist(), edges[1:].tolist(), g_hist.tolist(), i_hist.tolist())]))
    click.echo(f"EER {report.eer:.4f} at threshold {report.threshold_at_eer:.4f}; "
               f"|d'| {report.d_prime_abs:.3f}; reports in {out}")


@command()
def attack(config):
    """Run the hill-climbing campaign (and optional second attack)."""
    system = AuthSystem(system_features(config), system_config(config))
    a_cfg = attack_config(config)
    report = atk.run_hill_climb_campaign(system, a_cfg)
    out = _out_dir(config)
    payload = {**report.to_json_dict(), **_stamp(config)}
    if config["attack"]["second_attack_keys"]:
        # a template-space success is replayed as the gray-encoded bits the oracle accepted
        solutions = [atk.Solution(o.subject, "feature", o.solution, "computational")
                     if a_cfg.case is atk.AttackCase.FEATURE_SPACE else
                     atk.Solution(o.subject, "template", tr.gray_encode(
                         o.solution, system.users[o.subject].params.quant_range), "computational")
                     for o in report.outcomes if o.success]
        second = atk.second_attack(system, solutions,
                                   n_keys=config["attack"]["second_attack_keys"],
                                   seed=config["master_seed"])
        payload["second_attack"] = second.to_json_dict()
    atomic_write(out / "attack_report.json", json.dumps(payload, indent=2, sort_keys=True))
    atomic_write(out / "attack_trace.csv", csv_text(
        [["subject", "attempt", "score"],
         *([outcome.subject, attempt, repr(score)] for outcome in report.outcomes
           for attempt, score in enumerate(outcome.trace, 1))]))
    click.echo(f"SR {report.success_rate:.3f}; reports in {out}")


@command()
def slx(config):
    """Compare classification-style vs authentication-style evaluation."""
    sl_eval.user_set_size(config["slx"]["n_users"],
                          len({s for s, _ in dataset_entries(config)}))
    dataset = load_features(config)
    proto = dataset.protocols[0]
    per_subject = {s: dataset.frames(s, proto) for s in dataset.subjects}
    rows = sl_eval.pitfall_report(per_subject, config["slx"]["split"],
                                  config["slx"]["n_users"],
                                  seeds=tuple(range(config["slx"]["seeds"])))
    out = _out_dir(config)
    payload = {"rows": rows, **_stamp(config)}
    atomic_write(out / "slx_report.json", json.dumps(payload, indent=2, sort_keys=True))
    atomic_write(out / "slx_table.csv", csv_text(
        [["method", "evaluation", "split", "n_users",
          "accuracy", "far", "frr", "classifier_eer"],
         *([row["method"], row["evaluation"], row["split"], row["n_users"],
            repr(row["accuracy"]), repr(row["far"]), repr(row["frr"]),
            repr(row["classifier_eer"])] for row in rows)]))
    click.echo(f"wrote pitfall table ({len(rows)} rows) to {out}")


if __name__ == "__main__":
    main()
