"""Corrupted template (CEEG1), EDF and CSV files: every malformed input ends in
ParseError or EmptyRecording, never in another exception, and the error names
the file. A corrupted feature cache file is a miss: the features are extracted
again and the file is rewritten."""

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neurolock import cli
from neurolock import transform as tr
from neurolock.errors import EmptyRecording, ParseError
from neurolock.ingest import (Recording, read_csv_matrix, read_edf, write_csv_matrix,
                              write_edf)
from neurolock.pipeline import random_feature_dataset

BAD_NUMBERS = ("nan", "inf", "-1", "1e400")
N_SIGNALS = 2
N_DIMS = 3
CSV_SHAPE = (3, 16)  # channels x samples
PAYLOAD = bytes(range(7, 7 + N_DIMS))  # one byte of template bits per dimension


def edf_number_fields() -> list[tuple[str, int, int]]:
    """(name, offset, width) of every numeric EDF header field."""
    fields = [("header-bytes", 184, 8), ("record-count", 236, 8),
              ("record-duration", 244, 8), ("signal-count", 252, 4)]
    # per-signal block: label 16, transducer 80, unit 8, then the numbers
    for name, start in (("phys-min", 104), ("phys-max", 112), ("dig-min", 120),
                        ("dig-max", 128), ("samples-per-record", 216)):
        fields += [(name, 256 + start * N_SIGNALS + 8 * i, 8) for i in range(N_SIGNALS)]
    return fields


def template_meta() -> dict:
    return {"subject_id": "S001", "key_id": "0123456789ab", "delta": 0.5,
            "frames_averaged": 3,
            "quant_range": [[-1.0 - k, 1.0 + k] for k in range(N_DIMS)]}


def template_blob(meta_text: str) -> bytes:
    meta = meta_text.encode()
    return tr.TEMPLATE_MAGIC + len(meta).to_bytes(4, "big") + meta + PAYLOAD


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """A valid two-record EDF and a valid template, written by the package itself."""
    root = tmp_path_factory.mktemp("fuzz")
    data = np.random.default_rng(3).normal(scale=50.0, size=(N_SIGNALS, 64))
    write_edf(Recording(channels=["C3", "C4"], fs=32.0, data=data), root / "ok.edf",
              record_seconds=1.0)
    bits = np.unpackbits(np.frombuffer(PAYLOAD, dtype=np.uint8))
    tr.save_template(tr.CancellableTemplate(bits, tr.TemplateMeta.from_dict(template_meta())),
                     root / "ok.ceeg")
    return root, (root / "ok.edf").read_bytes(), (root / "ok.ceeg").read_bytes()


def read_cleanly(read, path, blob: bytes):
    """Write blob and read it back; only the documented data errors may escape,
    and each must name the file."""
    path.write_bytes(blob)
    try:
        return read(path)
    except (ParseError, EmptyRecording) as exc:
        assert str(exc).startswith(f"{path.name}: "), str(exc)
        return None


def test_valid_files_read(valid):
    root, edf, ceeg = valid
    assert read_edf(root / "ok.edf").data.shape == (N_SIGNALS, 64)
    assert tr.load_template(root / "ok.ceeg").n_bits == 8 * N_DIMS


@pytest.mark.parametrize("kind", ["edf", "ceeg"])
@given(cut=st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_truncated_file(valid, kind, cut):
    root, edf, ceeg = valid
    blob = edf if kind == "edf" else ceeg
    read = read_edf if kind == "edf" else tr.load_template
    assert read_cleanly(read, root / f"cut.{kind}", blob[:cut % len(blob)]) is None


@pytest.mark.parametrize("kind", ["edf", "ceeg"])
@given(flips=st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(1, 255)),
                      min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_byte_flipped_file(valid, kind, flips):
    root, edf, ceeg = valid
    blob = bytearray(edf if kind == "edf" else ceeg)
    for index, mask in flips:
        blob[index % len(blob)] ^= mask
    if kind == "edf":
        rec = read_cleanly(read_edf, root / "flip.edf", bytes(blob))
        assert rec is None or 0 < rec.fs < np.inf
    else:
        read_cleanly(tr.load_template, root / "flip.ceeg", bytes(blob))


@given(field=st.sampled_from(edf_number_fields()), text=st.sampled_from(BAD_NUMBERS))
@settings(max_examples=80, deadline=None)
def test_bad_number_in_edf_header(valid, field, text):
    root, edf, _ = valid
    _, offset, width = field
    blob = edf[:offset] + text[:width].ljust(width).encode() + edf[offset + width:]
    rec = read_cleanly(read_edf, root / "number.edf", blob)
    # -1 is legal in some fields (an unknown record count, a physical or digital
    # bound); no field accepts a non-finite number
    assert rec is None or (text == "-1" and np.isfinite(rec.data).all()
                           and 0 < rec.fs < np.inf)


@given(path=st.sampled_from(["delta", "frames_averaged"]
                            + [f"quant_range.{k}.{j}" for k in range(N_DIMS)
                               for j in range(2)]),
       literal=st.sampled_from(["NaN", "Infinity", "-Infinity", "-1", "1e400"]))
@settings(max_examples=60, deadline=None)
def test_bad_number_in_template_metadata(valid, path, literal):
    root, _, _ = valid
    meta = template_meta()
    *parents, leaf = path.split(".")
    node = meta
    for part in parents:
        node = node[part] if isinstance(node, dict) else node[int(part)]
    node[leaf if isinstance(node, dict) else int(leaf)] = "@@"
    blob = template_blob(json.dumps(meta).replace('"@@"', literal))
    template = read_cleanly(tr.load_template, root / "number.ceeg", blob)
    # -1 is a legal quant_range bound; every non-finite number is refused
    assert template is None or literal == "-1"


@pytest.mark.parametrize("field", sorted(template_meta()))
def test_missing_template_field_is_named(valid, field):
    root, _, _ = valid
    meta = template_meta()
    del meta[field]
    path = root / "missing.ceeg"
    path.write_bytes(template_blob(json.dumps(meta)))
    with pytest.raises(ParseError, match=rf"^missing\.ceeg: corrupt template metadata: "
                                         rf"missing field '{field}' \(offset 9\)$"):
        tr.load_template(path)


@pytest.fixture(scope="module")
def valid_csv(tmp_path_factory):
    """A valid CSV matrix written by the package, as rows of cell strings."""
    root = tmp_path_factory.mktemp("fuzz_csv")
    data = np.random.default_rng(4).normal(scale=50.0, size=CSV_SHAPE)
    write_csv_matrix(Recording(channels=["C3", "C4", "Cz"], fs=32.0, data=data),
                     root / "ok.csv")
    return root, [line.split(",") for line in (root / "ok.csv").read_text().splitlines()]


def csv_blob(rows) -> bytes:
    return "".join(",".join(row) + "\r\n" for row in rows).encode()


def read_csv(path):
    return read_csv_matrix(path, fs=32.0)


def test_valid_csv_reads(valid_csv):
    root, rows = valid_csv
    assert read_csv(root / "ok.csv").data.shape == CSV_SHAPE


@given(row=st.integers(0, CSV_SHAPE[0] - 1), col=st.integers(0, CSV_SHAPE[1] - 1),
       text=st.sampled_from(BAD_NUMBERS))
@settings(max_examples=60, deadline=None)
def test_bad_number_in_csv_cell(valid_csv, row, col, text):
    root, rows = valid_csv
    rows = [list(r) for r in rows]
    rows[row][col] = text
    rec = read_cleanly(read_csv, root / "number.csv", csv_blob(rows))
    # -1 is an ordinary sample; no cell accepts a non-finite number
    assert (rec is None) == (text != "-1")


@given(row=st.integers(0, CSV_SHAPE[0] - 1), extra=st.booleans())
@settings(max_examples=20, deadline=None)
def test_ragged_csv(valid_csv, row, extra):
    root, rows = valid_csv
    rows = [list(r) for r in rows]
    rows[row] = rows[row] + ["1.0"] if extra else rows[row][:-1]
    assert read_cleanly(read_csv, root / "ragged.csv", csv_blob(rows)) is None


@given(cut=st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_truncated_csv(valid_csv, cut):
    root, rows = valid_csv
    blob = csv_blob(rows)
    rec = read_cleanly(read_csv, root / "cut.csv", blob[:cut % len(blob)])
    # a cut inside the first row leaves a smaller but well-formed matrix
    assert rec is None or (rec.data.shape[0] <= CSV_SHAPE[0]
                           and np.isfinite(rec.data).all())


# -- feature cache files ------------------------------------------------------

CACHE_CONFIG = ["--dataset.synthetic.n_subjects=2", "--dataset.synthetic.n_channels=4",
                "--dataset.synthetic.duration_s=14"]


def same_features(a, b) -> bool:
    """Equal bit for bit: keys in order, float64 arrays, kind and names."""
    return (list(a.vectors) == list(b.vectors) and a.feature_kind == b.feature_kind
            and a.names == b.names
            and all(x.dtype == y.dtype == np.float64 and x.shape == y.shape
                    and x.tobytes() == y.tobytes()
                    for x, y in zip(a.vectors.values(), b.vectors.values())))


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    """A config, its cache path, the cache file's bytes and the extracted features."""
    out = tmp_path_factory.mktemp("fuzz_cache")
    config = cli.load_config(None, (*CACHE_CONFIG, f"--output_dir={out}"), None)
    features = cli.load_features(config)
    (path,) = (out / "cache").glob("features-*.npz")
    return config, path, path.read_bytes(), features


def read_cache(config, path):
    return cli.read_feature_cache(path, cli.dataset_entries(config),
                                  config["features"]["kind"])


def npz_blob(**arrays) -> bytes:
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    return buffer.getvalue()


def test_valid_cache_file_reads(cache):
    config, path, blob, features = cache
    path.write_bytes(blob)
    assert same_features(read_cache(config, path), features)
    with np.load(path, allow_pickle=False) as npz:
        assert set(npz.files) == {"names", *(f"{s}_{p.value}" for s, p in features.vectors)}


@given(cut=st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_truncated_cache_file(cache, cut):
    config, path, blob, _ = cache
    path.write_bytes(blob[:cut % len(blob)])
    assert read_cache(config, path) is None


@given(flips=st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(1, 255)),
                      min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_byte_flipped_cache_file(cache, flips):
    """A flip the zip checksums catch is a miss; one in a field nothing reads
    (a timestamp, say) leaves the features as they were."""
    config, path, blob, features = cache
    blob = bytearray(blob)
    for index, mask in flips:
        blob[index % len(blob)] ^= mask
    path.write_bytes(bytes(blob))
    read = read_cache(config, path)
    assert read is None or same_features(read, features)


def test_member_header_cut_to_fewer_rows_is_a_miss(tmp_path):
    """A member over the zip reader's 4 KiB buffer whose header claims fewer
    rows: np.load alone would return the shorter matrix unchecked."""
    features = random_feature_dataset(n_subjects=2, n_frames=31, dim=70, seed=1)
    path = tmp_path / "features.npz"
    cli.write_feature_cache(path, features)
    blob = path.read_bytes()
    path.write_bytes(blob.replace(b"'shape': (31, 70)", b"'shape': (21, 70)", 1))
    assert cli.read_feature_cache(path, list(features.vectors), "random") is None
    path.write_bytes(blob)
    assert same_features(cli.read_feature_cache(path, list(features.vectors), "random"),
                         features)


def corrupt_members(features, name):
    """The cache file's members with one inconsistency, by name."""
    members = {f"{s}_{p.value}": m for (s, p), m in features.vectors.items()}
    first = next(iter(members))
    if name == "nan":
        members[first] = members[first].copy()
        members[first][0, 0] = np.nan
    elif name == "inf":
        members[first] = np.full_like(members[first], np.inf)
    elif name == "one-dim":
        members[first] = members[first][0]
    elif name == "transposed":
        members[first] = members[first].T.copy()
    elif name == "no-frames":
        members[first] = members[first][:0]
    elif name == "float32":
        members[first] = members[first].astype(np.float32)
    elif name == "big-endian":
        members[first] = members[first].astype(">f8")
    elif name == "missing-member":
        del members[first]
    elif name == "extra-member":
        members["S999_EO"] = members[first]
    elif name == "object":
        members[first] = np.array([None, 1.0], dtype=object)
    names = np.array(features.names)
    if name == "short-names":
        names = names[:-1]
    elif name == "numeric-names":
        names = np.arange(names.size, dtype=float)
    elif name == "missing-names":
        return members
    return {"names": names, **members}


@pytest.mark.parametrize("name", [
    "empty", "not-a-zip", "truncated", "byte-flipped", "nan", "inf", "one-dim",
    "transposed", "no-frames", "float32", "big-endian", "missing-member", "extra-member",
    "object", "short-names", "numeric-names", "missing-names"])
def test_bad_cache_file_is_a_miss_and_is_rewritten(cache, monkeypatch, name):
    config, path, blob, features = cache
    if name == "empty":
        bad = b""
    elif name == "not-a-zip":
        bad = b"\x93NUMPY" + blob[6:]
    elif name == "truncated":
        bad = blob[:len(blob) // 2]
    elif name == "byte-flipped":  # one float of the first matrix: its zip checksum fails
        bad = bytearray(blob)
        bad[blob.index(next(iter(features.vectors.values())).tobytes()) + 7] ^= 0x40
        bad = bytes(bad)
    elif name == "object":
        buffer = io.BytesIO()
        np.savez(buffer, allow_pickle=True, **corrupt_members(features, name))
        bad = buffer.getvalue()
    else:
        bad = npz_blob(**corrupt_members(features, name))
    path.write_bytes(bad)
    assert read_cache(config, path) is None
    extractions = []
    build = cli.build_feature_dataset
    monkeypatch.setattr(cli, "build_feature_dataset",
                        lambda *args: extractions.append(args) or build(*args))
    assert same_features(cli.load_features(config), features)
    assert len(extractions) == 1
    assert same_features(read_cache(config, path), features)
    assert sorted(path.parent.iterdir()) == [path]  # no .tmp sibling left
