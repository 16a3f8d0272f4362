import sys

import pytest

import tracer as tr


class FakeClock:
    """Each reading advances one second, so durations count clock reads."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_nesting_and_self_time():
    t = tr.Tracer(clock=FakeClock())
    inner = t.wrap("m.inner", lambda: None)

    def body():
        inner()
        inner()
    outer = t.wrap("m.outer", body)
    outer()
    stats = tr.span_stats(t.export())
    # outer: start 1, inner spans 2-3 and 4-5, end 6
    assert stats["m.inner"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0, "parents": 0}
    assert stats["m.outer"] == {"calls": 1, "total_s": 5.0, "self_s": 3.0, "parents": 1}


def test_span_closes_when_call_raises():
    t = tr.Tracer(clock=FakeClock())

    def boom():
        raise ValueError("x")
    with pytest.raises(ValueError):
        t.wrap("m.boom", boom)()
    t.wrap("m.after", lambda: None)()
    stats = tr.span_stats(t.export())
    assert stats["m.boom"]["calls"] == 1
    assert stats["m.after"]["self_s"] == stats["m.after"]["total_s"] == 1.0
    assert stats["m.boom"]["parents"] == 0  # m.after is not its child


def test_phase_prefixes_names():
    t = tr.Tracer(clock=FakeClock())
    f = t.wrap("transform.hamming_score", lambda: None)
    f()
    t.phase = "eval"
    f()
    f()
    t.phase = "climb"
    f()
    stats = tr.span_stats(t.export())
    assert {name: s["calls"] for name, s in stats.items()} == {
        "transform.hamming_score": 1, "eval.transform.hamming_score": 2,
        "climb.transform.hamming_score": 1}


def test_save_load_round_trip(tmp_path):
    t = tr.Tracer(clock=FakeClock())
    t.wrap("a", t.wrap("b", lambda: None))()
    path = tmp_path / "spans.npz"
    tr.save(t.export(), path)
    assert tr.span_stats(tr.load(path)) == tr.span_stats(t.export())


def _snapshot():
    return {(name, key): value
            for name, module in sys.modules.items()
            if name.startswith("neurolock")
            for key, value in vars(module).items() if callable(value)}


def test_install_rebinds_every_holder_and_restore_puts_originals_back():
    import neurolock.cli as cli
    from neurolock import ingest, system
    before = _snapshot()
    init = system.AuthSystem.__dict__["__init__"]
    t = tr.Tracer()
    t.install()
    try:
        assert cli.read_edf is ingest.read_edf is not before[("neurolock.ingest", "read_edf")]
        assert cli.build_feature_dataset is not before[
            ("neurolock.pipeline", "build_feature_dataset")]
        assert system.AuthSystem.__dict__["__init__"] is not init
        with pytest.raises(RuntimeError):
            t.install()
    finally:
        t.restore()
    assert _snapshot() == before
    assert system.AuthSystem.__dict__["__init__"] is init


def test_no_spans_while_not_installed():
    from neurolock import transform
    import numpy as np
    t = tr.Tracer()
    bits = np.zeros(8, dtype=np.uint8)
    transform.hamming_score(bits, bits)
    t.install()
    try:
        transform.hamming_score(bits, bits)
    finally:
        t.restore()
    transform.hamming_score(bits, bits)
    assert t.n_spans == 1
