"""Span tracer installed around neurolock's public functions from outside.

Wrapping rebinds each target in every loaded ``neurolock`` module that
holds it (``cli`` imports ``read_edf``, ``synthesize`` and
``build_feature_dataset`` by name, so patching only the defining module would
miss its calls) and patches methods on their class. ``restore`` puts every
original back, so code run after it carries no wrapper.

Spans live in flat in-memory arrays (name key, start, end, parent) and are
written out once, by ``save``, when the run ends. numpy is imported only
where spans are exported, so a traced CLI child times ``import
neurolock.cli`` from a cold start.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

# (module, attribute) of every wrapped function; "Class.method" patches the class.
TARGETS = [
    ("ingest", "read_edf"), ("ingest", "write_edf"), ("ingest", "synthesize"),
    ("dsp", "detrend"), ("dsp", "design_bandpass"), ("dsp", "filter_zero_phase"),
    ("dsp", "frame"), ("dsp", "instantaneous_phase"),
    ("connectivity", "build_graph"),
    ("graph_features", "pagerank_centrality"), ("graph_features", "transitivity"),
    ("graph_features", "modularity"), ("graph_features", "distance_matrix"),
    ("graph_features", "extract_features"),
    ("pipeline", "extract_frame_features"), ("pipeline", "build_feature_dataset"),
    ("cli", "load_features"),
    ("transform", "derive_params"), ("transform", "calibrate_params"),
    ("transform", "combine"), ("transform", "project"),
    ("transform", "gray_encode"), ("transform", "make_template"),
    ("transform", "hamming_score"), ("transform", "match"),
    ("transform", "save_template"), ("transform", "load_template"),
    ("system", "AuthSystem.__init__"), ("system", "AuthSystem.calibrated_params"),
    ("system", "AuthSystem.query_template"), ("system", "AuthSystem.feature_query_bits"),
    ("system", "AuthSystem.score_bits"), ("system", "AuthSystem.reissue"),
    ("matching_eval", "evaluate"), ("matching_eval", "protocol_tests"),
    ("matching_eval", "score_pairs"), ("matching_eval", "revocability_scores"),
    ("matching_eval", "unlinkability_protocol"),
    ("matching_eval", "decidability_protocol"), ("matching_eval", "roc_points"),
    ("attacks", "hill_climb_attack"), ("attacks", "nelder_mead"),
    ("attacks", "ScoreOracle.__call__"), ("attacks", "second_attack"),
]


class Tracer:
    """Records one span per wrapped call while installed.

    ``phase`` prefixes span names (``eval.``, ``climb.``, ``rekey.``) so the
    same function called from different campaign phases stays apart.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.phase = ""
        self.design_args: set = set()
        self._keys: dict[str, int] = {}
        self._key = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _key_id(self, name: str) -> int:
        full = f"{self.phase}.{name}" if self.phase else name
        key = self._keys.get(full)
        if key is None:
            key = self._keys[full] = len(self._keys)
        return key

    def wrap(self, name: str, fn, before=None):
        """Wrapper recording a span named ``name`` around each call of fn."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            index = len(self._start)
            self._key.append(self._key_id(name))
            self._parent.append(self._stack[-1] if self._stack else -1)
            self._end.append(0.0)
            self._stack.append(index)
            self._start.append(self.clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self._end[index] = self.clock()
                self._stack.pop()
        return wrapper

    @property
    def n_spans(self) -> int:
        return len(self._start)

    # -- install / restore --------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, attr in TARGETS:
            module = importlib.import_module(f"neurolock.{module_name}")
            name = f"{module_name}.{attr}"
            before = _BEFORE.get(name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self._saved.append((cls, method, original))
                setattr(cls, method, self.wrap(name, original, before))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original, before)
            for holder in _neurolock_modules():
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._saved.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def restore(self) -> None:
        for holder, key, original in reversed(self._saved):
            setattr(holder, key, original)
        self._saved.clear()

    # -- results ------------------------------------------------------------

    def export(self) -> dict:
        """Every span (name, start, end, parent index) and the filter designs seen."""
        import numpy as np
        return {"names": sorted(self._keys, key=self._keys.get),
                "key": np.array(self._key, dtype=np.int64),
                "start": np.array(self._start), "end": np.array(self._end),
                "parent": np.array(self._parent, dtype=np.int64),
                "design_args": sorted(map(repr, self.design_args))}


def save(trace: dict, path) -> None:
    import numpy as np
    np.savez_compressed(path, names=np.array(trace["names"], dtype=str),
                        key=trace["key"], start=trace["start"], end=trace["end"],
                        parent=trace["parent"],
                        design_args=json.dumps(trace["design_args"]))


def load(path) -> dict:
    import numpy as np
    with np.load(path) as data:
        trace = {name: data[name] for name in ("key", "start", "end", "parent")}
        trace["names"] = data["names"].tolist()
        trace["design_args"] = json.loads(str(data["design_args"]))
    return trace


def span_stats(trace: dict) -> dict[str, dict[str, float]]:
    """Per span name: calls, total_s (inclusive), self_s and parents.

    Self time is a span's duration minus the durations of its direct
    children; calls are strictly nested, so children never overlap.
    ``parents`` counts the spans that have at least one child span.
    """
    import numpy as np
    key, parent = trace["key"], trace["parent"]
    duration = trace["end"] - trace["start"]
    child = np.zeros(duration.size)
    nested = parent >= 0
    np.add.at(child, parent[nested], duration[nested])
    n_keys = len(trace["names"])
    calls = np.bincount(key, minlength=n_keys)
    total = np.bincount(key, weights=duration, minlength=n_keys)
    own = np.bincount(key, weights=duration - child, minlength=n_keys)
    has_child = np.zeros(duration.size, dtype=bool)
    has_child[parent[nested]] = True
    parents = np.bincount(key[has_child], minlength=n_keys)
    return {name: {"calls": int(calls[k]), "total_s": float(total[k]),
                   "self_s": float(own[k]), "parents": int(parents[k])}
            for k, name in enumerate(trace["names"])}


def _neurolock_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "neurolock" or name.startswith("neurolock."))]


def _record_design(tracer: Tracer, args, kwargs) -> None:
    tracer.design_args.add(tuple(args) + tuple(sorted(kwargs.items())))


# Hooks run before the wrapped call, for what spans cannot give.
_BEFORE = {"dsp.design_bandpass": _record_design}
