"""The benchmark's span tracer wraps hot-path functions by name; a renamed
function would only surface when a traced benchmark run fails to install."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_tracer_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module_name, attr in tracer.TARGETS:
        holder = importlib.import_module(f"neurolock.{module_name}")
        for part in attr.split("."):
            holder = getattr(holder, part, None)
        if not callable(holder):
            missing.append(f"{module_name}.{attr}")
    assert tracer.TARGETS and missing == []
