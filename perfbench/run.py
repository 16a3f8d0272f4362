"""neurolock benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload extract_desk --seed 1234 --seconds 30 --trace 0

With ``--trace 0`` it times the workload untraced and reports the end-to-end
metrics; with ``--trace 1`` it runs one unit of the workload untraced, then
the same unit with span wrappers installed, and reports the per-layer
metrics. Human-readable lines come first; the last line of standard output
is the JSON result. Spans of a traced run are written to
``.perfbench_runs/``. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import os
import time

T_START = time.perf_counter()
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads; CLI children inherit it
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".perfbench_runs"
SETUP_REPS = 3
WORKLOAD_NAMES = ("extract_desk", "protect_published", "cli_default")

# Per-layer metrics, grouped by the workload that exercises them; every
# traced run reports all of them, 0 where its workload never calls the layer.
GRAPH_PATH = [
    "dsp.detrend.self_s", "dsp.filter_zero_phase.self_s", "dsp.frame.self_s",
    "dsp.instantaneous_phase.self_s", "dsp.design_bandpass.calls",
    "dsp.design_bandpass.reuse_ratio",
    "connectivity.build_graph.calls", "connectivity.build_graph.self_s",
    "graph_features.pagerank_centrality.self_s", "graph_features.transitivity.self_s",
    "graph_features.modularity.total_s", "graph_features.distance_matrix.self_s",
    "graph_features.extract_features.self_s",
    "pipeline.extract_frame_features.self_s", "pipeline.build_feature_dataset.self_s",
]
LAYERS = {
    "extract_desk": ["ingest.read_edf.self_s", "ingest.write_edf.self_s"] + GRAPH_PATH,
    "cli_default": ["ingest.synthesize.self_s"] + GRAPH_PATH + [
        "cli.import_s", "cli.load_features.calls", "cli.load_features.total_s",
        "transform.save_template.self_s", "transform.load_template.self_s",
        "transform.match.self_s", "system.AuthSystem.__init__.calls",
        "system.AuthSystem.__init__.self_s"],
    "protect_published": [
        "eval.system.AuthSystem.__init__.calls", "eval.matching_eval.protocol_tests.calls",
        "eval.system.calibrated_params.hit_ratio",
        "eval.transform.make_template.calls", "eval.transform.make_template.self_s",
        "eval.transform.gray_encode.self_s", "eval.transform.hamming_score.calls",
        "eval.transform.hamming_score.self_s", "eval.system.AuthSystem.query_template.self_s",
        "eval.system.AuthSystem.feature_query_bits.self_s",
        "eval.matching_eval.score_pairs.self_s",
        "eval.matching_eval.revocability_scores.self_s",
        "eval.matching_eval.unlinkability_protocol.self_s",
        "eval.matching_eval.decidability_protocol.self_s",
        "eval.matching_eval.roc_points.self_s",
        "climb.attacks.ScoreOracle.__call__.calls", "climb.attacks.ScoreOracle.__call__.self_s",
        "climb.attacks.nelder_mead.self_s", "climb.system.AuthSystem.feature_query_bits.self_s",
        "climb.transform.combine.self_s", "climb.transform.project.self_s",
        "climb.transform.gray_encode.self_s", "climb.system.AuthSystem.score_bits.self_s",
        "climb.transform.hamming_score.self_s", "climb.attacks.success_ratio",
        "rekey.system.AuthSystem.reissue.calls", "rekey.system.AuthSystem.reissue.self_s",
        "rekey.transform.calibrate_params.calls", "rekey.transform.calibrate_params.self_s",
        "rekey.transform.derive_params.self_s", "rekey.transform.make_template.self_s",
        "rekey.system.calibrated_params.hit_ratio"],
}
PER_LAYER = list(dict.fromkeys(
    [m for names in LAYERS.values() for m in names] + ["trace.overhead_ratio"]))
SLOTS = ("phase1_per_s", "phase2_per_s", "phase3_per_s")


def layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    return "s" if name.endswith("_s") else "ratio"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    return {"python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "scipy": importlib.metadata.version("scipy"),
            "nproc": os.cpu_count(), "pinned_cpus": sorted(os.sched_getaffinity(0)),
            "threads": {var: os.environ[var] for var in THREAD_VARS},
            "seed": seed, "commit": git_commit()}


def median_rate(samples) -> float:
    return statistics.median(units / seconds for units, seconds, _ in samples)


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def layer_metrics(traces, extras: dict, overhead: float) -> dict:
    from tracer import span_stats
    stats: dict[str, dict] = {}
    designs: set = set()
    for trace in traces:
        designs.update(trace["design_args"])
        for name, entry in span_stats(trace).items():
            acc = stats.setdefault(name, dict.fromkeys(entry, 0))
            for field, value in entry.items():
                acc[field] += value
    values = {}
    for name in PER_LAYER:
        if name in extras:
            value = extras[name]
        elif name == "trace.overhead_ratio":
            value = overhead
        elif name == "cli.import_s":
            value = stats.get("cli.import", {}).get("total_s", 0.0)
        elif name.endswith(".reuse_ratio"):
            calls = stats.get(name[:-len(".reuse_ratio")], {}).get("calls", 0)
            value = len(designs) / calls if calls else 0.0
        elif name.endswith("calibrated_params.hit_ratio"):
            # a cache miss calls derive_params/calibrate_params, a hit calls nothing
            phase = name[:-len("system.calibrated_params.hit_ratio")]
            entry = stats.get(phase + "system.AuthSystem.calibrated_params", {})
            calls = entry.get("calls", 0)
            value = 1.0 - entry["parents"] / calls if calls else 0.0
        else:
            base, field = name.rsplit(".", 1)
            value = stats.get(base, {}).get(field, 0)
        values[name] = value
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "neurolock" / "__init__.py").is_file():
        print(f"perfbench: no neurolock package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    # one CPU for the run and its CLI children, so the host-speed kernel times
    # the CPU the measured work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import workloads  # imports neurolock: part of set-up
    import_s = time.perf_counter() - T_START

    work_dir = RUNS_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    reference = json.loads((HERE / "reference.json").read_text())
    reference = reference[args.workload].get(str(args.seed))
    workload = workloads.WORKLOADS[args.workload](args.seed, work_dir)
    ops = workloads.Ops()
    try:
        generate_s = []
        for _ in range(SETUP_REPS if not args.trace else 1):
            t0 = time.perf_counter()
            workload.generate()
            generate_s.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(generate_s)
        workload.warm_up()
        if args.trace:
            metrics, summary = traced_run(workload, ops, args)
        else:
            metrics, summary = timed_run(workload, ops, args, setup_s)
        problems, observed = workload.check(reference)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    ops.attempted += 1  # the output check is one more operation
    ops.failed += 1 if problems else 0
    failed, attempted = ops.failed, ops.attempted

    print(f"perfbench {args.workload} trace={args.trace} seconds={args.seconds:g}")
    print("environment: " + json.dumps(environment(args.seed), sort_keys=True))
    print("check: " + ("pinned reference for this seed" if reference is not None
                       else "invariants only; no pinned reference for this seed"))
    for line in summary:
        print(line)
    print(f"fail_frac: {failed / attempted:.6g} ratio ({failed} of {attempted} "
          f"operations)")
    for problem in problems:
        print(f"check failed: {problem}")
        print(f"perfbench check failed: {problem}", file=sys.stderr)
    print("observed: " + json.dumps(observed, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value!r} {unit}")
    print(json.dumps({
        "correct": not problems and failed == 0, "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


def timed_run(workload, ops, args, setup_s: float) -> tuple[dict, list]:
    """The untraced timed loop; end-to-end metrics."""
    from workloads import HOST_REFERENCE_S
    samples = workload.run_for(args.seconds, ops)
    metrics = {"setup_s": (setup_s, "s"),
               "peak_rss_mb": (peak_rss_mb(args.workload == "cli_default"), "MiB")}
    summary = []
    hosts = [host for got in samples.values() for _, _, host in got]
    host_s = statistics.median(hosts) if hosts else HOST_REFERENCE_S
    summary.append(f"host kernel: median {host_s:.4f} s next to {len(hosts)} phase "
                   f"samples; rates are scaled by it / {HOST_REFERENCE_S} s")
    for slot in SLOTS:
        label, unit = workload.slots[slot]
        got = samples[slot]
        wall = median_rate(got) if got else 0.0
        value = wall * host_s / HOST_REFERENCE_S
        metrics[slot] = (value, "1/s")
        summary.append(f"{slot} = {label}: {value:.6g} {unit} at reference host "
                       f"speed, {wall:.6g} {unit} wall; median of {len(got)} samples")
    if args.workload == "cli_default":
        for name, slot in (("enroll_s", "phase1_per_s"), ("verify_s", "phase2_per_s")):
            times = [seconds for _, seconds, _ in samples[slot]]
            summary.append(f"{name}: {statistics.median(times):.4f} s, median of "
                           f"{len(times)} commands" if times else f"{name}: no sample")
    return metrics, summary


def traced_run(workload, ops, args) -> tuple[dict, list]:
    """One untraced unit, then the same unit traced; per-layer metrics."""
    from tracer import Tracer, load, save
    t0 = time.perf_counter()
    plain = workload.unit(None, ops)
    plain_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    try:
        workload.generate()
        t0 = time.perf_counter()
        traced = workload.unit(tracer, ops)
        traced_s = time.perf_counter() - t0
    finally:
        tracer.restore()
    summary = [f"untraced unit {plain_s:.3f} s, traced unit {traced_s:.3f} s"]
    ops.attempted += 1
    if traced != plain:
        ops.failed += 1
        print(f"perfbench: traced outputs {traced!r} differ from untraced {plain!r}",
              file=sys.stderr)
    RUNS_DIR.mkdir(exist_ok=True)
    traces = [tracer.export()]
    stem = f"trace-{args.workload}-seed{args.seed}"
    save(traces[0], RUNS_DIR / f"{stem}.npz")
    for child in getattr(workload, "child_traces", []):
        traces.append(load(child))
        shutil.copy(child, RUNS_DIR / f"{stem}-{child.parent.name}-{child.name}")
    summary.append(f"spans written to {os.path.relpath(RUNS_DIR / stem, ROOT)}*.npz")
    values = layer_metrics(traces, workload.extra_metrics(), traced_s / plain_s)
    return {name: (values[name], layer_unit(name)) for name in PER_LAYER}, summary


if __name__ == "__main__":
    sys.exit(main())
