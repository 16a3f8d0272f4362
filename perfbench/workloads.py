"""The three benchmark workloads; see README.md for why each exists.

Every workload generates its inputs from the seed, hands the program only
those inputs, and exposes the same steps to ``run.py``:

- ``generate()``: input generation, the timed part of set-up;
- ``warm_up()``: one discarded pass before timing;
- ``step(ops)``: one timed step (a pass or a round), returning per-phase
  samples; ``Workload.run_for`` repeats it for the run's seconds;
- ``unit(tracer, ops)``: one fixed piece of work, run once untraced and once
  traced; returns its outputs, which must match between the two;
- ``check(reference)``: output checks, run outside every timed region.

A sample is ``(units of work, seconds, host seconds)``, where the host
seconds time a fixed kernel (``host_seconds``) run just before the sample.
A phase's metric is its median wall rate, scaled to a host of reference
speed by the run's median kernel time.
"""

from __future__ import annotations

import hashlib
import math
import os
import re
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from neurolock import attacks, ingest, matching_eval, pipeline, system
from neurolock.ingest import Protocol, SyntheticSpec

clock = time.perf_counter
PERFBENCH = Path(__file__).resolve().parent
# host_seconds() on the 2-core VM the bounds were set on, when uncontended
HOST_REFERENCE_S = 0.10
_KERNEL_INPUT = np.random.default_rng(0).random((16, 320))


def host_seconds() -> float:
    """Wall time of a fixed pure-Python and numpy kernel, about 100 ms.

    The kernel uses no neurolock code, so no change to the program moves
    it; only the host's speed at that moment does.
    """
    t0 = clock()
    total = 0
    for i in range(800_000):
        total += i * i
    for _ in range(480):
        np.fft.rfft(_KERNEL_INPUT, axis=-1)
        np.sort(_KERNEL_INPUT, axis=-1)
        _KERNEL_INPUT @ _KERNEL_INPUT.T
    return clock() - t0


class Ops:
    """Operations attempted and failed; a failure is logged, never raised."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def fail(self, count: int, why: str) -> None:
        self.attempted += count
        self.failed += count
        print(f"perfbench: {why}", file=sys.stderr)

    def run(self, count: int, fn, *args, **kwargs):
        self.attempted += count
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += count
            traceback.print_exc()
            return None


class Workload:
    """Shared timed loop: steps until ``seconds`` have passed and at least
    ``MIN_STEPS`` steps ran, so every phase has enough samples for a median."""

    MIN_STEPS = 1

    def run_for(self, seconds: float, ops: Ops) -> dict:
        samples = {slot: [] for slot in self.slots}
        start, steps = clock(), 0
        while steps < self.MIN_STEPS or clock() - start < seconds:
            for slot, got in self.step(ops).items():
                samples[slot].extend(got)
            steps += 1
        return samples

    def extra_metrics(self) -> dict:
        return {}


def features_sha256(vectors: dict) -> str:
    """sha256 of the feature matrices in (subject, protocol) order."""
    digest = hashlib.sha256()
    for key in sorted(vectors, key=lambda k: (k[0], k[1].value)):
        digest.update(np.ascontiguousarray(vectors[key], dtype=np.float64).tobytes())
    return digest.hexdigest()


def compare(observed: dict, reference: dict, problems: list) -> None:
    """Exact match for ints, strings and lists; 1e-9 relative for floats."""
    for key, expected in reference.items():
        got = observed.get(key)
        if isinstance(expected, float) and isinstance(got, float):
            same = math.isclose(got, expected, rel_tol=1e-9, abs_tol=1e-12)
        else:
            same = got == expected
        if not same:
            problems.append(f"{key}: expected {expected!r}, got {got!r}")


# ---------------------------------------------------------------------------
# extract_desk
# ---------------------------------------------------------------------------

class ExtractDesk(Workload):
    """Desk-spec EDF files read back and turned into graph features.

    16 channels forces greedy multi-restart modularity (more than 8 nodes)
    and scipy's Dijkstra (more than 12 nodes). Timed passes cycle through the
    subjects, one subject's two recordings per pass.
    """

    name = "extract_desk"
    SPEC = dict(n_subjects=20, n_channels=16, duration_s=62.0, fs=160.0,
                noise_level=0.10)
    DESK = system.SystemConfig(enroll_frames=10, query_frames=1, delta=0.85)
    slots = {"phase1_per_s": ("edf_reads_per_s", "recordings/s"),
             "phase2_per_s": ("feature_frames_per_s", "frames/s"),
             "phase3_per_s": ("frames_per_s", "frames/s")}

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.edf_dir = work_dir / "edf"
        self.spec = SyntheticSpec(master_seed=seed, **self.SPEC)
        self.subjects = self.spec.subject_ids()
        self.features: dict[tuple[str, Protocol], np.ndarray] = {}
        self.mismatched: list[str] = []
        self.passes = 0

    def generate(self) -> None:
        self.edf_dir.mkdir(parents=True, exist_ok=True)
        for rec in ingest.synthesize(self.spec):
            ingest.write_edf(rec, self._path(rec.subject_id, rec.protocol_tag))

    def _path(self, subject: str, protocol: Protocol) -> Path:
        return self.edf_dir / f"{subject}_{protocol.value}.edf"

    def _extract(self, subjects) -> tuple[dict, float, float]:
        t0 = clock()
        recordings = [ingest.read_edf(self._path(s, p), protocol_tag=p, subject_id=s)
                      for s in subjects for p in self.spec.protocols]
        t1 = clock()
        dataset = pipeline.build_feature_dataset(recordings, pipeline.DspConfig(),
                                                 "graph")
        return dataset.vectors, t1 - t0, clock() - t1

    def _keep(self, vectors: dict) -> None:
        for key, matrix in vectors.items():
            if key in self.features and not np.array_equal(self.features[key], matrix):
                self.mismatched.append(f"{key[0]}/{key[1].value}")
            self.features.setdefault(key, matrix)

    def warm_up(self) -> None:
        self._keep(self._extract(self.subjects[:1])[0])

    def step(self, ops: Ops) -> dict:
        subject = self.subjects[self.passes % len(self.subjects)]
        self.passes += 1
        n_rec = len(self.spec.protocols)
        host = host_seconds()
        result = ops.run(n_rec, self._extract, [subject])
        if result is None:
            return {}
        vectors, t_read, t_build = result
        self._keep(vectors)
        frames = sum(m.shape[0] for m in vectors.values())
        return {"phase1_per_s": [(n_rec, t_read, host)],
                "phase2_per_s": [(frames, t_build, host)],
                "phase3_per_s": [(frames, t_read + t_build, host)]}

    def unit(self, tracer, ops: Ops) -> dict:
        result = ops.run(len(self.subjects) * len(self.spec.protocols),
                         self._extract, self.subjects)
        if result is None:
            return {}
        self._keep(result[0])
        return {"features_sha256": features_sha256(result[0])}

    def population(self) -> dict:
        """Pinned quantities: desk decisions and EER over the whole population."""
        missing = [s for s in self.subjects
                   if any((s, p) not in self.features for p in self.spec.protocols)]
        if missing:
            self._keep(self._extract(missing)[0])
        dataset = pipeline.FeatureDataset(vectors=dict(self.features))
        scores = matching_eval.protocol_score_set(dataset, self.DESK.enroll_frames,
                                                  self.DESK.query_frames, self.DESK)
        eer, threshold = matching_eval.eer(scores)
        decisions = "".join("1" if s <= self.DESK.theta else "0"
                            for s in np.concatenate([scores.genuine, scores.impostor]))
        return {"n_genuine": int(scores.genuine.size),
                "n_impostor": int(scores.impostor.size),
                "accepts": decisions.count("1"),
                "decisions_sha256": hashlib.sha256(decisions.encode()).hexdigest(),
                "eer": float(eer), "threshold_at_eer": float(threshold)}

    def check(self, reference: dict | None) -> tuple[list, dict]:
        problems = [f"features of {m} differ between passes" for m in self.mismatched]
        n_frames = int(self.SPEC["duration_s"] * self.SPEC["fs"]
                       // (pipeline.DspConfig().frame_seconds * self.SPEC["fs"]))
        shape = (n_frames, self.SPEC["n_channels"] + 6)
        for (subject, protocol), matrix in self.features.items():
            if matrix.shape != shape or not np.all(np.isfinite(matrix)):
                problems.append(f"{subject}/{protocol.value}: shape {matrix.shape} "
                                f"(want {shape}) or non-finite values")
        observed = {}
        if reference is not None:
            observed = self.population()
            compare(observed, reference, problems)
        observed["recordings_extracted"] = len(self.features)
        observed["features_sha256"] = features_sha256(self.features)
        return problems, observed


# ---------------------------------------------------------------------------
# protect_published
# ---------------------------------------------------------------------------

class ProtectPublished(Workload):
    """Scoring and attack campaigns at the published population shape.

    Random features stand in for 64-channel graph features: scoring and
    attack cost depend on the shape and the budgets, not on feature values.
    """

    name = "protect_published"
    SHAPE = dict(n_subjects=109, n_frames=30, dim=70)
    CONFIG = system.SystemConfig(enroll_frames=10, query_frames=1, delta=0.85)
    REVOCABILITY_KEYS = 50
    UNLINK_KEYS = 6
    DECIDABILITY_ACCOUNTS = ("S001", "S055")
    CLIMB_ACCOUNTS = ("S001", "S002")
    CLIMB_BUDGET = 10000
    ATTACK_SEED = 3
    REKEY_ACCOUNTS = 4
    REKEY_KEYS = 25
    MIN_STEPS = 3
    slots = {"phase1_per_s": ("scores_per_s", "scores/s"),
             "phase2_per_s": ("oracle_calls_per_s", "calls/s"),
             "phase3_per_s": ("rekeys_per_s", "tests/s")}

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.rounds: list[dict] = []

    def generate(self) -> None:
        self.dataset = pipeline.random_feature_dataset(seed=self.seed, **self.SHAPE)
        self.attacked = system.AuthSystem(self.dataset, self.CONFIG)
        self.solutions = attacks.public_data_solutions(
            self.attacked, 1, seed=self.seed)[:self.REKEY_ACCOUNTS]

    def _unlink_counts(self) -> tuple[int, int]:
        pairs = self.UNLINK_KEYS * (self.UNLINK_KEYS - 1) // 2
        n = self.SHAPE["n_subjects"]
        return pairs * n * self.SHAPE["n_frames"], pairs * n * (n - 1)

    def warm_up(self) -> None:
        matching_eval.decidability_protocol(self.dataset, self.DECIDABILITY_ACCOUNTS[0],
                                            self.CONFIG)
        for case in attacks.AttackCase:
            attacks.hill_climb_attack(self.attacked, self.CLIMB_ACCOUNTS[0],
                                      attacks.AttackConfig(case=case, max_attempts=500))
        attacks.second_attack(self.attacked, self.solutions[:1], n_keys=2)

    def _round(self, tracer, ops: Ops) -> tuple[dict, dict]:
        """One eval, climb and rekey pass; returns (outputs, samples)."""
        # rekey's fresh keys must miss the calibration cache, so every round
        # attacks a newly built system (untimed)
        attacked = system.AuthSystem(self.dataset, self.CONFIG)
        out, samples = {}, {}

        def phase(name, slot, fn):
            host = host_seconds()
            if tracer is not None:
                tracer.phase = name
            t0 = clock()
            result = ops.run(1, fn)
            seconds = clock() - t0
            if tracer is not None:
                tracer.phase = ""
            if result is not None:
                samples[slot] = [(result, seconds, host)]
            return result

        def evaluate():
            report = matching_eval.evaluate(
                self.dataset, self.CONFIG, revocability_keys=self.REVOCABILITY_KEYS,
                unlink_keys=self.UNLINK_KEYS, seed=self.seed)
            decid = [matching_eval.decidability_protocol(self.dataset, a, self.CONFIG)
                     for a in self.DECIDABILITY_ACCOUNTS]
            out.update(eer=report.eer, threshold_at_eer=report.threshold_at_eer,
                       d_prime=report.d_prime, d_sys=report.d_sys,
                       n_genuine=report.n_genuine, n_impostor=report.n_impostor,
                       n_pseudo_impostor=report.n_pseudo_impostor,
                       decidability=[[d.genuine.size, d.impostor.size] for d in decid])
            return (report.n_genuine + report.n_impostor + report.n_pseudo_impostor
                    + sum(self._unlink_counts())
                    + sum(d.genuine.size + d.impostor.size for d in decid))

        def climb():
            outcomes = [attacks.hill_climb_attack(
                attacked, account, attacks.AttackConfig(
                    case=case, theta=out["threshold_at_eer"],
                    max_attempts=self.CLIMB_BUDGET, seed=self.ATTACK_SEED))
                for account in self.CLIMB_ACCOUNTS for case in attacks.AttackCase]
            out["climb"] = [[o.subject, o.attempts, o.success] for o in outcomes]
            return sum(o.attempts for o in outcomes)

        def rekey():
            second = attacks.second_attack(attacked, self.solutions,
                                           n_keys=self.REKEY_KEYS,
                                           theta=out["threshold_at_eer"], seed=self.seed)
            out.update(rekey_tests=second.n_tests, rekey_successes=second.n_successes,
                       rekey_score_mean=second.score_mean)
            return second.n_tests

        if phase("eval", "phase1_per_s", evaluate) is not None:
            phase("climb", "phase2_per_s", climb)
            phase("rekey", "phase3_per_s", rekey)
        else:
            ops.fail(2, "climb and rekey skipped: they need the eval threshold")
        self.rounds.append(out)
        return out, samples

    def step(self, ops: Ops) -> dict:
        return self._round(None, ops)[1]

    def unit(self, tracer, ops: Ops) -> dict:
        return self._round(tracer, ops)[0]

    def extra_metrics(self) -> dict:
        climb = self.rounds[-1].get("climb", [])
        return {"climb.attacks.success_ratio":
                sum(success for _, _, success in climb) / max(len(climb), 1)}

    def check(self, reference: dict | None) -> tuple[list, dict]:
        problems = []
        first = self.rounds[0]
        for index, other in enumerate(self.rounds[1:], start=1):
            if other != first:
                problems.append(f"round {index} outputs differ from round 0")
        n, frames = self.SHAPE["n_subjects"], self.SHAPE["n_frames"]
        expected = {"n_genuine": n * (frames - self.CONFIG.enroll_frames),
                    "n_impostor": n * (n - 1),
                    "n_pseudo_impostor": n * self.REVOCABILITY_KEYS,
                    "decidability": [[frames * (frames - 1) // 2,
                                      (n - 1) * frames * frames]]
                    * len(self.DECIDABILITY_ACCOUNTS),
                    "rekey_tests": self.REKEY_ACCOUNTS * self.REKEY_KEYS}
        compare(first, expected, problems)
        for subject, attempts, success in first.get("climb", []):
            if not 1 <= attempts <= self.CLIMB_BUDGET:
                problems.append(f"climb on {subject}: {attempts} attempts")
        # D_sys and the unlinkability sample sizes, recomputed once per run
        mated, non_mated = matching_eval.unlinkability_protocol(
            self.dataset, self.CONFIG, self.UNLINK_KEYS, self.seed)
        if (mated.size, non_mated.size) != self._unlink_counts():
            problems.append(f"unlinkability sizes {mated.size}/{non_mated.size}, "
                            f"want {self._unlink_counts()}")
        d_sys = matching_eval.unlinkability(mated, non_mated).d_sys
        compare(first, {"d_sys": d_sys}, problems)
        if reference is not None:
            compare(first, reference, problems)
        return problems, first


# ---------------------------------------------------------------------------
# cli_default
# ---------------------------------------------------------------------------

class CliDefault(Workload):
    """``python -m neurolock.cli`` at its default config, timed from spawn to exit.

    8 channels forces exact-enumeration modularity (8 or fewer nodes) and the
    heap Dijkstra (12 or fewer nodes). Each round starts from an empty
    directory: enroll, then verify with the genuine and an impostor subject.
    A timed step is one command, so a run may end inside a round.
    """

    name = "cli_default"
    COMMANDS = (
        ("enroll", ["enroll", "--subject=S001", "--key=777"]),
        ("verify_genuine", ["verify", "--template=out/S001.ceeg",
                            "--subject=S001", "--key=777"]),
        ("verify_impostor", ["verify", "--template=out/S001.ceeg",
                             "--subject=S002", "--key=777"]),
    )
    TEMPLATE = Path("out") / "S001.ceeg"
    TIMEOUT_S = 60
    VERIFY_LINE = re.compile(r"(ACCEPT|REJECT) score=\d\.\d{6} raw=\d+ threshold=\S+")
    MIN_STEPS = 3
    slots = {"phase1_per_s": ("enroll", "commands/s"),
             "phase2_per_s": ("verify, genuine and impostor", "commands/s"),
             "phase3_per_s": ("every command", "commands/s")}

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir
        self.rounds: list[dict] = []
        self.commands = 0
        self.problems: list[str] = []
        self.child_traces: list[Path] = []
        src = str(Path(pipeline.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))

    def _spawn(self, argv, cwd: Path) -> tuple[float, subprocess.CompletedProcess]:
        t0 = clock()
        done = subprocess.run(argv, cwd=cwd, env=self.env, capture_output=True,
                              text=True, timeout=self.TIMEOUT_S)
        return clock() - t0, done

    def generate(self) -> None:
        """Interpreter start and ``import neurolock.cli``, which every command pays."""
        self.work_dir.mkdir(parents=True, exist_ok=True)
        _, done = self._spawn([sys.executable, "-m", "neurolock.cli", "--version"],
                              self.work_dir)
        if done.returncode != 0:
            raise RuntimeError(f"neurolock --version failed: {done.stderr}")

    def warm_up(self) -> None:
        """The set-up's ``--version`` children already warmed every import."""

    def _command(self, traced: bool, ops: Ops) -> dict:
        """Run the next command of the enroll/verify/verify cycle."""
        name, args = self.COMMANDS[self.commands % len(self.COMMANDS)]
        self.commands += 1
        if name == "enroll":
            self.rounds.append({})
            self.cwd = self.work_dir / f"round{len(self.rounds) - 1}"
            shutil.rmtree(self.cwd, ignore_errors=True)
            self.cwd.mkdir(parents=True)
        argv = [sys.executable, "-m", "neurolock.cli"]
        if traced:
            trace_path = self.cwd / f"{name}.npz"
            self.child_traces.append(trace_path)
            argv = [sys.executable, str(PERFBENCH / "cli_boot.py"), str(trace_path)]
        host = host_seconds()
        result = ops.run(1, self._spawn, argv + args + [f"--seed={self.seed}"], self.cwd)
        if result is None:
            return {}
        seconds, done = result
        if "Traceback" in done.stderr:
            self.problems.append(f"{name}: traceback on stderr:\n{done.stderr}")
        out = self.rounds[-1]
        out[name] = [done.returncode, done.stdout.strip()]
        if name == "enroll":
            template = self.cwd / self.TEMPLATE
            out["template_sha256"] = (hashlib.sha256(template.read_bytes()).hexdigest()
                                      if template.exists() else None)
        slot = "phase1_per_s" if name == "enroll" else "phase2_per_s"
        return {slot: [(1, seconds, host)], "phase3_per_s": [(1, seconds, host)]}

    def step(self, ops: Ops) -> dict:
        return self._command(False, ops)

    def unit(self, tracer, ops: Ops) -> dict:
        for _ in self.COMMANDS:
            self._command(tracer is not None, ops)
        return self.rounds[-1]

    def check(self, reference: dict | None) -> tuple[list, dict]:
        problems = list(self.problems)
        first = self.rounds[0]
        for index, other in enumerate(self.rounds[1:], start=1):
            if any(first.get(key) != value for key, value in other.items()):
                problems.append(f"round {index} outputs differ from round 0")
        enroll = first.get("enroll")
        if enroll != [0, f"enrolled S001 -> {self.TEMPLATE}"]:
            problems.append(f"enroll gave {enroll!r}")
        for name in ("verify_genuine", "verify_impostor"):
            code, line = first.get(name, [None, ""])
            match = self.VERIFY_LINE.fullmatch(line)
            if not match or code != {"ACCEPT": 0, "REJECT": 4}[match.group(1)]:
                problems.append(f"{name}: exit {code} with output {line!r}")
        if reference is not None:
            compare(first, reference, problems)
        return problems, first


WORKLOADS = {cls.name: cls for cls in (ExtractDesk, ProtectPublished, CliDefault)}
