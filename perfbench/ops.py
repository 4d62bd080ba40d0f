"""Operations, output checks and run loops of the benchmark.

The worker imports this module after its set-up clock has started, so
importing it is part of set-up: it imports ``stsbot`` and ``stsbot.cli``.

Every operation is one call of a public entry point: ``stsbot.cli.main`` for
``simulate``, ``analyze`` and ``map``, or ``run_scenario`` and the analysis
functions for the sweep.  An operation fails on an exception, a nonzero exit
or a failed output check.  The checks compare outputs with physical bounds
taken from the acceptance criteria, never with golden digests, so that a
change that legitimately moves the simulated numbers still passes.
"""

from __future__ import annotations

import contextlib
import filecmp
import hashlib
import io
import json
import math
import re
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import stsbot.cli
from stsbot import analysis, config, engine
from speed import ScaledTimes, Speedometer, Timed
from stsbot.errors import ConfigError
from workloads import TRANSFER_V_Z, Inputs

ASSIST_TOL = 0.02   # criterion 3: measured assistance within 0.02 bw of the target
SPEED_TOL = 0.10    # criterion 4: lift and lower speeds within 10 % of v_z


# ---------------------------------------------------------------------------
# set-up


@dataclass
class Built:
    """Resolved configs and the runtime objects built from them."""

    cfgs: dict[Path, dict]
    scenarios: dict[Path, object]
    build_s: list[float]  # load + validate + build, per config


def build_inputs(inputs: Inputs) -> Built:
    """Load, validate and build every config: the program's own set-up work."""
    built = Built({}, {}, [])
    sweep = [path for block in inputs.blocks for path, _, _ in block]
    for path in inputs.sessions + sweep + inputs.maps:
        t = time.perf_counter()
        cfg = config.load_config(path)
        report = config.validate_config(cfg)
        if not report.ok:
            raise ConfigError(f"{path.name}: {report.errors}")
        if path in inputs.maps:
            config.build_geometry(cfg)
        else:
            built.scenarios[path] = config.build_scenario(cfg)
        built.build_s.append(time.perf_counter() - t)
        built.cfgs[path] = cfg
    return built


# ---------------------------------------------------------------------------
# output checks: each returns a list of problems, empty when the output holds


def check_assistance(measured: float, target: float) -> list[str]:
    if not math.isfinite(measured) or abs(measured - target) >= ASSIST_TOL:
        return [f"measured assistance {measured:.4f} not within {ASSIST_TOL} of {target}"]
    return []


def check_transfer(up: float, down: float, v_z: float) -> list[str]:
    return [f"{name} speed {v:.4f} m/s not within {SPEED_TOL:.0%} of {v_z}"
            for name, v in (("lift", up), ("lower", down))
            if not (math.isfinite(v) and abs(v - v_z) / v_z < SPEED_TOL)]


def _grid_points(lo: float, hi: float, step: float) -> int:
    return int(math.floor((hi - lo) / step + 0.5)) + 1


def check_map(out: Path, cfg: dict) -> list[str]:
    """Grid size right, values finite (and >= 0) exactly where the mask is 0."""
    with open(out / "map.csv") as fh:
        header = fh.readline().strip()
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    if header != "y_m,z_m,fz_max_N,mask":
        return [f"map.csv header {header!r}"]
    ny = _grid_points(cfg["map.y_min"], cfg["map.y_max"], cfg["map.step"])
    nz = _grid_points(cfg["map.z_min"], cfg["map.z_max"], cfg["map.step"])
    if rows.shape != (ny * nz, 4):
        return [f"map.csv holds {rows.shape[0]} cells, grid needs {ny}x{nz}"]
    problems = []
    if len(np.unique(rows[:, 0])) != ny or len(np.unique(rows[:, 1])) != nz:
        problems.append("map.csv cells do not form the configured grid")
    value, mask = rows[:, 2], rows[:, 3]
    if not np.isin(mask, (0, 1, 2, 3, 4)).all():
        problems.append("map.csv mask holds unknown codes")
    finite = np.isfinite(value)
    wrong = int((finite != (mask == 0)).sum())
    if wrong:
        problems.append(f"{wrong} cells finite where the mask is nonzero or masked where it is 0")
    if (value[finite] < 0.0).any():
        problems.append("negative capability value")
    return problems


# ---------------------------------------------------------------------------
# operations


class Tally:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, label: str, op) -> bool:
        """Run one operation; ``op`` returns its list of problems."""
        self.attempted += 1
        try:
            problems = op()
        except Exception:  # an operation that raises is a failure, not the end of the run
            problems = [traceback.format_exc(limit=-2).strip()]
        if problems:
            self.failed += 1
            self.problems.append(f"{label}: " + "; ".join(problems))
        return not problems


@dataclass
class Timings:
    simulate_s: ScaledTimes = field(default_factory=ScaledTimes)
    analyze_s: ScaledTimes = field(default_factory=ScaledTimes)
    map_s: ScaledTimes = field(default_factory=ScaledTimes)
    simulated_s: float = 0.0
    steps: int = 0

    def add_simulate(self, timed: Timed, mark: int, samples: int, dt: float) -> None:
        self.simulate_s.add(timed, mark)
        self.steps += samples
        self.simulated_s += samples * dt


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def call_cli(argv: list[str], speed: Speedometer, tracer=None) -> tuple[int, str, str, Timed]:
    """``stsbot <argv>`` in this process; returns exit code, stdout, stderr, timing."""
    out, err = io.StringIO(), io.StringIO()
    with _span(tracer, f"cli.{argv[0]}"), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            speed.timing() as timed:
        rc = stsbot.cli.main(argv)
    return rc, out.getvalue(), err.getvalue(), timed


class Runner:
    """One closed-loop client: issues the next operation when the last is done."""

    def __init__(self, inputs: Inputs, built: Built, work: Path, tally: Tally,
                 speed: Speedometer | None = None):
        self.inputs = inputs
        self.built = built
        self.cfgs = built.cfgs
        self.work = work
        self.tally = tally
        self.timings = Timings()
        self.speed = speed or Speedometer(enabled=False)
        self.map_cells = 0
        self.first_cycle_rss_mb = 0.0
        self.tracer = None

    # -- CLI operations (sessions) -------------------------------------------

    def simulate(self, cfg_path: Path, out: Path, replay_of: Path | None = None) -> int | None:
        """``stsbot simulate``; returns the sample count, or None on failure."""
        result = {}

        def op():
            mark = self.speed.mark()
            rc, text, err, timed = call_cli(
                ["simulate", "--config", str(cfg_path), "--out", str(out)],
                self.speed, self.tracer)
            if rc != 0:
                return [f"exit {rc}: {err.strip()[-300:]}"]
            samples = int(re.search(r"\((\d+) samples\)", text).group(1))
            dt = self.cfgs[self.inputs.sessions[0]]["dt"]
            self.timings.add_simulate(timed, mark, samples, dt)
            result["samples"] = samples
            if replay_of is not None and not filecmp.cmp(
                    replay_of / "log.csv", out / "log.csv", shallow=False):
                return ["manifest replay did not reproduce log.csv byte for byte"]
            return []

        label = "simulate (manifest replay)" if replay_of is not None else "simulate"
        return result["samples"] if self.tally.run(label, op) else None

    def analyze(self, out: Path, samples: int) -> None:
        def op():
            mark = self.speed.mark()
            rc, _, err, timed = call_cli(
                ["analyze", "--log", str(out / "log.csv"), "--out", str(out)],
                self.speed, self.tracer)
            if rc != 0:
                return [f"exit {rc}: {err.strip()[-300:]}"]
            self.timings.analyze_s.add(timed, mark)
            doc = json.loads((out / "metrics.json").read_text())
            problems = []
            if doc["samples"] != samples:
                problems.append(f"analyze read {doc['samples']} of {samples} samples")
            if self.inputs.workload == "transfer_session":
                tr = doc["transfer"]
                problems += check_transfer(tr["lifting_speed_m_s"], tr["lowering_speed_m_s"],
                                           TRANSFER_V_Z)
            else:
                problems += check_assistance(doc["measured_assistance"],
                                             doc["target_assistance"])
            return problems

        self.tally.run("analyze", op)

    def map(self, cfg_path: Path, out: Path) -> None:
        def op():
            mark = self.speed.mark()
            rc, _, err, timed = call_cli(
                ["map", "--config", str(cfg_path), "--out", str(out)], self.speed, self.tracer)
            if rc != 0:
                return [f"exit {rc}: {err.strip()[-300:]}"]
            self.timings.map_s.add(timed, mark)
            cfg = self.cfgs[cfg_path]
            self.map_cells += (_grid_points(cfg["map.y_min"], cfg["map.y_max"], cfg["map.step"])
                               * _grid_points(cfg["map.z_min"], cfg["map.z_max"], cfg["map.step"]))
            return check_map(out, cfg)

        self.tally.run("map", op)

    def session(self, k: int, replay_of: Path | None = None) -> Path:
        """simulate, analyze and map into a fresh directory; returns it.

        A replay session simulates from the previous session's manifest.json
        and must reproduce its log.csv byte for byte.
        """
        out = self.work / f"session{k}"
        shutil.rmtree(out, ignore_errors=True)
        if replay_of is not None:
            cfg_path = replay_of / "manifest.json"
        else:
            cfg_path = self.inputs.sessions[k % len(self.inputs.sessions)]
        samples = self.simulate(cfg_path, out, replay_of)
        if samples is not None:
            self.analyze(out, samples)
        self.map(self.inputs.maps[0], out / "map")
        return out

    # -- API operations (sweep) ----------------------------------------------

    def sweep_run(self, cfg_path: Path, fz: float, mass: float, keep: list | None = None) -> None:
        """One scenario through ``run_scenario``, checked with ``measured_assistance``."""
        scenario = self.built.scenarios[cfg_path]
        log = None

        def simulate():
            nonlocal log
            mark = self.speed.mark()
            with self.speed.timing() as timed:
                log = engine.run_scenario(scenario)
            self.timings.add_simulate(timed, mark, len(log), log.dt)
            return []

        def analyze():
            mark = self.speed.mark()
            with _span(self.tracer, "sweep.analyze"), _span(self.tracer, "analysis.metrics"), \
                    self.speed.timing() as timed:
                analysis.sts_metrics(log)
                measured = analysis.measured_assistance(log, mass)
            self.timings.analyze_s.add(timed, mark)
            return check_assistance(measured, fz)

        with _span(self.tracer, "sweep.simulate"):
            ok = self.tally.run(f"run_scenario {cfg_path.stem}", simulate)
        if ok:
            self.tally.run(f"analyze {cfg_path.stem}", analyze)
            if keep is not None:
                keep.append((cfg_path.stem, log))

    def sweep_block(self, b: int, keep: list | None = None) -> None:
        """Every mode once, then both capability maps."""
        blocks = self.inputs.blocks
        for cfg_path, fz, mass in blocks[b % len(blocks)]:
            self.sweep_run(cfg_path, fz, mass, keep)
        for cfg_path in self.inputs.maps:
            self.map(cfg_path, self.work / cfg_path.stem)

    # -- loops -----------------------------------------------------------------

    def run_for(self, seconds: float) -> list:
        """Closed loop of whole cycles, as many as end closest to ``seconds``.

        Returns the logs of the first sweep block (none for sessions, whose
        logs are on disk).  Closes with a speed mark, so that every operation
        has a mark after it.
        """
        start = time.perf_counter()
        lengths: list[float] = []

        def cycle_done(t: float) -> None:
            lengths.append(time.perf_counter() - t)
            if len(lengths) == 1:
                self.first_cycle_rss_mb = peak_rss_mb()

        def cycles_left() -> float:
            """Cycles that still fit, counting one that would end past the
            deadline by less than half its length."""
            return (seconds - (time.perf_counter() - start)) / statistics.fmean(lengths) + 0.5

        if self.inputs.workload == "study_sweep":
            first: list = []
            while not lengths or cycles_left() >= 1.0:
                t = time.perf_counter()
                self.sweep_block(len(lengths), None if lengths else first)
                cycle_done(t)
            self.speed.mark()
            return first
        # the last session replays the previous session's manifest
        prev = None
        k = 0
        while True:
            t = time.perf_counter()
            replay = k > 0 and cycles_left() < 2.0
            out = self.session(k, replay_of=prev if replay else None)
            cycle_done(t)
            if replay:
                self.speed.mark()
                return []
            if k > 1:
                shutil.rmtree(prev)  # session0 stays for the record
            prev = out
            k += 1

    def first_cycle(self) -> list:
        """The run's first cycle alone: one fresh session, or the first sweep block."""
        if self.inputs.workload == "study_sweep":
            logs: list = []
            self.sweep_block(0, logs)
            return logs
        self.session(0)
        return []

    def fine_cycle(self) -> None:
        """One simulation and one map, for the microsecond-scale counters."""
        if self.inputs.workload == "study_sweep":
            self.sweep_run(*self.inputs.blocks[0][0])
        else:
            self.simulate(self.inputs.sessions[0], self.work / "fine")
        self.map(self.inputs.maps[0], self.work / "fine_map")

    # -- record ------------------------------------------------------------------

    def outputs(self, logs: list) -> dict[str, str]:
        """SHA-256 of every output of the first cycle."""
        files = {f"{stem}.log": sha256_log(log) for stem, log in logs}
        if self.inputs.workload == "study_sweep":
            dirs = [self.work / p.stem for p in self.inputs.maps]
        else:
            dirs = [self.work / "session0", self.work / "session0" / "map"]
        for d in dirs:
            for f in sorted(d.iterdir()):
                if f.is_file():
                    files[f"{d.name}/{f.name}"] = sha256_file(f)
        return files

    def results(self, logs: list) -> dict:
        """Exact simulated results of the first cycle, beside its output digests."""
        csv_bytes = 0
        if self.inputs.workload == "study_sweep":
            logs_only = [log for _, log in logs]
        else:
            path = self.work / "session0" / "log.csv"
            csv_bytes = path.stat().st_size
            logs_only = [engine.SimLog.from_csv(path)]
        return {**sim_stats(logs_only), "engine.csv_bytes": csv_bytes,
                "outputs": self.outputs(logs)}


# ---------------------------------------------------------------------------
# simulated results, recorded beside the timings (exact, not gated)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def sha256_log(log) -> str:
    h = hashlib.sha256()
    for name in engine.CHANNELS:
        h.update(np.ascontiguousarray(log[name], dtype="<f8").tobytes())
    return h.hexdigest()


def sim_stats(logs) -> dict:
    """Saturation, velocity-envelope and seated-repetition statistics."""
    samples = sat = vel = reps = seated = 0
    for log in logs:
        samples += len(log)
        sat += int(((log["sat_1"] > 0.5) | (log["sat_2"] > 0.5)).sum())
        vel += int(((log["vel_exc_1"] > 0.5) | (log["vel_exc_2"] > 0.5)).sum())
        for k in analysis.repetition_indices(log):
            reps += 1
            seated += int(log["chair_fz"][analysis.motion_window(log, k)].max() > 0.0)
    return {"engine.steps": samples,
            "sim.sat_frac": sat / samples, "sim.vel_exc_frac": vel / samples,
            "sim.seated_reps": seated, "sim.reps": reps}
