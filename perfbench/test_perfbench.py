"""Tests of the benchmark itself: failure accounting, inputs, tracing, smoke runs.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import ops  # noqa: E402
import speed  # noqa: E402
import stsbot.cli  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def runner(tmp_path):
    inputs = workloads.write_inputs("rehab_session", 5, True, tmp_path)
    return ops.Runner(inputs, ops.build_inputs(inputs), tmp_path / "run", ops.Tally())


def test_truncated_log_fails_analyze(runner):
    out = runner.work / "session"
    samples = runner.simulate(runner.inputs.sessions[0], out)
    assert samples and runner.tally.failed == 0
    data = (out / "log.csv").read_bytes()
    mid_row = len(data) // 2
    row_end = data.rindex(b"\n", 0, mid_row) + 1
    for cut in (mid_row, row_end):
        (out / "log.csv").write_bytes(data[:cut])
        failed = runner.tally.failed
        runner.analyze(out, samples)
        assert runner.tally.failed == failed + 1
    assert runner.tally.attempted == 3


def test_finite_map_value_under_mask_fails(runner, monkeypatch):
    real = stsbot.cli.capability_map

    def leaky(*args, **kwargs):
        cmap = real(*args, **kwargs)
        cmap.value[cmap.mask != 0] = 1.0
        return cmap

    monkeypatch.setattr(stsbot.cli, "capability_map", leaky)
    runner.map(runner.inputs.maps[0], runner.work / "map")
    assert (runner.tally.attempted, runner.tally.failed) == (1, 1)
    assert "finite where the mask" in runner.tally.problems[0]


def test_map_check_accepts_real_map_and_rejects_wrong_grid(runner):
    out = runner.work / "map"
    runner.map(runner.inputs.maps[0], out)
    assert runner.tally.failed == 0
    cfg = dict(runner.cfgs[runner.inputs.maps[0]], **{"map.step": 0.1})
    assert ops.check_map(out, cfg)


def test_nonzero_exit_fails(runner):
    bad = runner.work.parent / "bad.cfg"
    bad.write_text("mode = weight_unloading\nfz_pct = 0.0\n")
    assert runner.simulate(bad, runner.work / "bad") is None
    bad_map = runner.work.parent / "bad_map.cfg"
    bad_map.write_text("map.configuration = sideways\n")
    runner.map(bad_map, runner.work / "bad_map")
    assert (runner.tally.attempted, runner.tally.failed) == (2, 2)
    assert all("exit 2" in p for p in runner.tally.problems)


def test_replay_mismatch_fails(runner):
    first = runner.session(0)
    assert runner.tally.failed == 0
    with open(first / "log.csv", "a") as fh:
        fh.write("0\n")
    runner.session(1, replay_of=first)
    assert runner.tally.failed == 1
    assert "byte for byte" in runner.tally.problems[0]


def test_bounds_checks():
    assert not ops.check_assistance(0.1003, 0.10)
    assert ops.check_assistance(0.0136, 0.05)
    assert ops.check_assistance(float("nan"), 0.05)
    assert not ops.check_transfer(0.0404, 0.0404, 0.04)
    assert len(ops.check_transfer(0.030, 0.047, 0.04)) == 2


def test_inputs_follow_the_seed(tmp_path):
    def files(seed, name):
        workloads.write_inputs("study_sweep", seed, False, tmp_path / name)
        return {p.name: p.read_text() for p in (tmp_path / name / "inputs").iterdir()}

    assert files(7, "a") == files(7, "b")
    assert files(7, "a") != files(8, "c")


def test_tracer_restores_every_name():
    before = {(o, a): vars(o)[a] for o, a in [
        (stsbot.cli, "run_scenario"), (stsbot.engine.Plant, "step"),
        (stsbot.engine.SimLog, "from_csv"), (stsbot.engine, "act_diag"),
        (stsbot.control, "dk_entries"), (stsbot.analysis, "inverse_kinematics")]}
    tracer = tracing.Tracer()
    with tracer.layers():
        assert vars(stsbot.engine.Plant)["step"] is not before[(stsbot.engine.Plant, "step")]
    with tracer.fine():
        pass
    assert all(vars(o)[a] is v for (o, a), v in before.items())


def test_scaled_times_follow_the_reference_around_and_inside_each_operation():
    meter = speed.Speedometer()
    nominal = speed.REF_NOMINAL_S
    meter.refs = [nominal, 2 * nominal, 3 * nominal]
    times = speed.ScaledTimes()
    times.add(speed.Timed(3.0), 0)                        # refs around it: 1.5x nominal
    times.add(speed.Timed(5.0, [2 * nominal] * 2), 1)     # 2x, 3x, 2x, 2x: 2.25x nominal
    assert times.scaled(meter) == pytest.approx([2.0, 5.0 / 2.25])


def test_sampler_takes_its_time_out_of_the_operation():
    meter = speed.Speedometer()
    wall = time.perf_counter()
    with meter.timing() as timed:
        while time.perf_counter() - wall < 0.3:
            pass
    wall = time.perf_counter() - wall
    assert len(timed.inside) >= 3
    assert timed.host_s < wall - 0.9 * sum(timed.inside)
    with speed.Speedometer(enabled=False).timing() as untimed:
        pass
    assert untimed.inside == []


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    assert all(np.isfinite(m["value"]) for m in result["metrics"].values())


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work", "results"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rehab_session", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
