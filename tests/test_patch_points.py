"""The attributes the benchmark's tracer (perfbench/tracing.py) replaces by
name while it measures a run, and the ones perfbench/ops.py reads.

The test suite collects only tests/, so deleting or renaming one of these
would pass here and break a benchmark run (``perfbench/run.py``).  Keep
PATCH_POINTS equal to the tracer's list.
"""

import pytest

from stsbot import analysis, cli, control, engine
from stsbot.engine import Plant, SimLog, TransferScenario, run_scenario

PATCH_POINTS = [
    (cli, "run_scenario"),
    (cli, "capability_map"),
    (cli, "sts_metrics"),
    (cli, "measured_assistance"),
    (cli, "measured_assistance_per_rep"),
    (cli, "transfer_speed_table"),
    (engine, "run_scenario"),
    (engine, "force_controller_step"),
    (engine, "speed_controller_step"),
    (engine, "act_diag"),
    (engine, "dk_entries"),
    (control, "act_diag"),
    (control, "dk_entries"),
    (analysis, "inverse_kinematics"),
    (SimLog, "write_csv"),
    (SimLog, "from_csv"),
    (Plant, "step"),
]


@pytest.mark.parametrize("owner, name", PATCH_POINTS,
                         ids=[f"{o.__name__}.{n}" for o, n in PATCH_POINTS])
def test_tracer_patch_point_is_defined_on_its_owner(owner, name):
    # the tracer reads vars(owner)[name] to restore it afterwards
    assert name in vars(owner)


def test_simulate_enters_the_run_through_cli_run_scenario(tmp_path, monkeypatch):
    # the tracer spans a session's run by replacing cli.run_scenario: a
    # simulate that went around it would record no engine.run_scenario span
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return run_scenario(*args, **kwargs)

    monkeypatch.setattr(cli, "run_scenario", counting)
    cfg = tmp_path / "transfer.cfg"
    cfg.write_text("mode = transfer\nrepetitions = 1\npause = 0.1\nsettle = 0.1\ndt = 0.005\n"
                   "transfer.v_z = 0.15\n")
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert len(calls) == 1 and calls[0].transfer is not None


def test_perfbench_reads_a_run_through_engine(tmp_path):
    # the sweep reads run_scenario's log and its len and dt, the session
    # reads log.csv back through SimLog.from_csv, and the digest walks
    # CHANNELS: all three as attributes of engine
    scenario = TransferScenario(repetitions=1, pause=0.1, settle=0.1, dt=5e-3)
    log = engine.run_scenario(scenario)
    assert isinstance(log, engine.SimLog)
    assert len(log) > 0 and log.dt == scenario.dt
    assert list(log.data) == engine.CHANNELS
    log.write_csv(tmp_path / "log.csv")
    back = engine.SimLog.from_csv(tmp_path / "log.csv")
    assert len(back) == len(log) and list(back.data) == engine.CHANNELS
