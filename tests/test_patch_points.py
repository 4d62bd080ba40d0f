"""The attributes the benchmark's tracer (perfbench/tracing.py) replaces by
name while it measures a run.

The test suite collects only tests/, so deleting or renaming one of these
would pass here and break a traced run (``perfbench/run.py --trace 1``).
Keep this list equal to the tracer's.
"""

import pytest

from stsbot import analysis, cli, control, engine
from stsbot.engine import Plant, SimLog

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
