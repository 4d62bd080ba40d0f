"""stsbot: deterministic simulator and control library for a 2-DOF
floor-based sit-to-stand assistance robot."""

__version__ = "0.1.0"

from .actuators import (
    ACTUATOR_1,
    ACTUATOR_2_HF,
    ACTUATOR_2_HS,
    ActuatorSpec,
    FrictionModel,
)
from .control import (
    AssistMode,
    AssistModeConfig,
    ForceCommand,
    SpeedCommand,
    TransferConfig,
    force_controller_step,
    speed_controller_step,
)
from .engine import Plant, Scenario, SimState, TransferScenario, run_scenario
from .human import ChairModel, HarnessModel, HumanParams
from .kinematics import JointState, LinkMassModel, RobotGeometry, inverse_kinematics
from .simlog import SimLog

__all__ = [
    "__version__",
    "ACTUATOR_1", "ACTUATOR_2_HF", "ACTUATOR_2_HS",
    "ActuatorSpec", "FrictionModel",
    "AssistMode", "AssistModeConfig", "ForceCommand", "SpeedCommand", "TransferConfig",
    "force_controller_step", "speed_controller_step",
    "Plant", "Scenario", "SimLog", "SimState", "TransferScenario", "run_scenario",
    "ChairModel", "HarnessModel", "HumanParams",
    "JointState", "LinkMassModel", "RobotGeometry", "inverse_kinematics",
]
