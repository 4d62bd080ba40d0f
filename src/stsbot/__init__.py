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
from .engine import Plant, Scenario, SimLog, SimState, run_scenario
from .human import ChairModel, HarnessModel, HumanParams, STSReference
from .kinematics import (
    EffectorState,
    JointState,
    LinkMassModel,
    RobotGeometry,
    forward_kinematics,
    inverse_kinematics,
)

__all__ = [
    "__version__",
    "ACTUATOR_1", "ACTUATOR_2_HF", "ACTUATOR_2_HS",
    "ActuatorSpec", "FrictionModel",
    "AssistMode", "AssistModeConfig", "ForceCommand", "SpeedCommand", "TransferConfig",
    "force_controller_step", "speed_controller_step",
    "Plant", "Scenario", "SimLog", "SimState", "run_scenario",
    "ChairModel", "HarnessModel", "HumanParams", "STSReference",
    "EffectorState", "JointState", "LinkMassModel", "RobotGeometry",
    "forward_kinematics", "inverse_kinematics",
]
