"""Assist-mode force fields, the open-loop force controller and the transfer
speed controller.

The force pipeline is: desired field at the effector -> structure-mass
compensation in joint space -> map through the transmissions -> per-actuator
friction compensation -> envelope clamp.  With matched plant models the
static effector force error is exactly zero.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass
from enum import Enum
from typing import NamedTuple

from .actuators import (
    ActuatorSpec,
    FrictionModel,
    clamp_to_capability,
    friction_force,
)
from .errors import ConfigError
from .human import THIGH_FACTOR, HumanParams
from .kinematics import (  # noqa: F401  act_diag, dk_entries: perfbench counts calls by name
    GRAVITY,
    ArmEval,
    act_diag,
    belt_rate_for,
    check_invertible,
    dk_entries,
    drive_forces,
)


class AssistMode(Enum):
    """The rehabilitation modes; a transfer is a TransferConfig, not a mode."""

    FOLLOW_ME = "follow_me"
    WEIGHT_UNLOADING = "weight_unloading"
    COM_BALANCE = "com_balance"


@dataclass(frozen=True)
class AssistModeConfig:
    """Mode selection plus the parameters of the workspace force field.

    fz_pct is the vertical unloading as a fraction of bodyweight and ky the
    stiffness of the forward virtual spring; the user is the scenario's human.
    """

    mode: AssistMode
    _: KW_ONLY
    fz_pct: float = 0.0
    ky: float = 0.0
    clamp_forward_only: bool = False

    def __post_init__(self):
        if not (0.0 <= self.fz_pct < 1.0):
            raise ConfigError("fz_pct must lie in [0, 1)")
        if self.ky < 0.0:
            raise ConfigError("ky must be non-negative")
        m = self.mode
        if m is AssistMode.FOLLOW_ME and (self.fz_pct != 0.0 or self.ky != 0.0):
            raise ConfigError("follow_me requires fz_pct = 0 and ky = 0 (safety net only)")
        if m is AssistMode.WEIGHT_UNLOADING and not (self.fz_pct > 0.0 and self.ky == 0.0):
            raise ConfigError("weight_unloading requires fz_pct > 0 and ky = 0")
        if m is AssistMode.COM_BALANCE and not (self.fz_pct > 0.0 and self.ky > 0.0):
            raise ConfigError("com_balance requires fz_pct > 0 and ky > 0")


def anchor_y(user: HumanParams, e_yi: float) -> float:
    """Anchor axis of the virtual spring: the effector y position e_yi
    captured when the mode is armed plus one thigh length of the user."""
    return e_yi + THIGH_FACTOR * user.height


def desired_force_field(config: AssistModeConfig, user: HumanParams | None, e_yi: float,
                        e_y: float) -> tuple[float, float]:
    """Desired (f_y, f_z) the robot should exert on the user with the
    effector at forward position e_y, the mode armed at e_yi; follow_me
    exerts none and reads no user."""
    if config.mode is AssistMode.FOLLOW_ME:
        return 0.0, 0.0
    f_z = config.fz_pct * user.mass * GRAVITY
    if config.mode is AssistMode.WEIGHT_UNLOADING:
        return 0.0, f_z
    # com_balance: linear spring toward the anchor axis, reversing past it
    f_y = config.ky * (anchor_y(user, e_yi) - e_y)
    if config.clamp_forward_only and f_y < 0.0:
        f_y = 0.0
    return f_y, f_z


class ForceCommand(NamedTuple):
    """Clamped actuator commands and the stages that produced them."""

    f1: float
    f2: float
    saturated_1: bool
    saturated_2: bool
    f1_map: float
    f2_map: float
    f1_fric: float
    f2_fric: float


def force_controller_step(
    arm: ArmEval,
    specs: tuple[ActuatorSpec, ActuatorSpec],
    frictions: tuple[FrictionModel, FrictionModel],
    desired: tuple[float, float],
    motor_vels: tuple[float, float],
    allow_peak: bool = False,
) -> ForceCommand:
    """One cycle of the open-loop force controller (rehabilitation modes):
    drive commands that deliver the desired (f_y, f_z) on the user.

    arm is the arm evaluated at the measured joint state (``Arm.at``, which
    the plant keeps on each state); motor_vels are the encoder speeds of the
    two drives [rad/s].  No force feedback anywhere: gravity and friction
    are compensated from models only.
    """
    f_y, f_z = desired

    d = arm.d
    check_invertible(*d)

    j11, j12, j21, j22 = arm.jac
    g_a, g_c = arm.g
    # joint-space demand: deliver the field and hold the structure
    tau_a = j11 * f_y + j21 * f_z + g_a
    tau_c = j12 * f_y + j22 * f_z + g_c

    f1_map, f2_map = drive_forces(d, tau_a, tau_c)

    f1_fric = f1_map + friction_force(frictions[0], motor_vels[0])
    f2_fric = f2_map + friction_force(frictions[1], motor_vels[1])

    f1, sat1 = clamp_to_capability(specs[0], f1_fric, allow_peak)
    f2, sat2 = clamp_to_capability(specs[1], f2_fric, allow_peak)

    return ForceCommand(f1, f2, sat1, sat2, f1_map, f2_map, f1_fric, f2_fric)


# ---------------------------------------------------------------------------
# transfer speed controller


@dataclass(frozen=True)
class TransferConfig:
    """Speed-controlled transfer along the one-DOF arc about C."""

    v_z_target: float = 0.03
    q_a_locked: float = 0.30
    kp: float = 5000.0
    ki: float = 20000.0
    q_c_start: float = 0.45
    q_c_end: float = -0.50

    def __post_init__(self):
        if self.v_z_target <= 0.0:
            raise ConfigError("v_z_target must be positive")
        if self.q_c_start <= self.q_c_end:
            raise ConfigError("q_c_start must sit below q_c_end on the arc (larger q_c)")
        if not (self.kp >= 0.0 and self.ki >= 0.0):
            raise ConfigError("transfer kp and ki must be non-negative")


class SpeedCommand(NamedTuple):
    """Belt command of one speed-controller cycle and the reference it tracked."""

    f2: float
    saturated: bool
    v2_ref: float


def speed_controller_step(
    d_l2: float, d_ez: float,
    spec_hf: ActuatorSpec,
    transfer: TransferConfig,
    v2_measured: float,
    dt: float,
    integral: float,
    v_z_signed: float,
) -> tuple[SpeedCommand, float]:
    """PI belt-speed regulation toward the kinematic reference; returns the
    command and the new integral.

    The error is taken in the motor (reel-in positive) convention so that a
    lift demand produces positive tension; anti-windup freezes the integral
    while the command sits on the one-sided envelope.  ``v_z_signed`` is the
    vertical effector speed to track: +v_z lifts, -v_z lowers and 0 holds
    position between phases.  ``d_l2``, ``d_ez`` are dL2/dq_c and dE_z/dq_c
    (Arm.boom's) at the measured state, its mast at ``transfer.q_a_locked``.
    """
    v2_ref = belt_rate_for(d_l2, d_ez, v_z_signed) if v_z_signed != 0.0 else 0.0
    err = v2_measured - v2_ref  # reel-in positive
    unclamped = transfer.kp * err + integral
    f2, saturated = clamp_to_capability(spec_hf, unclamped, allow_peak=False)
    if not saturated:
        integral = integral + transfer.ki * err * dt
    return SpeedCommand(f2, saturated, v2_ref), integral
