"""Actuator capability envelopes, friction models and the motor-speed law.

Forces at this layer are in the motor convention: positive is the direction
the drive actually produces (push for the strut, pull for the belt).  The
belt cannot push, so its envelope is one-sided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ActuatorSpec:
    """Output capability at the connection point.

    ratio is motor angle per output millimetre (rad:mm); motor_speed turns
    an output speed into a motor speed.
    """

    ratio: float
    f_max_cont: float
    f_max_peak: float
    v_max_load: float
    v_max_peak_load: float
    pull_only: bool = False

    def __post_init__(self):
        if not (0.0 < self.f_max_cont <= self.f_max_peak):
            raise ValueError("need 0 < f_max_cont <= f_max_peak")
        if self.v_max_load <= 0.0 or self.v_max_peak_load <= 0.0:
            raise ValueError("velocity limits must be positive")


ACTUATOR_1 = ActuatorSpec(ratio=0.63, f_max_cont=402.0, f_max_peak=1725.0,
                          v_max_load=0.72, v_max_peak_load=0.40, pull_only=False)
ACTUATOR_2_HF = ActuatorSpec(ratio=16.7, f_max_cont=3120.0, f_max_peak=3120.0,
                             v_max_load=0.05, v_max_peak_load=0.05, pull_only=True)
ACTUATOR_2_HS = ActuatorSpec(ratio=0.45, f_max_cont=579.0, f_max_peak=981.0,
                             v_max_load=0.55, v_max_peak_load=0.34, pull_only=True)
# the order of every per-drive triple (Scenario's friction models too)
DRIVES = (ACTUATOR_1, ACTUATOR_2_HS, ACTUATOR_2_HF)


def engaged_pair(transfer: bool, per_drive: tuple) -> tuple:
    """The strut's and the engaged belt output's entries of a per-drive
    triple: a transfer runs the belt's high-force output (with the mast
    braked), a rehabilitation run its backdrivable high-speed output."""
    strut, high_speed, high_force = per_drive
    return strut, (high_force if transfer else high_speed)


@dataclass(frozen=True)
class FrictionModel:
    """Dry + viscous friction lumped into a*tanh(b*motor_vel).

    Zero at rest by design: open-loop compensation with a discontinuity at
    zero speed would chatter.
    """

    a: float
    b: float

    def __post_init__(self):
        if self.a < 0.0 or self.b < 0.0:
            raise ValueError("friction parameters must be non-negative")


# Placeholder magnitudes shaped like measured drive friction; tests always
# inject known parameters instead of relying on these.
DEFAULT_FRICTION_1 = FrictionModel(a=120.0, b=0.02)
DEFAULT_FRICTION_2_HS = FrictionModel(a=35.0, b=0.05)
DEFAULT_FRICTION_2_HF = FrictionModel(a=15.0, b=0.05)


def friction_force(model: FrictionModel, motor_vel: float) -> float:
    """Friction force magnitude at the output for a signed motor speed [rad/s]."""
    return model.a * math.tanh(model.b * motor_vel)


def motor_speed(spec: ActuatorSpec, linear_vel: float) -> float:
    """Motor angular speed [rad/s] for an output linear speed [m/s]."""
    return spec.ratio * 1000.0 * linear_vel


def clamp_to_capability(
    spec: ActuatorSpec, force_cmd: float, allow_peak: bool = False
) -> tuple[float, bool]:
    """Clamp a force command into the actuator envelope.

    Returns (force, saturated).  Saturation is signalled, never raised.
    """
    limit = spec.f_max_peak if allow_peak else spec.f_max_cont
    lo = 0.0 if spec.pull_only else -limit
    if force_cmd > limit:
        return limit, True
    if force_cmd < lo:
        return lo, True
    return force_cmd, False


def velocity_exceeded(spec: ActuatorSpec, out_vel: float, allow_peak: bool = False) -> bool:
    """Diagnostic flag: output speed beyond the rated envelope; elementwise on arrays."""
    limit = spec.v_max_peak_load if allow_peak else spec.v_max_load
    return abs(out_vel) > limit
