"""Surrogate human sit-to-stand biomechanics.

The human is a point mass at the CoM.  Legs are modelled as a force channel
from the ground: a weight-bearing feedforward (whatever the chair and the
harness are not carrying) plus PD tracking of a minimum-jerk reference,
clamped to a mobility-scaled capacity.  The feet ground-reaction force equals
that leg force, so the chair/feet split responds to where the CoM is over
the seat: the chair's supportable share tapers off as the CoM advances
toward the seat edge.

This module holds the force laws only; ``engine.Plant.forces`` evaluates
them, plus the floor contact, for the integrator and the logger alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .kinematics import GRAVITY

CAPACITY_FACTOR = 1.3  # peak leg force of a fully able adult, x bodyweight
THIGH_FACTOR = 0.25  # thigh length, the forward travel of a rise, x body height


@dataclass(frozen=True)
class HumanParams:
    """A person: height [m], mass [kg], mobility in [0, 1], the seat height,
    the seated CoM's forward position chair_y [m] and the standing CoM
    height as a fraction of body height.

    The seated CoM sits 0.25 m above the seat at chair_y; the standing CoM
    lies one thigh length (THIGH_FACTOR * height) ahead of it at
    standing_z_factor * height.  These two CoMs, weight, capacity (the peak
    leg-force magnitude available to this person) and the tracking gains
    track_kp, track_kd follow from the fields and are set once, at
    construction.
    """

    height: float
    mass: float
    mobility: float = 1.0
    seat_height: float = 0.43
    chair_y: float = 0.0
    standing_z_factor: float = 0.54
    seated_com: tuple[float, float] = field(init=False, repr=False, compare=False)
    standing_com: tuple[float, float] = field(init=False, repr=False, compare=False)
    weight: float = field(init=False, repr=False, compare=False)
    capacity: float = field(init=False, repr=False, compare=False)
    track_kp: float = field(init=False, repr=False, compare=False)
    track_kd: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.height <= 0.0 or self.mass <= 0.0:
            raise ValueError("height and mass must be positive")
        if not (0.0 <= self.mobility <= 1.0):
            raise ValueError("mobility is a fraction in [0, 1]")
        seated = (self.chair_y, self.seat_height + 0.25)
        standing = (self.chair_y + THIGH_FACTOR * self.height,
                    self.standing_z_factor * self.height)
        if standing[1] <= seated[1]:
            raise ValueError("standing CoM must be above seated CoM")
        weight = self.mass * GRAVITY
        kp = 1600.0 * (self.mass / 80.0)
        for name, value in (("seated_com", seated),
                            ("standing_com", standing),
                            ("weight", weight),
                            ("capacity", self.mobility * CAPACITY_FACTOR * weight),
                            ("track_kp", kp),
                            ("track_kd", 2.0 * math.sqrt(kp * self.mass))):
            object.__setattr__(self, name, value)


def minimum_jerk(tau: float) -> tuple[float, float, float]:
    """(s, ds/dtau, d2s/dtau2) of the quintic 10t^3 - 15t^4 + 6t^5."""
    if tau <= 0.0:
        return 0.0, 0.0, 0.0
    if tau >= 1.0:
        return 1.0, 0.0, 0.0
    t2 = tau * tau
    t3 = t2 * tau
    s = t3 * (10.0 - 15.0 * tau + 6.0 * t2)
    ds = 30.0 * t2 * (1.0 - tau) * (1.0 - tau)
    dds = 60.0 * tau - 180.0 * t2 + 120.0 * t3
    return s, ds, dds


@dataclass(frozen=True)
class ChairModel:
    """Unilateral seat contact with a support share that tapers at the edge.

    The spring-damper acts at the seat plane; the force it may carry is
    capped by taper(y) * support_cap * bodyweight, so weight shifts onto the
    feet as the CoM advances toward the edge.
    """

    stiffness: float = 2.0e4
    damping: float = 400.0
    support_cap: float = 1.2
    seat_depth: float = 0.45
    edge_taper: float = 0.10
    edge_offset: float = 0.10  # seat front edge this far ahead of the seated CoM

    def __post_init__(self):
        if self.stiffness <= 0.0:
            raise ValueError("chair stiffness must be positive")

    def seat(self, params: HumanParams) -> "Seat":
        """This chair under this person, placed so the spring carries exactly
        bodyweight at the seated reference (no settling transient)."""
        edge = params.seated_com[0] + self.edge_offset
        return Seat(self, params.weight,
                    plane_z=params.seated_com[1] + params.weight / self.stiffness,
                    edge=edge, back=edge - self.seat_depth, taper_from=edge - self.edge_taper)


@dataclass(frozen=True)
class Seat:
    """A chair placed under one person (ChairModel.seat): the seat plane
    height, the front edge, the back and where the edge taper begins."""

    chair: ChairModel
    weight: float
    plane_z: float
    edge: float
    back: float
    taper_from: float

    def support_fraction(self, y: float) -> float:
        if y >= self.edge or y <= self.back:
            return 0.0
        if y >= self.taper_from:
            return (self.edge - y) / self.chair.edge_taper
        return 1.0

    def force(self, com: tuple[float, float], vel: tuple[float, float]) -> float:
        """Vertical seat force on the CoM: like the floor, a contact with no state."""
        pen = self.plane_z - com[1]
        if pen <= 0.0:
            return 0.0
        chair = self.chair
        raw = chair.stiffness * pen - chair.damping * vel[1]
        cap = self.support_fraction(com[0]) * chair.support_cap * self.weight
        return max(0.0, min(raw, cap))


def muscle_effort(
    params: HumanParams,
    com: tuple[float, float],
    vel: tuple[float, float],
    chair_fz: float,
    harness_f: tuple[float, float],
    ref_pos: tuple[float, float],
    ref_vel: tuple[float, float],
) -> tuple[float, float]:
    """Leg force on the CoM: gravity-support baseline plus PD tracking.

    The baseline carries whatever bodyweight the chair and harness are not
    already supporting.  The total is clamped to feet-can-only-push in z and
    to the person's capacity in norm, so a low-mobility surrogate fails the
    motion (sit-back) instead of producing impossible forces.
    """
    baseline = max(0.0, params.weight - chair_fz - harness_f[1])
    kp, kd = params.track_kp, params.track_kd
    fx = kp * (ref_pos[0] - com[0]) + kd * (ref_vel[0] - vel[0])
    fz = baseline + kp * (ref_pos[1] - com[1]) + kd * (ref_vel[1] - vel[1])
    fz = max(0.0, fz)
    norm = math.hypot(fx, fz)
    cap = params.capacity
    if norm > cap:
        if cap <= 0.0:
            return 0.0, 0.0
        scale = cap / norm
        fx *= scale
        fz *= scale
    return fx, fz


@dataclass(frozen=True)
class HarnessModel:
    """Stiff spring-damper coupling between the effector and the CoM.

    rest_offset is captured at attach time so the coupling starts unloaded;
    the force on the human is equal and opposite to the force on the robot.
    """

    stiffness: float = 1.0e5
    damping: float = 400.0
    rest_offset: tuple[float, float] = (0.0, 0.03)

    def __post_init__(self):
        if self.stiffness <= 0.0:
            raise ValueError("harness stiffness must be positive")

    def force_on_human(
        self,
        effector_pos: tuple[float, float],
        effector_vel: tuple[float, float],
        com: tuple[float, float],
        com_vel: tuple[float, float],
    ) -> tuple[float, float]:
        dx = effector_pos[0] - com[0] - self.rest_offset[0]
        dz = effector_pos[1] - com[1] - self.rest_offset[1]
        return (
            self.stiffness * dx + self.damping * (effector_vel[0] - com_vel[0]),
            self.stiffness * dz + self.damping * (effector_vel[1] - com_vel[1]),
        )
