"""Fixed-step coupled dynamics of the arm and the surrogate human.

A run is one of two kinds, the two ways the device is used.  A ``Scenario``
runs the 2-DOF arm in an assist mode, a person, or both; a
``TransferScenario`` brakes the mast and lifts a payload on the boom, with no
person, chair, harness or assist mode.  Both extend ``_Run``, which holds
what every run reads and the rules every run keeps; each type gives its own
rules and its own ``rise_timing``, and answers a field it lacks that the run
loop reads (``human``, ``mode_config``, ``robot_attached``, ``transfer``,
``payload``) with a class constant.

The plant integrates M(q)*qdd + C(q,qd)*qd + g(q) + D*qd =
J_act^T * F_transmitted + J_dk^T * F_harness with RK4 at a fixed step
(1 ms default).  Transmitted forces are the motor commands minus the plant's
own tanh friction, the belt clamped to tension-only.  A transfer's boom
turns about C alone: its RK4 integrates only (q_c, qd_c), and q_a, qd_a,
com and vcom keep their start values.  ``Plant.evaluated`` evaluates each
state the run keeps, once and on first read: by ``Plant.forces`` for a
2-DOF plant, by Arm.boom's three terms for a transfer, which a test keeps
bit-equal to Arm.at's.  RK4 stage 1, the drives' speeds, both controllers
and the human log channels read it.  Everything is deterministic for a given
scenario and seed: the only randomness is a per-repetition duration jitter
drawn once from the seeded generator when the schedule is built; a transfer
draws none.

This module holds the scenarios, the plant, the schedule and the run loop.
The schedule decides what each phase lasts and commands: a segment carries
its span, its CoM reference's end points and the vertical effector speed a
transfer's speed loop is given, so the loop reads the current segment and
holds no phase logic.  The scenario's ``rise_timing`` gives the rise time
and its jitter to both the schedule and its own validate's step bound.  The
loop packs each logged sample into a block, fills its arm channels by one
Arm.at per block and hands the blocks to a sink; the log's channels, its
phase codes, its CSV format and the sinks are in ``simlog``.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import simlog
from .actuators import (
    DEFAULT_FRICTION_1,
    DEFAULT_FRICTION_2_HF,
    DEFAULT_FRICTION_2_HS,
    DRIVES,
    FrictionModel,
    engaged_pair,
    friction_force,
    motor_speed,
    velocity_exceeded,
)
from .control import (
    AssistMode,
    AssistModeConfig,
    TransferConfig,
    desired_force_field,
    force_controller_step,
    speed_controller_step,
)
from .errors import ConfigError, NumericalDivergence
from .human import (
    ChairModel,
    HarnessModel,
    HumanParams,
    minimum_jerk,
    muscle_effort,
)
from .kinematics import (  # noqa: F401  act_diag, dk_entries: perfbench counts calls by name
    ARRAY_MATH,
    DRIVE_SIGN,
    GRAVITY,
    IK_OK,
    IK_UNREACHABLE,
    Arm,
    ArmEval,
    JointState,
    LinkMassModel,
    RobotGeometry,
    act_diag,
    dk_entries,
    drive_speeds,
    gravity_potential,
    inverse_kinematics,
    joint_torques,
    solve_ik,
)
from .simlog import CHANNELS, DEFAULT_DT, SimLog  # noqa: F401  perfbench reads engine.SimLog

# hard floor under the human CoM: engages only when a failed motion collapses
# (a crumpled body still keeps its CoM above the ground plane)
FLOOR_Z = 0.10
FLOOR_STIFFNESS = 5.0e4
FLOOR_DAMPING = 1.0e3

# longest run: ``stsbot simulate`` holds one block of it at any length;
# ``run_scenario``'s log is held once, at most 320 B per sample (40 float64
# channels, each stored only if it varies), 3.2 GB
MAX_STEPS = 10_000_000

@dataclass(frozen=True)
class _Run:
    """What every run reads, and the rules every run keeps: ``Scenario`` (the
    2-DOF arm, a person, or both) and ``TransferScenario`` (the braked boom
    lifting a payload) add their own fields.  A field one type lacks and the
    run loop reads is a class constant of that type."""

    geom: RobotGeometry = RobotGeometry()
    masses: LinkMassModel | None = None
    repetitions: int = 1
    pause: float = 2.0
    dt: float = DEFAULT_DT
    seed: int = 0
    allow_peak: bool = False
    damping: tuple[float, float] = (0.5, 0.5)
    ctrl_frictions: tuple[FrictionModel, FrictionModel, FrictionModel] = (
        DEFAULT_FRICTION_1, DEFAULT_FRICTION_2_HS, DEFAULT_FRICTION_2_HF)
    plant_frictions: tuple[FrictionModel, FrictionModel, FrictionModel] = (
        DEFAULT_FRICTION_1, DEFAULT_FRICTION_2_HS, DEFAULT_FRICTION_2_HF)
    settle: float = 0.5

    def _validate(self, poses, advice: str, *non_negative) -> None:
        """The shared rules; ``poses`` are (name, q, limits) of the joint
        positions the run starts from or holds, ``advice`` how to shorten a
        run over MAX_STEPS, ``non_negative`` the subclass's (name, value)s."""
        if not (0.0 < self.dt <= 5e-3):
            raise ConfigError("dt must lie in (0, 5e-3] s")
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        for name, value in (("seed", self.seed), ("pause", self.pause), ("settle", self.settle),
                            *non_negative, ("damping.q_a", self.damping[0]),
                            ("damping.q_c", self.damping[1])):
            if not value >= 0.0:
                raise ConfigError(f"{name} must be non-negative")
        # det M(q) = A1*B1 - (G1*sin q_c)^2 is least where |sin q_c| = 1
        arm = Arm(self.geom, self.resolved_masses())
        if self.robot_attached and not (arm.A1_B1 - arm.B1) * arm.B1 > arm.neg_G1**2:
            raise ConfigError("the arm's mass matrix can be singular: masses.m_v must be positive")
        # else the step's hard stops would move the braked mast, cut the arc
        # short or move the start pose before the first command acts
        for name, q, (lo, hi) in poses:
            if not lo <= q <= hi:
                raise ConfigError(f"{name} = {q} lies outside its joint limits [{lo}, {hi}]")
        # every repetition at its longest jitter, against the log's row count
        rise, jitter = self.rise_timing()
        longest = self.settle + self.repetitions * 2.0 * (rise * (1.0 + jitter) + self.pause)
        if not longest / self.dt <= MAX_STEPS:
            raise ConfigError(f"the run may last {longest:.3g} s, over {MAX_STEPS:.0e} steps "
                              f"of dt ({advice})")

    def resolved_masses(self) -> LinkMassModel:
        return self.masses if self.masses is not None else LinkMassModel.for_geometry(self.geom)


@dataclass(frozen=True)
class Scenario(_Run):
    """A run of the 2-DOF arm in an assist mode, of a person, or of both."""

    human: HumanParams | None = None
    chair: ChairModel = ChairModel()
    harness: HarnessModel = HarnessModel()
    mode_config: AssistModeConfig | None = None
    sts_duration: float = 2.0  # minimum-jerk rise (and descent) time of the CoM [s]
    robot_attached: bool = True
    rep_jitter: float = 0.05
    initial_q: JointState | None = None
    # what the run loop reads of a transfer's fields: none here
    transfer = None
    payload = 0.0

    def validate(self) -> None:
        if not self.sts_duration > 0.0:
            raise ConfigError("sts.duration must be positive")
        if not (0.0 <= self.rep_jitter < 1.0):
            raise ConfigError("rep_jitter must lie in [0, 1)")
        if self.robot_attached and self.mode_config is None:
            raise ConfigError("rehabilitation runs need an assist mode config")
        if self.human is None and not self.robot_attached:
            raise ConfigError("nothing to simulate: no human and no robot")
        mode = self.mode_config.mode if self.mode_config else AssistMode.FOLLOW_ME
        if mode is not AssistMode.FOLLOW_ME and not (self.human and self.robot_attached):
            raise ConfigError(f"{mode.value} acts on a person through the robot: it needs "
                              "human.enabled = true and robot_attached = true")
        g, q0 = self.geom, self.initial_q
        self._validate(() if q0 is None else (("initial_q.q_a", q0.q_a, g.q_a_limits),
                                               ("initial_q.q_c", q0.q_c, g.q_c_limits)),
                       "shorten pause, settle, sts.duration or repetitions")
        # the arm holds the harness over the seated CoM and follows it to standing
        if self.human is not None and self.robot_attached:
            for name, com in (("seated", self.human.seated_com),
                              ("standing", self.human.standing_com)):
                target = self.harness.attach_point(com)
                (code,) = solve_ik(g, [target[0]], [target[1]])[2]
                if code != IK_OK:
                    why = "out of reach" if code == IK_UNREACHABLE else "outside the joint limits"
                    raise ConfigError(f"human.{name} CoM attach point {target} unreachable "
                                      f"(chair_y/harness offsets): {why}")

    def rise_timing(self) -> tuple[float, float]:
        """The nominal rise (and descent) time and the jitter drawn about it."""
        return self.sts_duration, self.rep_jitter


@dataclass(frozen=True)
class TransferScenario(_Run):
    """A transfer: the braked mast holds the arm where the arc starts and the
    boom lifts ``payload`` [kg] along it, with no person aboard."""

    transfer: TransferConfig = TransferConfig()
    payload: float = 0.0
    # what the run loop reads of a 2-DOF run's fields: no person, no assist
    # mode, the robot
    human = None
    mode_config = None
    robot_attached = True

    def validate(self) -> None:
        g, tr = self.geom, self.transfer
        self._validate((("transfer.q_a_locked", tr.q_a_locked, g.q_a_limits),
                        ("transfer.q_c_start", tr.q_c_start, g.q_c_limits),
                        ("transfer.q_c_end", tr.q_c_end, g.q_c_limits)),
                       "shorten pause, settle or repetitions, or raise transfer.v_z",
                       ("payload", self.payload))

    def rise_timing(self) -> tuple[float, float]:
        """The arc's height at v_z, with no jitter drawn about it."""
        tr = self.transfer
        arm = Arm(self.geom, self.resolved_masses())
        z0 = arm.at(tr.q_a_locked, tr.q_c_start).e[1]
        z1 = arm.at(tr.q_a_locked, tr.q_c_end).e[1]
        return abs(z1 - z0) / tr.v_z_target, 0.0


@dataclass
class SimState:
    """Integrator state between steps (value object, copy to keep);
    ``evaluation``, ``motor_vels`` and ``applied`` hold the plant's evaluation
    of it (``Plant.evaluated``), its drives' encoder speeds
    (``Plant.motor_speeds``) and the transmitted forces the step into it
    applied (``Plant.step``).  None is an init argument, so a copy made with
    ``replace`` starts without them."""

    t: float = 0.0
    q_a: float = 0.0
    q_c: float = 0.0
    qd_a: float = 0.0
    qd_c: float = 0.0
    com: tuple[float, float] = (0.0, 0.0)
    vcom: tuple[float, float] = (0.0, 0.0)
    evaluation: Forces | tuple[float, float, float] | None = field(
        default=None, init=False, compare=False, repr=False)
    motor_vels: tuple[float, float] | None = field(
        default=None, init=False, compare=False, repr=False)
    applied: tuple[float, float] | None = field(
        default=None, init=False, compare=False, repr=False)

    def vector(self) -> tuple[float, ...]:
        """(q_a, q_c, qd_a, qd_c, cy, cz, cvy, cvz), as the integrator sees it."""
        return (self.q_a, self.q_c, self.qd_a, self.qd_c,
                self.com[0], self.com[1], self.vcom[0], self.vcom[1])


class Forces(NamedTuple):
    """Every force channel at one instant (see Plant.forces).

    arm is the arm's evaluation at the instant's joint state (Arm.at: the
    effector position and velocity, jacobians, gravity and inertia);
    harness is the force on the human; feet is the leg force plus the floor
    contact; acom the CoM acceleration.
    """

    arm: ArmEval | None
    harness: tuple[float, float]
    chair_fz: float
    feet: tuple[float, float]
    acom: tuple[float, float]


@dataclass(frozen=True)
class _Segment:
    """One phase of the schedule: its span, the CoM reference's end points
    and the vertical effector speed a transfer's speed loop is commanded."""

    t0: float
    t1: float
    rep: int
    phase: int
    p0: tuple[float, float]
    p1: tuple[float, float]
    v_z: float = 0.0


class _Schedule:
    """Piecewise minimum-jerk reference with a monotone lookup cursor."""

    def __init__(self, segments: list[_Segment]):
        self.segments = segments
        self._i = 0
        self._last = (None, None)  # (t, reference(t)): RK4 stages repeat their times

    @property
    def total(self) -> float:
        return self.segments[-1].t1

    def segment_at(self, t: float) -> _Segment:
        segs = self.segments
        i = self._i
        while i + 1 < len(segs) and t >= segs[i].t1:
            i += 1
        self._i = i
        return segs[i]

    def reference(self, t: float):
        last_t, ref = self._last
        if t == last_t:
            return ref
        seg = self.segment_at(t)
        dur = seg.t1 - seg.t0
        dy = seg.p1[0] - seg.p0[0]
        dz = seg.p1[1] - seg.p0[1]
        if dur <= 0.0 or (dy == 0.0 and dz == 0.0):
            ref = seg.p1, (0.0, 0.0)
        else:
            s, ds, _ = minimum_jerk((t - seg.t0) / dur)
            inv = 1.0 / dur
            ref = (seg.p0[0] + s * dy, seg.p0[1] + s * dz), (ds * dy * inv, ds * dz * inv)
        self._last = (t, ref)
        return ref


def _build_schedule(scenario: _Run) -> _Schedule:
    zero = (0.0, 0.0)
    rise, jitter = scenario.rise_timing()
    # only a run that draws imports numpy.random (1.8-5.4 MB of RSS)
    rng = np.random.default_rng(scenario.seed) if jitter > 0.0 else None
    human = scenario.human
    seated = human.seated_com if human else zero
    standing = human.standing_com if human else zero
    # a transfer's speed loop lifts at +v_z and lowers at -v_z
    v_z = scenario.transfer.v_z_target if scenario.transfer else 0.0
    segs = [_Segment(0.0, scenario.settle, -1, simlog.PHASE_SETTLE, seated, seated)]
    t = scenario.settle
    for rep in range(scenario.repetitions):
        dur = rise
        if jitter > 0.0:
            dur *= 1.0 + jitter * float(rng.uniform(-1.0, 1.0))
        for phase, d, p0, p1, v in ((simlog.PHASE_RISE, dur, seated, standing, v_z),
                                    (simlog.PHASE_PAUSE, scenario.pause, standing, standing, 0.0),
                                    (simlog.PHASE_DESCENT, dur, standing, seated, -v_z),
                                    (simlog.PHASE_PAUSE2, scenario.pause, seated, seated, 0.0)):
            segs.append(_Segment(t, t + d, rep, phase, p0, p1, v))
            t += d
    return _Schedule(segs)


class Plant:
    """Precomputed plant model: ``step`` integrates one control period."""

    def __init__(self, scenario: _Run):
        scenario.validate()
        g = scenario.geom
        m = scenario.resolved_masses()
        self.geom = g
        self.masses = m
        self.arm = Arm(g, m)
        self.is_transfer = scenario.transfer is not None
        self.has_human = scenario.human is not None
        self.attached = scenario.robot_attached
        self.d_a, self.d_c = scenario.damping
        self.spec1, self.spec2 = engaged_pair(self.is_transfer, DRIVES)
        self.pf1, self.pf2 = engaged_pair(self.is_transfer, scenario.plant_frictions)
        self.ctrl_frictions = engaged_pair(self.is_transfer, scenario.ctrl_frictions)
        # the braked boom about C, carrying the payload at E
        self.payload_weight = scenario.payload * GRAVITY
        self.m_eff = self.arm.B1 + scenario.payload * g.l_ce**2
        # the braked mast's dL1/dq_a, a function of q_a alone
        tr = scenario.transfer
        self.d1_braked = self.arm.at(tr.q_a_locked, tr.q_c_start).d[0] if tr else None
        self.human = scenario.human
        if self.has_human:
            self.harness = scenario.harness
            self.seat = scenario.chair.seat(self.human)
        self.schedule = _build_schedule(scenario)

    # -- forces -----------------------------------------------------------

    def forces(self, t: float, s) -> Forces:
        """Every force channel at time t and state s = (q_a, q_c, qd_a, qd_c,
        cy, cz, cvy, cvz), a function of t and s alone (the chair and floor
        contacts included); the 2-DOF integrator and the logger both read it.

        The arm's evaluation is None when the robot is detached; the human
        terms are zero when there is no human.
        """
        q_a, q_c, qd_a, qd_c, cy, cz, cvy, cvz = s
        arm = self.arm.at(q_a, q_c, qd_a, qd_c) if self.attached else None
        # tuple.__new__ gives the record Forces(...) gives, without the namedtuple's Python frame
        if not self.has_human:
            return tuple.__new__(Forces, (arm, (0.0, 0.0), 0.0, (0.0, 0.0), (0.0, 0.0)))
        com = (cy, cz)
        vcom = (cvy, cvz)
        harness = (0.0, 0.0)
        if arm is not None:
            harness = self.harness.force_on_human(arm.e, arm.ev, com, vcom)
        chair_fz = self.seat.force(com, vcom)
        ref_pos, ref_vel = self.schedule.reference(t)
        mx, mz = muscle_effort(self.human, com, vcom, chair_fz, harness, ref_pos, ref_vel)
        pen = FLOOR_Z - cz  # the floor pushes up on a collapsed CoM
        mz += max(0.0, FLOOR_STIFFNESS * pen - FLOOR_DAMPING * cvz) if pen > 0.0 else 0.0
        m = self.human.mass
        hx, hz = harness
        acom = ((mx + hx) / m, (mz + chair_fz + hz) / m - GRAVITY)
        return tuple.__new__(Forces, (arm, harness, chair_fz, (mx, mz), acom))

    def evaluated(self, state: SimState) -> Forces | tuple[float, float, float]:
        """The plant's evaluation of ``state``, computed on first read and
        kept on it: a 2-DOF plant's Forces, or a braked transfer's three
        boom terms (Arm.boom: dL2/dq_c, g_c and dE_z/dq_c)."""
        if state.evaluation is None:
            state.evaluation = (self.arm.boom(state.q_a, state.q_c) if self.is_transfer
                                else self.forces(state.t, state.vector()))
        return state.evaluation

    def motor_speeds(self, state: SimState) -> tuple[float, float]:
        """The drives' encoder speeds [rad/s] at ``state``, computed once and
        kept on it; the force controller and transmitted_forces both read them."""
        if state.motor_vels is None:
            e = self.evaluated(state)
            d = (self.d1_braked, e[0]) if self.is_transfer else e.arm.d
            v1, v2 = drive_speeds(d, state.qd_a, state.qd_c)
            state.motor_vels = (motor_speed(self.spec1, v1), motor_speed(self.spec2, v2))
        return state.motor_vels

    def transmitted_forces(self, state: SimState, commands: tuple[float, float]
                           ) -> tuple[float, float]:
        """Plant-side transmitted forces for this control period.

        Friction is sampled at the control rate (held over the RK4 step):
        the tanh slope near zero speed is far stiffer than any structural
        mode and belongs to the drive electronics timescale, not the rigid
        body ODE.  The belt cannot push, so its transmitted force is
        clamped to tension.
        """
        w1, w2 = self.motor_speeds(state)
        f1t = commands[0] - friction_force(self.pf1, w1)
        f2t = max(0.0, commands[1] - friction_force(self.pf2, w2))
        return f1t, f2t

    # -- derivative -------------------------------------------------------

    def _deriv(self, s, f: Forces, f1t, f2t):
        """ds/dt of s = (q_a, q_c, qd_a, qd_c, cy, cz, cvy, cvz), f = the
        forces at s.

        f1t/f2t are the transmitted actuator forces, already net of plant
        friction for this control period.
        """
        qd_a, qd_c, cvy, cvz = s[2], s[3], s[6], s[7]
        ax, az = f.acom
        a = f.arm
        if a is None:
            return (0.0, 0.0, 0.0, 0.0, cvy, cvz, ax, az)

        g_a, g_c = a.g
        tau_act_a, tau_act_c = joint_torques(a.d, f1t, f2t)
        j11, j12, j21, j22 = a.jac
        hx, hz = f.harness
        tau_h_a = -(j11 * hx + j21 * hz)
        tau_h_c = -(j12 * hx + j22 * hz)

        m11, m12, m22 = a.inertia
        gamma_p = a.dm12
        cor_a = gamma_p * (2.0 * qd_a * qd_c + qd_c * qd_c)
        cor_c = -gamma_p * qd_a * qd_a
        rhs_a = tau_act_a + tau_h_a - g_a - self.d_a * qd_a - cor_a
        rhs_c = tau_act_c + tau_h_c - g_c - self.d_c * qd_c - cor_c
        det = m11 * m22 - m12 * m12
        qdd_a = (m22 * rhs_a - m12 * rhs_c) / det
        qdd_c = (m11 * rhs_c - m12 * rhs_a) / det
        return (qd_a, qd_c, qdd_a, qdd_c, cvy, cvz, ax, az)

    # -- integration ------------------------------------------------------

    def step(self, state: SimState, commands: tuple[float, float], dt: float) -> SimState:
        """One RK4 step; joint limits applied as hard stops afterwards.  A
        transfer's brake holds the mast, so its RK4 integrates only the boom's
        (q_c, qd_c) and q_a, qd_a, com and vcom keep their values.  Stage 1
        reads ``evaluated(state)``; the new state carries only the transmitted
        forces this step applied, and is evaluated when first read.

        The 2-DOF stages are written out, one scalar per state entry: a zip
        comprehension over the 8-state vector cost 4x as much per stage.
        tests/test_engine.py keeps that comprehension as an oracle and checks
        that the two agree bit for bit."""
        f1, f2 = self.transmitted_forces(state, commands) if self.attached else (0.0, 0.0)
        t = state.t
        try:
            if self.is_transfer:
                # the boom about C carrying the payload at E, the mast held at
                # q_a: qdd_c = (tau_c - g_c - payload_weight*dE_z/dq_c - d_c*qd_c)/m_eff
                boom, q_a = self.arm.boom, state.q_a
                s2, w, d_c, m_eff = DRIVE_SIGN[1], self.payload_weight, self.d_c, self.m_eff

                def qdd_c(d2, g_c, dez, v):
                    # tau_c is joint_torques' belt term, in its product order
                    return (s2 * d2 * f2 - g_c - w * dez - d_c * v) / m_eff

                q1, v1 = state.q_c, state.qd_c
                k1 = qdd_c(*self.evaluated(state), v1)
                h2 = dt / 2.0
                q2, v2 = q1 + h2 * v1, v1 + h2 * k1
                k2 = qdd_c(*boom(q_a, q2), v2)
                q3, v3 = q1 + h2 * v2, v1 + h2 * k2
                k3 = qdd_c(*boom(q_a, q3), v3)
                q4, v4 = q1 + dt * v3, v1 + dt * k3
                k4 = qdd_c(*boom(q_a, q4), v4)
                h6 = dt / 6.0
                q_c = q1 + h6 * (v1 + 2.0 * v2 + 2.0 * v3 + v4)
                qd_c = v1 + h6 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                qd_a, (cy, cz), (cvy, cvz) = state.qd_a, state.com, state.vcom
            else:
                s = state.vector()
                qa, qc, va, vc, y, z, vy, vz = s
                forces, deriv = self.forces, self._deriv
                dqa1, dqc1, dva1, dvc1, dy1, dz1, dvy1, dvz1 = deriv(
                    s, self.evaluated(state), f1, f2)
                h2 = dt / 2.0
                s2 = (qa + h2 * dqa1, qc + h2 * dqc1, va + h2 * dva1, vc + h2 * dvc1,
                      y + h2 * dy1, z + h2 * dz1, vy + h2 * dvy1, vz + h2 * dvz1)
                dqa2, dqc2, dva2, dvc2, dy2, dz2, dvy2, dvz2 = deriv(
                    s2, forces(t + h2, s2), f1, f2)
                s3 = (qa + h2 * dqa2, qc + h2 * dqc2, va + h2 * dva2, vc + h2 * dvc2,
                      y + h2 * dy2, z + h2 * dz2, vy + h2 * dvy2, vz + h2 * dvz2)
                dqa3, dqc3, dva3, dvc3, dy3, dz3, dvy3, dvz3 = deriv(
                    s3, forces(t + h2, s3), f1, f2)
                s4 = (qa + dt * dqa3, qc + dt * dqc3, va + dt * dva3, vc + dt * dvc3,
                      y + dt * dy3, z + dt * dz3, vy + dt * dvy3, vz + dt * dvz3)
                dqa4, dqc4, dva4, dvc4, dy4, dz4, dvy4, dvz4 = deriv(
                    s4, forces(t + dt, s4), f1, f2)
                h6 = dt / 6.0
                q_a = qa + h6 * (dqa1 + 2.0 * dqa2 + 2.0 * dqa3 + dqa4)
                q_c = qc + h6 * (dqc1 + 2.0 * dqc2 + 2.0 * dqc3 + dqc4)
                qd_a = va + h6 * (dva1 + 2.0 * dva2 + 2.0 * dva3 + dva4)
                qd_c = vc + h6 * (dvc1 + 2.0 * dvc2 + 2.0 * dvc3 + dvc4)
                cy = y + h6 * (dy1 + 2.0 * dy2 + 2.0 * dy3 + dy4)
                cz = z + h6 * (dz1 + 2.0 * dz2 + 2.0 * dz3 + dz4)
                cvy = vy + h6 * (dvy1 + 2.0 * dvy2 + 2.0 * dvy3 + dvy4)
                cvz = vz + h6 * (dvz1 + 2.0 * dvz2 + 2.0 * dvz3 + dvz4)
        except (ValueError, OverflowError) as exc:
            # a non-finite stage state reached a math function before the guard
            raise NumericalDivergence(f"{exc} in an RK4 stage at t={t:.3f}s") from exc
        if self.attached:
            lo, hi = self.geom.q_a_limits
            if q_a < lo:
                q_a, qd_a = lo, max(0.0, qd_a)
            elif q_a > hi:
                q_a, qd_a = hi, min(0.0, qd_a)
            lo, hi = self.geom.q_c_limits
            if q_c < lo:
                q_c, qd_c = lo, max(0.0, qd_c)
            elif q_c > hi:
                q_c, qd_c = hi, min(0.0, qd_c)

        if not all(map(math.isfinite, (q_a, q_c, qd_a, qd_c, cy, cz, cvy, cvz))):
            raise NumericalDivergence(f"non-finite state at t={t:.3f}s")
        if abs(qd_a) > 50.0 or abs(qd_c) > 50.0 or abs(cvy) > 20.0 or abs(cvz) > 20.0:
            raise NumericalDivergence(f"runaway velocity at t={t:.3f}s")

        new = SimState(t + dt, q_a, q_c, qd_a, qd_c, (cy, cz), (cvy, cvz))
        new.applied = (f1, f2)
        return new

    def mechanical_energy(self, state: SimState) -> float:
        """Arm kinetic + potential energy (human terms excluded)."""
        m11, m12, m22 = self.arm.at(state.q_a, state.q_c).inertia
        ke = 0.5 * (m11 * state.qd_a**2 + 2.0 * m12 * state.qd_a * state.qd_c
                    + m22 * state.qd_c**2)
        return ke + gravity_potential(self.geom, self.masses, state.q_a, state.q_c)


# ---------------------------------------------------------------------------
# scenario execution


def _initial_state(scenario: _Run) -> SimState:
    """Start state: the person seated, the attached arm at the harness's
    attach point above the seated CoM."""
    if scenario.human is not None:
        com0 = scenario.human.seated_com
        if not scenario.robot_attached:
            return SimState(com=com0)
        q0 = inverse_kinematics(scenario.geom, scenario.harness.attach_point(com0))
        return SimState(q_a=q0.q_a, q_c=q0.q_c, com=com0)
    # the arm alone: the transfer's arc start, or the given pose
    tr = scenario.transfer
    q0 = (JointState(tr.q_a_locked, tr.q_c_start) if tr is not None
          else scenario.initial_q or JointState(0.2, 0.0))
    return SimState(q_a=q0.q_a, q_c=q0.q_c)


def run_scenario(scenario: Scenario | TransferScenario, sink=None):
    """Execute the scenario and return ``sink.close()``: the sink (see
    ``simlog``) takes the run's fixed-rate log a block of samples at a time.
    By default it is the in-memory store, and the run returns its read-only
    SimLog.  A run that raises, in the step or a controller, first hands the
    sink every sample it logged before the fault; a block that ``sink.add``
    itself refuses is not handed on again.
    """
    plant = Plant(scenario)
    schedule = plant.schedule
    state = _initial_state(scenario)
    mode_config, user = scenario.mode_config, scenario.human
    # the field is armed at the attach point; only modes with a person read it
    e_yi = scenario.harness.attach_point(user.seated_com)[0] if user else 0.0

    dt = scenario.dt
    n_steps = int(round(schedule.total / dt))
    is_transfer = plant.is_transfer
    rehab_ctrl = plant.attached and not is_transfer
    integral = 0.0  # the transfer's PI belt-speed integral
    specs = (plant.spec1, plant.spec2)
    allow_peak = scenario.allow_peak
    brake = float(is_transfer)
    zeros6, zeros12 = (0.0,) * 6, (0.0,) * 12

    if sink is None:
        sink = simlog._SampleStore(n_steps, simlog.log_meta(scenario))
    # each sample is packed into a row-major block, and each full block, then
    # the last partial one, gets its arm channels and goes to the sink (a
    # (channels, samples) log took each sample's 40 cells 8 * n_steps B apart)
    sample = struct.Struct("".join("8x" if c in ARM_ROWS else "d" for c in CHANNELS))
    pack, size = sample.pack_into, sample.size
    block = max(1, simlog.CSV_BLOCK_CELLS // len(CHANNELS))
    buf = np.empty((block, len(CHANNELS)))
    at, full = 0, block * size  # the byte offset of the next sample in buf
    try:
        for i in range(n_steps):
            # the plant reads the same cursor; all lookups come at non-decreasing t
            seg = schedule.segment_at(state.t)

            f1_cmd = f2_cmd = 0.0
            sat1 = sat2 = False
            v2_ref = 0.0
            stages = zeros6
            if rehab_ctrl:
                arm = plant.evaluated(state).arm
                desired = desired_force_field(mode_config, user, e_yi, arm.e[0])
                cmd = force_controller_step(arm, specs, plant.ctrl_frictions, desired,
                                            plant.motor_speeds(state), allow_peak=allow_peak)
                f1_cmd, f2_cmd, sat1, sat2 = cmd.f1, cmd.f2, cmd.saturated_1, cmd.saturated_2
                stages = (*desired, cmd.f1_map, cmd.f2_map, cmd.f1_fric, cmd.f2_fric)
            elif is_transfer:
                d2, _, d_ez = plant.evaluated(state)
                (f2_cmd, sat2, v2_ref), integral = speed_controller_step(
                    d2, d_ez, plant.spec2, scenario.transfer, d2 * state.qd_c, dt, integral,
                    v_z_signed=seg.v_z)

            state = plant.step(state, (f1_cmd, f2_cmd), dt)

            # log the new sample, in CHANNELS order, less its arm channels
            human = zeros12
            if plant.has_human:
                f = plant.evaluated(state)
                human = (*f.harness, *state.com, *state.vcom, *f.acom, f.chair_fz, *f.feet,
                         float(f.chair_fz <= 0.0))
            pack(buf, at, state.t, seg.rep, seg.phase, state.q_a, state.q_c, state.qd_a,
                 state.qd_c, *stages, f1_cmd, f2_cmd, float(sat1), float(sat2),
                 *state.applied, v2_ref, *human, brake)
            at += size
            if at == full:
                at = 0
                sink.add(_with_arm_rows(plant, allow_peak, buf))
    finally:
        # the samples since the last full block: the run's last ones, or
        # the ones logged before a fault
        if at:
            sink.add(_with_arm_rows(plant, allow_peak, buf[:at // size]))
    return sink.close()


ARM_ROWS = ("e_y", "e_z", "e_vy", "e_vz", "v2_belt", "vel_exc_1", "vel_exc_2")


def _with_arm_rows(plant: Plant, allow_peak: bool, rows: np.ndarray) -> np.ndarray:
    """``rows`` (logged samples) with ARM_ROWS set by one Arm.at of their joint
    columns, bit for bit each sample's own; a detached arm's keep the pack's 0."""
    if plant.attached:
        q_a, q_c, qd_a, qd_c = (rows[:, CHANNELS.index(c)] for c in ("q_a", "q_c", "qd_a", "qd_c"))
        arm = plant.arm.at(q_a, q_c, qd_a, qd_c, ops=ARRAY_MATH)
        v2_belt = arm.d[1] * qd_c
        rows[:, [CHANNELS.index(c) for c in ARM_ROWS]] = np.column_stack((
            *arm.e, *arm.ev, v2_belt, velocity_exceeded(plant.spec1, arm.d[0] * qd_a, allow_peak),
            velocity_exceeded(plant.spec2, v2_belt, allow_peak)))
    return rows
