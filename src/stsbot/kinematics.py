"""Closed-form geometry of the two-link floor-lift arm and its transmissions.

Frame and sign conventions used everywhere in this package:

* World origin is on the floor directly below joint A; +y points forward
  (toward the user), +z up.  Joint A sits at (0, base_height).
* A point at distance d along the mast AC is at
  (d*sin(q_a), base_height + d*cos(q_a)); q_a = 0 means the mast is vertical
  and positive q_a leans it forward.
* The boom CDE points along (cos(q_a+q_c), -sin(q_a+q_c)); with q_a = q_c = 0
  the boom is horizontal and positive q_c swings the effector E down.
* The strut (actuator 1) spans from the base anchor p1 (coordinates given
  relative to A) to point B on the mast; L1 is anchor-to-B distance.
* The belt (actuator 2) leaves the base along the mast axis, wraps the mast
  pulley at G (d_g beyond C), runs to the sheave at D and anchors back at G.
  L2 = 2*|G - D| is belt payout at the drum: the two working spans halve the
  travel and double the pull applied at D.

Under these choices dL1/dq_c = 0 and dL2/dq_a = 0 exactly; each transmission
drives one joint and the actuator jacobian is diagonal.

Arm.at is the one evaluator of the arm: it returns every pose-dependent
term (effector position and velocity, jacobians, lengths, gravity, inertia)
of one joint state, or of 1-D arrays of them with ops=ARRAY_MATH; solve_ik,
the one inverse kinematics, takes arrays of targets.  Arm.boom is its one
shortcut: a braked transfer's RK4 stages read only three terms (dL2/dq_c,
g_c and dE_z/dq_c), so boom writes those three again, and a test keeps its
bits equal to Arm.at's.  act_diag and dk_entries remain only as named points
where the benchmark's tracer counts calls; nothing in the package calls
them.  Over arrays numpy does +, -, *, / and sqrt, which are correctly
rounded, and math does each sin, cos, hypot, asin, acos and atan2 per element
(numpy's can differ in the last bit), so an array result equals the scalar
one bit for bit.

Actuator force sign:  the actuator-jacobian diagonal ArmEval.d is in the
length-conjugate convention (positive force does positive work while the
corresponding length grows), under which belt tension comes out negative.  Drive forces and speeds are in
the motor convention (strut extension-positive, belt tension-positive);
DRIVE_SIGN below is the one place the flip between the two is written, and
drive_forces, joint_torques and drive_speeds the one map across it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .errors import OutOfJointLimits, SingularTransmission, Unreachable

GRAVITY = 9.81

# Guard on the actuator-jacobian diagonal [m/rad]; below this the
# transmission is treated as singular rather than regularized, so the
# controllers can never silently command near-infinite forces.
SINGULARITY_EPS = 1e-6

# Upper bound on every length of the arm [m]: the belt and strut laws square
# lengths, which overflows long before any floor-based arm is described.
MAX_LENGTH = 100.0
# Upper bound on each link mass [kg]: the weight of a mass near the float
# range overflows the gravity terms.
MAX_LINK_MASS = 1000.0
# Bound on every joint limit's magnitude [rad], two turns: sampling a far
# wider joint range overflows to inf.
MAX_JOINT_ANGLE = 4.0 * math.pi


@dataclass(frozen=True)
class RobotGeometry:
    """Link lengths, anchor points and joint limits of the arm.

    All lengths in metres, limits in radians.  ``p1`` is the actuator-1 base
    anchor expressed in the frame of joint A.  ``d_g`` is how far the belt
    pulley G sits beyond C along the mast axis.
    """

    l_ab: float = 0.38
    l_ac: float = 0.61
    l_ce: float = 0.75
    l_cd: float = 0.38
    base_height: float = 0.44
    p1: tuple[float, float] = (0.25, -0.10)
    d_g: float = 0.60
    q_a_limits: tuple[float, float] = (-0.10, 0.90)
    q_c_limits: tuple[float, float] = (-1.20, 0.50)
    stroke_1: float = 0.220

    def __post_init__(self):
        for name in ("l_ab", "l_ac", "l_ce", "l_cd", "base_height", "d_g", "stroke_1"):
            if not 0.0 < getattr(self, name) <= MAX_LENGTH:
                raise ValueError(f"{name} must lie in (0, {MAX_LENGTH:g}] m")
        if self.l_cd >= self.l_ce:
            raise ValueError("l_cd must be smaller than l_ce")
        for name in ("q_a_limits", "q_c_limits"):
            lo, hi = getattr(self, name)
            if not -MAX_JOINT_ANGLE <= lo < hi <= MAX_JOINT_ANGLE:
                raise ValueError(f"{name} must be a non-empty interval in [-4 pi, 4 pi] rad")

    def in_limits(self, q_a, q_c):
        """Whether (q_a, q_c) lies within the limits, up to 1e-9 rad;
        elementwise on arrays."""
        tol = 1e-9
        return (
            (self.q_a_limits[0] - tol <= q_a) & (q_a <= self.q_a_limits[1] + tol)
            & (self.q_c_limits[0] - tol <= q_c) & (q_c <= self.q_c_limits[1] + tol)
        )


@dataclass(frozen=True)
class JointState:
    q_a: float
    q_c: float
    qd_a: float = 0.0
    qd_c: float = 0.0


def _rod_inertia(m: float, length: float) -> float:
    """Inertia of a slender rod about its CoM."""
    return m * length**2 / 12.0


@dataclass(frozen=True)
class LinkMassModel:
    """Masses, centre-of-mass offsets and rod inertias of the two links.

    ``L_h`` is measured along the mast from A, ``L_v`` along the boom from C.
    Inertias are about each link's own CoM.
    """

    m_h: float = 2.65
    m_v: float = 4.91
    # the slender rods of the default geometry, as for_geometry builds them
    L_h: float = RobotGeometry.l_ac / 2.0
    L_v: float = RobotGeometry.l_ce / 2.0
    I_h: float = _rod_inertia(m_h, RobotGeometry.l_ac)
    I_v: float = _rod_inertia(m_v, RobotGeometry.l_ce)

    def __post_init__(self):
        if not (0.0 <= self.m_h <= MAX_LINK_MASS and 0.0 <= self.m_v <= MAX_LINK_MASS):
            raise ValueError(f"link masses must lie in [0, {MAX_LINK_MASS:g}] kg")

    @classmethod
    def for_geometry(cls, geom: RobotGeometry, m_h: float = m_h,
                     m_v: float = m_v) -> "LinkMassModel":
        """Slender rods of geom's link lengths: CoM at half length, I = m*l^2/12."""
        return cls(m_h, m_v, geom.l_ac / 2.0, geom.l_ce / 2.0,
                   _rod_inertia(m_h, geom.l_ac), _rod_inertia(m_v, geom.l_ce))


# ---------------------------------------------------------------------------
# the arm at a joint state


def _per_element(f):
    """f of 1-D float arrays, applied through math one element at a time."""
    return lambda *xs: np.fromiter(map(f, *(x.tolist() for x in xs)), float, len(xs[0]))


# The math functions Arm.at and solve_ik call, over 1-D float arrays.
ARRAY_MATH = SimpleNamespace(
    sqrt=np.sqrt, **{name: _per_element(getattr(math, name))
                     for name in ("sin", "cos", "hypot", "asin", "acos", "atan2")})


class ArmEval(NamedTuple):
    """Every pose-dependent term of the arm at one joint state (Arm.at).

    e and ev are the effector position and velocity, jac the row-major
    d(E_y,E_z)/d(q_a,q_c) entries, lengths the strut length L1 and belt
    payout L2, d the actuator-jacobian diagonal (dL1/dq_a, dL2/dq_c) in the
    length-conjugate convention, g the joint torques that hold the links,
    g(q) = dV/dq, and inertia the mass matrix (m11, m12, m22), whose one
    pose-dependent entry m12 has the derivative dm12 along q_c.
    """

    e: tuple[float, float]
    ev: tuple[float, float]
    jac: tuple[float, float, float, float]
    lengths: tuple[float, float]
    d: tuple[float, float]
    g: tuple[float, float]
    inertia: tuple[float, float, float]
    dm12: float


class Arm:
    """The arm's geometry and link masses, reduced once to the constant
    products ``at`` reads.

    ``at`` takes sin and cos of q_a, q_c and q_a + q_c once per joint state
    and writes each formula of the arm once; it is the package's one
    evaluator of the arm.  ``boom`` repeats the three terms a braked
    transfer's RK4 stages read, so those stages skip the rest of the arm; a
    bit-equality test guards the copy.  act_diag and dk_entries, kept only
    as points where the benchmark's tracer counts calls, read theirs from an
    ``Arm`` built per call.
    """

    def __init__(self, geom: RobotGeometry, masses: LinkMassModel):
        m = masses
        self.l_ab, self.l_ac, self.l_ce = geom.l_ab, geom.l_ac, geom.l_ce
        self.base_height = geom.base_height
        self.p1 = geom.p1
        self.neg_l_ab = -geom.l_ab
        # belt: L2 = 2*sqrt(belt_sq + belt_sin*sin(q_c)), dL2/dq_c = belt_cos*cos(q_c)/L2
        self.belt_sq = geom.d_g**2 + geom.l_cd**2
        self.belt_sin = 2.0 * geom.d_g * geom.l_cd
        self.belt_cos = 4.0 * geom.d_g * geom.l_cd
        # gravity: g_a = grav_a*sin(q_a) - w2, g_c = -w2, w2 = grav_c*cos(q_a + q_c)
        self.grav_a = -(m.m_h * m.L_h + m.m_v * geom.l_ac) * GRAVITY
        self.grav_c = m.m_v * GRAVITY * m.L_v
        # mass matrix: m11 = A1 + B1 + 2*gamma, m12 = B1 + gamma, m22 = B1,
        # gamma = -G1*sin(q_c)
        a1 = m.I_h + m.m_h * m.L_h**2 + m.m_v * geom.l_ac**2
        self.B1 = m.I_v + m.m_v * m.L_v**2
        self.A1_B1 = a1 + self.B1
        self.neg_G1 = -(m.m_v * geom.l_ac * m.L_v)

    def at(self, q_a, q_c, qd_a=0.0, qd_c=0.0, ops=math) -> ArmEval:
        """The arm at joint angles (q_a, q_c) and rates (qd_a, qd_c): floats
        with ops=math, 1-D arrays with ops=ARRAY_MATH."""
        sa, ca = ops.sin(q_a), ops.cos(q_a)
        sc, cc = ops.sin(q_c), ops.cos(q_c)
        phi = q_a + q_c
        sf, cf = ops.sin(phi), ops.cos(phi)
        mast_s, mast_c = self.l_ac * sa, self.l_ac * ca
        boom_s, boom_c = self.l_ce * sf, self.l_ce * cf
        j11, j12, j21, j22 = mast_c - boom_s, -boom_s, -mast_s - boom_c, -boom_c
        p1y, p1z = self.p1
        l1 = ops.hypot(self.l_ab * sa - p1y, self.l_ab * ca - p1z)
        l2 = 2.0 * ops.sqrt(self.belt_sq + self.belt_sin * sc)
        w2 = self.grav_c * cf
        gamma = self.neg_G1 * sc
        # tuple.__new__ gives the record ArmEval(...) gives, without the namedtuple's Python frame
        return tuple.__new__(ArmEval, (
            (mast_s + boom_c, self.base_height + mast_c - boom_s),
            (j11 * qd_a + j12 * qd_c, j21 * qd_a + j22 * qd_c),
            (j11, j12, j21, j22),
            (l1, l2),
            (self.neg_l_ab * (p1y * ca - p1z * sa) / l1, self.belt_cos * cc / l2),
            (self.grav_a * sa - w2, -w2),
            (self.A1_B1 + 2.0 * gamma, self.B1 + gamma, self.B1),
            self.neg_G1 * cc,
        ))

    def boom(self, q_a: float, q_c: float) -> tuple[float, float, float]:
        """The three terms the braked boom reads, (d[1], g[1], jac[3]) of
        ``at(q_a, q_c)``: dL2/dq_c, the boom's gravity torque g_c and
        dE_z/dq_c.  Each is written as ``at`` writes it, so the two agree bit
        for bit (a test checks); ``at`` keeps its own copy because the 2-DOF
        step reads all of it."""
        cf = math.cos(q_a + q_c)
        l2 = 2.0 * math.sqrt(self.belt_sq + self.belt_sin * math.sin(q_c))
        return self.belt_cos * math.cos(q_c) / l2, -(self.grav_c * cf), -(self.l_ce * cf)


# ---------------------------------------------------------------------------
# mass-free terms (the default links stand in); the benchmark's tracer counts
# calls of these two by name


def dk_entries(geom: RobotGeometry, q_a: float, q_c: float) -> tuple[float, float, float, float]:
    """Row-major entries of d(E_y,E_z)/d(q_a,q_c)."""
    return Arm(geom, LinkMassModel()).at(q_a, q_c).jac


def act_diag(geom: RobotGeometry, q_a: float, q_c: float) -> tuple[float, float]:
    """Diagonal of the actuator jacobian: (dL1/dq_a, dL2/dq_c); mass-free."""
    return Arm(geom, LinkMassModel()).at(q_a, q_c).d


# ---------------------------------------------------------------------------
# inverse kinematics


# per-element codes of solve_ik
IK_OK, IK_UNREACHABLE, IK_LIMITS = 0, 1, 2


@np.errstate(all="ignore")  # absurd targets overflow to inf silently, as Python floats do
def solve_ik(geom: RobotGeometry, y, z) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve E = (y[i], z[i]) for each i on the elbow-up branch (C above/behind E).

    Returns q_a, q_c and a code per target: IK_UNREACHABLE (q_a and q_c NaN)
    when the target is outside the annulus spanned by the two links,
    IK_LIMITS when the solution violates the configured joint limits, else
    IK_OK.
    """
    ry = np.asarray(y, dtype=float)
    rz = np.asarray(z, dtype=float) - geom.base_height
    r2 = ry * ry + rz * rz
    r = np.sqrt(r2)
    lo = abs(geom.l_ac - geom.l_ce)
    hi = geom.l_ac + geom.l_ce
    reach = ~((r < lo - 1e-12) | (r > hi + 1e-12) | (r < 1e-12))
    ry, rz, r2, r = ry[reach], rz[reach], r2[reach], r[reach]

    # interior angle at C between CA and CE maps directly onto sin(q_c)
    s_qc = (geom.l_ac**2 + geom.l_ce**2 - r2) / (2.0 * geom.l_ac * geom.l_ce)
    q_a, q_c = np.full(len(reach), np.nan), np.full(len(reach), np.nan)
    # lower-half branch: elbow-up
    q_c[reach] = ARRAY_MATH.asin(np.maximum(-1.0, np.minimum(1.0, s_qc)))

    c_alpha = (geom.l_ac**2 + r2 - geom.l_ce**2) / (2.0 * geom.l_ac * r)
    alpha = ARRAY_MATH.acos(np.maximum(-1.0, np.minimum(1.0, c_alpha)))
    q_a[reach] = ARRAY_MATH.atan2(ry, rz) - alpha
    code = np.where(reach, np.where(geom.in_limits(q_a, q_c), IK_OK, IK_LIMITS), IK_UNREACHABLE)
    return q_a, q_c, code


def inverse_kinematics(geom: RobotGeometry, target: tuple[float, float]) -> JointState:
    """solve_ik of one target; raises Unreachable or OutOfJointLimits in
    place of its codes."""
    (q_a,), (q_c,), (code,) = solve_ik(geom, [float(target[0])], [float(target[1])])
    if code == IK_UNREACHABLE:
        raise Unreachable(target)
    if code == IK_LIMITS:
        raise OutOfJointLimits(
            f"IK solution (q_a={q_a:.4f}, q_c={q_c:.4f}) outside limits "
            f"{geom.q_a_limits} x {geom.q_c_limits}"
        )
    return JointState(float(q_a), float(q_c))


# ---------------------------------------------------------------------------
# transmissions


def check_invertible(d1: float, d2: float) -> None:
    """Raise SingularTransmission unless both entries of ArmEval.d can be inverted."""
    if abs(d1) <= SINGULARITY_EPS:
        raise SingularTransmission("q_a", d1)
    if abs(d2) <= SINGULARITY_EPS:
        raise SingularTransmission("q_c", d2)


# Motor-positive direction of each drive relative to its length growth: the
# strut pushes (extension-positive), the belt pulls (payout-negative).
DRIVE_SIGN = (1.0, -1.0)


def drive_forces(d: tuple[float, float], tau_a: float, tau_c: float) -> tuple[float, float]:
    """Motor-convention drive forces that put the joint torques (tau_a, tau_c)
    on the joints, d = ArmEval.d at the pose; the inverse of joint_torques."""
    s1, s2 = DRIVE_SIGN
    return s1 * tau_a / d[0], s2 * tau_c / d[1]


def joint_torques(d: tuple[float, float], f1: float, f2: float) -> tuple[float, float]:
    """Joint torques of the motor-convention drive forces (f1, f2)."""
    s1, s2 = DRIVE_SIGN
    return s1 * d[0] * f1, s2 * d[1] * f2


def drive_speeds(d: tuple[float, float], qd_a: float, qd_c: float) -> tuple[float, float]:
    """Motor-convention output speeds [m/s] of the drives at joint rates
    (qd_a, qd_c); they are power-conjugate to drive_forces."""
    s1, s2 = DRIVE_SIGN
    return s1 * (d[0] * qd_a), s2 * (d[1] * qd_c)


def belt_rate_for(arm: ArmEval, v_z: float) -> float:
    """Belt payout rate for a target vertical effector speed v_z, mast locked,
    at the evaluated pose."""
    d_ez = arm.jac[3]
    if abs(d_ez) <= SINGULARITY_EPS:
        raise SingularTransmission("q_c", d_ez)
    return arm.d[1] * v_z / d_ez


# ---------------------------------------------------------------------------
# gravity model


def gravity_potential(
    geom: RobotGeometry,
    masses: LinkMassModel,
    q_a: float,
    q_c: float,
) -> float:
    """Potential energy of both links (constant offsets dropped)."""
    phi = q_a + q_c
    return (
        masses.m_h * GRAVITY * masses.L_h * math.cos(q_a)
        + masses.m_v * GRAVITY * (geom.l_ac * math.cos(q_a) - masses.L_v * math.sin(phi))
    )

