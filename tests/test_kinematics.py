import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stsbot.errors import OutOfJointLimits, SingularTransmission, Unreachable
from stsbot.kinematics import (
    ARRAY_MATH,
    GRAVITY,
    Arm,
    JointState,
    LinkMassModel,
    RobotGeometry,
    act_diag,
    belt_rate_for,
    dk_entries,
    drive_forces,
    drive_speeds,
    gravity_potential,
    inverse_kinematics,
    joint_torques,
)

GEOM = RobotGeometry()
MASSES = LinkMassModel.for_geometry(GEOM)
ARM = Arm(GEOM, MASSES)
WIDE = RobotGeometry(q_a_limits=(-3.0, 3.0), q_c_limits=(-3.0, 3.0))


def random_states(n, seed=0, geom=GEOM):
    rng = np.random.default_rng(seed)
    qa = rng.uniform(*geom.q_a_limits, n)
    qc = rng.uniform(*geom.q_c_limits, n)
    return [JointState(float(a), float(c)) for a, c in zip(qa, qc)]


def fk_rotation_oracle(geom, q):
    """Independent forward kinematics via explicit 2D rotation matrices."""
    def rot(t):
        return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])

    a = np.array([0.0, geom.base_height])
    mast = rot(-q.q_a) @ np.array([0.0, geom.l_ac])
    boom = rot(-(q.q_a + q.q_c)) @ np.array([geom.l_ce, 0.0])
    return a + mast + boom


# ---------------------------------------------------------------------------
# forward kinematics


def test_fk_boom_horizontal():
    y, z = ARM.at(0.0, 0.0).e
    assert y == pytest.approx(0.75, abs=1e-12)
    assert z == pytest.approx(1.05, abs=1e-12)


def test_fk_boom_straight_down():
    y, z = ARM.at(0.0, math.pi / 2).e
    assert y == pytest.approx(0.0, abs=1e-12)
    assert z == pytest.approx(0.30, abs=1e-12)


def test_fk_matches_rotation_matrix_oracle():
    for q in random_states(50, seed=1):
        y, z = ARM.at(q.q_a, q.q_c).e
        ref = fk_rotation_oracle(GEOM, q)
        assert abs(y - ref[0]) < 1e-12
        assert abs(z - ref[1]) < 1e-12


def test_fk_velocity_is_jacobian_times_qd():
    q = JointState(0.3, -0.4, 0.7, -0.2)
    vy, vz = ARM.at(q.q_a, q.q_c, q.qd_a, q.qd_c).ev
    v = np.reshape(dk_entries(GEOM, q.q_a, q.q_c), (2, 2)) @ np.array([q.qd_a, q.qd_c])
    assert vy == pytest.approx(v[0], abs=1e-14)
    assert vz == pytest.approx(v[1], abs=1e-14)


# ---------------------------------------------------------------------------
# one evaluation of the arm: the loop-free reference formulas


def ref_effector_position(geom, q_a, q_c):
    phi = q_a + q_c
    return (
        geom.l_ac * math.sin(q_a) + geom.l_ce * math.cos(phi),
        geom.base_height + geom.l_ac * math.cos(q_a) - geom.l_ce * math.sin(phi),
    )


def ref_dk_entries(geom, q_a, q_c):
    phi = q_a + q_c
    sf, cf = math.sin(phi), math.cos(phi)
    sa, ca = math.sin(q_a), math.cos(q_a)
    return (
        geom.l_ac * ca - geom.l_ce * sf,
        -geom.l_ce * sf,
        -geom.l_ac * sa - geom.l_ce * cf,
        -geom.l_ce * cf,
    )


def ref_strut_length(geom, q_a):
    by = geom.l_ab * math.sin(q_a)
    bz = geom.l_ab * math.cos(q_a)
    return math.hypot(by - geom.p1[0], bz - geom.p1[1])


def ref_belt_length(geom, q_c):
    return 2.0 * math.sqrt(
        geom.d_g**2 + geom.l_cd**2 + 2.0 * geom.d_g * geom.l_cd * math.sin(q_c)
    )


def ref_act_diag(geom, q_a, q_c):
    l1 = ref_strut_length(geom, q_a)
    d_l1 = -geom.l_ab * (geom.p1[0] * math.cos(q_a) - geom.p1[1] * math.sin(q_a)) / l1
    l2 = ref_belt_length(geom, q_c)
    d_l2 = 4.0 * geom.d_g * geom.l_cd * math.cos(q_c) / l2
    return d_l1, d_l2


def ref_gravity_vec(geom, masses, q_a, q_c):
    phi = q_a + q_c
    w2 = masses.m_v * GRAVITY * masses.L_v * math.cos(phi)
    g_a = -(masses.m_h * masses.L_h + masses.m_v * geom.l_ac) * GRAVITY * math.sin(q_a) - w2
    return g_a, -w2


def ref_inertia(geom, m, q_c):
    """(m11, m12, m22, dm12/dq_c) of the two-link mass matrix."""
    a1 = m.I_h + m.m_h * m.L_h**2 + m.m_v * geom.l_ac**2
    b1 = m.I_v + m.m_v * m.L_v**2
    g1 = m.m_v * geom.l_ac * m.L_v
    gamma = -g1 * math.sin(q_c)
    return a1 + b1 + 2.0 * gamma, b1 + gamma, b1, -g1 * math.cos(q_c)


def bits(values):
    """Exact identity of floats, telling -0.0 from 0.0."""
    return tuple(float(v).hex() for v in values)


ODD_GEOM = RobotGeometry(l_ab=0.41, l_ac=0.67, l_ce=0.81, l_cd=0.29, base_height=0.37,
                         p1=(0.19, -0.13), d_g=0.52)
ARMS = [(GEOM, MASSES), (ODD_GEOM, LinkMassModel.for_geometry(ODD_GEOM, m_h=3.1, m_v=5.7)),
        (WIDE, LinkMassModel(1.7, 6.3, 0.21, 0.44, 0.09, 0.31))]


@settings(max_examples=400, deadline=None)
@given(arm=st.sampled_from(ARMS),
       q=st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)),
       qd=st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0)))
def test_arm_evaluation_equals_reference_formulas_exactly(arm, q, qd):
    # one sin/cos set per pose gives the same bits as each formula alone,
    # inside and outside the joint limits; the kept helpers read that evaluation
    geom, masses = arm
    q_a, q_c = q
    a = Arm(geom, masses).at(q_a, q_c, *qd)
    e, jac = ref_effector_position(geom, q_a, q_c), ref_dk_entries(geom, q_a, q_c)
    ev = (jac[0] * qd[0] + jac[1] * qd[1], jac[2] * qd[0] + jac[3] * qd[1])
    lengths = (ref_strut_length(geom, q_a), ref_belt_length(geom, q_c))
    d, g = ref_act_diag(geom, q_a, q_c), ref_gravity_vec(geom, masses, q_a, q_c)
    assert bits(a.e) == bits(e)
    assert bits(a.ev) == bits(ev)
    assert bits(a.jac) == bits(jac)
    assert bits(a.lengths) == bits(lengths)
    assert bits(a.d) == bits(d)
    assert bits(a.g) == bits(g)
    assert bits(a.inertia + (a.dm12,)) == bits(ref_inertia(geom, masses, q_c))
    assert bits(dk_entries(geom, q_a, q_c)) == bits(jac)
    assert bits(act_diag(geom, q_a, q_c)) == bits(d)


def flat_terms(a, n):
    """Every term of an ArmEval, each broadcast to n elements."""
    terms = [t for f in a for t in (f if isinstance(f, tuple) else (f,))]
    return [np.broadcast_to(t, n) for t in terms]


@settings(max_examples=100, deadline=None)
@given(arm=st.sampled_from(ARMS),
       states=st.lists(st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0),
                                 st.floats(-50.0, 50.0), st.floats(-50.0, 50.0)),
                       max_size=20))
def test_arm_over_arrays_equals_each_scalar_evaluation(arm, states):
    a = Arm(*arm)
    columns = np.array(states, dtype=float).reshape(-1, 4).T
    many = flat_terms(a.at(*columns, ops=ARRAY_MATH), len(states))
    for i, state in enumerate(states):
        assert bits(t[i] for t in many) == bits(t[0] for t in flat_terms(a.at(*state), 1))


# ---------------------------------------------------------------------------
# inverse kinematics


def test_ik_roundtrip_of_home_pose():
    q = inverse_kinematics(GEOM, (0.75, 1.05))
    assert q.q_a == pytest.approx(0.0, abs=1e-12)
    assert q.q_c == pytest.approx(0.0, abs=1e-12)


def test_ik_straight_arm_at_max_reach():
    # full extension needs wide limits; q_c sits at the fully extended value
    r = WIDE.l_ac + WIDE.l_ce
    target = (r * math.sin(0.4), WIDE.base_height + r * math.cos(0.4))
    q = inverse_kinematics(WIDE, target)
    assert q.q_c == pytest.approx(-math.pi / 2, abs=1e-6)


def test_ik_random_roundtrip_under_1e9():
    rng = np.random.default_rng(7)
    count = 0
    while count < 100:
        qa = rng.uniform(*GEOM.q_a_limits)
        qc = rng.uniform(*GEOM.q_c_limits)
        y, z = ARM.at(qa, qc).e
        q = inverse_kinematics(GEOM, (y, z))
        y2, z2 = ARM.at(q.q_a, q.q_c).e
        assert math.hypot(y2 - y, z2 - z) < 1e-9
        count += 1


def test_ik_unreachable_raises():
    with pytest.raises(Unreachable):
        inverse_kinematics(GEOM, (3.0, 3.0))
    with pytest.raises(Unreachable):
        inverse_kinematics(GEOM, (0.0, GEOM.base_height + 0.01))


def test_ik_target_at_joint_a_is_unreachable():
    # equal links reach every radius down to 0, but not joint A itself
    geom = RobotGeometry(l_ac=0.7, l_ce=0.7, q_a_limits=(-3.0, 3.0), q_c_limits=(-3.0, 3.0))
    with pytest.raises(Unreachable):
        inverse_kinematics(geom, (0.0, geom.base_height))
    assert inverse_kinematics(geom, (0.0, geom.base_height + 0.05)).q_c > 1.4


def test_ik_out_of_limits_raises():
    # reachable geometrically but outside the default joint box
    with pytest.raises(OutOfJointLimits):
        inverse_kinematics(GEOM, (0.30, 0.60))


@settings(max_examples=200, deadline=None)
@given(
    qa=st.floats(min_value=-0.10, max_value=0.90),
    qc=st.floats(min_value=-1.20, max_value=0.50),
)
def test_ik_fk_identity_property(qa, qc):
    y, z = ARM.at(qa, qc).e
    q = inverse_kinematics(GEOM, (y, z))
    assert abs(q.q_a - qa) < 1e-9
    assert abs(q.q_c - qc) < 1e-9


# ---------------------------------------------------------------------------
# jacobians


def test_dk_column2_norm_is_boom_length():
    for q in random_states(20, seed=2):
        _, j12, _, j22 = dk_entries(GEOM, q.q_a, q.q_c)
        assert math.hypot(j12, j22) == pytest.approx(GEOM.l_ce, abs=1e-12)


def test_dk_dEz_dqc_at_home():
    j22 = dk_entries(GEOM, 0.0, 0.0)[3]
    assert j22 == pytest.approx(-0.75, abs=1e-12)


def finite_difference(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def test_dk_matches_finite_differences():
    for q in random_states(50, seed=3):
        j = np.reshape(dk_entries(GEOM, q.q_a, q.q_c), (2, 2))
        for k, (fy, fz) in enumerate((
            (lambda a: ARM.at(a, q.q_c).e[0],
             lambda a: ARM.at(a, q.q_c).e[1]),
            (lambda c: ARM.at(q.q_a, c).e[0],
             lambda c: ARM.at(q.q_a, c).e[1]),
        )):
            x = q.q_a if k == 0 else q.q_c
            fd_y = finite_difference(fy, x)
            fd_z = finite_difference(fz, x)
            scale = max(1.0, abs(fd_y), abs(fd_z))
            assert abs(j[0, k] - fd_y) / scale < 1e-6
            assert abs(j[1, k] - fd_z) / scale < 1e-6


def test_actuator_lengths_belt_closed_form():
    l2 = Arm(RobotGeometry(d_g=0.15), MASSES).at(0.0, 0.0).lengths[1]
    assert l2 == pytest.approx(2.0 * math.sqrt(0.15**2 + 0.38**2), abs=1e-12)
    assert l2 == pytest.approx(0.8170679286, abs=1e-9)


def world_lengths(geom, q_a, q_c):
    """(L1, L2) from world-frame points: anchor to B, and twice G to D."""
    def on_mast(d):
        return np.array([d * math.sin(q_a), geom.base_height + d * math.cos(q_a)])

    anchor = np.array([geom.p1[0], geom.base_height + geom.p1[1]])
    boom = np.array([math.cos(q_a + q_c), -math.sin(q_a + q_c)])
    pulley = on_mast(geom.l_ac + geom.d_g)
    sheave = on_mast(geom.l_ac) + geom.l_cd * boom
    return (float(np.linalg.norm(on_mast(geom.l_ab) - anchor)),
            2.0 * float(np.linalg.norm(pulley - sheave)))


def test_belt_length_independent_of_mast_angle():
    for qc in (-1.0, -0.3, 0.2, 0.5):
        for qa in (0.1, 0.7):
            l2 = ARM.at(0.0, qc).lengths[1]
            assert world_lengths(GEOM, qa, qc)[1] == pytest.approx(l2, abs=1e-12)


def test_strut_travel_fits_stroke():
    qs = np.linspace(*GEOM.q_a_limits, 2001)
    lengths = [ARM.at(float(q), 0.0).lengths[0] for q in qs]
    assert max(lengths) - min(lengths) <= GEOM.stroke_1


def test_act_jacobian_is_diagonal():
    # each length depends on its own joint only: dL1/dq_c = dL2/dq_a = 0
    for q in random_states(20, seed=4):
        dl1_dqc = finite_difference(lambda c: world_lengths(GEOM, q.q_a, c)[0], q.q_c)
        dl2_dqa = finite_difference(lambda a: world_lengths(GEOM, a, q.q_c)[1], q.q_a)
        assert abs(dl1_dqc) < 1e-9
        assert abs(dl2_dqa) < 1e-9


def test_act_jacobian_matches_finite_differences():
    for q in random_states(50, seed=5):
        d1, d2 = act_diag(GEOM, q.q_a, q.q_c)
        fd1 = finite_difference(lambda a: ARM.at(a, q.q_c).lengths[0], q.q_a)
        fd2 = finite_difference(lambda c: ARM.at(q.q_a, c).lengths[1], q.q_c)
        assert abs(d1 - fd1) / max(1.0, abs(fd1)) < 1e-6
        assert abs(d2 - fd2) / max(1.0, abs(fd2)) < 1e-6


def test_belt_derivative_vanishes_at_vertical_boom():
    assert abs(act_diag(WIDE, 0.0, math.pi / 2)[1]) < 1e-12
    assert abs(act_diag(WIDE, 0.0, -math.pi / 2)[1]) < 1e-12


# ---------------------------------------------------------------------------
# force mapping


def effector_drive_forces(geom, q, f_eff):
    """Drive forces statically equivalent to f_eff applied at E."""
    j11, j12, j21, j22 = dk_entries(geom, q.q_a, q.q_c)
    return drive_forces(act_diag(geom, q.q_a, q.q_c),
                        j11 * f_eff[0] + j21 * f_eff[1], j12 * f_eff[0] + j22 * f_eff[1])


def test_force_map_zero_force():
    f1, f2 = effector_drive_forces(GEOM, JointState(0.2, -0.3), (0.0, 0.0))
    assert f1 == 0.0 and f2 == 0.0


def test_force_map_torque_route_identity():
    for q in random_states(20, seed=9):
        f_eff = (120.0, -340.0)
        tau_act = joint_torques(act_diag(GEOM, q.q_a, q.q_c),
                                *effector_drive_forces(GEOM, q, f_eff))
        tau_dk = np.reshape(dk_entries(GEOM, q.q_a, q.q_c), (2, 2)).T @ np.array(f_eff)
        assert np.allclose(tau_act, tau_dk, atol=1e-9)


def test_force_map_belt_tension_sign_for_hanging_load():
    # holding up a 650 N hanging load means pushing E up with 650 N: the belt
    # works in tension
    _, f2 = effector_drive_forces(GEOM, JointState(0.0, 0.0), (0.0, 650.0))
    assert f2 > 0.0


joint_angles = st.tuples(st.floats(*GEOM.q_a_limits), st.floats(*GEOM.q_c_limits))
finite = st.floats(-1e3, 1e3)


@settings(max_examples=300, deadline=None)
@given(q=joint_angles, qd=st.tuples(finite, finite), tau=st.tuples(finite, finite))
def test_drive_map_keeps_virtual_power_and_inverts(q, qd, tau):
    # one sign convention: forces and speeds are power-conjugate, and the
    # torque -> force and force -> torque maps undo each other
    d = act_diag(GEOM, *q)
    f = drive_forces(d, *tau)
    v = drive_speeds(d, *qd)
    drive_power = f[0] * v[0] + f[1] * v[1]
    joint_power = tau[0] * qd[0] + tau[1] * qd[1]
    scale = abs(tau[0] * qd[0]) + abs(tau[1] * qd[1])
    assert abs(drive_power - joint_power) <= 1e-12 * scale + 1e-300  # floor: underflow
    back = joint_torques(d, *f)
    for got, want in zip(back, tau):
        assert got == pytest.approx(want, rel=1e-12, abs=1e-300)


def test_transfer_velocity_zero():
    assert belt_rate_for(ARM.at(0.3, -0.2), 0.0) == 0.0


def test_transfer_velocity_chain_consistency():
    q_a, q_c, v_z = 0.3, -0.5, 0.03
    v2 = belt_rate_for(ARM.at(q_a, q_c), v_z)
    d_ez = dk_entries(GEOM, q_a, q_c)[3]
    qd_c = v_z / d_ez
    d_l2 = act_diag(GEOM, q_a, q_c)[1]
    assert v2 == pytest.approx(d_l2 * qd_c, abs=1e-12)


def test_transfer_velocity_sweep_finite_and_smooth():
    qs = np.linspace(-1.1, 0.45, 200)
    vs = [belt_rate_for(ARM.at(0.3, float(q)), 0.03) for q in qs]
    assert all(np.isfinite(vs))
    steps = np.abs(np.diff(vs))
    assert steps.max() < 0.01


def test_transfer_velocity_singular_at_vertical_boom():
    with pytest.raises(SingularTransmission):
        belt_rate_for(Arm(WIDE, MASSES).at(0.0, math.pi / 2), 0.03)


# ---------------------------------------------------------------------------
# gravity


def test_gravity_symmetric_zero():
    # mast vertical, boom straight down: the mast torque vanishes by symmetry
    g_a, _ = ARM.at(0.0, math.pi / 2).g
    assert abs(g_a) < 1e-12


def test_gravity_massless_limit():
    empty = LinkMassModel(0.0, 0.0, 0.305, 0.375, 0.0, 0.0)
    g = Arm(GEOM, empty).at(0.4, -0.7).g
    assert g == (0.0, 0.0)


def test_gravity_matches_finite_difference_of_potential():
    for q in random_states(50, seed=10):
        g_a, g_c = ARM.at(q.q_a, q.q_c).g
        fd_a = finite_difference(lambda a: gravity_potential(GEOM, MASSES, a, q.q_c), q.q_a)
        fd_c = finite_difference(lambda c: gravity_potential(GEOM, MASSES, q.q_a, c), q.q_c)
        assert abs(g_a - fd_a) / max(1.0, abs(fd_a)) < 1e-6
        assert abs(g_c - fd_c) / max(1.0, abs(fd_c)) < 1e-6


def test_gravity_field_is_conservative():
    # loop integral of g . dq around random closed loops vanishes
    rng = np.random.default_rng(11)
    for _ in range(5):
        c_a, c_c = rng.uniform(0.1, 0.6), rng.uniform(-0.8, 0.2)
        r_a, r_c = rng.uniform(0.05, 0.2), rng.uniform(0.05, 0.2)
        n = 2000
        theta = np.linspace(0.0, 2.0 * math.pi, n + 1)
        qa = c_a + r_a * np.cos(theta)
        qc = c_c + r_c * np.sin(theta)
        work = 0.0
        for i in range(n):
            mid_a, mid_c = 0.5 * (qa[i] + qa[i + 1]), 0.5 * (qc[i] + qc[i + 1])
            g_a, g_c = ARM.at(mid_a, mid_c).g
            work += g_a * (qa[i + 1] - qa[i]) + g_c * (qc[i + 1] - qc[i])
        assert abs(work) < 1e-8


def test_geometry_validation():
    with pytest.raises(ValueError):
        RobotGeometry(l_ab=-1.0)
    with pytest.raises(ValueError):
        RobotGeometry(l_cd=0.8)  # longer than the boom
    with pytest.raises(ValueError):
        RobotGeometry(q_a_limits=(0.5, 0.5))
    with pytest.raises(ValueError, match="4 pi"):
        RobotGeometry(q_a_limits=(-0.1, 1e308))
    RobotGeometry(q_c_limits=(-4.0 * math.pi, 4.0 * math.pi))  # the bound itself is allowed


def test_default_mass_model_is_the_rods_of_the_default_geometry():
    assert LinkMassModel() == LinkMassModel.for_geometry(RobotGeometry())
