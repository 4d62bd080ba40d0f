import math
from contextlib import ExitStack
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest

from stsbot import control, kinematics
from stsbot.actuators import (
    ACTUATOR_1,
    ACTUATOR_2_HF,
    ACTUATOR_2_HS,
    FrictionModel,
    clamp_to_capability,
)
from stsbot.config import build_scenario, parse_config_text
from stsbot.control import (
    AssistMode,
    AssistModeConfig,
    TransferConfig,
    anchor_y,
    desired_force_field,
    force_controller_step,
    speed_controller_step,
)
from stsbot.engine import Scenario, _initial_state, _rise_duration, run_scenario
from stsbot.errors import ConfigError, SingularTransmission
from stsbot.human import HumanParams
from stsbot.kinematics import (
    GRAVITY,
    Arm,
    JointState,
    LinkMassModel,
    RobotGeometry,
    act_diag,
    belt_rate_for,
    joint_torques,
)

GEOM = RobotGeometry()
MASSES = LinkMassModel.for_geometry(GEOM)
ARM = Arm(GEOM, MASSES)
ZERO_FRICTION = FrictionModel(0.0, 0.0)
USER = HumanParams(1.75, 81.13)
UNLOAD_10 = (0.0, 0.10 * 81.13 * GRAVITY)  # weight_unloading's field at fz_pct 0.10 on USER


def cfg(mode, fz=0.0, ky=0.0):
    return AssistModeConfig(mode, fz_pct=fz, ky=ky)


# ---------------------------------------------------------------------------
# mode/parameter table


@pytest.mark.parametrize("mode,fz,ky,ok", [
    (AssistMode.FOLLOW_ME, 0.0, 0.0, True),
    (AssistMode.FOLLOW_ME, 0.1, 0.0, False),
    (AssistMode.FOLLOW_ME, 0.0, 100.0, False),
    (AssistMode.WEIGHT_UNLOADING, 0.1, 0.0, True),
    (AssistMode.WEIGHT_UNLOADING, 0.0, 0.0, False),
    (AssistMode.WEIGHT_UNLOADING, 0.1, 50.0, False),
    (AssistMode.COM_BALANCE, 0.1, 200.0, True),
    (AssistMode.COM_BALANCE, 0.0, 200.0, False),
    (AssistMode.COM_BALANCE, 0.1, 0.0, False),
])
def test_mode_parameter_consistency(mode, fz, ky, ok):
    if ok:
        cfg(mode, fz, ky)
    else:
        with pytest.raises(ConfigError):
            cfg(mode, fz, ky)


def test_fz_pct_range_enforced():
    with pytest.raises(ConfigError):
        cfg(AssistMode.WEIGHT_UNLOADING, fz=1.0)
    with pytest.raises(ConfigError):
        cfg(AssistMode.WEIGHT_UNLOADING, fz=-0.1)


def test_mode_config_is_the_mode_table_alone():
    # the person is the scenario's human; a call that still passes a height
    # and a weight after the mode is refused rather than read as fz_pct and ky
    assert [f.name for f in fields(AssistModeConfig)] == [
        "mode", "fz_pct", "ky", "clamp_forward_only"]
    with pytest.raises(TypeError):
        AssistModeConfig(AssistMode.WEIGHT_UNLOADING, 1.75, 81.13)


# ---------------------------------------------------------------------------
# anchor axis


def test_anchor_y_cohort_mean_height():
    assert anchor_y(USER, 0.0) == pytest.approx(0.4375, abs=1e-12)


def test_anchor_y_tall_user_with_offset():
    assert anchor_y(HumanParams(1.91, 81.13), 0.10) == pytest.approx(0.5775, abs=1e-12)


def test_anchor_y_degenerate_height():
    # a seat 0.25 m below the floor puts the seated CoM at z = 0, under even
    # this body's standing CoM
    tiny = HumanParams(1e-300, 81.13, seat_height=-0.25)
    assert anchor_y(tiny, 0.25) == pytest.approx(0.25, abs=1e-15)


# ---------------------------------------------------------------------------
# force fields


def test_follow_me_field_is_zero():
    # and reads no person: an arm-only run has none
    c = cfg(AssistMode.FOLLOW_ME)
    for y in (0.3, 0.9, 0.6):
        assert desired_force_field(c, None, 0.0, y) == (0.0, 0.0)


def test_weight_unloading_field_magnitude():
    c = cfg(AssistMode.WEIGHT_UNLOADING, fz=0.10)
    fy, fz = desired_force_field(c, USER, 0.0, 0.7)
    assert fy == 0.0
    assert fz == pytest.approx(0.10 * 81.13 * 9.81, abs=1e-9)
    assert fz == pytest.approx(79.59, abs=0.01)


def test_com_balance_spring_zero_at_anchor():
    c = cfg(AssistMode.COM_BALANCE, fz=0.05, ky=300.0)
    fy, fz = desired_force_field(c, USER, 0.2, anchor_y(USER, 0.2))
    assert fy == pytest.approx(0.0, abs=1e-12)
    assert fz == pytest.approx(0.05 * 81.13 * 9.81, abs=1e-9)


def test_com_balance_spring_sign_matches_anchor_side():
    c = cfg(AssistMode.COM_BALANCE, fz=0.05, ky=300.0)
    a = anchor_y(USER, 0.0)
    for y in (a - 0.3, a - 0.01, a + 0.01, a + 0.3):
        fy, _ = desired_force_field(c, USER, 0.0, y)
        assert math.copysign(1.0, fy) == math.copysign(1.0, a - y) or fy == 0.0


def test_com_balance_forward_only_clamp():
    c = replace(cfg(AssistMode.COM_BALANCE, fz=0.05, ky=300.0), clamp_forward_only=True)
    fy, _ = desired_force_field(c, USER, 0.0, anchor_y(USER, 0.0) + 0.2)
    assert fy == 0.0


def test_field_affine_in_parameters():
    # superposition in (fz_pct, ky) at a fixed effector position
    e_y = 0.55
    c1 = cfg(AssistMode.COM_BALANCE, fz=0.04, ky=100.0)
    c2 = cfg(AssistMode.COM_BALANCE, fz=0.08, ky=200.0)
    f1 = desired_force_field(c1, USER, 0.1, e_y)
    f2 = desired_force_field(c2, USER, 0.1, e_y)
    assert f2[0] == pytest.approx(2.0 * f1[0], rel=1e-12)
    assert f2[1] == pytest.approx(2.0 * f1[1], rel=1e-12)


def test_field_follows_the_person():
    # bodyweight and thigh length are the given person's, in the expressions
    # the run loop evaluates
    tall = HumanParams(1.91, 100.0)
    assert desired_force_field(cfg(AssistMode.WEIGHT_UNLOADING, fz=0.1), tall, 0.1, 0.7) == (
        0.0, 0.1 * 100.0 * GRAVITY)
    assert anchor_y(tall, 0.1) == 0.1 + 0.25 * 1.91
    c = cfg(AssistMode.COM_BALANCE, fz=0.1, ky=300.0)
    assert desired_force_field(c, tall, 0.1, 0.7) == (
        300.0 * (0.1 + 0.25 * 1.91 - 0.7), 0.1 * 100.0 * GRAVITY)


def test_transfer_is_a_transfer_config_not_an_assist_mode():
    # the force fields and their controller never see a transfer: it is the
    # scenario's TransferConfig, driven by the speed controller
    with pytest.raises(ValueError):
        AssistMode("transfer")
    sc = build_scenario(parse_config_text("mode = transfer"))
    assert sc.transfer == TransferConfig()
    assert sc.mode_config is None and sc.human is None


# ---------------------------------------------------------------------------
# force controller


def controller(desired, q, motor_vels=(0.0, 0.0), frictions=(ZERO_FRICTION, ZERO_FRICTION),
               allow_peak=False):
    return force_controller_step(
        Arm(GEOM, MASSES).at(q.q_a, q.q_c, q.qd_a, q.qd_c), (ACTUATOR_1, ACTUATOR_2_HS),
        frictions, desired, motor_vels, allow_peak=allow_peak)


def test_massless_frictionless_follow_me_commands_nothing():
    empty = LinkMassModel(0.0, 0.0, 0.305, 0.375, 0.0, 0.0)
    cmd = force_controller_step(
        Arm(GEOM, empty).at(0.3, -0.4), (ACTUATOR_1, ACTUATOR_2_HS),
        (ZERO_FRICTION, ZERO_FRICTION), (0.0, 0.0), (0.0, 0.0))
    assert cmd.f1 == pytest.approx(0.0, abs=1e-12)
    assert cmd.f2 == pytest.approx(0.0, abs=1e-12)


def test_static_command_cancels_gravity_exactly():
    # applying the command in the plant model yields zero acceleration
    for qa, qc in ((0.1, 0.2), (0.5, -0.9), (0.8, -0.3)):
        cmd = controller((0.0, 0.0), JointState(qa, qc))
        tau_act = np.array(joint_torques(act_diag(GEOM, qa, qc), cmd.f1, cmd.f2))
        g = np.array(ARM.at(qa, qc).g)
        assert np.allclose(tau_act, g, atol=1e-9)


def test_unloading_produces_belt_tension():
    cmd = controller(UNLOAD_10, JointState(0.2, -0.3))
    assert cmd.f2 > 0.0
    assert not cmd.saturated_2


def test_controller_saturation_flags():
    cmd = controller((0.0, 0.6 * 120.0 * GRAVITY), JointState(0.0, 0.0))
    assert cmd.saturated_1 or cmd.saturated_2


def test_controller_command_stages():
    fr = FrictionModel(50.0, 0.05)
    cmd = controller(UNLOAD_10, JointState(0.2, -0.4), motor_vels=(10.0, -10.0),
                     frictions=(fr, fr))
    assert cmd.f1_fric == pytest.approx(cmd.f1_map + 50.0 * math.tanh(0.05 * 10.0), abs=1e-12)
    assert cmd.f2_fric == pytest.approx(cmd.f2_map + 50.0 * math.tanh(-0.05 * 10.0), abs=1e-12)
    # the envelope clamp is the last stage
    assert (cmd.f1, cmd.saturated_1) == clamp_to_capability(ACTUATOR_1, cmd.f1_fric, False)
    assert (cmd.f2, cmd.saturated_2) == clamp_to_capability(ACTUATOR_2_HS, cmd.f2_fric, False)


def test_force_controller_singular_transmission_raises():
    # a vertical boom on a wide geometry zeroes dL2/dq_c: no belt force can
    # hold it, so the controller refuses rather than command an infinite force
    wide = RobotGeometry(q_a_limits=(-3.0, 3.0), q_c_limits=(-3.0, 3.0))
    with pytest.raises(SingularTransmission) as err:
        force_controller_step(
            Arm(wide, LinkMassModel.for_geometry(wide)).at(0.0, math.pi / 2),
            (ACTUATOR_1, ACTUATOR_2_HS), (ZERO_FRICTION, ZERO_FRICTION),
            (0.0, 0.0), (0.0, 0.0))
    assert err.value.joint == "q_c"


def test_force_controller_reads_the_given_evaluation():
    # every arm term comes from the evaluation the plant made of the state:
    # the controller calls no kinematics helper and takes no sin or cos
    q = JointState(0.2, -0.4, 0.3, -0.1)
    desired = (35.0, 80.0)
    arm = Arm(GEOM, MASSES).at(q.q_a, q.q_c, q.qd_a, q.qd_c)
    want = controller(desired, q)
    helpers = [(kinematics, name) for name in ("dk_entries", "act_diag")]
    helpers += [(control, "act_diag"), (control, "dk_entries"), (Arm, "at"),
                (math, "sin"), (math, "cos")]
    with ExitStack() as stack:
        for owner, name in helpers:
            stack.enter_context(mock.patch.object(owner, name, side_effect=AssertionError(name)))
        got = force_controller_step(arm, (ACTUATOR_1, ACTUATOR_2_HS),
                                    (ZERO_FRICTION, ZERO_FRICTION), desired, (0.0, 0.0))
    assert got == want


# ---------------------------------------------------------------------------
# speed controller


def test_pi_on_reference_returns_integrator():
    tr = TransferConfig(v_z_target=0.04, q_a_locked=0.3)
    v2_ref = belt_rate_for(ARM.at(0.3, -0.2), tr.v_z_target)
    cmd, _ = speed_controller_step(ARM.at(0.3, -0.2), ACTUATOR_2_HF, tr, v2_ref, 1e-3, 123.0,
                                   v_z_signed=tr.v_z_target)
    assert cmd.f2 == pytest.approx(123.0, abs=1e-9)
    assert cmd.v2_ref == v2_ref
    assert not cmd.saturated


def test_pi_integrator_frozen_while_saturated():
    tr = TransferConfig(v_z_target=0.04, q_a_locked=0.3, kp=1e6)
    # huge error drives the command onto the envelope; integrator must freeze
    cmd, integral = speed_controller_step(ARM.at(0.3, -0.2), ACTUATOR_2_HF, tr, 1.0, 1e-3,
                                          0.0, v_z_signed=tr.v_z_target)
    assert cmd.saturated
    assert integral == 0.0


def test_pi_accumulates_when_inside_envelope():
    tr = TransferConfig(v_z_target=0.04, q_a_locked=0.3, kp=10.0, ki=100.0)
    cmd, integral = speed_controller_step(ARM.at(0.3, -0.2), ACTUATOR_2_HF, tr, 0.01, 1e-3,
                                          0.0, v_z_signed=0.0)
    assert integral == pytest.approx(100.0 * 0.01 * 1e-3, abs=1e-15)
    assert cmd.f2 == pytest.approx(10.0 * 0.01, abs=1e-12)
    assert cmd.v2_ref == 0.0


def test_transfer_config_validation():
    with pytest.raises(ConfigError):
        TransferConfig(v_z_target=0.0)
    with pytest.raises(ConfigError):
        TransferConfig(q_c_start=-0.6, q_c_end=0.0)


# ---------------------------------------------------------------------------
# transfer trajectory


@pytest.fixture(scope="module")
def transfer_log():
    return run_scenario(Scenario(geom=GEOM, transfer=TransferConfig(v_z_target=0.04),
                                 payload=98.0, repetitions=1, pause=0.5, dt=0.002))


def test_transfer_arc_radius(transfer_log):
    # the braked mast keeps the effector on the circle of radius l_ce about C
    q_a = TransferConfig().q_a_locked
    c = (GEOM.l_ac * math.sin(q_a), GEOM.base_height + GEOM.l_ac * math.cos(q_a))
    r = np.hypot(transfer_log["e_y"] - c[0], transfer_log["e_z"] - c[1])
    assert np.abs(r - GEOM.l_ce).max() < 1e-12


def test_transfer_arc_endpoints_match_fk():
    tr = TransferConfig()
    sc = Scenario(geom=GEOM, transfer=tr)
    state = _initial_state(sc)
    assert (state.q_a, state.q_c) == (tr.q_a_locked, tr.q_c_start)
    start = ARM.at(tr.q_a_locked, tr.q_c_start).e
    end = ARM.at(tr.q_a_locked, tr.q_c_end).e
    assert _rise_duration(sc) == pytest.approx(abs(end[1] - start[1]) / tr.v_z_target, abs=1e-12)


def test_transfer_arc_covers_seat_to_standing_heights(transfer_log):
    zs = transfer_log["e_z"]
    assert zs.min() < 0.43 + 0.25  # below a seated CoM over a 0.43 m seat
    assert zs.max() > 0.95  # above a typical standing CoM height
