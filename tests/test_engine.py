import json
import math
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from stsbot import engine
from stsbot.actuators import ACTUATOR_1, ACTUATOR_2_HF, ACTUATOR_2_HS, FrictionModel, motor_speed
from stsbot.analysis import sts_metrics
from stsbot.control import (
    AssistMode,
    AssistModeConfig,
    TransferConfig,
    force_controller_step,
)
from stsbot.engine import (
    CHANNELS,
    CSV_SCHEMA_VERSION,
    Forces,
    PHASE_PAUSE,
    PHASE_PAUSE2,
    PHASE_RISE,
    Plant,
    Scenario,
    SimLog,
    SimState,
    _initial_state,
    run_scenario,
)
from stsbot.errors import ConfigError, NumericalDivergence
from stsbot.human import HumanParams
from stsbot.kinematics import (ARRAY_MATH, GRAVITY, Arm, ArmEval, JointState, LinkMassModel,
                               RobotGeometry, act_diag, drive_speeds)

GEOM = RobotGeometry()
ZERO_F = FrictionModel(0.0, 0.0)
FOLLOW = AssistModeConfig(AssistMode.FOLLOW_ME)


def human(height=1.75, mass=81.13, mobility=1.0):
    return HumanParams(height, mass, mobility=mobility, chair_y=0.67)


def arm_only_scenario(**kw):
    base = dict(geom=GEOM, human=None, robot_attached=True, mode_config=FOLLOW)
    base.update(kw)
    return Scenario(**base)


# ---------------------------------------------------------------------------
# plant integration


def test_energy_conservation_frictionless_undamped():
    # small oscillation about the hanging equilibrium, hard stops out of reach
    geom = RobotGeometry(q_a_limits=(-7.0, 7.0), q_c_limits=(-7.0, 7.0))
    sc = arm_only_scenario(geom=geom, damping=(0.0, 0.0),
                           plant_frictions=(ZERO_F, ZERO_F, ZERO_F),
                           ctrl_frictions=(ZERO_F, ZERO_F, ZERO_F),
                           initial_q=JointState(math.pi - 0.2, -math.pi / 2 + 0.15))
    plant = Plant(sc)
    state = SimState(q_a=math.pi - 0.2, q_c=-math.pi / 2 + 0.15)
    e0 = plant.mechanical_energy(state)
    horizon = 10.0
    for _ in range(int(horizon / 1e-3)):
        state = plant.step(state, (0.0, 0.0), 1e-3)
    drift_rate = abs(plant.mechanical_energy(state) - e0) / horizon
    assert drift_rate < 1e-5


def test_gravity_compensation_holds_pose():
    sc = arm_only_scenario(initial_q=JointState(0.45, -0.7))
    plant = Plant(sc)
    state = SimState(q_a=0.45, q_c=-0.7)
    for _ in range(5000):
        cmd = force_controller_step(
            plant.evaluated(state).arm, (plant.spec1, plant.spec2), plant.ctrl_frictions,
            (0.0, 0.0), plant.motor_speeds(state))
        state = plant.step(state, (cmd.f1, cmd.f2), 1e-3)
    assert abs(state.q_a - 0.45) < 1e-9
    assert abs(state.q_c + 0.7) < 1e-9


def test_brake_locks_mast_exactly():
    tr = TransferConfig(v_z_target=0.04, q_a_locked=0.33)
    sc = Scenario(geom=GEOM, human=None, transfer=tr, payload=50.0)
    plant = Plant(sc)
    state = SimState(q_a=0.33, q_c=0.2)
    for i in range(2000):
        # arbitrary strut and belt commands act as the disturbance
        state = plant.step(state, (-800.0 if i % 3 else 1500.0, 500.0 if i % 2 else 2500.0),
                           1e-3)
    assert state.q_a == 0.33  # bit-exact lock
    assert state.qd_a == 0.0


def test_belt_transmitted_force_cannot_push():
    sc = arm_only_scenario(initial_q=JointState(0.3, -0.2))
    plant = Plant(sc)
    state = SimState(q_a=0.3, q_c=-0.2, qd_c=0.5)
    f1t, f2t = plant.transmitted_forces(state, (0.0, -400.0))
    assert f2t >= 0.0


def test_joint_limits_are_hard_stops():
    sc = arm_only_scenario(damping=(0.0, 0.0),
                           plant_frictions=(ZERO_F, ZERO_F, ZERO_F),
                           initial_q=JointState(0.85, 0.45))
    plant = Plant(sc)
    state = SimState(q_a=0.85, q_c=0.45, qd_a=2.0, qd_c=2.0)
    for _ in range(200):
        state = plant.step(state, (0.0, 0.0), 1e-3)
    assert state.q_a <= GEOM.q_a_limits[1] + 1e-12
    assert state.q_c <= GEOM.q_c_limits[1] + 1e-12


def test_divergence_guard_raises():
    sc = arm_only_scenario()
    plant = Plant(sc)
    state = SimState(q_a=0.3, q_c=-0.2, qd_a=80.0)
    with pytest.raises(NumericalDivergence):
        plant.step(state, (0.0, 0.0), 1e-3)


# ---------------------------------------------------------------------------
# scenario runs


def short_scenario(**kw):
    base = dict(geom=GEOM, human=human(), mode_config=FOLLOW, repetitions=1,
                pause=0.5, settle=0.2, seed=4, rep_jitter=0.0)
    base.update(kw)
    return Scenario(**base)


def quick_start(repetitions=3):
    """The README quick-start scenario."""
    return Scenario(geom=GEOM, human=human(), repetitions=repetitions, seed=42, allow_peak=True,
                    mode_config=AssistModeConfig(AssistMode.WEIGHT_UNLOADING, fz_pct=0.10))


def test_run_is_deterministic_bitwise(tmp_path):
    sc = short_scenario(seed=99)
    log1, log2 = run_scenario(sc), run_scenario(sc)
    for name in log1.data:
        assert np.array_equal(log1[name], log2[name])
    log1.write_csv(tmp_path / "1.csv")
    log2.write_csv(tmp_path / "2.csv")
    assert (tmp_path / "1.csv").read_bytes() == (tmp_path / "2.csv").read_bytes()


def test_detached_pair_identical_bit_for_bit():
    a = short_scenario(robot_attached=False, mode_config=None)
    b = short_scenario(robot_attached=False, mode_config=None)
    la, lb = run_scenario(a), run_scenario(b)
    for name in la.data:
        assert np.array_equal(la[name], lb[name])


def test_halving_dt_convergence():
    sc_a = short_scenario(dt=1e-3)
    sc_b = short_scenario(dt=5e-4)
    la, lb = run_scenario(sc_a), run_scenario(sc_b)
    d = math.hypot(la["com_y"][-1] - lb["com_y"][-1], la["com_z"][-1] - lb["com_z"][-1])
    assert d < 1e-4


def test_wor_sts_completes_to_standing():
    hum = human()
    sc = Scenario(geom=GEOM, human=hum, robot_attached=False, repetitions=2, seed=5)
    log = run_scenario(sc)
    for rep in (0, 1):
        w = (log["rep"] == rep) & (log["phase"] == PHASE_PAUSE)
        i = np.flatnonzero(w)[-1]
        d = math.hypot(log["com_y"][i] - hum.standing_com[0],
                       log["com_z"][i] - hum.standing_com[1])
        assert d < 0.02
    # an able adult pushes 1.0..1.3 bodyweight through the feet at the peak
    from stsbot.analysis import sts_metrics

    for m in sts_metrics(log):
        assert 1.0 <= m.peak_feet / hum.weight <= 1.3


def test_low_mobility_human_fails_sts():
    hum = human(mobility=0.5)
    sc = Scenario(geom=GEOM, human=hum, robot_attached=False, repetitions=1, seed=5)
    log = run_scenario(sc)
    w = (log["rep"] == 0) & (log["phase"] == PHASE_PAUSE)
    i = np.flatnonzero(w)[-1]
    assert log["com_z"][i] < hum.standing_com[1] - 0.05  # sit-back: never gets up


def test_log_duration_structure():
    sc = short_scenario(repetitions=1, pause=0.0, settle=0.0)
    log = run_scenario(sc)
    # rise + descent only (two STS durations)
    assert len(log) == int(round(2.0 * sc.sts_duration / sc.dt))


def test_grf_channels_nonnegative():
    log = run_scenario(short_scenario(seed=12))
    assert (log["chair_fz"] >= 0.0).all()
    assert (log["feet_fz"] >= 0.0).all()


def test_seat_off_monotone_within_rise():
    log = run_scenario(short_scenario(seed=13, repetitions=2, pause=1.0))
    for rep in (0, 1):
        w = (log["rep"] == rep) & ((log["phase"] == PHASE_RISE) | (log["phase"] == PHASE_PAUSE))
        flags = log["seat_off"][w]
        assert (np.diff(flags) >= 0.0).all()


def test_every_repetition_starts_and_ends_seated():
    # the README quick-start: the chair is a contact like the floor, so every
    # rise leaves the seat and every descent sits back down on it, with the
    # arm off its joint stops throughout
    sc = quick_start()
    log = run_scenario(sc)
    reps = sts_metrics(log)
    assert len(reps) == 3
    for m in reps:
        assert m.peak_chair > 0.5 * sc.human.weight
        assert m.seat_off_time > 0.0
    for q, (lo, hi) in ((log["q_a"], GEOM.q_a_limits), (log["q_c"], GEOM.q_c_limits)):
        assert ((lo < q) & (q < hi)).all()
    for rep in range(3):
        i = np.flatnonzero((log["rep"] == rep) & (log["phase"] == PHASE_PAUSE2))[-1]
        assert log["chair_fz"][i] > 0.0
        assert log["seat_off"][i] == 0.0


def test_newton_balance_channel_consistency():
    log = run_scenario(short_scenario(seed=14))
    m = log.meta["weight"]
    res_y = m * log["acom_y"] - (log["feet_fy"] + log["harness_fy"])
    res_z = m * log["acom_z"] - (
        log["feet_fz"] + log["chair_fz"] + log["harness_fz"] - m * GRAVITY)
    tol = 1e-6 * m * GRAVITY
    assert np.abs(res_y).max() < tol
    assert np.abs(res_z).max() < tol


def test_wor_impulse_balance():
    # stationary start and end: vertical GRF integrates to weight * duration
    hum = human()
    sc = Scenario(geom=GEOM, human=hum, robot_attached=False, repetitions=1,
                  seed=6, rep_jitter=0.0)
    log = run_scenario(sc)
    total = (log["chair_fz"] + log["feet_fz"]).sum() * log.dt
    expect = hum.weight * log["time"][-1]
    assert abs(total - expect) / expect < 1e-3


def test_harness_channel_consistency():
    # logged harness force equals the spring-damper law applied to logged kinematics
    sc = short_scenario(seed=15)
    log = run_scenario(sc)
    h = sc.harness
    fy = h.stiffness * (log["e_y"] - log["com_y"] - h.rest_offset[0]) \
        + h.damping * (log["e_vy"] - log["vcom_y"])
    fz = h.stiffness * (log["e_z"] - log["com_z"] - h.rest_offset[1]) \
        + h.damping * (log["e_vz"] - log["vcom_z"])
    assert np.allclose(fy, log["harness_fy"], atol=1e-9)
    assert np.allclose(fz, log["harness_fz"], atol=1e-9)


def test_transfer_monotone_ascent():
    tr = TransferConfig(v_z_target=0.04, q_a_locked=0.30, q_c_start=0.45, q_c_end=-0.50)
    sc = Scenario(geom=GEOM, human=None, transfer=tr, payload=98.0, repetitions=1,
                  seed=3, pause=1.0)
    log = run_scenario(sc)
    rise = (log["rep"] == 0) & (log["phase"] == PHASE_RISE)
    z = log["e_z"][rise]
    # after the PI settles the ascent is monotone
    settled = z[int(1.0 / log.dt):]
    assert (np.diff(settled) > -1e-9).all()
    assert log["brake"][rise].all()


def test_transfer_unloaded_lowering_regulated_by_tension_only():
    # with nothing on the hook the arm descends under its own gravity while
    # the belt only ever pulls
    tr = TransferConfig(v_z_target=0.04, q_a_locked=0.30, q_c_start=0.45, q_c_end=-0.50)
    sc = Scenario(geom=GEOM, human=None, transfer=tr, payload=0.0, repetitions=1,
                  seed=9, pause=1.0)
    log = run_scenario(sc)
    assert (log["f2_cmd"] >= 0.0).all()
    from stsbot.analysis import transfer_speed_table

    _, down = transfer_speed_table({0.0: log})[0.0]
    assert abs(down - tr.v_z_target) / tr.v_z_target < 0.10


def test_plant_friction_mismatch_error_grows_with_level():
    from stsbot.actuators import (
        DEFAULT_FRICTION_1,
        DEFAULT_FRICTION_2_HF,
        DEFAULT_FRICTION_2_HS,
    )
    from stsbot.analysis import measured_assistance

    plant_fr = tuple(FrictionModel(f.a * 1.5, f.b) for f in
                     (DEFAULT_FRICTION_1, DEFAULT_FRICTION_2_HS, DEFAULT_FRICTION_2_HF))
    hum = human()
    errors = []
    for pct in (0.05, 0.10, 0.20):
        mc = AssistModeConfig(AssistMode.WEIGHT_UNLOADING, fz_pct=pct)
        sc = Scenario(geom=GEOM, human=hum, mode_config=mc, repetitions=2, seed=77,
                      allow_peak=True, plant_frictions=plant_fr)
        errors.append(abs(measured_assistance(run_scenario(sc), 81.13) - pct))
    assert errors[0] < errors[1] < errors[2]
    assert errors[2] > 0.004  # the +50% mismatch is clearly visible


def test_scenario_validation():
    with pytest.raises(ConfigError):
        Scenario(dt=0.0).validate()
    with pytest.raises(ConfigError):
        Scenario(human=human(), mode_config=FOLLOW, repetitions=0).validate()
    with pytest.raises(ConfigError):
        Scenario(human=human(), mode_config=FOLLOW, payload=10.0).validate()
    # a transfer is the TransferConfig alone: no mode config rides along with
    # it, and it lifts a payload, not the surrogate human
    with pytest.raises(ConfigError, match="assist mode config"):
        Scenario(human=None, transfer=TransferConfig(), mode_config=FOLLOW).validate()
    with pytest.raises(ConfigError, match="no human"):
        Scenario(human=human(), transfer=TransferConfig()).validate()
    # the braked mast and the boom's arc lie within the joint limits, ends included
    lo_a, hi_a = GEOM.q_a_limits
    lo_c, hi_c = GEOM.q_c_limits
    Scenario(human=None, transfer=TransferConfig(q_a_locked=hi_a, q_c_start=hi_c,
                                                 q_c_end=lo_c)).validate()
    for bad in (dict(q_a_locked=1.5), dict(q_a_locked=lo_a - 1e-9), dict(q_c_start=0.6),
                dict(q_c_end=-1.5)):
        with pytest.raises(ConfigError, match="joint limits"):
            Scenario(human=None, transfer=TransferConfig(**bad)).validate()
    # so does the arm-only start pose
    arm_only_scenario(initial_q=JointState(hi_a, lo_c)).validate()
    for bad in ((1.5, 0.0), (lo_a - 1e-9, 0.0), (0.2, hi_c + 1e-9), (0.2, -1.5)):
        with pytest.raises(ConfigError, match="initial_q"):
            arm_only_scenario(initial_q=JointState(*bad)).validate()
    with pytest.raises(ConfigError, match="steps"):
        Scenario(human=human(), mode_config=FOLLOW, pause=1e200).validate()


@pytest.mark.parametrize("mode_config", [
    AssistModeConfig(AssistMode.WEIGHT_UNLOADING, fz_pct=0.1),
    AssistModeConfig(AssistMode.COM_BALANCE, fz_pct=0.1, ky=200.0),
], ids=lambda mc: mc.mode.value)
def test_assist_mode_on_no_person_is_rejected(mode_config):
    # the field unloads and pulls a person: with none, nothing would read it
    # but the arm, which it would drive onto its hard stops
    with pytest.raises(ConfigError, match="human.enabled"):
        arm_only_scenario(mode_config=mode_config).validate()
    # and it acts through the harness: a detached robot never evaluates it
    with pytest.raises(ConfigError, match="robot_attached"):
        Scenario(human=human(), mode_config=mode_config, robot_attached=False).validate()
    Scenario(human=human(), mode_config=mode_config).validate()


def test_massless_boom_is_rejected_with_the_robot_attached():
    # m_v = 0 zeroes the boom's inertia B1: the rehab mass matrix and the
    # transfer's one-joint inertia are then singular somewhere on the arc
    massless = LinkMassModel.for_geometry(GEOM, m_v=0.0)
    for sc in (Scenario(human=human(), mode_config=FOLLOW, masses=massless),
               Scenario(human=None, transfer=TransferConfig(), masses=massless),
               Scenario(human=None, transfer=TransferConfig(), masses=massless, payload=50.0),
               arm_only_scenario(masses=massless)):
        with pytest.raises(ConfigError, match="masses.m_v"):
            sc.validate()
    # detached, the arm never moves and its masses are never read
    Scenario(human=human(), robot_attached=False, masses=massless).validate()


def test_both_attach_points_must_be_reachable():
    # at chair_y 0.8 the arm holds the seated harness but not the standing
    # one, which a run would meet as a joint stop mid-rise
    far = Scenario(human=HumanParams(1.75, 81.13, chair_y=0.8),
                   mode_config=AssistModeConfig(AssistMode.WEIGHT_UNLOADING, fz_pct=0.1),
                   repetitions=1, pause=0.5, allow_peak=True)
    with pytest.raises(ConfigError, match="human.standing CoM attach point"):
        far.validate()
    # the default person in the default chair starts seated, held at the attach point
    sc = Scenario(human=HumanParams(1.75, 81.13), mode_config=FOLLOW)
    sc.validate()
    start = _initial_state(sc)
    seated = sc.human.seated_com
    assert start.com == seated
    effector = Arm(GEOM, sc.resolved_masses()).at(start.q_a, start.q_c).e
    assert effector == pytest.approx(sc.harness.attach_point(seated), abs=1e-12)
    # the same person detached: the arm is never placed
    replace(far, robot_attached=False, mode_config=None).validate()


# short runs of each plant branch: the force controller with the human, the
# brake-locked transfer, and the human alone
REPLAY_SCENARIOS = {
    "com_balance": dict(
        mode_config=AssistModeConfig(AssistMode.COM_BALANCE, fz_pct=0.1, ky=200.0),
        allow_peak=True, pause=0.2, settle=0.1, dt=2e-3, seed=21),
    "transfer": dict(
        human=None, mode_config=None, payload=50.0, pause=0.2, settle=0.1, dt=2e-3, seed=22,
        transfer=TransferConfig(v_z_target=0.04, q_a_locked=0.30, q_c_start=0.2, q_c_end=0.0)),
    "detached": dict(robot_attached=False, mode_config=None, dt=2e-3, seed=23),
}
ARM_CHANNELS = ("e_y", "e_z", "e_vy", "e_vz", "v2_belt", "f1_trans", "f2_trans")
HUMAN_CHANNELS = ("harness_fy", "harness_fz", "acom_y", "acom_z", "chair_fz",
                  "feet_fy", "feet_fz")


@pytest.mark.parametrize("name", sorted(REPLAY_SCENARIOS))
def test_logged_forces_replay_from_logged_state(name):
    # the logger reads the step's own evaluation of each state and the
    # transmitted forces the step applied: fresh evaluations of the states
    # rebuilt from the log give the same bits, row k's transmitted pair from
    # row k-1's state (the start state for row 0) and row k's commands
    sc = short_scenario(**REPLAY_SCENARIOS[name])
    log = run_scenario(sc)
    plant = Plant(sc)
    col = {c: log[c].tolist() for c in log.data}
    got = {c: [] for c in ARM_CHANNELS + HUMAN_CHANNELS}
    prev = _initial_state(sc)
    for k in range(len(log)):
        state = SimState(col["time"][k], col["q_a"][k], col["q_c"][k], col["qd_a"][k],
                         col["qd_c"][k], (col["com_y"][k], col["com_z"][k]),
                         (col["vcom_y"][k], col["vcom_z"][k]))
        arm, hum = (0.0,) * len(ARM_CHANNELS), (0.0,) * len(HUMAN_CHANNELS)
        if plant.attached:
            trans = plant.transmitted_forces(prev, (col["f1_cmd"][k], col["f2_cmd"][k]))
        f = plant.evaluated(state)
        if plant.attached:
            assert f.arm.d == act_diag(GEOM, state.q_a, state.q_c)
            arm = f.arm.e + f.arm.ev + (f.arm.d[1] * state.qd_c,) + trans
        else:
            assert f.arm is None
        if plant.has_human:
            hum = f.harness + f.acom + (f.chair_fz,) + f.feet
            assert col["seat_off"][k] == float(f.chair_fz <= 0.0)
        for c, v in zip(ARM_CHANNELS + HUMAN_CHANNELS, arm + hum):
            got[c].append(v)
        prev = state
    for c, values in got.items():
        assert np.array_equal(np.array(values).view(np.int64), log[c].view(np.int64)), c


@pytest.mark.parametrize("name, belt, brake", [("com_balance", ACTUATOR_2_HS, 0.0),
                                               ("transfer", ACTUATOR_2_HF, 1.0)],
                         ids=["rehab", "transfer"])
def test_transfer_block_selects_belt_output_and_brake(name, belt, brake):
    # the transfer block picks the high-force belt output and the mast brake
    # for the whole run, a rehabilitation run the high-speed output; the
    # encoder speeds follow the picked drive
    sc = short_scenario(**REPLAY_SCENARIOS[name])
    plant = Plant(sc)
    assert (plant.spec1, plant.spec2) == (ACTUATOR_1, belt)
    assert np.all(run_scenario(sc)["brake"] == brake)
    state = SimState(q_a=0.3, q_c=-0.2, qd_a=0.4, qd_c=-0.7)
    v1, v2 = drive_speeds(act_diag(GEOM, 0.3, -0.2), 0.4, -0.7)
    w = plant.motor_speeds(state)
    assert w == (motor_speed(ACTUATOR_1, v1), motor_speed(belt, v2))
    assert plant.motor_speeds(state) is w  # computed once per state


def test_each_state_is_evaluated_once():
    # RK4 stage 1 reads the evaluation the previous step kept on its state:
    # stages 2-4 and the new state make four per step, plus the first state's
    sc = short_scenario(dt=2e-3)
    calls = 0
    forces = Plant.forces

    def counted(self, t, s):
        nonlocal calls
        calls += 1
        return forces(self, t, s)

    with mock.patch.object(Plant, "forces", counted):
        log = run_scenario(sc)
    assert calls == 4 * len(log) + 1


def test_transfer_integrates_the_boom_alone():
    # the braked transfer's RK4 reads the boom's three terms at stages 2-4
    # (Arm.boom), evaluates the whole arm only at the new state and never
    # builds the 8-state derivative; the 5 set-up calls of Arm.at are the
    # arc's two ends twice (validate, schedule) and the start state's evaluation
    sc = short_scenario(**REPLAY_SCENARIOS["transfer"])
    counts = {"at": 0, "boom": 0, "deriv": 0}

    def counted(cls, name, key):
        original = getattr(cls, name)

        def wrapper(self, *args):
            counts[key] += 1
            return original(self, *args)
        return mock.patch.object(cls, name, wrapper)

    with counted(Arm, "at", "at"), counted(Arm, "boom", "boom"), \
            counted(Plant, "_deriv", "deriv"):
        log = run_scenario(sc)
    assert counts == {"at": len(log) + 5, "boom": 3 * len(log), "deriv": 0}


@pytest.mark.parametrize("qd_c, message", [(math.inf, "in an RK4 stage"),
                                           (60.0, "runaway velocity")],
                         ids=["non_finite", "runaway"])
def test_transfer_step_divergence_guards(qd_c, message):
    # a non-finite boom rate reaches a stage's sin/cos and ends as a
    # divergence, not a ValueError; a finite runaway rate trips the guard
    plant = Plant(short_scenario(**REPLAY_SCENARIOS["transfer"]))
    with pytest.raises(NumericalDivergence, match=message):
        plant.step(SimState(q_a=0.3, q_c=0.2, qd_c=qd_c), (0.0, 0.0), 2e-3)


def zip_rk4(plant: Plant, state: SimState, commands, dt: float) -> list[float]:
    """The 2-DOF RK4 of ``Plant.step`` as zip comprehensions over the 8-state
    vector, before the joint stops: the bit oracle for its written-out stages."""
    f1, f2 = plant.transmitted_forces(state, commands) if plant.attached else (0.0, 0.0)
    t, s = state.t, state.vector()
    k1 = plant._deriv(s, plant.forces(t, s), f1, f2)
    h2 = dt / 2.0
    s2 = [x + h2 * k for x, k in zip(s, k1)]
    k2 = plant._deriv(s2, plant.forces(t + h2, s2), f1, f2)
    s3 = [x + h2 * k for x, k in zip(s, k2)]
    k3 = plant._deriv(s3, plant.forces(t + h2, s3), f1, f2)
    s4 = [x + dt * k for x, k in zip(s, k3)]
    k4 = plant._deriv(s4, plant.forces(t + dt, s4), f1, f2)
    h6 = dt / 6.0
    return [x + h6 * (a + 2.0 * b + 2.0 * c + d) for x, a, b, c, d in zip(s, k1, k2, k3, k4)]


# each 2-DOF branch of Plant.step: the human with the robot, the arm alone,
# the human alone
RK4_SCENARIOS = {
    "human_with_robot": short_scenario(**REPLAY_SCENARIOS["com_balance"]),
    "arm_only": arm_only_scenario(),
    "detached": short_scenario(**REPLAY_SCENARIOS["detached"]),
}


def limited(lo_hi, u):
    lo, hi = lo_hi
    return lo + u * (hi - lo)


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(RK4_SCENARIOS)), t=st.floats(0.0, 4.5),
       q=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
       qd=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
       com=st.tuples(st.floats(0.5, 1.2), st.floats(0.4, 1.0)),
       vcom=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
       commands=st.tuples(st.floats(-2000.0, 2000.0), st.floats(-500.0, 2000.0)),
       dt=st.floats(0.0, 5e-3, exclude_min=True))
def test_written_out_step_matches_the_zip_rk4(name, t, q, qd, com, vcom, commands, dt):
    # a fresh plant for each side: the schedule's lookup cursor only moves forward
    scenario = RK4_SCENARIOS[name]

    def start():
        return SimState(t, limited(GEOM.q_a_limits, q[0]), limited(GEOM.q_c_limits, q[1]),
                        *qd, com, vcom)
    expected = zip_rk4(Plant(scenario), start(), commands, dt)
    # the joint stops and the divergence guards act after the RK4
    q_a, q_c, qd_a, qd_c, _, _, cvy, cvz = expected
    assume(all(map(math.isfinite, expected)))
    assume(GEOM.q_a_limits[0] <= q_a <= GEOM.q_a_limits[1]
           and GEOM.q_c_limits[0] <= q_c <= GEOM.q_c_limits[1])
    assume(max(abs(qd_a), abs(qd_c)) <= 50.0 and max(abs(cvy), abs(cvz)) <= 20.0)
    new = Plant(scenario).step(start(), commands, dt)
    assert [x.hex() for x in new.vector()] == [x.hex() for x in expected]


def assert_exact_record(record, cls):
    # tuple.__new__ checks neither the type nor the number of the fields; what
    # each field holds is pinned by test_kinematics.py's formula tests
    assert type(record) is cls
    keyword = cls(**{name: getattr(record, name) for name in cls._fields})
    assert len(record) == len(keyword)
    assert all(mine is theirs for mine, theirs in zip(record, keyword))


def test_arm_at_and_plant_forces_return_exact_records():
    arm = Arm(GEOM, LinkMassModel())
    assert_exact_record(arm.at(0.3, -0.2, 0.5, -0.4), ArmEval)
    many = arm.at(np.array([0.3, 0.1]), np.array([-0.2, 0.0]), ops=ARRAY_MATH)
    assert_exact_record(many, ArmEval)
    for scenario in RK4_SCENARIOS.values():
        plant = Plant(scenario)
        f = plant.forces(0.1, _initial_state(scenario).vector())
        assert_exact_record(f, Forces)
        if plant.attached:
            assert_exact_record(f.arm, ArmEval)
        else:
            assert f.arm is None


def rowwise_csv(log: SimLog) -> str:
    """Row-by-row writer, one f-string per cell: the byte oracle for ``write_csv``."""
    names = list(log.data.keys())
    cols = [log.data[n] for n in names]
    lines = [f"# {CSV_SCHEMA_VERSION}"]
    lines.append("# meta " + json.dumps(log.meta, sort_keys=True))
    lines.append(",".join(names))
    for i in range(len(cols[0])):
        lines.append(",".join(f"{c[i]:.17g}" for c in cols))
    return "\n".join(lines) + "\n"


def assert_csv_exact(log: SimLog) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.csv"
        log.write_csv(path)
        assert path.read_bytes() == rowwise_csv(log).encode()
        back = SimLog.from_csv(path)
    assert back.meta == log.meta
    assert list(back.data) == list(log.data)
    for name in log.data:
        want = np.asarray(log[name], dtype=np.float64)
        assert np.array_equal(back[name].view(np.int64), want.view(np.int64))


def test_csv_roundtrip():
    log = run_scenario(short_scenario(seed=20, repetitions=1, pause=0.2, settle=0.1))
    assert_csv_exact(log)


# values whose text is easy to get wrong: signed zeros (one bit apart), NaN,
# infinities, the smallest subnormal and the largest magnitudes
EDGE_VALUES = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e308, -1e308, 1.0]


@st.composite
def edge_logs(draw):
    n_rows = draw(st.integers(1, 30))
    value = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(allow_nan=False))
    data = {"time": np.arange(n_rows) * 1e-3}
    for name in [f"c{k}" for k in range(draw(st.integers(1, 4)))]:
        # a pool per column, small or as large as the log, so a block's column
        # repeats its values or varies; picks held for a run of rows, so whole
        # blocks hold one value
        pool = draw(st.lists(value, min_size=1, max_size=draw(st.sampled_from([3, 30]))))
        run = draw(st.integers(1, 8))
        picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n_rows, max_size=n_rows))
        data[name] = np.array([pool[picks[i - i % run]] for i in range(n_rows)], dtype=np.float64)
    if draw(st.booleans()):
        # strided views, as from_csv hands out: the columns of one row-major array
        data = dict(zip(data, np.column_stack(list(data.values())).T))
    if draw(st.booleans()):
        # an integer column, as the map's mask is
        data["mask"] = np.array(draw(st.lists(st.integers(0, 2), min_size=n_rows,
                                              max_size=n_rows)), dtype=np.int64)
    return SimLog(1e-3, data, {"seed": draw(st.integers(0, 9))})


# blocks of these five columns that draw each case: at 20 cells (four rows)
# c0 is constant at -0.0 in one block and at 0.0 in the next, c1 is constant
# at NaN, c2 repeats {0.0, 1.0} and then {-0.0, 1.0}, whose text the second
# block must not take from the first, and the integer mask repeats, then is
# constant; at 40 cells c0 repeats both zeros; at one cell every column is
# constant, so the row template is all literal text and takes no arguments
EDGE_BLOCKS = SimLog(1e-3, {"time": np.arange(8) * 1e-3,
                            "c0": np.array([-0.0] * 4 + [0.0] * 4),
                            "c1": np.full(8, math.nan),
                            "c2": np.array([0.0, 1.0, 1.0, 0.0, -0.0, 1.0, 1.0, -0.0]),
                            "mask": np.array([1, 1, 0, 1, 2, 2, 2, 2])}, {"seed": 0})

# blocks that draw the writer's pre-check, which runs first on a column that
# took %.17g in the last block: 409-row blocks (at 818 cells) whose second
# holds 409 distinct values that share their low 12 bits, so only np.unique
# can tell that they vary; and four-row blocks (at 8 cells) in which c0
# varies, varies again, repeats {5.0, 6.0} and varies once more
SHARED_LOW_BITS = SimLog(1e-3, {"time": np.arange(818) * 1e-3,
                                "c0": np.concatenate([np.arange(409) * 0.1,
                                                      np.arange(409) * 2.0**20])}, {"seed": 0})
VARY_REPEAT_VARY = SimLog(1e-3, {"time": np.arange(16) * 1e-3,
                                 "c0": np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8,
                                                 5.0, 5.0, 6.0, 5.0, 0.9, 1.1, 1.3, 1.7])},
                         {"seed": 0})


@settings(max_examples=200, deadline=None)
@given(log=edge_logs(), block_cells=st.integers(1, 48))
@example(log=EDGE_BLOCKS, block_cells=20)
@example(log=EDGE_BLOCKS, block_cells=40)
@example(log=EDGE_BLOCKS, block_cells=1)
@example(log=SHARED_LOW_BITS, block_cells=818)
@example(log=VARY_REPEAT_VARY, block_cells=8)
def test_csv_bytes_match_rowwise_writer(log, block_cells):
    with mock.patch.object(engine, "CSV_BLOCK_CELLS", block_cells):
        assert_csv_exact(log)


# ---------------------------------------------------------------------------
# the log is held once


# a 9 103-sample transfer at the longest step the rules allow: a 2.9 MB log
# that runs in well under a second, so tracing it stays cheap
MEMORY_TRANSFER = Scenario(transfer=TransferConfig(), repetitions=1, pause=0.5, payload=50.0,
                           dt=5e-3)


def traced_peak(fn):
    """``fn()`` and the peak bytes tracemalloc (numpy included) saw during it."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_log_channels_are_views_of_one_array(tmp_path):
    # run_scenario's channels are contiguous rows of one (channels, samples)
    # array: strided in-memory columns made sts_metrics plus
    # measured_assistance 1.38x slower, which would cost study_sweep's analysis
    log = run_scenario(short_scenario(seed=24, pause=0.2, settle=0.1, dt=2e-3))
    assert list(log.data) == CHANNELS
    assert all(log[name].flags.c_contiguous for name in CHANNELS)
    base = log["time"].base
    assert base is not None and base.shape == (len(CHANNELS), len(log))
    assert all(log[name].base is base for name in CHANNELS)
    # from_csv hands out the columns of loadtxt's one array, copying none
    path = tmp_path / "log.csv"
    log.write_csv(path)
    back = SimLog.from_csv(path)
    base = back["time"].base
    assert base is not None and base.shape == (len(log), len(CHANNELS))
    assert all(back[name].base is base for name in CHANNELS)


def test_run_scenario_holds_the_log_once():
    log, peak = traced_peak(lambda: run_scenario(MEMORY_TRANSFER))
    nbytes = len(log) * len(CHANNELS) * 8
    assert nbytes > 2e6
    # a copy of every channel would double the peak
    assert peak <= 1.1 * nbytes + 1e6


def test_sample_store_does_not_depend_on_its_block_size():
    # run_scenario packs samples into blocks of CSV_BLOCK_CELLS cells and
    # copies each block into the log: one-row blocks, seven-row blocks (which
    # divide none of these runs) and the default 409 rows must log the same
    # bits, also for a run shorter than one block
    rows = engine.CSV_BLOCK_CELLS // len(CHANNELS)
    for sc in (short_scenario(seed=24, pause=0.2, settle=0.1, dt=2e-3), MEMORY_TRANSFER,
               short_scenario(dt=5e-3, sts_duration=0.5, pause=0.1, settle=0.1)):
        want = run_scenario(sc)["time"].base
        assert want.shape[1] % 7 and want.shape[1] % rows
        for block_cells in (len(CHANNELS), 7 * len(CHANNELS)):
            with mock.patch.object(engine, "CSV_BLOCK_CELLS", block_cells):
                got = run_scenario(sc)["time"].base
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert want.shape[1] < rows


def test_from_csv_holds_the_log_once(tmp_path):
    path = tmp_path / "log.csv"
    run_scenario(MEMORY_TRANSFER).write_csv(path)
    back, peak = traced_peak(lambda: SimLog.from_csv(path))
    nbytes = back["time"].base.nbytes
    assert nbytes > 2e6
    # loadtxt grows its array as it reads (1.14x measured); a copy of every
    # column would add 1x more
    assert peak <= 1.25 * nbytes + 1e6


def test_csv_writer_peak_does_not_grow_with_the_log(tmp_path):
    # 3 and 15 blocks of a quick-start log: tracemalloc slows the writer
    # ~0.2 ms per row, and 15 blocks still span the rise, the pause and the
    # descent. A writer that first copied every whole column would add
    # 2.0 MB to the long peak and fail both bounds below.
    log = run_scenario(quick_start(1))
    rows = engine.CSV_BLOCK_CELLS // len(CHANNELS)
    short = SimLog(log.dt, {n: c[:3 * rows] for n, c in log.data.items()}, log.meta)
    # the long log's channels laid out as from_csv hands them out, strided
    # columns of one row-major array: the writer makes one block of a column
    # contiguous at a time, never the whole column
    long = SimLog(log.dt, dict(zip(CHANNELS, np.column_stack(
        [c[:15 * rows] for c in log.data.values()]).T)), log.meta)
    assert len(log) > len(long)
    peaks = [traced_peak(lambda lg=lg: lg.write_csv(tmp_path / "log.csv"))[1]
             for lg in (short, long)]
    assert abs(peaks[1] - peaks[0]) <= 1e6
    # a map.csv as cli._cmd_map lays it out: a 241 x 241 grid (58 081 rows of
    # y, z, a mostly-NaN value and an integer mask), whose blocks hold ten
    # times the rows of a log's for the same cells
    rng = np.random.default_rng(0)
    grid = np.linspace(0.1, 1.3, 241)
    value = np.where(rng.random(241 * 241) < 0.7, math.nan, rng.normal(1e3, 3e2, 241 * 241))
    columns = [np.tile(grid, 241), np.repeat(grid, 241), value, np.isfinite(value).astype(int)]
    peaks.append(traced_peak(lambda: sum(map(len, engine.csv_rows(columns))))[1])
    # one block's argument lists and tuple, its row template and its text
    # measured 63 B per cell of CSV_BLOCK_CELLS for the logs (1.03 MB) and
    # 53 B for the map
    assert max(peaks) <= 80 * engine.CSV_BLOCK_CELLS
