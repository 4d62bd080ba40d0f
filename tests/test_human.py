import math

import numpy as np
import pytest

from stsbot.control import AssistMode, AssistModeConfig
from stsbot.engine import (
    Plant,
    Scenario,
    SimState,
    _build_schedule,
    run_scenario,
)
from stsbot.errors import ConfigError
from stsbot.human import (
    ChairModel,
    HarnessModel,
    HumanParams,
    minimum_jerk,
    muscle_effort,
)
from stsbot.simlog import PHASE_SETTLE

HUMAN = HumanParams(1.75, 80.0, chair_y=0.0)  # the laws are checked at y = 0
CHAIR = ChairModel()
STS_DURATION = 2.0


# ---------------------------------------------------------------------------
# minimum-jerk reference


def test_min_jerk_boundary_conditions():
    for tau, (s, ds, dds) in ((0.0, (0.0, 0.0, 0.0)), (1.0, (1.0, 0.0, 0.0))):
        got = minimum_jerk(tau)
        assert got == pytest.approx((s, ds, dds), abs=1e-12)


def test_min_jerk_midpoint_symmetry():
    s, _, _ = minimum_jerk(0.5)
    assert s == pytest.approx(0.5, abs=1e-12)


def test_min_jerk_peak_velocity():
    # max of ds/dtau is 15/8 at tau = 1/2
    taus = np.linspace(0.0, 1.0, 10001)
    peak = max(minimum_jerk(float(t))[1] for t in taus)
    assert peak == pytest.approx(1.875, abs=1e-6)


def detached(params, **kw):
    """A human alone on the chair: the plant without the robot."""
    base = dict(human=params, robot_attached=False, sts_duration=STS_DURATION,
                repetitions=1, rep_jitter=0.0, settle=0.5)
    base.update(kw)
    return Scenario(**base)


def rise_reference(t):
    """The engine's CoM reference at time t into the first rise."""
    sc = detached(HUMAN)
    return _build_schedule(sc).reference(sc.settle + t)


def test_reference_endpoints_and_clamping():
    pos, vel = rise_reference(0.0)
    assert pos == HUMAN.seated_com and vel == (0.0, 0.0)
    pos, vel = rise_reference(STS_DURATION)
    assert pos == HUMAN.standing_com and vel == (0.0, 0.0)
    pos, _ = rise_reference(STS_DURATION / 2.0)
    assert pos[0] == pytest.approx(
        0.5 * (HUMAN.seated_com[0] + HUMAN.standing_com[0]), abs=1e-12)


def test_reference_peak_velocity_scale():
    dz = HUMAN.standing_com[1] - HUMAN.seated_com[1]
    _, vel = rise_reference(STS_DURATION / 2.0)
    assert vel[1] == pytest.approx(1.875 * dz / STS_DURATION, abs=1e-9)


# ---------------------------------------------------------------------------
# muscle model


SEATED = dict(com=HUMAN.seated_com, vel=(0.0, 0.0))


def test_muscle_zero_error_returns_baseline_only():
    f = muscle_effort(HUMAN, **SEATED, chair_fz=0.3 * HUMAN.weight,
                      harness_f=(0.0, 0.1 * HUMAN.weight),
                      ref_pos=HUMAN.seated_com, ref_vel=(0.0, 0.0))
    assert f[0] == pytest.approx(0.0, abs=1e-12)
    assert f[1] == pytest.approx(0.6 * HUMAN.weight, abs=1e-9)


def test_muscle_zero_mobility_exerts_nothing():
    dummy = HumanParams(1.75, 80.0, mobility=0.0)
    f = muscle_effort(dummy, **SEATED, chair_fz=0.0, harness_f=(0.0, 0.0),
                      ref_pos=(1.0, 2.0), ref_vel=(0.0, 0.0))
    assert f == (0.0, 0.0)


def test_muscle_capacity_norm_clamp():
    f = muscle_effort(HUMAN, **SEATED, chair_fz=0.0, harness_f=(0.0, 0.0),
                      ref_pos=(HUMAN.seated_com[0] + 5.0, HUMAN.seated_com[1] + 5.0),
                      ref_vel=(0.0, 0.0))
    assert math.hypot(*f) == pytest.approx(HUMAN.capacity, rel=1e-9)


def test_muscle_feet_cannot_pull_ground():
    f = muscle_effort(HUMAN, **SEATED, chair_fz=HUMAN.weight, harness_f=(0.0, 0.0),
                      ref_pos=(HUMAN.seated_com[0], HUMAN.seated_com[1] - 5.0),
                      ref_vel=(0.0, 0.0))
    assert f[1] >= 0.0


# ---------------------------------------------------------------------------
# chair model


def test_chair_support_fraction_taper():
    seat = CHAIR.seat(HUMAN)
    edge = HUMAN.seated_com[0] + CHAIR.edge_offset
    assert seat.support_fraction(HUMAN.seated_com[0]) == 1.0
    assert seat.support_fraction(edge - CHAIR.edge_taper / 2) == pytest.approx(0.5)
    assert seat.support_fraction(edge) == 0.0
    assert seat.support_fraction(edge + 0.1) == 0.0
    assert seat.support_fraction(edge - CHAIR.seat_depth - 0.01) == 0.0


def test_chair_carries_bodyweight_at_seated_reference():
    f = CHAIR.seat(HUMAN).force(HUMAN.seated_com, (0.0, 0.0))
    assert f == pytest.approx(HUMAN.weight, rel=1e-12)


def test_chair_unilateral():
    seat = CHAIR.seat(HUMAN)
    above = (HUMAN.seated_com[0], seat.plane_z + 0.01)
    assert seat.force(above, (0.0, 0.0)) == 0.0


# ---------------------------------------------------------------------------
# contact statics


def settle(params, steps=4000, dt=1e-3):
    """Integrate the detached plant through its settle phase (reference
    held at the seated CoM); returns the plant and the final state."""
    plant = Plant(detached(params, settle=steps * dt + 1.0))
    state = SimState(com=params.seated_com)
    for _ in range(steps):
        state = plant.step(state, (0.0, 0.0), dt)
    return plant, state


def grf(plant, state):
    f = plant.forces(state.t, state.vector())
    return f.chair_fz, f.feet[1]


def test_static_seated_grf_sum_equals_weight():
    # mobility 0: no leg force at all, the chair carries everything
    dummy = HumanParams(1.75, 80.0, mobility=0.0)
    chair_fz, feet_fz = grf(*settle(dummy))
    assert chair_fz + feet_fz == pytest.approx(dummy.weight, rel=1e-6)
    assert feet_fz == 0.0


def test_static_seated_with_harness_unloading():
    # mobility 0, the robot unloading 0.1 bw through the harness: once the
    # settle phase is at rest, chair and feet carry the other 0.9 bw
    dummy = HumanParams(1.75, 80.0, mobility=0.0, chair_y=0.67)
    mode = AssistModeConfig(AssistMode.WEIGHT_UNLOADING, fz_pct=0.10)
    log = run_scenario(Scenario(human=dummy, mode_config=mode, repetitions=1, settle=4.0,
                                rep_jitter=0.0, pause=0.0, sts_duration=0.5))
    i = np.flatnonzero(log["phase"] == PHASE_SETTLE)[-1]
    total = log["chair_fz"][i] + log["feet_fz"][i]
    assert total == pytest.approx(0.9 * dummy.weight, rel=1e-5)
    assert log["feet_fz"][i] == 0.0


def test_static_seated_active_muscle_balances():
    plant, state = settle(HUMAN)
    chair_fz, feet_fz = grf(plant, state)
    assert chair_fz + feet_fz == pytest.approx(HUMAN.weight, rel=1e-5)
    assert abs(state.vcom[0]) < 1e-6 and abs(state.vcom[1]) < 1e-6


# ---------------------------------------------------------------------------
# harness


def test_harness_unloaded_at_rest_offset():
    h = HarnessModel()
    com = (0.5, 0.8)
    e = (com[0] + h.rest_offset[0], com[1] + h.rest_offset[1])
    f = h.force_on_human(e, (0.0, 0.0), com, (0.0, 0.0))
    assert f[0] == pytest.approx(0.0, abs=1e-9)
    assert f[1] == pytest.approx(0.0, abs=1e-9)


def test_harness_spring_damper_components():
    h = HarnessModel(stiffness=1000.0, damping=10.0, rest_offset=(0.0, 0.0))
    f = h.force_on_human((0.01, 0.0), (0.2, 0.0), (0.0, 0.0), (0.0, 0.0))
    assert f[0] == pytest.approx(1000.0 * 0.01 + 10.0 * 0.2, abs=1e-12)
    assert f[1] == 0.0


def test_derived_coms_follow_the_fields():
    # the seated CoM 0.25 m above the seat at chair_y, the standing CoM one
    # thigh length ahead at standing_z_factor x height
    assert HumanParams(1.75, 80.0, seat_height=0.6, chair_y=0.0).seated_com == (0.0, 0.85)
    assert HumanParams(1.75, 80.0, chair_y=0.0).standing_com == (0.25 * 1.75, 0.54 * 1.75)
    p = HumanParams(1.91, 100.0, seat_height=0.5, chair_y=0.44, standing_z_factor=0.55)
    assert p.seated_com == (0.44, 0.75)
    assert p.standing_com == (0.44 + 0.25 * 1.91, 0.55 * 1.91)


def test_params_validation():
    with pytest.raises(ValueError):
        HumanParams(1.75, -5.0)
    with pytest.raises(ValueError):
        HumanParams(1.75, 80.0, mobility=1.5)
    with pytest.raises(ValueError):
        HumanParams(1.75, 80.0, seat_height=0.8)
    with pytest.raises(ConfigError, match="sts.duration"):
        detached(HUMAN, sts_duration=0.0).validate()
