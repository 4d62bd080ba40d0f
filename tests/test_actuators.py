import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stsbot.actuators import (
    ACTUATOR_1,
    ACTUATOR_2_HF,
    ACTUATOR_2_HS,
    ActuatorSpec,
    FrictionModel,
    clamp_to_capability,
    friction_force,
    motor_speed,
    velocity_exceeded,
)

MODEL = FrictionModel(a=80.0, b=0.04)


def test_friction_zero_at_rest():
    assert friction_force(MODEL, 0.0) == 0.0


def test_friction_is_odd():
    for v in (0.1, 1.0, 7.3, 42.0):
        assert friction_force(MODEL, -v) == pytest.approx(-friction_force(MODEL, v), abs=1e-15)


def test_friction_near_saturation():
    # at b*v = 3 the force sits within 0.5% of the dry magnitude
    v = 3.0 / MODEL.b
    assert friction_force(MODEL, v) == pytest.approx(MODEL.a * math.tanh(3.0), abs=1e-12)
    assert abs(friction_force(MODEL, v) - MODEL.a) < 0.005 * MODEL.a


@settings(max_examples=200, deadline=None)
@given(v=st.floats(min_value=-1e4, max_value=1e4, allow_nan=False))
def test_friction_bounded_and_odd_property(v):
    f = friction_force(MODEL, v)
    assert abs(f) <= MODEL.a
    assert f == pytest.approx(-friction_force(MODEL, -v), abs=1e-12)


def test_friction_monotone_nondecreasing():
    vs = np.linspace(-200.0, 200.0, 801)
    fs = [friction_force(MODEL, float(v)) for v in vs]
    assert all(b >= a for a, b in zip(fs, fs[1:]))


def test_friction_model_validation():
    with pytest.raises(ValueError):
        FrictionModel(-1.0, 0.1)
    with pytest.raises(ValueError):
        FrictionModel(1.0, -0.1)


# ---------------------------------------------------------------------------
# capability clamps


def test_belt_cannot_push():
    force, sat = clamp_to_capability(ACTUATOR_2_HS, -50.0)
    assert force == 0.0 and sat is True


def test_strut_peak_clamp():
    force, sat = clamp_to_capability(ACTUATOR_1, 2000.0, allow_peak=True)
    assert force == 1725.0 and sat is True


def test_clamp_within_envelope_unchanged():
    force, sat = clamp_to_capability(ACTUATOR_1, 250.0)
    assert force == 250.0 and sat is False


def test_clamp_continuous_default():
    force, sat = clamp_to_capability(ACTUATOR_1, 500.0)
    assert force == 402.0 and sat is True


@settings(max_examples=200, deadline=None)
@given(
    cmd=st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
    peak=st.booleans(),
)
def test_clamp_output_in_envelope_and_idempotent(cmd, peak):
    for spec in (ACTUATOR_1, ACTUATOR_2_HS, ACTUATOR_2_HF):
        out, _ = clamp_to_capability(spec, cmd, peak)
        limit = spec.f_max_peak if peak else spec.f_max_cont
        lo = 0.0 if spec.pull_only else -limit
        assert lo <= out <= limit
        again, sat2 = clamp_to_capability(spec, out, peak)
        assert again == out and sat2 is False


def test_motor_speed_examples():
    assert motor_speed(ACTUATOR_1, 0.01) == pytest.approx(6.3, abs=1e-12)
    assert motor_speed(ACTUATOR_1, 0.0) == 0.0


def test_ballscrew_ratio_consistency():
    # 10 mm/turn lead -> 2*pi/10 rad per mm, close to the tabulated 0.63
    assert abs(2.0 * math.pi / 10.0 - ACTUATOR_1.ratio) < 0.002


def test_velocity_exceeded_flag():
    assert velocity_exceeded(ACTUATOR_2_HF, 0.06) is True
    assert velocity_exceeded(ACTUATOR_2_HF, 0.04) is False
    assert velocity_exceeded(ACTUATOR_1, 0.5, allow_peak=True) is True


def test_spec_validation():
    with pytest.raises(ValueError):
        ActuatorSpec(0.5, 100.0, 50.0, 0.1, 0.1)  # peak below continuous
    with pytest.raises(ValueError):
        ActuatorSpec(0.5, 100.0, 200.0, -0.1, 0.1)
