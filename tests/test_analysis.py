import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stsbot import analysis

from stsbot.actuators import ACTUATOR_1, ACTUATOR_2_HF, ACTUATOR_2_HS, ActuatorSpec
from stsbot.analysis import (
    MASK_INFEASIBLE,
    MASK_LIMITS,
    MASK_OK,
    MASK_SINGULAR,
    MASK_UNREACHABLE,
    assistance_error_table,
    band_cells,
    capability_map,
    cmc,
    connected_fraction,
    measured_assistance,
    mean_rise_waveform,
    motion_window,
    nominal_sts_path,
    repetition_indices,
    resample,
    sts_metrics,
    transfer_speed_table,
)
from stsbot.engine import CHANNELS, PHASE_DESCENT, PHASE_PAUSE, PHASE_RISE, SimLog
from stsbot.errors import (
    DegenerateInput,
    EmptyWindow,
    OutOfJointLimits,
    SingularTransmission,
    Unreachable,
)
from stsbot.human import HumanParams, minimum_jerk
from stsbot.kinematics import (
    GRAVITY,
    Arm,
    ArmEval,
    JointState,
    LinkMassModel,
    RobotGeometry,
    check_invertible,
    drive_forces,
)

GEOM = RobotGeometry()
MASSES = LinkMassModel.for_geometry(GEOM)


# ---------------------------------------------------------------------------
# synthetic logs


def make_log(dt=1e-3, duration=2.0, weight=80.0, rise=True, motion_speed=0.0,
             grf_scale=1.0):
    n = int(duration / dt)
    data = {name: np.zeros(n) for name in CHANNELS}
    data["time"] = np.arange(1, n + 1) * dt
    data["rep"] = np.zeros(n)
    data["phase"] = np.full(n, PHASE_RISE if rise else PHASE_PAUSE)
    w = weight * GRAVITY
    data["chair_fz"] = np.full(n, 0.4 * w * grf_scale)
    data["feet_fz"] = np.full(n, 0.6 * w * grf_scale)
    data["vcom_z"] = np.full(n, motion_speed)
    return SimLog(dt, data, {"weight": weight})


def min_jerk_log(dt=1e-3, duration=2.0, dy=0.45, dz=0.30, weight=80.0):
    n = int(duration / dt)
    data = {name: np.zeros(n) for name in CHANNELS}
    t = np.arange(1, n + 1) * dt
    data["time"] = t
    data["phase"] = np.full(n, PHASE_RISE)
    pos = np.empty((n, 2))
    vel = np.empty((n, 2))
    acc = np.empty((n, 2))
    for i, ti in enumerate(t):
        s, ds, dds = minimum_jerk(ti / duration)
        pos[i] = (s * dy, s * dz)
        vel[i] = (ds * dy / duration, ds * dz / duration)
        acc[i] = (dds * dy / duration**2, dds * dz / duration**2)
    data["com_y"], data["com_z"] = pos.T
    data["vcom_y"], data["vcom_z"] = vel.T
    data["acom_y"], data["acom_z"] = acc.T
    data["feet_fz"] = np.full(n, weight * GRAVITY)
    return SimLog(dt, data, {"weight": weight, "height": 1.75})


# ---------------------------------------------------------------------------
# CMC


def cmc_literal(waveforms):
    """Straight transliteration of the definition with explicit loops."""
    y = np.asarray(waveforms, dtype=float)
    w, t = y.shape
    ybar_t = [sum(y[i][j] for i in range(w)) / w for j in range(t)]
    ybar = sum(sum(row) for row in y) / (w * t)
    num = sum((y[i][j] - ybar_t[j]) ** 2 for i in range(w) for j in range(t)) / (t * (w - 1))
    den = sum((y[i][j] - ybar) ** 2 for i in range(w) for j in range(t)) / (w * t - 1)
    return math.sqrt(max(0.0, 1.0 - num / den))


def test_cmc_identical_waveforms():
    wave = np.sin(np.linspace(0.0, 3.0, 60))
    assert cmc([wave, wave, wave]) == pytest.approx(1.0, abs=1e-12)


def test_cmc_reversed_ramp_hits_zero_clamp():
    ramp = np.linspace(0.0, 1.0, 50)
    assert cmc([ramp, ramp[::-1]]) == 0.0


def test_cmc_matches_literal_formula():
    rng = np.random.default_rng(3)
    for _ in range(20):
        w = rng.integers(2, 6)
        t = rng.integers(2, 40)
        y = rng.normal(size=(w, t))
        assert cmc(y) == pytest.approx(cmc_literal(y), abs=1e-12)


def test_cmc_affine_invariance():
    rng = np.random.default_rng(4)
    y = rng.normal(size=(3, 30))
    assert cmc(3.7 * y + 11.0) == pytest.approx(cmc(y), abs=1e-10)


def test_cmc_degenerate_input():
    with pytest.raises(DegenerateInput):
        cmc(np.ones((3, 10)))
    with pytest.raises(DegenerateInput):
        cmc(np.zeros((1, 10)))


def test_resample_preserves_endpoints():
    x = np.array([0.0, 1.0, 4.0, 9.0])
    r = resample(x, 7)
    assert r[0] == 0.0 and r[-1] == 9.0
    assert len(r) == 7


# ---------------------------------------------------------------------------
# metrics


def test_min_jerk_log_peak_velocity_analytic():
    dur, dy, dz = 2.0, 0.45, 0.30
    log = min_jerk_log(duration=dur, dy=dy, dz=dz)
    m = sts_metrics(log)[0]
    assert m.peak_vy == pytest.approx(1.875 * dy / dur, rel=1e-4)
    assert m.peak_vz == pytest.approx(1.875 * dz / dur, rel=1e-4)
    assert m.disp_y == pytest.approx(dy, rel=1e-3)
    assert m.disp_z == pytest.approx(dz, rel=1e-3)


def test_normalization_algebra():
    log = min_jerk_log(weight=80.0)
    m = sts_metrics(log)[0]
    n1 = m.normalized(1.75, 80.0)
    n2 = m.normalized(1.75, 160.0)
    assert n2.peak_feet == pytest.approx(n1.peak_feet / 2.0, rel=1e-12)
    assert n1.disp_y == pytest.approx(m.disp_y / 1.75, rel=1e-12)


def test_metrics_invariant_under_resampling():
    fine = min_jerk_log(dt=5e-4)
    coarse = min_jerk_log(dt=2e-3)
    mf, mc = sts_metrics(fine)[0], sts_metrics(coarse)[0]
    assert mf.peak_vz == pytest.approx(mc.peak_vz, rel=0.01)
    assert mf.peak_vy == pytest.approx(mc.peak_vy, rel=0.01)


def test_motion_window_static_falls_back_to_rise():
    log = make_log(motion_speed=0.0)
    win = motion_window(log, 0)
    assert win.sum() == len(log)


def test_motion_window_missing_rep():
    log = make_log()
    with pytest.raises(EmptyWindow):
        motion_window(log, 3)


# a schedule's rep channel: -1 on settle rows, then runs of each repetition's
# index; drawn freely, so runs repeat, skip indices and come in any order
@settings(max_examples=200, deadline=None)
@given(rep=st.lists(st.integers(-1, 6), min_size=1, max_size=60))
@example(rep=[-1, -1, 0, 0, 1, 1])
@example(rep=[-1, 0, 0, 3, 3, 5])   # gaps
@example(rep=[-1, -1, 0, 0, 0])     # a single repetition
@example(rep=[-1, -1, -1])          # settle only
def test_repetition_indices_match_the_set_oracle(rep):
    col = np.array(rep, dtype=np.float64)
    log = SimLog(1e-3, {"time": np.arange(len(rep)) * 1e-3, "rep": col})
    got = repetition_indices(log)
    assert got == sorted({int(r) for r in col if r >= 0})
    assert all(type(k) is int for k in got)


# ---------------------------------------------------------------------------
# measured assistance


def test_measured_assistance_static_unassisted():
    log = make_log(grf_scale=1.0)
    assert measured_assistance(log, 80.0) == pytest.approx(0.0, abs=1e-12)


def test_measured_assistance_synthetic_20pct():
    log = make_log(grf_scale=0.8)
    assert measured_assistance(log, 80.0) == pytest.approx(0.20, abs=1e-12)


def test_assistance_error_table_exact_logs():
    table = assistance_error_table({
        0.0: [(make_log(grf_scale=1.0), 80.0)],
        0.10: [(make_log(grf_scale=0.9), 80.0)],
    })
    for level, (mean, sd, n) in table.items():
        assert mean == pytest.approx(0.0, abs=1e-12)
        assert n >= 1


# ---------------------------------------------------------------------------
# transfer speeds


def make_transfer_log(v=0.04, dt=1e-3, dur=5.0):
    n = int(2 * dur / dt)
    data = {name: np.zeros(n) for name in CHANNELS}
    data["time"] = np.arange(1, n + 1) * dt
    half = n // 2
    data["phase"][:half] = PHASE_RISE
    data["phase"][half:] = PHASE_DESCENT
    data["e_vz"][:half] = v
    data["e_vz"][half:] = -v
    return SimLog(dt, data, {"v_z_target": v, "payload": 50.0})


def test_transfer_speed_table_synthetic():
    log = make_transfer_log(v=0.04)
    table = transfer_speed_table({50.0: log})
    up, down = table[50.0]
    assert up == pytest.approx(0.04, rel=1e-9)
    assert down == pytest.approx(0.04, rel=1e-9)


# ---------------------------------------------------------------------------
# capability maps


def test_capability_map_masks_and_values():
    cmap = capability_map(GEOM, MASSES, ACTUATOR_1, ACTUATOR_2_HS, "rehab")
    ok = cmap.mask == MASK_OK
    assert ok.sum() > 100
    assert np.isfinite(cmap.value[ok]).all()
    assert (cmap.value[ok] >= 0.0).all()
    assert np.isnan(cmap.value[~ok]).all()


def test_capability_map_monotone_in_actuator_limits():
    small = capability_map(GEOM, MASSES, ACTUATOR_1, ACTUATOR_2_HS, "rehab",
                           y_range=(0.6, 0.9), z_range=(0.7, 1.1), step=0.05)
    big1 = ActuatorSpec(0.63, 402.0, 3000.0, 0.72, 0.40, False)
    big2 = ActuatorSpec(0.45, 579.0, 2000.0, 0.55, 0.34, True)
    grown = capability_map(GEOM, MASSES, big1, big2, "rehab",
                           y_range=(0.6, 0.9), z_range=(0.7, 1.1), step=0.05)
    ok = (small.mask == MASK_OK) & (grown.mask == MASK_OK)
    assert (grown.value[ok] >= small.value[ok] - 1e-9).all()


def test_capability_map_zero_limits_infeasible():
    tiny1 = ActuatorSpec(0.63, 1e-6, 1e-6, 0.72, 0.40, False)
    tiny2 = ActuatorSpec(0.45, 1e-6, 1e-6, 0.55, 0.34, True)
    cmap = capability_map(GEOM, MASSES, tiny1, tiny2, "rehab",
                          y_range=(0.6, 0.9), z_range=(0.7, 1.1), step=0.05)
    reachable = cmap.mask != 1  # not unreachable
    # gravity alone cannot be held anywhere: every reachable cell is masked infeasible
    assert ((cmap.mask[reachable] == MASK_INFEASIBLE) | (cmap.mask[reachable] == 2)).all()


def test_transfer_map_ignores_strut_limit():
    weak_strut = ActuatorSpec(0.63, 1e-3, 1e-3, 0.72, 0.40, False)
    cmap = capability_map(GEOM, MASSES, weak_strut, ACTUATOR_2_HF, "transfer",
                          y_range=(0.7, 0.9), z_range=(0.8, 1.0), step=0.05)
    ok = cmap.mask == MASK_OK
    assert ok.any()
    assert (cmap.value[ok] > 1000.0).all()


# The map's per-cell reference: the scalar inverse kinematics, Arm.at and
# box program that capability_map ran once per cell before it evaluated
# its grid as arrays.


def ik_oracle(geom, target):
    ry = float(target[0])
    rz = float(target[1]) - geom.base_height
    r2 = ry * ry + rz * rz
    r = math.sqrt(r2)
    lo = abs(geom.l_ac - geom.l_ce)
    hi = geom.l_ac + geom.l_ce
    if r < lo - 1e-12 or r > hi + 1e-12 or r < 1e-12:
        raise Unreachable(target)
    s_qc = (geom.l_ac**2 + geom.l_ce**2 - r2) / (2.0 * geom.l_ac * geom.l_ce)
    s_qc = max(-1.0, min(1.0, s_qc))
    q_c = math.asin(s_qc)
    c_alpha = (geom.l_ac**2 + r2 - geom.l_ce**2) / (2.0 * geom.l_ac * r)
    alpha = math.acos(max(-1.0, min(1.0, c_alpha)))
    q_a = math.atan2(ry, rz) - alpha
    tol = 1e-9
    if not (geom.q_a_limits[0] - tol <= q_a <= geom.q_a_limits[1] + tol
            and geom.q_c_limits[0] - tol <= q_c <= geom.q_c_limits[1] + tol):
        raise OutOfJointLimits("outside limits")
    return JointState(q_a, q_c)


def max_fz_cell_oracle(arm, spec1, spec2):
    d = arm.d
    check_invertible(*d)
    _, _, j21, j22 = arm.jac
    hold1, hold2 = drive_forces(d, *arm.g)
    per_fz1, per_fz2 = drive_forces(d, j21, j22)
    uppers, lowers = [], [0.0]

    def box(a, b, lo, hi):
        if b > 0.0:
            uppers.append((hi - a) / b)
            lowers.append((lo - a) / b)
        elif b < 0.0:
            uppers.append((lo - a) / b)
            lowers.append((hi - a) / b)
        else:
            return lo - 1e-9 <= a <= hi + 1e-9
        return True

    if not box(hold2, per_fz2, 0.0, spec2.f_max_peak):
        return None
    if spec1 is not None and not box(hold1, per_fz1, -spec1.f_max_peak, spec1.f_max_peak):
        return None
    fz_max = min(uppers) if uppers else math.inf
    if max(lowers) > 1e-9 or fz_max < 0.0:
        return None
    return fz_max


def map_oracle(geom, masses, spec1, spec2, configuration, ys, zs):
    value = np.full((len(zs), len(ys)), np.nan)
    mask = np.full((len(zs), len(ys)), MASK_OK, dtype=int)
    use_spec1 = spec1 if configuration == "rehab" else None
    arm = Arm(geom, masses)
    for iz, z in enumerate(zs):
        for iy, y in enumerate(ys):
            try:
                q = ik_oracle(geom, (float(y), float(z)))
            except Unreachable:
                mask[iz, iy] = MASK_UNREACHABLE
                continue
            except OutOfJointLimits:
                mask[iz, iy] = MASK_LIMITS
                continue
            try:
                fz = max_fz_cell_oracle(arm.at(q.q_a, q.q_c), use_spec1, spec2)
            except SingularTransmission:
                mask[iz, iy] = MASK_SINGULAR
                continue
            if fz is None:
                mask[iz, iy] = MASK_INFEASIBLE
                continue
            value[iz, iy] = fz
    return value, mask


def assert_map_equals_oracle(geom, masses, spec1, spec2, configuration, y_range, z_range,
                             step, block):
    with mock.patch.object(analysis, "MAP_BLOCK_CELLS", block):
        cmap = capability_map(geom, masses, spec1, spec2, configuration, y_range, z_range, step)
    value, mask = map_oracle(geom, masses, spec1, spec2, configuration, cmap.ys, cmap.zs)
    assert np.array_equal(cmap.mask, mask)
    assert np.array_equal(cmap.value.view(np.int64), value.view(np.int64))
    return cmap


lengths = st.floats(0.05, 1.5)
angle_limits = st.tuples(st.floats(-1.6, 0.5), st.floats(0.1, 2.5)).map(
    lambda t: (t[0], t[0] + t[1]))


@st.composite
def geometries(draw):
    l_ce = draw(lengths)
    return RobotGeometry(
        l_ab=draw(lengths), l_ac=draw(lengths), l_ce=l_ce,
        l_cd=l_ce * draw(st.floats(0.05, 0.95)), base_height=draw(st.floats(0.1, 1.0)),
        p1=draw(st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5))),
        d_g=draw(st.floats(0.05, 1.0)), q_a_limits=draw(angle_limits),
        q_c_limits=draw(angle_limits))


masses_models = st.builds(LinkMassModel, *[st.floats(0.0, 20.0)] * 2, *[st.floats(0.0, 1.0)] * 4)
specs = st.floats(1.0, 5000.0).map(lambda f: ActuatorSpec(1.0, f, f, 0.5, 0.5))
# one row, one column, ragged last blocks and rows wider than a block
grid_sides = st.one_of(st.just((0.3, 0.3 + 1e-3)),
                       st.tuples(st.floats(-1.0, 1.5), st.floats(0.05, 1.5)).map(
                           lambda t: (t[0], t[0] + t[1])))


@settings(max_examples=40, deadline=None)
@given(geom=geometries(), masses=masses_models, spec1=specs, spec2=specs,
       configuration=st.sampled_from(["rehab", "transfer"]), y_range=grid_sides,
       z_range=grid_sides, step=st.floats(0.02, 0.2), block=st.integers(1, 200))
def test_capability_map_equals_per_cell_oracle(geom, masses, spec1, spec2, configuration,
                                               y_range, z_range, step, block):
    assert_map_equals_oracle(geom, masses, spec1, spec2, configuration, y_range, z_range,
                             step, block)


def test_capability_map_row_wider_than_a_block_equals_oracle():
    for configuration in ("rehab", "transfer"):
        cmap = assert_map_equals_oracle(GEOM, MASSES, ACTUATOR_1, ACTUATOR_2_HS, configuration,
                                        (-0.2, 1.0), (0.8, 0.8 + 5e-4), 2e-4,
                                        analysis.MAP_BLOCK_CELLS)
        assert cmap.mask.shape == (3, 6001)
        assert (cmap.mask == MASK_OK).any()


def test_capability_map_every_mask_code_equals_oracle():
    # a 10 um strut lever makes dL1/dq_a ~ 1e-5 sin(q_a): singular near
    # q_a = 0, and beside that band too weak a lever to hold gravity
    geom = RobotGeometry(l_ab=1e-5, p1=(0.0, -0.1))
    strut = ActuatorSpec(0.63, 1e7, 1e7, 0.72, 0.40, False)
    cmap = assert_map_equals_oracle(geom, LinkMassModel.for_geometry(geom), strut,
                                    ACTUATOR_2_HS, "rehab", (-0.2, 1.0), (0.2, 1.4), 0.1, 17)
    assert set(np.unique(cmap.mask)) == {MASK_OK, MASK_UNREACHABLE, MASK_LIMITS,
                                         MASK_SINGULAR, MASK_INFEASIBLE}


def test_box_program_equals_oracle_on_chosen_poses():
    # a drive force that F_z leaves unchanged (zero jacobian entry) bounds
    # nothing, and the pose is infeasible when gravity alone breaks it; the
    # last pose breaks the strut's lower bound, which only F_z > 0 meets
    g_a, g_c, j21, j22 = np.array([(-90.0, -100.0, 0.0, 0.0), (-90.0, 100.0, 0.0, 0.0),
                                   (3000.0, -100.0, 0.0, 0.3), (-90.0, -100.0, 0.2, 0.0),
                                   (-90.0, -100.0, 0.2, -0.3), (-3000.0, -100.0, 0.2, 0.0)]).T
    arm = ArmEval(None, None, (None, None, j21, j22), None, (0.5, 0.5), (g_a, g_c), None, None)
    for spec1 in (ACTUATOR_1, None):
        code, value = analysis._max_fz(arm, spec1, ACTUATOR_2_HS)
        for i in range(len(g_a)):
            one = ArmEval(None, None, (0.0, 0.0, j21[i], j22[i]), None, (0.5, 0.5),
                          (g_a[i], g_c[i]), None, None)
            fz = max_fz_cell_oracle(one, spec1, ACTUATOR_2_HS)
            assert code[i] == (MASK_INFEASIBLE if fz is None else MASK_OK)
            assert np.array_equal(value[i], np.nan if fz is None else fz, equal_nan=True)


# criterion 5's tall-stature person (tests/test_acceptance.py)
TALL = HumanParams(1.91, 100.0, chair_y=0.44, standing_z_factor=0.55)


def test_band_cells_follow_path():
    cmap = capability_map(GEOM, MASSES, ACTUATOR_1, ACTUATOR_2_HS, "rehab")
    path = nominal_sts_path(TALL)
    cells = band_cells(cmap, path, width=0.04)
    assert len(cells) > 20
    for iy, iz in cells:
        d = np.min(np.hypot(path[:, 0] - cmap.ys[iy], path[:, 1] - cmap.zs[iz]))
        assert d <= 0.04


def test_nominal_sts_path_bytes_pinned():
    # criterion 5 scores this path and no golden digest covers it
    path = nominal_sts_path(TALL)
    assert hashlib.sha256(path.tobytes()).hexdigest() == (
        "254698c36044f51c172ccd7b414dfe442b09adbfe6d50a011163407036a003ff")


def test_connected_fraction():
    blob = {(0, 0), (0, 1), (1, 1), (5, 5)}
    assert connected_fraction(blob) == pytest.approx(0.75)
    assert connected_fraction(set()) == 0.0
    assert connected_fraction({(2, 2)}) == 1.0


def test_mean_rise_waveform_shape():
    log = min_jerk_log()
    w = mean_rise_waveform(log, "vcom_z", n=101)
    assert len(w) == 101
    assert w.max() > 0.0
