"""Acceptance suite: one test per acceptance criterion, each printing a
single PASS/FAIL line (run with ``pytest -s`` to see them inline).

Criterion 5's low-z-confinement and band-coverage predicates are implemented
faithfully and are expected to fail on this geometry: with the strut attached
at l_ab = 0.38 m and a 1725 N peak, the torque it can put on the mast joint
is bounded by 655 N.m, while 650 N of vertical effector force at the
forward half of the workspace needs more; the 220 mm screw stroke further
caps the mean strut leverage over the joint range at 0.22 m/rad.  See the
printed report for the measured numbers.
"""

import math
import time

import numpy as np
import pytest

from stsbot.actuators import ACTUATOR_1, ACTUATOR_2_HF, ACTUATOR_2_HS, FrictionModel, friction_force
from stsbot.analysis import (
    MASK_OK,
    assistance_error_table,
    band_cells,
    capability_map,
    cmc,
    connected_fraction,
    mean_rise_waveform,
    motion_window,
    nominal_sts_path,
    repetition_indices,
    sts_metrics,
)
from stsbot.control import AssistMode, AssistModeConfig, TransferConfig, force_controller_step
from stsbot.engine import (
    Plant,
    Scenario,
    SimState,
    run_scenario,
)
from stsbot.human import HumanParams
from stsbot.kinematics import (
    GRAVITY,
    Arm,
    JointState,
    LinkMassModel,
    RobotGeometry,
    gravity_potential,
    inverse_kinematics,
)

GEOM = RobotGeometry()
MASSES = LinkMassModel.for_geometry(GEOM)
ARM = Arm(GEOM, MASSES)
CHAIR_Y = 0.67


def report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")


def fd(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2.0 * h)


# ---------------------------------------------------------------------------
# 1. kinematics oracle suite


def test_criterion_1_kinematics_oracles():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    n = 1000
    worst_jac = worst_grav = worst_ik = 0.0
    for _ in range(n):
        qa = float(rng.uniform(*GEOM.q_a_limits))
        qc = float(rng.uniform(*GEOM.q_c_limits))
        arm = ARM.at(qa, qc)
        fds = [
            fd(lambda a: ARM.at(a, qc).e[0], qa),
            fd(lambda c: ARM.at(qa, c).e[0], qc),
            fd(lambda a: ARM.at(a, qc).e[1], qa),
            fd(lambda c: ARM.at(qa, c).e[1], qc),
        ]
        for val, ref in zip(arm.jac, fds):
            worst_jac = max(worst_jac, abs(val - ref) / max(1.0, abs(ref)))

        d1, d2 = arm.d
        fd1 = fd(lambda a: ARM.at(a, qc).lengths[0], qa)
        fd2 = fd(lambda c: ARM.at(qa, c).lengths[1], qc)
        worst_jac = max(worst_jac, abs(d1 - fd1) / max(1.0, abs(fd1)))
        worst_jac = max(worst_jac, abs(d2 - fd2) / max(1.0, abs(fd2)))

        g = arm.g
        fga = fd(lambda a: gravity_potential(GEOM, MASSES, a, qc), qa)
        fgc = fd(lambda c: gravity_potential(GEOM, MASSES, qa, c), qc)
        worst_grav = max(worst_grav, abs(g[0] - fga) / max(1.0, abs(fga)),
                         abs(g[1] - fgc) / max(1.0, abs(fgc)))

        y, z = arm.e
        sol = inverse_kinematics(GEOM, (y, z))
        y2, z2 = ARM.at(sol.q_a, sol.q_c).e
        worst_ik = max(worst_ik, math.hypot(y2 - y, z2 - z))

    elapsed = time.monotonic() - t0
    ok = worst_jac < 1e-6 and worst_grav < 1e-6 and worst_ik < 1e-9 and elapsed < 10.0
    report(1, ok, f"jac rel err {worst_jac:.2e}, gravity rel err {worst_grav:.2e}, "
                  f"IK roundtrip {worst_ik:.2e} m over {n} poses in {elapsed:.1f}s")
    assert worst_jac < 1e-6
    assert worst_grav < 1e-6
    assert worst_ik < 1e-9
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 2. gravity-compensation statics


def test_criterion_2_gravity_compensation_statics():
    t0 = time.monotonic()
    rng = np.random.default_rng(202)
    mode = AssistModeConfig(AssistMode.FOLLOW_ME)
    worst = 0.0
    for _ in range(50):
        qa = float(rng.uniform(*GEOM.q_a_limits))
        qc = float(rng.uniform(*GEOM.q_c_limits))
        sc = Scenario(geom=GEOM, human=None, mode_config=mode,
                      initial_q=JointState(qa, qc))
        plant = Plant(sc)
        state = SimState(q_a=qa, q_c=qc)
        for _ in range(5000):
            cmd = force_controller_step(
                plant.evaluated(state).arm, (plant.spec1, plant.spec2), plant.ctrl_frictions,
                (0.0, 0.0), plant.motor_speeds(state))
            state = plant.step(state, (cmd.f1, cmd.f2), 1e-3)
        worst = max(worst, abs(state.q_a - qa), abs(state.q_c - qc))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-6 and elapsed < 60.0
    report(2, ok, f"worst pose drift {worst:.2e} rad over 50 poses x 5 s in {elapsed:.1f}s")
    assert worst < 1e-6
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 3. force fidelity table


def test_criterion_3_force_fidelity():
    t0 = time.monotonic()
    heights = np.linspace(1.65, 1.91, 8)
    masses = np.linspace(60.0, 100.0, 8)
    levels = (0.0, 0.05, 0.10, 0.20)
    logs_by_level = {lvl: [] for lvl in levels}
    for i, (h, m) in enumerate(zip(heights, masses)):
        hum = HumanParams(float(h), float(m), chair_y=CHAIR_Y)
        for lvl in levels:
            if lvl == 0.0:
                mc = AssistModeConfig(AssistMode.FOLLOW_ME)
            else:
                mc = AssistModeConfig(AssistMode.WEIGHT_UNLOADING, fz_pct=lvl)
            sc = Scenario(geom=GEOM, human=hum, mode_config=mc, repetitions=2,
                          seed=300 + i, allow_peak=True)
            logs_by_level[lvl].append((run_scenario(sc), float(m)))
    table = assistance_error_table(logs_by_level)
    elapsed = time.monotonic() - t0
    lines = [f"{lvl * 100:.0f}%: {mean * 100:+.2f}% +- {sd * 100:.2f} (n={n})"
             for lvl, (mean, sd, n) in sorted(table.items())]
    ok = all(abs(mean) < 0.02 for mean, _, _ in table.values()) and elapsed < 300.0
    report(3, ok, "mean assistance error per level [%bw]: " + "; ".join(lines)
           + f" in {elapsed:.0f}s")
    for lvl, (mean, sd, n) in table.items():
        assert abs(mean) < 0.02, f"level {lvl}: mean error {mean:.4f}"
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# 4. transfer speeds


def test_criterion_4_transfer_speeds():
    t0 = time.monotonic()
    target = 0.04  # configured above the 0.03 m/s floor, like a commercial aid
    results = {}
    for payload in (28.0, 51.0, 74.0, 98.0):
        tr = TransferConfig(v_z_target=target, q_a_locked=0.30,
                            q_c_start=0.45, q_c_end=-0.50)
        sc = Scenario(geom=GEOM, human=None, transfer=tr, payload=payload,
                      repetitions=1, seed=44, pause=1.0)
        log = run_scenario(sc)
        from stsbot.analysis import transfer_speed_table

        results[payload] = transfer_speed_table({payload: log})[payload]
    elapsed = time.monotonic() - t0
    ok = True
    parts = []
    for payload, (up, down) in sorted(results.items()):
        asym = abs(up - down) / max(up, down)
        ok &= abs(up - target) / target < 0.10 and abs(down - target) / target < 0.10
        ok &= up >= 0.03 and down >= 0.03 and asym < 0.05
        parts.append(f"{payload:.0f}kg {up:.4f}/{down:.4f}")
    ok &= elapsed < 120.0
    report(4, ok, f"lift/lower speeds (target {target}): " + "; ".join(parts)
           + f" in {elapsed:.0f}s")
    for payload, (up, down) in results.items():
        assert abs(up - target) / target < 0.10
        assert abs(down - target) / target < 0.10
        assert up >= 0.03 and down >= 0.03
        assert abs(up - down) / max(up, down) < 0.05
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# 5. capability maps (region-topology predicates)


def test_criterion_5_capability_maps():
    t0 = time.monotonic()
    rehab = capability_map(GEOM, MASSES, ACTUATOR_1, ACTUATOR_2_HS, "rehab")
    transfer = capability_map(GEOM, MASSES, ACTUATOR_1, ACTUATOR_2_HF, "transfer")

    # (a) sub-650 region: exists, contiguous, confined to low z
    ok_cells = rehab.mask == MASK_OK
    sub = ok_cells & (rehab.value < rehab.requirement)
    sub_set = {(iy, iz) for iz, iy in zip(*np.nonzero(sub))}
    exists = len(sub_set) > 0
    contiguous = connected_fraction(sub_set) > 0.9 if exists else False
    z_low_bound = 0.85
    max_sub_z = max((float(rehab.zs[iz]) for _, iz in sub_set), default=float("nan"))
    confined = exists and max_sub_z <= z_low_bound

    # (b) >= 95% of the nominal tall-stature band meets 650 N.  The path is
    # this criterion's own placement: the chair at 0.44 m keeps it inside the
    # map's aperture, and its standing CoM is 0.55 x height, not the
    # simulations' 0.54; moving either would move this criterion's numbers
    path = nominal_sts_path(HumanParams(1.91, 100.0, chair_y=0.44, standing_z_factor=0.55))
    cells = band_cells(rehab, path)
    unmasked = [(iy, iz) for iy, iz in cells if rehab.mask[iz, iy] == MASK_OK]
    meets = sum(1 for iy, iz in unmasked if rehab.value[iz, iy] >= rehab.requirement)
    coverage = meets / len(unmasked) if unmasked else 0.0

    # (c) transfer deficiency confined to maximal forward reach
    ok_t = transfer.mask == MASK_OK
    sub_t = ok_t & (transfer.value < transfer.requirement)
    r_max = 0.0
    deficient_far = True
    base = GEOM.base_height
    reach = math.sqrt(GEOM.l_ac**2 + GEOM.l_ce**2
                      - 2.0 * GEOM.l_ac * GEOM.l_ce * math.sin(GEOM.q_c_limits[0]))
    for iz, iy in zip(*np.nonzero(sub_t)):
        r = math.hypot(transfer.ys[iy], transfer.zs[iz] - base)
        r_max = max(r_max, r)
        if r < 0.85 * reach:
            deficient_far = False

    elapsed = time.monotonic() - t0
    ok = exists and contiguous and confined and coverage >= 0.95 and deficient_far
    report(5, ok,
           f"(a) sub-650: n={len(sub_set)}, contiguous={contiguous}, "
           f"max z={max_sub_z:.2f} (confined<= {z_low_bound}: {confined}); "
           f"(b) band coverage {coverage * 100:.0f}% of {len(unmasked)} cells; "
           f"(c) transfer deficiency {int(sub_t.sum())} cells, far-reach-only={deficient_far}; "
           f"in {elapsed:.1f}s")
    assert exists and contiguous, "rehab map should carry a contiguous sub-650 region"
    assert confined, (
        f"sub-650 region reaches z={max_sub_z:.2f} m, not confined below {z_low_bound} m: "
        "the strut torque bound F1_peak*l_ab caps vertical capability over the whole "
        "forward workspace, not just at low z")
    assert coverage >= 0.95, (
        f"band coverage {coverage * 100:.0f}% < 95%: 650 N on the tall-stature band "
        "needs more mast torque than the 1725 N strut at l_ab = 0.38 m with a 220 mm "
        "stroke can deliver at any anchor placement")
    assert deficient_far
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 6. virtual-spring GRF shift


def test_criterion_6_virtual_spring_direction():
    t0 = time.monotonic()
    hum = HumanParams(1.75, 81.13, chair_y=CHAIR_Y)
    shares = {}
    for ky in (0.0, 200.0, 300.0):
        mode = AssistMode.COM_BALANCE if ky > 0 else AssistMode.WEIGHT_UNLOADING
        mc = AssistModeConfig(mode, fz_pct=0.05, ky=ky)
        sc = Scenario(geom=GEOM, human=hum, mode_config=mc, repetitions=3,
                      seed=606, allow_peak=True)
        log = run_scenario(sc)
        vals = []
        for k in repetition_indices(log):
            win = motion_window(log, k)
            pre = win & (log["seat_off"] < 0.5)
            if pre.any():
                feet = log["feet_fz"][pre]
                chair = log["chair_fz"][pre]
                vals.append(float(np.mean(feet / np.maximum(feet + chair, 1e-9))))
        shares[ky] = float(np.mean(vals))
    elapsed = time.monotonic() - t0
    increasing = shares[0.0] < shares[200.0] < shares[300.0]
    delta = shares[300.0] - shares[0.0]
    ok = increasing and delta >= 0.05 and elapsed < 180.0
    report(6, ok, "pre-seat-off feet share: "
           + ", ".join(f"ky={k:.0f}: {v * 100:.1f}%" for k, v in sorted(shares.items()))
           + f"; +{delta * 100:.1f} pp at 300 N/m in {elapsed:.0f}s")
    assert increasing
    assert delta >= 0.05
    assert elapsed < 180.0


# ---------------------------------------------------------------------------
# 7. transparency


def test_criterion_7_transparency():
    t0 = time.monotonic()
    hum = HumanParams(1.75, 81.13, chair_y=CHAIR_Y)
    mc = AssistModeConfig(AssistMode.FOLLOW_ME)
    wr = Scenario(geom=GEOM, human=hum, mode_config=mc, repetitions=3, seed=707)
    wor = Scenario(geom=GEOM, human=hum, mode_config=mc, repetitions=3, seed=707,
                   robot_attached=False)
    log_wr, log_wor = run_scenario(wr), run_scenario(wor)
    cmc_y = cmc([mean_rise_waveform(log_wr, "vcom_y"), mean_rise_waveform(log_wor, "vcom_y")])
    cmc_z = cmc([mean_rise_waveform(log_wr, "vcom_z"), mean_rise_waveform(log_wor, "vcom_z")])
    m_wr, m_wor = sts_metrics(log_wr), sts_metrics(log_wor)
    bw = hum.weight
    d_feet = abs(np.mean([m.peak_feet for m in m_wr])
                 - np.mean([m.peak_feet for m in m_wor])) / bw
    d_chair = abs(np.mean([m.peak_chair for m in m_wr])
                  - np.mean([m.peak_chair for m in m_wor])) / bw
    elapsed = time.monotonic() - t0
    ok = cmc_y > 0.8 and cmc_z > 0.8 and d_feet < 0.05 and d_chair < 0.05 and elapsed < 120.0
    report(7, ok, f"CMC y={cmc_y:.3f}, z={cmc_z:.3f}; peak GRF diff feet "
                  f"{d_feet * 100:.2f}%bw, chair {d_chair * 100:.2f}%bw in {elapsed:.0f}s")
    assert cmc_y > 0.8 and cmc_z > 0.8
    assert d_feet < 0.05 and d_chair < 0.05
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# 8. property suites


def test_criterion_8_property_suites():
    t0 = time.monotonic()
    # friction oddness / boundedness
    model = FrictionModel(77.0, 0.03)
    vs = np.linspace(-300.0, 300.0, 601)
    fs = np.array([friction_force(model, float(v)) for v in vs])
    friction_ok = (np.abs(fs) <= model.a).all() and np.allclose(fs, -fs[::-1], atol=1e-12) \
        and (np.diff(fs) >= 0.0).all()

    # mode/parameter table rejections
    from stsbot.errors import ConfigError
    table_ok = True
    for mode, fz, ky in ((AssistMode.FOLLOW_ME, 0.1, 0.0),
                         (AssistMode.WEIGHT_UNLOADING, 0.0, 0.0),
                         (AssistMode.COM_BALANCE, 0.1, 0.0)):
        try:
            AssistModeConfig(mode, fz_pct=fz, ky=ky)
            table_ok = False
        except ConfigError:
            pass

    # Newton balance residuals over a full run
    hum = HumanParams(1.75, 81.13, chair_y=CHAIR_Y)
    mc = AssistModeConfig(AssistMode.WEIGHT_UNLOADING, fz_pct=0.10)
    sc = Scenario(geom=GEOM, human=hum, mode_config=mc, repetitions=1, seed=808,
                  allow_peak=True)
    log = run_scenario(sc)
    m = hum.mass
    res_y = np.abs(m * log["acom_y"] - (log["feet_fy"] + log["harness_fy"])).max()
    res_z = np.abs(m * log["acom_z"] - (log["feet_fz"] + log["chair_fz"]
                                        + log["harness_fz"] - m * GRAVITY)).max()
    newton_ok = max(res_y, res_z) < 1e-6 * m * GRAVITY

    # determinism
    log2 = run_scenario(sc)
    deterministic = all(np.array_equal(log[k], log2[k]) for k in log.data)

    # energy drift, frictionless undamped plant
    zero = FrictionModel(0.0, 0.0)
    geom = RobotGeometry(q_a_limits=(-7.0, 7.0), q_c_limits=(-7.0, 7.0))
    sc_e = Scenario(geom=geom, human=None, robot_attached=True,
                    mode_config=AssistModeConfig(AssistMode.FOLLOW_ME),
                    damping=(0.0, 0.0), plant_frictions=(zero, zero, zero),
                    ctrl_frictions=(zero, zero, zero))
    plant = Plant(sc_e)
    state = SimState(q_a=math.pi - 0.2, q_c=-math.pi / 2 + 0.15)
    e0 = plant.mechanical_energy(state)
    for _ in range(10000):
        state = plant.step(state, (0.0, 0.0), 1e-3)
    drift_rate = abs(plant.mechanical_energy(state) - e0) / 10.0
    energy_ok = drift_rate < 1e-5

    elapsed = time.monotonic() - t0
    ok = friction_ok and table_ok and newton_ok and deterministic and energy_ok
    report(8, ok, f"friction={friction_ok}, mode-table={table_ok}, "
                  f"newton residual max {max(res_y, res_z):.2e} N, "
                  f"deterministic={deterministic}, energy drift {drift_rate:.2e} J/s "
                  f"in {elapsed:.0f}s")
    assert friction_ok
    assert table_ok
    assert newton_ok
    assert deterministic
    assert energy_ok
