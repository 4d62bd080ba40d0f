"""Workspace capability maps, STS metrics, assistance/transfer tables and
waveform similarity for simulation logs."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .actuators import ActuatorSpec
from .control import TransferConfig
from .engine import PHASE_DESCENT, PHASE_PAUSE, PHASE_RISE, SimLog
from .errors import DegenerateInput, EmptyWindow
from .human import HumanParams
from .kinematics import (  # noqa: F401  inverse_kinematics: perfbench times calls by name
    ARRAY_MATH,
    GRAVITY,
    IK_LIMITS,
    IK_OK,
    IK_UNREACHABLE,
    SINGULARITY_EPS,
    Arm,
    ArmEval,
    LinkMassModel,
    RobotGeometry,
    drive_forces,
    inverse_kinematics,
    solve_ik,
)

MASK_OK, MASK_UNREACHABLE, MASK_LIMITS = IK_OK, IK_UNREACHABLE, IK_LIMITS
MASK_SINGULAR = 3
MASK_INFEASIBLE = 4
# the name of each mask code, as map.json writes it
MASK_LEGEND = {MASK_OK: "ok", MASK_UNREACHABLE: "unreachable", MASK_LIMITS: "joint_limits",
               MASK_SINGULAR: "singular", MASK_INFEASIBLE: "gravity_infeasible"}
# Two grids (values and mask codes) of MAP_MAX_CELLS take 160 MB; the map
# evaluates them MAP_BLOCK_CELLS at a time, so the block adds ~1 MB at any size.
MAP_MAX_CELLS = 10_000_000
MAP_BLOCK_CELLS = 4096

# motion-window segmentation
SPEED_THRESHOLD = 0.02  # m/s
HYSTERESIS = 0.100  # s


# ---------------------------------------------------------------------------
# capability maps


@dataclass
class CapabilityMap:
    """Max upward effector force per workspace cell, with mask codes."""

    ys: np.ndarray
    zs: np.ndarray
    value: np.ndarray  # (nz, ny), NaN where masked
    mask: np.ndarray   # (nz, ny) int codes
    requirement: float
    configuration: str = "rehab"


def _box(a: np.ndarray, b: np.ndarray, lo: float, hi: float):
    """Bounds (upper, lower, infeasible) on F_z from lo <= a + b*F_z <= hi
    per element: none where b = 0, infeasible there if a is outside."""
    pos, neg = b > 0.0, b < 0.0
    upper = np.where(pos, (hi - a) / b, np.where(neg, (lo - a) / b, math.inf))
    lower = np.where(pos, (lo - a) / b, np.where(neg, (hi - a) / b, -math.inf))
    return upper, lower, ~(pos | neg) & ~((lo - 1e-9 <= a) & (a <= hi + 1e-9))


@np.errstate(all="ignore")  # singular and flat poses divide by ~0; their codes mask them
def _max_fz(
    arm: ArmEval,
    spec1: ActuatorSpec | None,
    spec2: ActuatorSpec,
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form 1-D program per pose of an array evaluation of the arm:
    the largest F_z >= 0 (F_y = 0) keeping the drives inside their peak
    envelopes, gravity self-load included.

    Each drive force is affine in F_z; the binding constraint gives the
    value.  Returns (mask code, value): MASK_SINGULAR where an actuator
    jacobian entry cannot be inverted, else MASK_INFEASIBLE where holding
    gravity alone (F_z = 0) already breaks an envelope; the value is NaN
    wherever the code is not MASK_OK.
    """
    d = arm.d
    singular = (abs(d[0]) <= SINGULARITY_EPS) | (abs(d[1]) <= SINGULARITY_EPS)
    _, _, j21, j22 = arm.jac
    # drive force = gravity hold + F_z times the drive force of a unit F_z
    hold1, hold2 = drive_forces(d, *arm.g)
    per_fz1, per_fz2 = drive_forces(d, j21, j22)
    fz_max, fz_min, infeasible = _box(hold2, per_fz2, 0.0, spec2.f_max_peak)  # the belt only pulls
    if spec1 is not None:
        upper, lower, flat = _box(hold1, per_fz1, -spec1.f_max_peak, spec1.f_max_peak)
        fz_max = np.where(upper < fz_max, upper, fz_max)  # a tie keeps the belt's bound and sign
        fz_min = np.maximum(fz_min, lower)
        infeasible |= flat
    infeasible |= (fz_min > 1e-9) | (fz_max < 0.0)  # cannot even hold the structure
    code = np.where(singular, MASK_SINGULAR, np.where(infeasible, MASK_INFEASIBLE, MASK_OK))
    return code, np.where(code == MASK_OK, fz_max, np.nan)


def validate_map_grid(
    configuration: str,
    y_range: tuple[float, float],
    z_range: tuple[float, float],
    step: float,
) -> None:
    """Raise ValueError unless the arguments describe a capability-map grid."""
    if configuration not in ("rehab", "transfer"):
        raise ValueError("configuration must be 'rehab' or 'transfer'")
    if not step > 0.0:
        raise ValueError("step must be positive")
    if not (y_range[0] < y_range[1] and z_range[0] < z_range[1]):
        raise ValueError("each grid range needs min < max")
    cells = ((y_range[1] - y_range[0]) / step + 1.0) * ((z_range[1] - z_range[0]) / step + 1.0)
    if not cells <= MAP_MAX_CELLS:
        raise ValueError(f"the grid would hold {cells:.3g} cells, over {MAP_MAX_CELLS:.0e}")


def capability_map(
    geom: RobotGeometry,
    masses: LinkMassModel,
    spec1: ActuatorSpec,
    spec2: ActuatorSpec,
    configuration: str = "rehab",
    y_range: tuple[float, float] = (-0.2, 1.0),
    z_range: tuple[float, float] = (0.2, 1.4),
    step: float = 0.02,
    requirement: float | None = None,
) -> CapabilityMap:
    """Peak vertical force map over a (y, z) lattice.

    ``rehab`` constrains both drives; ``transfer`` locks q_a at each cell's
    IK solution (the brake carries the mast torque) so only the belt limits
    apply.
    """
    validate_map_grid(configuration, y_range, z_range, step)
    if requirement is None:
        requirement = 650.0 if configuration == "rehab" else 1962.0
    ys = np.arange(y_range[0], y_range[1] + step / 2, step)
    zs = np.arange(z_range[0], z_range[1] + step / 2, step)
    value = np.full((len(zs), len(ys)), np.nan)
    mask = np.full((len(zs), len(ys)), MASK_OK, dtype=int)
    use_spec1 = spec1 if configuration == "rehab" else None
    arm = Arm(geom, masses)
    for start in range(0, value.size, MAP_BLOCK_CELLS):
        cells = slice(start, min(start + MAP_BLOCK_CELLS, value.size))
        iz, iy = np.divmod(np.arange(cells.start, cells.stop), len(ys))
        q_a, q_c, code = solve_ik(geom, ys[iy], zs[iz])
        ok = code == IK_OK
        block = value.reshape(-1)[cells]
        code[ok], block[ok] = _max_fz(arm.at(q_a[ok], q_c[ok], ops=ARRAY_MATH), use_spec1, spec2)
        mask.reshape(-1)[cells] = code
    return CapabilityMap(ys, zs, value, mask, requirement, configuration)


def nominal_sts_path(person: HumanParams, harness_dz: float = 0.02, n: int = 200) -> np.ndarray:
    """Nominal effector path of a sit-to-stand: n points on the straight
    segment from person's seated to standing CoM, shifted up by the harness
    ride height harness_dz."""
    seated = (person.seated_com[0], person.seated_com[1] + harness_dz)
    standing = (person.standing_com[0], person.standing_com[1] + harness_dz)
    s = np.linspace(0.0, 1.0, n)
    return np.column_stack((
        seated[0] + s * (standing[0] - seated[0]),
        seated[1] + s * (standing[1] - seated[1]),
    ))


def band_cells(cmap: CapabilityMap, path: np.ndarray, width: float = 0.04) -> list[tuple[int, int]]:
    """Grid cells (iy, iz) within ``width`` of the polyline (all cells, masked
    or not), z rows in order, y fastest."""
    dist = np.hypot(path[:, 0] - cmap.ys[None, :, None], path[:, 1] - cmap.zs[:, None, None])
    iz, iy = np.nonzero(dist.min(axis=2) <= width)
    return list(zip(iy.tolist(), iz.tolist()))


def connected_fraction(cells: set[tuple[int, int]]) -> float:
    """Size of the largest 4-connected component over the cell count."""
    if not cells:
        return 0.0
    remaining = set(cells)
    best = 0
    while remaining:
        seed = remaining.pop()
        comp = 1
        frontier = [seed]
        while frontier:
            cy, cz = frontier.pop()
            for nb in ((cy + 1, cz), (cy - 1, cz), (cy, cz + 1), (cy, cz - 1)):
                if nb in remaining:
                    remaining.remove(nb)
                    frontier.append(nb)
                    comp += 1
        best = max(best, comp)
    return best / len(cells)


# ---------------------------------------------------------------------------
# motion windows and repetition handling


def repetition_indices(log: SimLog) -> list[int]:
    rep = log["rep"]
    return [int(r) for r in np.unique(rep[rep >= 0]).tolist()]


def rise_window(log: SimLog, rep: int) -> np.ndarray:
    """Boolean row mask of the rise phase plus its pause for one repetition."""
    r = log["rep"]
    p = log["phase"]
    return (r == rep) & ((p == PHASE_RISE) | (p == PHASE_PAUSE))


def motion_window(log: SimLog, rep: int) -> np.ndarray:
    """Velocity-threshold segmentation of the CoM speed, with hysteresis,
    inside one rise phase.

    Falls back to the full rise window when the log holds no motion (static
    fidelity checks still need a window).
    """
    base = rise_window(log, rep)
    if not base.any():
        raise EmptyWindow(f"repetition {rep} not present in log")
    speed = np.hypot(log["vcom_y"], log["vcom_z"])
    above = base & (speed > SPEED_THRESHOLD)
    if not above.any():
        return base
    idx = np.flatnonzero(above)
    pad = int(round(HYSTERESIS / log.dt))
    lo = max(idx[0] - pad, np.flatnonzero(base)[0])
    hi = min(idx[-1] + pad, np.flatnonzero(base)[-1])
    out = np.zeros_like(base)
    out[lo:hi + 1] = True
    return out


# ---------------------------------------------------------------------------
# STS metrics


@dataclass
class StsMetrics:
    disp_y: float
    disp_z: float
    peak_vy: float
    peak_vz: float
    peak_ay: float
    peak_az: float
    peak_feet: float
    peak_chair: float
    seat_off_time: float | None  # None: the chair never unloaded in the window

    def normalized(self, height: float, weight: float) -> "StsMetrics":
        """Lengths and velocities by stature, forces by bodyweight."""
        w = weight * GRAVITY
        return StsMetrics(
            self.disp_y / height, self.disp_z / height,
            self.peak_vy / height, self.peak_vz / height,
            self.peak_ay / height, self.peak_az / height,
            self.peak_feet / w, self.peak_chair / w,
            self.seat_off_time,
        )


def sts_metrics(log: SimLog, rep: int | None = None) -> list[StsMetrics]:
    """Per-repetition displacement, peak velocity/acceleration and GRF peaks."""
    reps = [rep] if rep is not None else repetition_indices(log)
    out = []
    for k in reps:
        win = motion_window(log, k)
        t = log["time"][win]
        cy, cz = log["com_y"][win], log["com_z"][win]
        seat = log["seat_off"][win]
        so = float(t[np.flatnonzero(seat > 0.5)[0]] - t[0]) if (seat > 0.5).any() else None
        out.append(StsMetrics(
            disp_y=float(cy.max() - cy.min()),
            disp_z=float(cz.max() - cz.min()),
            peak_vy=float(np.abs(log["vcom_y"][win]).max()),
            peak_vz=float(np.abs(log["vcom_z"][win]).max()),
            peak_ay=float(np.abs(log["acom_y"][win]).max()),
            peak_az=float(np.abs(log["acom_z"][win]).max()),
            peak_feet=float(log["feet_fz"][win].max()),
            peak_chair=float(log["chair_fz"][win].max()),
            seat_off_time=so,
        ))
    return out


# ---------------------------------------------------------------------------
# measured assistance (GRF-sum reading)


def measured_assistance_per_rep(log: SimLog, weight: float) -> list[float]:
    """1 - mean(chair+feet)/(m g) over each repetition's motion window."""
    w = weight * GRAVITY
    vals = []
    for k in repetition_indices(log):
        win = motion_window(log, k)
        grf = log["chair_fz"][win] + log["feet_fz"][win]
        vals.append(1.0 - float(grf.mean()) / w)
    if not vals:
        raise EmptyWindow("log holds no repetitions")
    return vals


def measured_assistance(log: SimLog, weight: float) -> float:
    """Participant-level mean of the per-repetition assistance fractions."""
    return float(np.mean(measured_assistance_per_rep(log, weight)))


def assistance_error_table(
    logs_by_level: dict[float, list[tuple[SimLog, float]]]
) -> dict[float, tuple[float, float, int]]:
    """Per target level: (mean error, sd, n) in bodyweight fraction.

    Errors are pooled per repetition across all (log, weight) pairs of a
    level; averaging across participants follows the nested-mean convention
    (per-repetition values first, then the pool statistics).
    """
    table = {}
    for level, pairs in logs_by_level.items():
        errors = []
        for log, weight in pairs:
            errors.extend(a - level for a in measured_assistance_per_rep(log, weight))
        if not errors:
            raise EmptyWindow(f"no repetitions at level {level}")
        arr = np.asarray(errors)
        table[level] = (float(arr.mean()), float(arr.std(ddof=1)) if len(arr) > 1 else 0.0, len(arr))
    return table


# ---------------------------------------------------------------------------
# transfer speeds


def _phase_speed(log: SimLog, rep: int, phase: int, v_target: float) -> float:
    sel = (log["rep"] == rep) & (log["phase"] == phase)
    if not sel.any():
        raise EmptyWindow(f"phase {phase} of repetition {rep} missing")
    v = np.abs(log["e_vz"][sel])
    regulated = np.flatnonzero(v >= 0.5 * v_target)
    if len(regulated) < 10:
        return float(v.mean())
    lo, hi = regulated[0], regulated[-1]
    trim = max(1, (hi - lo) // 10)
    return float(v[lo + trim:hi - trim + 1].mean())


def transfer_speed_table(
    logs_by_payload: dict[float, SimLog]
) -> dict[float, tuple[float, float]]:
    """Mean regulated |v_z| while raising and lowering, per payload."""
    out = {}
    for payload, log in logs_by_payload.items():
        v_target = log.meta.get("v_z_target", TransferConfig.v_z_target)
        ups, downs = [], []
        for k in repetition_indices(log):
            ups.append(_phase_speed(log, k, PHASE_RISE, v_target))
            downs.append(_phase_speed(log, k, PHASE_DESCENT, v_target))
        out[payload] = (float(np.mean(ups)), float(np.mean(downs)))
    return out


# ---------------------------------------------------------------------------
# waveform similarity


def cmc(waveforms) -> float:
    """Coefficient of multiple correlation of equal-length waveforms.

    sqrt(max(0, 1 - within-time scatter / grand scatter)); invariant under a
    global affine transform applied identically to every waveform.
    """
    y = np.asarray(waveforms, dtype=float)
    if y.ndim != 2 or y.shape[0] < 2 or y.shape[1] < 2:
        raise DegenerateInput("need at least two waveforms of length >= 2")
    w, t = y.shape
    mean_t = y.mean(axis=0)
    grand = y.mean()
    denom = ((y - grand) ** 2).sum() / (w * t - 1)
    if denom == 0.0:
        raise DegenerateInput("waveform set carries no variance")
    numer = ((y - mean_t) ** 2).sum() / (t * (w - 1))
    return math.sqrt(max(0.0, 1.0 - numer / denom))


def resample(series: np.ndarray, n: int) -> np.ndarray:
    """Linear resampling onto n uniformly spaced points."""
    series = np.asarray(series, dtype=float)
    if len(series) < 2:
        raise DegenerateInput("cannot resample fewer than 2 samples")
    x = np.linspace(0.0, 1.0, len(series))
    return np.interp(np.linspace(0.0, 1.0, n), x, series)


def mean_rise_waveform(log: SimLog, channel: str, n: int = 101) -> np.ndarray:
    """Across-repetition mean of a channel over the rise motion window,
    time-normalized to n samples."""
    reps = repetition_indices(log)
    if not reps:
        raise EmptyWindow("log holds no repetitions")
    acc = np.zeros(n)
    for k in reps:
        win = motion_window(log, k)
        acc += resample(log[channel][win], n)
    return acc / len(reps)
