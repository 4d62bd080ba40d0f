"""Fixed-step coupled dynamics of the arm and the surrogate human.

The plant integrates M(q)*qdd + C(q,qd)*qd + g(q) + D*qd =
J_act^T * F_transmitted + J_dk^T * F_harness with RK4 at a fixed step
(1 ms default).  Transmitted forces are the motor commands minus the plant's
own tanh friction, the belt clamped to tension-only.  The brake replaces the
q_a equation by an exact kinematic lock.  Everything is deterministic for a
given scenario and seed: the only randomness is a per-repetition duration
jitter drawn once from the seeded generator when the schedule is built.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .actuators import (
    ACTUATOR_1,
    ACTUATOR_2_HF,
    ACTUATOR_2_HS,
    DEFAULT_FRICTION_1,
    DEFAULT_FRICTION_2_HF,
    DEFAULT_FRICTION_2_HS,
    ActuatorSpec,
    FrictionModel,
    motor_speed,
    velocity_exceeded,
)
from .control import (
    AssistMode,
    AssistModeConfig,
    SpeedControllerState,
    TransferConfig,
    force_controller_step,
    speed_controller_step,
)
from .errors import ConfigError, NumericalDivergence
from .human import (
    ChairModel,
    HarnessModel,
    HumanParams,
    STSReference,
    minimum_jerk,
    muscle_effort,
)
from .kinematics import (
    GRAVITY,
    JointState,
    LinkMassModel,
    RobotGeometry,
    act_diag,
    dk_entries,
    drive_speeds,
    effector_position,
    gravity_potential,
    gravity_vec,
    inverse_kinematics,
    joint_torques,
)

# phase codes in the log
PHASE_SETTLE = 0
PHASE_RISE = 1
PHASE_PAUSE = 2
PHASE_DESCENT = 3
PHASE_PAUSE2 = 4

# hard floor under the human CoM: engages only when a failed motion collapses
# (a crumpled body still keeps its CoM above the ground plane)
FLOOR_Z = 0.10
FLOOR_STIFFNESS = 5.0e4
FLOOR_DAMPING = 1.0e3

CHANNELS = [
    "time", "rep", "phase",
    "q_a", "q_c", "qd_a", "qd_c",
    "e_y", "e_z", "e_vy", "e_vz",
    "fy_des", "fz_des",
    "f1_map", "f2_map", "f1_fric", "f2_fric", "f1_cmd", "f2_cmd",
    "sat_1", "sat_2", "vel_exc_1", "vel_exc_2",
    "f1_trans", "f2_trans",
    "v2_belt", "v2_ref",
    "harness_fy", "harness_fz",
    "com_y", "com_z", "vcom_y", "vcom_z", "acom_y", "acom_z",
    "chair_fz", "feet_fy", "feet_fz",
    "seat_off", "brake",
]
IDX = {name: i for i, name in enumerate(CHANNELS)}

CSV_SCHEMA_VERSION = "stsbot-log v1"
CSV_BLOCK_ROWS = 4096

MAX_STEPS = 10_000_000  # longest run: its log rows take 3.2 GB


@dataclass
class SimLog:
    """Uniform-rate time series of every simulation channel."""

    dt: float
    data: dict[str, np.ndarray]
    meta: dict = field(default_factory=dict)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.data[name]

    def __len__(self) -> int:
        return len(self.data["time"])

    def to_csv(self) -> str:
        return "".join(self._csv_blocks())

    def write_csv(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.writelines(self._csv_blocks())

    def _csv_blocks(self):
        """The CSV text in blocks of CSV_BLOCK_ROWS rows, every cell ``{:.17g}``.

        Within a block each column formats each distinct float64 bit pattern
        once (keying on bits keeps ``-0.0`` apart from ``0.0``) and indexes
        the text back out; ``write_csv`` never holds the whole text.
        """
        names = list(self.data.keys())
        yield (f"# {CSV_SCHEMA_VERSION}\n# meta {json.dumps(self.meta, sort_keys=True)}\n"
               + ",".join(names) + "\n")
        cols = [np.ascontiguousarray(self.data[n], dtype=np.float64) for n in names]
        for start in range(0, len(cols[0]), CSV_BLOCK_ROWS):
            cells = [_format_cells(c[start:start + CSV_BLOCK_ROWS]) for c in cols]
            yield "\n".join(map(",".join, zip(*cells))) + "\n"

    @classmethod
    def from_csv(cls, path) -> "SimLog":
        """Read a log written by ``write_csv``; a file that is missing or not
        such a log raises ConfigError naming the path."""
        meta: dict = {}
        try:
            with open(path) as fh:
                header = fh.readline().strip()
                if not header.startswith("#") or CSV_SCHEMA_VERSION not in header:
                    raise ConfigError(f"{path}: not a {CSV_SCHEMA_VERSION} file")
                line = fh.readline().strip()
                if line.startswith("# meta "):
                    meta = json.loads(line[len("# meta "):])
                    if not isinstance(meta, dict):
                        raise ConfigError(f"{path}: the meta line is not a JSON object")
                    line = fh.readline().strip()
                names = line.split(",")
                if "time" not in names or len(set(names)) < len(names):
                    raise ConfigError(f"{path}: bad column header {line!r}")
                with warnings.catch_warnings():
                    # an empty body is reported below, not warned about
                    warnings.simplefilter("ignore", UserWarning)
                    arr = np.loadtxt(fh, delimiter=",", ndmin=2)
        except OSError as exc:
            raise ConfigError(f"cannot read {path}: {exc.strerror}") from exc
        except ValueError as exc:
            # loadtxt appends advice on its own options after a ';'
            raise ConfigError(f"{path}: {str(exc).split(';')[0]}") from exc
        if arr.shape[0] == 0:
            raise ConfigError(f"{path}: no data rows")
        if arr.shape[1] != len(names):
            raise ConfigError(
                f"{path}: rows hold {arr.shape[1]} cells, the header names {len(names)} columns")
        data = {n: arr[:, i].copy() for i, n in enumerate(names)}
        t = data["time"]
        dt = float(t[1] - t[0]) if len(t) > 1 else float(meta.get("dt", 1e-3))
        return cls(dt, data, meta)


def _format_cells(col: np.ndarray) -> list[str]:
    bits, inverse = np.unique(col.view(np.int64), return_inverse=True)
    text = np.array([f"{x:.17g}" for x in bits.view(np.float64).tolist()], dtype=object)
    return text[inverse].tolist()


@dataclass(frozen=True)
class Scenario:
    """Everything needed to run one deterministic simulation."""

    geom: RobotGeometry = RobotGeometry()
    masses: LinkMassModel | None = None
    human: HumanParams | None = None
    chair: ChairModel = ChairModel()
    harness: HarnessModel = HarnessModel()
    mode_config: AssistModeConfig | None = None
    transfer: TransferConfig | None = None
    sts: STSReference = STSReference()
    repetitions: int = 1
    pause: float = 2.0
    payload: float = 0.0
    robot_attached: bool = True
    dt: float = 1e-3
    seed: int = 0
    allow_peak: bool = False
    damping: tuple[float, float] = (0.5, 0.5)
    specs: tuple[ActuatorSpec, ActuatorSpec, ActuatorSpec] = (
        ACTUATOR_1, ACTUATOR_2_HS, ACTUATOR_2_HF)
    ctrl_frictions: tuple[FrictionModel, FrictionModel, FrictionModel] = (
        DEFAULT_FRICTION_1, DEFAULT_FRICTION_2_HS, DEFAULT_FRICTION_2_HF)
    plant_frictions: tuple[FrictionModel, FrictionModel, FrictionModel] = (
        DEFAULT_FRICTION_1, DEFAULT_FRICTION_2_HS, DEFAULT_FRICTION_2_HF)
    settle: float = 0.5
    rep_jitter: float = 0.05
    initial_q: JointState | None = None

    def validate(self) -> None:
        if not (0.0 < self.dt <= 5e-3):
            raise ConfigError("dt must lie in (0, 5e-3] s")
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.pause < 0.0:
            raise ConfigError("pause must be non-negative")
        if self.settle < 0.0:
            raise ConfigError("settle must be non-negative")
        if not (0.0 <= self.rep_jitter < 1.0):
            raise ConfigError("rep_jitter must lie in [0, 1)")
        if self.payload < 0.0:
            raise ConfigError("payload must be non-negative")
        is_transfer = self.transfer is not None
        if self.payload > 0.0 and not is_transfer:
            raise ConfigError("payload requires the transfer configuration")
        if is_transfer and not self.robot_attached:
            raise ConfigError("transfer requires the robot")
        if not is_transfer and self.robot_attached and self.mode_config is None:
            raise ConfigError("rehabilitation runs need an assist mode config")
        if not is_transfer and self.human is None and not self.robot_attached:
            raise ConfigError("nothing to simulate: no human and no robot")
        if self.mode_config is not None and (
                is_transfer or self.mode_config.mode is AssistMode.TRANSFER):
            raise ConfigError("a transfer takes a TransferConfig and no assist mode config")
        # every repetition at its longest jitter, against the log's row count
        longest = self.settle + self.repetitions * 2.0 * (
            _rise_duration(self) * (1.0 + self.rep_jitter) + self.pause)
        if not longest / self.dt <= MAX_STEPS:
            raise ConfigError(f"the run may last {longest:.3g} s, over {MAX_STEPS:.0e} steps "
                              "of dt (shorten pause, settle, sts.duration or repetitions)")

    def resolved_masses(self) -> LinkMassModel:
        return self.masses if self.masses is not None else LinkMassModel.for_geometry(self.geom)


@dataclass
class SimState:
    """Integrator state between steps (value object, copy to keep); ``forces``
    and ``motor_vels`` hold the plant's evaluation of it and its drives'
    encoder speeds once made (``Plant.evaluated``, ``Plant.motor_speeds``)."""

    t: float = 0.0
    q_a: float = 0.0
    q_c: float = 0.0
    qd_a: float = 0.0
    qd_c: float = 0.0
    com: tuple[float, float] = (0.0, 0.0)
    vcom: tuple[float, float] = (0.0, 0.0)
    seat_off: bool = False
    forces: Forces | None = field(default=None, compare=False, repr=False)
    motor_vels: tuple[float, float] | None = field(default=None, compare=False, repr=False)

    def vector(self) -> tuple[float, ...]:
        """(q_a, q_c, qd_a, qd_c, cy, cz, cvy, cvz), as the integrator sees it."""
        return (self.q_a, self.q_c, self.qd_a, self.qd_c,
                self.com[0], self.com[1], self.vcom[0], self.vcom[1])


class Forces(NamedTuple):
    """Every force channel at one instant (see Plant.forces).

    e, ev and jac are the effector position, velocity and the row-major
    d(E_y,E_z)/d(q_a,q_c) entries; d is the actuator-jacobian diagonal
    (act_diag); harness is the force on the human; feet is the leg force
    plus the floor contact; acom the CoM acceleration.
    """

    e: tuple[float, float] | None
    ev: tuple[float, float] | None
    jac: tuple[float, float, float, float] | None
    d: tuple[float, float] | None
    harness: tuple[float, float]
    chair_fz: float
    feet: tuple[float, float]
    acom: tuple[float, float]


@dataclass(frozen=True)
class _Segment:
    t0: float
    t1: float
    rep: int
    phase: int
    p0: tuple[float, float]
    p1: tuple[float, float]


class _Schedule:
    """Piecewise minimum-jerk reference with a monotone lookup cursor."""

    def __init__(self, segments: list[_Segment]):
        self.segments = segments
        self._i = 0

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
        seg = self.segment_at(t)
        dur = seg.t1 - seg.t0
        dy = seg.p1[0] - seg.p0[0]
        dz = seg.p1[1] - seg.p0[1]
        if dur <= 0.0 or (dy == 0.0 and dz == 0.0):
            return seg.p1, (0.0, 0.0)
        s, ds, _ = minimum_jerk((t - seg.t0) / dur)
        inv = 1.0 / dur
        return (seg.p0[0] + s * dy, seg.p0[1] + s * dz), (ds * dy * inv, ds * dz * inv)


def _rise_duration(scenario: Scenario) -> float:
    """Nominal rise time: the STS duration, or the transfer's arc at v_z."""
    tr = scenario.transfer
    if tr is None:
        return scenario.sts.duration
    z0 = effector_position(scenario.geom, tr.q_a_locked, tr.q_c_start)[1]
    z1 = effector_position(scenario.geom, tr.q_a_locked, tr.q_c_end)[1]
    return abs(z1 - z0) / tr.v_z_target


def _build_schedule(scenario: Scenario) -> _Schedule:
    rng = np.random.default_rng(scenario.seed)
    zero = (0.0, 0.0)
    jitter = scenario.rep_jitter if scenario.transfer is None else 0.0
    human = scenario.human if scenario.transfer is None else None
    seated = human.seated_com if human else zero
    standing = human.standing_com if human else zero
    segs = [_Segment(0.0, scenario.settle, -1, PHASE_SETTLE, seated, seated)]
    t = scenario.settle
    for rep in range(scenario.repetitions):
        dur = _rise_duration(scenario)
        if jitter > 0.0:
            dur *= 1.0 + jitter * float(rng.uniform(-1.0, 1.0))
        for phase, d, p0, p1 in ((PHASE_RISE, dur, seated, standing),
                                 (PHASE_PAUSE, scenario.pause, standing, standing),
                                 (PHASE_DESCENT, dur, standing, seated),
                                 (PHASE_PAUSE2, scenario.pause, seated, seated)):
            segs.append(_Segment(t, t + d, rep, phase, p0, p1))
            t += d
    return _Schedule(segs)


class Plant:
    """Precomputed plant model: ``step`` integrates one control period."""

    def __init__(self, scenario: Scenario, schedule: _Schedule | None = None):
        scenario.validate()
        self.scenario = scenario
        g = scenario.geom
        m = scenario.resolved_masses()
        self.geom = g
        self.masses = m
        self.is_transfer = scenario.transfer is not None
        self.has_human = scenario.human is not None and not self.is_transfer
        self.attached = scenario.robot_attached
        self.A1 = m.I_h + m.m_h * m.L_h**2 + m.m_v * g.l_ac**2
        self.B1 = m.I_v + m.m_v * m.L_v**2
        self.G1 = m.m_v * g.l_ac * m.L_v
        self.d_a, self.d_c = scenario.damping
        # a transfer runs on the belt's high-force output with the mast braked,
        # a rehabilitation run on its high-speed output; a run never switches
        belt = 2 if self.is_transfer else 1
        self.spec1, self.spec2 = scenario.specs[0], scenario.specs[belt]
        self.pf1, self.pf2 = scenario.plant_frictions[0], scenario.plant_frictions[belt]
        self.ctrl_frictions = (scenario.ctrl_frictions[0], scenario.ctrl_frictions[belt])
        self.payload = scenario.payload
        self.harness = scenario.harness
        self.chair = scenario.chair
        self.human = scenario.human
        self.schedule = schedule or _build_schedule(scenario)

    # -- forces -----------------------------------------------------------

    def forces(self, t: float, s, latched: bool) -> Forces:
        """Every force channel at time t and state s = (q_a, q_c, qd_a, qd_c,
        cy, cz, cvy, cvz); the integrator, the seat-off check and the logger
        all read the human's forces from here.

        The arm terms are None when the robot is detached; the human terms
        are zero when there is no human.
        """
        q_a, q_c, qd_a, qd_c, cy, cz, cvy, cvz = s
        jac = e = ev = d = None
        if self.attached:
            jac = dk_entries(self.geom, q_a, q_c)
            j11, j12, j21, j22 = jac
            e = effector_position(self.geom, q_a, q_c)
            ev = (j11 * qd_a + j12 * qd_c, j21 * qd_a + j22 * qd_c)
            d = act_diag(self.geom, q_a, q_c)
        if not self.has_human:
            return Forces(e, ev, jac, d, (0.0, 0.0), 0.0, (0.0, 0.0), (0.0, 0.0))
        com = (cy, cz)
        vcom = (cvy, cvz)
        harness = (0.0, 0.0)
        if self.attached:
            harness = self.harness.force_on_human(e, ev, com, vcom)
        chair_fz = self.chair.force(self.human, com, vcom, latched)
        ref_pos, ref_vel = self.schedule.reference(t)
        mx, mz = muscle_effort(self.human, com, vcom, chair_fz, harness, ref_pos, ref_vel)
        pen = FLOOR_Z - cz  # the floor pushes up on a collapsed CoM
        mz += max(0.0, FLOOR_STIFFNESS * pen - FLOOR_DAMPING * cvz) if pen > 0.0 else 0.0
        m = self.human.mass
        hx, hz = harness
        acom = ((mx + hx) / m, (mz + chair_fz + hz) / m - GRAVITY)
        return Forces(e, ev, jac, d, harness, chair_fz, (mx, mz), acom)

    def evaluated(self, state: SimState) -> Forces:
        """The forces at ``state``, computed once and kept on it."""
        if state.forces is None:
            state.forces = self.forces(state.t, state.vector(), state.seat_off)
        return state.forces

    def motor_speeds(self, state: SimState) -> tuple[float, float]:
        """The drives' encoder speeds [rad/s] at ``state``, computed once and
        kept on it; the force controller and transmitted_forces both read them."""
        if state.motor_vels is None:
            v1, v2 = drive_speeds(self.evaluated(state).d, state.qd_a, state.qd_c)
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
        f1t = commands[0] - self.pf1.a * math.tanh(self.pf1.b * w1)
        f2t = max(0.0, commands[1] - self.pf2.a * math.tanh(self.pf2.b * w2))
        if self.is_transfer:
            f1t = 0.0
        return f1t, f2t

    # -- derivative -------------------------------------------------------

    def _deriv(self, t, s, f1t, f2t, latched):
        """s = (q_a, q_c, qd_a, qd_c, cy, cz, cvy, cvz) -> ds/dt.

        f1t/f2t are the transmitted actuator forces, already net of plant
        friction for this control period.
        """
        g = self.geom
        q_a, q_c, qd_a, qd_c, cy, cz, cvy, cvz = s

        ax = az = 0.0
        if self.has_human:
            f = self.forces(t, s, latched)
            ax, az = f.acom

        if not self.attached:
            return (0.0, 0.0, 0.0, 0.0, cvy, cvz, ax, az)

        d = f.d if self.has_human else act_diag(g, q_a, q_c)
        g_a, g_c = gravity_vec(g, self.masses, q_a, q_c)
        tau_act_a, tau_act_c = joint_torques(d, f1t, f2t)

        if self.is_transfer:
            # brake engaged: exact 1-DOF integration about C
            d_ez = -g.l_ce * math.cos(q_a + q_c)
            rhs = tau_act_c - g_c - self.payload * GRAVITY * d_ez - self.d_c * qd_c
            m_eff = self.B1 + self.payload * g.l_ce**2
            return (0.0, qd_c, 0.0, rhs / m_eff, cvy, cvz, ax, az)

        tau_h_a = tau_h_c = 0.0
        if self.has_human:
            j11, j12, j21, j22 = f.jac
            hx, hz = f.harness
            tau_h_a = -(j11 * hx + j21 * hz)
            tau_h_c = -(j12 * hx + j22 * hz)

        s_c = math.sin(q_c)
        c_c = math.cos(q_c)
        gamma = -self.G1 * s_c
        gamma_p = -self.G1 * c_c
        m11 = self.A1 + self.B1 + 2.0 * gamma
        m12 = self.B1 + gamma
        m22 = self.B1
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
        """One RK4 step; joint limits applied as hard stops afterwards.  The
        new state carries its evaluation, which also decides the seat-off latch."""
        f1, f2 = self.transmitted_forces(state, commands) if self.attached else (0.0, 0.0)
        latched = state.seat_off
        s = state.vector()
        t = state.t
        try:
            k1 = self._deriv(t, s, f1, f2, latched)
            h2 = dt / 2.0
            s2 = tuple(s[i] + h2 * k1[i] for i in range(8))
            k2 = self._deriv(t + h2, s2, f1, f2, latched)
            s3 = tuple(s[i] + h2 * k2[i] for i in range(8))
            k3 = self._deriv(t + h2, s3, f1, f2, latched)
            s4 = tuple(s[i] + dt * k3[i] for i in range(8))
            k4 = self._deriv(t + dt, s4, f1, f2, latched)
        except (ValueError, OverflowError) as exc:
            # a non-finite stage state reached a math function before the guard
            raise NumericalDivergence(f"{exc} in an RK4 stage at t={t:.3f}s") from exc
        h6 = dt / 6.0
        out = [s[i] + h6 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]) for i in range(8)]

        q_a, q_c, qd_a, qd_c = out[0], out[1], out[2], out[3]
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
        if self.is_transfer:
            q_a, qd_a = state.q_a, 0.0  # exact lock

        cy, cz, cvy, cvz = out[4], out[5], out[6], out[7]
        if not all(math.isfinite(v) for v in (q_a, q_c, qd_a, qd_c, cy, cz, cvy, cvz)):
            raise NumericalDivergence(f"non-finite state at t={t:.3f}s")
        if abs(qd_a) > 50.0 or abs(qd_c) > 50.0 or abs(cvy) > 20.0 or abs(cvz) > 20.0:
            raise NumericalDivergence(f"runaway velocity at t={t:.3f}s")

        # seat-off latch: once the chair unloads it stays unloaded; a chair force
        # of 0 is 0 latched or not, so this is also the latched state's evaluation
        f = self.forces(t + dt, (q_a, q_c, qd_a, qd_c, cy, cz, cvy, cvz), latched)
        seat_off = latched or (self.has_human and f.chair_fz <= 0.0)
        return SimState(t + dt, q_a, q_c, qd_a, qd_c, (cy, cz), (cvy, cvz), seat_off, f)

    def mechanical_energy(self, state: SimState) -> float:
        """Arm kinetic + potential energy (human terms excluded)."""
        gamma = -self.G1 * math.sin(state.q_c)
        m11 = self.A1 + self.B1 + 2.0 * gamma
        m12 = self.B1 + gamma
        ke = 0.5 * (m11 * state.qd_a**2 + 2.0 * m12 * state.qd_a * state.qd_c
                    + self.B1 * state.qd_c**2)
        return ke + gravity_potential(self.geom, self.masses, state.q_a, state.q_c)


# ---------------------------------------------------------------------------
# scenario execution


def _initial_state(scenario: Scenario) -> tuple[SimState, float]:
    """Start state plus the armed effector y position (e_yi)."""
    if scenario.transfer is not None:
        tr = scenario.transfer
        e_y = effector_position(scenario.geom, tr.q_a_locked, tr.q_c_start)[0]
        return SimState(q_a=tr.q_a_locked, q_c=tr.q_c_start), e_y
    if scenario.human is None:
        q0 = scenario.initial_q or JointState(0.2, 0.0)
        e_y = effector_position(scenario.geom, q0.q_a, q0.q_c)[0]
        return SimState(q_a=q0.q_a, q_c=q0.q_c), e_y
    com0 = scenario.human.seated_com
    if not scenario.robot_attached:
        return SimState(com=com0), com0[0]
    r0 = scenario.harness.rest_offset
    e0 = (com0[0] + r0[0], com0[1] + r0[1])
    q0 = inverse_kinematics(scenario.geom, e0)
    return SimState(q_a=q0.q_a, q_c=q0.q_c, com=com0), e0[0]


def run_scenario(scenario: Scenario) -> SimLog:
    """Execute the scenario and return the complete fixed-rate log."""
    scenario.validate()
    schedule = _build_schedule(scenario)
    plant = Plant(scenario, schedule)
    state, e_yi = _initial_state(scenario)

    mode_config = scenario.mode_config
    if mode_config is not None:
        mode_config = replace(mode_config, e_yi=e_yi)

    geom = scenario.geom
    dt = scenario.dt
    n_steps = int(round(schedule.total / dt))
    is_transfer = plant.is_transfer
    rehab_ctrl = plant.attached and not is_transfer
    pi_state = SpeedControllerState()

    rows = np.zeros((n_steps, len(CHANNELS)))
    for i in range(n_steps):
        # the plant reads the same cursor; all lookups come at non-decreasing t
        seg = schedule.segment_at(state.t)

        f1_cmd = f2_cmd = 0.0
        sat1 = sat2 = False
        v2_ref = 0.0
        if rehab_ctrl:
            cmd = force_controller_step(
                geom, plant.masses, (plant.spec1, plant.spec2), plant.ctrl_frictions,
                mode_config, JointState(state.q_a, state.q_c, state.qd_a, state.qd_c),
                plant.motor_speeds(state), allow_peak=scenario.allow_peak,
            )
            f1_cmd, f2_cmd, sat1, sat2 = cmd.f1, cmd.f2, cmd.saturated_1, cmd.saturated_2
        elif is_transfer:
            if seg.phase == PHASE_RISE:
                v_z_signed = scenario.transfer.v_z_target
            elif seg.phase == PHASE_DESCENT:
                v_z_signed = -scenario.transfer.v_z_target
            else:
                v_z_signed = 0.0
            l2_rate = plant.evaluated(state).d[1] * state.qd_c
            (f2_cmd, sat2, v2_ref), pi_state = speed_controller_step(
                geom, plant.spec2, scenario.transfer, state.q_c,
                l2_rate, dt, pi_state, v_z_signed=v_z_signed,
            )

        state = plant.step(state, (f1_cmd, f2_cmd), dt)

        # log the new sample from the evaluation the step made of it
        f = state.forces
        row = rows[i]
        row[0] = state.t
        row[1] = seg.rep
        row[2] = seg.phase
        row[3] = state.q_a
        row[4] = state.q_c
        row[5] = state.qd_a
        row[6] = state.qd_c
        if rehab_ctrl:
            row[IDX["fy_des"]] = cmd.fy_des
            row[IDX["fz_des"]] = cmd.fz_des
            row[IDX["f1_map"]] = cmd.f1_map
            row[IDX["f2_map"]] = cmd.f2_map
            row[IDX["f1_fric"]] = cmd.f1_fric
            row[IDX["f2_fric"]] = cmd.f2_fric
        row[IDX["f1_cmd"]] = f1_cmd
        row[IDX["f2_cmd"]] = f2_cmd
        row[IDX["sat_1"]] = float(sat1)
        row[IDX["sat_2"]] = float(sat2)
        if plant.attached:  # a detached arm never moves: its channels stay 0
            row[IDX["e_y"]], row[IDX["e_z"]] = f.e
            row[IDX["e_vy"]], row[IDX["e_vz"]] = f.ev
            d1, d2 = f.d
            row[IDX["v2_belt"]] = l2_rate = d2 * state.qd_c
            row[IDX["vel_exc_1"]] = float(
                velocity_exceeded(plant.spec1, d1 * state.qd_a, scenario.allow_peak))
            row[IDX["vel_exc_2"]] = float(
                velocity_exceeded(plant.spec2, l2_rate, scenario.allow_peak))
            row[IDX["f1_trans"]], row[IDX["f2_trans"]] = plant.transmitted_forces(
                state, (f1_cmd, f2_cmd))
        row[IDX["v2_ref"]] = v2_ref
        if plant.has_human:
            row[IDX["harness_fy"]], row[IDX["harness_fz"]] = f.harness
            row[IDX["com_y"]], row[IDX["com_z"]] = state.com
            row[IDX["vcom_y"]], row[IDX["vcom_z"]] = state.vcom
            row[IDX["acom_y"]], row[IDX["acom_z"]] = f.acom
            row[IDX["chair_fz"]] = f.chair_fz
            row[IDX["feet_fy"]], row[IDX["feet_fz"]] = f.feet
            row[IDX["seat_off"]] = float(state.seat_off)
        row[IDX["brake"]] = float(is_transfer)

    data = {name: rows[:, k].copy() for k, name in enumerate(CHANNELS)}
    meta = {
        "dt": scenario.dt,
        "seed": scenario.seed,
        "repetitions": scenario.repetitions,
        "pause": scenario.pause,
        "settle": scenario.settle,
        "robot_attached": scenario.robot_attached,
        "payload": scenario.payload,
        "mode": (mode_config.mode.value if mode_config is not None
                 else ("transfer" if is_transfer else "none")),
        "fz_pct": mode_config.fz_pct if mode_config is not None else 0.0,
        "ky": mode_config.ky if mode_config is not None else 0.0,
        "height": scenario.human.height if scenario.human else 0.0,
        "weight": scenario.human.mass if scenario.human else 0.0,
        "mobility": scenario.human.mobility if scenario.human else 0.0,
        "duration": scenario.sts.duration,
        "v_z_target": scenario.transfer.v_z_target if is_transfer else 0.0,
    }
    return SimLog(scenario.dt, data, meta)


def transparency_pair(scenario_wr: Scenario, scenario_wor: Scenario) -> tuple[SimLog, SimLog]:
    """Run a matched with-robot / without-robot pair for paired metrics."""
    if scenario_wr.human != scenario_wor.human:
        raise ConfigError("transparency pair needs identical human parameters")
    if scenario_wr.seed != scenario_wor.seed:
        raise ConfigError("transparency pair needs identical seeds")
    if not scenario_wr.robot_attached or scenario_wor.robot_attached:
        raise ConfigError("first scenario must be WR, second WoR")
    return run_scenario(scenario_wr), run_scenario(scenario_wor)
