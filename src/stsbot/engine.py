"""Fixed-step coupled dynamics of the arm and the surrogate human.

The plant integrates M(q)*qdd + C(q,qd)*qd + g(q) + D*qd =
J_act^T * F_transmitted + J_dk^T * F_harness with RK4 at a fixed step
(1 ms default).  Transmitted forces are the motor commands minus the plant's
own tanh friction, the belt clamped to tension-only.  A transfer brakes the
mast and carries no human, so the boom turns about C alone: its RK4
integrates only (q_c, qd_c), and q_a, qd_a, com and vcom keep their start
values.  Its stages 2-4 read the boom's three terms from Arm.boom, not the
whole Arm.at evaluation; a bit-equality test keeps the two copies of those
terms equal, so a transfer's log does not depend on which one a stage
reads.  Everything is deterministic for a given scenario and seed: the only
randomness is a per-repetition duration jitter drawn once from the seeded
generator when the schedule is built.
"""

from __future__ import annotations

import json
import math
import struct
import sys
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .actuators import (
    DEFAULT_FRICTION_1,
    DEFAULT_FRICTION_2_HF,
    DEFAULT_FRICTION_2_HS,
    DRIVES,
    FrictionModel,
    engaged_pair,
    friction_force,
    motor_speed,
    velocity_exceeded,
)
from .control import (
    AssistMode,
    AssistModeConfig,
    TransferConfig,
    desired_force_field,
    force_controller_step,
    speed_controller_step,
)
from .errors import ConfigError, NumericalDivergence
from .human import (
    ChairModel,
    HarnessModel,
    HumanParams,
    minimum_jerk,
    muscle_effort,
)
from .kinematics import (  # noqa: F401  act_diag, dk_entries: perfbench counts calls by name
    DRIVE_SIGN,
    GRAVITY,
    IK_OK,
    IK_UNREACHABLE,
    Arm,
    ArmEval,
    JointState,
    LinkMassModel,
    RobotGeometry,
    act_diag,
    dk_entries,
    drive_speeds,
    gravity_potential,
    inverse_kinematics,
    joint_torques,
    solve_ik,
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

CSV_SCHEMA_VERSION = "stsbot-log v1"
# a log's 40 channels in 409-row blocks, map.csv's 4 columns in 4 096-row ones:
# 32 768 cells made study_sweep's peak RSS 1.3 MB higher, 8 192 its map writes slower
CSV_BLOCK_CELLS = 16384

# longest run: its log is held once, 320 B per sample (40 float64 channels), 3.2 GB
MAX_STEPS = 10_000_000


@dataclass
class SimLog:
    """Uniform-rate time series of every simulation channel.

    ``data`` maps each channel to a 1-D float64 array. The log is held once:
    from ``run_scenario`` each channel is a contiguous row of one
    (channels, samples) array, filled a block of CSV_BLOCK_CELLS cells at a
    time from a row-major buffer that each sample is packed into whole, so
    the last samples of a run reach it only when the run ends; from
    ``read_log`` each channel is a strided column of the
    (rows, columns) array that ``np.loadtxt`` read, which holds every column
    for ``from_csv`` and only the decoded ones for ``stsbot analyze``.
    """

    dt: float
    data: dict[str, np.ndarray]
    meta: dict = field(default_factory=dict)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.data[name]

    def __len__(self) -> int:
        return len(self.data["time"])

    def write_csv(self, path) -> None:
        """Write the header, then ``csv_rows`` of the channels: one block of
        CSV_BLOCK_CELLS cells is formatted and written at a time, so the
        whole text is never held at once."""
        names = list(self.data.keys())
        with open(path, "w", newline="\n") as fh:
            fh.write(f"# {CSV_SCHEMA_VERSION}\n# meta {json.dumps(self.meta, sort_keys=True)}\n"
                     + ",".join(names) + "\n")
            fh.writelines(csv_rows([self.data[n] for n in names]))

    @classmethod
    def from_csv(cls, path) -> "SimLog":
        """Read every column of a log written by ``write_csv`` (``read_log``)."""
        return read_log(path)


def read_log(path, decode=None, require=()) -> SimLog:
    """Read a log written by ``write_csv``, decoding the columns ``decode``
    names (None: every column), ``time`` and the header's last column.

    A file that is missing or not such a log, a header that lacks ``time``
    or a channel of ``require`` or ``decode``, a row whose cell count is not
    the header's, a decoded cell that is not a number, a ``time`` that is not
    finite and strictly increasing, a decoded ``rep`` or ``phase`` that is not
    a finite integer, or a meta number that is not finite raises ConfigError
    naming the path.  The cells of a column not decoded are never converted:
    ``stsbot analyze`` decodes only the channels its metrics read, so it
    passes a text cell in another channel that ``SimLog.from_csv`` refuses.
    """
    meta: dict = {}
    try:
        with open(path) as fh:
            head = [fh.readline()]
            header = head[0].strip()
            if not header.startswith("#") or CSV_SCHEMA_VERSION not in header:
                raise ConfigError(f"{path}: not a {CSV_SCHEMA_VERSION} file")
            head.append(fh.readline())
            line = head[-1].strip()
            if line.startswith("# meta "):
                meta = json.loads(line[len("# meta "):])
                if not isinstance(meta, dict):
                    raise ConfigError(f"{path}: the meta line is not a JSON object")
                head.append(fh.readline())
                line = head[-1].strip()
            names = line.split(",")
            if "time" not in names or len(set(names)) < len(names):
                raise ConfigError(f"{path}: bad column header {line!r}")
            if missing := [c for c in dict.fromkeys([*require, *(decode or ())])
                           if c not in names]:
                raise ConfigError(f"{path}: no {', '.join(missing)} column")
            # with the last column among them, loadtxt refuses a row short of any cell
            cols = range(len(names)) if decode is None else sorted(
                {names.index(c) for c in ("time", *decode)} | {len(names) - 1})
            with warnings.catch_warnings():
                # an empty body is reported below, not warned about
                warnings.simplefilter("ignore", UserWarning)
                try:
                    arr = np.loadtxt(fh, delimiter=",", ndmin=2, usecols=cols)
                except ValueError as exc:
                    # loadtxt's row numbers count neither file lines nor agree
                    # with each other, so the line is found again here
                    raise ConfigError(_first_bad_line(path, len(head), names, cols)
                                      or f"{path}: {str(exc).split(';')[0]}") from exc
        _check_cell_counts(path, head, len(arr), names)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from exc
    except ValueError as exc:
        # loadtxt appends advice on its own options after a ';'
        raise ConfigError(f"{path}: {str(exc).split(';')[0]}") from exc
    if arr.shape[0] == 0:
        raise ConfigError(f"{path}: no data rows")
    data = {names[k]: column for k, column in zip(cols, arr.T)}
    t = data["time"]
    if not (np.isfinite(t).all() and (np.diff(t) > 0.0).all()):
        raise ConfigError(f"{path}: time is not finite and strictly increasing")
    for name in ("rep", "phase"):
        col = data.get(name)
        if col is not None and not (np.isfinite(col).all() and (col == np.floor(col)).all()):
            raise ConfigError(f"{path}: {name} holds a value that is not a finite integer")
    for key in ("dt", "height", "weight", "payload", "fz_pct", "v_z_target"):
        value = meta.get(key, 0.0)
        if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
            raise ConfigError(f"{path}: meta {key} {value!r} is not a finite number")
    dt = float(t[1] - t[0]) if len(t) > 1 else meta.get("dt", Scenario.dt)
    if not 0.0 < dt < math.inf:
        raise ConfigError(f"{path}: the time step {dt!r} is not a positive number")
    return SimLog(float(dt), data, meta)


def _check_cell_counts(path, head: list[str], rows: int, names: list[str]) -> None:
    """Raise ConfigError unless each of the ``rows`` rows ``np.loadtxt`` read
    past the ``head`` lines holds a cell for each of ``names``.

    loadtxt with ``usecols`` takes a row with extra cells.  With the last
    column among them it refuses a short one, so each row it read holds at
    least ``len(names) - 1`` commas, and if the body holds that many per row
    in all, no row holds more.  They are counted in 64 kB binary blocks:
    ~25 ms for a 32 MB log (1 MB blocks took as long and held 2 MB).  On any
    other count ``_first_bad_line`` reads the lines as loadtxt reads them, so
    commas in a comment pass and the first row of another length is named.
    """
    with open(path, "rb") as fh:
        commas = sum(block.count(b",") for block in iter(lambda: fh.read(1 << 16), b""))
    if commas - sum(line.count(",") for line in head) == rows * (len(names) - 1):
        return
    if error := _first_bad_line(path, len(head), names, ()):
        raise ConfigError(error)


def _first_bad_line(path, skip: int, names: list[str], decode) -> str | None:
    """The error naming the first line past the ``skip`` head lines whose
    cell count is not ``len(names)`` or whose cell in a column of ``decode``
    (indices into ``names``) is not a number; None if there is none.

    The lines are read as ``np.loadtxt`` reads them: each is the text before
    a ``#``, skipped when empty.
    """
    columns = len(names)
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            text = line.rstrip("\n").split("#", 1)[0]
            if number <= skip or not text:
                continue
            cells = text.split(",")
            if len(cells) != columns:
                end = f" (it ends before {names[len(cells)]})" if len(cells) < columns else ""
                return (f"{path}: line {number} holds {len(cells)} cells, "
                        f"the header names {columns} columns{end}")
            for k in decode:
                if not _is_number(cells[k]):
                    return f"{path}: line {number}: {names[k]} {cells[k]!r} is not a number"
    return None


def _is_number(cell: str) -> bool:
    """Whether ``np.loadtxt`` reads ``cell`` as a float: what ``float``
    takes, less the underscores and non-ASCII digits loadtxt refuses."""
    try:
        float(cell)
    except ValueError:
        return False
    return cell.isascii() and "_" not in cell


def csv_rows(columns):
    """CSV rows of equal-length columns in blocks of CSV_BLOCK_CELLS cells
    (at least one row), every cell the ``%.17g`` text of its float64 value.

    Each block is one ``%``-format of a row template.  A column constant in
    the block is literal text in the template (keyed on its bits, so ``-0.0``
    stays apart from ``0.0``).  A column with at most half as many distinct
    values as the block has rows passes the text of each distinct value,
    formatted once, through ``%s``; the text is kept for the next block, which
    reuses it when its distinct values are the same (the map's ``y_m`` holds
    the same values in every block).  Any other column passes its floats to
    ``%.17g``.

    A column that took ``%.17g`` in the last block is first tried without
    ``np.unique``: its cells hold at least as many distinct values as distinct
    low 12 bits (``bincount`` of ``bits & 4095``), so more than ``rows / 2``
    of those sends it to ``%.17g`` at once.  The test only ever proves "many
    distinct", the choice ``np.unique`` would make, so it cannot change the
    bytes; when it cannot decide, ``np.unique`` does.  A column that was
    constant or repeated in the last block goes to ``np.unique`` first, so a
    repeating column, such as the map's ``y_m``, does not pay for both.
    """
    n_rows = len(columns[0])
    block = max(1, CSV_BLOCK_CELLS // len(columns))
    kept = [None] * len(columns)  # (distinct bits, their text) per column
    varied = [False] * len(columns)  # whether the column took %.17g in the last block
    for start in range(0, n_rows, block):
        rows = min(block, n_rows - start)
        fields, args = [], []
        for i, c in enumerate(columns):
            # only one block of a column is made contiguous float64 at a time
            x = np.ascontiguousarray(c[start:start + block], dtype=np.float64)
            bits = x.view(np.int64)
            if (bits == bits[0]).all():
                fields.append(f"{x[0]:.17g}")
                varied[i] = False
                continue
            # distinct low 12 bits are at most as many as distinct values
            varied[i] = varied[i] and 2 * np.count_nonzero(np.bincount(bits & 4095)) > rows
            if not varied[i]:
                distinct, inverse = np.unique(bits, return_inverse=True)
                varied[i] = 2 * len(distinct) > rows
            if varied[i]:
                fields.append("%.17g")
                args.append(x.tolist())
                continue
            if kept[i] is None or not np.array_equal(kept[i][0], distinct):
                kept[i] = distinct, np.array(
                    [f"{v:.17g}" for v in distinct.view(np.float64).tolist()], dtype=object)
            fields.append("%s")
            args.append(kept[i][1][inverse].tolist())
        # the arguments row by row: column j's cells at j, j + k, ...
        k = len(args)
        cells = [None] * (rows * k)
        for j, a in enumerate(args):
            cells[j::k] = a
        yield ((",".join(fields) + "\n") * rows) % tuple(cells)


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
    sts_duration: float = 2.0  # minimum-jerk rise (and descent) time of the CoM [s]
    repetitions: int = 1
    pause: float = 2.0
    payload: float = 0.0
    robot_attached: bool = True
    dt: float = 1e-3
    seed: int = 0
    allow_peak: bool = False
    damping: tuple[float, float] = (0.5, 0.5)
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
        if not self.sts_duration > 0.0:
            raise ConfigError("sts.duration must be positive")
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
        mode = self.mode_config.mode if self.mode_config else AssistMode.FOLLOW_ME
        if mode is not AssistMode.FOLLOW_ME and not (self.human and self.robot_attached):
            raise ConfigError(f"{mode.value} acts on a person through the robot: it needs "
                              "human.enabled = true and robot_attached = true")
        # det M(q) = A1*B1 - (G1*sin q_c)^2 is least where |sin q_c| = 1
        arm = Arm(self.geom, self.resolved_masses())
        if self.robot_attached and not (arm.A1_B1 - arm.B1) * arm.B1 > arm.neg_G1**2:
            raise ConfigError("the arm's mass matrix can be singular: masses.m_v must be positive")
        if is_transfer and self.mode_config is not None:
            raise ConfigError("a transfer takes no assist mode config")
        if is_transfer and self.human is not None:
            raise ConfigError("a transfer takes no human")
        # else the step's hard stops would move the braked mast, cut the arc
        # short or move the start pose before the first command acts
        g, poses = self.geom, []
        if is_transfer:
            tr = self.transfer
            poses += [("transfer.q_a_locked", tr.q_a_locked, g.q_a_limits),
                      ("transfer.q_c_start", tr.q_c_start, g.q_c_limits),
                      ("transfer.q_c_end", tr.q_c_end, g.q_c_limits)]
        if self.initial_q is not None:
            poses += [("initial_q.q_a", self.initial_q.q_a, g.q_a_limits),
                      ("initial_q.q_c", self.initial_q.q_c, g.q_c_limits)]
        for name, q, (lo, hi) in poses:
            if not lo <= q <= hi:
                raise ConfigError(f"{name} = {q} lies outside its joint limits [{lo}, {hi}]")
        # every repetition at its longest jitter, against the log's row count
        longest = self.settle + self.repetitions * 2.0 * (
            _rise_duration(self) * (1.0 + self.rep_jitter) + self.pause)
        if not longest / self.dt <= MAX_STEPS:
            raise ConfigError(f"the run may last {longest:.3g} s, over {MAX_STEPS:.0e} steps "
                              "of dt (shorten pause, settle, sts.duration or repetitions)")
        # the arm holds the harness over the seated CoM and follows it to standing
        if self.human is not None and self.robot_attached:
            for name, com in (("seated", self.human.seated_com),
                              ("standing", self.human.standing_com)):
                target = self.harness.attach_point(com)
                (code,) = solve_ik(g, [target[0]], [target[1]])[2]
                if code != IK_OK:
                    why = "out of reach" if code == IK_UNREACHABLE else "outside the joint limits"
                    raise ConfigError(f"human.{name} CoM attach point {target} unreachable "
                                      f"(chair_y/harness offsets): {why}")

    def resolved_masses(self) -> LinkMassModel:
        return self.masses if self.masses is not None else LinkMassModel.for_geometry(self.geom)


@dataclass
class SimState:
    """Integrator state between steps (value object, copy to keep); ``forces``,
    ``motor_vels`` and ``applied`` hold the plant's evaluation of it, its
    drives' encoder speeds (``Plant.evaluated``, ``Plant.motor_speeds``) and
    the transmitted forces the step into it applied (``Plant.step``).  None is
    an init argument, so a copy made with ``replace`` starts without them."""

    t: float = 0.0
    q_a: float = 0.0
    q_c: float = 0.0
    qd_a: float = 0.0
    qd_c: float = 0.0
    com: tuple[float, float] = (0.0, 0.0)
    vcom: tuple[float, float] = (0.0, 0.0)
    forces: Forces | None = field(default=None, init=False, compare=False, repr=False)
    motor_vels: tuple[float, float] | None = field(
        default=None, init=False, compare=False, repr=False)
    applied: tuple[float, float] | None = field(
        default=None, init=False, compare=False, repr=False)

    def vector(self) -> tuple[float, ...]:
        """(q_a, q_c, qd_a, qd_c, cy, cz, cvy, cvz), as the integrator sees it."""
        return (self.q_a, self.q_c, self.qd_a, self.qd_c,
                self.com[0], self.com[1], self.vcom[0], self.vcom[1])


class Forces(NamedTuple):
    """Every force channel at one instant (see Plant.forces).

    arm is the arm's evaluation at the instant's joint state (Arm.at: the
    effector position and velocity, jacobians, gravity and inertia);
    harness is the force on the human; feet is the leg force plus the floor
    contact; acom the CoM acceleration.
    """

    arm: ArmEval | None
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
        self._last = (None, None)  # (t, reference(t)): RK4 stages repeat their times

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
        last_t, ref = self._last
        if t == last_t:
            return ref
        seg = self.segment_at(t)
        dur = seg.t1 - seg.t0
        dy = seg.p1[0] - seg.p0[0]
        dz = seg.p1[1] - seg.p0[1]
        if dur <= 0.0 or (dy == 0.0 and dz == 0.0):
            ref = seg.p1, (0.0, 0.0)
        else:
            s, ds, _ = minimum_jerk((t - seg.t0) / dur)
            inv = 1.0 / dur
            ref = (seg.p0[0] + s * dy, seg.p0[1] + s * dz), (ds * dy * inv, ds * dz * inv)
        self._last = (t, ref)
        return ref


def _rise_duration(scenario: Scenario) -> float:
    """Nominal rise time: the STS duration, or the transfer's arc at v_z."""
    tr = scenario.transfer
    if tr is None:
        return scenario.sts_duration
    arm = Arm(scenario.geom, scenario.resolved_masses())
    z0 = arm.at(tr.q_a_locked, tr.q_c_start).e[1]
    z1 = arm.at(tr.q_a_locked, tr.q_c_end).e[1]
    return abs(z1 - z0) / tr.v_z_target


def _build_schedule(scenario: Scenario) -> _Schedule:
    rng = np.random.default_rng(scenario.seed)
    zero = (0.0, 0.0)
    jitter = scenario.rep_jitter if scenario.transfer is None else 0.0
    human = scenario.human
    seated = human.seated_com if human else zero
    standing = human.standing_com if human else zero
    segs = [_Segment(0.0, scenario.settle, -1, PHASE_SETTLE, seated, seated)]
    t = scenario.settle
    rise = _rise_duration(scenario)
    for rep in range(scenario.repetitions):
        dur = rise
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

    def __init__(self, scenario: Scenario):
        scenario.validate()
        self.scenario = scenario
        g = scenario.geom
        m = scenario.resolved_masses()
        self.geom = g
        self.masses = m
        self.arm = Arm(g, m)
        self.is_transfer = scenario.transfer is not None
        self.has_human = scenario.human is not None
        self.attached = scenario.robot_attached
        self.d_a, self.d_c = scenario.damping
        self.spec1, self.spec2 = engaged_pair(self.is_transfer, DRIVES)
        self.pf1, self.pf2 = engaged_pair(self.is_transfer, scenario.plant_frictions)
        self.ctrl_frictions = engaged_pair(self.is_transfer, scenario.ctrl_frictions)
        # the braked boom about C, carrying the payload at E
        self.payload_weight = scenario.payload * GRAVITY
        self.m_eff = self.arm.B1 + scenario.payload * g.l_ce**2
        self.harness = scenario.harness
        self.human = scenario.human
        self.seat = scenario.chair.seat(self.human) if self.has_human else None
        self.schedule = _build_schedule(scenario)

    # -- forces -----------------------------------------------------------

    def forces(self, t: float, s) -> Forces:
        """Every force channel at time t and state s = (q_a, q_c, qd_a, qd_c,
        cy, cz, cvy, cvz), a function of t and s alone (the chair and floor
        contacts included); the integrator and the logger both read it.

        The arm's evaluation is None when the robot is detached; the human
        terms are zero when there is no human.
        """
        q_a, q_c, qd_a, qd_c, cy, cz, cvy, cvz = s
        arm = self.arm.at(q_a, q_c, qd_a, qd_c) if self.attached else None
        # tuple.__new__ gives the record Forces(...) gives, without the namedtuple's Python frame
        if not self.has_human:
            return tuple.__new__(Forces, (arm, (0.0, 0.0), 0.0, (0.0, 0.0), (0.0, 0.0)))
        com = (cy, cz)
        vcom = (cvy, cvz)
        harness = (0.0, 0.0)
        if arm is not None:
            harness = self.harness.force_on_human(arm.e, arm.ev, com, vcom)
        chair_fz = self.seat.force(com, vcom)
        ref_pos, ref_vel = self.schedule.reference(t)
        mx, mz = muscle_effort(self.human, com, vcom, chair_fz, harness, ref_pos, ref_vel)
        pen = FLOOR_Z - cz  # the floor pushes up on a collapsed CoM
        mz += max(0.0, FLOOR_STIFFNESS * pen - FLOOR_DAMPING * cvz) if pen > 0.0 else 0.0
        m = self.human.mass
        hx, hz = harness
        acom = ((mx + hx) / m, (mz + chair_fz + hz) / m - GRAVITY)
        return tuple.__new__(Forces, (arm, harness, chair_fz, (mx, mz), acom))

    def evaluated(self, state: SimState) -> Forces:
        """The forces at ``state``, computed once and kept on it."""
        if state.forces is None:
            state.forces = self.forces(state.t, state.vector())
        return state.forces

    def motor_speeds(self, state: SimState) -> tuple[float, float]:
        """The drives' encoder speeds [rad/s] at ``state``, computed once and
        kept on it; the force controller and transmitted_forces both read them."""
        if state.motor_vels is None:
            v1, v2 = drive_speeds(self.evaluated(state).arm.d, state.qd_a, state.qd_c)
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
        f1t = commands[0] - friction_force(self.pf1, w1)
        f2t = max(0.0, commands[1] - friction_force(self.pf2, w2))
        return f1t, f2t

    # -- derivative -------------------------------------------------------

    def _deriv(self, s, f: Forces, f1t, f2t):
        """ds/dt of s = (q_a, q_c, qd_a, qd_c, cy, cz, cvy, cvz), f = the
        forces at s.

        f1t/f2t are the transmitted actuator forces, already net of plant
        friction for this control period.
        """
        qd_a, qd_c, cvy, cvz = s[2], s[3], s[6], s[7]
        ax, az = f.acom
        a = f.arm
        if a is None:
            return (0.0, 0.0, 0.0, 0.0, cvy, cvz, ax, az)

        g_a, g_c = a.g
        tau_act_a, tau_act_c = joint_torques(a.d, f1t, f2t)
        j11, j12, j21, j22 = a.jac
        hx, hz = f.harness
        tau_h_a = -(j11 * hx + j21 * hz)
        tau_h_c = -(j12 * hx + j22 * hz)

        m11, m12, m22 = a.inertia
        gamma_p = a.dm12
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
        """One RK4 step; joint limits applied as hard stops afterwards.  A
        transfer's brake holds the mast, so its RK4 integrates only the boom's
        (q_c, qd_c) and q_a, qd_a, com and vcom keep their values.  The new
        state carries its evaluation, which the next step's first stage
        reads, and the transmitted forces this step applied (``applied``).

        The 2-DOF stages are written out, one scalar per state entry: a zip
        comprehension over the 8-state vector cost 4x as much per stage.
        tests/test_engine.py keeps that comprehension as an oracle and checks
        that the two agree bit for bit."""
        f1, f2 = self.transmitted_forces(state, commands) if self.attached else (0.0, 0.0)
        t = state.t
        try:
            if self.is_transfer:
                # the boom about C carrying the payload at E, the mast held at
                # q_a: qdd_c = (tau_c - g_c - payload_weight*dE_z/dq_c - d_c*qd_c)/m_eff
                boom, q_a = self.arm.boom, state.q_a
                s2, w, d_c, m_eff = DRIVE_SIGN[1], self.payload_weight, self.d_c, self.m_eff

                def qdd_c(d2, g_c, dez, v):
                    # tau_c is joint_torques' belt term, in its product order
                    return (s2 * d2 * f2 - g_c - w * dez - d_c * v) / m_eff

                q1, v1 = state.q_c, state.qd_c
                a = self.evaluated(state).arm
                k1 = qdd_c(a.d[1], a.g[1], a.jac[3], v1)
                h2 = dt / 2.0
                q2, v2 = q1 + h2 * v1, v1 + h2 * k1
                k2 = qdd_c(*boom(q_a, q2), v2)
                q3, v3 = q1 + h2 * v2, v1 + h2 * k2
                k3 = qdd_c(*boom(q_a, q3), v3)
                q4, v4 = q1 + dt * v3, v1 + dt * k3
                k4 = qdd_c(*boom(q_a, q4), v4)
                h6 = dt / 6.0
                q_c = q1 + h6 * (v1 + 2.0 * v2 + 2.0 * v3 + v4)
                qd_c = v1 + h6 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                qd_a, (cy, cz), (cvy, cvz) = state.qd_a, state.com, state.vcom
            else:
                s = state.vector()
                qa, qc, va, vc, y, z, vy, vz = s
                forces, deriv = self.forces, self._deriv
                dqa1, dqc1, dva1, dvc1, dy1, dz1, dvy1, dvz1 = deriv(
                    s, self.evaluated(state), f1, f2)
                h2 = dt / 2.0
                s2 = (qa + h2 * dqa1, qc + h2 * dqc1, va + h2 * dva1, vc + h2 * dvc1,
                      y + h2 * dy1, z + h2 * dz1, vy + h2 * dvy1, vz + h2 * dvz1)
                dqa2, dqc2, dva2, dvc2, dy2, dz2, dvy2, dvz2 = deriv(
                    s2, forces(t + h2, s2), f1, f2)
                s3 = (qa + h2 * dqa2, qc + h2 * dqc2, va + h2 * dva2, vc + h2 * dvc2,
                      y + h2 * dy2, z + h2 * dz2, vy + h2 * dvy2, vz + h2 * dvz2)
                dqa3, dqc3, dva3, dvc3, dy3, dz3, dvy3, dvz3 = deriv(
                    s3, forces(t + h2, s3), f1, f2)
                s4 = (qa + dt * dqa3, qc + dt * dqc3, va + dt * dva3, vc + dt * dvc3,
                      y + dt * dy3, z + dt * dz3, vy + dt * dvy3, vz + dt * dvz3)
                dqa4, dqc4, dva4, dvc4, dy4, dz4, dvy4, dvz4 = deriv(
                    s4, forces(t + dt, s4), f1, f2)
                h6 = dt / 6.0
                q_a = qa + h6 * (dqa1 + 2.0 * dqa2 + 2.0 * dqa3 + dqa4)
                q_c = qc + h6 * (dqc1 + 2.0 * dqc2 + 2.0 * dqc3 + dqc4)
                qd_a = va + h6 * (dva1 + 2.0 * dva2 + 2.0 * dva3 + dva4)
                qd_c = vc + h6 * (dvc1 + 2.0 * dvc2 + 2.0 * dvc3 + dvc4)
                cy = y + h6 * (dy1 + 2.0 * dy2 + 2.0 * dy3 + dy4)
                cz = z + h6 * (dz1 + 2.0 * dz2 + 2.0 * dz3 + dz4)
                cvy = vy + h6 * (dvy1 + 2.0 * dvy2 + 2.0 * dvy3 + dvy4)
                cvz = vz + h6 * (dvz1 + 2.0 * dvz2 + 2.0 * dvz3 + dvz4)
        except (ValueError, OverflowError) as exc:
            # a non-finite stage state reached a math function before the guard
            raise NumericalDivergence(f"{exc} in an RK4 stage at t={t:.3f}s") from exc
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

        if not all(map(math.isfinite, (q_a, q_c, qd_a, qd_c, cy, cz, cvy, cvz))):
            raise NumericalDivergence(f"non-finite state at t={t:.3f}s")
        if abs(qd_a) > 50.0 or abs(qd_c) > 50.0 or abs(cvy) > 20.0 or abs(cvz) > 20.0:
            raise NumericalDivergence(f"runaway velocity at t={t:.3f}s")

        new = SimState(t + dt, q_a, q_c, qd_a, qd_c, (cy, cz), (cvy, cvz))
        new.forces = self.forces(new.t, new.vector())
        new.applied = (f1, f2)
        return new

    def mechanical_energy(self, state: SimState) -> float:
        """Arm kinetic + potential energy (human terms excluded)."""
        m11, m12, m22 = self.arm.at(state.q_a, state.q_c).inertia
        ke = 0.5 * (m11 * state.qd_a**2 + 2.0 * m12 * state.qd_a * state.qd_c
                    + m22 * state.qd_c**2)
        return ke + gravity_potential(self.geom, self.masses, state.q_a, state.q_c)


# ---------------------------------------------------------------------------
# scenario execution


def _initial_state(scenario: Scenario) -> SimState:
    """Start state: the person seated, the attached arm at the harness's
    attach point above the seated CoM."""
    if scenario.human is not None:
        com0 = scenario.human.seated_com
        if not scenario.robot_attached:
            return SimState(com=com0)
        q0 = inverse_kinematics(scenario.geom, scenario.harness.attach_point(com0))
        return SimState(q_a=q0.q_a, q_c=q0.q_c, com=com0)
    # the arm alone: the transfer's arc start, or the given pose
    tr = scenario.transfer
    q0 = (JointState(tr.q_a_locked, tr.q_c_start) if tr is not None
          else scenario.initial_q or JointState(0.2, 0.0))
    return SimState(q_a=q0.q_a, q_c=q0.q_c)


def run_scenario(scenario: Scenario) -> SimLog:
    """Execute the scenario and return the complete fixed-rate log."""
    plant = Plant(scenario)
    schedule = plant.schedule
    state = _initial_state(scenario)
    mode_config, user = scenario.mode_config, scenario.human
    # the field is armed at the attach point; only modes with a person read it
    e_yi = scenario.harness.attach_point(user.seated_com)[0] if user else 0.0

    dt = scenario.dt
    n_steps = int(round(schedule.total / dt))
    is_transfer = plant.is_transfer
    rehab_ctrl = plant.attached and not is_transfer
    integral = 0.0  # the transfer's PI belt-speed integral
    specs = (plant.spec1, plant.spec2)
    allow_peak = scenario.allow_peak
    brake = float(is_transfer)
    zeros4, zeros6, zeros12 = (0.0,) * 4, (0.0,) * 6, (0.0,) * 12

    # one row per channel, so each channel is a contiguous view of this one
    # array; each sample is packed whole into a row-major block of samples,
    # and each full block, then the last partial one, is copied in transposed
    # (storing a sample straight into the log wrote 40 cells 8 * n_steps
    # bytes apart)
    rows = np.zeros((len(CHANNELS), n_steps))
    sample = struct.Struct(f"{len(CHANNELS)}d")
    pack, size = sample.pack_into, sample.size
    block = max(1, CSV_BLOCK_CELLS // len(CHANNELS))
    buf = np.empty((block, len(CHANNELS)))
    at, full = 0, block * size  # the byte offset of the next sample in buf
    for i in range(n_steps):
        # the plant reads the same cursor; all lookups come at non-decreasing t
        seg = schedule.segment_at(state.t)

        f1_cmd = f2_cmd = 0.0
        sat1 = sat2 = False
        v2_ref = 0.0
        stages = zeros6
        if rehab_ctrl:
            arm = plant.evaluated(state).arm
            desired = desired_force_field(mode_config, user, e_yi, arm.e[0])
            cmd = force_controller_step(arm, specs, plant.ctrl_frictions, desired,
                                        plant.motor_speeds(state), allow_peak=allow_peak)
            f1_cmd, f2_cmd, sat1, sat2 = cmd.f1, cmd.f2, cmd.saturated_1, cmd.saturated_2
            stages = (*desired, cmd.f1_map, cmd.f2_map, cmd.f1_fric, cmd.f2_fric)
        elif is_transfer:
            if seg.phase == PHASE_RISE:
                v_z_signed = scenario.transfer.v_z_target
            elif seg.phase == PHASE_DESCENT:
                v_z_signed = -scenario.transfer.v_z_target
            else:
                v_z_signed = 0.0
            arm = plant.evaluated(state).arm
            (f2_cmd, sat2, v2_ref), integral = speed_controller_step(
                arm, plant.spec2, scenario.transfer, arm.d[1] * state.qd_c, dt, integral,
                v_z_signed=v_z_signed,
            )

        state = plant.step(state, (f1_cmd, f2_cmd), dt)

        # log the new sample, in CHANNELS order, from the evaluation the step
        # made of it; a detached arm never moves and an absent human never
        # acts, so their channels stay 0
        f = state.forces
        effector, drives, v2_belt = zeros4, zeros4, 0.0
        if plant.attached:
            arm = f.arm
            effector = arm.e + arm.ev
            d1, d2 = arm.d
            v2_belt = d2 * state.qd_c
            drives = (float(velocity_exceeded(plant.spec1, d1 * state.qd_a, allow_peak)),
                      float(velocity_exceeded(plant.spec2, v2_belt, allow_peak)), *state.applied)
        human = zeros12
        if plant.has_human:
            human = (*f.harness, *state.com, *state.vcom, *f.acom, f.chair_fz, *f.feet,
                     float(f.chair_fz <= 0.0))
        pack(buf, at, state.t, seg.rep, seg.phase, state.q_a, state.q_c, state.qd_a, state.qd_c,
             *effector, *stages, f1_cmd, f2_cmd, float(sat1), float(sat2), *drives,
             v2_belt, v2_ref, *human, brake)
        at += size
        if at == full:
            rows[:, i + 1 - block:i + 1] = buf.T
            at = 0
    if at:
        k = at // size
        rows[:, n_steps - k:] = buf[:k].T

    data = dict(zip(CHANNELS, rows))
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
        "duration": scenario.sts_duration,
        "v_z_target": scenario.transfer.v_z_target if is_transfer else 0.0,
    }
    return SimLog(scenario.dt, data, meta)

