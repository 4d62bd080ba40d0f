"""Scenario configuration: a flat ``key = value`` text format with a typed
schema, plus validation and the run manifest.

All numbers are SI.  Unknown keys are errors; every value left out resolves
to its schema default, and the fully resolved mapping is what lands in the
manifest so a run can be reproduced from the manifest alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .actuators import (DEFAULT_FRICTION_1, DEFAULT_FRICTION_2_HF, DEFAULT_FRICTION_2_HS,
                        FrictionModel)
from .analysis import validate_map_grid
from .control import AssistMode, AssistModeConfig, TransferConfig
from .engine import Scenario, TransferScenario
from .errors import ConfigError
from .human import ChairModel, HarnessModel, HumanParams
from .kinematics import ARRAY_MATH, Arm, LinkMassModel, RobotGeometry

_MODES = [m.value for m in AssistMode] + ["transfer"]

# key -> default, whose type is the key's; read from the object that uses it,
# a literal where none does.  The transfer warning lists keys in this order.
SCHEMA: dict[str, object] = {
    "mode": "follow_me",
    "fz_pct": AssistModeConfig.fz_pct,
    "ky": AssistModeConfig.ky,
    "clamp_forward_only": AssistModeConfig.clamp_forward_only,
    "seed": Scenario.seed,
    "dt": Scenario.dt,
    "repetitions": 3,  # a session of three; Scenario runs one unless told otherwise
    "pause": Scenario.pause,
    "settle": Scenario.settle,
    "rep_jitter": Scenario.rep_jitter,
    "robot_attached": Scenario.robot_attached,
    "allow_peak": Scenario.allow_peak,
    "payload": TransferScenario.payload,
    "human.enabled": True,
    "human.height": 1.75,
    "human.mass": 81.13,
    "human.mobility": HumanParams.mobility,
    "human.seat_height": HumanParams.seat_height,
    "human.standing_z_factor": HumanParams.standing_z_factor,
    "chair_y": HumanParams.chair_y,
    "sts.duration": Scenario.sts_duration,
    "harness.stiffness": HarnessModel.stiffness,
    "harness.damping": HarnessModel.damping,
    "harness.offset_y": HarnessModel.rest_offset[0],
    "harness.offset_z": HarnessModel.rest_offset[1],
    "chair.stiffness": ChairModel.stiffness,
    "chair.damping": ChairModel.damping,
    "chair.support_cap": ChairModel.support_cap,
    "chair.seat_depth": ChairModel.seat_depth,
    "chair.edge_taper": ChairModel.edge_taper,
    "chair.edge_offset": ChairModel.edge_offset,
    "geometry.l_ab": RobotGeometry.l_ab,
    "geometry.l_ac": RobotGeometry.l_ac,
    "geometry.l_ce": RobotGeometry.l_ce,
    "geometry.l_cd": RobotGeometry.l_cd,
    "geometry.base_height": RobotGeometry.base_height,
    "geometry.p1_y": RobotGeometry.p1[0],
    "geometry.p1_z": RobotGeometry.p1[1],
    "geometry.d_g": RobotGeometry.d_g,
    "geometry.stroke_1": RobotGeometry.stroke_1,
    "geometry.q_a_min": RobotGeometry.q_a_limits[0],
    "geometry.q_a_max": RobotGeometry.q_a_limits[1],
    "geometry.q_c_min": RobotGeometry.q_c_limits[0],
    "geometry.q_c_max": RobotGeometry.q_c_limits[1],
    "masses.m_h": LinkMassModel.m_h,
    "masses.m_v": LinkMassModel.m_v,
    "damping.q_a": Scenario.damping[0],
    "damping.q_c": Scenario.damping[1],
    "transfer.v_z": TransferConfig.v_z_target,
    "transfer.q_a_locked": TransferConfig.q_a_locked,
    "transfer.q_c_start": TransferConfig.q_c_start,
    "transfer.q_c_end": TransferConfig.q_c_end,
    "transfer.kp": TransferConfig.kp,
    "transfer.ki": TransferConfig.ki,
    "friction.act1.a": DEFAULT_FRICTION_1.a,
    "friction.act1.b": DEFAULT_FRICTION_1.b,
    "friction.act2_hs.a": DEFAULT_FRICTION_2_HS.a,
    "friction.act2_hs.b": DEFAULT_FRICTION_2_HS.b,
    "friction.act2_hf.a": DEFAULT_FRICTION_2_HF.a,
    "friction.act2_hf.b": DEFAULT_FRICTION_2_HF.b,
    # plant-side overrides; negative means "same as controller model"
    "plant_friction.act1.a": -1.0,
    "plant_friction.act1.b": -1.0,
    "plant_friction.act2_hs.a": -1.0,
    "plant_friction.act2_hs.b": -1.0,
    "plant_friction.act2_hf.a": -1.0,
    "plant_friction.act2_hf.b": -1.0,
    "map.configuration": "rehab",
    "map.y_min": -0.2,
    "map.y_max": 1.0,
    "map.z_min": 0.2,
    "map.z_max": 1.4,
    "map.step": 0.02,
    "map.requirement": -1.0,
}


def _coerce(key: str, raw: str):
    default = SCHEMA[key]
    raw = raw.strip()
    try:
        if isinstance(default, bool):
            if raw.lower() in ("true", "1", "yes", "on"):
                return True
            if raw.lower() in ("false", "0", "no", "off"):
                return False
            raise ValueError(raw)
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            value = float(raw)
            if not math.isfinite(value):
                raise ConfigError(f"key '{key}': {raw!r} is not a finite number")
            return value
        return raw
    except ValueError as exc:
        kind = type(default).__name__
        raise ConfigError(f"key '{key}': cannot parse {raw!r} as {kind}") from exc


def parse_config_text(text: str) -> dict:
    """Parse ``key = value`` lines into a fully resolved mapping."""
    resolved = dict(SCHEMA)
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        resolved[key] = _coerce(key, raw)
    return resolved


def load_config(path) -> dict:
    """Load a config file; a .json file is treated as a manifest snapshot."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not a text file") from exc
    if str(path).endswith(".json"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
        cfg = doc.get("config", doc) if isinstance(doc, dict) else doc
        if not isinstance(cfg, dict):
            raise ConfigError(f"{path}: expected a JSON object of config keys")
        unknown = set(cfg) - set(SCHEMA)
        if unknown:
            raise ConfigError(f"manifest carries unknown keys: {sorted(unknown)}")
        resolved = dict(SCHEMA)
        # str() of a JSON scalar is its config-file spelling (floats repr
        # round-trip), so manifest values pass the same type check as text
        resolved.update((k, _coerce(k, str(v))) for k, v in cfg.items())
        return resolved
    return parse_config_text(text)


# ---------------------------------------------------------------------------
# building runtime objects


def build_geometry(cfg: dict) -> RobotGeometry:
    return RobotGeometry(
        l_ab=cfg["geometry.l_ab"], l_ac=cfg["geometry.l_ac"],
        l_ce=cfg["geometry.l_ce"], l_cd=cfg["geometry.l_cd"],
        base_height=cfg["geometry.base_height"],
        p1=(cfg["geometry.p1_y"], cfg["geometry.p1_z"]),
        d_g=cfg["geometry.d_g"],
        q_a_limits=(cfg["geometry.q_a_min"], cfg["geometry.q_a_max"]),
        q_c_limits=(cfg["geometry.q_c_min"], cfg["geometry.q_c_max"]),
        stroke_1=cfg["geometry.stroke_1"],
    )


def build_scenario(cfg: dict) -> Scenario | TransferScenario:
    """The scenario ``mode`` names, built from only the keys it reads."""
    mode = cfg["mode"]
    if mode not in _MODES:
        raise ConfigError(f"mode must be one of {_MODES}, got '{mode}'")
    # robot_attached is a 2-DOF run's field and payload a transfer's: the
    # other kind holds each as a constant and refuses any other value
    is_transfer = mode == "transfer"
    if is_transfer and not cfg["robot_attached"]:
        raise ConfigError("transfer requires the robot")
    if not is_transfer and cfg["payload"] != 0.0:
        raise ConfigError("payload requires the transfer configuration")
    geom = build_geometry(cfg)
    ctrl, plant = [], []
    for stem in ("act1", "act2_hs", "act2_hf"):
        a, b = cfg[f"friction.{stem}.a"], cfg[f"friction.{stem}.b"]
        pa, pb = cfg[f"plant_friction.{stem}.a"], cfg[f"plant_friction.{stem}.b"]
        ctrl.append(FrictionModel(a, b))
        plant.append(FrictionModel(a if pa < 0.0 else pa, b if pb < 0.0 else pb))
    # the fields every run reads
    run = dict(geom=geom, repetitions=cfg["repetitions"], pause=cfg["pause"], dt=cfg["dt"],
               seed=cfg["seed"], allow_peak=cfg["allow_peak"], settle=cfg["settle"],
               masses=LinkMassModel.for_geometry(geom, cfg["masses.m_h"], cfg["masses.m_v"]),
               damping=(cfg["damping.q_a"], cfg["damping.q_c"]),
               ctrl_frictions=tuple(ctrl), plant_frictions=tuple(plant))
    if is_transfer:
        return TransferScenario(**run, payload=cfg["payload"], transfer=TransferConfig(
            v_z_target=cfg["transfer.v_z"], q_a_locked=cfg["transfer.q_a_locked"],
            kp=cfg["transfer.kp"], ki=cfg["transfer.ki"],
            q_c_start=cfg["transfer.q_c_start"], q_c_end=cfg["transfer.q_c_end"],
        ))
    human = None
    if cfg["human.enabled"]:
        human = HumanParams(
            height=cfg["human.height"], mass=cfg["human.mass"],
            mobility=cfg["human.mobility"], seat_height=cfg["human.seat_height"],
            chair_y=cfg["chair_y"], standing_z_factor=cfg["human.standing_z_factor"],
        )
    return Scenario(
        **run,
        human=human,
        chair=ChairModel(
            stiffness=cfg["chair.stiffness"], damping=cfg["chair.damping"],
            support_cap=cfg["chair.support_cap"], seat_depth=cfg["chair.seat_depth"],
            edge_taper=cfg["chair.edge_taper"], edge_offset=cfg["chair.edge_offset"],
        ),
        harness=HarnessModel(
            stiffness=cfg["harness.stiffness"], damping=cfg["harness.damping"],
            rest_offset=(cfg["harness.offset_y"], cfg["harness.offset_z"]),
        ),
        mode_config=AssistModeConfig(AssistMode(mode), fz_pct=cfg["fz_pct"], ky=cfg["ky"],
                                     clamp_forward_only=cfg["clamp_forward_only"]),
        sts_duration=cfg["sts.duration"],
        robot_attached=cfg["robot_attached"],
        rep_jitter=cfg["rep_jitter"],
    )


# ---------------------------------------------------------------------------
# validation


@dataclass
class ValidationReport:
    errors: list[str]
    warnings: list[str]
    scenario: Scenario | TransferScenario | None = None  # the one it built, if it validated

    @property
    def ok(self) -> bool:
        return not self.errors


# the keys a transfer never reads (as key prefixes): it builds no human, chair,
# harness or assist mode config, draws no duration jitter, and its arc at
# transfer.v_z sets the rise time
_TRANSFER_IGNORES = ("fz_pct", "ky", "clamp_forward_only", "rep_jitter", "sts.duration",
                     "chair_y", "human.", "chair.", "harness.")


def validate_config(cfg: dict) -> ValidationReport:
    """Build and validate the runtime objects, reporting the errors their own
    rules raise, then add the one check no object owns: the strut-stroke
    warning.  Nothing is simulated."""
    errors: list[str] = []
    warnings: list[str] = []
    if cfg["mode"] == "transfer":
        ignored = [k for k, default in SCHEMA.items()
                   if k.startswith(_TRANSFER_IGNORES) and cfg[k] != default]
        if ignored:
            warnings.append("transfer ignores " + ", ".join(ignored))
    try:
        validate_map_grid(cfg["map.configuration"], (cfg["map.y_min"], cfg["map.y_max"]),
                          (cfg["map.z_min"], cfg["map.z_max"]), cfg["map.step"])
    except ValueError as exc:
        errors.append(f"map: {exc}")
    try:
        scenario = build_scenario(cfg)
        scenario.validate()
    except (ConfigError, ValueError) as exc:
        errors.append(str(exc))
        return ValidationReport(errors, warnings)

    # strut travel across the q_a range must fit the ball-screw stroke; where
    # the strut has zero length (p1 on B's circle) Arm.at's d is 0/0, unread here
    n = 200
    geom = scenario.geom
    lo, hi = geom.q_a_limits
    q_a = lo + (hi - lo) * np.arange(n + 1) / n
    with np.errstate(all="ignore"):
        lengths = Arm(geom, scenario.resolved_masses()).at(
            q_a, np.zeros(n + 1), ops=ARRAY_MATH).lengths[0]
    travel = lengths.max() - lengths.min()
    if travel > geom.stroke_1:
        warnings.append(
            f"strut travel {travel:.3f} m over the q_a range exceeds stroke_1 "
            f"{geom.stroke_1:.3f} m")
    return ValidationReport(errors, warnings, scenario)
