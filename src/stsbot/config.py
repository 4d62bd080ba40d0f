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

from .actuators import FrictionModel
from .analysis import validate_map_grid
from .control import AssistMode, AssistModeConfig, TransferConfig
from .engine import Scenario
from .errors import ConfigError, OutOfJointLimits, Unreachable
from .human import ChairModel, HarnessModel, HumanParams, STSReference
from .kinematics import LinkMassModel, RobotGeometry, inverse_kinematics, strut_length

_MODES = [m.value for m in AssistMode] + ["transfer"]

# key -> (type, default); type in {"float", "int", "bool", "str"}
SCHEMA: dict[str, tuple[str, object]] = {
    "mode": ("str", "follow_me"),
    "fz_pct": ("float", 0.0),
    "ky": ("float", 0.0),
    "clamp_forward_only": ("bool", False),
    "seed": ("int", 0),
    "dt": ("float", 1e-3),
    "repetitions": ("int", 3),
    "pause": ("float", 2.0),
    "settle": ("float", 0.5),
    "rep_jitter": ("float", 0.05),
    "robot_attached": ("bool", True),
    "allow_peak": ("bool", False),
    "payload": ("float", 0.0),
    "human.enabled": ("bool", True),
    "human.height": ("float", 1.75),
    "human.mass": ("float", 81.13),
    "human.mobility": ("float", 1.0),
    "human.seat_height": ("float", 0.43),
    "human.standing_z_factor": ("float", 0.54),
    "chair_y": ("float", 0.67),
    "sts.duration": ("float", 2.0),
    "harness.stiffness": ("float", 1.0e5),
    "harness.damping": ("float", 400.0),
    "harness.offset_y": ("float", 0.0),
    "harness.offset_z": ("float", 0.03),
    "chair.stiffness": ("float", 2.0e4),
    "chair.damping": ("float", 400.0),
    "chair.support_cap": ("float", 1.2),
    "chair.seat_depth": ("float", 0.45),
    "chair.edge_taper": ("float", 0.10),
    "chair.edge_offset": ("float", 0.10),
    "geometry.l_ab": ("float", 0.38),
    "geometry.l_ac": ("float", 0.61),
    "geometry.l_ce": ("float", 0.75),
    "geometry.l_cd": ("float", 0.38),
    "geometry.base_height": ("float", 0.44),
    "geometry.p1_y": ("float", 0.25),
    "geometry.p1_z": ("float", -0.10),
    "geometry.d_g": ("float", 0.60),
    "geometry.stroke_1": ("float", 0.220),
    "geometry.q_a_min": ("float", -0.10),
    "geometry.q_a_max": ("float", 0.90),
    "geometry.q_c_min": ("float", -1.20),
    "geometry.q_c_max": ("float", 0.50),
    "masses.m_h": ("float", 2.65),
    "masses.m_v": ("float", 4.91),
    "damping.q_a": ("float", 0.5),
    "damping.q_c": ("float", 0.5),
    "transfer.v_z": ("float", 0.03),
    "transfer.q_a_locked": ("float", 0.30),
    "transfer.q_c_start": ("float", 0.45),
    "transfer.q_c_end": ("float", -0.50),
    "transfer.kp": ("float", 5000.0),
    "transfer.ki": ("float", 20000.0),
    "friction.act1.a": ("float", 120.0),
    "friction.act1.b": ("float", 0.02),
    "friction.act2_hs.a": ("float", 35.0),
    "friction.act2_hs.b": ("float", 0.05),
    "friction.act2_hf.a": ("float", 15.0),
    "friction.act2_hf.b": ("float", 0.05),
    # plant-side overrides; negative means "same as controller model"
    "plant_friction.act1.a": ("float", -1.0),
    "plant_friction.act1.b": ("float", -1.0),
    "plant_friction.act2_hs.a": ("float", -1.0),
    "plant_friction.act2_hs.b": ("float", -1.0),
    "plant_friction.act2_hf.a": ("float", -1.0),
    "plant_friction.act2_hf.b": ("float", -1.0),
    "map.configuration": ("str", "rehab"),
    "map.y_min": ("float", -0.2),
    "map.y_max": ("float", 1.0),
    "map.z_min": ("float", 0.2),
    "map.z_max": ("float", 1.4),
    "map.step": ("float", 0.02),
    "map.requirement": ("float", -1.0),
}


def _coerce(key: str, raw: str):
    kind, _ = SCHEMA[key]
    raw = raw.strip()
    try:
        if kind == "float":
            value = float(raw)
            if not math.isfinite(value):
                raise ConfigError(f"key '{key}': {raw!r} is not a finite number")
            return value
        if kind == "int":
            return int(raw)
        if kind == "bool":
            if raw.lower() in ("true", "1", "yes", "on"):
                return True
            if raw.lower() in ("false", "0", "no", "off"):
                return False
            raise ValueError(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"key '{key}': cannot parse {raw!r} as {kind}") from exc


def parse_config_text(text: str) -> dict:
    """Parse ``key = value`` lines into a fully resolved mapping."""
    resolved = {k: d for k, (_, d) in SCHEMA.items()}
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
        resolved = {k: d for k, (_, d) in SCHEMA.items()}
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


def _friction(cfg: dict, stem: str, fallback: tuple[float, float] | None = None) -> FrictionModel:
    a, b = cfg[f"{stem}.a"], cfg[f"{stem}.b"]
    if fallback is not None:
        a = fallback[0] if a < 0.0 else a
        b = fallback[1] if b < 0.0 else b
    return FrictionModel(a, b)


def build_scenario(cfg: dict) -> Scenario:
    mode = cfg["mode"]
    if mode not in _MODES:
        raise ConfigError(f"mode must be one of {_MODES}, got '{mode}'")
    geom = build_geometry(cfg)
    human = None
    if cfg["human.enabled"] and mode != "transfer":
        human = HumanParams.nominal(
            height=cfg["human.height"], mass=cfg["human.mass"],
            mobility=cfg["human.mobility"], seat_height=cfg["human.seat_height"],
            chair_y=cfg["chair_y"], standing_z_factor=cfg["human.standing_z_factor"],
        )
    mode_config = None
    transfer = None
    if mode == "transfer":
        transfer = TransferConfig(
            v_z_target=cfg["transfer.v_z"], q_a_locked=cfg["transfer.q_a_locked"],
            kp=cfg["transfer.kp"], ki=cfg["transfer.ki"],
            q_c_start=cfg["transfer.q_c_start"], q_c_end=cfg["transfer.q_c_end"],
        )
    else:
        mode_config = AssistModeConfig(
            mode=AssistMode(mode), user_height=cfg["human.height"],
            user_weight=cfg["human.mass"], fz_pct=cfg["fz_pct"], ky=cfg["ky"],
            clamp_forward_only=cfg["clamp_forward_only"],
        )
    ctrl = (
        _friction(cfg, "friction.act1"),
        _friction(cfg, "friction.act2_hs"),
        _friction(cfg, "friction.act2_hf"),
    )
    plant = (
        _friction(cfg, "plant_friction.act1", (ctrl[0].a, ctrl[0].b)),
        _friction(cfg, "plant_friction.act2_hs", (ctrl[1].a, ctrl[1].b)),
        _friction(cfg, "plant_friction.act2_hf", (ctrl[2].a, ctrl[2].b)),
    )
    return Scenario(
        geom=geom,
        masses=LinkMassModel.for_geometry(geom, cfg["masses.m_h"], cfg["masses.m_v"]),
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
        mode_config=mode_config,
        transfer=transfer,
        sts=STSReference(duration=cfg["sts.duration"]),
        repetitions=cfg["repetitions"],
        pause=cfg["pause"],
        payload=cfg["payload"],
        robot_attached=cfg["robot_attached"],
        dt=cfg["dt"],
        seed=cfg["seed"],
        allow_peak=cfg["allow_peak"],
        damping=(cfg["damping.q_a"], cfg["damping.q_c"]),
        ctrl_frictions=ctrl,
        plant_frictions=plant,
        settle=cfg["settle"],
        rep_jitter=cfg["rep_jitter"],
    )


# ---------------------------------------------------------------------------
# validation


@dataclass
class ValidationReport:
    errors: list[str]
    warnings: list[str]
    scenario: Scenario | None = None  # the one it built, when Scenario.validate passed

    @property
    def ok(self) -> bool:
        return not self.errors


# the keys a transfer never reads (as key prefixes): it builds no human, chair,
# harness or assist mode config, draws no duration jitter, and its arc at
# transfer.v_z sets the rise time
_TRANSFER_IGNORES = ("fz_pct", "ky", "clamp_forward_only", "rep_jitter", "sts.duration",
                     "chair_y", "human.", "chair.", "harness.")


def validate_config(cfg: dict) -> ValidationReport:
    """Build the runtime objects, collecting the errors their own rules
    raise, then add the checks no object owns: IK reachability of the harness
    attach points and the strut stroke.  Nothing is simulated."""
    errors: list[str] = []
    warnings: list[str] = []
    if cfg["mode"] == "transfer":
        ignored = [k for k, (_, default) in SCHEMA.items()
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
    except OverflowError as exc:
        errors.append(f"a value is too large to compute with: {exc}")
        return ValidationReport(errors, warnings)

    geom = scenario.geom
    human = scenario.human
    if human is not None and scenario.robot_attached:
        off = scenario.harness.rest_offset
        for name, com in (("seated", human.seated_com), ("standing", human.standing_com)):
            target = (com[0] + off[0], com[1] + off[1])
            try:
                inverse_kinematics(geom, target)
            except (Unreachable, OutOfJointLimits) as exc:
                errors.append(
                    f"human.{name} CoM attach point {target} unreachable "
                    f"(chair_y/harness offsets): {type(exc).__name__}")

    # strut travel across the q_a range must fit the ball-screw stroke
    n = 200
    lo, hi = geom.q_a_limits
    lengths = [strut_length(geom, lo + (hi - lo) * i / n) for i in range(n + 1)]
    travel = max(lengths) - min(lengths)
    if travel > geom.stroke_1:
        warnings.append(
            f"strut travel {travel:.3f} m over the q_a range exceeds stroke_1 "
            f"{geom.stroke_1:.3f} m")
    return ValidationReport(errors, warnings, scenario)
