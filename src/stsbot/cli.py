"""Command-line runner: simulate scenarios, compute capability maps, analyze
logs and validate configurations.

Exit codes: 0 success, 2 configuration/validation error, 3 numerical
divergence during integration.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .actuators import DRIVES, engaged_pair
from .analysis import (  # noqa: F401  measured_assistance: perfbench times calls by name
    MASK_LEGEND,
    capability_map,
    measured_assistance,
    measured_assistance_per_rep,
    sts_metrics,
    transfer_speed_table,
)
from .config import load_config, validate_config
from .engine import CHANNELS, Scenario, SimLog, csv_rows, run_scenario
from .errors import ConfigError, NumericalDivergence, StsBotError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
JSON_STYLE = dict(indent=2, sort_keys=True, allow_nan=False)  # NaN raises, never written


def _out_dir(args) -> Path:
    root = args.out or os.environ.get("STSBOT_OUT_ROOT", "stsbot_out")
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_manifest(out: Path, command: str, cfg: dict, seed: int, outputs: list[str]) -> None:
    manifest = {
        "tool": "stsbot",
        "version": __version__,
        "command": command,
        "seed": seed,
        "config": cfg,
        "outputs": outputs,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, **JSON_STYLE) + "\n")


def _checked(cfg: dict, stream) -> Scenario | None:
    """Print ``cfg``'s warnings and errors to ``stream``; its scenario, or None on errors."""
    report = validate_config(cfg)
    for w in report.warnings:
        print(f"warning: {w}", file=stream)
    for e in report.errors:
        print(f"error: {e}", file=stream)
    return report.scenario if report.ok else None


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed
    scenario = _checked(cfg, sys.stderr)
    if scenario is None:
        return EXIT_CONFIG
    log = run_scenario(scenario)
    out = _out_dir(args)
    log.write_csv(out / "log.csv")
    _write_manifest(out, "simulate", cfg, cfg["seed"], ["log.csv"])
    print(f"wrote {out / 'log.csv'} ({len(log)} samples)")
    return EXIT_OK


def _cmd_map(args) -> int:
    cfg = load_config(args.config)
    scenario = _checked(cfg, sys.stderr)
    if scenario is None:
        return EXIT_CONFIG
    configuration = cfg["map.configuration"]
    requirement = cfg["map.requirement"]
    cmap = capability_map(
        scenario.geom, scenario.resolved_masses(),
        *engaged_pair(configuration == "transfer", DRIVES),
        configuration=configuration,
        y_range=(cfg["map.y_min"], cfg["map.y_max"]),
        z_range=(cfg["map.z_min"], cfg["map.z_max"]),
        step=cfg["map.step"],
        requirement=None if requirement < 0 else requirement,
    )
    out = _out_dir(args)
    # one row per cell, y fastest; the integer mask codes print as their floats do
    ny, nz = len(cmap.ys), len(cmap.zs)
    with open(out / "map.csv", "w", newline="\n") as fh:
        fh.write("y_m,z_m,fz_max_N,mask\n")
        fh.writelines(csv_rows([np.tile(cmap.ys, nz), np.repeat(cmap.zs, ny),
                                cmap.value.ravel(), cmap.mask.ravel()]))
    meta = {
        "configuration": configuration,
        "requirement_N": cmap.requirement,
        "mask_legend": {str(code): name for code, name in MASK_LEGEND.items()},
        "grid": {"y_min": cfg["map.y_min"], "y_max": cfg["map.y_max"],
                 "z_min": cfg["map.z_min"], "z_max": cfg["map.z_max"],
                 "step": cfg["map.step"]},
    }
    (out / "map.json").write_text(json.dumps(meta, **JSON_STYLE) + "\n")
    _write_manifest(out, "map", cfg, cfg["seed"], ["map.csv", "map.json"])
    print(f"wrote {out / 'map.csv'}")
    return EXIT_OK


def _cmd_analyze(args) -> int:
    log = SimLog.from_csv(args.log)
    if missing := [name for name in CHANNELS if name not in log.data]:
        raise ConfigError(f"{args.log}: no {', '.join(missing)} column")
    summary: dict = {"meta": log.meta, "samples": len(log)}
    if log.meta.get("mode") == "transfer":
        payload = log.meta.get("payload", 0.0)
        up, down = transfer_speed_table({payload: log})[payload]
        summary["transfer"] = {"payload_kg": payload,
                               "lifting_speed_m_s": up, "lowering_speed_m_s": down}
    else:
        height = log.meta.get("height", 0.0)
        weight = log.meta.get("weight", 0.0)
        if weight > 0.0:
            reps = sts_metrics(log)
            summary["repetitions"] = [vars(m) for m in reps]
            if height > 0.0:
                summary["repetitions_normalized"] = [
                    vars(m.normalized(height, weight)) for m in reps]
            per_rep = measured_assistance_per_rep(log, weight)
            # measured_assistance's own expression, from the one per-rep list
            summary["measured_assistance"] = float(np.mean(per_rep))
            summary["measured_assistance_per_rep"] = per_rep
            summary["target_assistance"] = log.meta.get("fz_pct", 0.0)
    try:
        text = json.dumps(summary, **JSON_STYLE)
    except ValueError as exc:
        raise ConfigError(f"{args.log}: a metric is not a finite number") from exc
    out = _out_dir(args)
    (out / "metrics.json").write_text(text + "\n")
    print(f"wrote {out / 'metrics.json'}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    if _checked(load_config(args.config), sys.stdout) is None:
        return EXIT_CONFIG
    print("configuration ok")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stsbot",
        description="Simulator and analysis suite for a 2-DOF sit-to-stand assistance robot",
    )
    parser.add_argument("--version", action="version", version=f"stsbot {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a scenario and write the CSV log")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", default=None)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.set_defaults(func=_cmd_simulate)

    p_map = sub.add_parser("map", help="compute a workspace capability map")
    p_map.add_argument("--config", required=True)
    p_map.add_argument("--out", default=None)
    p_map.set_defaults(func=_cmd_map)

    p_an = sub.add_parser("analyze", help="compute metrics from a simulation log")
    p_an.add_argument("--log", required=True)
    p_an.add_argument("--out", default=None)
    p_an.set_defaults(func=_cmd_analyze)

    p_val = sub.add_parser("validate", help="check a configuration without running")
    p_val.add_argument("--config", required=True)
    p_val.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalDivergence as exc:
        print(f"error: simulation diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except StsBotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
