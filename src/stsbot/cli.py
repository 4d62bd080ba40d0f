"""Command-line runner: simulate scenarios, compute capability maps, analyze
logs and validate configurations.  Each command writes its outputs through
``_outputs``, so a command that fails leaves its out directory as it was.

Exit codes: 0 success, 2 configuration/validation error or an output that
cannot be written, 3 numerical divergence during integration.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from contextlib import ExitStack, closing, contextmanager, suppress
from pathlib import Path

import numpy as np

from . import __version__
from .actuators import DRIVES, engaged_pair
from .analysis import (  # noqa: F401  measured_assistance: perfbench times calls by name
    MASK_LEGEND,
    capability_map,
    measured_assistance,
    measured_assistance_per_rep,
    metric_channels,
    sts_metrics,
    transfer_speed_table,
)
from .config import load_config, validate_config
from .engine import Scenario, run_scenario
from .errors import ConfigError, DegenerateInput, NumericalDivergence, StsBotError
from .simlog import CsvSink, csv_rows, read_log

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
JSON_STYLE = dict(indent=2, sort_keys=True, allow_nan=False)  # NaN raises, never written


def _out_root(args) -> Path:
    return Path(args.out or os.environ.get("STSBOT_OUT_ROOT", "stsbot_out"))


def _say(line: str, stream=None) -> None:
    """Print a status line to ``stream`` (stdout by default).  A line that
    cannot be printed, say to a closed pipe, is dropped: it changes neither
    the exit code nor the outputs."""
    with suppress(OSError):  # flushed, so a closed pipe fails here and not at exit
        print(line, file=stream or sys.stdout, flush=True)


class _Output:
    """An output's part file, whose OSErrors name it (a full disk's names no file)."""

    def __init__(self, part: Path, path: Path):
        self.fh, self.path = open(part, "w", newline="\n"), str(path)

    def __getattr__(self, name: str):
        def named(*args):
            try:
                return getattr(self.fh, name)(*args)
            except OSError as exc:
                exc.filename = exc.filename or self.path
                raise
        return named


@contextmanager
def _outputs(args, *names: str):
    """Open text files for ``names`` in the out directory, each written as
    NAME.part and renamed only once the ``with`` body has written them all.
    A name that is a directory is refused before anything is made.  On any
    failure, the renames included, the part files and the directories made
    for them are removed and the error is raised again."""
    out = _out_root(args)
    for name in names:
        if (out / name).is_dir():  # found before a run, not after it
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(out / name))
    made = [d for d in (out, *out.parents) if not d.exists()]
    parts = [out / f"{name}.part" for name in names]
    try:
        out.mkdir(parents=True, exist_ok=True)
        with ExitStack() as stack:
            yield [stack.enter_context(closing(_Output(p, out / n))) for p, n in zip(parts, names)]
        for part, name in zip(parts, names):
            os.replace(part, out / name)
    except BaseException:
        for undo in [part.unlink for part in parts] + [d.rmdir for d in made]:
            # each can raise (under a file, --out afile/x), but the first error is the one raised
            with suppress(OSError):
                undo()
        raise


def _manifest(command: str, cfg: dict, outputs: list[str]) -> str:
    manifest = {
        "tool": "stsbot",
        "version": __version__,
        "command": command,
        "seed": cfg["seed"],
        "config": cfg,
        "outputs": outputs,
    }
    return json.dumps(manifest, **JSON_STYLE) + "\n"


def _checked(cfg: dict, stream) -> Scenario | None:
    """Print ``cfg``'s warnings and errors to ``stream``; its scenario, or None on errors."""
    report = validate_config(cfg)
    for w in report.warnings:
        _say(f"warning: {w}", stream)
    for e in report.errors:
        _say(f"error: {e}", stream)
    return report.scenario if report.ok else None


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed
    scenario = _checked(cfg, sys.stderr)
    if scenario is None:
        return EXIT_CONFIG
    with _outputs(args, "log.csv", "manifest.json") as (log, manifest):
        samples = run_scenario(scenario, CsvSink(log, scenario))
        manifest.write(_manifest("simulate", cfg, ["log.csv"]))
    _say(f"wrote {_out_root(args) / 'log.csv'} ({samples} samples)")
    return EXIT_OK


def _cmd_map(args) -> int:
    cfg = load_config(args.config)
    scenario = _checked(cfg, sys.stderr)
    if scenario is None:
        return EXIT_CONFIG
    configuration = cfg["map.configuration"]
    requirement = cfg["map.requirement"]
    with _outputs(args, "map.csv", "map.json", "manifest.json") as (grid, grid_meta, manifest):
        cmap = capability_map(
            scenario.geom, scenario.resolved_masses(),
            *engaged_pair(configuration == "transfer", DRIVES),
            configuration=configuration,
            y_range=(cfg["map.y_min"], cfg["map.y_max"]),
            z_range=(cfg["map.z_min"], cfg["map.z_max"]),
            step=cfg["map.step"],
            requirement=None if requirement < 0 else requirement,
        )
        meta = {
            "configuration": configuration,
            "requirement_N": cmap.requirement,
            "mask_legend": {str(code): name for code, name in MASK_LEGEND.items()},
            "grid": {"y_min": cfg["map.y_min"], "y_max": cfg["map.y_max"],
                     "z_min": cfg["map.z_min"], "z_max": cfg["map.z_max"],
                     "step": cfg["map.step"]},
        }
        # one row per cell, y fastest; the integer mask codes print as their floats do
        ny, nz = len(cmap.ys), len(cmap.zs)
        grid.write("y_m,z_m,fz_max_N,mask\n")
        grid.writelines(csv_rows([np.tile(cmap.ys, nz), np.repeat(cmap.zs, ny),
                                  cmap.value.ravel(), cmap.mask.ravel()]))
        grid_meta.write(json.dumps(meta, **JSON_STYLE) + "\n")
        manifest.write(_manifest("map", cfg, ["map.csv", "map.json"]))
    _say(f"wrote {_out_root(args) / 'map.csv'}")
    return EXIT_OK


def _metrics(log) -> str:
    """The text of a run's metrics.json."""
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
        return json.dumps(summary, **JSON_STYLE) + "\n"
    except ValueError as exc:
        raise DegenerateInput("a metric is not a finite number") from exc


def _cmd_analyze(args) -> int:
    with _outputs(args, "metrics.json") as (metrics,):
        # read as a run's log: its header must name every channel, but only
        # the ones the metrics of the log's mode read are decoded
        log = read_log(args.log, decode=metric_channels)
        try:
            text = _metrics(log)
        except StsBotError as exc:  # a repetition or phase missing, or a metric not finite
            raise ConfigError(f"{args.log}: {exc}") from exc
        metrics.write(text)
    _say(f"wrote {_out_root(args) / 'metrics.json'}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    if _checked(load_config(args.config), sys.stdout) is None:
        return EXIT_CONFIG
    _say("configuration ok")
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
    except NumericalDivergence as exc:
        error, code = f"simulation diverged: {exc}", EXIT_DIVERGED
    except StsBotError as exc:
        error, code = exc, EXIT_CONFIG
    except OSError as exc:
        # an input that cannot be read raises ConfigError and a status line
        # that cannot be printed is dropped, so this is an output, which
        # _Output, mkdir and os.replace name
        path = exc.filename2 or exc.filename
        error, code = f"cannot write {path}: {exc.strerror or exc}", EXIT_CONFIG
    _say(f"error: {error}", sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
