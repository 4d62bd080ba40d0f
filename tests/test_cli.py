import errno
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stsbot import (
    AssistMode,
    AssistModeConfig,
    ChairModel,
    HarnessModel,
    HumanParams,
    LinkMassModel,
    RobotGeometry,
    Scenario,
    TransferConfig,
    TransferScenario,
)
from stsbot import cli, config, engine, simlog
from stsbot.analysis import STS_CHANNELS
from stsbot.cli import EXIT_CONFIG, EXIT_DIVERGED, EXIT_OK, main
from stsbot.config import SCHEMA, build_scenario, parse_config_text, validate_config
from stsbot.engine import run_scenario
from stsbot.errors import ConfigError, NumericalDivergence
from stsbot.simlog import CHANNELS, PHASE_DESCENT, SimLog

FAST_SCENARIO = """
mode = weight_unloading
fz_pct = 0.10
repetitions = 1
pause = 0.2
settle = 0.1
sts.duration = 1.0
dt = 0.002
seed = 5
allow_peak = true
"""


def write(tmp_path, text, name="scenario.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


# ---------------------------------------------------------------------------
# config parsing and validation


def test_defaults_resolve():
    cfg = parse_config_text("")
    assert cfg["mode"] == "follow_me"
    assert cfg["geometry.l_ab"] == 0.38
    assert cfg["human.height"] == 1.75


def test_config_defaults_build_the_default_objects():
    # a key left out takes the default of the object that reads it; only
    # repetitions (3, not 1) differs from the API
    sc = build_scenario(parse_config_text(""))
    assert sc.geom == RobotGeometry()
    assert sc.masses == LinkMassModel()
    assert (sc.chair, sc.harness) == (ChairModel(), HarnessModel())
    assert sc.ctrl_frictions == sc.plant_frictions == Scenario().ctrl_frictions
    assert sc.human == HumanParams(1.75, 81.13)
    assert sc.mode_config == AssistModeConfig(AssistMode.FOLLOW_ME)
    assert replace(sc, masses=None, human=None, mode_config=None, repetitions=1) == Scenario()
    transfer = build_scenario(parse_config_text("mode = transfer"))
    assert transfer.transfer == TransferConfig()
    assert replace(transfer, masses=None, repetitions=1) == TransferScenario()


README = Path(__file__).resolve().parents[1] / "README.md"
# their documented defaults are sentinels: -1 in the schema
README_SENTINEL_KEYS = ("map.requirement", "plant_friction.")


def _readme_config_table() -> dict:
    """Key -> documented default text (None where the README gives none) of
    each key the README's configuration table names; ``a/b`` and ``min/max``
    pairs name two keys, ``*`` every key under its prefix."""
    section = README.read_text().split("## Configuration reference", 1)[1]
    rows = [line for line in section.splitlines() if line.startswith("| ")]
    table = {}
    for name, default in re.findall(r"`([^`]+)`(?: \(([^)]*)\))?", "\n".join(rows)):
        if name.endswith("*"):
            table.update((k, None) for k in SCHEMA if k.startswith(name[:-1]))
        elif "/" in name:
            first, second = name.split("/")
            pair = [first, first[:-len(second)] + second]
            table.update(zip(pair, default.split("/")))
        else:
            table[name] = default
    return table


def test_readme_table_documents_every_key_and_default():
    table = _readme_config_table()
    assert sorted(table) == sorted(SCHEMA)
    wrong = {}
    for key, text in table.items():
        if key.startswith(README_SENTINEL_KEYS):
            continue
        default = SCHEMA[key]
        if isinstance(default, bool):
            same = text == str(default).lower()
        elif isinstance(default, str):
            same = text == default
        else:
            same = float(text) == default
        if not same:
            wrong[key] = (text, default)
    assert wrong == {}


def test_readme_python_api_example_runs(capsys):
    # the assist mode's measured assistance, then the transfer's lifting speed
    block = README.read_text().split("### Python API", 1)[1].split("\n## ", 1)[0]
    for code in block.split("```python\n")[1:]:
        exec(compile(code.split("```", 1)[0], "README.md", "exec"), {})
    printed = [float(x) for x in capsys.readouterr().out.split()]
    assert printed == [pytest.approx(0.10, abs=0.02), pytest.approx(0.04, rel=0.10)]


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("geometry.l_zz = 1.0")


def test_bad_value_rejected():
    with pytest.raises(ConfigError, match="cannot parse"):
        parse_config_text("dt = fast")


def test_comments_and_blank_lines():
    cfg = parse_config_text("# comment\n\nfz_pct = 0.05  # inline\nmode = weight_unloading\n")
    assert cfg["fz_pct"] == 0.05


def test_mode_table_validation():
    cfg = parse_config_text("mode = follow_me\nfz_pct = 0.1")
    report = validate_config(cfg)
    assert not report.ok
    assert any("follow_me" in e for e in report.errors)


def test_com_balance_validation():
    cfg = parse_config_text("mode = com_balance\nfz_pct = 0.05\nky = 0")
    assert not validate_config(cfg).ok


def test_unreachable_attach_point_reported():
    cfg = parse_config_text("chair_y = 1.4")
    report = validate_config(cfg)
    assert not report.ok
    assert any("standing" in e or "seated" in e for e in report.errors)


def test_stroke_warning():
    cfg = parse_config_text("geometry.stroke_1 = 0.05")
    report = validate_config(cfg)
    assert any("stroke" in w for w in report.warnings)


def test_validate_a_zero_length_strut(tmp_path, capsys):
    # anchor p1 on B's path: at q_a = 0 the strut has zero length and its
    # jacobian entry is 0/0, which the stroke check, reading lengths, ignores
    p = write(tmp_path, "geometry.p1_y = 0\ngeometry.p1_z = 0.38\ngeometry.q_a_min = 0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["validate", "--config", str(p)]) == EXIT_OK
    assert capsys.readouterr().out == (
        "warning: strut travel 0.331 m over the q_a range exceeds stroke_1 0.220 m\n"
        "configuration ok\n")


def _schema_value(key):
    default = SCHEMA[key]
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, int):
        return st.integers(min_value=-3, max_value=2**31)
    if isinstance(default, float):
        return st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 1.5, 5.0, default]),
                         st.floats(min_value=-1e6, max_value=1e6))
    if key == "mode":
        return st.sampled_from(["follow_me", "weight_unloading", "com_balance",
                                "transfer", "bogus"])
    return st.sampled_from(["rehab", "transfer", "bogus"])


@settings(max_examples=300, deadline=None)
@given(overrides=st.lists(
    st.sampled_from(sorted(SCHEMA)).flatmap(lambda k: st.tuples(st.just(k), _schema_value(k))),
    max_size=4))
@example(overrides=[("human.seat_height", -1.0)])  # the seated attach point below reach
def test_validate_config_agrees_with_build(overrides):
    # every error rule but the map grid's lives in the built objects:
    # validate_config reports their errors instead of raising, so the scenario
    # validates exactly when the report holds no other error
    cfg = parse_config_text("")
    cfg.update(overrides)
    report = validate_config(cfg)
    if any(not e.startswith("map: ") for e in report.errors):
        with pytest.raises((ConfigError, ValueError)):
            build_scenario(cfg).validate()
    else:
        build_scenario(cfg).validate()


def test_build_scenario_roundtrip():
    cfg = parse_config_text(FAST_SCENARIO)
    sc = build_scenario(cfg)
    assert sc.mode_config.fz_pct == 0.10
    assert sc.dt == 0.002
    sc.validate()


def test_plant_friction_overrides_only_the_plant():
    # a non-negative plant_friction.* value replaces that one coefficient of
    # the plant's model; the default -1 keeps the controller's value
    ctrl = "friction.act1.a = 7.5\nfriction.act2_hf.b = 0.3\n"
    base = build_scenario(parse_config_text(ctrl))
    assert base.ctrl_frictions[0].a == 7.5 and base.ctrl_frictions[2].b == 0.3
    assert base.plant_frictions == base.ctrl_frictions
    for i, stem in enumerate(("act1", "act2_hs", "act2_hf")):
        for coeff in ("a", "b"):
            sc = build_scenario(parse_config_text(f"{ctrl}plant_friction.{stem}.{coeff} = 0"))
            assert sc.ctrl_frictions == base.ctrl_frictions
            want = list(base.ctrl_frictions)
            want[i] = replace(want[i], **{coeff: 0.0})
            assert sc.plant_frictions == tuple(want)


# ---------------------------------------------------------------------------
# CLI subcommands


def test_validate_ok(tmp_path, capsys):
    p = write(tmp_path, FAST_SCENARIO)
    assert main(["validate", "--config", str(p)]) == EXIT_OK
    assert "configuration ok" in capsys.readouterr().out


def test_validate_rejects_mode_conflict(tmp_path, capsys):
    p = write(tmp_path, "mode = follow_me\nfz_pct = 0.2\n")
    assert main(["validate", "--config", str(p)]) == EXIT_CONFIG
    out = capsys.readouterr().out
    assert "follow_me" in out


BAD_CONFIGS = {
    "mobility_above_one": "human.mobility = 1.5",
    "negative_height": "human.height = -1",
    "zero_sts_duration": "sts.duration = 0",
    "negative_link_mass": "masses.m_h = -1",
    "overflowing_mast_mass": "masses.m_h = 1e308",
    "overflowing_boom_mass": "masses.m_v = 1e308",
    "nan_pause": "pause = nan",
    "nan_transfer_speed": "mode = transfer\ntransfer.v_z = nan",
    "transfer_mast_beyond_stop": "mode = transfer\ntransfer.q_a_locked = 1.5",
    "transfer_arc_beyond_stop": "mode = transfer\ntransfer.q_c_end = -1.5",
    "infinite_sts_duration": "sts.duration = inf",
    "infinite_mass": "human.mass = inf",
    "rep_jitter_above_one": "rep_jitter = 5",
    "negative_settle": "settle = -1",
    "zero_chair_stiffness": "chair.stiffness = 0",
    "negative_harness_stiffness": "harness.stiffness = -1",
    "negative_seed": "seed = -1",
    "overflowing_link_length": "geometry.l_ac = 1e200",
    "zero_map_step": "map.step = 0",
    "reversed_map_y_range": "map.y_min = 1.0\nmap.y_max = 0.5",
    "reversed_map_z_range": "map.z_min = 1.0\nmap.z_max = 0.5",
    "unknown_map_configuration": "map.configuration = bogus",
    "overflowing_belt_offset": "geometry.d_g = 1e200",
    "endless_pause": "pause = 1e200",
    "endless_settle": "settle = 1e200",
    "endless_sts_duration": "sts.duration = 1e200",
    "endless_map_y_range": "map.y_max = 1e200",
    "endless_map_z_range": "map.z_min = -1e200",
    "massless_boom": "masses.m_v = 0",
    "massless_boom_transfer": "mode = transfer\nmasses.m_v = 0",
    "arm_only_weight_unloading": "human.enabled = false\nmode = weight_unloading\nfz_pct = 0.1",
    "arm_only_com_balance": "human.enabled = false\nmode = com_balance\nfz_pct = 0.1\nky = 200",
    "detached_weight_unloading": "robot_attached = false\nmode = weight_unloading\nfz_pct = 0.1",
    "detached_com_balance": "robot_attached = false\nmode = com_balance\nfz_pct = 0.1\nky = 200",
    "detached_transfer": "mode = transfer\nrobot_attached = false",
    "no_human_and_no_robot": "human.enabled = false\nrobot_attached = false",
    "unparsable_bool": "allow_peak = maybe",
    "line_without_equals": "dt 0.001",
    "binary_file": "\udcff\udcfe\x00\x00",
}
# the text of each manifest file
BAD_MANIFESTS = {
    "manifest_float_repetitions": json.dumps({"config": {"repetitions": 1.5}}),
    "manifest_nan_pause": json.dumps({"config": {"pause": float("nan")}}),
    "manifest_text_dt": json.dumps({"config": {"dt": "fast"}}),
    "manifest_not_an_object": json.dumps(["mode", "follow_me"]),
    "manifest_not_json": '{"config": {"seed": 1}',
    "manifest_unknown_key": json.dumps({"config": {"speed": 1.0}}),
}


def write_escaped(path, text):
    """Write ``text`` as UTF-8, each escaped surrogate (``"\\udcff"``) as its
    raw byte, so a table entry can hold bytes that are not UTF-8."""
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    return path


def _bad_config_path(tmp_path, name):
    if name == "missing_file":
        return tmp_path / "missing.cfg"
    if name in BAD_MANIFESTS:
        return write(tmp_path, BAD_MANIFESTS[name], "manifest.json")
    return write_escaped(tmp_path / "scenario.cfg", "repetitions = 1\n" + BAD_CONFIGS[name] + "\n")


@pytest.mark.parametrize("command", ["validate", "simulate", "map"])
@pytest.mark.parametrize("name", sorted(BAD_CONFIGS) + sorted(BAD_MANIFESTS) + ["missing_file"])
def test_bad_config_exits_2_with_error_line(tmp_path, capsys, command, name):
    argv = [command, "--config", str(_bad_config_path(tmp_path, name))]
    if command != "validate":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    text = captured.out + captured.err
    assert "error:" in text
    assert "Traceback" not in text
    assert not (tmp_path / "out").exists()


# a value of the wrong sign, the error line stsbot validate prints for it and
# the constructor of the object that owns its rule.  Each ran before with exit
# 0, or diverged mid-run: harness.damping at 0.29 s, transfer.kp at 24.5 s
NEGATIVE_VALUES = {
    "damping.q_a = -5": ("damping.q_a must be non-negative",
                         lambda: Scenario(damping=(-5.0, 0.5), mode_config=FOLLOW).validate()),
    "damping.q_c = -5": ("damping.q_c must be non-negative",
                         lambda: Scenario(damping=(0.5, -5.0), mode_config=FOLLOW).validate()),
    "chair.damping = -400": ("chair damping must be non-negative",
                             lambda: ChairModel(damping=-400.0)),
    "chair.support_cap = -1": ("chair support_cap must be non-negative",
                               lambda: ChairModel(support_cap=-1.0)),
    "chair.seat_depth = -1": ("chair seat_depth must be positive",
                              lambda: ChairModel(seat_depth=-1.0)),
    "chair.seat_depth = 0": ("chair seat_depth must be positive",
                             lambda: ChairModel(seat_depth=0.0)),
    "chair.edge_taper = -0.1": ("chair edge_taper must be non-negative",
                                lambda: ChairModel(edge_taper=-0.1)),
    "harness.damping = -400": ("harness damping must be non-negative",
                               lambda: HarnessModel(damping=-400.0)),
    "mode = transfer\ntransfer.kp = -5000": ("transfer kp and ki must be non-negative",
                                             lambda: TransferConfig(kp=-5000.0)),
    "mode = transfer\ntransfer.ki = -1": ("transfer kp and ki must be non-negative",
                                          lambda: TransferConfig(ki=-1.0)),
}
FOLLOW = AssistModeConfig(AssistMode.FOLLOW_ME)


@pytest.mark.parametrize("text", sorted(NEGATIVE_VALUES), ids=lambda t: t.splitlines()[-1])
def test_a_negative_damping_gain_or_chair_size_is_refused(tmp_path, capsys, text):
    # refused by the object that owns the rule, before any run
    message, build = NEGATIVE_VALUES[text]
    with pytest.raises((ConfigError, ValueError), match=message):
        build()
    p = write(tmp_path, text + "\n")
    assert main(["validate", "--config", str(p)]) == EXIT_CONFIG
    assert capsys.readouterr().out == f"error: {message}\n"
    spy = mock.Mock(wraps=run_scenario)
    with mock.patch.object(cli, "run_scenario", spy):
        assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert not spy.called and not (tmp_path / "o").exists()


def test_zero_damping_gains_and_chair_margins_are_allowed(tmp_path, capsys):
    # the energy tests run undamped; only seat_depth must be positive
    p = write(tmp_path, "damping.q_a = 0\ndamping.q_c = 0\nchair.damping = 0\n"
                        "chair.support_cap = 0\nchair.edge_taper = 0\nharness.damping = 0\n")
    assert main(["validate", "--config", str(p)]) == EXIT_OK
    p = write(tmp_path, "mode = transfer\ntransfer.kp = 0\ntransfer.ki = 0\n")
    assert main(["validate", "--config", str(p)]) == EXIT_OK


# the shortest run every command accepts, so each swept key decides the outcome
SWEEP_BASE = "repetitions = 1\ndt = 0.005\npause = 0\nsettle = 0\nsts.duration = 0.5\n"
FLOAT_KEYS = sorted(k for k, default in SCHEMA.items() if isinstance(default, float))


@pytest.mark.parametrize("value", ["1e200", "-1e200", "1e308", "-1e308"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_absurd_float_ends_in_an_exit_code(tmp_path, capsys, key, value):
    # every config ends in 0, 2 or 3 from every command, never a traceback
    p = write(tmp_path, f"{SWEEP_BASE}{key} = {value}\n")
    for command in ("validate", "simulate", "map"):
        argv = [command, "--config", str(p)]
        if command != "validate":
            argv += ["--out", str(tmp_path / command)]
        assert main(argv) in (EXIT_OK, EXIT_CONFIG, EXIT_DIVERGED), command
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("command, stream", [("validate", "out"), ("simulate", "err"),
                                             ("map", "err")])
def test_every_command_prints_the_warnings(tmp_path, capsys, command, stream):
    # one check path: validate reports on stdout, the commands that run on
    # stderr; a transfer names every key it ignores (it builds no human, chair,
    # harness or mode config, draws no jitter, takes its rise time from the
    # arc) and none left at its default
    p = write(tmp_path, "mode = transfer\nfz_pct = 0.1\nrepetitions = 1\npause = 0\n"
                        "settle = 0\ndt = 0.005\ntransfer.v_z = 0.05\n"
                        "transfer.q_c_start = 0.1\ntransfer.q_c_end = 0.0\nmap.step = 0.2\n"
                        "rep_jitter = 0.5\nhuman.mass = 120\nsts.duration = 3\n"
                        "chair.damping = 300\n")
    argv = [command, "--config", str(p)]
    if command != "validate":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_OK
    assert ("warning: transfer ignores fz_pct, rep_jitter, human.mass, sts.duration, "
            "chair.damping\n") in getattr(capsys.readouterr(), stream)


# the shortest transfer, and a line added to it: a key a transfer never reads
# (it builds no person, chair or harness, draws no jitter and takes its rise
# time from the arc) gives its one warning and changes no byte of the log; the
# two rules between the kinds of run still refuse their configs
SHORT_TRANSFER = ("mode = transfer\nrepetitions = 1\npause = 0.1\nsettle = 0.1\ndt = 0.005\n"
                  "transfer.v_z = 0.15\n")
TRANSFER_LINES = {
    "chair.damping = -400": (EXIT_OK, "warning: transfer ignores chair.damping"),
    "harness.damping = -1": (EXIT_OK, "warning: transfer ignores harness.damping"),
    "rep_jitter = 1.5": (EXIT_OK, "warning: transfer ignores rep_jitter"),
    "sts.duration = 0": (EXIT_OK, "warning: transfer ignores sts.duration"),
    "sts.duration = 3": (EXIT_OK, "warning: transfer ignores sts.duration"),
    "robot_attached = false": (EXIT_CONFIG, "error: transfer requires the robot"),
    "mode = follow_me\npayload = 10": (EXIT_CONFIG,
                                       "error: payload requires the transfer configuration"),
}


@pytest.mark.parametrize("line", sorted(TRANSFER_LINES), ids=lambda t: t.replace("\n", "; "))
def test_a_transfer_checks_no_key_it_does_not_read(tmp_path, capsys, line):
    code, said = TRANSFER_LINES[line]
    p = write(tmp_path, SHORT_TRANSFER + line + "\n")
    assert main(["validate", "--config", str(p)]) == code
    want = f"{said}\nconfiguration ok\n" if code == EXIT_OK else f"{said}\n"
    assert capsys.readouterr().out == want
    if code == EXIT_OK:
        plain = write(tmp_path, SHORT_TRANSFER, "plain.cfg")
        for cfg, out in ((plain, "plain"), (p, "out")):
            assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / out)]) == 0
        assert ((tmp_path / "out" / "log.csv").read_bytes()
                == (tmp_path / "plain" / "log.csv").read_bytes())


class _ReadKeys(dict):
    """A config mapping that records the keys read from it."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def test_the_transfer_warning_names_the_keys_a_transfer_does_not_read():
    # map.* is read by stsbot map alone, so no run reads it
    cfg = _ReadKeys(parse_config_text("mode = transfer"))
    build_scenario(cfg)
    unread = {k for k in SCHEMA if k not in cfg.read and not k.startswith("map.")}
    assert unread == {k for k in SCHEMA if k.startswith(config._TRANSFER_IGNORES)}


def test_divergence_in_an_rk4_stage_exits_3(tmp_path, capsys):
    # the stiff harness sends a stage state non-finite before the step's guard
    p = write(tmp_path, "harness.stiffness = 1e200\ndt = 0.005\nrepetitions = 1\n")
    assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")]) == EXIT_DIVERGED
    assert "diverged" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("error, code", [(NumericalDivergence, EXIT_DIVERGED),
                                         (ConfigError, EXIT_CONFIG)])
def test_a_failed_simulate_leaves_the_out_directory_as_it_was(tmp_path, monkeypatch, error, code):
    # the run fails once its first block of samples is in the log file
    p = write(tmp_path, FAST_SCENARIO)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(p), "--out", str(out)]) == EXIT_OK
    before = {f.name: f.read_bytes() for f in out.iterdir()}

    def fails_after_a_block(scenario, sink):
        add = sink.add

        def failing(block):
            add(block)
            raise error("after the first block")
        sink.add = failing
        return run_scenario(scenario, sink)

    monkeypatch.setattr(cli, "run_scenario", fails_after_a_block)
    assert main(["simulate", "--config", str(p), "--out", str(out)]) == code
    assert {f.name: f.read_bytes() for f in out.iterdir()} == before
    # nor are the directories it was to write into left behind
    assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "a" / "b")]) == code
    assert sorted(f.name for f in tmp_path.iterdir()) == ["out", "scenario.cfg"]


# each command with an out path it cannot write, run in a directory that holds
# afile (an empty file), o3/log.csv and o4/manifest.json (directories) and
# run (an earlier simulate with --seed 1); the path the error line names; and
# the output whose first write raises ENOSPC, if any
OUT_PATH_FAULTS = {
    "simulate_out_a_file": (["simulate", "--config", "scenario.cfg", "--out", "afile"],
                            "afile", None),
    "simulate_log_csv_a_directory": (["simulate", "--config", "scenario.cfg", "--out", "o3"],
                                     "o3/log.csv", None),
    "simulate_manifest_a_directory": (["simulate", "--config", "scenario.cfg", "--out", "o4"],
                                      "o4/manifest.json", None),
    "map_out_under_a_file": (["map", "--config", "scenario.cfg", "--out", "afile/x"],
                             "afile/x", None),
    "analyze_out_a_file": (["analyze", "--log", "run/log.csv", "--out", "afile"], "afile", None),
    **{f"{argv[0]}_{name}_no_space": (argv, f"run/{name}", name) for argv, names in [
        (["simulate", "--config", "scenario.cfg", "--out", "run"], ["log.csv", "manifest.json"]),
        (["analyze", "--log", "run/log.csv", "--out", "run"], ["metrics.json"]),
        (["map", "--config", "scenario.cfg", "--out", "run"],
         ["map.csv", "map.json", "manifest.json"]),
    ] for name in names},
}


def tree(root):
    """Each path under ``root`` and its bytes, None for a directory."""
    return {p.relative_to(root): None if p.is_dir() else p.read_bytes()
            for p in root.rglob("*")}


def opens_a_full_disk(full: str):
    """An ``open`` whose file for ``full`` raises ENOSPC at its first write
    (a read-only directory would not do: root's writes pass ``chmod``)."""
    def fake_open(path, *args, **kwargs):
        fh = open(path, *args, **kwargs)
        if Path(path).name == f"{full}.part":
            def write(text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            fh.write = write
        return fh
    return fake_open


@pytest.mark.parametrize("case", sorted(OUT_PATH_FAULTS))
def test_an_out_path_that_cannot_be_written_exits_2(tmp_path, monkeypatch, capsys, case):
    # one error: line and exit 2, never a traceback, and the directory keeps
    # its listing and bytes: no earlier output is replaced and no *.part file
    # is left behind
    argv, path, full = OUT_PATH_FAULTS[case]
    monkeypatch.chdir(tmp_path)
    write(tmp_path, FAST_SCENARIO)
    (tmp_path / "afile").write_bytes(b"")
    (tmp_path / "o3" / "log.csv").mkdir(parents=True)
    (tmp_path / "o4" / "manifest.json").mkdir(parents=True)
    assert main(["simulate", "--config", "scenario.cfg", "--out", "run", "--seed", "1"]) == EXIT_OK
    before = tree(tmp_path)
    capsys.readouterr()
    if full is not None:
        monkeypatch.setattr(cli, "open", opens_a_full_disk(full), raising=False)
    # map and analyze refuse a path before they do their work, and fail a
    # write only after it
    work = {"map": "capability_map", "analyze": "read_log"}.get(argv[0])
    if work is not None:
        spy = mock.Mock(wraps=getattr(cli, work))
        monkeypatch.setattr(cli, work, spy)
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: cannot write {path}: ")
    assert "Traceback" not in captured.err
    assert tree(tmp_path) == before
    if work is not None:
        assert spy.called == (full is not None)


def test_a_fault_at_close_names_its_output(tmp_path, monkeypatch, capsys):
    # a small output's text waits in its file's buffer until the close, where
    # a full disk fails it; the error names that output, and nothing is left
    monkeypatch.chdir(tmp_path)
    write(tmp_path, FAST_SCENARIO)

    def fake_open(path, *args, **kwargs):
        fh = open(path, *args, **kwargs)
        if Path(path).name == "manifest.json.part":
            close = fh.close

            def failing_close():
                close()
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            fh.close = failing_close
        return fh

    monkeypatch.setattr(cli, "open", fake_open, raising=False)
    assert main(["simulate", "--config", "scenario.cfg", "--out", "run"]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: cannot write run/manifest.json: ")
    assert not (tmp_path / "run").exists()


class ClosedPipe(io.StringIO):
    """A stream whose reader has gone: every write raises BrokenPipeError."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))


def run_each_command(root):
    """The exit codes of validate and simulate (of a good and a bad config),
    analyze and map, each writing under ``root``."""
    root.mkdir()
    good = write(root, FAST_SCENARIO + "map.step = 0.1\n")
    bad = write(root, "mode = follow_me\nfz_pct = 0.2\n", "bad.cfg")
    run = root / "run"
    return [main(["validate", "--config", str(good)]),
            main(["validate", "--config", str(bad)]),
            main(["simulate", "--config", str(good), "--out", str(run)]),
            main(["simulate", "--config", str(bad), "--out", str(root / "bad")]),
            main(["analyze", "--log", str(run / "log.csv"), "--out", str(run)]),
            main(["map", "--config", str(good), "--out", str(root / "map")])]


@pytest.mark.parametrize("stream", ["stdout", "stderr"])
def test_a_closed_stream_changes_no_exit_code_or_output(tmp_path, monkeypatch, capsys, stream):
    # a status line that cannot be printed (stsbot ... | head) is dropped:
    # each command exits as it does with the stream open and writes the same
    # bytes, and no traceback is printed to the other stream
    want = run_each_command(tmp_path / "open")
    assert want == [EXIT_OK, EXIT_CONFIG, EXIT_OK, EXIT_CONFIG, EXIT_OK, EXIT_OK]
    capsys.readouterr()
    with monkeypatch.context() as m:
        m.setattr(sys, stream, ClosedPipe())
        assert run_each_command(tmp_path / "closed") == want
    assert tree(tmp_path / "closed") == tree(tmp_path / "open")
    assert "Traceback" not in capsys.readouterr()


@pytest.mark.parametrize("block_cells", [len(CHANNELS), 6 * len(CHANNELS)])
def test_simulate_streams_the_bytes_write_csv_writes(tmp_path, block_cells):
    # one-row blocks, and six-row ones that leave a partial last block
    p = write(tmp_path, FAST_SCENARIO)
    with mock.patch.object(simlog, "CSV_BLOCK_CELLS", block_cells):
        assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")]) == EXIT_OK
    log = run_scenario(build_scenario(parse_config_text(FAST_SCENARIO)))
    assert len(log) % 6
    log.write_csv(tmp_path / "log.csv")
    assert (tmp_path / "o" / "log.csv").read_bytes() == (tmp_path / "log.csv").read_bytes()


def test_only_a_jittered_schedule_imports_numpy_random(tmp_path):
    # numpy.random costs 1.8-5.4 MB of RSS, and a transfer draws no jitter
    transfer = write(tmp_path, "mode = transfer\nrepetitions = 1\npause = 0.1\nsettle = 0.1\n"
                     "dt = 0.005\ntransfer.v_z = 0.15\n", "transfer.cfg")
    rehab = write(tmp_path, "repetitions = 1\npause = 0.1\nsettle = 0.1\ndt = 0.005\n"
                  "sts.duration = 0.5\nrep_jitter = 0.05\n", "rehab.cfg")
    code = ("import sys\nfrom stsbot.cli import main\n"
            "for cfg in sys.argv[2:]:\n"
            "    assert main(['simulate', '--config', cfg, '--out', sys.argv[1]]) == 0\n"
            "    print('numpy.random' in sys.modules)\n")
    src = Path(engine.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path / "o"), str(transfer),
                           str(rehab)], capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[1::2] == ["False", "True"]


def test_simulate_writes_log_and_manifest(tmp_path):
    p = write(tmp_path, FAST_SCENARIO)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(p), "--out", str(out)]) == EXIT_OK
    text = (out / "log.csv").read_text()
    assert text.startswith("# stsbot-log v1")
    header = text.splitlines()[2]
    assert header.split(",")[0] == "time"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["tool"] == "stsbot"
    assert manifest["config"]["fz_pct"] == 0.10


def test_simulate_rejects_invalid_config(tmp_path, capsys):
    p = write(tmp_path, "mode = follow_me\nfz_pct = 0.2\n")
    assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")]) == EXIT_CONFIG


def test_simulate_reruns_byte_identical(tmp_path):
    p = write(tmp_path, FAST_SCENARIO)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(p), "--out", str(out1)]) == EXIT_OK
    assert main(["simulate", "--config", str(p), "--out", str(out2)]) == EXIT_OK
    assert (out1 / "log.csv").read_bytes() == (out2 / "log.csv").read_bytes()


def test_simulate_reproducible_from_manifest(tmp_path):
    p = write(tmp_path, FAST_SCENARIO)
    out1 = tmp_path / "a"
    main(["simulate", "--config", str(p), "--out", str(out1)])
    out2 = tmp_path / "b"
    assert main(["simulate", "--config", str(out1 / "manifest.json"),
                 "--out", str(out2)]) == EXIT_OK
    assert (out1 / "log.csv").read_bytes() == (out2 / "log.csv").read_bytes()


def test_map_writes_grid_and_metadata(tmp_path):
    p = write(tmp_path, "map.configuration = rehab\nmap.step = 0.1\n")
    out = tmp_path / "map"
    assert main(["map", "--config", str(p), "--out", str(out)]) == EXIT_OK
    lines = (out / "map.csv").read_text().splitlines()
    assert lines[0] == "y_m,z_m,fz_max_N,mask"
    meta = json.loads((out / "map.json").read_text())
    assert meta["requirement_N"] == 650.0
    assert meta["mask_legend"]["0"] == "ok"


def test_analyze_writes_metrics(tmp_path):
    p = write(tmp_path, FAST_SCENARIO)
    out = tmp_path / "run"
    main(["simulate", "--config", str(p), "--out", str(out)])
    assert main(["analyze", "--log", str(out / "log.csv"), "--out", str(out)]) == EXIT_OK
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["target_assistance"] == 0.10
    assert abs(metrics["measured_assistance"] - 0.10) < 0.02
    assert len(metrics["repetitions"]) == 1


def test_analyze_transfer_log(tmp_path):
    cfg = """
mode = transfer
transfer.v_z = 0.04
repetitions = 1
pause = 0.2
settle = 0.1
dt = 0.002
transfer.q_c_start = 0.3
transfer.q_c_end = 0.0
"""
    p = write(tmp_path, cfg)
    out = tmp_path / "tr"
    assert main(["simulate", "--config", str(p), "--out", str(out)]) == EXIT_OK
    assert main(["analyze", "--log", str(out / "log.csv"), "--out", str(out)]) == EXIT_OK
    metrics = json.loads((out / "metrics.json").read_text())
    assert "transfer" in metrics
    assert metrics["transfer"]["lifting_speed_m_s"] > 0.02


def _rename_time_column(lines):
    lines[2] = lines[2].replace("time,", "clock,", 1)


def _drop_data_rows(lines):
    del lines[3:]


def _drop_last_cell(lines):
    lines[5] = lines[5].rsplit(",", 1)[0]


def _add_cell(lines):
    lines[5] += ",0"


def _drop_cell(name):
    # one row loses the cell, so the cells after it shift left
    def edit(lines):
        cells = lines[5].split(",")
        del cells[CHANNELS.index(name)]
        lines[5] = ",".join(cells)
    return edit


def _short_row_and_long_row(lines):
    # the file holds as many cells as the header asks for, one row short and
    # the next one long
    _drop_cell("harness_fy")(lines)
    lines[6] += ",0"


def _non_numeric_cell(lines):
    lines[5] = "fast," + lines[5].split(",", 1)[1]


def _repeat_row(lines):
    lines[4] = lines[3]


def _set_cell(row, column, text):
    # rows 3.. are data; columns 0, 1, 2 are time, rep, phase
    def edit(lines):
        cells = lines[row].split(",")
        cells[column] = text
        lines[row] = ",".join(cells)
    return edit


def _set_meta(**items):
    def edit(lines):
        meta = json.loads(lines[1][len("# meta "):])
        meta.update(items)
        lines[1] = "# meta " + json.dumps(meta)
    return edit


def _one_row_with_meta_dt(dt):
    # a one-row log takes its time step from the meta line; the row is one
    # in mid-rise, where the CoM moves
    def edit(lines):
        _set_meta(dt=dt)(lines)
        lines[3:] = [lines[3 + (len(lines) - 3) // 3]]
    return edit


def _drop_column(name):
    def edit(lines):
        k = lines[2].split(",").index(name)
        for i in range(2, len(lines)):
            cells = lines[i].split(",")
            del cells[k]
            lines[i] = ",".join(cells)
    return edit


def _keep_rows(keep):
    # the data rows whose cells ``keep`` takes
    def edit(lines):
        lines[3:] = [line for line in lines[3:] if keep(line.split(","))]
    return edit


def _transfer_without_descent(lines):
    _set_meta(mode="transfer")(lines)
    _keep_rows(lambda cells: cells[2] != str(PHASE_DESCENT))(lines)


def _set_line(index, text):
    def edit(lines):
        lines[index] = text
    return edit


MALFORMED_LOGS = {
    "wrong_column_header": _rename_time_column,
    "no_data_rows": _drop_data_rows,
    "row_with_wrong_cell_count": _drop_last_cell,
    "row_with_extra_cell": _add_cell,
    "row_missing_an_unread_cell": _drop_cell("harness_fy"),
    "short_row_then_long_row": _short_row_and_long_row,
    "non_numeric_cell": _non_numeric_cell,
    "non_numeric_cell_in_read_channel": _set_cell(5, CHANNELS.index("feet_fz"), "heavy"),
    "repeated_time": _repeat_row,
    "decreasing_time": _set_cell(5, 0, "-1"),
    "nan_time": _set_cell(4, 0, "nan"),
    "infinite_time": _set_cell(5, 0, "inf"),
    "infinite_rep": _set_cell(5, 1, "inf"),
    "nan_phase": _set_cell(5, 2, "nan"),
    "fractional_rep": _set_cell(5, 1, "0.5"),
    "one_row_zero_dt": _one_row_with_meta_dt(0.0),
    "one_row_text_dt": _one_row_with_meta_dt("fast"),
    "missing_channel": _drop_column("vcom_y"),
    "text_weight": _set_meta(weight="heavy"),
    "null_weight": _set_meta(weight=None),
    "list_height": _set_meta(height=[1]),
    "transfer_text_payload": _set_meta(mode="transfer", payload="x"),
    "transfer_text_v_z_target": _set_meta(mode="transfer", v_z_target="x"),
    "subnormal_weight_and_height": _set_meta(weight=1e-320, height=1e-320),
    "empty_file": list.clear,
    "meta_not_an_object": _set_line(1, "# meta [1]"),
    "meta_not_json": _set_line(1, "# meta {"),
    "binary_file": _set_line(0, "\udcff\udcfe\x00\x00"),
    "no_repetitions": _keep_rows(lambda cells: cells[1] == "-1"),
    "transfer_without_descent": _transfer_without_descent,
}


@pytest.fixture(scope="module")
def fast_log_lines(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fast")
    p = write(tmp, FAST_SCENARIO)
    assert main(["simulate", "--config", str(p), "--out", str(tmp / "run")]) == EXIT_OK
    return (tmp / "run" / "log.csv").read_text().splitlines()


@pytest.mark.parametrize("name", sorted(MALFORMED_LOGS) + ["missing_file"])
def test_analyze_malformed_log_exits_2(tmp_path, capsys, fast_log_lines, name):
    path = tmp_path / "log.csv"
    if name != "missing_file":
        lines = list(fast_log_lines)
        MALFORMED_LOGS[name](lines)
        write_escaped(path, "".join(f"{line}\n" for line in lines))
    out = tmp_path / "out"
    assert main(["analyze", "--log", str(path), "--out", str(out)]) == EXIT_CONFIG
    err_lines = capsys.readouterr().err.splitlines()
    assert len(err_lines) == 1
    assert err_lines[0].startswith("error: ") and str(path) in err_lines[0]
    assert not out.exists()


def test_from_csv_decodes_every_channel(tmp_path, fast_log_lines):
    # analyze converts only the cells of the channels its metrics read; the
    # API's full read converts every cell
    assert "harness_fy" not in STS_CHANNELS
    lines = list(fast_log_lines)
    _set_cell(5, CHANNELS.index("harness_fy"), "heavy")(lines)
    path = tmp_path / "log.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=re.escape(str(path))):
        SimLog.from_csv(path)


@pytest.mark.parametrize("name, want", [
    ("non_numeric_cell", "line 6: time 'fast' is not a number"),
    ("non_numeric_cell_in_read_channel", "line 6: feet_fz 'heavy' is not a number"),
    ("row_with_wrong_cell_count", f"line 6 holds {len(CHANNELS) - 1} cells, the header names "
                                  f"{len(CHANNELS)} columns (it ends before {CHANNELS[-1]})"),
])
def test_a_row_np_loadtxt_refuses_is_named_by_its_file_line(
        tmp_path, capsys, fast_log_lines, name, want):
    # loadtxt's own messages count rows from 0 or from 1, not file lines: the
    # fault on line 6 read "at row 2, column 38" and "at row 3 with 39 columns"
    lines = list(fast_log_lines)
    MALFORMED_LOGS[name](lines)
    path, out = tmp_path / "log.csv", tmp_path / "out"
    path.write_text("\n".join(lines) + "\n")
    assert main(["analyze", "--log", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {path}: {want}\n"
    with pytest.raises(ConfigError) as exc:
        SimLog.from_csv(path)
    assert str(exc.value) == f"{path}: {want}"


def test_analyze_skips_the_lines_loadtxt_skips(tmp_path, capsys, fast_log_lines):
    # a blank line and comments holding commas are not rows, as np.loadtxt
    # reads the body, so they pass the cell count; a longer row among them
    # is still named
    path, out = tmp_path / "log.csv", tmp_path / "out"
    path.write_text("\n".join(fast_log_lines) + "\n")
    assert main(["analyze", "--log", str(path), "--out", str(out)]) == EXIT_OK
    want = (out / "metrics.json").read_bytes()
    lines = list(fast_log_lines)
    lines[4:4] = ["", "# a comment, with commas,,"]
    lines[7] += " # and a trailing one, too"
    path.write_text("\n".join(lines) + "\n")
    assert len(SimLog.from_csv(path)) == len(fast_log_lines) - 3
    assert main(["analyze", "--log", str(path), "--out", str(out)]) == EXIT_OK
    assert (out / "metrics.json").read_bytes() == want
    lines[8] += ",0"
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["analyze", "--log", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"error: {path}: line 9 holds {len(CHANNELS) + 1} cells, "
        f"the header names {len(CHANNELS)} columns\n")


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_metrics_without_a_seat_off_parse_strictly(tmp_path):
    # mobility 0: the person never leaves the seat, so the repetition has no
    # seat-off time, which metrics.json writes as null, not as a bare NaN
    p = write(tmp_path, FAST_SCENARIO + "human.mobility = 0\n")
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(p), "--out", str(out)]) == EXIT_OK
    assert main(["analyze", "--log", str(out / "log.csv"), "--out", str(out)]) == EXIT_OK
    metrics = json.loads((out / "metrics.json").read_text(), parse_constant=_reject_constant)
    for key in ("repetitions", "repetitions_normalized"):
        assert [m["seat_off_time"] for m in metrics[key]] == [None]


# the run-length keys held short, so a draw that leaves them alone runs fast
CONTRACT_BASE = ("dt = 0.005\nrepetitions = 1\npause = 0.1\nsettle = 0.1\n"
                 "sts.duration = 0.3\nmap.step = 0.1\n")
# zero, negative, subnormal, tiny, large and overflowing values, then each
# key's default halved and doubled
ADVERSARIAL = (0.0, -1.0, 1e-320, 1e-9, 1e6, 1e200, -1e200)


def _adversarial_value(key):
    default = SCHEMA[key]
    if isinstance(default, bool):
        return st.booleans()
    if key == "mode":
        return st.sampled_from(["follow_me", "weight_unloading", "com_balance", "transfer"])
    if isinstance(default, str):
        return st.sampled_from(["rehab", "transfer"])
    values = ADVERSARIAL + (default * 0.5, default * 2.0)
    return st.sampled_from([int(v) for v in values] if isinstance(default, int) else values)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(overrides=st.lists(st.sampled_from(sorted(SCHEMA)), min_size=1, max_size=3, unique=True)
       .flatmap(lambda keys: st.tuples(*(st.tuples(st.just(k), _adversarial_value(k))
                                         for k in keys))))
def test_any_config_ends_in_an_exit_code_with_strict_json(overrides):
    # every command ends in 0, 2 or 3, never an exception, every JSON it
    # writes parses strictly and no part file is left behind
    text = CONTRACT_BASE + "".join(f"{key} = {value}\n" for key, value in overrides)
    with tempfile.TemporaryDirectory() as tmp, \
            redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        tmp = Path(tmp)
        cfg = str(write(tmp, text))
        run = tmp / "run"
        codes = [main(["validate", "--config", cfg]),
                 main(["simulate", "--config", cfg, "--out", str(run)])]
        if codes[-1] == EXIT_OK:
            codes.append(main(["analyze", "--log", str(run / "log.csv"), "--out", str(run)]))
        codes.append(main(["map", "--config", cfg, "--out", str(tmp / "map")]))
        assert set(codes) <= {EXIT_OK, EXIT_CONFIG, EXIT_DIVERGED}
        for path in tmp.rglob("*.json"):
            json.loads(path.read_text(), parse_constant=_reject_constant)
        assert not list(tmp.rglob("*.part"))


def test_env_var_output_root(tmp_path, monkeypatch):
    p = write(tmp_path, FAST_SCENARIO)
    root = tmp_path / "envroot"
    monkeypatch.setenv("STSBOT_OUT_ROOT", str(root))
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--config", str(p)]) == EXIT_OK
    assert (root / "log.csv").exists()
