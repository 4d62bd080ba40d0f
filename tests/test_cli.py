import json
import re
import warnings
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
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
)
from stsbot.cli import EXIT_CONFIG, EXIT_DIVERGED, EXIT_OK, main
from stsbot.config import SCHEMA, build_scenario, parse_config_text, validate_config
from stsbot.errors import ConfigError

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
    # repetitions (3, not 1) and chair_y (0.67, not 0.0) differ from the API
    sc = build_scenario(parse_config_text(""))
    assert sc.geom == RobotGeometry()
    assert sc.masses == LinkMassModel()
    assert (sc.chair, sc.harness) == (ChairModel(), HarnessModel())
    assert sc.ctrl_frictions == sc.plant_frictions == Scenario().ctrl_frictions
    assert sc.human == HumanParams(1.75, 81.13, chair_y=0.67)
    assert sc.mode_config == AssistModeConfig(AssistMode.FOLLOW_ME)
    assert replace(sc, masses=None, human=None, mode_config=None, repetitions=1) == Scenario()
    assert build_scenario(parse_config_text("mode = transfer")).transfer == TransferConfig()


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
def test_validate_config_agrees_with_build(overrides):
    # every rule lives in the built objects: validate_config reports their
    # errors instead of raising, and an ok report means the scenario builds
    cfg = parse_config_text("")
    cfg.update(overrides)
    report = validate_config(cfg)
    if report.ok:
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
}
BAD_MANIFESTS = {
    "manifest_float_repetitions": {"config": {"repetitions": 1.5}},
    "manifest_nan_pause": {"config": {"pause": float("nan")}},
    "manifest_text_dt": {"config": {"dt": "fast"}},
    "manifest_not_an_object": ["mode", "follow_me"],
}


def _bad_config_path(tmp_path, name):
    if name == "missing_file":
        return tmp_path / "missing.cfg"
    if name in BAD_MANIFESTS:
        return write(tmp_path, json.dumps(BAD_MANIFESTS[name]), "manifest.json")
    return write(tmp_path, "repetitions = 1\n" + BAD_CONFIGS[name] + "\n")


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


def test_divergence_in_an_rk4_stage_exits_3(tmp_path, capsys):
    # the stiff harness sends a stage state non-finite before the step's guard
    p = write(tmp_path, "harness.stiffness = 1e200\ndt = 0.005\nrepetitions = 1\n")
    assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")]) == EXIT_DIVERGED
    assert "diverged" in capsys.readouterr().err


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


MALFORMED_LOGS = {
    "wrong_column_header": _rename_time_column,
    "no_data_rows": _drop_data_rows,
    "row_with_wrong_cell_count": _drop_last_cell,
    "non_numeric_cell": _non_numeric_cell,
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
        path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert main(["analyze", "--log", str(path), "--out", str(out)]) == EXIT_CONFIG
    err_lines = capsys.readouterr().err.splitlines()
    assert len(err_lines) == 1
    assert err_lines[0].startswith("error: ") and str(path) in err_lines[0]
    assert not out.exists()


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


def test_env_var_output_root(tmp_path, monkeypatch):
    p = write(tmp_path, FAST_SCENARIO)
    root = tmp_path / "envroot"
    monkeypatch.setenv("STSBOT_OUT_ROOT", str(root))
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--config", str(p)]) == EXIT_OK
    assert (root / "log.csv").exists()
