import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)


RESULTS = {"engine.steps": 100, "engine.csv_bytes": 4096, "sim.sat_frac": 0.25,
           "sim.seated_reps": 3, "outputs": {"session0/log.csv": "ab12", "map/map.csv": "cd34"}}


def write_run(tree, workload, seed, sha, values, failed=0, smoke=False, results=RESULTS):
    results_dir = tree / "perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    env = {"nproc": 2, "cpus_usable": 2, "cpu_model": "cpu", "python": "3.11.7",
           "numpy": "2.4.6", "git_sha": sha, "src_sha256": sha * 2, "seed": seed}
    rec = {"workload": workload, "smoke": smoke, "environment": env,
           "ops": {"attempted": 4, "failed": failed},
           "metrics": {name: {"value": v, "unit": "s"} for name, v in values.items()},
           "results": results}
    name = f"{workload}-seed{seed}-trace0{'-smoke' if smoke else ''}.json"
    (results_dir / name).write_text(json.dumps(rec))


def test_pairs_by_seed_and_counts_wins(tmp_path):
    bench = tmp_path / "BENCHMARK.json"
    bench.write_text(json.dumps({"end_to_end": [
        {"name": "simulate_s", "better": "lower", "bound": 0.25},
        {"name": "realtime_factor", "better": "higher", "bound": 0.25}]}))
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, (old, new) in enumerate([(2.0, 1.0), (3.0, 1.5), (1.0, 1.2)]):
        write_run(parent, "sweep", seed, "a", {"simulate_s": old, "realtime_factor": 1 / old})
        write_run(change, "sweep", seed, "b", {"simulate_s": new, "realtime_factor": 1 / new},
                  failed=seed)
    write_run(parent, "sweep", 9, "a", {"simulate_s": 5.0, "realtime_factor": 0.2})  # unpaired
    write_run(change, "sweep", 0, "b", {"simulate_s": 0.1, "realtime_factor": 10.0}, smoke=True)
    doc = bench_record.record(parent, change, bench)
    assert (doc["parent"]["git_sha"], doc["change"]["git_sha"]) == ("a", "b")
    w = doc["workloads"]["sweep"]
    assert (w["pairs"], w["seeds"]) == (3, [0, 1, 2])
    assert w["failed_ops"] == {"parent": 0, "change": 3}
    sim = w["metrics"]["simulate_s"]
    assert sim["parent"] == {"median": 2.0, "q1": 1.5, "q3": 2.5, "min": 1.0, "max": 3.0}
    assert sim["change"]["median"] == 1.2
    assert sim["change_wins"] == 2
    assert w["metrics"]["realtime_factor"]["change_wins"] == 2


def test_counts_pairs_whose_outputs_agree(tmp_path):
    bench = tmp_path / "BENCHMARK.json"
    bench.write_text(json.dumps({"end_to_end": [
        {"name": "simulate_s", "better": "lower", "bound": 0.25}]}))
    changed = [
        RESULTS,
        {**RESULTS, "outputs": {**RESULTS["outputs"], "map/map.csv": "ee56"}},
        {**RESULTS, "outputs": {"session0/log.csv": "ab12"}},  # an output missing
        {**RESULTS, "engine.csv_bytes": 4097},
        {**RESULTS, "engine.steps": 101},
        {**RESULTS, "sim.sat_frac": 0.25000000000000006},
        {**RESULTS, "sim.reps": 3},  # a result the parent's run lacks
    ]
    for seed, results in enumerate(changed):
        write_run(tmp_path / "parent", "w", seed, "a", {"simulate_s": 1.0})
        write_run(tmp_path / "change", "w", seed, "b", {"simulate_s": 1.0}, results=results)
    doc = bench_record.record(tmp_path / "parent", tmp_path / "change", bench)
    assert doc["workloads"]["w"]["outputs_equal"] == 1
    assert [bench_record.same_outputs({"results": RESULTS}, {"results": r})
            for r in changed] == [True] + [False] * 6


def test_records_each_sides_source_lines(tmp_path):
    bench = tmp_path / "BENCHMARK.json"
    bench.write_text(json.dumps({"end_to_end": [
        {"name": "simulate_s", "better": "lower", "bound": 0.25}]}))
    for side, sources in (("parent", {"a.py": "x = 1\ny = 2\n", "b.py": "z = 3\n"}),
                          ("change", {"a.py": "x = 1\n"})):
        package = tmp_path / side / "src" / "stsbot"
        package.mkdir(parents=True)
        for name, text in sources.items():
            (package / name).write_text(text)
        (package / "notes.txt").write_text("not source\n")
        write_run(tmp_path / side, "w", 0, side[0], {"simulate_s": 1.0})
    doc = bench_record.record(tmp_path / "parent", tmp_path / "change", bench)
    assert (doc["parent"]["src_lines"], doc["change"]["src_lines"]) == (3, 1)
    assert bench_record.src_lines(ROOT) == sum(
        len(p.read_text().splitlines()) for p in (ROOT / "src" / "stsbot").glob("*.py"))


CODE_SAMPLE = '''"""A module docstring

over three lines."""

# a comment
import math  # a trailing comment sits on a code line


def f(x):
    """A docstring."""
    text = """a string in a statement
spans two code lines"""
    return (x +
            math.pi)
'''


def test_code_lines_count_neither_comments_nor_docstrings(tmp_path):
    bench = tmp_path / "BENCHMARK.json"
    bench.write_text(json.dumps({"end_to_end": [
        {"name": "simulate_s", "better": "lower", "bound": 0.25}]}))
    # the change deletes only the comment line
    for side, text in (("parent", CODE_SAMPLE),
                       ("change", CODE_SAMPLE.replace("# a comment\n", ""))):
        package = tmp_path / side / "src" / "stsbot"
        package.mkdir(parents=True)
        (package / "a.py").write_text(text)
        write_run(tmp_path / side, "w", 0, side[0], {"simulate_s": 1.0})
    doc = bench_record.record(tmp_path / "parent", tmp_path / "change", bench)
    # import, def, the string's two lines and the return's two
    assert (doc["parent"]["code_lines"], doc["change"]["code_lines"]) == (6, 6)
    assert (doc["parent"]["src_lines"], doc["change"]["src_lines"]) == (14, 13)


def test_runs_of_one_side_must_share_a_tree(tmp_path):
    bench = tmp_path / "BENCHMARK.json"
    bench.write_text(json.dumps({"end_to_end": [
        {"name": "simulate_s", "better": "lower", "bound": 0.25}]}))
    for seed, sha in ((0, "a"), (1, "c")):
        write_run(tmp_path / "parent", "sweep", seed, sha, {"simulate_s": 1.0})
        write_run(tmp_path / "change", "sweep", seed, "b", {"simulate_s": 1.0})
    with pytest.raises(SystemExit):
        bench_record.record(tmp_path / "parent", tmp_path / "change", bench)


def test_verdict_per_workload_and_metric(tmp_path):
    bench = tmp_path / "BENCHMARK.json"
    bench.write_text(json.dumps({"end_to_end": [
        {"name": "simulate_s", "better": "lower", "bound": 0.25},
        {"name": "setup_s", "better": "lower", "bound": 0.25},
        {"name": "analyze_s", "better": "lower", "bound": 0.25},
        {"name": "realtime_factor", "better": "higher", "bound": 0.25}]}))
    for seed in range(10):
        jitter = 0.01 * seed
        write_run(tmp_path / "parent", "w", seed, "a", {
            "simulate_s": 2.0 + jitter, "setup_s": 1.0 + jitter, "analyze_s": 1.0 + jitter,
            "realtime_factor": 10.0 + jitter})
        write_run(tmp_path / "change", "w", seed, "b", {
            "simulate_s": 1.5 + jitter,        # wins 10/10 by far more than the IQR
            "setup_s": 1.3 + jitter,           # 30 % slower, over the 25 % bound
            "analyze_s": 1.0 + jitter - 1e-3,  # wins 10/10, but within the parent's IQR
            "realtime_factor": 7.0 + jitter})  # 30 % lower where higher is better
    doc = bench_record.record(tmp_path / "parent", tmp_path / "change", bench)
    got = {name: m["verdict"] for name, m in doc["workloads"]["w"]["metrics"].items()}
    assert got == {"simulate_s": "gain", "setup_s": "regressed", "analyze_s": "unchanged",
                   "realtime_factor": "regressed"}


def runs_at(median, low=None, high=None):
    """The summary of runs that all read ``median``, or that spread over
    ``low``..``high`` with their quartiles halfway to the median."""
    low, high = (median, median) if low is None else (low, high)
    return {"median": median, "q1": (low + median) / 2, "q3": (median + high) / 2,
            "min": low, "max": high}


# parent medians of 2.0: NARROW's runs spread over an IQR of 0.2, WIDE's over
# 0.6, wider than the 0.25 bound's 0.5
NARROW = {"median": 2.0, "q1": 1.9, "q3": 2.1, "min": 1.8, "max": 2.2}
WIDE = {"median": 2.0, "q1": 1.7, "q3": 2.3, "min": 1.6, "max": 2.4}


@pytest.mark.parametrize("wins, pairs, change_median, better, want", [
    (10, 10, 1.5, "lower", "gain"),
    (9, 10, 1.5, "lower", "gain"),
    (8, 10, 1.5, "lower", "unchanged"),     # too few wins
    (5, 5, 1.5, "lower", "unchanged"),      # too few pairs
    (10, 10, 1.95, "lower", "unchanged"),   # the gap is inside the parent's IQR
    (0, 10, 2.5, "lower", "unchanged"),     # worse, but by exactly the bound
    (0, 10, 2.51, "lower", "regressed"),
    (10, 10, 2.5, "higher", "gain"),
    (0, 10, 1.49, "higher", "regressed"),
])
def test_verdict_rules(wins, pairs, change_median, better, want):
    assert bench_record.verdict(NARROW, runs_at(change_median), wins, pairs, better,
                                0.25) == want


@pytest.mark.parametrize("parent, change, wins, better, want", [
    (WIDE, runs_at(2.1), 5, "lower", "unresolved"),
    (NARROW, runs_at(1.9, 1.3, 2.5), 5, "lower", "unresolved"),  # the change's IQR counts too
    (NARROW, runs_at(1.9, 1.6, 2.2), 5, "lower", "unchanged"),   # an IQR of 0.3
    (WIDE, runs_at(2.6), 0, "lower", "regressed"),               # regressed keeps its rule
    (WIDE, runs_at(1.2, 1.0, 1.4), 10, "lower", "gain"),          # and so does gain
    # unless every change run beats every parent run, by too little for a gain
    (WIDE, runs_at(1.5, 1.0, 1.58), 10, "lower", "unchanged"),
    (WIDE, runs_at(1.5, 1.0, 1.65), 9, "lower", "unresolved"),
    (WIDE, runs_at(2.55, 2.45, 2.65), 10, "higher", "unchanged"),
    (WIDE, runs_at(2.3, 2.2, 2.4), 7, "higher", "unresolved"),
])
def test_a_spread_wider_than_the_bound_is_unresolved(parent, change, wins, better, want):
    # the verdict_rules cases run on NARROW, whose spread is within the bound
    assert bench_record.verdict(parent, change, wins, 10, better, 0.25) == want


@pytest.mark.parametrize("change_median, want", [
    (43.46, "unchanged"),  # 0.6 %, past the parent's IQR but not a tenth of the 10 % bound
    (43.25, "gain"),       # 1.1 %
])
def test_a_gain_must_beat_a_tenth_of_the_bound(change_median, want):
    # a narrow parent: an IQR of 0.10 MB on a 43.73 MB median
    parent = {"median": 43.73, "q1": 43.68, "q3": 43.78, "min": 43.6, "max": 43.9}
    assert bench_record.verdict(parent, runs_at(change_median), 10, 10, "lower", 0.1) == want
