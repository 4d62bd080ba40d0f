import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import tier1_record  # noqa: E402


REPORT = """\
........F..                                                              [100%]
============================= slowest durations ==============================
12.50s call     tests/test_a.py::test_slow
0.50s setup    tests/test_a.py::test_slow
3.00s call     tests/test_b.py::test_param[a b]
0.01s teardown tests/test_b.py::test_param[a b]

(4 durations < 0.005s hidden.  Use -vv to show these durations.)
=========================== short test summary info ============================
FAILED tests/test_a.py::test_fails - assert False
1 failed, 10 passed in 16.20s
"""


def test_parses_durations_and_outcome():
    assert tier1_record.parse_durations(REPORT) == {
        "tests/test_a.py::test_slow": 13.0, "tests/test_b.py::test_param[a b]": 3.01}
    assert tier1_record.parse_outcome(REPORT) == "1 failed, 10 passed"
    assert tier1_record.parse_outcome("==== 3 passed, 1 warning in 0.12s ====") == \
        "3 passed, 1 warning"
    assert tier1_record.parse_outcome("no summary") is None


def test_summary_keeps_the_slowest_by_median():
    runs = [{"wall_s": w, "outcome": "1 failed, 10 passed",
             "durations": {f"t{k}": k * w for k in range(12)}} for w in (1.0, 3.0, 2.0)]
    runs[0]["durations"]["t0"] = 100.0  # one slow run does not move the median
    side = tier1_record.summary(runs)
    assert side["wall_s"] == [1.0, 3.0, 2.0]
    assert (side["median"], side["q1"], side["q3"]) == (2.0, 1.5, 2.5)
    assert side["outcomes"] == ["1 failed, 10 passed"] * 3
    assert [t["test"] for t in side["slowest"]] == [f"t{k}" for k in range(11, 1, -1)]
    assert side["slowest"][0]["median_s"] == 22.0


def test_alternates_the_sides_and_adds_to_the_bench_file(tmp_path, monkeypatch):
    # a stand-in suite that logs which tree ran it and reports one test
    order = tmp_path / "order.txt"
    suite = ("import pathlib, time; name = pathlib.Path.cwd().name; "
             f"open({str(order)!r}, 'a').write(name + '\\n'); "
             "print(f'1.25s call     tests/test_x.py::test_{name}'); "
             "print('2 passed in 1.30s')")
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    bench = tmp_path / "BENCH_9.json"
    bench.write_text(json.dumps({"workloads": {"w": {}}}))
    doc = tier1_record.record(parent, change, 3, [sys.executable, "-c", suite])
    # one warm-up run of each tree, then the alternated pairs
    assert order.read_text().split() == ["parent", "change", "parent", "change",
                                         "change", "parent", "parent", "change"]
    assert doc["pairs"] == 3
    for side in ("parent", "change"):
        assert doc[side]["outcomes"] == ["2 passed"] * 3
        assert doc[side]["slowest"] == [{"test": f"tests/test_x.py::test_{side}",
                                         "median_s": 1.25}]
    # main keeps what the BENCH file already holds
    monkeypatch.setattr(tier1_record, "COMMAND", [sys.executable, "-c", suite])
    assert tier1_record.main(["--parent", str(parent), "--change", str(change),
                              "--pairs", "1", "--out", str(bench)]) == 0
    written = json.loads(bench.read_text())
    assert written["workloads"] == {"w": {}}
    assert written["tier1"]["parent"]["outcomes"] == ["2 passed"]


def test_the_warm_up_stays_out_of_the_timed_runs(monkeypatch):
    # the n-th run takes n seconds: the two warm-ups take 0 and 1
    walls = iter(range(100))

    def fake_run(tree, command):
        return {"wall_s": float(next(walls)), "outcome": "1 passed", "durations": {}}

    monkeypatch.setattr(tier1_record, "run_once", fake_run)
    doc = tier1_record.record(Path("parent"), Path("change"), 2, ["pytest"])
    assert doc["parent"]["warmup_s"] == 0.0 and doc["change"]["warmup_s"] == 1.0
    assert doc["parent"]["wall_s"] == [2.0, 5.0] and doc["change"]["wall_s"] == [3.0, 4.0]
    assert doc["parent"]["median"] == 3.5 and doc["change"]["median"] == 3.5
    assert doc["parent"]["outcomes"] == ["1 passed"] * 2
