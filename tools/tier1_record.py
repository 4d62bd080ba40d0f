"""Record the Tier-1 suite's wall time on a parent and a change tree.

Runs the suite once in each of two checkouts to warm up, then alternately,
the parent first in odd pairs and the change first in even ones, and adds a
``tier1`` entry to a BENCH_<n>.json file (made if missing, its other entries
kept): per side, the warm-up run's wall time (``warmup_s``, outside the
statistics), the wall time of each timed run with its median, quartiles and
extremes, each timed run's pytest outcome line, and the ten slowest tests by
their median time over the timed runs (setup, call and teardown summed).

Standard library only.

    python3 tools/tier1_record.py --parent ../parent --change . --pairs 3 --out BENCH_22.json

Run nothing else on the machine meanwhile: every run is timed whole.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

from bench_record import summary as quartiles


COMMAND = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
           "--continue-on-collection-errors", "--durations=0"]
SLOWEST = 10

# one line of pytest's durations report: "12.34s call     tests/test_x.py::test_y[a]"
DURATION = re.compile(r"^([0-9.]+)s (?:setup|call|teardown)\s+(\S.*?)\s*$")
# pytest's closing line, "1 failed, 662 passed in 93.02s (0:01:33)", in
# "=" rules unless -q
OUTCOME = re.compile(r"^=*\s*(\d+ \w+(?:, \d+ \w+)*|no tests ran) in [0-9.]+s\b")


def parse_durations(text: str) -> dict[str, float]:
    """Each test's seconds in a pytest durations report, its phases summed."""
    times: dict[str, float] = {}
    for line in text.splitlines():
        if m := DURATION.match(line.strip()):
            times[m.group(2)] = times.get(m.group(2), 0.0) + float(m.group(1))
    return times


def parse_outcome(text: str) -> str | None:
    """pytest's closing counts, such as ``1 failed, 662 passed``."""
    found = [m.group(1) for line in text.splitlines() if (m := OUTCOME.match(line.strip()))]
    return found[-1] if found else None


def run_once(tree: Path, command: list[str]) -> dict:
    """One timed run of ``command`` in ``tree``: wall time, outcome (None if
    pytest printed no closing counts) and durations."""
    start = time.perf_counter()
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    wall = time.perf_counter() - start
    return {"wall_s": wall, "outcome": parse_outcome(done.stdout),
            "durations": parse_durations(done.stdout)}


def summary(runs: list[dict]) -> dict:
    """One side's runs: wall times, outcomes and the SLOWEST slowest tests."""
    tests = {name for r in runs for name in r["durations"]}
    medians = {name: statistics.median(r["durations"].get(name, 0.0) for r in runs)
               for name in tests}
    slowest = sorted(medians, key=lambda name: (-medians[name], name))[:SLOWEST]
    return {"wall_s": [round(r["wall_s"], 3) for r in runs],
            **{k: round(v, 3) for k, v in quartiles([r["wall_s"] for r in runs]).items()},
            "outcomes": [r["outcome"] for r in runs],
            "slowest": [{"test": name, "median_s": round(medians[name], 3)} for name in slowest]}


def record(parent: Path, change: Path, pairs: int, command: list[str]) -> dict:
    trees = {"parent": parent, "change": change}
    # a warm-up run of each tree, kept out of wall_s: in BENCH_22.json the
    # first run of a series read 104 s against 84-88 s for the runs after it
    warmup = {side: run_once(tree, command)["wall_s"] for side, tree in trees.items()}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(trees[side], command))
    return {"command": " ".join(["python3", *command[1:]]), "pairs": pairs,
            **{side: {"warmup_s": round(warmup[side], 3), **summary(runs[side])}
               for side in trees}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    p.add_argument("--change", type=Path, required=True, help="checkout of the change")
    p.add_argument("--pairs", type=int, default=3, help="alternated parent/change pairs")
    p.add_argument("--out", type=Path, required=True, help="the BENCH_<n>.json to add to")
    args = p.parse_args(argv)
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc["tier1"] = record(args.parent, args.change, args.pairs, COMMAND)
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
