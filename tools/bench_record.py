"""Record a parent/change benchmark comparison as a BENCH_<n>.json file.

Reads the untraced perfbench records (``perfbench/results/*-trace0.json``)
of two checkouts, pairs the runs that share a workload and a seed, and
writes, per workload and end-to-end metric, each side's median, quartiles
and extremes, how many pairs the change won and a verdict:

- ``regressed``: the change's median is worse than the parent's by more than
  the metric's ``bound`` in BENCHMARK.json (a fraction of the parent's median);
- ``gain``: at least GAIN_MIN_PAIRS pairs, the change wins at least
  GAIN_WIN_SHARE of them, and its median is better than the parent's by more
  than the parent's interquartile range and by more than GAIN_MIN_EFFECT of
  the ``bound`` (as a fraction of the parent's median), so a narrow spread
  alone does not make a sub-percent shift a gain;
- ``unresolved``: neither, but either side's interquartile range is wider
  than the ``bound`` (as a fraction of the parent's median) and some run of
  the change is not better than every run of the parent: the runs spread too
  widely to tell the sides apart;
- ``unchanged``: none of these.

Each side also records ``src_lines``, the summed line count of its
``src/stsbot/*.py`` (as ``wc -l`` counts them), and ``code_lines``, the
lines among them that hold code: not blank, not only a comment and not part
of a docstring.  So a change that removes code shows by how much, and one
that only removes comments or docstrings does not.  Each workload also
counts ``outputs_equal``: the pairs whose two runs wrote the same outputs
(see ``same_outputs``), so a change that claims only speed shows that its
bytes did not move.

Standard library only.

    python3 tools/bench_record.py --parent ../parent --change . --out BENCH_7.json

Run the two sides of each pair back to back on one machine, alternating which
runs first; this script only reads what the runs wrote.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import tokenize
from pathlib import Path


GAIN_MIN_PAIRS = 10
GAIN_WIN_SHARE = 0.9
GAIN_MIN_EFFECT = 0.1


def load_runs(tree: Path) -> dict[tuple[str, int], dict]:
    """The untraced records of one checkout, keyed by (workload, seed)."""
    runs = {}
    for path in sorted((tree / "perfbench" / "results").glob("*-trace0.json")):
        rec = json.loads(path.read_text())
        if rec.get("smoke"):
            continue
        runs[(rec["workload"], rec["environment"]["seed"])] = rec
    return runs


def summary(values: list[float]) -> dict:
    extremes = {"min": min(values), "max": max(values)}
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], **extremes}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, **extremes}


def verdict(parent: dict, change: dict, wins: int, pairs: int, better: str,
            bound: float) -> str:
    """regressed, gain, unresolved or unchanged: one metric's parent and
    change summaries over ``pairs`` pairs, of which the change won ``wins``."""
    gap = change["median"] - parent["median"]  # > 0 is worse for "lower"
    if better == "higher":
        gap = -gap
    if gap > bound * abs(parent["median"]):
        return "regressed"
    if (pairs >= GAIN_MIN_PAIRS and wins >= GAIN_WIN_SHARE * pairs
            and -gap > max(parent["q3"] - parent["q1"],
                           GAIN_MIN_EFFECT * bound * abs(parent["median"]))):
        return "gain"
    spread = max(side["q3"] - side["q1"] for side in (parent, change))
    apart = (change["max"] < parent["min"] if better == "lower"
             else change["min"] > parent["max"])
    if spread > bound * abs(parent["median"]) and not apart:
        return "unresolved"
    return "unchanged"


def same_outputs(parent: dict, change: dict) -> bool:
    """Whether two runs' first cycles agree exactly: the SHA-256 map of every
    output (``results.outputs``), ``engine.steps``, ``engine.csv_bytes`` and
    every ``sim.*`` result."""
    a, b = parent["results"], change["results"]
    keys = {k for k in a.keys() | b.keys()
            if k in ("outputs", "engine.steps", "engine.csv_bytes") or k.startswith("sim.")}
    return all(a.get(k) == b.get(k) for k in keys)


def side_identity(runs: list[dict]) -> dict:
    """The git SHA and source digest of one side; every run must agree."""
    ids = {(r["environment"]["git_sha"], r["environment"]["src_sha256"]) for r in runs}
    if len(ids) != 1:
        raise SystemExit(f"runs of one side come from {len(ids)} different trees: {sorted(ids)}")
    sha, src = ids.pop()
    return {"git_sha": sha, "src_sha256": src}


def src_lines(tree: Path) -> int:
    """The newline count of ``<tree>/src/stsbot/*.py``, summed."""
    return sum(p.read_bytes().count(b"\n") for p in (tree / "src" / "stsbot").glob("*.py"))


# tokens that are not code: layout, comments and the file's encoding
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER, tokenize.ENCODING}


def code_lines(tree: Path) -> int:
    """The lines of ``<tree>/src/stsbot/*.py`` that hold a code token,
    summed.  A statement made of strings alone (a docstring) is not code;
    a string inside a statement is, on every line it spans."""
    total = 0
    for path in (tree / "src" / "stsbot").glob("*.py"):
        rows, statement = set(), []
        for tok in tokenize.tokenize(io.BytesIO(path.read_bytes()).readline):
            if tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
                if any(t.type != tokenize.STRING for t in statement):
                    rows.update(r for t in statement for r in range(t.start[0], t.end[0] + 1))
                statement = []
            elif tok.type not in NOT_CODE:
                statement.append(tok)
        total += len(rows)
    return total


def record(parent: Path, change: Path, benchmark: Path) -> dict:
    declared = json.loads(benchmark.read_text())["end_to_end"]
    old, new = load_runs(parent), load_runs(change)
    keys = sorted(set(old) & set(new))
    if not keys:
        raise SystemExit("no workload and seed was run on both sides")
    env = new[keys[0]]["environment"]
    out = {
        "parent": {**side_identity([old[k] for k in keys]), "src_lines": src_lines(parent),
                   "code_lines": code_lines(parent)},
        "change": {**side_identity([new[k] for k in keys]), "src_lines": src_lines(change),
                   "code_lines": code_lines(change)},
        "environment": {name: env[name] for name in
                        ("nproc", "cpus_usable", "cpu_model", "python", "numpy")},
        "workloads": {},
    }
    for workload in sorted({w for w, _ in keys}):
        seeds = [s for w, s in keys if w == workload]
        pairs = [(old[(workload, s)], new[(workload, s)]) for s in seeds]
        metrics = {}
        for m in declared:
            name, direction = m["name"], m["better"]
            a = [p["metrics"][name]["value"] for p, _ in pairs]
            b = [c["metrics"][name]["value"] for _, c in pairs]
            wins = sum((y < x) if direction == "lower" else (y > x) for x, y in zip(a, b))
            old_side, new_side = summary(a), summary(b)
            metrics[name] = {"unit": pairs[0][0]["metrics"][name]["unit"], "better": direction,
                             "parent": old_side, "change": new_side, "change_wins": wins,
                             "verdict": verdict(old_side, new_side, wins, len(pairs),
                                                direction, m["bound"])}
        out["workloads"][workload] = {
            "pairs": len(pairs),
            "seeds": seeds,
            "failed_ops": {"parent": sum(p["ops"]["failed"] for p, _ in pairs),
                           "change": sum(c["ops"]["failed"] for _, c in pairs)},
            "outputs_equal": sum(same_outputs(p, c) for p, c in pairs),
            "metrics": metrics,
        }
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    p.add_argument("--change", type=Path, required=True, help="checkout of the change")
    p.add_argument("--out", type=Path, required=True, help="the BENCH_<n>.json to write")
    args = p.parse_args(argv)
    doc = record(args.parent, args.change, args.change / "BENCHMARK.json")
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
