"""stsbot benchmark: one run of one workload.

    python3 perfbench/run.py --workload rehab_session --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports ``stsbot`` from ``src/``.  With
``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the per-layer metrics.  ``--smoke`` runs the workload at its
minimal length.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the full
record (environment, every timing, the simulated results and the output
digests) is written to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from speed import IMPORT_NOMINAL_S, REF_NOMINAL_S, import_reference
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_WORKERS = 7   # set-up-only processes, each between two import references
DEADLINE_S = 170.0
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def run_worker(args: list[str], deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the worker started")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              capture_output=True, text=True, timeout=remaining,
                              env={**os.environ, **SINGLE_THREAD}, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker ran past the {DEADLINE_S:.0f} s deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(seed: int, numpy_version: str, cpus_usable: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:  # the ceiling keeps git from finding a repository above the checkout
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
                             ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "cpus_usable": cpus_usable,
            "cpu_model": cpu, "python": platform.python_version(), "numpy": numpy_version,
            "git_sha": sha, "src_sha256": digest.hexdigest(), "seed": seed}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="stsbot benchmark: one run of one workload")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true", help="minimal-length run, for tests")
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "stsbot" / "__init__.py").is_file():
        print(f"error: no stsbot sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    (HERE / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / ".work"))
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        common.append("--smoke")
    # The run and its workers stay on one CPU: the hosts' CPUs change speed
    # independently, and the import references around a set-up worker must
    # run on the CPU that worker ran on.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    env = {**os.environ, **SINGLE_THREAD}
    setups_host, setups, import_refs = [], [], []
    try:
        if not args.trace:  # trace runs report no setup_s
            import_refs.append(import_reference(env))
        for i in range(0 if args.trace else SETUP_WORKERS):
            setups_host.append(run_worker([*common, "--work", str(work / f"setup{i}"),
                                           "--setup-only"], deadline)["setup_s"])
            import_refs.append(import_reference(env))
            setups.append(setups_host[-1] * IMPORT_NOMINAL_S / statistics.fmean(import_refs[-2:]))
        main_args = [*common, "--work", str(work / "main"), "--seconds",
                     "0" if args.smoke else str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            main_args += ["--spans", str(results_dir / f"{stem}-spans.json")]
        w = run_worker(main_args, deadline)
    except (BenchError, subprocess.SubprocessError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        values = w["per_layer"]
        wanted = spec["per_layer"]
    else:
        t = w["timings"]
        if not all(t.values()):
            print(f"error: no successful operation of some kind: {w['problems']}",
                  file=sys.stderr)
            return 1
        values = {
            "setup_s": statistics.median(setups),
            "simulate_s": statistics.median(t["simulate_s"]),
            "analyze_s": statistics.median(t["analyze_s"]),
            "map_s": statistics.median(t["map_s"]),
            "realtime_factor": w["simulated_s"] / sum(t["simulate_s"]),
            "peak_rss_mb": w["peak_rss_mb"],
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    record = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "smoke": args.smoke, "environment": environment(args.seed, w["numpy"], len(cpus)),
        "ops": {"attempted": w["attempted"], "failed": w["failed"],
                "failed_frac": w["failed"] / w["attempted"], "problems": w["problems"]},
        "setup_s": setups, "setup_host_s": setups_host, "setup_import_refs_s": import_refs,
        "worker_setup_host_s": w["setup_s"], "import_s": w["import_s"],
        "config_build_ms": w["config_build_ms"], "timings": w.get("timings"),
        "host_timings": w.get("host_timings"), "speed_refs_s": w.get("speed_refs_s"),
        "peak_rss_mb": w.get("peak_rss_mb"),
        "metrics": metrics, "results": w["results"],
    }
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"# stsbot benchmark  workload={args.workload} seed={args.seed} trace={args.trace}")
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        host = {k: statistics.median(v) for k, v in w["host_timings"].items()}
        print("host seconds (unscaled medians) " + " ".join(
            f"{k}={v:.4g}" for k, v in [("setup_s", statistics.median(setups_host)), *host.items()])
            + f"  reference median {statistics.median(w['speed_refs_s']['marks']):.4g} s"
            + f" (nominal {REF_NOMINAL_S} s)")
    print(f"ops attempted={w['attempted']} failed={w['failed']} "
          f"ops_failed_frac={record['ops']['failed_frac']:.6g}")
    for problem in w["problems"]:
        print(f"FAILED {problem}")
    print("results " + json.dumps({k: v for k, v in w["results"].items() if k != "outputs"}))
    print(f"record {results_dir / (stem + '.json')}")
    print(json.dumps({"correct": w["failed"] == 0, "attempted": w["attempted"],
                      "failed": w["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
