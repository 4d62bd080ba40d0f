"""Benchmark worker: one fresh process, one thread, one closed-loop client.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
                                --work DIR [--spans FILE] [--smoke] [--setup-only]

``run.py`` starts it; its last line of standard output is one JSON object.
Set-up is timed from just before ``stsbot`` is imported to the point where
every config of the workload is loaded, validated and built.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def untraced(ops, inputs, built, work: Path, seconds: float, tally) -> dict:
    runner = ops.Runner(inputs, built, work / "run", tally, ops.Speedometer())
    logs = runner.run_for(seconds)
    t = runner.timings
    kinds = {"simulate_s": t.simulate_s, "analyze_s": t.analyze_s, "map_s": t.map_s}
    return {
        # reference-speed seconds (see speed.py), and the host seconds they scale
        "timings": {k: v.scaled(runner.speed) for k, v in kinds.items()},
        "host_timings": {k: v.host_s for k, v in kinds.items()},
        "speed_refs_s": {"marks": runner.speed.refs,
                         "inside": {k: v.inside for k, v in kinds.items()}},
        "simulated_s": t.simulated_s,
        # through the first cycle: later cycles only add allocator noise
        "peak_rss_mb": runner.first_cycle_rss_mb,
        "results": runner.results(logs),
    }


def _us(samples, q: float) -> float:
    import numpy as np
    return float(np.percentile(samples, q)) * 1e6 if len(samples) else 0.0


def traced(ops, inputs, built, work: Path, tally, spans_path: str | None) -> dict:
    """The first cycle untraced and with layer spans, alternately twice, then
    once with the kinematics counters; returns the per-layer metrics.

    The span metrics come from the second traced pass, when the process is
    warm; the tracing overhead compares both traced passes with both
    untraced ones.
    """
    import tracing

    walls = {False: 0.0, True: 0.0}
    results = None
    for k in range(4):
        with_spans = k % 2 == 1
        runner = ops.Runner(inputs, built, work / f"pass{k}", tally)
        tracer = runner.tracer = tracing.Tracer() if with_spans else None
        with tracer.layers() if with_spans else contextlib.nullcontext():
            t = time.perf_counter()
            logs = runner.first_cycle()
            walls[with_spans] += time.perf_counter() - t
        if results is None:
            results = runner.results(logs)
        else:
            digests = runner.outputs(logs)
            tally.run(f"pass {k} outputs identical to pass 0", lambda: [
                f"{name} differs" for name, d in digests.items()
                if d != results["outputs"].get(name)])
        if with_spans:
            spanned = runner
        shutil.rmtree(runner.work, ignore_errors=True)

    fine = ops.Runner(inputs, built, work / "fine", tally)
    with tracer.fine():
        fine.fine_cycle()
    if spans_path:
        tracer.dump(spans_path)

    s = tracer.samples
    plant = s.get("engine.plant_step", ())
    force = s.get("control.force_step", ())
    speed = s.get("control.speed_step", ())
    steps = len(plant)
    runs = tracer.named("engine.run_scenario")
    writes = tracer.named("engine.write_csv")
    reads = tracer.named("engine.from_csv")
    maps = tracer.named("analysis.capability_map")
    per_analyze = tracer.per_op("analysis.metrics")
    fine_steps = fine.timings.steps

    def rate(spans):
        return sum(x["bytes"] for x in spans) / sum(x["dur"] for x in spans) / 1e6 if spans else 0.0

    return {
        "results": results,
        "per_layer": {
            "engine.run_s": statistics.median(x["dur"] for x in runs),
            "engine.plant_step_us.p50": _us(plant, 50),
            "engine.plant_step_us.p99": _us(plant, 99),
            "engine.loop_us_per_step": sum(x["dur"] - x["child"] for x in runs) / steps * 1e6,
            "engine.csv_write_mb_per_s": rate(writes),
            "engine.csv_read_mb_per_s": rate(reads),
            "engine.steps": steps,
            "engine.csv_bytes": sum(x["bytes"] for x in writes),
            "engine.diverged": tracer.counts["engine.diverged"],
            "control.force_step_us.p50": _us(force, 50),
            "control.force_step_us.p99": _us(force, 99),
            "control.force_calls_per_step": len(force) / steps,
            "control.speed_step_us.p50": _us(speed, 50),
            "control.speed_step_us.p99": _us(speed, 99),
            "control.speed_calls_per_step": len(speed) / steps,
            "kinematics.act_diag_per_step": tracer.counts["kinematics.act_diag"] / fine_steps,
            "kinematics.dk_entries_per_step": tracer.counts["kinematics.dk_entries"] / fine_steps,
            "kinematics.ik_us": _us(s.get("kinematics.ik", ()), 50),
            "analysis.map_cells_per_s": spanned.map_cells / sum(x["dur"] for x in maps),
            "analysis.metrics_ms": statistics.median(per_analyze.values()) * 1e3,
            "sim.sat_frac": results["sim.sat_frac"],
            "sim.vel_exc_frac": results["sim.vel_exc_frac"],
            "sim.seated_reps": results["sim.seated_reps"],
            "trace.overhead_frac": walls[True] / walls[False] - 1.0,
        },
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work", required=True)
    p.add_argument("--spans", default=None)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    work = Path(args.work)

    inputs = workloads.write_inputs(args.workload, args.seed, args.smoke, work)
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import ops  # imports stsbot and stsbot.cli
    import_s = time.perf_counter() - t0
    if Path(ops.stsbot.__file__).resolve().parent != SRC / "stsbot":
        raise SystemExit(f"stsbot was imported from {ops.stsbot.__file__}, not from {SRC}")
    built = ops.build_inputs(inputs)
    setup_s = time.perf_counter() - t0

    out = {"setup_s": setup_s, "import_s": import_s,
           "config_build_ms": statistics.median(built.build_s) * 1e3}
    if not args.setup_only:
        import numpy
        tally = ops.Tally()
        if args.trace:
            out.update(traced(ops, inputs, built, work, tally, args.spans))
            out["per_layer"]["cli.import_s"] = import_s
            out["per_layer"]["config.build_ms"] = out["config_build_ms"]
        else:
            out.update(untraced(ops, inputs, built, work, args.seconds, tally))
        out.update(attempted=tally.attempted, failed=tally.failed, problems=tally.problems,
                   numpy=numpy.__version__)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
