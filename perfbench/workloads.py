"""Workload inputs: the config files each workload runs, made from the seed.

Standard library only, so that the worker can write its inputs before its
set-up clock starts: generating inputs is the benchmark's work, not the
program's.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("rehab_session", "transfer_session", "study_sweep")

TRANSFER_V_Z = 0.04
N_SESSION_CONFIGS = 8

# criterion 3's population: heights and masses rise together.  The sweep uses
# its first seven persons: at 1.91 m / 100 kg single runs miss the assistance
# target by 0.017-0.037 bw in about half of the seeds (criterion 3 passes
# because it pools the error over all eight); see README.md, "Known finding".
HEIGHTS = [1.65 + (1.91 - 1.65) * i / 7 for i in range(8)]
MASSES = [60.0 + (100.0 - 60.0) * i / 7 for i in range(8)]
SWEEP_PERSONS = 7
SWEEP_MODES = (("follow_me", 0.0, 0.0), ("weight_unloading", 0.05, 0.0),
               ("weight_unloading", 0.10, 0.0), ("weight_unloading", 0.20, 0.0),
               ("com_balance", 0.05, 200.0))
SWEEP_REPS = 2
MAP_STEP = 0.005   # one grid everywhere: long enough a call to be sampled steadily (speed.py)
SMOKE_MAP_STEP = 0.05

QUICKSTART = """\
mode = weight_unloading
fz_pct = 0.10
human.height = 1.75
human.mass = 81.13
repetitions = {reps}
allow_peak = true
seed = {seed}
"""
TRANSFER = """\
mode = transfer
payload = 98
transfer.v_z = {v_z}
repetitions = {reps}
seed = {seed}
"""
SWEEP_RUN = """\
mode = {mode}
fz_pct = {fz!r}
ky = {ky!r}
human.height = {height!r}
human.mass = {mass!r}
repetitions = {reps}
allow_peak = true
seed = {seed}
"""


@dataclass
class Inputs:
    """Config files of one workload."""

    workload: str
    sessions: list[Path] = field(default_factory=list)
    # sweep blocks: every mode once, each as (config, fz_pct, body mass)
    blocks: list[list[tuple[Path, float, float]]] = field(default_factory=list)
    maps: list[Path] = field(default_factory=list)


def write_inputs(workload: str, seed: int, smoke: bool, work: Path) -> Inputs:
    """Write the workload's config files; the same seed gives the same files.

    Smoke mode shortens every scenario to one repetition and coarsens every
    capability map; the operations and checks stay the same.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(seed)
    cfg_dir = work / "inputs"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    inputs = Inputs(workload)
    if workload == "study_sweep":
        reps = 1 if smoke else SWEEP_REPS
        # each mode deals its persons from its own shuffled deck, so every
        # block holds the same mix of modes and the population is covered
        decks = [rng.sample(range(SWEEP_PERSONS), SWEEP_PERSONS) for _ in SWEEP_MODES]
        for b in range(SWEEP_PERSONS):
            block = []
            for (mode, fz, ky), deck in zip(SWEEP_MODES, decks):
                p = deck[b]
                path = cfg_dir / f"b{b}_{mode}_{fz:g}_p{p}.cfg"
                path.write_text(SWEEP_RUN.format(mode=mode, fz=fz, ky=ky, height=HEIGHTS[p],
                                                 mass=MASSES[p], reps=reps,
                                                 seed=rng.randrange(2**31)))
                block.append((path, fz, MASSES[p]))
            inputs.blocks.append(block)
        configurations = ("rehab", "transfer")
    else:
        reps = 1 if smoke else 3
        template = QUICKSTART if workload == "rehab_session" else TRANSFER
        for k in range(N_SESSION_CONFIGS):
            path = cfg_dir / f"session{k}.cfg"
            path.write_text(template.format(reps=reps, seed=rng.randrange(2**31),
                                            v_z=TRANSFER_V_Z))
            inputs.sessions.append(path)
        configurations = ("rehab",) if workload == "rehab_session" else ("transfer",)
    map_step = SMOKE_MAP_STEP if smoke else MAP_STEP
    for c in configurations:
        path = cfg_dir / f"map_{c}.cfg"
        path.write_text(f"map.configuration = {c}\nmap.step = {map_step}\n")
        inputs.maps.append(path)
    return inputs
