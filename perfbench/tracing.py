"""In-memory spans around the names each stsbot layer calls through.

The program itself is not changed: the tracer replaces module and class
attributes for the length of a traced pass and puts the originals back.

Coarse calls (a CLI command, ``run_scenario``, CSV encode/decode, the
capability map, the metric functions) become span records with a parent and
the id of the operation that caused them.  Calls made once per simulation
step (``Plant.step`` and the two controllers) are too many to keep as records:
their durations go into one array per name, and their time is charged to the
enclosing span, so a span's self time is its duration minus its children.
"""

from __future__ import annotations

import functools
import json
import os
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import stsbot.analysis
import stsbot.cli
import stsbot.control
import stsbot.engine
from stsbot.errors import NumericalDivergence

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.samples: dict[str, array] = {}
        self.counts: Counter = Counter()
        self._stack: list[dict] = []
        self._saved: list[tuple[object, str, object]] = []
        self._t0 = _clock()

    # -- recording ----------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = {"id": len(self.spans), "name": name,
               "parent": parent["id"] if parent else None,
               "op": parent["op"] if parent else len(self.spans),
               "start": _clock() - self._t0, "dur": 0.0, "child": 0.0}
        self.spans.append(rec)
        self._stack.append(rec)
        t = _clock()
        try:
            yield rec
        finally:
            rec["dur"] = _clock() - t
            self._stack.pop()
            if self._stack:
                self._stack[-1]["child"] += rec["dur"]

    def _spanned(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def _sampled(self, name, fn):
        samples = self.samples.setdefault(name, array("d"))
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                d = _clock() - t
                samples.append(d)
                if stack:
                    stack[-1]["child"] += d
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installing ---------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def _restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def layers(self):
        """Spans at every layer boundary the CLI and the sweep call through."""
        cli, eng = stsbot.cli, stsbot.engine
        SimLog, Plant = eng.SimLog, eng.Plant
        counts = self.counts

        def diverging(run):
            @functools.wraps(run)
            def wrapper(*args, **kwargs):
                try:
                    return run(*args, **kwargs)
                except NumericalDivergence:
                    counts["engine.diverged"] += 1
                    raise
            return wrapper

        run_scenario = self._spanned("engine.run_scenario", diverging(eng.run_scenario))
        write_csv, from_csv = SimLog.write_csv, SimLog.from_csv

        def traced_write_csv(log, path):
            with self.span("engine.write_csv") as rec:
                write_csv(log, path)
            rec["bytes"] = os.path.getsize(path)

        def traced_from_csv(cls, path):
            with self.span("engine.from_csv") as rec:
                log = from_csv(path)
            rec["bytes"] = os.path.getsize(path)
            return log

        try:
            self._patch(cli, "run_scenario", run_scenario)
            self._patch(eng, "run_scenario", run_scenario)
            self._patch(SimLog, "write_csv", traced_write_csv)
            self._patch(SimLog, "from_csv", classmethod(traced_from_csv))
            self._patch(Plant, "step", self._sampled("engine.plant_step", Plant.step))
            self._patch(eng, "force_controller_step",
                        self._sampled("control.force_step", eng.force_controller_step))
            self._patch(eng, "speed_controller_step",
                        self._sampled("control.speed_step", eng.speed_controller_step))
            self._patch(cli, "capability_map",
                        self._spanned("analysis.capability_map", cli.capability_map))
            for name in ("sts_metrics", "measured_assistance",
                         "measured_assistance_per_rep", "transfer_speed_table"):
                self._patch(cli, name, self._spanned("analysis.metrics", getattr(cli, name)))
            yield self
        finally:
            self._restore()

    @contextmanager
    def fine(self):
        """Call counts of the kinematics helpers and per-call IK times.

        These helpers take microseconds, so wrapping them would distort the
        step spans; they get a pass of their own.
        """
        try:
            for module in (stsbot.engine, stsbot.control):
                for name in ("act_diag", "dk_entries"):
                    self._patch(module, name,
                                self._counted(f"kinematics.{name}", getattr(module, name)))
            self._patch(stsbot.analysis, "inverse_kinematics",
                        self._sampled("kinematics.ik", stsbot.analysis.inverse_kinematics))
            yield self
        finally:
            self._restore()

    # -- reading ------------------------------------------------------------

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def per_op(self, name: str) -> dict[int, float]:
        """Summed duration of the spans called ``name``, per operation."""
        out: dict[int, float] = {}
        for s in self.named(name):
            out[s["op"]] = out.get(s["op"], 0.0) + s["dur"]
        return out

    def dump(self, path) -> None:
        doc = {
            "spans": self.spans,
            "per_call": {name: {"calls": len(a), "total_s": sum(a)}
                         for name, a in self.samples.items()},
            "counts": dict(self.counts),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
