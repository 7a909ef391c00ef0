"""Per-layer metrics of a traced run, from its spans.

Every ``.s`` metric is a self time (a span's duration minus what its
wrapped children cover) in seconds per timed unit; ``.calls`` and the
other counts are per timed unit too, so a layer that gets faster shows
a smaller number instead of more units.  ``graphs.generate.s`` is the
exception: input generation happens once, in set-up.

Spans count toward the layers when they hang from a timed unit, from a
client request thread, or from a pool worker or server thread.  Spans
of the harness's own output checks do not.  The spans are folded into
totals after every unit, so memory stays bounded however long the run;
the Chrome trace keeps set-up and the first ``KEEP_UNITS`` units.
"""

from __future__ import annotations

import os
import threading
from collections import defaultdict
from pathlib import Path
from typing import Dict

import tracing
from tracing import NAME, PARENT, PID, SID, T0, T1, TID, VALUE

#: Largest accepted gap between summed self times and wall time, as a
#: share of a unit's wall time, on each load-generating thread.
ADDUP_TOLERANCE = 0.005
KEEP_UNITS = 3

#: Spans whose self time is reported as ``<name>.s``.
SELF_TIMED = (
    "sched.list_schedule", "sched.ckernel", "sched.from_arrays",
    "core.plans.schedule", "core.plans.deadlines", "core.suite.batch",
    "core.suite.plan", "core.suite.finish", "core.limits",
    "core.batch.stack", "core.batch.sweep", "core.energy.sweep",
    "exec.evaluate", "exec.digest", "exec.cache.get", "exec.cache.put",
    "exec.summaries", "exec.pool", "serve.parse", "serve.handler",
    "serve.encode", "serve.compute", "hetero.lamps", "hetero.schedule",
    "hetero.energy", "comm.lamps", "comm.schedule")

#: (name, unit, better) of every per-layer metric, in report order.
METRICS = (
    [("graphs.generate.s", "s", "lower"),
     ("sched.list_schedule.calls", "count", "lower"),
     ("sched.tasks_scheduled", "count", "lower"),
     ("core.plans.requests", "count", "lower"),
     ("core.plans.reuse_ratio", "ratio", "higher"),
     ("core.batch.ladder_points", "count", "lower"),
     ("exec.digest.calls", "count", "lower"),
     ("exec.cache.hit_ratio", "ratio", "higher"),
     ("exec.cache.bytes_written", "B", "lower"),
     ("exec.pool.worker_s", "s", "lower"),
     ("exec.pool.fanouts", "count", "lower"),
     ("serve.transport.s", "s", "lower"),
     ("serve.batcher.wait.s", "s", "lower"),
     ("serve.dispatches", "count", "lower"),
     ("serve.batch_size_mean", "count", "higher"),
     ("serve.deduped", "count", "higher"),
     ("serve.batch_retries", "count", "lower"),
     ("hetero.schedule.calls", "count", "lower"),
     ("comm.schedule.calls", "count", "lower")]
    + [(f"{n}.s", "s", "lower") for n in SELF_TIMED]
    + [("harness.s", "s", "lower"),
       ("trace.overhead.s", "s", "lower"),
       ("trace.addup_error", "ratio", "lower")])


class Layers:
    """Folds a traced run's spans into per-layer totals, unit by unit."""

    def __init__(self, rec: tracing.Recorder, trace_path: Path) -> None:
        self.rec = rec
        self.trace_path = trace_path
        self.kept: list = []
        self.units = 0
        self.spans = 0
        self.generate = 0.0
        self.worst = 0.0
        self.between = 0.0
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.value: Dict[str, float] = defaultdict(float)
        self.dur: Dict[str, float] = defaultdict(float)
        self.plan_builds = 0
        self.evaluations_in_compute = 0
        self.main = (os.getpid(), threading.get_ident())

    def _take(self) -> list:
        self.rec.collect_worker_spans()
        spans, self.rec.spans = self.rec.spans, []
        if self.units < KEEP_UNITS:
            self.kept += spans
        return tracing.link_connections(spans, "serve.client")

    def setup_done(self) -> None:
        """Fold the set-up spans: only input generation is reported."""
        spans = self._take()
        selfs = tracing.self_times(spans)
        self.generate = sum(selfs[s[SID]] for s in spans
                            if s[NAME] == "graphs.generate")

    def unit_done(self, t0: float, t1: float, gap: float) -> None:
        """Fold one unit ``[t0, t1]``; ``gap`` is the harness time
        between it and the previous unit (checks, preparation)."""
        spans = self._take()
        selfs = tracing.self_times(spans)
        by_id = {s[SID]: s for s in spans}

        def root(s):
            while s[PARENT] is not None and s[PARENT] in by_id:
                s = by_id[s[PARENT]]
            return s

        inside = []
        for s in spans:
            r = root(s)
            if (r[PID], r[TID]) != self.main or r[NAME] == "harness.unit":
                inside.append(s)
        for s in inside:
            name = s[NAME]
            self.self_s[name] += selfs[s[SID]]
            self.calls[name] += 1
            self.dur[name] += s[T1] - s[T0]
            if s[VALUE] is not None:
                self.value[name] += s[VALUE]
            parent = by_id.get(s[PARENT])
            if parent is not None:
                if name == "sched.list_schedule" \
                        and parent[NAME] == "core.plans.schedule":
                    self.plan_builds += 1
                if name == "exec.evaluate" \
                        and parent[NAME] == "serve.compute":
                    self.evaluations_in_compute += 1
        tracks = {self.main} | {(s[PID], s[TID]) for s in spans
                                if s[NAME] == "serve.client"}
        self.worst = max(self.worst, tracing.addup(
            spans, selfs, sorted(tracks), t0, t1))
        self.spans += len(inside)
        self.between += gap
        self.units += 1

    def metrics(self) -> Dict[str, dict]:
        tracing.chrome_trace(self.kept, self.trace_path)
        n = max(1, self.units)
        self_s, calls, value = self.self_s, self.calls, self.value

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        v = {
            "graphs.generate.s": self.generate,
            "sched.list_schedule.calls": calls["sched.list_schedule"] / n,
            "sched.tasks_scheduled": value["sched.list_schedule"] / n,
            "core.plans.requests": calls["core.plans.schedule"] / n,
            "core.plans.reuse_ratio": ratio(
                calls["core.plans.schedule"] - self.plan_builds,
                calls["core.plans.schedule"]),
            "core.batch.ladder_points": value["core.batch.sweep"] / n,
            "exec.digest.calls": calls["exec.digest"] / n,
            "exec.cache.hit_ratio": ratio(value["exec.cache.get"],
                                          calls["exec.cache.get"]),
            "exec.cache.bytes_written": value["exec.cache.put"] / n,
            "exec.pool.worker_s": value["exec.pool"] / n,
            "exec.pool.fanouts": calls["exec.pool"] / n,
            "serve.transport.s": self_s["serve.client"] / n,
            "serve.batcher.wait.s": max(
                0.0, self_s["serve.submit"] - self.dur["serve.compute"]) / n,
            "serve.dispatches": calls["serve.compute"] / n,
            "serve.batch_size_mean": ratio(value["serve.compute"],
                                           calls["serve.compute"]),
            "serve.deduped": value["serve.submit"] / n,
            "serve.batch_retries": max(
                0, self.evaluations_in_compute - calls["serve.compute"]) / n,
            "hetero.schedule.calls": calls["hetero.schedule"] / n,
            "comm.schedule.calls": calls["comm.schedule"] / n,
            "harness.s": (self_s["harness.unit"] + self.between) / n,
            "trace.overhead.s": tracing.span_cost() * self.spans / n,
            "trace.addup_error": self.worst,
        }
        for name in SELF_TIMED:
            v[f"{name}.s"] = self_s[name] / n
        return {name: {"value": v[name], "unit": unit}
                for name, unit, _better in METRICS}
