"""Span tracing for the benchmark's traced runs.

The wrappers live here, in the benchmark, around the program's entry
points: they replace module and class attributes of the already
imported ``repro`` package (``install``) and never edit its files.
Spans are kept in memory as tuples ``(id, name, start, end, parent,
pid, thread, conn, value)`` and written out as Chrome-trace JSON at the
end of the run.

Parentage follows a context variable, so it crosses ``await`` points
and — through ``propagating_executor`` — the event loop's executor
hops.  Pool workers are forked with the wrappers in place; each chunk
they evaluate dumps its spans to a file the coordinator reads back.

A span's self time is its duration minus the part of its interval its
children cover.  On each load-generating thread, the self times of the
span trees it roots, plus the harness time between them, add up to the
wall time exactly when no two children of a span overlap;
``addup`` measures how far a run is from that.
"""

from __future__ import annotations

import asyncio
import bisect
import contextvars
import functools
import inspect
import itertools
import json
import os
import pickle
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

_span = contextvars.ContextVar("perfbench_span", default=None)
_conn = contextvars.ContextVar("perfbench_conn", default=None)

# Span tuple fields.
SID, NAME, T0, T1, PARENT, PID, TID, CONN, VALUE = range(9)


class Recorder:
    """In-memory span store shared by every wrapper of one run."""

    def __init__(self, dump_dir: Path) -> None:
        self.spans: list = []
        self.dump_dir = dump_dir
        self._ids = itertools.count(1)

    def next_id(self) -> int:
        # Ids must stay unique across forked workers: prefix the pid.
        return os.getpid() * 10_000_000 + next(self._ids)

    def add(self, sid, name, t0, t1, parent, value=None) -> None:
        self.spans.append((sid, name, t0, t1, parent, os.getpid(),
                           threading.get_ident(), _conn.get(), value))

    def span(self, name: str, value=None, conn=None):
        return _SpanContext(self, name, value, conn)

    def dump_worker_spans(self, first: int) -> None:
        """In a pool worker: move spans ``first:`` to a file."""
        mine = self.spans[first:]
        del self.spans[first:]
        if mine:
            path = self.dump_dir / f"worker-{os.getpid()}-{mine[0][SID]}.pkl"
            with open(path, "wb") as fh:
                pickle.dump(mine, fh)

    def collect_worker_spans(self) -> None:
        """In the coordinator: read back what the workers dumped."""
        for path in sorted(self.dump_dir.glob("worker-*.pkl")):
            with open(path, "rb") as fh:
                self.spans.extend(pickle.load(fh))
            path.unlink()


class _SpanContext:
    def __init__(self, rec: Recorder, name: str, value, conn) -> None:
        self.rec, self.name, self.value, self.conn = rec, name, value, conn

    def __enter__(self):
        self.parent = _span.get()
        self.sid = self.rec.next_id()
        self.token = _span.set(self.sid)
        self.conn_token = _conn.set(self.conn)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        t1 = time.perf_counter()
        self.rec.add(self.sid, self.name, self.t0, t1, self.parent,
                     self.value)
        _conn.reset(self.conn_token)
        _span.reset(self.token)


def _wrap(rec: Recorder, fn: Callable, name: str,
          value: Optional[Callable] = None, when=None) -> Callable:
    """``fn`` recording one span per call; ``value(args, kwargs, out)``
    attaches a number (a count or a size) to the span."""
    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def awrapper(*args, **kwargs):
            parent, sid = _span.get(), rec.next_id()
            token = _span.set(sid)
            t0 = time.perf_counter()
            out = None
            try:
                out = await fn(*args, **kwargs)
                return out
            finally:
                t1 = time.perf_counter()
                _span.reset(token)
                rec.add(sid, name, t0, t1, parent,
                        value(args, kwargs, out) if value else None)
        return awrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if when is not None and not when(args, kwargs):
            return fn(*args, **kwargs)
        parent, sid = _span.get(), rec.next_id()
        token = _span.set(sid)
        t0 = time.perf_counter()
        out = None
        try:
            out = fn(*args, **kwargs)
            return out
        finally:
            t1 = time.perf_counter()
            _span.reset(token)
            rec.add(sid, name, t0, t1, parent,
                    value(args, kwargs, out) if value else None)
    return wrapper


def _patch_function(rec: Recorder, module: str, attr: str, name: str,
                    value=None, when=None) -> None:
    """Wrap ``module.attr`` and every ``repro`` binding of the same object.

    Modules that did ``from x import f`` hold their own reference; all
    of them must see the wrapper.  A name the program no longer has is
    skipped, so the benchmark keeps running when an entry point goes.
    """
    mod = sys.modules.get(module)
    orig = getattr(mod, attr, None) if mod is not None else None
    if orig is None:
        return
    wrapped = _wrap(rec, orig, name, value, when)
    for m in list(sys.modules.values()):
        if m is None or not getattr(m, "__name__", "").startswith("repro"):
            continue
        for k, v in list(vars(m).items()):
            if v is orig:
                setattr(m, k, wrapped)


def _patch_method(rec: Recorder, cls, attr: str, name: str,
                  value=None) -> None:
    raw = cls.__dict__.get(attr)
    if raw is None:
        return
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(_wrap(rec, raw.__func__, name,
                                             value)))
    elif isinstance(raw, staticmethod):
        setattr(cls, attr, staticmethod(_wrap(rec, raw.__func__, name,
                                              value)))
    else:
        setattr(cls, attr, _wrap(rec, raw, name, value))


def install(rec: Recorder) -> None:
    """Wrap the program's layer entry points (call once, before setup)."""
    import repro.comm.heuristics  # noqa: F401  (bindings to patch)
    import repro.core.suite  # noqa: F401
    import repro.exec.runner  # noqa: F401
    import repro.graphs.generators  # noqa: F401
    import repro.hetero.heuristics  # noqa: F401
    import repro.serve.app  # noqa: F401
    from repro.core.batch import ScheduleBatch
    from repro.core.plans import PlanCache
    from repro.exec.cache import ResultCache
    from repro.sched.schedule import Schedule
    from repro.serve.app import ScheduleServer
    from repro.serve.batcher import ScheduleBatcher

    fn = functools.partial(_patch_function, rec)
    fn("repro.graphs.generators", "stg_random_graph", "graphs.generate")
    fn("repro.sched.list_scheduler", "list_schedule", "sched.list_schedule",
       value=lambda a, k, out: a[0].n)
    fn("repro.sched.list_scheduler", "schedule_kernel_c", "sched.ckernel")
    _patch_method(rec, Schedule, "from_arrays", "sched.from_arrays")
    _patch_method(rec, PlanCache, "schedule", "core.plans.schedule")
    _patch_method(rec, PlanCache, "deadline_vector", "core.plans.deadlines")
    fn("repro.core.suite", "paper_suite_batch", "core.suite.batch")
    fn("repro.core.suite", "_plan_suite", "core.suite.plan")
    fn("repro.core.suite", "_finish_suite", "core.suite.finish")
    fn("repro.core.suite", "limit_sf", "core.limits")
    fn("repro.core.suite", "limit_mf", "core.limits")
    _patch_method(rec, ScheduleBatch, "from_schedules", "core.batch.stack")
    fn("repro.core.batch", "batch_energy_sweep", "core.batch.sweep",
       value=lambda a, k, out: sum(len(r.points) for r in a[1]))
    fn("repro.core.energy", "schedule_energy_sweep", "core.energy.sweep")
    fn("repro.exec.cache", "instance_digest", "exec.digest")
    _patch_method(rec, ResultCache, "get", "exec.cache.get",
                  value=lambda a, k, out: int(out is not None))
    _patch_method(rec, ResultCache, "put", "exec.cache.put",
                  value=lambda a, k, out: _entry_size(a[0], a[1]))
    fn("repro.exec.cache", "summarize_results", "exec.summaries")
    fn("repro.exec.cache", "restore_results", "exec.summaries")
    fn("repro.exec.runner", "_decode_summaries", "exec.summaries")
    fn("repro.exec.runner", "evaluate_suite_instances", "exec.evaluate")
    # A fan-out is a pool call with work and more than one worker.
    fanout = (lambda a, k: k.get("jobs", 1) > 1 and len(a[1]) > 0)
    worker_s = (lambda a, k, out: sum(r.seconds for r in out or ()))
    fn("repro.exec.pool", "run_instances", "exec.pool", value=worker_s,
       when=fanout)
    fn("repro.exec.pool", "run_instances_shm", "exec.pool", value=worker_s,
       when=fanout)
    runner = sys.modules["repro.exec.runner"]
    worker = getattr(runner, "_suite_chunk_worker", None)
    if worker is not None:
        runner._suite_chunk_worker = _worker_entry(rec, worker)
    fn("repro.serve.app", "parse_request", "serve.parse")
    _patch_method(rec, ScheduleServer, "_route", "serve.handler")
    _patch_method(rec, ScheduleServer, "_respond", "serve.encode")
    _patch_connection(ScheduleServer)
    _patch_method(rec, ScheduleBatcher, "submit", "serve.submit",
                  value=lambda a, k, out: int(bool(out and out[1])))
    _patch_method(rec, ScheduleBatcher, "_compute", "serve.compute",
                  value=lambda a, k, out: len(a[1]))
    fn("repro.hetero.heuristics", "hetero_lamps", "hetero.lamps")
    fn("repro.hetero.heuristics", "hetero_schedule", "hetero.schedule")
    fn("repro.hetero.heuristics", "hetero_energy", "hetero.energy")
    fn("repro.comm.heuristics", "comm_lamps", "comm.lamps")
    fn("repro.comm.heuristics", "comm_aware_schedule", "comm.schedule")


def _entry_size(cache, key) -> int:
    try:
        return cache.path_for(key).stat().st_size
    except OSError:
        return 0


def _worker_entry(rec: Recorder, worker: Callable) -> Callable:
    """The pool's chunk function, tracing inside the forked worker.

    A fresh context drops the span the worker inherited from the
    coordinator at fork time, so worker spans root their own trees.
    """
    @functools.wraps(worker)
    def entry(item):
        first = len(rec.spans)
        try:
            return contextvars.Context().run(worker, item)
        finally:
            rec.dump_worker_spans(first)
    return entry


def _patch_connection(server_cls) -> None:
    """Tag every span of a server connection with the client's port."""
    orig = server_cls.__dict__.get("_handle_connection")
    if orig is None:
        return

    @functools.wraps(orig)
    async def handle(self, reader, writer):
        peer = writer.get_extra_info("peername")
        _conn.set(peer[1] if peer else None)
        return await orig(self, reader, writer)
    server_cls._handle_connection = handle


def propagating_executor(loop: asyncio.AbstractEventLoop) -> None:
    """Make ``loop.run_in_executor`` carry the caller's context along."""
    orig = loop.run_in_executor

    def run_in_executor(executor, func, *args):
        return orig(executor, contextvars.copy_context().run, func, *args)
    loop.run_in_executor = run_in_executor  # type: ignore[method-assign]


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def link_connections(spans: list, client_name: str) -> list:
    """Parent server-side root spans under the client request they serve.

    Requests on one keep-alive connection are sequential, so the client
    span on the same port that contains a server span is its request.
    """
    clients: Dict[int, list] = defaultdict(list)
    for s in spans:
        if s[NAME] == client_name and s[CONN] is not None:
            clients[s[CONN]].append(s)
    for lst in clients.values():
        lst.sort(key=lambda s: s[T0])
    starts = {c: [s[T0] for s in lst] for c, lst in clients.items()}
    out = []
    for s in spans:
        if s[PARENT] is None and s[CONN] is not None \
                and s[NAME] != client_name and s[CONN] in clients:
            i = bisect.bisect_right(starts[s[CONN]], s[T0]) - 1
            if i >= 0:
                s = s[:PARENT] + (clients[s[CONN]][i][SID],) + s[PARENT + 1:]
        out.append(s)
    return out


def self_times(spans: list) -> Dict[int, float]:
    """Self time per span: duration minus the union of its children.

    Every span is first clipped to its parent's (clipped) interval: a
    server span can record its end a little after the client already
    has the response, when the client thread runs first, and that
    overhang is no work of the request.
    """
    by_id = {s[SID]: s for s in spans}
    clipped: Dict[int, tuple] = {}

    def interval(s) -> tuple:
        got = clipped.get(s[SID])
        if got is None:
            lo, hi = s[T0], s[T1]
            parent = by_id.get(s[PARENT])
            if parent is not None:
                plo, phi = interval(parent)
                lo, hi = max(lo, plo), max(min(hi, phi), max(lo, plo))
            got = clipped[s[SID]] = (lo, hi)
        return got

    children: Dict[int, list] = defaultdict(list)
    for s in spans:
        if s[PARENT] in by_id:
            children[s[PARENT]].append(interval(s))
    out = {}
    for s in spans:
        lo, hi = interval(s)
        covered = 0.0
        end = lo
        for a, b in sorted(children.get(s[SID], ())):
            a, b = max(a, end), min(b, hi)
            if b > a:
                covered += b - a
                end = b
        out[s[SID]] = (hi - lo) - covered
    return out


def addup(spans: list, selfs: Dict[int, float], tracks: List[tuple],
          t_start: float, t_end: float) -> float:
    """Self times + harness time against wall time, per load thread.

    ``tracks`` are ``(pid, thread)`` pairs of the load-generating
    threads.  A span counts toward the track whose root span it hangs
    from, when that root lies in ``[t_start, t_end]``; the track's
    harness time is the part of the interval its roots do not cover.
    Returns the worst relative error over the tracks.
    """
    by_id = {s[SID]: s for s in spans}

    def root(s):
        while s[PARENT] is not None and s[PARENT] in by_id:
            s = by_id[s[PARENT]]
        return s

    sums: Dict[tuple, float] = defaultdict(float)
    roots: Dict[tuple, list] = defaultdict(list)
    for s in spans:
        r = root(s)
        key = (r[PID], r[TID])
        if key in tracks and r[T0] >= t_start and r[T1] <= t_end:
            sums[key] += selfs[s[SID]]
            if r is s:
                roots[key].append((s[T0], s[T1]))
    wall = t_end - t_start
    worst = 0.0
    for key in tracks:
        covered = sum(b - a for a, b in roots[key])
        total = sums[key] + (wall - covered)
        worst = max(worst, abs(total - wall) / wall)
    return worst


def chrome_trace(spans: list, path: Path) -> None:
    """Write spans as Chrome-trace JSON (complete ``X`` events, µs)."""
    if not spans:
        return
    base = min(s[T0] for s in spans)
    events = [{"name": s[NAME], "ph": "X", "pid": s[PID], "tid": s[TID],
               "ts": round((s[T0] - base) * 1e6, 3),
               "dur": round((s[T1] - s[T0]) * 1e6, 3),
               "args": {"id": s[SID], "parent": s[PARENT],
                        "conn": s[CONN], "value": s[VALUE]}}
              for s in spans]
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def span_cost(n: int = 20000) -> float:
    """Seconds one wrapped call adds over a plain call (calibration)."""
    rec = Recorder(Path("."))

    def noop():
        return None
    wrapped = _wrap(rec, noop, "noop")
    t0 = time.perf_counter()
    for _ in range(n):
        noop()
    plain = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(n):
        wrapped()
    return max(0.0, (time.perf_counter() - t0 - plain) / n)
