"""The benchmark's workloads: seeded inputs, timed units, output checks.

Each workload builds its inputs from ``--seed`` in ``setup`` and hands
the program nothing else.  The harness then repeats ``unit`` (a whole
round of the same operations) until the run length is spent; ``check``
looks at each unit's outputs outside the timed region, and ``finish``
makes the checks that need a reference computed after the loop.

Every workload is one closed loop from one process: the next call (or
request) goes out only after the previous one returned.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import math
import random
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import checks

#: Cycles per STG weight unit: the paper's scaling to a 3.1 GHz clock.
SCALE = 3.1e6
CAMPAIGN_SIZES = (100, 150, 200, 250)
CAMPAIGN_GRAPHS = 40          # per size: 160 instances
CAMPAIGN_DEADLINE = 2.0       # x critical path length
SUITE_CHUNK = 32              # instances per paper_suite_batch call
SERVE_SIZES = (30, 50, 80)
HOT_PER_SIZE = 8              # warm hot set: 24 requests
HOT_PASSES = 2                # warm window: the hot set twice, 48 requests
COLD_PER_SIZE = 4             # cold window: 12 requests
BURST_PAIRS = 6               # burst window: 6 pairs, 12 requests
INFEASIBLE_FACTOR = 0.9       # below the critical path at f_max
HETERO_GRAPHS = 4
HETERO_FACTORS = (2.0, 4.0, 8.0)
COMM_GRAPHS = 6               # per size: 24 calls, most of a unit's
COMM_SIZES = (50, 100)
COMM_CCRS = (0.5, 2.0)
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
JITTER = 0.05                 # weight perturbation per seed


@dataclass
class Unit:
    """What one timed unit did: operations, call latencies, outputs."""

    ops: int
    latencies: List[float]
    outputs: list = field(default_factory=list)
    #: Latencies by kind of call, for the report (not for the metrics).
    phases: Dict[str, List[float]] = field(default_factory=dict)
    failed: int = 0
    #: Wall seconds and operations of each phase of the unit.
    phase_s: Dict[str, Tuple[float, int]] = field(default_factory=dict)


def _graph(n: int, structure: int, seed: int, name: str = ""):
    """STG graph ``structure`` of ``n`` tasks, weights jittered by ``seed``.

    The structure (edges, generation method) is fixed and only the
    weights move, by up to 5% either way: every seed gives new
    instances (new schedules, energies and cache keys) of nearly the
    same cost.  Free structures would make the cost itself a function
    of the seed: the campaign's edge count ranges 85k-202k over seeds.
    """
    from repro.graphs.generators import stg_random_graph
    from repro.graphs.transforms import weight_jitter

    g = stg_random_graph(n, structure, name=name)
    rng = np.random.default_rng([seed % (2 ** 32), n, structure])
    return weight_jitter(g, JITTER, rng, direction="both").scaled(SCALE)


def _timed(fn: Callable, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


class Workload:
    """Interface the harness drives; see the module docstring."""

    name = ""
    ops_per_unit = 0
    one_cpu = False

    def __init__(self, seed: int, work: Path, rec=None) -> None:
        self.seed = seed
        self.work = work
        self.rec = rec

    def setup(self) -> None:
        raise NotImplementedError

    def opening(self) -> Tuple[int, List[str]]:
        """Untimed operations that open the measured phase."""
        return 0, []

    def prepare(self, k: int) -> None:
        """Untimed per-unit preparation (fresh directories, bodies)."""

    def unit(self, k: int) -> Unit:
        raise NotImplementedError

    def check(self, k: int, unit: Unit) -> List[str]:
        return []

    def cleanup(self, k: int) -> None:
        """Untimed per-unit teardown."""

    def finish(self) -> List[str]:
        return []

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# Campaign workloads: the fixed fig10-style 160-instance campaign
# ----------------------------------------------------------------------
def campaign_instances(seed: int) -> list:
    """STG graphs of 100/150/200/250 tasks x 40, deadline 2 x CPL.

    The structures are the campaign the repository's perf notes quote
    (graph seeds 0..39 per size); ``seed`` jitters their weights.
    """
    from repro.graphs.analysis import critical_path_length

    out = []
    for n in CAMPAIGN_SIZES:
        for i in range(CAMPAIGN_GRAPHS):
            g = _graph(n, i, seed)
            out.append((g, CAMPAIGN_DEADLINE * critical_path_length(g)))
    return out


class SuiteStg(Workload):
    """``paper_suite_batch`` over the campaign in chunks of 32."""

    name = "suite-stg"

    def setup(self) -> None:
        from repro.core.platform import default_platform
        from repro.core.suite import paper_suite_batch

        self.platform = default_platform()
        self.batch = paper_suite_batch
        self.instances = campaign_instances(self.seed)
        self.chunks = [self.instances[i:i + SUITE_CHUNK]
                       for i in range(0, len(self.instances), SUITE_CHUNK)]
        self.ops_per_unit = len(self.instances)
        self.batch(self.instances[:4], platform=self.platform)
        self.reference: Optional[list] = None

    def unit(self, k: int) -> Unit:
        lat, outs = [], []
        for chunk in self.chunks:
            res, dt = _timed(self.batch, chunk, platform=self.platform)
            lat.append(dt)
            outs.extend(res)
        return Unit(self.ops_per_unit, lat, outs)

    def check(self, k: int, unit: Unit) -> List[str]:
        """Pass 0 in full; later passes must repeat it bit for bit."""
        got = [_summaries(r) for r in unit.outputs]
        if self.reference is not None:
            return checks.check_same(got, self.reference,
                                     f"pass {k} against pass 0")
        self.reference = got
        errors = []
        for (g, d), res, summaries in zip(self.instances, unit.outputs, got):
            results = {h.value: r for h, r in res.items()}
            errors += checks.check_suite_result(g, d, results, summaries,
                                                self.platform.sleep)
        return errors


def _summaries(res) -> List[dict]:
    """The fields the checks read, in the cache's summary layout."""
    out = []
    for h, r in res.items():
        e, p = r.energy, r.point
        out.append({
            "heuristic": h.value,
            "energy": {"busy": e.busy, "idle": e.idle, "sleep": e.sleep,
                       "overhead": e.overhead},
            "point": None if p is None else {
                "frequency": p.frequency, "idle_power": p.idle_power,
                "energy_per_cycle": p.energy_per_cycle},
            "n_processors": r.n_processors,
            "deadline_seconds": r.deadline_seconds,
            "meets_deadline": r.meets_deadline})
    return out


class CampaignExec(Workload):
    """``evaluate_suite_instances``: two workers, a fresh on-disk cache.

    Each iteration is one cold pass over the campaign into an empty
    cache (digest, pool, put), then the same campaign again in
    chunks of 32 on new options over the same tree (digest, get,
    restore) — the chunked warm pass makes the median call a warm one.
    """

    name = "campaign-exec"
    jobs = 2

    def setup(self) -> None:
        from repro.exec.cache import summarize_results
        from repro.exec.runner import ExecOptions, evaluate_suite_instances

        self.options = ExecOptions
        self.evaluate = evaluate_suite_instances
        self.summarize = summarize_results
        self.instances = campaign_instances(self.seed)
        self.chunks = [self.instances[i:i + SUITE_CHUNK]
                       for i in range(0, len(self.instances), SUITE_CHUNK)]
        self.ops_per_unit = 2 * len(self.instances)
        warm = Path(tempfile.mkdtemp(dir=self.work))
        self._pass(self.instances[:SUITE_CHUNK // 4], warm)
        shutil.rmtree(warm)
        self.first: Optional[list] = None

    def _pass(self, instances, cache_dir: Path) -> list:
        opts = self.options(jobs=self.jobs, cache_dir=str(cache_dir))
        return self.evaluate(instances, options=opts)

    def prepare(self, k: int) -> None:
        self.cache_dir = Path(tempfile.mkdtemp(dir=self.work))

    def unit(self, k: int) -> Unit:
        cold, dt = _timed(self._pass, self.instances, self.cache_dir)
        lat, warm = [dt], []
        for chunk in self.chunks:
            res, dt = _timed(self._pass, chunk, self.cache_dir)
            lat.append(dt)
            warm += res
        return Unit(self.ops_per_unit, lat, [cold, warm],
                    {"cold pass": lat[:1], "warm chunk": lat[1:]})

    def check(self, k: int, unit: Unit) -> List[str]:
        cold, warm = ([self.summarize(r) for r in res]
                      for res in unit.outputs)
        errors = checks.check_same(warm, cold, f"warm pass {k} against cold")
        if self.first is None:
            self.first = cold
            return errors
        return errors + checks.check_same(cold, self.first,
                                          f"cold pass {k} against pass 0")

    def cleanup(self, k: int) -> None:
        shutil.rmtree(self.cache_dir)

    def finish(self) -> List[str]:
        from repro.core.suite import paper_suite_batch

        ref = []
        for chunk in self.chunks:
            ref += [self.summarize(r) for r in paper_suite_batch(chunk)]
        return checks.check_same(self.first or [], ref,
                                 "cold pass 0 against paper_suite_batch")


# ----------------------------------------------------------------------
# Serve workloads: an in-process ScheduleServer over keep-alive HTTP
# ----------------------------------------------------------------------
def _graph_spec(g) -> dict:
    src, dst = checks.edge_arrays(g)
    return {"name": g.name, "weights": g.weights_array.tolist(),
            "edges": [[int(u), int(v)] for u, v in zip(src, dst)]}


def _body(spec: dict, factor: float) -> bytes:
    return json.dumps({"graph": spec, "deadline_factor": factor}).encode()


def _serve_graphs(seed: int, per_size: int, first: int) -> list:
    """``per_size`` graphs of 30, 50 and 80 tasks, structures ``first..``."""
    return [_graph(n, first + i, seed, name=f"stg{n}-{first + i}")
            for n in SERVE_SIZES for i in range(per_size)]


def _cold_factor(i: int, k: int, width: int) -> float:
    """A deadline factor in [1.5, 3.0) never repeated for graph ``i``.

    Window ``k`` shifts every graph's factor by the fractional part of
    ``k`` times the golden ratio, so windows cover the same factor range
    (the same work) while no (graph, factor) instance ever repeats.
    """
    frac = (k * GOLDEN) % 1.0
    return 1.5 + 1.5 * (((i * 5) % width) + frac) / width


class _Client:
    """One keep-alive HTTP connection, timing each request."""

    def __init__(self, port: int, rec=None) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port,
                                               timeout=60)
        self.conn.connect()
        self.port = self.conn.sock.getsockname()[1]
        self.rec = rec

    def post(self, body: bytes) -> Tuple[int, dict, float]:
        t0 = time.perf_counter()
        if self.rec is not None:
            with self.rec.span("serve.client", conn=self.port):
                status, raw = self._post(body)
        else:
            status, raw = self._post(body)
        dt = time.perf_counter() - t0
        return status, json.loads(raw), dt

    def _post(self, body: bytes) -> Tuple[int, bytes]:
        self.conn.request("POST", "/v1/schedule", body,
                          {"Content-Type": "application/json"})
        resp = self.conn.getresponse()
        return resp.status, resp.read()

    def close(self) -> None:
        self.conn.close()


class _ServeContext:
    """The server on its own event-loop thread, and two client sockets."""

    def __init__(self, work: Path, rec=None) -> None:
        from repro.serve.app import ScheduleServer

        self.cache_dir = Path(tempfile.mkdtemp(dir=work))
        self.loop = asyncio.new_event_loop()
        if rec is not None:
            import tracing
            tracing.propagating_executor(self.loop)
        self.thread = threading.Thread(target=self.loop.run_forever,
                                       name="serve-loop", daemon=True)
        self.thread.start()
        self.server = ScheduleServer(cache_dir=str(self.cache_dir))
        _host, port = asyncio.run_coroutine_threadsafe(
            self.server.start("127.0.0.1", 0), self.loop).result(60)
        self.clients = [_Client(port, rec) for _ in range(2)]

    def close(self) -> None:
        for c in self.clients:
            c.close()
        asyncio.run_coroutine_threadsafe(
            self.server.stop(), self.loop).result(60)
        asyncio.run_coroutine_threadsafe(
            self.loop.shutdown_default_executor(), self.loop).result(60)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(60)
        self.loop.close()
        shutil.rmtree(self.cache_dir, ignore_errors=True)


def _reference(graphs_factors) -> List[list]:
    """In-process ``paper_suite_batch`` summaries of served instances."""
    from repro.core.suite import paper_suite_batch
    from repro.exec.cache import summarize_results
    from repro.graphs.analysis import critical_path_length

    inst = [(g, f * critical_path_length(g)) for g, f in graphs_factors]
    return [summarize_results(r) for r in paper_suite_batch(inst)]


class _ServeBase(Workload):
    """One phase of ``serve-phases``; ``ctx`` is set before ``setup``."""

    ctx: _ServeContext

    def setup(self) -> None:
        self.clients = self.ctx.clients
        self.inputs()

    def inputs(self) -> None:
        raise NotImplementedError


class ServeWarm(_ServeBase):
    """A pre-warmed hot set on one connection: every request hits.

    A window sends the hot set twice, each time in a new order.
    """

    name = "warm"

    def inputs(self) -> None:
        graphs = _serve_graphs(self.seed, HOT_PER_SIZE, 100)
        self.bodies = [_body(_graph_spec(g), 2.0) for g in graphs]
        self.ops_per_unit = HOT_PASSES * len(self.bodies)
        self.order = random.Random(self.seed)
        self.cold: List[list] = []
        self.setup_errors: List[str] = []
        for i, b in enumerate(self.bodies):
            status, doc, _ = self.clients[0].post(b)
            self.setup_errors += checks.check_response(
                status, doc, 200, f"hot request {i} (cold)")
            self.cold.append(doc.get("results"))

    def prepare(self, k: int) -> None:
        self.perm = []
        for _ in range(HOT_PASSES):
            perm = list(range(len(self.bodies)))
            self.order.shuffle(perm)
            self.perm += perm

    def unit(self, k: int) -> Unit:
        c = self.clients[0]
        out, lat = [], []
        for i in self.perm:
            status, doc, dt = c.post(self.bodies[i])
            out.append((i, status, doc))
            lat.append(dt)
        return Unit(self.ops_per_unit, lat, out,
                    failed=sum(checks.failed(st) for _, st, _ in out))

    def check(self, k: int, unit: Unit) -> List[str]:
        errors, self.setup_errors = self.setup_errors, []
        for i, status, doc in unit.outputs:
            errors += checks.check_response(status, doc, 200,
                                            f"hot request {i}",
                                            want_results=self.cold[i])
            if status == 200 and not doc.get("cached"):
                errors.append(f"hot request {i}: not served from cache")
        return errors


class ServeCold(_ServeBase):
    """Never-seen instances on one connection: every request computes."""

    name = "cold"

    def inputs(self) -> None:
        graphs = _serve_graphs(self.seed, COLD_PER_SIZE + 1, 200)
        # The last graph of each size only warms the compute path up.
        per = COLD_PER_SIZE + 1
        self.graphs = [g for i, g in enumerate(graphs) if i % per < per - 1]
        warm = [g for i, g in enumerate(graphs) if i % per == per - 1]
        self.specs = [_graph_spec(g) for g in self.graphs]
        self.ops_per_unit = len(self.graphs)
        self.sample: List[tuple] = []
        for g in warm:
            self.clients[0].post(_body(_graph_spec(g), 2.0))

    def opening(self) -> Tuple[int, List[str]]:
        from repro.core.platform import default_platform
        from repro.graphs.mpeg import MPEG_DEADLINE_SECONDS

        deadline = default_platform().reference_cycles(MPEG_DEADLINE_SECONDS)
        body = json.dumps({"graph": {"bundled": "mpeg1"},
                           "deadline_cycles": deadline}).encode()
        status, doc, _ = self.clients[0].post(body)
        if status != 200:
            return 1, [f"mpeg1: HTTP {status} ({doc.get('detail', '')})"]
        return 1, checks.check_mpeg(doc["results"])

    def prepare(self, k: int) -> None:
        width = len(self.specs)
        self.factors = [_cold_factor(i, k, width) for i in range(width)]
        self.window = [_body(s, f) for s, f in zip(self.specs, self.factors)]

    def unit(self, k: int) -> Unit:
        c = self.clients[0]
        out, lat = [], []
        for b in self.window:
            status, doc, dt = c.post(b)
            out.append((status, doc))
            lat.append(dt)
        return Unit(self.ops_per_unit, lat, out,
                    failed=sum(checks.failed(st) for st, _ in out))

    def check(self, k: int, unit: Unit) -> List[str]:
        errors = []
        for i, (status, doc) in enumerate(unit.outputs):
            errors += checks.check_response(status, doc, 200,
                                            f"cold request {k}/{i}")
            if status == 200 and doc.get("cached"):
                errors.append(f"cold request {k}/{i}: served from cache")
        if k == 0:
            self.sample = [(g, f, doc["results"]) for g, f, (status, doc)
                           in zip(self.graphs, self.factors, unit.outputs)
                           if status == 200]
        return errors

    def finish(self) -> List[str]:
        ref = _reference([(g, f) for g, f, _ in self.sample])
        return checks.check_same([r for _, _, r in self.sample], ref,
                                 "cold responses against paper_suite_batch")


class ServeBurst(_ServeBase):
    """Two connections send each pair at once.

    Even pairs are one never-seen request sent twice (dedupe); odd
    pairs send a never-seen request beside one at deadline factor 0.9,
    which must fail alone with 422 (retry without the offender).
    """

    name = "burst"

    def inputs(self) -> None:
        self.graphs = _serve_graphs(self.seed,
                                    BURST_PAIRS // len(SERVE_SIZES), 300)
        self.specs = [_graph_spec(g) for g in self.graphs]
        self.ops_per_unit = 2 * BURST_PAIRS
        self.barrier = threading.Barrier(2, timeout=60)
        self.sample: List[tuple] = []
        warm = _body(_graph_spec(_serve_graphs(self.seed, 1, 310)[0]), 2.0)
        for c in self.clients:
            c.post(warm)

    def prepare(self, k: int) -> None:
        self.pairs = []
        for j in range(BURST_PAIRS):
            f = _cold_factor(j, k, BURST_PAIRS)
            a = _body(self.specs[j], f)
            if j % 2 == 0:
                self.pairs.append(((a, 200), (a, 200), f))
            else:
                bad = _body(self.specs[(j + 1) % BURST_PAIRS],
                            INFEASIBLE_FACTOR)
                self.pairs.append(((a, 200), (bad, 422), f))

    def _side(self, c: _Client, side: int, out: list) -> None:
        for pair in self.pairs:
            body = pair[side][0]
            self.barrier.wait()
            out.append(c.post(body))

    def unit(self, k: int) -> Unit:
        outs: List[list] = [[], []]
        other = threading.Thread(target=self._side,
                                 args=(self.clients[1], 1, outs[1]))
        other.start()
        self._side(self.clients[0], 0, outs[0])
        other.join(120)
        lat = [dt for side in outs for _, _, dt in side]
        return Unit(self.ops_per_unit, lat, outs,
                    failed=sum(checks.failed(st) for side in outs
                               for st, _, _ in side))

    def check(self, k: int, unit: Unit) -> List[str]:
        errors = []
        for j, (pair, a, b) in enumerate(zip(self.pairs, *unit.outputs)):
            for side, (status, doc, _) in ((0, a), (1, b)):
                errors += checks.check_response(
                    status, doc, pair[side][1], f"burst {k}/{j}.{side}")
            if (j % 2 == 0 and a[0] == b[0] == 200
                    and a[1]["results"] != b[1]["results"]):
                errors.append(f"burst {k}/{j}: identical requests got "
                              f"different results")
        if k == 0:
            self.sample = [(self.graphs[j], pair[2], a[1]["results"])
                           for j, (pair, a) in
                           enumerate(zip(self.pairs, unit.outputs[0]))
                           if a[0] == 200]
        return errors

    def finish(self) -> List[str]:
        ref = _reference([(g, f) for g, f, _ in self.sample])
        return checks.check_same([r for _, _, r in self.sample], ref,
                                 "burst responses against paper_suite_batch")


# ----------------------------------------------------------------------
# Extension platforms: heterogeneous cores, communication costs
# ----------------------------------------------------------------------
class Hetero(Workload):
    """``hetero_lamps`` with PS on big.LITTLE: STG-50 graphs, deadlines
    2/4/8 x max(CPL, W/4)."""

    name = "hetero"

    def setup(self) -> None:
        from repro.core.platform import default_platform
        from repro.graphs.analysis import critical_path_length
        from repro.hetero import BIG_LITTLE, hetero_lamps

        self.platform = default_platform()
        self.lamps = hetero_lamps
        self.system = BIG_LITTLE
        self.graphs = [_graph(50, 400 + i, self.seed)
                       for i in range(HETERO_GRAPHS)]
        # A list schedule on the 4 big cores alone ends by W/4 + CPL
        # (Graham), so 2 x max(CPL, W/4) is always feasible; 2 x CPL
        # alone is not for wide graphs.
        big = len(BIG_LITTLE.processors_of("big"))
        self.instances = [
            (g, f * max(critical_path_length(g),
                        float(g.weights_array.sum()) / big))
            for g in self.graphs for f in HETERO_FACTORS]
        self.ops_per_unit = len(self.instances)
        self.lamps(*self.instances[0], self.system, shutdown=True)
        self.first: Optional[list] = None

    def unit(self, k: int) -> Unit:
        out, lat = [], []
        for g, d in self.instances:
            r, dt = _timed(self.lamps, g, d, self.system, shutdown=True)
            out.append(r)
            lat.append(dt)
        return Unit(self.ops_per_unit, lat, out)

    def check(self, k: int, unit: Unit) -> List[str]:
        plain = [(r.total_energy, r.point.frequency, sorted(r.counts.items()))
                 for r in unit.outputs]
        if self.first is not None:
            return checks.check_same(plain, self.first, f"hetero round {k}")
        self.first = plain
        errors = []
        for (g, d), r in zip(self.instances, unit.outputs):
            errors += checks.check_hetero(g, r, self.platform.seconds(d),
                                          f"hetero {g.name}@{d:.6g}")
        return errors

    def finish(self) -> List[str]:
        """On big cores only, the hetero scheduler is ``list_schedule``."""
        from repro.hetero import CoreType, HeteroSystem, hetero_schedule
        from repro.sched.deadlines import task_deadlines
        from repro.sched.list_scheduler import list_schedule

        errors = []
        for g, d in self.instances[::len(HETERO_FACTORS)]:
            dl = task_deadlines(g, d)
            for n in (1, 2, 4, 8):
                big = HeteroSystem([(CoreType("big"), n)])
                if not checks.same_schedule(hetero_schedule(g, big, dl),
                                            list_schedule(g, n, dl)):
                    errors.append(f"hetero {g.name}: {n} big cores differ "
                                  f"from list_schedule")
        return errors


class Comm(Workload):
    """``comm_lamps`` with PS on STG-50/100 at CCR 0.5 and 2.0, 2 x CPL."""

    name = "comm"

    def setup(self) -> None:
        from repro.comm import comm_lamps, uniform_ccr
        from repro.graphs.analysis import critical_path_length

        self.lamps = comm_lamps
        self.instances = []
        for n in COMM_SIZES:
            for i in range(COMM_GRAPHS):
                g = _graph(n, 500 + i, self.seed)
                for ccr in COMM_CCRS:
                    # Edge costs are part of the fixed structure; they
                    # scale with the seed's jittered work.
                    self.instances.append(
                        (uniform_ccr(g, ccr, 500 + i),
                         2.0 * critical_path_length(g)))
        self.ops_per_unit = len(self.instances)
        self.lamps(*self.instances[0], shutdown=True)
        self.first: Optional[list] = None

    def unit(self, k: int) -> Unit:
        out, lat = [], []
        for cg, d in self.instances:
            r, dt = _timed(self.lamps, cg, d, shutdown=True)
            out.append(r)
            lat.append(dt)
        return Unit(self.ops_per_unit, lat, out)

    def check(self, k: int, unit: Unit) -> List[str]:
        plain = [(r.energy.total, r.point.frequency, r.n_processors)
                 for r in unit.outputs]
        if self.first is not None:
            return checks.check_same(plain, self.first, f"comm round {k}")
        self.first = plain
        errors = []
        for (cg, d), r in zip(self.instances, unit.outputs):
            errors += checks.check_comm(cg, r, f"comm {cg.graph.name}@"
                                               f"{cg.ccr:.1f}")
        return errors

    def finish(self) -> List[str]:
        """At CCR 0 the comm-aware scheduler is ``list_schedule``."""
        from repro.comm import comm_aware_schedule, uniform_ccr
        from repro.sched.deadlines import task_deadlines
        from repro.sched.list_scheduler import list_schedule

        errors = []
        for cg, d in self.instances[::len(COMM_CCRS)]:
            g = cg.graph
            dl = task_deadlines(g, d)
            free = uniform_ccr(g, 0.0)
            for n in (1, 2, 4, 8):
                if not checks.same_schedule(comm_aware_schedule(free, n, dl),
                                            list_schedule(g, n, dl)):
                    errors.append(f"comm {g.name}: CCR 0 on {n} processors "
                                  f"differs from list_schedule")
        return errors


class _Phases(Workload):
    """Runs its phases one after another inside every unit."""

    phases: Tuple[type, ...] = ()

    def setup(self) -> None:
        self.parts = [cls(self.seed, self.work, self.rec)
                      for cls in self.phases]
        for part in self.parts:
            self.attach(part)
            part.setup()
        self.ops_per_unit = sum(p.ops_per_unit for p in self.parts)

    def attach(self, part: Workload) -> None:
        """Hand shared state to a phase before its set-up."""

    def opening(self) -> Tuple[int, List[str]]:
        ops, errors = 0, []
        for part in self.parts:
            n, e = part.opening()
            ops, errors = ops + n, errors + e
        return ops, errors

    def prepare(self, k: int) -> None:
        for part in self.parts:
            part.prepare(k)

    def unit(self, k: int) -> Unit:
        subs, walls = [], {}
        for part in self.parts:
            u, dt = _timed(part.unit, k)
            subs.append(u)
            walls[part.name] = (dt, u.ops)
        return Unit(sum(u.ops for u in subs),
                    [t for u in subs for t in u.latencies], subs,
                    {p.name: u.latencies for p, u in zip(self.parts, subs)},
                    sum(u.failed for u in subs), walls)

    def check(self, k: int, unit: Unit) -> List[str]:
        return [e for p, u in zip(self.parts, unit.outputs)
                for e in p.check(k, u)]

    def cleanup(self, k: int) -> None:
        for part in self.parts:
            part.cleanup(k)

    def finish(self) -> List[str]:
        return [e for part in self.parts for e in part.finish()]

    def close(self) -> None:
        for part in getattr(self, "parts", []):
            part.close()


class ServePhases(_Phases):
    """An in-process ``ScheduleServer`` over keep-alive HTTP, three phases.

    Warm (the hot set, 1 connection), cold (never-seen instances, 1
    connection, opened by the MPEG-1 GOP) and burst (pairs on 2
    connections) run one after another, never interleaved, so warm hits
    never queue behind computations.
    """

    name = "serve-phases"
    phases = (ServeWarm, ServeCold, ServeBurst)
    # Client, event loop, executor and dispatch threads share one CPU:
    # each request hops between four threads, and hops across CPUs made
    # the median latency swing 2-3x whenever the other CPU was busy.
    one_cpu = True

    def setup(self) -> None:
        self.ctx = _ServeContext(self.work, self.rec)
        super().setup()

    def attach(self, part: Workload) -> None:
        part.ctx = self.ctx

    def close(self) -> None:
        super().close()
        if getattr(self, "ctx", None) is not None:
            self.ctx.close()


class ExtPlatforms(_Phases):
    """The heterogeneous and the communication-aware event loops."""

    name = "ext-platforms"
    phases = (Hetero, Comm)


WORKLOADS: Dict[str, type] = {w.name: w for w in (
    SuiteStg, CampaignExec, ServePhases, ExtPlatforms)}
