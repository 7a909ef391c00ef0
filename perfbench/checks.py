"""Output checks the benchmark applies to every workload's results.

Every check is computed here from first principles (a walk over the
schedule's intervals, the energy model re-applied by hand) or is a
property the method must have (the paper's energy ordering, HTTP 422
for a deadline below the critical path).  Each function returns a list
of problems; an empty list means the output passed.

``self_test`` feeds each checker a deliberately corrupted result and
confirms that the checker reports it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

#: Relative tolerance for energy and time comparisons (float rounding).
REL_TOL = 1e-9
#: Table 3 of the paper: energy relative to S&S on the MPEG-1 GOP.
TABLE3_RATIOS = {"LAMPS": 0.734, "S&S+PS": 0.604, "LAMPS+PS": 0.604,
                 "LIMIT-SF": 0.604, "LIMIT-MF": 0.604}
TABLE3_TOLERANCE = 0.03
MPEG_PROCESSORS = {"LAMPS": 3, "LAMPS+PS": 6}

_SCHEDULED = ("S&S", "LAMPS", "S&S+PS", "LAMPS+PS")
_WITH_SLEEP = ("S&S+PS", "LAMPS+PS")


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def edge_arrays(graph) -> "tuple[np.ndarray, np.ndarray]":
    """Source and destination node indices of every edge."""
    succ_flat, succ_offsets = graph.succ_csr
    src = np.repeat(np.arange(graph.n), np.diff(succ_offsets))
    return src, np.asarray(succ_flat)


def check_intervals(graph, starts, finishes, procs, durations,
                    transfer=None) -> List[str]:
    """Each task placed once, with its duration; precedence; no overlap.

    ``transfer(u, v)`` (cycles), when given, is the delay a
    cross-processor edge adds before its successor may start.
    """
    starts = np.asarray(starts, dtype=float)
    finishes = np.asarray(finishes, dtype=float)
    procs = np.asarray(procs)
    n = graph.n
    if not (starts.shape == finishes.shape == procs.shape == (n,)):
        return [f"{graph.name}: {starts.shape[0]} placements for {n} tasks"]
    errors = []
    tol = REL_TOL * max(1.0, float(np.abs(finishes).max()))
    bad = np.flatnonzero(np.abs(finishes - starts - durations) > tol)
    if bad.size:
        errors.append(f"{graph.name}: task {int(bad[0])} runs "
                      f"{finishes[bad[0]] - starts[bad[0]]:g} cycles, "
                      f"expected {durations[bad[0]]:g}")
    if (starts < -tol).any():
        errors.append(f"{graph.name}: a task starts before time 0")
    src, dst = edge_arrays(graph)
    ready = finishes[src].copy()
    if transfer is not None:
        for k, (u, v) in enumerate(zip(src.tolist(), dst.tolist())):
            if procs[u] != procs[v]:
                ready[k] += transfer(u, v)
    late = np.flatnonzero(ready > starts[dst] + tol)
    if late.size:
        k = late[0]
        errors.append(f"{graph.name}: task {int(dst[k])} starts at "
                      f"{starts[dst[k]]:g} before its input from task "
                      f"{int(src[k])} is ready at {ready[k]:g}")
    order = np.lexsort((starts, procs))
    same = procs[order][1:] == procs[order][:-1]
    overlap = np.flatnonzero(same & (finishes[order][:-1]
                                     > starts[order][1:] + tol))
    if overlap.size:
        a, b = order[overlap[0]], order[overlap[0] + 1]
        errors.append(f"{graph.name}: tasks {int(a)} and {int(b)} overlap "
                      f"on processor {int(procs[a])}")
    return errors


def rewalk_energy(starts, finishes, procs, point, deadline_seconds,
                  sleep) -> float:
    """Energy of a schedule at ``point``, re-derived interval by interval.

    Every employed processor is on from 0 to the deadline: busy cycles
    cost ``energy_per_cycle``; each idle gap costs ``idle_power`` for
    its length, unless ``sleep`` is given and shutting down (sleep
    power plus the fixed overhead) is cheaper — the breakeven rule.
    """
    f = point["frequency"]
    horizon = deadline_seconds * f
    total = 0.0
    for p in np.unique(procs):
        on = np.flatnonzero(procs == p)
        on = on[np.argsort(starts[on], kind="stable")]
        busy = float((finishes[on] - starts[on]).sum())
        total += busy * point["energy_per_cycle"]
        edges = [0.0]
        for i in on:
            edges += [starts[i], finishes[i]]
        edges.append(max(horizon, edges[-1]))
        for lo, hi in zip(edges[0::2], edges[1::2]):
            gap = (hi - lo) / f
            if gap <= 0.0:
                continue
            idle = gap * point["idle_power"]
            if sleep is not None:
                off = sleep.overhead_energy + gap * sleep.sleep_power
                if off < idle:
                    total += off
                    continue
            total += idle
    return total


def energy_total(summary: dict) -> float:
    e = summary["energy"]
    return e["busy"] + e["idle"] + e["sleep"] + e["overhead"]


def check_ordering(summaries: Sequence[dict], label: str) -> List[str]:
    """LIMIT-MF <= LIMIT-SF <= LAMPS+PS <= min(LAMPS, S&S+PS); LAMPS <= S&S.

    DESIGN.md section 4: the bounds are bounds, PS never hurts, and
    LAMPS's processor-count search includes the S&S configuration.
    """
    e = {s["heuristic"]: energy_total(s) for s in summaries}
    missing = (set(TABLE3_RATIOS) | {"S&S"}) - set(e)
    if missing:
        return [f"{label}: missing heuristics {sorted(missing)}"]
    chain = [("LIMIT-MF", "LIMIT-SF"), ("LIMIT-SF", "LAMPS+PS"),
             ("LAMPS+PS", "LAMPS"), ("LAMPS+PS", "S&S+PS"),
             ("LAMPS", "S&S")]
    errors = []
    for lo, hi in chain:
        if e[lo] > e[hi] * (1.0 + REL_TOL):
            errors.append(f"{label}: {lo} energy {e[lo]:.6g} exceeds "
                          f"{hi} energy {e[hi]:.6g}")
    for s in summaries:
        if s["heuristic"] != "LIMIT-MF" and not s["meets_deadline"]:
            errors.append(f"{label}: {s['heuristic']} misses its deadline")
    return errors


def check_suite_result(graph, deadline_cycles: float, results: dict,
                       summaries: List[dict], sleep) -> List[str]:
    """Full check of one ``paper_suite_batch`` instance.

    ``results`` maps heuristic names to the result objects (for their
    schedules); ``summaries`` are the same results as plain dicts.
    """
    label = f"{graph.name}@{deadline_cycles:.6g}"
    errors = check_ordering(summaries, label)
    by_name = {s["heuristic"]: s for s in summaries}
    for h in _SCHEDULED:
        s = results[h].schedule
        summary = by_name[h]
        starts, finishes = s.start_times, s.finish_times
        procs = s.task_processors
        errors += check_intervals(graph, starts, finishes, procs,
                                  graph.weights_array)
        point = summary["point"]
        window = summary["deadline_seconds"]
        if float(finishes.max()) / point["frequency"] > window * (
                1.0 + REL_TOL):
            errors.append(f"{label}: {h} makespan misses the deadline at "
                          f"{point['frequency']:.4g} Hz")
        want = rewalk_energy(starts, finishes, procs, point, window,
                             sleep if h in _WITH_SLEEP else None)
        got = energy_total(summary)
        if not _close(want, got):
            errors.append(f"{label}: {h} reports {got:.9g} J, the "
                          f"interval walk gives {want:.9g} J")
    return errors


def check_mpeg(summaries: Sequence[dict]) -> List[str]:
    """Table 3: processor counts and energy ratios against S&S."""
    by_name = {s["heuristic"]: s for s in summaries}
    errors = check_ordering(summaries, "mpeg1")
    base = energy_total(by_name["S&S"])
    for h, want in MPEG_PROCESSORS.items():
        got = by_name[h]["n_processors"]
        if got != want:
            errors.append(f"mpeg1: {h} employs {got} processors, "
                          f"Table 3 has {want}")
    for h, ratio in TABLE3_RATIOS.items():
        got = energy_total(by_name[h]) / base
        if abs(got - ratio) > TABLE3_TOLERANCE:
            errors.append(f"mpeg1: {h}/S&S energy {got:.3f}, Table 3 has "
                          f"{ratio:.3f}")
    return errors


def failed(status: int) -> bool:
    """A refused (429) or failed (5xx) request: counted, not checked."""
    return status == 429 or status >= 500


def check_response(status: int, doc: dict, want_status: int,
                   label: str, want_results: Optional[list] = None
                   ) -> List[str]:
    """One HTTP answer: its status, and its results when it succeeded.

    A failed request is the harness's ``failed`` count, not a wrong
    answer, so it passes here.
    """
    if failed(status):
        return []
    if status != want_status:
        return [f"{label}: HTTP {status}, expected {want_status} "
                f"({doc.get('detail', '')})"]
    if status != 200:
        return []
    errors = check_ordering(doc["results"], label)
    if want_results is not None and doc["results"] != want_results:
        errors.append(f"{label}: results differ from the reference")
    return errors


def check_same(got: list, want: list, label: str) -> List[str]:
    """Two summary lists must be identical (bit for bit)."""
    if len(got) != len(want):
        return [f"{label}: {len(got)} results, expected {len(want)}"]
    for i, (a, b) in enumerate(zip(got, want)):
        if a != b:
            return [f"{label}: instance {i} differs from the reference"]
    return []


def check_deadline(makespan_cycles: float, frequency: float,
                   deadline_seconds: float, label: str) -> List[str]:
    if makespan_cycles / frequency > deadline_seconds * (1.0 + REL_TOL):
        return [f"{label}: makespan {makespan_cycles / frequency:.6g} s "
                f"misses the {deadline_seconds:.6g} s deadline"]
    return []


def check_hetero(graph, result, deadline_seconds: float,
                 label: str) -> List[str]:
    """Durations follow each core type's cycle multiplier; deadline met."""
    s = result.schedule
    procs = s.task_processors
    mult = np.array([result.system.core_type(p).cycle_multiplier
                     for p in range(result.system.n_processors)])
    errors = check_intervals(graph, s.start_times, s.finish_times, procs,
                             graph.weights_array * mult[procs])
    return errors + check_deadline(float(s.finish_times.max()),
                                   result.point.frequency,
                                   deadline_seconds, label)


def check_comm(cgraph, result, label: str) -> List[str]:
    """Cross-processor successors wait for the transfer; deadline met."""
    g = cgraph.graph
    s = result.schedule
    errors = check_intervals(g, s.start_times, s.finish_times,
                             s.task_processors, g.weights_array,
                             transfer=cgraph.comm_by_index)
    return errors + check_deadline(float(s.finish_times.max()),
                                   result.point.frequency,
                                   result.deadline_seconds, label)


def same_schedule(a, b) -> bool:
    return (np.array_equal(a.start_times, b.start_times)
            and np.array_equal(a.finish_times, b.finish_times)
            and np.array_equal(a.task_processors, b.task_processors))


def self_test() -> Dict[str, bool]:
    """Corrupt a real result three ways; each checker must object.

    Returns ``{corruption: caught}``; the clean inputs must pass first.
    """
    from repro.core.platform import default_platform
    from repro.core.suite import paper_suite_batch
    from repro.exec.cache import summarize_results
    from repro.graphs.analysis import critical_path_length
    from repro.graphs.generators import stg_random_graph

    platform = default_platform()
    g = stg_random_graph(30, 1).scaled(3.1e6)
    deadline = 2.0 * critical_path_length(g)
    [res] = paper_suite_batch([(g, deadline)], platform=platform)
    results = {h.value: r for h, r in res.items()}
    summaries = summarize_results(res)
    clean = check_suite_result(g, deadline, results, summaries,
                               platform.sleep)
    if clean:
        raise AssertionError(f"self-test input fails its check: {clean}")

    caught = {}
    s = results["LAMPS"].schedule
    # Move one task (start and finish) to begin before its latest
    # predecessor ends.
    starts, finishes = s.start_times.copy(), s.finish_times.copy()
    src, dst = edge_arrays(g)
    k = int(np.argmax(starts[dst]))
    u, v = int(src[k]), int(dst[k])
    shift = starts[v] - finishes[u] + 0.5 * float(g.weights_array[v])
    starts[v] -= shift
    finishes[v] -= shift
    caught["shifted task start"] = bool(check_intervals(
        g, starts, finishes, s.task_processors, g.weights_array))

    swapped = [dict(x) for x in summaries]
    i, j = 1, 0  # LAMPS and S&S trade energies
    swapped[i]["energy"], swapped[j]["energy"] = (swapped[j]["energy"],
                                                  swapped[i]["energy"])
    caught["swapped energies"] = bool(check_suite_result(
        g, deadline, results, swapped, platform.sleep))

    caught["wrong HTTP status"] = bool(check_response(
        200, {"results": summaries}, 422, "infeasible request"))
    return caught
