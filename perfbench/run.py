"""The repository's benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload suite-stg --seed 0 --seconds 25 \\
        --trace 0

Run from the repository root.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
name every metric with its unit, the latency tail and the facts that
change what is measured (kernel backend, versions, revision).

``--trace 0`` reports the end-to-end metrics.  The measuring process
is started fresh, and set-up (imports, input generation, kernel load,
server start, warm-up) is timed from its start to its first timed unit;
one process before it and one after it only set up, and ``setup_s`` is
the median of the three.  Every time metric is in reference seconds:
each unit and call is scaled by the calibration rounds timed beside its
unit, and set-up by those of the whole run, so that the machine's
drifting speed cancels (see ``calibrate.py``).  ``--trace 1`` runs
once with spans around every layer and reports the per-layer metrics
instead (see ``tracing.py`` and ``layers.py``).

An untimed priming process compiles the bytecode and the C list-
scheduling kernel and runs the checker self-test first, so set-up
measures loading, not compiling.  Everything the run writes stays
under ``.perfbench-work/`` in the repository root: the kernel cache
(``HOME`` points there), temporary files and the Chrome trace.
"""

from __future__ import annotations

import argparse
import json
import os
import platform as _platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
#: A whole run (all its processes) ends within this many seconds.
RUN_TIMEOUT = 170.0
#: Calibration rounds before every timed unit and after the last one.
UNIT_ROUNDS = 3

#: (name, unit) of the end-to-end metrics, as in BENCHMARK.json.
END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MiB"),
              ("ops_per_s", "1/s"), ("p50_ms", "ms"))


def _env() -> dict:
    env = dict(os.environ)
    for sub in ("home", "tmp"):
        (WORK / sub).mkdir(parents=True, exist_ok=True)
    env["HOME"] = str(WORK / "home")
    env["TMPDIR"] = str(WORK / "tmp")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _spawn(args: list, env: dict) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, str(HERE / "run.py")] + args,
                            stdout=subprocess.PIPE, env=env, cwd=ROOT,
                            text=True)


def _child(args: argparse.Namespace, role: str, env: dict,
           deadline: float):
    """Run one child; returns (seconds until READY, RESULT or None).

    The child is killed at ``deadline`` (``time.monotonic()``), even
    when it hangs without closing its output.
    """
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--role", role]
    t0 = time.perf_counter()
    proc = _spawn(argv, env)
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()),
                               proc.kill)
    watchdog.start()
    ready, result = None, None
    try:
        for line in proc.stdout:
            if line.startswith("READY") and ready is None:
                ready = time.perf_counter() - t0
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
            else:
                sys.stdout.write(line)
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or ready is None:
        raise SystemExit(f"{role} process failed (exit {proc.returncode})")
    return ready, result


def _facts() -> dict:
    import numpy
    from repro.sched.ckernel import CKERNEL_ACTIVE

    rev, dirty = "unknown", None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or rev
            dirty = bool(subprocess.run(
                ["git", "status", "--porcelain", "--", "src"], cwd=ROOT,
                capture_output=True, text=True, timeout=10).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return {"list_scheduler": "c" if CKERNEL_ACTIVE else "python",
            "nproc": os.cpu_count(), "python": _platform.python_version(),
            "numpy": numpy.__version__, "revision": rev, "dirty": dirty}


def tail(latencies: list) -> tuple:
    """Highest of p99.9/p99/p95/p90 with at least 10 samples beyond it."""
    n = len(latencies)
    ordered = sorted(latencies)
    for p in (99.9, 99.0, 95.0, 90.0):
        if n * (100.0 - p) / 100.0 >= 10:
            return p, ordered[min(n - 1, int(n * p / 100.0))]
    return None, None


# ----------------------------------------------------------------------
# Child roles
# ----------------------------------------------------------------------
def prime() -> None:
    """Compile bytecode and the C kernel; fail if a checker is blind."""
    import compileall

    import checks

    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)
    caught = checks.self_test()
    print("self-test: " + ", ".join(f"{k} {'caught' if v else 'MISSED'}"
                                    for k, v in caught.items()))
    if not all(caught.values()):
        raise SystemExit("a checker missed an injected corruption")
    print("READY", flush=True)


def measure(args: argparse.Namespace) -> None:
    """Set up, report READY, run timed units for ``--seconds``."""
    import calibrate
    import workloads

    rec = folder = None
    if args.trace:
        import layers
        import tracing
        (WORK / "spans").mkdir(exist_ok=True)
        rec = tracing.Recorder(WORK / "spans")
        tracing.install(rec)
        folder = layers.Layers(rec, WORK / f"trace-{args.workload}.json")
    wl = workloads.WORKLOADS[args.workload](args.seed, WORK, rec)
    if wl.one_cpu:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        wl.setup()
        print("READY", flush=True)
        if args.role == "setup":
            return
        attempted, errors = wl.opening()
        if folder is not None:
            folder.setup_done()
        units, rounds, latencies, failed = [], [], [], 0
        phases, phase_s = {}, {}
        t_start = time.perf_counter()
        k = 0
        while True:
            if rec is None:
                rounds.append(calibrate.rounds_s(UNIT_ROUNDS))
            t_prep = time.perf_counter()
            wl.prepare(k)
            t0 = time.perf_counter()
            if rec is not None:
                with rec.span("harness.unit"):
                    u = wl.unit(k)
            else:
                u = wl.unit(k)
            t1 = time.perf_counter()
            units.append((t0, t1))
            latencies.append(u.latencies)
            for name, lat in u.phases.items():
                phases.setdefault(name, []).extend(lat)
            for name, walls in u.phase_s.items():
                phase_s.setdefault(name, []).append(walls)
            attempted += u.ops
            failed += u.failed
            errors += wl.check(k, u)
            wl.cleanup(k)
            if folder is not None:
                # Harness time around the unit; folding itself is not.
                harness = (t0 - t_prep) + (time.perf_counter() - t1)
                folder.unit_done(t0, t1, harness)
            k += 1
            if time.perf_counter() - t_start >= args.seconds:
                break
        if rec is None:
            rounds.append(calibrate.rounds_s(UNIT_ROUNDS))
        errors += wl.finish()
    finally:
        wl.close()
    # Peak RSS of this process and of the pool workers it has reaped.
    rss_kib = max(resource.getrusage(who).ru_maxrss for who in
                  (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    result = {"errors": errors[:20], "n_errors": len(errors),
              "peak_rss_mb": rss_kib / 1024,
              "attempted": attempted, "failed": failed,
              "ops_per_unit": wl.ops_per_unit,
              "unit_s": [b - a for a, b in units],
              "round_s": calibrate.beside_units(rounds),
              "latencies": latencies,
              "phases": phases, "phase_s": phase_s,
              "facts": _facts()}
    if folder is not None:
        result["layers"] = folder.metrics()
    print("RESULT " + json.dumps(result), flush=True)


# ----------------------------------------------------------------------
# Orchestrator
# ----------------------------------------------------------------------
def main() -> int:
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                    required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("run", "prime", "setup", "measure"),
                    default="run", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.role == "prime":
        prime()
        return 0
    if args.role in ("setup", "measure"):
        measure(args)
        return 0
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = _env()
    deadline = time.monotonic() + RUN_TIMEOUT
    _child(args, "prime", env, deadline)
    setups = []
    if not args.trace:
        # Set-up is sampled before and after the measured run, too: the
        # machine's speed drifts over seconds, and three back-to-back
        # samples would share one drift.
        setups.append(_child(args, "setup", env, deadline)[0])
    ready, res = _child(args, "measure", env, deadline)
    setups.append(ready)
    if not args.trace:
        setups.append(_child(args, "setup", env, deadline)[0])
    if res is None:
        raise SystemExit("measuring process returned no result")

    for e in res["errors"]:
        print(f"CHECK FAILED: {e}")
    correct = res["n_errors"] == 0
    print(f"workload {args.workload} seed {args.seed}: "
          f"{res['attempted']} operations attempted, {res['failed']} failed, "
          f"checks {'passed' if correct else 'FAILED'} "
          f"({len(res['unit_s'])} timed units)")
    print("facts: " + json.dumps(res["facts"]))
    if args.trace:
        import layers
        metrics = res["layers"]
        worst = metrics["trace.addup_error"]["value"]
        print(f"trace add-up: self times + harness = unit wall time within "
              f"{100 * worst:.3f}% (tolerance "
              f"{100 * layers.ADDUP_TOLERANCE:.1f}%); Chrome trace in "
              f"{WORK.name}/trace-{args.workload}.json")
        if worst > layers.ADDUP_TOLERANCE:
            correct = False
    else:
        from calibrate import to_reference

        unit_ref = [to_reference(u, r)
                    for u, r in zip(res["unit_s"], res["round_s"])]
        lat_ref = [to_reference(t, r)
                   for lats, r in zip(res["latencies"], res["round_s"])
                   for t in lats]
        lat = [t for lats in res["latencies"] for t in lats]
        # A set-up is one short sample per process, too short for a few
        # rounds beside it to be a fair yardstick; the rounds of the
        # measured run, which runs between the set-ups, stand in.
        rounds = res["round_s"]
        values = {"setup_s": to_reference(statistics.median(setups),
                                          statistics.median(rounds)),
                  "peak_rss_mb": res["peak_rss_mb"],
                  "ops_per_s": res["ops_per_unit"] / statistics.median(
                      unit_ref),
                  "p50_ms": 1e3 * statistics.median(lat_ref)}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
        wall_ops = res["ops_per_unit"] / statistics.median(res["unit_s"])
        print("setups: " + ", ".join(f"{s:.3f}" for s in setups)
              + " s wall")
        print(f"calibration round beside units: median "
              f"{1e3 * statistics.median(rounds):.2f} ms, range "
              f"{1e3 * min(rounds):.2f}-{1e3 * max(rounds):.2f} ms; wall "
              f"figures: {wall_ops:.2f} ops/s, p50 "
              f"{1e3 * statistics.median(lat):.3f} ms")
        print("per kind of call, wall time:")
        for name, calls in [("all calls", lat)] + sorted(
                res["phases"].items()):
            p, tail_s = tail(calls)
            line = (f"{name}: p50 {1e3 * statistics.median(calls):.3f} ms, "
                    + (f"p{p:g} {1e3 * tail_s:.3f} ms" if p else "no tail")
                    + f", {len(calls)} calls")
            walls = res["phase_s"].get(name)
            if walls:
                rate = walls[0][1] / statistics.median(w for w, _ in walls)
                line += f", {rate:.1f} ops/s"
            print(line)
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
