"""Steadiness of the end-to-end metrics over repeated runs.

    python3 perfbench/steady.py --runs 10 --seconds 25 [--workloads ...]

Runs ``run.py`` once per seed (``--seed-base``, ``--seed-base + 1``,
...) on each workload, one run at a time, and prints for every metric
its median, the quartile distance (IQR) as a share of the median, and
the largest relative distance of a run from the median.  The raw
results go to ``.perfbench-work/steady-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def spread(values: list) -> tuple:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    worst = max(abs(v - med) for v in values)
    return med, (q3 - q1) / med, worst / med


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+",
                    default=sorted(workloads.WORKLOADS))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--seed-base", type=int, default=0)
    args = ap.parse_args()
    work = HERE.parent / ".perfbench-work"
    work.mkdir(exist_ok=True)
    ok = True
    for w in args.workloads:
        rows = []
        for i in range(args.runs):
            seed = args.seed_base + i
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"], capture_output=True, text=True,
                cwd=HERE.parent, timeout=300)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {out.returncode}\n{out.stderr}")
                return 1
            rows.append(json.loads(lines[-1]))
            ok &= rows[-1]["correct"] and rows[-1]["failed"] == 0
        (work / f"steady-{w}.json").write_text(json.dumps(rows))
        for name in rows[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in rows]
            med, iqr, worst = spread(vals)
            print(f"{w:12s} {name:12s} median {med:12.6g}  "
                  f"IQR {100 * iqr:6.2f}%  max {100 * worst:6.2f}%")
        fails = sorted({(r["attempted"], r["failed"]) for r in rows})
        print(f"{w:12s} attempted/failed per run: {fails[:3]}"
              f"{' ...' if len(fails) > 3 else ''}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
