"""Record a baseline: every workload over several seeds, plus one traced run.

    python3 bench/baseline.py [--seeds 1-10] [--seconds 35] [--out bench/baseline.json]

For each workload and end-to-end metric it stores the median, the
quartiles and the quartile spread as a share of the median, as
``statistics.quantiles(values, n=4)`` gives them; for the traced run, every
per-layer metric.  Runs are sequential, one process at a time.
"""
from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int,
                    default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    ap.add_argument("--out", default=str(BENCH / "baseline.json"))
    args = ap.parse_args()
    lo, hi = map(int, args.seeds.split("-"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = {
        "recorded": time.strftime("%Y-%m-%d"),
        "host": f"{platform.machine()}, Python {platform.python_version()}",
        "seconds": args.seconds,
        "seeds": [lo, hi],
        "workloads": {},
    }
    for w in [w["name"] for w in spec["workloads"]]:
        values, attempted, failed = {}, 0, 0
        for seed in range(lo, hi + 1):
            res, _ = run(w, seed, args.seconds, 0)
            attempted += res["attempted"]
            failed += res["failed"]
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(w, seed, {k: round(v[-1], 6) for k, v in values.items()}, flush=True)
        traced, notes = run(w, hi + 1, args.seconds, 1)
        result["workloads"][w] = {
            "attempted": attempted,
            "failed": failed,
            "end_to_end": {name: summary(v) for name, v in values.items()},
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
            # the notes on the per-layer figures: ratio bases, overhead, spans
            "trace_notes": [n for n in notes if "/" in n or "traced" in n],
        }
    result["src_loc"] = int(next(n for n in notes if n.startswith("src_loc")).split()[1])
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    for w, r in result["workloads"].items():
        for name, s in r["end_to_end"].items():
            print(f"{w:14s} {name:12s} median {s['median']:.6g} spread {s['spread']:.4f}")


if __name__ == "__main__":
    main()
