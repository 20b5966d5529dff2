"""Benchmark for brauer-derive: the public CLI on seeded workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The command starts one worker
process, single-threaded, that imports ``brauer_derive`` from ``src/``,
builds the workload's inputs from the seed (workloads.py) and then calls
``brauer_derive.cli.run(argv)`` in a closed loop with one client: the next
invocation starts when the previous one has returned, until S seconds have
passed (measure.py).  Every invocation's exit code and JSON output are
checked, and the SHA-256 of its stdout is recorded.

``--trace 0`` reports the end-to-end metrics; set-up time is the median of
several fresh worker start-ups (interpreter, package import, input
generation).  ``--trace 1`` traces half of the invocations (tracer.py) and
reports the per-layer metrics (report.py).  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.  Spans and
stdout digests are written under bench/out/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import report
import workloads
from measure import REFERENCE_S, Runner, kernel_time, run_plan
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_SAMPLES = 9  # timed start-ups for setup_s, besides the measured worker's own
DIGEST_PREFIX = 8  # invocations folded into the printed stdout digest

WORK_UNIT = {
    "reduce-random": "certified reduction steps",
    "shrink-deep": "summands certified",
    "basis-star": "basis elements built",
}


def worker(args):
    sys.path.insert(0, str(SRC))
    import brauer_derive.cli  # noqa: F401  (the import is part of set-up)

    plan = workloads.WORKLOADS[args.workload](args.seed)
    print("ready", flush=True)
    # this process's own speed, for scaling its set-up time
    print(statistics.median(kernel_time() for _ in range(5)), flush=True)
    if args.probe:
        return 0

    tracer = Tracer() if args.trace else None
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        runner = Runner(workdir)
        elapsed, complete, exhausted = run_plan(runner, plan, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = summarize(args, runner.records, tracer, elapsed, complete, exhausted)
    print(json.dumps(result), flush=True)
    return 0


def summarize(args, records, tracer, elapsed, complete, exhausted):
    failed = [r for r in records if not r["ok"]]
    notes = [
        f"workload {args.workload} seed {args.seed}: {len(records)} invocations in "
        f"{elapsed:.2f} s, closed loop with 1 client; work unit: {WORK_UNIT[args.workload]}",
        f"failed_frac {len(failed) / max(1, len(records)):.4f} ({len(failed)} of {len(records)})",
    ]
    if exhausted:
        notes.append("the input plan ran out before the time was up")
    notes += [f"FAILED {r['key']}: {r['error']}" for r in failed[:5]]
    digest = hashlib.sha256("".join(r["sha256"] for r in records[:DIGEST_PREFIX]).encode())
    notes.append(f"stdout sha256 of the first {DIGEST_PREFIX} invocations: {digest.hexdigest()}")
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}-digests.json", "w", encoding="utf-8") as fh:
        json.dump([{"key": r["key"], "sha256": r["sha256"], "ok": r["ok"]} for r in records],
                  fh, indent=0)
    if tracer is not None:
        metrics, more = report.per_layer(records)
        spans = tracer.write_spans(f"{stem}-spans.csv.gz")
        more.append(f"{spans} spans written to {stem.relative_to(ROOT)}-spans.csv.gz")
    else:
        metrics, more = report.end_to_end(records, complete)
    return {
        "notes": notes + more,
        "correct": bool(records) and not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
    }


# -- parent ----------------------------------------------------------------


def start_worker(args, probe):
    """Start a worker; return (process, set-up time scaled to reference speed).

    The set-up time runs from the start of the process until the worker
    reports that its inputs are ready.  The worker then times the speed
    kernel (measure.py) and reports that too: the host's speed changes from
    moment to moment and between its cores, and a reading taken in this
    parent process tracked the worker's set-up time worse than none.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if probe:
        cmd.append("--probe")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    try:
        if line.strip() != "ready":
            raise ValueError(line)
        speed = float(proc.stdout.readline())
    except ValueError:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not start: {line.strip()!r}") from None
    return proc, ready * REFERENCE_S / speed


def parent(args):
    if not (SRC / "brauer_derive" / "cli.py").is_file():
        print(f"error: no brauer_derive sources under {SRC}", file=sys.stderr)
        return 2
    setups = []
    if not args.trace:
        # one start-up first that is not timed, so byte-compilation is not counted
        for i in range(SETUP_SAMPLES + 1):
            proc, ready = start_worker(args, probe=True)
            proc.communicate(timeout=60)
            if i:
                setups.append(ready)
    proc, ready = start_worker(args, probe=False)
    setups.append(ready)
    try:
        out, _ = proc.communicate(timeout=args.seconds + 100)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("error: worker did not finish in time", file=sys.stderr)
        return 3
    if proc.returncode != 0 or not out.strip():
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 3
    result = json.loads(out.strip().splitlines()[-1])
    metrics = result["metrics"]
    notes = result.pop("notes")
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
        notes.append("setup_s: median of worker start-ups "
                     + ", ".join(f"{s:.4f}" for s in setups))
    notes.append(f"src_loc {src_loc()} (informational, not gated)")
    for note in notes:
        print(note)
    for name, value in metrics.items():
        print(f"{name:48s} {value:14.6g} {report.unit_of(name)}")
    result["metrics"] = {
        name: {"value": value, "unit": report.unit_of(name)} for name, value in metrics.items()
    }
    print(json.dumps(result))
    return 0


def src_loc():
    return sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((SRC / "brauer_derive").glob("*.py"))
    )


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORK_UNIT))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    return worker(args) if args.worker else parent(args)


if __name__ == "__main__":
    sys.exit(main())
