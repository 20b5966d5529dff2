"""The closed loop: plan items through the CLI in-process, checked and timed.

On the two-core virtual machine this benchmark was built on, which shares
its cores with other work, a fixed piece of Python took from 1.0 to 2.3 ms
from one moment to the next, and runs of the same inputs differed by 1.5x
in wall time.  So before each invocation the
loop also times a fixed pure-Python kernel, and the reports scale each
invocation's wall time by REFERENCE_S over the kernel's median time around
it: times read as on a machine where the kernel takes REFERENCE_S.  Raw
wall times are printed next to the scaled ones.
"""
from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

REFERENCE_S = 0.002  # kernel time that defines the reference machine speed
SPEED_WINDOW = 2  # kernel samples on each side of an invocation in its median


def kernel():
    """Dict, tuple and Fraction work, like the program's inner loops."""
    words = {}
    acc = Fraction(0)
    for i in range(400):
        w = (i % 13, i % 7, i % 3)
        words[w] = words.get(w, 0) + i
        acc += Fraction(i % 7 - 3, i % 5 + 1)
    return acc, sorted(words, key=lambda w: (len(w), w))


def kernel_time():
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def speed_scales(kernel_times):
    """Per sample: REFERENCE_S over the median kernel time of its window."""
    n = len(kernel_times)
    return [
        REFERENCE_S
        / statistics.median(kernel_times[max(0, i - SPEED_WINDOW) : min(n, i + SPEED_WINDOW + 1)])
        for i in range(n)
    ]


def fresh_cli():
    """Import ``brauer_derive`` anew and return its ``cli`` module.

    Each invocation then starts from a package in which no earlier
    invocation left state behind, as with separate CLI processes, so a
    memo kept across invocations cannot show a gain users would never see.
    """
    for name in [n for n in sys.modules if n == "brauer_derive" or n.startswith("brauer_derive.")]:
        del sys.modules[name]
    return importlib.import_module("brauer_derive.cli")


class Runner:
    """Runs plan items through the CLI in-process and checks their output.

    ``load_cli`` is called before every invocation, outside the timed part,
    and returns the module whose ``run(argv)`` is timed.
    """

    def __init__(self, workdir, load_cli=fresh_cli, tamper=None):
        self.load_cli = load_cli
        self.workdir = Path(workdir)
        self.tamper = tamper  # test hook: rewrites stdout before the check
        self.records = []

    def invoke(self, item, round_index=0, tracer=None):
        argv = list(item.argv)
        if item.graph is not None:
            path = self.workdir / f"{item.file}.json"
            if not path.exists():
                path.write_text(item.graph, encoding="utf-8")
            argv = [str(path) if a == "{file}" else a for a in argv]
        cli = self.load_cli()
        out, err = io.StringIO(), io.StringIO()
        rc, crash = None, None
        speed = kernel_time()
        if tracer is not None:
            tracer.begin(len(self.records))
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.run(argv)
        except Exception as exc:  # a crash is a failed invocation, not a failed run
            crash = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        layers = tracer.end() if tracer is not None else None
        text = out.getvalue()
        if self.tamper is not None:
            text = self.tamper(text)
        error = crash or self._check(item, rc, text, err.getvalue())
        data = text.encode("utf-8")
        rec = {
            "key": item.key,
            "round": round_index,
            "kernel_s": speed,
            "seconds": elapsed,
            "units": item.units,
            "steps": item.steps,
            "ok": error is None,
            "error": error,
            "sha256": hashlib.sha256(data).hexdigest(),
            "stdout_bytes": len(data),
            "traced": tracer is not None,
            "layers": layers,
        }
        self.records.append(rec)
        return rec

    @staticmethod
    def _check(item, rc, text, err):
        if rc != 0:
            return f"exit code {rc}: {err.strip()[:200]}"
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            return f"stdout is not JSON: {exc}"
        if payload.get("schema") != "brauer-derive/1":
            return "missing schema key"
        try:
            return item.check(payload)
        except (KeyError, TypeError, IndexError, AttributeError) as exc:
            return f"output lacks a field: {type(exc).__name__}: {exc}"


def run_plan(runner, plan, seconds, tracer=None):
    """Closed loop with one client over the plan's rounds for ``seconds``.

    Returns (elapsed, complete rounds, whether the plan ran out).  With a
    tracer, half the size strata of a round are traced and the other half
    in the next round, so traced and untraced invocations see the same mix
    of sizes over the run.
    """
    start = time.perf_counter()
    deadline = start + seconds
    for k, round_items in enumerate(plan):
        for item in round_items:
            if time.perf_counter() >= deadline:
                return time.perf_counter() - start, k, False
            runner.invoke(item, k, tracer if (k + item.stratum) % 2 else None)
    return time.perf_counter() - start, len(plan), True
