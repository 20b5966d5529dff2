"""Smoke test of the benchmark itself, at tiny sizes.

    python -m pytest -q bench/test_smoke.py

Runs every workload's plan through the CLI in-process, checks that a
tampered stdout, a nonzero exit and a crash each count as a failed
invocation, that the traced run restores the package's functions and
reproduces the known call ratios, and that the command refuses to run
without the program's sources.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import measure  # noqa: E402
import report  # noqa: E402
import workloads  # noqa: E402


BENCHMARK = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def tiny_plan(name, seed=7):
    return workloads.WORKLOADS[name](seed, **workloads.TINY[name])


def run_tiny(name, tmp_path, tamper=None, tracer=None):
    tmp_path.mkdir(exist_ok=True)
    runner = measure.Runner(tmp_path, tamper=tamper)
    plan = tiny_plan(name)
    _, complete, exhausted = measure.run_plan(runner, plan, 600, tracer)
    assert exhausted and complete == len(plan)
    return runner.records


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_clean(name, tmp_path):
    records = run_tiny(name, tmp_path)
    assert len(records) >= 3
    assert [r["error"] for r in records if not r["ok"]] == []
    metrics, _ = report.end_to_end(records, 1)
    assert all(v > 0 for v in metrics.values())
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {name: report.unit_of(name) for name in [*metrics, "setup_s"]} == declared


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_graphs_never_repeat_and_inputs_follow_the_seed(name):
    plan = [item for rnd in workloads.WORKLOADS[name](3) for item in rnd]
    graphs = {item.file: item.graph for item in plan if item.graph is not None}
    assert len(set(graphs.values())) == len(graphs)
    again = [item.key for rnd in workloads.WORKLOADS[name](3) for item in rnd]
    assert again == [item.key for item in plan]
    assert again != [item.key for rnd in workloads.WORKLOADS[name](4) for item in rnd]


def _tamper(name):
    def edit(payload):
        if name == "reduce-random":
            payload["n"] += 1
        elif name == "shrink-deep":
            payload["endGenerators"] = "failed"
        elif "socleQuotientsEqual" in payload:
            payload["socleQuotientsEqual"] = False
        else:
            payload["det"] = -payload["det"] + 1
        return payload

    return lambda text: json.dumps(edit(json.loads(text)), indent=2)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tampered_stdout_counts_as_failed(name, tmp_path):
    clean = run_tiny(name, tmp_path / "clean")
    bad = run_tiny(name, tmp_path / "bad", tamper=_tamper(name))
    assert len(bad) == len(clean)
    assert not any(r["ok"] for r in bad)
    assert all(a["sha256"] != b["sha256"] for a, b in zip(clean, bad))


def test_exit_code_and_crash_count_as_failed(tmp_path):
    item = workloads.Item("bad", ["reduce", "{file}", "--json"], "{}", "bad",
                          lambda p: None, units=1)
    rec = measure.Runner(tmp_path).invoke(item)
    assert not rec["ok"] and rec["error"].startswith("exit code 1")

    class Broken:
        @staticmethod
        def run(argv):
            raise RuntimeError("boom")

    rec = measure.Runner(tmp_path, load_cli=lambda: Broken).invoke(item)
    assert not rec["ok"] and "boom" in rec["error"]


def test_traced_run_restores_functions_and_counts(tmp_path):
    from tracer import Tracer

    tracer = Tracer()
    records = run_tiny("reduce-random", tmp_path, tracer=tracer)
    algebra = sys.modules["brauer_derive.algebra"]
    reduction = sys.modules["brauer_derive.reduction"]
    for fn in (algebra.quotient_basis, reduction.quotient_basis,
               algebra.QuotientAlgebra.multiply):
        assert not hasattr(fn, "__wrapped__")
    assert any(r["traced"] for r in records) and any(not r["traced"] for r in records)
    m, _ = report.per_layer(records)
    declared = {p["name"]: p["unit"] for p in BENCHMARK["per_layer"]}
    assert {name: report.unit_of(name) for name in m} == declared
    # reduce --certify certifies every step twice, with one algebra per graph
    assert m["reduction.check_tilting_per_step"] == 2.0
    assert m["algebra.quotient_basis.calls"] == 2 * m["algebra.quotient_basis.distinct"]
    assert m["homological.homotopy_hom.calls"] > 0
    assert tracer.write_spans(tmp_path / "spans.csv.gz") == len(tracer.span_start) > 0


def test_tail_is_the_nearest_rank_percentile():
    assert report.tail([float(i) for i in range(100, 0, -1)]) == (90.0, 10)
    assert report.tail([1.0, 3.0, 2.0]) == (3.0, 0)


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        shutil.copy(f, tmp_path / "bench" / f.name)
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "basis-star", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
