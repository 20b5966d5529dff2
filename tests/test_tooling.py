"""Static checks on ``src/brauer_derive`` with the stdlib ``ast`` module: no
module (``__init__.py`` aside, which re-exports) imports a name it never
uses, every top-level function or class and every method of one is
referenced somewhere in the package (or by the benchmark) outside its own
body and outside ``__init__.py``, and every exception class the package
raises has an exit code in ``cli.run``.

The benchmark's tracer reads the program from outside (the arguments and
results of the functions it wraps), so a last test runs every workload's
tiny plan traced and checks that each declared per-layer metric comes out."""
import ast
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "brauer_derive"


def _names(node):
    """Every identifier read or imported under ``node``: names, attribute
    names and the names of ``from`` imports."""
    out = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.append(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.extend(alias.name for alias in sub.names)
    return out


def unused_imports(sources):
    """(module, name) for every imported name its module never reads."""
    found = []
    for module, text in sorted(sources.items()):
        if module == "__init__.py":
            continue
        tree = ast.parse(text)
        used = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        found.append((module, name))
    return found


def orphan_helpers(sources, readers=()):
    """(module, name) for every top-level function or class, and
    (module, "Class.method") for every method of a top-level class, that no
    code in the package or in ``readers`` refers to outside its own
    definition.  A re-export in ``__init__.py`` is not a use: a public name
    that only tests or other callers outside the package read belongs next
    to those callers.  ``readers`` are outside callers that cannot hold a
    helper themselves, such as the benchmark, which reads the program from
    outside.  A class with a base defined outside the package is skipped
    for methods, since that base may call them (``_Parser.error``)."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    counts = {}
    for tree in [t for module, t in trees.items() if module != "__init__.py"] + [
        ast.parse(text) for text in readers
    ]:
        for name in _names(tree):
            counts[name] = counts.get(name, 0) + 1
    classes = {
        node.name for tree in trees.values() for node in tree.body
        if isinstance(node, ast.ClassDef)
    }

    def unused(node):
        return not node.name.startswith("__") and (
            counts.get(node.name, 0) == _names(node).count(node.name)
        )

    found = []
    for module, tree in sorted(trees.items()):
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if unused(node):
                found.append((module, node.name))
            if isinstance(node, ast.ClassDef) and all(
                _class_name(b) in classes for b in node.bases
            ):
                found.extend(
                    (module, f"{node.name}.{sub.name}") for sub in node.body
                    if isinstance(sub, ast.FunctionDef) and unused(sub)
                )
    return found


# Programming errors that no input can cause, so ``cli.run`` maps them to no
# exit code and a traceback is the right report.
UNMAPPED = {
    "AttributeError": "assignment to a frozen PrimeFieldElement",
    "TypeError": "_json_key given a key that json cannot write",
}


def _class_name(node):
    """The class an exception expression names: ``X`` for ``X``, ``X(...)``
    and ``module.X(...)``."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def unmapped_exceptions(sources, allowed=UNMAPPED):
    """(module, name) for every exception class raised in the package that
    is not in ``allowed`` and that neither it nor a base class defined in the
    package is caught by an ``except`` clause of ``cli.run``."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    bases = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = [_class_name(b) for b in node.bases]
    run = next(
        node for node in trees["cli.py"].body
        if isinstance(node, ast.FunctionDef) and node.name == "run"
    )
    caught = set()
    for node in ast.walk(run):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            caught.update(_class_name(t) for t in types)

    def handled(name):
        return name in caught or any(handled(b) for b in bases.get(name, ()))

    found = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                name = _class_name(node.exc)
                if not handled(name) and name not in allowed:
                    found.add((module, name))
    return sorted(found)


def _package_sources():
    return {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}


def _benchmark_sources():
    """The benchmark's modules, its tests aside: it reads members of the
    program (``ProjComplex.total_summands`` for its tracer's counters)."""
    return [
        p.read_text(encoding="utf-8") for p in sorted((ROOT / "bench").glob("*.py"))
        if not p.name.startswith("test_")
    ]


def test_no_unused_imports():
    assert unused_imports(_package_sources()) == []


def test_no_orphan_helpers():
    assert orphan_helpers(_package_sources(), _benchmark_sources()) == []
    # only the benchmark reads total_summands
    assert orphan_helpers(_package_sources()) == [("homological.py", "ProjComplex.total_summands")]


def test_only_the_class_of_a_path_reads_normal_forms():
    """In ``algebra.py`` one method turns a path into its class; products
    and reduced paths read it through ``_product``."""
    tree = ast.parse(_package_sources()["algebra.py"])
    readers = {
        node.name for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and {"nf_word", "nf_combo"} & set(_names(node))
    }
    assert readers == {"_class"}


def test_every_raised_exception_has_an_exit_code():
    sources = _package_sources()
    assert unmapped_exceptions(sources) == []
    # each allow-list entry is still raised and still unmapped
    assert unmapped_exceptions(sources, allowed=()) == [
        ("cli.py", "TypeError"), ("linalg.py", "AttributeError"),
    ]


def test_checks_flag_injected_faults():
    sources = _package_sources()
    sources["linalg.py"] += "\nimport itertools\nfrom math import gcd\n"
    sources["tilting.py"] += "\n\ndef _stray(x):\n    return _stray(x - 1) if x else 0\n"
    sources["graph.py"] += "\n\nclass Stray:\n    pass\n"
    sources["__init__.py"] += "\nfrom .graph import Stray\n"
    sources["homological.py"] = sources["homological.py"].replace(
        "    def degrees(self):",
        "    def _stray_size(self):\n        return len(self.terms)\n\n    def degrees(self):",
        1,
    )
    assert unused_imports(sources) == [("linalg.py", "itertools"), ("linalg.py", "gcd")]
    assert orphan_helpers(sources, _benchmark_sources()) == [
        ("graph.py", "Stray"), ("homological.py", "ProjComplex._stray_size"),
        ("tilting.py", "_stray"),
    ]


def test_exit_code_check_flags_injected_faults():
    sources = _package_sources()
    sources["graph.py"] += (
        "\n\nclass StrayError(Exception):\n    pass\n"
        "\n\nclass MalformedRow(MalformedInput):\n    pass\n"
        "\n\ndef _stray(x):\n    if x:\n        raise StrayError(x)\n"
        "    raise MalformedRow(x)\n"
    )
    sources["linalg.py"] += "\n\ndef _lookup(d, k):\n    raise KeyError(k)\n"
    sources["cli.py"] = sources["cli.py"].replace("        FieldMismatch,\n", "", 1)
    assert unmapped_exceptions(sources) == [
        ("graph.py", "StrayError"), ("linalg.py", "FieldMismatch"), ("linalg.py", "KeyError"),
    ]


# -- the benchmark tracer's view of the program ---------------------------


@pytest.mark.parametrize("workload", ["reduce-random", "shrink-deep", "basis-star"])
def test_traced_tiny_plans_report_every_declared_layer_metric(workload, tmp_path):
    """The tracer counts from ``quotient_basis``'s presentation (its quiver's
    arrows and its relations as text), ``complete``'s rules, the levels of
    ``normal_words``, ``minimize``'s summands and more; a refactor that moves
    any of them breaks its metrics, which CI's tier-1 run would otherwise
    not see.  The package is not re-imported between invocations here."""
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import measure
        import report
        import workloads
        from tracer import Tracer
    finally:
        sys.path.remove(str(ROOT / "bench"))
    from brauer_derive import cli

    plan = workloads.WORKLOADS[workload](7, **workloads.TINY[workload])
    runner = measure.Runner(tmp_path, load_cli=lambda: cli)
    _, complete, exhausted = measure.run_plan(runner, plan, 600, Tracer())
    assert exhausted and complete == len(plan)
    assert [r["error"] for r in runner.records if not r["ok"]] == []
    assert any(r["traced"] for r in runner.records)
    metrics, _ = report.per_layer(runner.records)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert [m["name"] for m in declared if m["name"] not in metrics] == []
