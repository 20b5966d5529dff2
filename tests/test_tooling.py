"""Static checks on ``src/brauer_derive`` with the stdlib ``ast`` module: no
module (``__init__.py`` aside, which re-exports) imports a name it never
uses, every top-level function or class and every method of one is
referenced somewhere in the package (or by the benchmark) outside its own
body and outside ``__init__.py``, and every exception class the package
raises has an exit code in ``cli.run``.

The reference check counts names, so a member counts as used whenever
anything else has its name: a method ``reduce`` is "used" by a call of
``self.reduce`` on another class.  The traffic test closes that gap by
running the program: it drives ``cli.main`` over a fixed corpus under
``sys.setprofile`` and fails if a function or method defined in the
package, nested ones included and dunder methods aside, is never entered,
unless ``NOT_ENTERED`` names it with the reason it stays.  One stays:
``ProjComplex.total_summands``, which the benchmark's tracer reads.  The test
compares the set never entered with ``NOT_ENTERED`` exactly, so an entry
that the corpus starts to reach, or whose function is gone, fails it too.

The raise-site test shows that every certificate check can reject: it lists
every ``raise`` in the package by module, function, exception class and
message, runs the fault corpus (every test elsewhere that expects a fault:
``pytest.raises``, an ``except``, a failing exit code) in a child pytest
under a tracer of exception events, and fails unless the raises never
reached are exactly the internal guards of ``NEVER_RAISED``, each with the
reason no input reaches it.

The benchmark's tracer reads the program from outside (the arguments and
results of the functions it wraps), so a last test runs every workload's
tiny plan traced and checks that each declared per-layer metric comes out."""
import ast
import io
import json
import os
import subprocess
import sys
import tempfile
import threading
from contextlib import redirect_stderr, redirect_stdout
from functools import lru_cache
from pathlib import Path

import pytest

from brauer_derive import cli
from brauer_derive.graph import parse_graph

from conftest import CORPUS_TEXTS

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


def _readers(tree, name):
    """Names of the functions under ``tree`` that read ``name``."""
    return {
        node.name for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and name in _names(node)
    }


def test_only_the_class_of_a_path_reads_normal_forms():
    """In ``algebra.py`` one method turns a path into its class; products
    and reduced paths sum classes through ``_class_sum`` alone, and only
    the arrow actions read ``_class`` besides."""
    tree = ast.parse(_package_sources()["algebra.py"])
    assert _readers(tree, "nf_word") == {"_class"}
    assert _readers(tree, "_class") == {"_class_sum", "arrow_rows", "socle_words"}


def test_every_raised_exception_has_an_exit_code():
    sources = _package_sources()
    assert unmapped_exceptions(sources) == []
    # each allow-list entry is still raised and still unmapped
    assert unmapped_exceptions(sources, allowed=()) == [("linalg.py", "AttributeError")]


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


# -- the functions the CLI enters -----------------------------------------


def package_functions(sources):
    """{(module, first line): qualified name} of every function and method
    defined in the package, nested ones included and dunder methods aside.
    The first line is that of the first decorator, as in a code object's
    ``co_firstlineno``, which is how ``cli_traffic`` names what it saw
    (``co_qualname`` would name it directly, but only from Python 3.11)."""
    found = {}

    def visit(module, node, prefix):
        for sub in ast.iter_child_nodes(node):
            if isinstance(sub, ast.FunctionDef):
                if not (sub.name.startswith("__") and sub.name.endswith("__")):
                    first = min([sub.lineno] + [d.lineno for d in sub.decorator_list])
                    found[(module, first)] = prefix + sub.name
                visit(module, sub, f"{prefix}{sub.name}.")
            elif isinstance(sub, ast.ClassDef):
                visit(module, sub, f"{prefix}{sub.name}.")
            else:
                visit(module, sub, prefix)

    for module, text in sources.items():
        visit(module, ast.parse(text), "")
    return found


def never_entered(sources, entered):
    """Sorted (module, qualified name) of every function of ``sources`` whose
    (module, first line) is not in ``entered``."""
    return sorted(
        (module, name) for (module, line), name in package_functions(sources).items()
        if (module, line) not in entered
    )


def _main(argv):
    """``cli.main(argv)`` with its output captured: (exit code, stdout)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _corpus_runs(folder):
    """Run the CLI over every corpus graph: each command on it, with and
    without --json and over Q and GF(2) in turn, so that across the graphs
    every command meets all four combinations; then ``reduce --certify
    --json`` and ``verify`` on its output.  The first graph also goes
    through ``tilt-shrink`` over GF(3): over Q the mod-2 screen proves every
    Hom the CLI asks about 0, so only an odd prime takes ``SparseEchelon``
    to the ranks of a Hom system."""
    for k, (name, text) in enumerate(sorted(CORPUS_TEXTS.items())):
        path = folder / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        path = str(path)
        g = parse_graph(text)
        at = next(c for c in g.cycle_edges[1:] if g.trees[c])
        out = ("--json",) if k % 2 else ()
        field = ("--field", "2") if k // 2 % 2 else ()
        for argv in (
            ["validate", path, *out],
            ["quiver", path, *out],
            ["classify", path, *out],
            ["algebra", path, *out, *field],
            ["cartan", path, *out, *field],
            ["tilt-shrink", path, *out, *field],
            ["tilt-enlarge", path, "--at", at, *out, *field],
            ["reduce", path, *out],
            *([["tilt-shrink", path, "--field", "3"]] if k == 0 else []),
        ):
            assert _main(argv)[0] == cli.EXIT_OK, argv
        code, trace = _main(["reduce", path, "--certify", "--json", *field])
        assert code == cli.EXIT_OK, name
        (folder / "trace.json").write_text(trace, encoding="utf-8")
        assert _main(["verify", str(folder / "trace.json"), *out, *field])[0] == cli.EXIT_OK


@lru_cache(maxsize=None)
def cli_traffic():
    """(module, first line) of every package function that ``cli.main``
    enters on the corpus runs, the builders, ``cartan --omega`` and
    ``--an``, a ``--cap`` and an unknown flag, run under ``sys.setprofile``
    on the package as already imported."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        with tempfile.TemporaryDirectory() as folder:
            _corpus_runs(Path(folder))
        for argv in (
            ["omega", "4", "--compare-socle"],
            ["an", "4", "--compare-socle", "--json", "--field", "2"],
            ["cartan", "--omega", "3", "--cap", "12"],
            ["cartan", "--an", "3", "--json"],
        ):
            assert _main(argv)[0] == cli.EXIT_OK, argv
        assert _main(["cartan", "--omega", "3", "--no-such-flag"])[0] == cli.EXIT_USAGE
    finally:
        sys.setprofile(previous)
    package = os.path.dirname(cli.__file__)
    return frozenset(
        (os.path.basename(code.co_filename), code.co_firstlineno) for code in seen
        if os.path.dirname(code.co_filename) == package
    )


# Functions the CLI never enters, each with the reason it stays in src/.
NOT_ENTERED = {
    ("homological.py", "ProjComplex.total_summands"): (
        "the benchmark's tracer reads it for its homotopy_hom and minimize counters"
    ),
}


def test_cli_traffic_enters_every_function():
    assert never_entered(_package_sources(), cli_traffic()) == sorted(NOT_ENTERED)


def test_traffic_flags_a_stray_method_the_name_count_misses():
    """A method named ``reduce`` on a class that is itself used counts as
    used by name, through ``SparseEchelon.contains``'s ``self.reduce``; the
    traffic check sees that no run enters it.  It is appended at the end of
    its module, so no recorded line moves."""
    sources = _package_sources()
    sources["linalg.py"] += (
        "\n\nclass _Stray:\n    def reduce(self, vec):\n        return vec\n"
        "\n\n_STRAY = _Stray()\n"
    )
    assert orphan_helpers(sources, _benchmark_sources()) == []
    assert never_entered(sources, cli_traffic()) == sorted(
        [*NOT_ENTERED, ("linalg.py", "_Stray.reduce")]
    )


# -- every raise site is reached by a test that expects a fault ------------

EXIT_FAULTS = {"EXIT_INVALID", "EXIT_NOT_STABILIZED", "EXIT_CERTIFICATE", "EXIT_USAGE"}


def raise_sites(sources):
    """{(module, function, exception class, message): [(first line, last
    line), ...]} of every ``raise`` with an exception in the package.  The
    function is the qualified name of the innermost enclosing one, and the
    message the literal text of the exception's first argument, each
    formatted value written {}, which tells apart two raises of one class
    in one function."""
    found = {}

    def message(exc):
        arg = exc.args[0] if isinstance(exc, ast.Call) and exc.args else None
        if isinstance(arg, ast.JoinedStr):
            return "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in arg.values)
        return arg.value if isinstance(arg, ast.Constant) else ""

    def visit(module, node, function, prefix):
        for sub in ast.iter_child_nodes(node):
            if isinstance(sub, (ast.FunctionDef, ast.ClassDef)):
                name = prefix + sub.name
                visit(module, sub, name if isinstance(sub, ast.FunctionDef) else function,
                      name + ".")
                continue
            if isinstance(sub, ast.Raise) and sub.exc is not None:
                key = (module, function, _class_name(sub.exc), message(sub.exc))
                found.setdefault(key, []).append((sub.lineno, sub.end_lineno))
            visit(module, sub, function, prefix)

    for module, text in sources.items():
        visit(module, ast.parse(text), "", "")
    return found


def _expects_a_fault(test):
    """Whether a test function expects a fault: it uses ``pytest.raises``,
    catches an exception, names a failing exit code, or compares what
    ``run`` or ``main`` returns with a nonzero constant."""
    for node in ast.walk(test):
        if isinstance(node, ast.ExceptHandler):
            return True
        if isinstance(node, (ast.Name, ast.Attribute)):
            if (node.id if isinstance(node, ast.Name) else node.attr) in EXIT_FAULTS | {"raises"}:
                return True
        if isinstance(node, ast.Compare) and isinstance(node.left, ast.Call):
            if _class_name(node.left) in ("run", "main") and any(
                isinstance(c, ast.Constant) and c.value for c in node.comparators
            ):
                return True
    return False


def fault_corpus():
    """Node ids of every test function, outside this module, that expects
    a fault."""
    return [
        f"tests/{path.name}::{node.name}"
        for path in sorted((ROOT / "tests").glob("test_*.py")) if path.name != "test_tooling.py"
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")
        and _expects_a_fault(node)
    ]


def trace_exceptions(out, argv):
    """Run pytest on ``argv`` with a tracer that records, as JSON in the
    file ``out``, each (module, line) at which an exception is raised in or
    passes through a frame of the package.  Line events are switched off in
    those frames and no other frame is traced, so the run stays fast."""
    package, seen = str(PACKAGE), set()

    def local(frame, event, arg):
        if event == "exception":
            seen.add((os.path.basename(frame.f_code.co_filename), frame.f_lineno))
        return local

    def trace(frame, event, arg):
        if not frame.f_code.co_filename.startswith(package):
            return None
        frame.f_trace_lines = False
        return local

    sys.settrace(trace)
    threading.settrace(trace)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    Path(out).write_text(json.dumps(sorted(seen)), encoding="utf-8")
    return int(code)


@lru_cache(maxsize=None)
def traced_fault_corpus():
    """The (module, line) pairs ``trace_exceptions`` records on the fault
    corpus, run by pytest in a child process."""
    with tempfile.TemporaryDirectory() as folder:
        out = Path(folder) / "raised.json"
        child = (
            "import sys; from test_tooling import trace_exceptions; "
            "sys.exit(trace_exceptions(sys.argv[1], sys.argv[2:]))"
        )
        path = os.pathsep.join([str(PACKAGE.parent), str(ROOT / "tests")])
        env = dict(os.environ, PYTHONPATH=path)
        done = subprocess.run(
            [sys.executable, "-c", child, str(out), *fault_corpus()],
            cwd=ROOT, env=env, capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
        return frozenset(tuple(pair) for pair in json.loads(out.read_text(encoding="utf-8")))


def never_raised(sources, reached):
    """Sorted keys of ``raise_sites(sources)`` none of whose raises has a
    line in ``reached``."""
    return sorted(
        key for key, spans in raise_sites(sources).items()
        if not any((key[0], line) in reached for a, b in spans for line in range(a, b + 1))
    )


# Raises that no test can reach, each an internal guard, with the reason no
# input gets there.
NEVER_RAISED = {
    ("homological.py", "_local_inverse", "ChainMapFailure",
     "radical part of a unit is not nilpotent"): (
        "r is radical in the finite-dimensional local ring e_i A e_i, so its powers "
        "vanish within dim e_i A e_i steps"
    ),
    ("tilting.py", "_unique_hom", "NonUniqueHom",
     "Hom(P({}),P({})) has dimension {}, expected 1"): (
        "its callers ask only for Hom between the projectives of two distinct edges "
        "sharing one vertex of multiplicity one, a block with one basis word"
    ),
    ("tilting.py", "_shrink_generator_maps", "RelationFailure",
     "cycle step {}->{} does not land on P({})"): (
        "the exceptional arrow out of a cycle edge ends at the next cycle edge around "
        "the loop vertex, and shrink_ordering roots every summand that comes next there"
    ),
    ("tilting.py", "verify_end_generators", "RelationFailure",
     "unexpected relation coefficient"): (
        "omega_relations writes only the coefficients 1 and -1"
    ),
}


def test_fault_corpus_reaches_every_raise_site():
    """The one test of ``_local_inverse`` that expects a non-unit reaches
    its first raise; the guard of the same class in the same function stays
    apart, by its message."""
    sources = _package_sources()
    sites, never = raise_sites(sources), never_raised(sources, traced_fault_corpus())
    assert len(sites) > 70
    assert never == sorted(NEVER_RAISED)
    reached = ("homological.py", "_local_inverse", "ChainMapFailure", "entry is not a unit")
    assert reached in sites and reached not in never


def test_raise_sites_flag_an_unreached_raise():
    """A raise appended at the end of its module, so that no recorded line
    moves, is never reached."""
    sources = _package_sources()
    sources["linalg.py"] += '\n\ndef _stray(x):\n    raise ValueError(f"stray {x}")\n'
    assert never_raised(sources, traced_fault_corpus()) == sorted(
        [*NEVER_RAISED, ("linalg.py", "_stray", "ValueError", "stray {}")]
    )


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
