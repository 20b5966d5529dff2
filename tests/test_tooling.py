"""Static checks on ``src/brauer_derive`` with the stdlib ``ast`` module: no
module (``__init__.py`` aside, which re-exports) imports a name it never
uses, and every private top-level function or class is referenced
somewhere in the package outside its own body."""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "brauer_derive"


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


def orphan_helpers(sources):
    """(module, name) for every private top-level function or class that no
    code in the package refers to outside its own definition."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    counts = {}
    for tree in trees.values():
        for name in _names(tree):
            counts[name] = counts.get(name, 0) + 1
    found = []
    for module, tree in sorted(trees.items()):
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if not name.startswith("_") or name.startswith("__"):
                continue
            if counts.get(name, 0) == _names(node).count(name):
                found.append((module, name))
    return found


def _package_sources():
    return {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}


def test_no_unused_imports():
    assert unused_imports(_package_sources()) == []


def test_no_orphan_private_helpers():
    assert orphan_helpers(_package_sources()) == []


def test_checks_flag_injected_faults():
    sources = _package_sources()
    sources["linalg.py"] += "\nimport itertools\nfrom math import gcd\n"
    sources["tilting.py"] += "\n\ndef _stray(x):\n    return _stray(x - 1) if x else 0\n"
    assert unused_imports(sources) == [("linalg.py", "itertools"), ("linalg.py", "gcd")]
    assert orphan_helpers(sources) == [("tilting.py", "_stray")]
