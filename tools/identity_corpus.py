"""Digests of the byte-identity corpus: one line per CLI invocation.

Each invocation runs in process through ``brauer_derive.cli.run``, and its
line is the SHA-256 of its argv, stdout, stderr and exit code, then the
argv.  Running this script on two trees and comparing the outputs with
``diff`` shows whether a change keeps every output of the corpus byte for
byte.

The corpus (826 invocations) is:
- on each of 21 graphs, over q, 2 and 3: ``algebra`` (text and ``--json``),
  ``cartan --json``, ``tilt-shrink`` (text and ``--json``), ``reduce`` (text
  and ``--certify --json``), ``verify`` of that trace, and ``tilt-enlarge
  --at 2`` and ``--at 3`` (text and ``--json``).  The graphs are the 9 of
  ``conftest.corpus_graphs`` (the texts and three loop-stars), 8 random
  graphs (seeds 5000-5007, 6-13 edges), random14, deep21, deep18 and
  chain13;
- ``classify`` on each graph;
- over q, 2 and 3 and for N in 2, 5, 9, 14: ``an N``, ``an N --compare-socle
  --json``, ``omega N`` and ``cartan --omega N --json``;
- ``cartan --omega 3 --cap 2``, which exits 2.

Run as a script, it imports the package and the test helpers from the
``src`` and ``tests`` of the checkout it lies in (importing it as a module
changes no import path), and runs in a temporary directory:

    python tools/identity_corpus.py > digests.txt
"""
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path
from random import Random

ROOT = Path(__file__).resolve().parent.parent
FIELDS = ("q", "2", "3")


def graph_texts():
    """name -> graph file text, in corpus order."""
    from brauer_derive.graph import serialize_graph
    from conftest import corpus_graphs
    from test_random_graphs import random_one_loop_graph
    from test_scale import chain_with_twigs, deep_tree

    out = {name: serialize_graph(g) for name, g in corpus_graphs().items()}
    for seed in range(5000, 5008):
        out[f"random{seed}"] = serialize_graph(random_one_loop_graph(Random(seed), seed - 4994))
    out["random14"] = serialize_graph(random_one_loop_graph(Random(7), 14))
    out["deep21"] = deep_tree(21, seed=3)
    out["deep18"] = deep_tree(18, seed=5)
    out["chain13"] = chain_with_twigs(13, (2, 7))
    return out


def invocations(names):
    """(argv, file that stdout is saved to or None) of every invocation, in
    order, for graph files named ``<name>.json``."""
    out = []
    for name in names:
        g = f"{name}.json"
        for p in FIELDS:
            field = ["--field", p]
            trace = f"{name}_{p}.trace.json"
            out += [
                (["algebra", g, *field], None),
                (["algebra", g, "--json", *field], None),
                (["cartan", g, "--json", *field], None),
                (["tilt-shrink", g, *field], None),
                (["tilt-shrink", g, "--json", *field], None),
                (["reduce", g, *field], None),
                (["reduce", g, "--certify", "--json", *field], trace),
                (["verify", trace, *field], None),
            ]
            for at in ("2", "3"):
                out += [
                    (["tilt-enlarge", g, "--at", at, *field], None),
                    (["tilt-enlarge", g, "--at", at, "--json", *field], None),
                ]
    out += [(["classify", f"{name}.json"], None) for name in names]
    for p in FIELDS:
        for n in ("2", "5", "9", "14"):
            field = ["--field", p]
            out += [
                (["an", n, *field], None),
                (["an", n, "--compare-socle", "--json", *field], None),
                (["omega", n, *field], None),
                (["cartan", "--omega", n, "--json", *field], None),
            ]
    out.append((["cartan", "--omega", "3", "--cap", "2"], None))
    return out


def digest(argv, code, out, err):
    h = hashlib.sha256()
    for part in ("\0".join(argv), out, err, str(code)):
        h.update(part.encode("utf-8"))
        h.update(b"\1")
    return h.hexdigest()


def main():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from brauer_derive.cli import run

    texts = graph_texts()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for name, text in texts.items():
            Path(f"{name}.json").write_text(text, encoding="utf-8")
        for argv, save in invocations(texts):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(argv)
            if save is not None:
                Path(save).write_text(out.getvalue(), encoding="utf-8")
            print(digest(argv, code, out.getvalue(), err.getvalue()), " ".join(argv), flush=True)
        os.chdir(ROOT)


if __name__ == "__main__":
    main()
