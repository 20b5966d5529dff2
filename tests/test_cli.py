import argparse
import hashlib
import json
import re
import time
from itertools import product
from pathlib import Path

import pytest

from brauer_derive import algebra, cli, graph, reduction, rewriting, tilting
from brauer_derive.algebra import (
    CartanMismatch,
    a_n_presentation,
    omega_relations,
    quotient_basis,
)
from brauer_derive.cli import (
    EXIT_CERTIFICATE,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    run,
)
from brauer_derive.graph import BrauerGraph, GraphVertex, loop_star, parse_graph, serialize_graph
from brauer_derive.homological import ChainMap
from brauer_derive.linalg import PrimeField
from brauer_derive.quiver import build_quiver

from conftest import (
    CORPUS_TEXTS,
    G_MIN_TEXT,
    corpus_graphs,
    named_presentation,
    word_element,
)


@pytest.fixture()
def g_min_file(tmp_path):
    path = tmp_path / "g_min.json"
    path.write_text(G_MIN_TEXT, encoding="utf-8")
    return str(path)


@pytest.fixture()
def bad_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        '{"vertices":[{"id":"S","cyclic":["1","1","2"]},{"id":"u","cyclic":["2","2"]}]}',
        encoding="utf-8",
    )
    return str(path)


def test_reduce_certified_json(g_min_file, capsys):
    assert run(["reduce", g_min_file, "--certify", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "brauer-derive/1"
    assert payload["n"] == 3
    assert len(payload["steps"]) == 1
    assert payload["steps"][0]["certificate"]["detEnd"] == 4


def _corpus_file(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(serialize_graph(corpus_graphs()[name]), encoding="utf-8")
    return str(path)


def _certified_trace(tmp_path, capsys, name, field_flags):
    """Run reduce --certify --json on corpus graph ``name`` and return the
    parsed trace."""
    path = _corpus_file(tmp_path, name)
    assert run(["reduce", path, "--certify", "--json", *field_flags]) == EXIT_OK
    return json.loads(capsys.readouterr().out)


def _verify(tmp_path, capsys, payload, field_flags=()):
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    code = run(["verify", str(path), *field_flags])
    return code, capsys.readouterr()


@pytest.mark.parametrize("field_flags", [[], ["--field", "2"]], ids=["Q", "GF2"])
@pytest.mark.parametrize("name", sorted(corpus_graphs()))
def test_verify_accepts_reduce_output(name, field_flags, tmp_path, capsys):
    payload = _certified_trace(tmp_path, capsys, name, field_flags)
    code, out = _verify(tmp_path, capsys, payload, field_flags)
    assert code == EXIT_OK, out.err
    assert out.out.splitlines() == [
        "verified", f"n: {payload['n']}", f"steps: {len(payload['steps'])}"
    ]


def _tamper_hom(p):
    cert = p["steps"][-1]["certificate"]["homVanishing"]
    cert[next(iter(cert))] = 1


def _tamper_det_end(p):
    p["steps"][0]["certificate"]["detEnd"] += 1


def _tamper_generation(p):
    witness = p["steps"][-1]["certificate"]["generation"][-1]
    witness["matches"] = witness["matches"].replace("[0]", "[1]")


def _tamper_after(p):
    p["steps"][0]["after"] = p["input"]


def _tamper_normal_form(p):
    p["normalForm"] = p["input"]


def _tamper_n(p):
    p["n"] += 1


def _tamper_at(at):
    def edit(p):
        p["steps"][0]["at"] = at

    return edit


TAMPERINGS = {
    "homVanishing": (_tamper_hom, "stored certificate does not re-validate"),
    "detEnd": (_tamper_det_end, "stored certificate does not re-validate"),
    "generation": (_tamper_generation, "stored certificate does not re-validate"),
    "after": (_tamper_after, "step 0: stored result of step differs"),
    "normalForm": (_tamper_normal_form, "trace normal form mismatch"),
    "n": (_tamper_n, "normal form is not the loop-star of the right size"),
    # edges no move can take: the loop, a leaf and none
    "atLoop": (_tamper_at("1"), "step 0: edge 1 is not a non-loop cycle edge"),
    "atLeaf": (_tamper_at("5"), "step 0: edge 5 is not a non-loop cycle edge"),
    "atMissing": (_tamper_at("9"), "step 0: edge 9 is not a non-loop cycle edge"),
}

# tamperings that leave no reduction trace at all: malformed input, exit 1
MALFORMED_TAMPERINGS = {
    # reduce writes each step's edge as a string, never a JSON number
    "atNumber": (_tamper_at(2), "MalformedInput: not a reduction trace"),
}


@pytest.mark.parametrize("field_flags", [[], ["--field", "2"]], ids=["Q", "GF2"])
@pytest.mark.parametrize("tamper", sorted({**TAMPERINGS, **MALFORMED_TAMPERINGS}))
def test_verify_rejects_tampered_trace(tamper, field_flags, tmp_path, capsys):
    payload = _certified_trace(tmp_path, capsys, "mixed7", field_flags)
    assert len(payload["steps"]) > 1
    if tamper in TAMPERINGS:
        (edit, message), expected = TAMPERINGS[tamper], EXIT_CERTIFICATE
    else:
        (edit, message), expected = MALFORMED_TAMPERINGS[tamper], EXIT_INVALID
    before = json.dumps(payload)
    edit(payload)
    assert json.dumps(payload) != before
    code, out = _verify(tmp_path, capsys, payload, field_flags)
    assert code == expected
    assert message in out.err


def test_verify_rejects_malformed_input(tmp_path, capsys):
    path = tmp_path / "trace.json"
    path.write_text("not json {", encoding="utf-8")
    assert run(["verify", str(path)]) == EXIT_INVALID
    payload = _certified_trace(tmp_path, capsys, "g_min", [])
    del payload["schema"]
    assert _verify(tmp_path, capsys, payload)[0] == EXIT_INVALID
    payload["schema"] = "brauer-derive/1"
    del payload["steps"][0]["after"]
    assert _verify(tmp_path, capsys, payload)[0] == EXIT_INVALID
    payload["steps"] = []
    payload["input"] = {"vertices": [{"id": "S", "cyclic": ["1", "2"]}]}  # no loop
    code, out = _verify(tmp_path, capsys, payload)
    assert code == EXIT_INVALID and "ValidationError" in out.err


def _set(key, value):
    return lambda p: p.update({key: value})


def _set_step(key, value):
    return lambda p: p["steps"][0].update({key: value})


# traces that reduce --json never writes; on the one-edge loop-star, n = 1
# and no steps, the first four used to verify (exit 0) or fail as a
# certificate (exit 3); a step whose 'at' is a JSON number is among
# MALFORMED_TAMPERINGS
MISSHAPEN = {
    "nTrue": ("star1", _set("n", True)),
    "nFloat": ("star1", _set("n", 1.0)),
    "nString": ("star1", _set("n", "1")),
    "stepsObject": ("star1", _set("steps", {})),
    "stepNotObject": ("g_min", lambda p: p["steps"].append("step")),
    "certificateList": ("g_min", _set_step("certificate", [])),
    "certificateString": ("g_min", _set_step("certificate", "certified")),
}


@pytest.mark.parametrize("shape", sorted(MISSHAPEN))
def test_verify_rejects_a_misshapen_trace(shape, tmp_path, capsys):
    name, edit = MISSHAPEN[shape]
    path = tmp_path / f"{name}.json"
    path.write_text(
        '{"vertices":[{"id":"S","cyclic":["1","1"]}]}' if name == "star1" else G_MIN_TEXT,
        encoding="utf-8",
    )
    assert run(["reduce", str(path), "--certify", "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    code, out = _verify(tmp_path, capsys, payload)
    assert code == EXIT_OK, out.err
    edit(payload)
    for flags in ([], ["--json"]):
        code, out = _verify(tmp_path, capsys, payload, flags)
        assert code == EXIT_INVALID, out.err
        assert out.out == ""
        assert out.err.startswith("MalformedInput: not a reduction trace")


def test_reduce_certifies_each_step_once(tmp_path, capsys, monkeypatch):
    """reduce --certify runs check_tilting once per step and builds each
    graph's algebra once."""
    tilts, builds = [], []
    check_tilting, quotient_basis = reduction.check_tilting, reduction.quotient_basis

    def counting_check_tilting(Q):
        tilts.append(Q)
        return check_tilting(Q)

    def counting_quotient_basis(p, *args):
        builds.append(p)
        return quotient_basis(p, *args)

    monkeypatch.setattr(reduction, "check_tilting", counting_check_tilting)
    monkeypatch.setattr(reduction, "quotient_basis", counting_quotient_basis)
    payload = _certified_trace(tmp_path, capsys, "mixed7", [])
    graphs = {json.dumps(g) for g in [payload["input"]] + [s["after"] for s in payload["steps"]]}
    assert len(tilts) == len(payload["steps"]) == 4
    assert len(builds) == len(graphs) == 5


def _dense(rows):
    n = len(rows)
    return [[row.get(j, 0) for j in range(n)] for row in rows]


def _times(a, b):
    return [[sum(x * y for x, y in zip(r, c)) for c in zip(*b)] for r in a]


def _transpose(a):
    return [list(c) for c in zip(*a)]


def test_reduce_eliminates_the_input_half_edges_and_each_step_class_matrix(
    tmp_path, capsys, monkeypatch
):
    """reduce --certify hands ``det_int`` the input's half-edge matrix M once,
    with M M^T its Cartan matrix, and each step's class matrix S once, with
    S C S^T the step's endomorphism-ring matrix; never a Cartan matrix."""
    seen = []
    det_int = algebra.det_int

    def recording_det_int(rows):
        seen.append(_dense(rows))
        return det_int(rows)

    monkeypatch.setattr(algebra, "det_int", recording_det_int)
    payload = _certified_trace(tmp_path, capsys, "mixed7", [])
    monkeypatch.setattr(algebra, "det_int", det_int)
    steps = payload["steps"]
    assert len(seen) == len(steps) + 1 == 5
    graphs = [parse_graph(json.dumps(payload["input"]))]
    graphs += [parse_graph(json.dumps(s["after"])) for s in steps]
    cartans = [quotient_basis(omega_relations(build_quiver(g))).cartan() for g in graphs]
    M, classes = seen[0], seen[1:]
    assert _times(M, _transpose(M)) == [list(r) for r in cartans[0].rows]
    for S, C, step in zip(classes, cartans, steps):
        end = step["certificate"]["endCartan"]
        assert end["order"] == list(C.order)
        assert _times(_times(S, [list(r) for r in C.rows]), _transpose(S)) == end["matrix"]
        assert det_int([{j: v for j, v in enumerate(r) if v} for r in S]) ** 2 == 1
    matrices = [[list(r) for r in C.rows] for C in cartans]
    matrices += [step["certificate"]["endCartan"]["matrix"] for step in steps]
    assert not any(rows in matrices for rows in seen)


def test_reduce_canonicalises_each_graph_once(tmp_path, capsys, monkeypatch):
    """Each graph of the trace computes its canonical form once, for the
    algebra cache and for the JSON output alike."""
    rotated = []
    least_rotation = graph._least_rotation

    def counting_least_rotation(cyclic):
        rotated.append(cyclic)
        return least_rotation(cyclic)

    path = _corpus_file(tmp_path, "mixed7")
    monkeypatch.setattr(graph, "_least_rotation", counting_least_rotation)
    assert run(["reduce", path, "--certify", "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    graphs = [payload["input"]] + [s["after"] for s in payload["steps"]]
    assert len({json.dumps(g) for g in graphs}) == len(graphs) == 5
    # one rotation per vertex the trace prints, once per graph
    assert len(rotated) == sum(len(g["vertices"]) for g in graphs)


def test_reduce_checks_the_input_graph_twice(tmp_path, capsys, monkeypatch):
    """reduce --certify runs the graph invariants on its input twice: in the
    constructor that parses the file and on entry to the reduction."""
    checked = []
    check = graph.BrauerGraph._check

    def counting_check(g):
        checked.append(g)
        return check(g)

    path = _corpus_file(tmp_path, "mixed7")
    monkeypatch.setattr(graph.BrauerGraph, "_check", counting_check)
    assert run(["reduce", path, "--certify", "--json"]) == EXIT_OK
    capsys.readouterr()
    assert sum(g is checked[0] for g in checked) == 2


def _reduce_mixed7_fails(tmp_path, capsys):
    """Exit code and stderr of reduce --certify --json on mixed7."""
    code = run(["reduce", _corpus_file(tmp_path, "mixed7"), "--certify", "--json"])
    return code, capsys.readouterr().err


def test_reduce_rejects_a_wrong_surgery(tmp_path, capsys, monkeypatch):
    """A move that returns another valid graph on the same edges, here the
    loop-star, fails the surgery Cartan check."""

    def to_loop_star(g, d):
        rest = [e for e in g.canonical_order if e != g.loop_edge]
        star = {"id": "S", "cyclic": [g.loop_edge, g.loop_edge, *rest]}
        return parse_graph(json.dumps({"vertices": [star]}))

    monkeypatch.setattr(tilting, "enlarge_graph_move", to_loop_star)
    code, err = _reduce_mixed7_fails(tmp_path, capsys)
    assert code == EXIT_CERTIFICATE
    assert "surgery Cartan mismatch at edge" in err


def _rename_moved_successor(monkeypatch):
    """Make the surgery rename the edge it moves, d.succ, to d.succ + "x":
    the moved graph is valid, but its edges are not the endomorphism
    ring's."""
    move = tilting.enlarge_graph_move

    def renamed(g, d):
        moved = move(g, d)
        vertices = [
            GraphVertex(v.id, tuple(e + "x" if e == d.succ else e for e in v.cyclic))
            for v in moved.vertices
        ]
        return BrauerGraph(vertices, moved.implicit)

    monkeypatch.setattr(tilting, "enlarge_graph_move", renamed)


def test_reduce_rejects_a_surgery_that_renames_an_edge(tmp_path, capsys, monkeypatch):
    """A moved graph with other edge names than the endomorphism ring's is
    a certificate fault that names the step's edge (exit 3), not an input
    error from a failed lookup."""
    _rename_moved_successor(monkeypatch)
    code, err = _reduce_mixed7_fails(tmp_path, capsys)
    assert code == EXIT_CERTIFICATE
    assert err == (
        "CertificateFailure: surgery edge mismatch at edge 2: endomorphism ring and "
        "moved graph have different edges\n"
    )


def test_verify_rejects_a_surgery_that_renames_an_edge(tmp_path, capsys, monkeypatch):
    """``verify`` takes every step again, so the same renaming fails a stored
    trace at its first step, with exit 3."""
    payload = _certified_trace(tmp_path, capsys, "mixed7", [])
    _rename_moved_successor(monkeypatch)
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert run(["verify", str(path)]) == EXIT_CERTIFICATE
    assert capsys.readouterr().err == (
        "CertificateFailure: step 0: surgery edge mismatch at edge 2: endomorphism "
        "ring and moved graph have different edges\n"
    )


def test_reduce_rejects_a_tampered_source_determinant(tmp_path, capsys, monkeypatch):
    """A certificate whose det_source is not the source algebra's fails the
    |det| comparison of the step."""
    check_tilting = reduction.check_tilting

    def tampered(Q):
        cert = check_tilting(Q)
        cert.det_source += 1
        return cert

    monkeypatch.setattr(reduction, "check_tilting", tampered)
    code, err = _reduce_mixed7_fails(tmp_path, capsys)
    assert code == EXIT_CERTIFICATE
    assert "|det Cartan| changed at edge" in err


def test_cartan_omega_json(capsys):
    assert run(["cartan", "--omega", "3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["matrix"] == [[4, 2, 2], [2, 2, 1], [2, 1, 2]]
    assert payload["dim"] == 18 and payload["det"] == 4


def test_validate_bad_exit_code(bad_file, capsys):
    assert run(["validate", bad_file]) == 1
    err = capsys.readouterr().err
    assert "exactly one loop" in err


def test_validate_ok(g_min_file, capsys):
    assert run(["validate", g_min_file]) == 0
    assert "3 edges" in capsys.readouterr().out


INPUT_FAULTS = {
    "duplicateId": (
        '{"vertices":[{"id":"S","cyclic":["1","1","2"]},{"id":"S","cyclic":["2"]}]}',
        "MalformedInput: duplicate vertex id",
    ),
    "emptyList": (
        '{"vertices":[{"id":"S","cyclic":["1","1","2"]},{"id":"u","cyclic":[]}]}',
        "ValidationError: empty cyclic list at vertex u",
    ),
    "emptyLabel": (
        '{"vertices":[{"id":"S","cyclic":["1","1",""]}]}',
        "ValidationError: empty edge label",
    ),
    "threeAtOneVertex": (
        '{"vertices":[{"id":"S","cyclic":["1","1","1","2"]}]}',
        "ValidationError: edge 1 has more than two incidences at vertex S",
    ),
    "threeVertices": (
        '{"vertices":[{"id":"S","cyclic":["1","1","2"]},{"id":"u","cyclic":["2"]},'
        '{"id":"w","cyclic":["2"]}]}',
        "ValidationError: edge 2 must have exactly two incidences, has 3",
    ),
    "noVerticesKey": (
        '{"graph":[]}',
        "MalformedInput: expected an object with a 'vertices' key",
    ),
    "noCyclic": (
        '{"vertices":[{"id":"S"}]}',
        "MalformedInput: each vertex needs 'id' and 'cyclic'",
    ),
    "numberLabel": (
        '{"vertices":[{"id":"S","cyclic":["1","1",2]}]}',
        "MalformedInput: vertex ids and edge labels must be strings",
    ),
}


@pytest.mark.parametrize("name", sorted(INPUT_FAULTS))
def test_validate_rejects_each_input_fault(name, tmp_path, capsys):
    text, message = INPUT_FAULTS[name]
    path = tmp_path / "g.json"
    path.write_text(text, encoding="utf-8")
    assert run(["validate", str(path)]) == EXIT_INVALID
    assert capsys.readouterr().err == message + "\n"


@pytest.mark.parametrize("argv", [["omega", "0"], ["an", "0"], ["cartan", "--omega", "0"]])
def test_size_zero_is_a_domain_error(argv, capsys):
    assert run(argv) == EXIT_INVALID
    assert capsys.readouterr().err == "DomainError: n must be >= 1, got 0\n"



@pytest.mark.parametrize("spec,message", [("foo", "unknown field 'foo'"), ("4", "4 is not prime")])
def test_unknown_field_is_an_input_error(spec, message, capsys):
    assert run(["cartan", "--omega", "2", "--field", spec]) == EXIT_INVALID
    assert capsys.readouterr().err == f"ValueError: {message}\n"

def test_deep_chain_through_cli(tmp_path, capsys):
    """A chain of 2,000 tree edges below the one cycle edge besides the
    loop: validate, classify and quiver accept it and count 2,002 edges."""
    lists = {"S": ["1", "1", "2"], "v2": ["2"]}
    host = "v2"
    for k in range(3, 2003):
        lists[host].append(str(k))
        host = f"v{k}"
        lists[host] = [str(k)]
    path = tmp_path / "chain.json"
    path.write_text(
        json.dumps({"vertices": [{"id": v, "cyclic": c} for v, c in lists.items()]}),
        encoding="utf-8",
    )
    assert run(["validate", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["edges"] == 2002
    assert run(["classify", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["n"] == 2002
    assert run(["quiver", str(path), "--json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["vertices"]) == 2002
    # the deepest edge lies below edge 2 and 1,999 more tree edges
    assert len(parse_graph(path.read_text()).tree_path("2002")) == 2001


def test_omega_reports(capsys):
    assert run(["omega", "1"]) == 0
    assert "dim: 4" in capsys.readouterr().out
    assert run(["omega", "4"]) == 0
    assert "dim: 28" in capsys.readouterr().out


def test_an_compare_socle(capsys):
    assert run(["an", "2", "--compare-socle"]) == 0
    assert "socle quotients equal: true" in capsys.readouterr().out


def test_quiver_dot(g_min_file, capsys):
    assert run(["quiver", g_min_file]) == 0
    out = capsys.readouterr().out
    assert out.count("->") == 5


# a DOT quoted string: inside one, DOT reads \" as a quote and any other
# backslash as itself, so a backslash before the closing quote escapes it
DOT_STRING = re.compile(r'"(?:[^"\\]|\\"|\\(?!"))*"')


def test_quiver_dot_escapes_quotes(tmp_path, capsys):
    """A quote in an edge label is escaped by a backslash in every DOT
    string, in the ``quiver`` output and in the ``dot`` field of
    ``quiver --json``."""
    path = tmp_path / "quote.json"
    path.write_text('{"vertices":[{"id":"S","cyclic":["1","1","x\\"y"]}]}', encoding="utf-8")
    assert run(["quiver", str(path)]) == EXIT_OK
    text = capsys.readouterr().out
    assert run(["quiver", str(path), "--json"]) == EXIT_OK
    dot = json.loads(capsys.readouterr().out)["dot"]
    for out in (text, dot):
        for line in out.splitlines():
            assert '"' not in DOT_STRING.sub("", line), line
        assert '  "x\\"y" -> "1" [label="b_x\\"y" camp="beta"];' in out.splitlines()


# a DOT HTML string, as written here: its &, <, > and " are entities
DOT_HTML = re.compile(r"<[^<>\"]*>")


@pytest.mark.parametrize(
    "name, written",
    [("x\\", "<x\\>"), ('x\\<&"y', "<x\\&lt;&amp;&quot;y>")],
    ids=["trailing-backslash", "backslash-and-entities"],
)
def test_quiver_dot_writes_backslash_names_as_html_strings(name, written, tmp_path, capsys):
    """A name with a backslash would end a quoted DOT string early (``"x\\"``
    reads as an unterminated string), so it is written as an HTML string, in
    the ``quiver`` output and in the ``dot`` field of ``quiver --json``;
    every other name stays a quoted string."""
    path = tmp_path / "backslash.json"
    lists = {"vertices": [{"id": "S", "cyclic": ["1", "1", name]}]}
    path.write_text(json.dumps(lists), encoding="utf-8")
    assert run(["quiver", str(path)]) == EXIT_OK
    text = capsys.readouterr().out
    assert run(["quiver", str(path), "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["vertices"] == ["1", name]
    for out in (text, payload["dot"]):
        for line in out.splitlines():
            rest = DOT_HTML.sub("", DOT_STRING.sub("", line)).replace("->", "")
            assert not set('"<>') & set(rest), line
        lines = out.splitlines()
        assert f"  {written};" in lines
        assert f'  "1" -> {written} [label="b_1" camp="beta"];' in lines
        assert f'  {written} -> "1" [label=<b_{written[1:]} camp="beta"];' in lines


def test_algebra_report(g_min_file, capsys):
    assert run(["algebra", g_min_file]) == 0
    out = capsys.readouterr().out
    assert "dim: 14" in out and "relations:" in out


def test_tilt_shrink(g_min_file, capsys):
    assert run(["tilt-shrink", g_min_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ordering"] == ["1", "3", "2"]
    cert = payload["certificate"]
    assert all(v == 0 for v in cert["homVanishing"].values())
    assert cert["endCartan"]["matrix"] == [[4, 2, 2], [2, 2, 1], [2, 1, 2]]


def test_tilt_enlarge(g_min_file, capsys):
    assert run(["tilt-enlarge", g_min_file, "--at", "2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["successor"] == "3"
    assert payload["certificate"]["detSource"] == 4


def test_tilt_enlarge_requires_at(g_min_file, capsys):
    assert run(["tilt-enlarge", g_min_file]) == 4


def test_enlarge_empty_tree_is_input_error(tmp_path, capsys):
    path = tmp_path / "star.json"
    path.write_text('{"vertices":[{"id":"S","cyclic":["1","1","2"]}]}', encoding="utf-8")
    assert run(["tilt-enlarge", str(path), "--at", "2"]) == 1


def test_classify(g_min_file, capsys):
    assert run(["classify", g_min_file]) == 0
    assert capsys.readouterr().out.strip() == "3"


def test_unknown_command_usage():
    assert run(["frobnicate"]) == 4
    assert run([]) == 4


def test_missing_file_is_input_error(capsys):
    assert run(["validate", "/nonexistent/nope.json"]) == 1


def test_cartan_needs_exactly_one_source(g_min_file):
    assert run(["cartan"]) == 4
    assert run(["cartan", g_min_file, "--omega", "2"]) == 4


def test_determinism(g_min_file, capsys):
    run(["reduce", g_min_file, "--certify", "--json"])
    first = capsys.readouterr().out
    run(["reduce", g_min_file, "--certify", "--json"])
    second = capsys.readouterr().out
    assert first == second


def test_field_flag(capsys):
    assert run(["omega", "2", "--field", "3"]) == 0
    assert "dim: 10" in capsys.readouterr().out
    assert run(["omega", "2", "--field", "4"]) == 1  # not a prime


def test_large_prime_field_is_fast_and_composites_exit_1(capsys):
    start = time.perf_counter()
    assert run(["cartan", "--omega", "2", "--field", "1000000000000000003"]) == EXIT_OK
    assert time.perf_counter() - start < 1.0
    assert "dim: 10" in capsys.readouterr().out
    # 101 * 9901 * 999999000001; a Carmichael number; the first strong
    # pseudoprime to every base up to 41, where exactness ends
    for p in ("1000000000000000001", "561", "3317044064679887385961981"):
        assert run(["cartan", "--omega", "2", "--field", p]) == EXIT_INVALID
        assert "ValueError" in capsys.readouterr().err


def test_not_stabilized_exit_code(capsys):
    assert run(["cartan", "--omega", "3", "--cap", "2", "--margin", "1"]) == 2
    assert "NotStabilized" in capsys.readouterr().err


@pytest.mark.parametrize("cap", ["0", "-2", "x"])
def test_cap_below_one_is_a_usage_error(cap, g_min_file, tmp_path, capsys):
    """No length bound below 1 can certify a basis, so --cap rejects it at
    parse time on every command that builds an algebra."""
    trace = tmp_path / "trace.json"
    assert run(["reduce", g_min_file, "--certify", "--json"]) == EXIT_OK
    trace.write_text(capsys.readouterr().out, encoding="utf-8")
    for argv in (
        ["cartan", "--omega", "3"], ["an", "3", "--compare-socle"],
        ["reduce", g_min_file], ["verify", str(trace)],
    ):
        assert run([*argv, "--cap", cap]) == EXIT_USAGE, argv
        assert "usage error: argument --cap" in capsys.readouterr().err
    assert run(["cartan", "--omega", "3", "--margin", "-3"]) == EXIT_OK


def test_non_commuting_chain_map_is_certificate_failure(tmp_path, capsys, monkeypatch):
    """A chain map the program builds wrongly is a certificate failure (exit
    3), not invalid input (exit 1)."""

    class DropTop(ChainMap):
        """Loses its top component, so the square below it stops commuting."""

        def __init__(self, source, target, comps, check=True):
            comps = dict(comps)
            if len(comps) > 1:
                del comps[max(comps)]
            super().__init__(source, target, comps, check)

    monkeypatch.setattr(tilting, "ChainMap", DropTop)
    path = tmp_path / "chain2.json"
    path.write_text(CORPUS_TEXTS["chain2"], encoding="utf-8")
    assert run(["tilt-shrink", str(path)]) == EXIT_CERTIFICATE
    assert "ChainMapFailure: square at degree 0 does not commute" in capsys.readouterr().err


def test_internal_fault_is_certificate_failure(tmp_path, capsys, monkeypatch):
    """An enlarge complex that records the wrong target graph, here the
    loop-star on the same edges, is the program's fault: the generator check
    finds a target arrow it has no map for, exit 3, not the input error exit 1."""
    monkeypatch.setattr(tilting, "enlarge_graph_move", lambda g, d: loop_star(8))
    assert run(["tilt-enlarge", _corpus_file(tmp_path, "wide8"), "--at", "2"]) == EXIT_CERTIFICATE
    assert re.search(
        r"RelationFailure: arrow \S+: no matching generator map", capsys.readouterr().err
    )


def test_witness_that_does_not_minimize_is_certificate_failure(tmp_path, capsys, monkeypatch):
    """A generation witness whose cone does not minimize to its stalk, here
    because ``minimize`` hands the cone back unchanged, fails the tilting
    certificate: exit 3."""
    monkeypatch.setattr(tilting, "minimize", lambda C: C)
    assert run(["tilt-shrink", _corpus_file(tmp_path, "chain2")]) == EXIT_CERTIFICATE
    assert (
        "CertificateFailure: generation witness cone(Q(4) -> Q(3)) does not minimize "
        "to P(4)[1]" in capsys.readouterr().err
    )


def test_changed_determinant_is_certificate_failure(tmp_path, capsys, monkeypatch):
    """An endomorphism-ring Cartan matrix with one diagonal entry raised has
    another |det| than the algebra's: exit 3."""
    end_cartan = tilting.end_cartan

    def raised(Q):
        c = end_cartan(Q)
        rows = [list(r) for r in c.rows]
        rows[0][0] += 1
        return algebra.CartanMatrix(c.order, tuple(map(tuple, rows)))

    monkeypatch.setattr(tilting, "end_cartan", raised)
    assert run(["tilt-shrink", _corpus_file(tmp_path, "chain2")]) == EXIT_CERTIFICATE
    assert "CertificateFailure: |det| changed across the tilt: 4 vs 8" in capsys.readouterr().err


def test_summand_listed_twice_is_certificate_failure(tmp_path, capsys, monkeypatch):
    """A shrink ordering that lists one summand twice, in place of another,
    gives Happel's class matrix S a doubled row: det S = 0, so
    det_end = det(S)^2 det_source = 0, and the |det| check fails: exit 3."""
    shrink_ordering = tilting.shrink_ordering

    def doubled(g):
        order = shrink_ordering(g)
        return (order[0], order[0], *order[2:])

    monkeypatch.setattr(tilting, "shrink_ordering", doubled)
    assert run(["tilt-shrink", _corpus_file(tmp_path, "chain2")]) == EXIT_CERTIFICATE
    assert "CertificateFailure: |det| changed across the tilt: 4 vs 0" in capsys.readouterr().err


def test_reduction_that_changes_the_edge_count_is_certificate_failure(
    tmp_path, capsys, monkeypatch
):
    """A move that lands on a graph with fewer edges, here always the
    two-edge loop-star, is the program's fault: exit 3."""
    monkeypatch.setattr(reduction, "enlarge_graph_move", lambda g, d: loop_star(2))
    assert run(["reduce", _corpus_file(tmp_path, "g_min")]) == EXIT_CERTIFICATE
    assert "CertificateFailure: edge count changed at edge 2" in capsys.readouterr().err


def test_reduction_that_stops_short_is_certificate_failure(tmp_path, capsys, monkeypatch):
    """A pivot search that finds no edge to move while a tree is left ends
    the reduction away from a loop-star: exit 3."""
    monkeypatch.setattr(reduction, "_pivot", lambda g: None)
    assert run(["reduce", _corpus_file(tmp_path, "g_min")]) == EXIT_CERTIFICATE
    assert "CertificateFailure: reduction did not end at a loop-star" in capsys.readouterr().err


def test_basis_off_the_half_edge_cartan_is_certificate_failure(capsys, monkeypatch):
    """A normal-word enumeration that loses words breaks the closed-form
    Cartan witness: quotient_basis raises, naming the first block off it in
    the canonical vertex order, and the CLI exits 3."""
    enumerate_words = rewriting.normal_words
    clean = quotient_basis(a_n_presentation(3))
    lost = []  # (source, target) of each word dropped, one per length

    def drop_last(rs, vertices, arrows_by_source, target, maxlen):
        # the last word of each length: its blocks come late in the order
        # the words are met, where the diagonal blocks of length 0 lead
        levels = enumerate_words(rs, vertices, arrows_by_source, target, maxlen)
        lost.clear()
        q = clean.quiver
        for level in levels[1:]:
            word = level.pop()
            lost.append((q.source[word[0]], q.target[word[-1]]))
        return levels

    def first_off():
        order = clean.vertices
        i, j = next(key for key in product(order, repeat=2) if key in lost)
        words = clean.cartan().rows[order.index(i)][order.index(j)]
        return f"block ({i},{j}) has {words - lost.count((i, j))} basis words, " \
            f"the graph's half-edges give {words}"

    monkeypatch.setattr(rewriting, "normal_words", drop_last)
    with pytest.raises(CartanMismatch) as info:
        quotient_basis(a_n_presentation(3))
    assert len(set(lost)) > 1
    assert str(info.value) == first_off()
    assert run(["cartan", "--omega", "3"]) == EXIT_CERTIFICATE
    assert f"CartanMismatch: {first_off()}" in capsys.readouterr().err


def test_non_admissible_presentation_is_certificate_failure(capsys, monkeypatch):
    """The CLI completes only presentations the program built, so one with
    a relation word of length 1 is an engine fault: exit 3, not exit 1."""

    def length_one(q):
        return named_presentation(q, (word_element(q, [(q.loop_arrow.name,)], [1]),))

    monkeypatch.setattr(cli, "omega_relations", length_one)
    assert run(["cartan", "--omega", "3"]) == EXIT_CERTIFICATE
    assert "NotAdmissible: presentation has a relation word" in capsys.readouterr().err


def test_inclusion_ambiguity_is_certificate_failure(capsys, monkeypatch):
    """A completion whose leads include one another is refused as an engine
    fault: exit 3.  On the one-edge loop-star's quiver the relations bab,
    aaaa + ba and aaaa give the lead ba inside the older lead bab."""

    def ambiguous(q):
        a, b = "a_1", "b_1"
        return named_presentation(q, (
            word_element(q, [(b, a, b)], [1]),
            word_element(q, [(a, a, a, a), (b, a)], [1, 1]),
            word_element(q, [(a, a, a, a)], [1]),
        ))

    monkeypatch.setattr(cli, "omega_relations", ambiguous)
    assert run(["cartan", "--omega", "1"]) == EXIT_CERTIFICATE
    assert "InclusionAmbiguity: lead (" in capsys.readouterr().err


def test_non_binomial_relation_is_certificate_failure(capsys, monkeypatch):
    """Completion takes relations of at most two terms, as every one the
    program builds is: a relation of three terms is an engine fault, exit 3."""

    def three_terms(q):
        a, b = "a_1", "b_1"
        return named_presentation(q, (word_element(q, [(a, a), (a, b), (b, a)], [1, 1, 1]),))

    monkeypatch.setattr(cli, "omega_relations", three_terms)
    assert run(["cartan", "--omega", "1"]) == EXIT_CERTIFICATE
    assert "NonBinomialRelation: relation of 3 terms, not at most two" in capsys.readouterr().err


def test_inhomogeneous_relation_is_certificate_failure(capsys, monkeypatch):
    """A relation the program built with terms in different blocks is an
    engine fault: exit 3, not exit 1."""

    def inhomogeneous(q):  # b_1 leaves vertex 1, b_2 vertex 2
        return named_presentation(q, (word_element(q, [("b_1",), ("b_2",)], [1, 1]),))

    monkeypatch.setattr(cli, "omega_relations", inhomogeneous)
    assert run(["cartan", "--omega", "3"]) == EXIT_CERTIFICATE
    assert "InhomogeneousRelation: relation terms are not" in capsys.readouterr().err


def test_unknown_camp_is_certificate_failure(capsys, monkeypatch):
    """cycle_at given a camp the quiver does not have is an engine fault:
    exit 3, not exit 1."""
    monkeypatch.setattr(algebra, "BETA", "gamma")
    assert run(["an", "3"]) == EXIT_CERTIFICATE
    assert "UnknownCamp: camp must be 'alpha' or 'beta', got 'gamma'" in capsys.readouterr().err


def test_broken_factor_fails_the_socle_comparison(capsys, monkeypatch):
    """A normal form that breaks w = w'a for one basis word w voids the
    arrow-action comparison: exit 3, naming the word."""
    nf_word = rewriting.RewriteSystem.nf_word
    ids = {a.name: k for k, a in enumerate(a_n_presentation(3).quiver.arrows)}
    word = (ids["a_1"], ids["b_1"])
    monkeypatch.setattr(
        rewriting.RewriteSystem, "nf_word",
        lambda rs, w, c: None if w == word else nf_word(rs, w, c),
    )
    assert run(["an", "3", "--compare-socle"]) == EXIT_CERTIFICATE
    err = capsys.readouterr().err
    assert "FactorMismatch: basis word a_1*b_1 of block (1,2) is not the class" in err


def test_mixed_characteristic_is_certificate_failure(capsys, monkeypatch):
    """Arithmetic across two prime fields is the program's fault: exit 3,
    not the input error exit 1."""
    monkeypatch.setattr(cli, "socle_quotient", lambda A: A.field.one + PrimeField(3).one)
    assert run(["an", "2", "--compare-socle", "--field", "2"]) == EXIT_CERTIFICATE
    assert "FieldMismatch: mixed characteristic 2 and 3" in capsys.readouterr().err


# SHA-256 of the text-mode stdout of every shrink and enlarge certificate on
# the corpus, over Q and GF(2); pins the printed complexes, which the JSON
# output leaves out.
TEXT_DIGESTS = {
    'g_min tilt-shrink': (
        'fce67c98393222e60ea0961eea20aae16774d77623f58516bd75226474ad62b8'
    ),
    'g_min tilt-enlarge --at 2': (
        'cfcdbe7982f55b131ad9981c174a1033c04d961e889eed45b077f6e8c73b895d'
    ),
    'g_min tilt-shrink --field 2': (
        'fce67c98393222e60ea0961eea20aae16774d77623f58516bd75226474ad62b8'
    ),
    'g_min tilt-enlarge --at 2 --field 2': (
        'cfcdbe7982f55b131ad9981c174a1033c04d961e889eed45b077f6e8c73b895d'
    ),
    'chain2 tilt-shrink': (
        '8ee8fea54a88aa4e19c54570e2b0826ab468f01c6f55ecf22510b54f70299456'
    ),
    'chain2 tilt-enlarge --at 2': (
        '4fb65072fd59a6af4041137d7743cd965427185ec9d5c37d708e1f67b6409611'
    ),
    'chain2 tilt-shrink --field 2': (
        '8ee8fea54a88aa4e19c54570e2b0826ab468f01c6f55ecf22510b54f70299456'
    ),
    'chain2 tilt-enlarge --at 2 --field 2': (
        '4fb65072fd59a6af4041137d7743cd965427185ec9d5c37d708e1f67b6409611'
    ),
    'two_tree tilt-shrink': (
        'd7798fb24165e7ac3d58ecdf11bcff3aa72c452d48ff8bb8c4eb52df532fdec4'
    ),
    'two_tree tilt-enlarge --at 2': (
        '300679cc1ad2d02028f5e500150457d0a2d104702e3fdd522787381f65c5fa6c'
    ),
    'two_tree tilt-enlarge --at 3': (
        'bb8581463dabac54389830c05776ed8a97f5e23af11654ab97663dced027c20e'
    ),
    'two_tree tilt-shrink --field 2': (
        'd7798fb24165e7ac3d58ecdf11bcff3aa72c452d48ff8bb8c4eb52df532fdec4'
    ),
    'two_tree tilt-enlarge --at 2 --field 2': (
        '300679cc1ad2d02028f5e500150457d0a2d104702e3fdd522787381f65c5fa6c'
    ),
    'two_tree tilt-enlarge --at 3 --field 2': (
        'bb8581463dabac54389830c05776ed8a97f5e23af11654ab97663dced027c20e'
    ),
    'branch tilt-shrink': (
        '28f422f68c68c48a75d647535faac3bab1cba5b9d88eda0cb6a6599cf49db97a'
    ),
    'branch tilt-enlarge --at 2': (
        '655599e01bbea171bdb4124257d36a3171e9d7eb4910b81cf37a8155a5024ca8'
    ),
    'branch tilt-shrink --field 2': (
        '28f422f68c68c48a75d647535faac3bab1cba5b9d88eda0cb6a6599cf49db97a'
    ),
    'branch tilt-enlarge --at 2 --field 2': (
        '655599e01bbea171bdb4124257d36a3171e9d7eb4910b81cf37a8155a5024ca8'
    ),
    'mixed7 tilt-shrink': (
        '90e87d22a10ff55add00171b30c7c1c791cd7fabaea3d9c2ca60752c68914c4d'
    ),
    'mixed7 tilt-enlarge --at 2': (
        'a52a3a59b97ae3f547936755c08bf05210c00853d50d22037634d1f33c4abda8'
    ),
    'mixed7 tilt-enlarge --at 3': (
        '1ac4827e50881e0c45d9048b80b9217df933852b512ef4c048f728adb178785c'
    ),
    'mixed7 tilt-shrink --field 2': (
        '90e87d22a10ff55add00171b30c7c1c791cd7fabaea3d9c2ca60752c68914c4d'
    ),
    'mixed7 tilt-enlarge --at 2 --field 2': (
        'a52a3a59b97ae3f547936755c08bf05210c00853d50d22037634d1f33c4abda8'
    ),
    'mixed7 tilt-enlarge --at 3 --field 2': (
        '1ac4827e50881e0c45d9048b80b9217df933852b512ef4c048f728adb178785c'
    ),
    'wide8 tilt-shrink': (
        'bdaf2b54acf976bb24e355035ec481e8e64bdad5d39b95d8b8644be01e4900c1'
    ),
    'wide8 tilt-enlarge --at 2': (
        '0a4843a7db6a3901d9fcf0c26477000be8c2f33ac4dabac75108c7c7573bc685'
    ),
    'wide8 tilt-enlarge --at 3': (
        '72f76e284505740eab43996c16ca34b8045a7d988319b7e826e63125c84396a7'
    ),
    'wide8 tilt-enlarge --at 4': (
        'ec008e664eed1744ecb883693a33abdc009628c1a3dc3def90bd1aa703555cda'
    ),
    'wide8 tilt-shrink --field 2': (
        'bdaf2b54acf976bb24e355035ec481e8e64bdad5d39b95d8b8644be01e4900c1'
    ),
    'wide8 tilt-enlarge --at 2 --field 2': (
        '0a4843a7db6a3901d9fcf0c26477000be8c2f33ac4dabac75108c7c7573bc685'
    ),
    'wide8 tilt-enlarge --at 3 --field 2': (
        '72f76e284505740eab43996c16ca34b8045a7d988319b7e826e63125c84396a7'
    ),
    'wide8 tilt-enlarge --at 4 --field 2': (
        'ec008e664eed1744ecb883693a33abdc009628c1a3dc3def90bd1aa703555cda'
    ),
}


def _text_invocations():
    """Key -> (corpus graph, command, field flags) for every shrink and
    every enlarge pivot."""
    out = {}
    for name, text in CORPUS_TEXTS.items():
        g = parse_graph(text)
        pivots = [c for c in g.cycle_edges[1:] if g.trees[c]]
        commands = [["tilt-shrink"]] + [["tilt-enlarge", "--at", c] for c in pivots]
        for flags in ([], ["--field", "2"]):
            for cmd in commands:
                out[" ".join([name, *cmd, *flags])] = (name, cmd, flags)
    return out


TEXT_INVOCATIONS = _text_invocations()


def test_text_digests_cover_every_pivot():
    assert sorted(TEXT_INVOCATIONS) == sorted(TEXT_DIGESTS)


@pytest.mark.parametrize("key", sorted(TEXT_INVOCATIONS))
def test_tilt_text_output_digest(key, tmp_path, capsys):
    name, cmd, flags = TEXT_INVOCATIONS[key]
    path = tmp_path / f"{name}.json"
    path.write_text(CORPUS_TEXTS[name], encoding="utf-8")
    assert run([cmd[0], str(path), *cmd[1:], *flags]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == TEXT_DIGESTS[key]


@pytest.mark.parametrize(
    "key", sorted(k for k, (_, _, flags) in TEXT_INVOCATIONS.items() if not flags)
)
def test_tilt_text_over_gf3_matches_q(key, tmp_path, capsys):
    """Every coefficient of the printed complexes is 1 or -1, so GF(3) text
    reads like Q text: unit coefficients print as signs over any field."""
    name, cmd, _ = TEXT_INVOCATIONS[key]
    path = _corpus_file(tmp_path, name)
    outs = []
    for flags in ([], ["--field", "3"]):
        assert run([cmd[0], path, *cmd[1:], *flags]) == EXIT_OK
        outs.append(capsys.readouterr().out)
    assert outs[1] == outs[0]


# SHA-256 of the stdout of ``reduce`` on every corpus graph, in text mode and
# with --json, with and without --certify, over Q and GF(2).
REDUCE_DIGESTS = {
    'branch reduce': (
        'a9451293816f8f307bfe42cbc150a178bfb0245201294d670e76d077109105ef'
    ),
    'branch reduce --json': (
        '45ad1a406dd2978a492007a447e1ae51b45de22b1333ebbcc4c02d59d0d8a41f'
    ),
    'branch reduce --field 2': (
        'a9451293816f8f307bfe42cbc150a178bfb0245201294d670e76d077109105ef'
    ),
    'branch reduce --field 2 --json': (
        '45ad1a406dd2978a492007a447e1ae51b45de22b1333ebbcc4c02d59d0d8a41f'
    ),
    'branch reduce --certify': (
        '9c828251cac053d8cb0008e18dc06f4d02038abf832396cd4c86a94dcafceaa1'
    ),
    'branch reduce --certify --json': (
        'd8e5d423da1b6fc4932d058b26464c26eef6a7efacb4fe21f50c6ce73f2752c8'
    ),
    'branch reduce --certify --field 2': (
        '9c828251cac053d8cb0008e18dc06f4d02038abf832396cd4c86a94dcafceaa1'
    ),
    'branch reduce --certify --field 2 --json': (
        'd8e5d423da1b6fc4932d058b26464c26eef6a7efacb4fe21f50c6ce73f2752c8'
    ),
    'chain2 reduce': (
        'c422a237cd5215b054aa59dcf31ac5fb82f726b18b3c3306e4a7bbf51eb9ea01'
    ),
    'chain2 reduce --json': (
        'dae4c02f1c84f366f6fad06c9aee3d0202ca69c0c7c558da081134c0c20dc150'
    ),
    'chain2 reduce --field 2': (
        'c422a237cd5215b054aa59dcf31ac5fb82f726b18b3c3306e4a7bbf51eb9ea01'
    ),
    'chain2 reduce --field 2 --json': (
        'dae4c02f1c84f366f6fad06c9aee3d0202ca69c0c7c558da081134c0c20dc150'
    ),
    'chain2 reduce --certify': (
        '28081e3f2e7fb90cb3a43ff6ba9668a2c0e61a8e859ae6f43323dfdda9647c20'
    ),
    'chain2 reduce --certify --json': (
        'aa88c08c94f5abad334b0616e6f4487277e3922ad0265a6d4b884bdf6098c81e'
    ),
    'chain2 reduce --certify --field 2': (
        '28081e3f2e7fb90cb3a43ff6ba9668a2c0e61a8e859ae6f43323dfdda9647c20'
    ),
    'chain2 reduce --certify --field 2 --json': (
        'aa88c08c94f5abad334b0616e6f4487277e3922ad0265a6d4b884bdf6098c81e'
    ),
    'g_min reduce': (
        '844e5a1d6160b5068d213dd2ce6d7e7cbde47a66c9109193e4283879fd742001'
    ),
    'g_min reduce --json': (
        '3e8355ccb4d591c5e3173d55db48a9586b26e4818c7f001875c409f78389deb0'
    ),
    'g_min reduce --field 2': (
        '844e5a1d6160b5068d213dd2ce6d7e7cbde47a66c9109193e4283879fd742001'
    ),
    'g_min reduce --field 2 --json': (
        '3e8355ccb4d591c5e3173d55db48a9586b26e4818c7f001875c409f78389deb0'
    ),
    'g_min reduce --certify': (
        'b63a5a4ca90cdcffbf9e174fd1c640a8222840ed175d4b20cbdc3601bd841249'
    ),
    'g_min reduce --certify --json': (
        'c9a630ea6a03e5849ed4ce26bd8f5260ab274526894397992afbbdf32150b863'
    ),
    'g_min reduce --certify --field 2': (
        'b63a5a4ca90cdcffbf9e174fd1c640a8222840ed175d4b20cbdc3601bd841249'
    ),
    'g_min reduce --certify --field 2 --json': (
        'c9a630ea6a03e5849ed4ce26bd8f5260ab274526894397992afbbdf32150b863'
    ),
    'loop_star_3 reduce': (
        'd483071dc902a33430c817bfbd8fd340b29c32941db0e860b6110843f940de26'
    ),
    'loop_star_3 reduce --json': (
        '7d7d41417fbce87377923bfded96b666e41c7c9611551faed5602c2d059353a8'
    ),
    'loop_star_3 reduce --field 2': (
        'd483071dc902a33430c817bfbd8fd340b29c32941db0e860b6110843f940de26'
    ),
    'loop_star_3 reduce --field 2 --json': (
        '7d7d41417fbce87377923bfded96b666e41c7c9611551faed5602c2d059353a8'
    ),
    'loop_star_3 reduce --certify': (
        'd483071dc902a33430c817bfbd8fd340b29c32941db0e860b6110843f940de26'
    ),
    'loop_star_3 reduce --certify --json': (
        '7d7d41417fbce87377923bfded96b666e41c7c9611551faed5602c2d059353a8'
    ),
    'loop_star_3 reduce --certify --field 2': (
        'd483071dc902a33430c817bfbd8fd340b29c32941db0e860b6110843f940de26'
    ),
    'loop_star_3 reduce --certify --field 2 --json': (
        '7d7d41417fbce87377923bfded96b666e41c7c9611551faed5602c2d059353a8'
    ),
    'loop_star_5 reduce': (
        'a752585e5ae242ddd656211ab687d7b1f531f687b408eeed9ac39937c43064ac'
    ),
    'loop_star_5 reduce --json': (
        '04e59cf02636feed5e9ccc84eda6b3a53e5ece7dc549acfac8d0fbc8700cd44e'
    ),
    'loop_star_5 reduce --field 2': (
        'a752585e5ae242ddd656211ab687d7b1f531f687b408eeed9ac39937c43064ac'
    ),
    'loop_star_5 reduce --field 2 --json': (
        '04e59cf02636feed5e9ccc84eda6b3a53e5ece7dc549acfac8d0fbc8700cd44e'
    ),
    'loop_star_5 reduce --certify': (
        'a752585e5ae242ddd656211ab687d7b1f531f687b408eeed9ac39937c43064ac'
    ),
    'loop_star_5 reduce --certify --json': (
        '04e59cf02636feed5e9ccc84eda6b3a53e5ece7dc549acfac8d0fbc8700cd44e'
    ),
    'loop_star_5 reduce --certify --field 2': (
        'a752585e5ae242ddd656211ab687d7b1f531f687b408eeed9ac39937c43064ac'
    ),
    'loop_star_5 reduce --certify --field 2 --json': (
        '04e59cf02636feed5e9ccc84eda6b3a53e5ece7dc549acfac8d0fbc8700cd44e'
    ),
    'loop_star_8 reduce': (
        '539e7211196a2e01c2c67cf15765fe4659694d1cb31d7354bfed2f7e92b4fb54'
    ),
    'loop_star_8 reduce --json': (
        'e07138fa82c80f9277c8be962f1dcdd7bdd73979c4e6f2b8339f6477280af0b4'
    ),
    'loop_star_8 reduce --field 2': (
        '539e7211196a2e01c2c67cf15765fe4659694d1cb31d7354bfed2f7e92b4fb54'
    ),
    'loop_star_8 reduce --field 2 --json': (
        'e07138fa82c80f9277c8be962f1dcdd7bdd73979c4e6f2b8339f6477280af0b4'
    ),
    'loop_star_8 reduce --certify': (
        '539e7211196a2e01c2c67cf15765fe4659694d1cb31d7354bfed2f7e92b4fb54'
    ),
    'loop_star_8 reduce --certify --json': (
        'e07138fa82c80f9277c8be962f1dcdd7bdd73979c4e6f2b8339f6477280af0b4'
    ),
    'loop_star_8 reduce --certify --field 2': (
        '539e7211196a2e01c2c67cf15765fe4659694d1cb31d7354bfed2f7e92b4fb54'
    ),
    'loop_star_8 reduce --certify --field 2 --json': (
        'e07138fa82c80f9277c8be962f1dcdd7bdd73979c4e6f2b8339f6477280af0b4'
    ),
    'mixed7 reduce': (
        '31b9d78191b45dbe05ab75e0f07ff2d30c893ae3e46bf263abf38b0413cf4d9d'
    ),
    'mixed7 reduce --json': (
        'e99f024c3e42e9e825e7ecd9f604c5642b7f11533292691974df2ed120fb3054'
    ),
    'mixed7 reduce --field 2': (
        '31b9d78191b45dbe05ab75e0f07ff2d30c893ae3e46bf263abf38b0413cf4d9d'
    ),
    'mixed7 reduce --field 2 --json': (
        'e99f024c3e42e9e825e7ecd9f604c5642b7f11533292691974df2ed120fb3054'
    ),
    'mixed7 reduce --certify': (
        'f851a3106ab874e6398d2ae9f18dbec2176419f40f20add3531de1216bfd75b5'
    ),
    'mixed7 reduce --certify --json': (
        'f7edc141f8b98b76ee61411eb38139b2beeb88ff3b00bcc99c5d2109aa3b0cd3'
    ),
    'mixed7 reduce --certify --field 2': (
        'f851a3106ab874e6398d2ae9f18dbec2176419f40f20add3531de1216bfd75b5'
    ),
    'mixed7 reduce --certify --field 2 --json': (
        'f7edc141f8b98b76ee61411eb38139b2beeb88ff3b00bcc99c5d2109aa3b0cd3'
    ),
    'two_tree reduce': (
        '0e3ecacc2d42b81f040bbf16d16b3e01e74ec6f902da773e7e706fb9454e2df9'
    ),
    'two_tree reduce --json': (
        'a6552581024165c7b5147b9dff6b59319964fb73b08460823d5b85ded1f1fe5f'
    ),
    'two_tree reduce --field 2': (
        '0e3ecacc2d42b81f040bbf16d16b3e01e74ec6f902da773e7e706fb9454e2df9'
    ),
    'two_tree reduce --field 2 --json': (
        'a6552581024165c7b5147b9dff6b59319964fb73b08460823d5b85ded1f1fe5f'
    ),
    'two_tree reduce --certify': (
        'd82dfd9e696ea6dda238d37738a22d5958a3887d007de8782409f0715d182eae'
    ),
    'two_tree reduce --certify --json': (
        '8fb7ec17ae592fd6a8b717ba77faece322694472b9ea08caa2252bdde7bb5978'
    ),
    'two_tree reduce --certify --field 2': (
        'd82dfd9e696ea6dda238d37738a22d5958a3887d007de8782409f0715d182eae'
    ),
    'two_tree reduce --certify --field 2 --json': (
        '8fb7ec17ae592fd6a8b717ba77faece322694472b9ea08caa2252bdde7bb5978'
    ),
    'wide8 reduce': (
        '7fa9a67d514c4c9a01d55f386b6638d9350613184d21ff51fde241b6c1e6b8d2'
    ),
    'wide8 reduce --json': (
        '3fc3dae91fbd17f9a77960263a71d8371cb6369079b8082d180ae3b709f4b266'
    ),
    'wide8 reduce --field 2': (
        '7fa9a67d514c4c9a01d55f386b6638d9350613184d21ff51fde241b6c1e6b8d2'
    ),
    'wide8 reduce --field 2 --json': (
        '3fc3dae91fbd17f9a77960263a71d8371cb6369079b8082d180ae3b709f4b266'
    ),
    'wide8 reduce --certify': (
        '0311106dd90b126e20316dbd13f7e08798fa6435b6a1bf3b46205bf812490c69'
    ),
    'wide8 reduce --certify --json': (
        'c423d9597326ce6c9137567ca03ac6bca49f26b1f8b8e9b4608c7b4a539ab3b6'
    ),
    'wide8 reduce --certify --field 2': (
        '0311106dd90b126e20316dbd13f7e08798fa6435b6a1bf3b46205bf812490c69'
    ),
    'wide8 reduce --certify --field 2 --json': (
        'c423d9597326ce6c9137567ca03ac6bca49f26b1f8b8e9b4608c7b4a539ab3b6'
    ),
}


def _reduce_invocations():
    """Key -> (corpus graph, flags) for every reduce variant."""
    out = {}
    for name in corpus_graphs():
        for certify in ([], ["--certify"]):
            for field in ([], ["--field", "2"]):
                for mode in ([], ["--json"]):
                    flags = [*certify, *field, *mode]
                    out[" ".join([name, "reduce", *flags])] = (name, flags)
    return out


REDUCE_INVOCATIONS = _reduce_invocations()


def test_reduce_digests_cover_every_variant():
    assert sorted(REDUCE_INVOCATIONS) == sorted(REDUCE_DIGESTS)


@pytest.mark.parametrize("key", sorted(REDUCE_INVOCATIONS))
def test_reduce_output_digest(key, tmp_path, capsys):
    name, flags = REDUCE_INVOCATIONS[key]
    assert run(["reduce", _corpus_file(tmp_path, name), *flags]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == REDUCE_DIGESTS[key]


# SHA-256 of the concatenated stdout of one command, output mode and field
# over all of its inputs: every corpus graph for the FILE commands, and
# N = 1, 2, 3, 5 for the loop-star builders.
PIN_COMMANDS = {
    "quiver FILE": ("quiver", "{}"),
    "algebra FILE": ("algebra", "{}"),
    "cartan FILE": ("cartan", "{}"),
    "cartan --omega N": ("cartan", "--omega", "{}"),
    "cartan --an N": ("cartan", "--an", "{}"),
    "omega N --compare-socle": ("omega", "{}", "--compare-socle"),
    "an N --compare-socle": ("an", "{}", "--compare-socle"),
}
PIN_NS = (1, 2, 3, 5)

PIN_DIGESTS = {
    'algebra FILE': (
        'c399c2863c3d9382d235427f11ce3cfc381010cab4d632bde10b90cb45cfecab'
    ),
    'algebra FILE --field 2': (
        'c399c2863c3d9382d235427f11ce3cfc381010cab4d632bde10b90cb45cfecab'
    ),
    'algebra FILE --field 2 --json': (
        'acb8d5094d0318b894ea78165eb3f2416c8195d6ddf687a3c263099e044fac86'
    ),
    'algebra FILE --json': (
        'acb8d5094d0318b894ea78165eb3f2416c8195d6ddf687a3c263099e044fac86'
    ),
    'an N --compare-socle': (
        '187395cecbb97be81b14597cc3b47a51d755e5b59b5f1aa1fde9d184a5462c3d'
    ),
    'an N --compare-socle --field 2': (
        '187395cecbb97be81b14597cc3b47a51d755e5b59b5f1aa1fde9d184a5462c3d'
    ),
    'an N --compare-socle --field 2 --json': (
        'b5214f94ae946a07828016c649913fb3ddab56562f50edc01788272670403740'
    ),
    'an N --compare-socle --json': (
        'b5214f94ae946a07828016c649913fb3ddab56562f50edc01788272670403740'
    ),
    'cartan --an N': (
        '600e36572810637ca89698d82feea7cb0480c73bbe410b37d2f5e0af4ed6f9f2'
    ),
    'cartan --an N --field 2': (
        '600e36572810637ca89698d82feea7cb0480c73bbe410b37d2f5e0af4ed6f9f2'
    ),
    'cartan --an N --field 2 --json': (
        '5845cc710c4b2a58aeb7797f396cfd25f8075ac104309f8b33f22c30c467c683'
    ),
    'cartan --an N --json': (
        '5845cc710c4b2a58aeb7797f396cfd25f8075ac104309f8b33f22c30c467c683'
    ),
    'cartan --omega N': (
        '600e36572810637ca89698d82feea7cb0480c73bbe410b37d2f5e0af4ed6f9f2'
    ),
    'cartan --omega N --field 2': (
        '600e36572810637ca89698d82feea7cb0480c73bbe410b37d2f5e0af4ed6f9f2'
    ),
    'cartan --omega N --field 2 --json': (
        '5845cc710c4b2a58aeb7797f396cfd25f8075ac104309f8b33f22c30c467c683'
    ),
    'cartan --omega N --json': (
        '5845cc710c4b2a58aeb7797f396cfd25f8075ac104309f8b33f22c30c467c683'
    ),
    'cartan FILE': (
        '9269756b9681b3cde64ffd8cc22eabf881c217d3b5cc4ab243e93122c42e4db5'
    ),
    'cartan FILE --field 2': (
        '9269756b9681b3cde64ffd8cc22eabf881c217d3b5cc4ab243e93122c42e4db5'
    ),
    'cartan FILE --field 2 --json': (
        '1aa7b9c4012bd26a1caacab11a80ca63726852dddb185ea1b4e614fa6f50870a'
    ),
    'cartan FILE --json': (
        '1aa7b9c4012bd26a1caacab11a80ca63726852dddb185ea1b4e614fa6f50870a'
    ),
    'omega N --compare-socle': (
        '56604819938e1b2c5c28133b22cbf1bac585d34f81a6fd3acb897e8f92ffb0ac'
    ),
    'omega N --compare-socle --field 2': (
        '56604819938e1b2c5c28133b22cbf1bac585d34f81a6fd3acb897e8f92ffb0ac'
    ),
    'omega N --compare-socle --field 2 --json': (
        '8dd036ca283e582d72d4d0069df4132148627bfc0533e65aea6523a81c5b0e7c'
    ),
    'omega N --compare-socle --json': (
        '8dd036ca283e582d72d4d0069df4132148627bfc0533e65aea6523a81c5b0e7c'
    ),
    'quiver FILE': (
        'be8e0e89f1fd28a4767b452812ede9bd47e2bc18ede5a58612819fe6236027cd'
    ),
    'quiver FILE --json': (
        '9998a8efd35b51802d65869444e0968cc542f7d55564167f5fdf44a1110ec70a'
    ),
}


def _pin_invocations():
    """Key -> (command, flags); quiver takes no --field."""
    out = {}
    for cmd in PIN_COMMANDS:
        fields = ([],) if cmd.startswith("quiver") else ([], ["--field", "2"])
        for field in fields:
            for mode in ([], ["--json"]):
                out[" ".join([cmd, *field, *mode])] = (cmd, [*field, *mode])
    return out


PIN_INVOCATIONS = _pin_invocations()


def test_pin_digests_cover_every_variant():
    assert sorted(PIN_INVOCATIONS) == sorted(PIN_DIGESTS)


@pytest.mark.parametrize("key", sorted(PIN_INVOCATIONS))
def test_pinned_output_digest(key, tmp_path, capsys):
    cmd, flags = PIN_INVOCATIONS[key]
    if cmd.endswith("FILE"):
        inputs = [_corpus_file(tmp_path, name) for name in sorted(corpus_graphs())]
    else:
        inputs = [str(n) for n in PIN_NS]
    digest = hashlib.sha256()
    for arg in inputs:
        assert run([a.format(arg) for a in PIN_COMMANDS[cmd]] + flags) == EXIT_OK
        digest.update(capsys.readouterr().out.encode("utf-8"))
    assert digest.hexdigest() == PIN_DIGESTS[key]


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_block(heading, lang):
    """Body of the first ``lang`` code block after ``heading`` in the README."""
    after = README.read_text(encoding="utf-8").split(f"\n{heading}\n", 1)[1]
    return after.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


# argv of every line of the README's "Command line" block, comments cut
README_COMMANDS = [
    line.split("#", 1)[0].split()[1:]
    for line in _readme_block("## Command line", "sh").splitlines()
    if line.startswith("brauer-derive ")
]


def test_readme_command_block_covers_every_subcommand():
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    assert {argv[0] for argv in README_COMMANDS} == set(subparsers.choices)


@pytest.mark.parametrize("argv", README_COMMANDS, ids=" ".join)
def test_readme_command_runs(argv, tmp_path, capsys, monkeypatch):
    """Each README command exits 0 on the README's example graph g.json, with
    trace.json written by ``reduce --certify --json``."""
    monkeypatch.chdir(tmp_path)
    Path("g.json").write_text(_readme_block("## Graph files", "json"), encoding="utf-8")
    assert run(["reduce", "g.json", "--certify", "--json"]) == EXIT_OK
    Path("trace.json").write_text(capsys.readouterr().out, encoding="utf-8")
    code = run(argv)
    assert code == EXIT_OK, capsys.readouterr().err


# -- one subparser per invocation -----------------------------------------

_FULL_PARSER = build_parser


def _outcome(argv, capsys):
    """(exit code, stdout, stderr) of ``run(argv)``; --help and --version
    leave through ``SystemExit``."""
    try:
        code = run(argv)
    except SystemExit as exc:
        code = ("exit", exc.code)
    out, err = capsys.readouterr()
    return code, out, err


PARSER_SWEEP = (
    [[], ["--help"], ["-h"], ["--version"], ["bogus"], ["--json", "cartan"], ["cartan", "--version"]]
    + [[name, "--help"] for name in cli.COMMANDS]
    + [[name] for name in cli.COMMANDS]
    + [[name, "g.json", "--bogus"] for name in cli.COMMANDS]
    + [
        ["cartan", "--omega", "x"],
        ["cartan", "--omega", "3", "--an", "3"],
        ["omega", "three"],
        ["an", "3", "--cap"],
        ["tilt-enlarge", "g.json"],
        ["validate", "a.json", "b.json"],
        ["reduce", "--certify"],
    ]
)


@pytest.mark.parametrize("argv", PARSER_SWEEP, ids=lambda argv: " ".join(argv) or "(none)")
def test_single_subparser_parses_as_the_full_parser(argv, capsys, monkeypatch):
    """``run`` adds only the named command's subparser; help, version, usage
    errors and exit codes must be those of the parser with every command."""
    assert len(_FULL_PARSER(argv)._actions[-1].choices) == (
        1 if argv and argv[0] in cli.COMMANDS else len(cli.COMMANDS)
    )
    got = _outcome(argv, capsys)
    monkeypatch.setattr(cli, "build_parser", lambda argv=None: _FULL_PARSER())
    assert got == _outcome(argv, capsys)


JSON_CASES = [
    {},
    [],
    {"a": [], "b": {}, "c": [[], {}]},
    [1, True, False, None, 2.5, -0.0, 10**30, "x"],
    {"é☃\n\"\\": ["ü", {"k": [1, 2, [3, []]]}]},
    (1, (2, "a")),
    [float("nan"), float("inf")],
    ["é☃", "a\"b", "c\\d", ""],
    {"order": ["1", "10", "ü"], "cyclic": ("x", "y")},
    ["1", 2, "3"],
    [2, "1"],
    "plain",
    7,
]


@pytest.mark.parametrize("value", JSON_CASES, ids=repr)
def test_json_writer_matches_json_dumps(value):
    assert cli._dumps(value) == json.dumps(value, indent=2)


def test_json_writer_rejects_non_string_keys():
    """Every payload the CLI writes has string keys only; ``_dumps`` raises
    ``TypeError`` on any other key, though ``json`` would write it."""
    for key in (1, True, None, 2.5, False):
        with pytest.raises(TypeError):
            cli._dumps({key: 0})
    with pytest.raises(TypeError):
        cli._dumps({"a": [{"b": {1: 2}}]})


def test_json_writer_rejects_what_json_rejects():
    for bad in ({(1, 2): 3}, {"a": object()}):
        with pytest.raises(TypeError):
            json.dumps(bad, indent=2)
        with pytest.raises(TypeError):
            cli._dumps(bad)
