"""Certificates at benchmark sizes and beyond.

The graphs have the shapes of the shrink-deep benchmark families: a chain of
depth 13 with two one-edge twigs, and an 18-edge tree grown deep.  Each runs
over Q and over GF(2), where nonstandardness shows.  Besides the tilting
certificate and the generator relations, Hom(T, T) at shift 0 must have the
dimension of the endomorphism ring that the Cartan matrix predicts, which
does not depend on the solver and is far from 0.

Certified reductions of random graphs with 20 and 30 edges go through the
CLI's JSON trace and are checked again from that artifact.

Two scaling families go further: a chain of depth 24 and a fan of 20 leaf
edges at one vertex.  Each gets the certificates above and a certified
reduction through the CLI's JSON trace, over Q and GF(2).

``tilt-shrink --json`` on both graphs and both fields has golden SHA-256
digests of its stdout, so the output at these sizes is pinned byte for byte.

The largest basis-star inputs, Omega(59) and A(14) with its socle
comparison, go through the CLI over Q and GF(2), and ``cartan --omega 36``,
``cartan --omega 59`` and ``an 14 --compare-socle`` (all with ``--json``)
have golden SHA-256 digests of their stdout on both fields.
"""
import hashlib
import json
import random

import pytest

from brauer_derive.algebra import omega_relations, quotient_basis
from brauer_derive.cli import run
from brauer_derive.graph import edge_count, parse_graph, serialize_graph
from brauer_derive.homological import homotopy_hom
from brauer_derive.linalg import QQ, PrimeField
from brauer_derive.quiver import build_quiver
from brauer_derive.reduction import certify_trace, load_trace
from brauer_derive.tilting import (
    check_tilting,
    end_cartan,
    shrink_complex,
    verify_end_generators,
)

from test_random_graphs import random_one_loop_graph


def graph_text(lists):
    return json.dumps({"vertices": [{"id": v, "cyclic": c} for v, c in lists.items()]})


def chain_with_twigs(depth, twigs):
    """Cycle edges 1 (the loop), 2 and 3; a spine of ``depth`` tree edges
    below edge 2; one leaf edge at each spine position in ``twigs``."""
    lists = {"S": ["1", "1", "2", "3"], "v2": ["2"], "v3": ["3"]}
    host, spine = "v2", []
    for k in range(4, 4 + depth):
        lists[host].append(str(k))
        host = f"v{k}"
        lists[host] = [str(k)]
        spine.append(host)
    for k, pos in enumerate(twigs, start=4 + depth):
        lists[spine[pos]].insert(1, str(k))
        lists[f"v{k}"] = [str(k)]
    return graph_text(lists)


def deep_tree(n_edges, seed, window=3):
    """Cycle edges 1 (the loop), 2 and 3; every further edge hangs at a
    random place of one of the last ``window`` vertices made, so the trees
    grow deep."""
    rng = random.Random(seed)
    lists = {"S": ["1", "1", "2", "3"], "v2": ["2"], "v3": ["3"]}
    spots = ["v2", "v3"]
    for k in range(4, n_edges + 1):
        host = rng.choice(spots[-window:])
        lists[host].insert(rng.randrange(1, len(lists[host]) + 1), str(k))
        lists[f"v{k}"] = [str(k)]
        spots.append(f"v{k}")
    return graph_text(lists)


def leaf_fan(leaves):
    """Cycle edges 1 (the loop), 2 and 3; ``leaves`` leaf edges at the far
    vertex of edge 2."""
    lists = {"S": ["1", "1", "2", "3"], "v2": ["2"], "v3": ["3"]}
    for k in range(4, 4 + leaves):
        lists["v2"].append(str(k))
        lists[f"v{k}"] = [str(k)]
    return graph_text(lists)


# the scaling families beyond the benchmark sizes
SCALING = {
    "chain24": chain_with_twigs(24, ()),
    "fan20": leaf_fan(20),
}

GRAPHS = {
    "chain13_twigs": chain_with_twigs(13, twigs=(2, 7)),
    "deep18": deep_tree(18, seed=5),
    **SCALING,
}


def test_graph_shapes():
    chain = parse_graph(GRAPHS["chain13_twigs"])
    assert edge_count(chain) == 18
    tree = [z for z in chain.canonical_order if chain.is_tree_edge(z)]
    assert max(len(chain.tree_path(z)) for z in tree) == 14  # cycle edge + 13
    assert edge_count(parse_graph(GRAPHS["deep18"])) == 18
    chain = parse_graph(SCALING["chain24"])
    assert max(len(chain.tree_path(z)) for z in chain.canonical_order) == 25
    fan = parse_graph(SCALING["fan20"])
    assert edge_count(fan) == 23 and len(fan.trees["2"].edges) == 20


def _assert_reduction_round_trip(text, field, tmp_path, capsys):
    """reduce --certify --json, then load the trace and certify it again."""
    path = tmp_path / "g.json"
    path.write_text(text, encoding="utf-8")
    flags = [] if field == QQ else ["--field", str(field.p)]
    assert run(["reduce", str(path), "--certify", "--json", *flags]) == 0
    trace = load_trace(json.loads(capsys.readouterr().out))
    assert trace.n == edge_count(parse_graph(text)) and len(trace.steps) > 0
    assert certify_trace(trace, field=field)


@pytest.mark.slow
@pytest.mark.parametrize("field", [QQ, PrimeField(2)], ids=repr)
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_shrink_certificate_at_benchmark_size(name, field):
    g = parse_graph(GRAPHS[name])
    A = quotient_basis(omega_relations(build_quiver(g)), field=field)
    Q = shrink_complex(A, g)
    cert = check_tilting(Q)
    assert cert.valid and set(cert.hom_vanishing.values()) == {0}
    assert verify_end_generators(Q)
    T = Q.direct_sum()
    assert homotopy_hom(T, T, 0) == end_cartan(Q).dim


# "graph flags": SHA-256 of the stdout of ``tilt-shrink FILE --json flags``
SHRINK_DIGESTS = {
    "chain13_twigs": "7ed92c6b0e1be010f33f5589e3d3776497d4f0913455077979fce01cb68e6f15",
    "chain13_twigs --field 2": "7ed92c6b0e1be010f33f5589e3d3776497d4f0913455077979fce01cb68e6f15",
    "deep18": "044d636a4248486788e271f691890218b38ea2f255d64636a51102501095fdbc",
    "deep18 --field 2": "044d636a4248486788e271f691890218b38ea2f255d64636a51102501095fdbc",
}


@pytest.mark.slow
@pytest.mark.parametrize("key", sorted(SHRINK_DIGESTS))
def test_shrink_json_digest_at_benchmark_size(key, tmp_path, capsys):
    name, *flags = key.split()
    path = tmp_path / f"{name}.json"
    path.write_text(GRAPHS[name], encoding="utf-8")
    assert run(["tilt-shrink", str(path), "--json", *flags]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == SHRINK_DIGESTS[key]


@pytest.mark.slow
@pytest.mark.parametrize("field", [QQ, PrimeField(2)], ids=repr)
@pytest.mark.parametrize("n", [20, 30])
def test_certified_reduction_round_trip(n, field, tmp_path, capsys):
    g = random_one_loop_graph(random.Random(7), n)
    assert edge_count(g) == n
    _assert_reduction_round_trip(serialize_graph(g), field, tmp_path, capsys)


@pytest.mark.slow
@pytest.mark.parametrize("field", [QQ, PrimeField(2)], ids=repr)
@pytest.mark.parametrize("name", sorted(SCALING))
def test_scaling_family_reduction_round_trip(name, field, tmp_path, capsys):
    _assert_reduction_round_trip(SCALING[name], field, tmp_path, capsys)


@pytest.mark.slow
@pytest.mark.parametrize("flags", [[], ["--field", "2"]], ids=["Q", "GF(2)"])
def test_basis_star_sizes_through_cli(flags, capsys):
    assert run(["cartan", "--omega", "59", "--json", *flags]) == 0
    cartan = json.loads(capsys.readouterr().out)
    assert cartan["dim"] == 59 * 62 and abs(cartan["det"]) == 4
    assert run(["an", "14", "--compare-socle", "--json", *flags]) == 0
    an = json.loads(capsys.readouterr().out)
    assert an["dim"] == 14 * 17 and abs(an["cartan"]["det"]) == 4
    assert an["socleQuotientsEqual"] is True


# "command flags": SHA-256 of the stdout of ``command --json flags``
STAR_DIGESTS = {
    "cartan --omega 36": "5f2927316f1090b995cf9ee50dd7faa7ae39e85df1011fe000217a68d72e2753",
    "cartan --omega 59": "b2a42bf864cc221835ff0083b852ac8d4eefc559738574b73871057aef7c3036",
    "an 14 --compare-socle": "a4c49c24d54ccb4baf70a2d7fb1a0124150b7f90efd47d829acbba2b3b674a82",
}


@pytest.mark.slow
@pytest.mark.parametrize("flags", [[], ["--field", "2"]], ids=["Q", "GF(2)"])
@pytest.mark.parametrize("command", sorted(STAR_DIGESTS))
def test_basis_star_json_digest(command, flags, capsys):
    assert run([*command.split(), "--json", *flags]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == STAR_DIGESTS[command]
