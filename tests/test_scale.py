"""Certificates at benchmark sizes and beyond.

The graphs have the shapes of the shrink-deep benchmark families: a chain of
depth 13 with two one-edge twigs, and an 18-edge tree grown deep.  Each runs
over Q and over GF(2), where nonstandardness shows.  Besides the tilting
certificate and the generator relations, Hom(T, T) at shift 0 must have the
dimension of the endomorphism ring that the Cartan matrix predicts, which
does not depend on the solver and is far from 0.

Certified reductions of random graphs with 20 and 30 edges go through the
CLI's JSON trace and are checked again from that artifact.  One of 40 edges,
the 40-edge size of the reduce scaling sweep, goes through ``reduce
--certify --json`` and then the CLI's ``verify`` on the stored trace, and so
does one drawn uniformly from all 40-edge shapes (``uniform_plane_tree``),
not only from those the random graphs make.

Two scaling families go further: a chain of depth 24 and a fan of 20 leaf
edges at one vertex.  Each gets the certificates above and a certified
reduction through the CLI's JSON trace, over Q and GF(2).

``tilt-shrink --json`` on both graphs and both fields has golden SHA-256
digests of its stdout, so the output at these sizes is pinned byte for byte.
Its stdout is also the same byte for byte over Q, GF(2), GF(3) and
GF(1000003), on the depth-13 chain and on a 21-edge deep tree.
``reduce --certify --json`` and ``tilt-enlarge --at 2 --json`` have golden
digests too, on a seeded 14-edge random graph, the largest size of the
reduce benchmark; every enlarge complex of its reduction also gets the
generator relations.

``multiply``, ``times_basis`` and ``basis_times`` are checked against the
normal forms of the product words on the chain13 and deep21 algebras and on
a socle quotient, over Q and GF(2).  On the chain13 and deep21 shrink
complexes, the caches are checked too: a product asked for twice reads no
path's class the second time and equals the normal-form sum over Q, GF(2)
and GF(3); each chain map is square-checked once however often it is asked
for; and a broken generator map (a successor negated, the loop map doubled)
still fails the relations after the shared maps and products have been
built.

The largest basis-star inputs, Omega(59) and A(14) with its socle
comparison, go through the CLI over Q and GF(2), and ``cartan --omega 36``,
``cartan --omega 59`` and ``an 14 --compare-socle`` (all with ``--json``)
have golden SHA-256 digests of their stdout on both fields.
"""
import hashlib
import json
import random

import pytest

from brauer_derive import tilting
from brauer_derive.algebra import (
    AlgebraElement,
    omega_relations,
    quotient_basis,
    socle_quotient,
)
from brauer_derive.cli import run
from brauer_derive.graph import edge_count, loop_star, parse_graph, serialize_graph
from brauer_derive.homological import ChainMap, homotopy_hom
from brauer_derive.linalg import QQ, PrimeField
from brauer_derive.quiver import build_quiver
from brauer_derive.reduction import certify_trace, load_trace, reduce_to_normal_form
from brauer_derive.tilting import (
    RelationFailure,
    check_tilting,
    end_cartan,
    enlarge_complex,
    enlarge_data,
    shrink_complex,
    verify_end_generators,
)

from conftest import certificate_valid, class_oracle
from test_every_shape import one_loop_graph, uniform_plane_tree
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
    assert edge_count(fan) == 23 and len(fan.trees["2"]) == 20


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
    assert certificate_valid(cert) and set(cert.hom_vanishing.values()) == {0}
    assert verify_end_generators(Q)
    T = Q.direct_sum()
    assert homotopy_hom(T, T, 0) == end_cartan(Q).dim


def _random_element(A, i, j, rng):
    """An element of block (i, j): up to four random coefficients in
    -3..3, zeros among them, at random positions, and zeros elsewhere."""
    words = A.block(i, j)
    coeffs = [A.field.zero] * len(words)
    for pos in rng.sample(range(len(words)), min(len(words), rng.randint(1, 4))):
        coeffs[pos] = A.field.from_int(rng.randint(-3, 3))
    return AlgebraElement(A, i, j, coeffs)


def _oracle_sum(A, i, k, terms):
    """Sorted (position, coefficient) pairs, zeros dropped, of the sum of
    c * (class of w) in block (i, k) over (w, c) pairs, from normal forms."""
    index = {w: pos for pos, w in enumerate(A.block(i, k))}
    acc = {}
    for w, c in terms:
        for u, d in class_oracle(A, i, w).items():
            acc[index[u]] = acc.get(index[u], A.field.zero) + c * d
    return tuple(sorted((pos, c) for pos, c in acc.items() if c))


PRODUCT_CASES = {
    "chain13_twigs": (GRAPHS["chain13_twigs"], False),
    "deep21": (deep_tree(21, seed=3), False),
    "chain13_twigs socle quotient": (GRAPHS["chain13_twigs"], True),
}


@pytest.mark.slow
@pytest.mark.parametrize("field", [QQ, PrimeField(2)], ids=repr)
@pytest.mark.parametrize("case", sorted(PRODUCT_CASES))
def test_products_match_normal_forms_at_benchmark_size(case, field):
    """``multiply``, ``times_basis`` and ``basis_times`` of seeded random
    elements over 60 block triples (i, j, k), 20 of them with i == k, equal
    the sums of the normal forms of the product words; in the socle
    quotient some of those normal forms hold dropped words."""
    text, socle = PRODUCT_CASES[case]
    A = quotient_basis(omega_relations(build_quiver(parse_graph(text))), field=field)
    if socle:
        A = socle_quotient(A)
    rng = random.Random(11)
    triples = [
        (i, j, k) for i in A.vertices for j in A.vertices for k in A.vertices
        if A.block(i, j) and A.block(j, k)
    ]
    sample = rng.sample([t for t in triples if t[0] != t[2]], 40)
    sample += rng.sample([t for t in triples if t[0] == t[2]], 20)
    dropped = 0
    for i, j, k in sample:
        left, right = A.block(i, j), A.block(j, k)
        dropped += any(
            (i, term[0]) in A.dropped
            for wl in left for wr in right
            for term in [A._rsys.nf_word(wl + wr, A.field.one)] if term
        )
        x, y = _random_element(A, i, j, rng), _random_element(A, j, k, rng)
        pairs = [(wl + wr, a * b) for wl, a in zip(left, x.coeffs) for wr, b in zip(right, y.coeffs)]
        xy = A.multiply(x, y)
        assert (xy.source, xy.target) == (i, k)
        assert tuple((pos, c) for pos, c in enumerate(xy.coeffs) if c) == _oracle_sum(A, i, k, pairs)
        assert A.times_basis(x, k) == tuple(
            _oracle_sum(A, i, k, [(wl + wr, a) for wl, a in zip(left, x.coeffs)]) for wr in right
        )
        assert A.basis_times(i, y) == tuple(
            _oracle_sum(A, i, k, [(wl + wr, b) for wr, b in zip(right, y.coeffs)]) for wl in left
        )
    assert bool(dropped) == socle


# the two shapes of the shrink-deep benchmark that the cache tests run on
MEMO_CASES = {"chain13_twigs": GRAPHS["chain13_twigs"], "deep21": deep_tree(21, seed=3)}


def _shrink(text, field):
    g = parse_graph(text)
    return shrink_complex(quotient_basis(omega_relations(build_quiver(g)), field=field), g)


@pytest.mark.slow
@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3)], ids=repr)
@pytest.mark.parametrize("name", sorted(MEMO_CASES))
def test_repeated_products_match_normal_forms(name, field, monkeypatch):
    """``multiply`` asked twice for the same pair, the second time through
    equal but new elements, reduces no product word the second time, as
    each path's class is kept per block, and returns the normal-form sum
    both times.  Two left and two right factors per block triple share
    their blocks, so a product that mixed up factors would differ from the
    sum.  No cache keeps an element."""
    A = quotient_basis(omega_relations(build_quiver(parse_graph(MEMO_CASES[name]))), field=field)
    reduced = []
    read = A._class
    monkeypatch.setattr(A, "_class", lambda i, w: reduced.append(w) or read(i, w))
    rng = random.Random(5)
    triples = [
        (i, j, k) for i in A.vertices for j in A.vertices for k in A.vertices
        if A.block(i, j) and A.block(j, k)
    ]
    for i, j, k in rng.sample(triples, 40):
        lefts = [_random_element(A, i, j, rng) for _ in range(2)]
        rights = [_random_element(A, j, k, rng) for _ in range(2)]
        for x in lefts:
            for y in rights:
                pairs = [
                    (wl + wr, a * b)
                    for wl, a in zip(A.block(i, j), x.coeffs)
                    for wr, b in zip(A.block(j, k), y.coeffs)
                ]
                first = A.multiply(x, y)
                before = len(reduced)
                again = AlgebraElement(A, i, j, x.coeffs), AlgebraElement(A, j, k, y.coeffs)
                second = A.multiply(*again)
                assert len(reduced) == before
                for xy in (first, second):
                    assert (xy.source, xy.target) == (i, k)
                    coords = tuple((p, c) for p, c in enumerate(xy.coeffs) if c)
                    assert coords == _oracle_sum(A, i, k, pairs)
        A.times_basis(lefts[0], k), A.basis_times(i, rights[0])
    assert reduced and A._entries and A._basis_products
    for cache in A._entries.values():
        for entry in cache.values():
            assert entry is None or not any(isinstance(c, AlgebraElement) for c in entry)
    for key, out in A._basis_products.items():
        assert not any(isinstance(c, AlgebraElement) for c in key)
        assert not any(isinstance(c, AlgebraElement) for coords in out for _, c in coords)


@pytest.mark.slow
@pytest.mark.parametrize("field", [QQ, PrimeField(2)], ids=repr)
@pytest.mark.parametrize("name", sorted(MEMO_CASES))
def test_each_chain_map_is_built_and_checked_once(name, field, monkeypatch):
    """``check_tilting`` and ``verify_end_generators`` on one shrink complex
    square-check as many chain maps as distinct maps were asked for: each
    tree-path pair (x, y) once, shared by the generation witnesses and the
    generator maps, and each one-entry generator map."""
    Q = _shrink(MEMO_CASES[name], field)
    checked, paths, entries = [], [], []
    check, path_map, one_entry = ChainMap.check, tilting._tree_path_map, tilting._one_entry
    monkeypatch.setattr(ChainMap, "check", lambda f: checked.append(f) or check(f))
    monkeypatch.setattr(
        tilting, "_tree_path_map", lambda Q, x, y: paths.append((x, y)) or path_map(Q, x, y)
    )
    monkeypatch.setattr(tilting, "_one_entry", lambda *a: entries.append(a) or one_entry(*a))
    assert certificate_valid(check_tilting(Q)) and verify_end_generators(Q)
    assert len(set(paths)) < len(paths)  # the two users share maps
    assert len(checked) == len(set(paths)) + len(entries)
    assert len({id(f) for f in checked}) == len(checked)


@pytest.mark.slow
@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=repr)
@pytest.mark.parametrize("name", sorted(MEMO_CASES))
def test_shared_maps_never_hide_a_broken_generator(name, field, monkeypatch):
    """Once ``check_tilting`` and ``verify_end_generators`` have built the
    shared tree-path maps and filled the class caches, negating any one
    successor map, or scaling the loop map by 2, still breaks the loop
    relation alpha^2 = alpha b_1...b_n; the intact maps pass after every
    broken run."""
    Q = _shrink(MEMO_CASES[name], field)
    assert certificate_valid(check_tilting(Q)) and verify_end_generators(Q)
    target = build_quiver(loop_star(len(Q.ordering)))
    broken = [(a.name, lambda f: -f) for a in target.exceptional_cycle.arrows]
    broken.append((target.loop_arrow.name, lambda f: f + f))
    original = tilting._shrink_generator_maps
    for arrow, breaker in broken:

        def maps_with_one_broken(Q, target):
            maps = original(Q, target)
            maps[arrow] = breaker(maps[arrow])
            return maps

        monkeypatch.setattr(tilting, "_shrink_generator_maps", maps_with_one_broken)
        with pytest.raises(RelationFailure, match=r"a_1\*a_1 is not null-homotopic"):
            verify_end_generators(Q)
        monkeypatch.setattr(tilting, "_shrink_generator_maps", original)
        assert verify_end_generators(Q)
    assert len(broken) == len(Q.ordering) + 1


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


# "command flags": SHA-256 of the stdout of ``command FILE flags`` on the
# 14-edge random graph of reduce-random's size, the same over Q and GF(2)
RANDOM14_DIGESTS = {
    "reduce --certify --json": "2da12244d3dea074944f78e70f68cef469abbac2e94cd2795bf720706ae52125",
    "tilt-enlarge --at 2 --json": "065b5d8c144eca115cc2d9db4c9b636fa8ddc309bd322c0af7b2c96eae33d0d3",
}


def random14():
    return random_one_loop_graph(random.Random(7), 14)


@pytest.mark.slow
@pytest.mark.parametrize("flags", [[], ["--field", "2"]], ids=["Q", "GF(2)"])
@pytest.mark.parametrize("command", sorted(RANDOM14_DIGESTS))
def test_random14_json_digest(command, flags, tmp_path, capsys):
    name, *rest = command.split()
    path = tmp_path / "g.json"
    path.write_text(serialize_graph(random14()), encoding="utf-8")
    assert run([name, str(path), *rest, *flags]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == RANDOM14_DIGESTS[command]


@pytest.mark.slow
@pytest.mark.parametrize("field", [QQ, PrimeField(2)], ids=repr)
def test_random14_enlarge_generators(field):
    """The generator relations of End(T) on every enlarge complex of the
    14-edge graph's reduction, beta fans among them."""
    steps = fans = 0
    for step in reduce_to_normal_form(random14()).steps:
        g = step.before
        A = quotient_basis(omega_relations(build_quiver(g)), field=field)
        d = enlarge_data(g, step.at)
        assert verify_end_generators(enlarge_complex(A, g, d)), step.at
        steps += 1
        fans += bool(d.beta_fan)
    assert (steps, fans) == (11, 3)


@pytest.mark.slow
@pytest.mark.parametrize("text", [GRAPHS["chain13_twigs"], deep_tree(21, seed=3)],
                         ids=["chain13_twigs", "deep21"])
def test_shrink_json_same_over_every_field(text, tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(text, encoding="utf-8")
    outs = set()
    for flags in ([], ["--field", "2"], ["--field", "3"], ["--field", "1000003"]):
        assert run(["tilt-shrink", str(path), "--json", *flags]) == 0
        outs.add(capsys.readouterr().out)
    assert len(outs) == 1


@pytest.mark.slow
@pytest.mark.parametrize("field", [QQ, PrimeField(2)], ids=repr)
@pytest.mark.parametrize("n", [20, 30])
def test_certified_reduction_round_trip(n, field, tmp_path, capsys):
    g = random_one_loop_graph(random.Random(7), n)
    assert edge_count(g) == n
    _assert_reduction_round_trip(serialize_graph(g), field, tmp_path, capsys)


def _assert_reduce_and_verify(text, field, tmp_path, capsys):
    """``reduce --certify --json`` on a graph, then ``verify`` on its trace."""
    path, trace = tmp_path / "g.json", tmp_path / "trace.json"
    path.write_text(text, encoding="utf-8")
    flags = [] if field == QQ else ["--field", str(field.p)]
    assert run(["reduce", str(path), "--certify", "--json", *flags]) == 0
    out = capsys.readouterr().out
    assert len(json.loads(out)["steps"]) > 0
    trace.write_text(out, encoding="utf-8")
    assert run(["verify", str(trace), *flags]) == 0


@pytest.mark.slow
@pytest.mark.parametrize("field", [QQ, PrimeField(2)], ids=repr)
def test_forty_edge_reduction_verifies_through_cli(field, tmp_path, capsys):
    g = random_one_loop_graph(random.Random(5000), 40)
    assert edge_count(g) == 40
    _assert_reduce_and_verify(serialize_graph(g), field, tmp_path, capsys)


@pytest.mark.slow
@pytest.mark.parametrize("field", [QQ, PrimeField(2)], ids=repr)
def test_forty_edge_uniform_reduction_verifies_through_cli(field, tmp_path, capsys):
    text = one_loop_graph(uniform_plane_tree(random.Random(8000), 39))
    assert edge_count(parse_graph(text)) == 40
    _assert_reduce_and_verify(text, field, tmp_path, capsys)


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
