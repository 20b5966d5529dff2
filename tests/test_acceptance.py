"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  The corpus lives in conftest: nine validated one-loop graphs with
3 <= n <= 8 covering loop-stars, a depth-2 chain, a two-tree graph, a
branching tree, and two mixed shapes.
"""
import random
import time

import pytest

from brauer_derive.algebra import (
    omega_relations,
    a_n_presentation,
    presentations_equal_on_basis,
    quotient_basis,
    socle_quotient,
)
from brauer_derive.graph import edge_count, loop_star
from brauer_derive.homological import happel_cartan
from brauer_derive.quiver import build_quiver
from brauer_derive.reduction import certify_trace, reduce_to_normal_form
from brauer_derive.tilting import (
    check_tilting,
    end_cartan,
    enlarge_complex,
    enlarge_data,
    shrink_complex,
)

from conftest import (
    algebra_for,
    cartan_entry,
    certificate_valid,
    named_presentation,
    word_element,
)
from test_homological import random_complexes, s_matrix
from test_tilting import pattern


def test_a1_cartan_pattern(corpus):
    assert len(corpus) >= 8
    times = {}
    for name, g in corpus.items():
        n = edge_count(g)
        assert 3 <= n <= 8
        start = time.monotonic()
        A = quotient_basis(omega_relations(build_quiver(g)))
        ec = end_cartan(shrink_complex(A, g))
        times[name] = time.monotonic() - start
        assert ec.rows == pattern(n), f"A1 pattern mismatch for {name}"
        assert times[name] < 60.0, f"A1 too slow for {name}"
    worst = max(times.values())
    print(f"A1 PASS: endomorphism Cartan pattern exact on {len(corpus)} graphs "
          f"(worst build {worst * 1000:.1f} ms, limit 60 s)")


def displayed_omega_presentation(n):
    """Literal transcription of the published loop-star relations."""
    q = build_quiver(loop_star(n))
    a = "a_1"
    beta = tuple(f"b_{i}" for i in range(1, n + 1))
    rels = [
        word_element(q, [(a, a), (a,) + beta], [1, -1]),
        word_element(q, [(a,) + beta, beta + (a,)], [1, 1]),
        word_element(q, [(beta[-1], beta[0])], [1]),
    ]
    for j in range(2, n + 1):
        word = beta[j - 1:] + (a,) + beta[: j - 1] + (beta[j - 1],)
        rels.append(word_element(q, [word], [1]))
    return named_presentation(q, rels)


@pytest.mark.parametrize("n", range(1, 9))
def test_a2_presentation_fidelity(n):
    ours = algebra_for(loop_star(n))
    displayed = quotient_basis(displayed_omega_presentation(n))
    assert presentations_equal_on_basis(ours, displayed)
    if n == 8:
        print("A2 PASS: loop-star relations presentation-identical to the "
              "displayed normal form, n = 1..8")


@pytest.mark.parametrize("n", range(1, 9))
def test_a3_dimension_closed_form(n):
    assert algebra_for(loop_star(n)).dim == n * n + 3 * n
    if n == 8:
        print("A3 PASS: dim = n^2 + 3n exact for n = 1..8")


def test_a4_tilting_axioms(corpus):
    checked = 0
    for name, g in corpus.items():
        A = algebra_for(g)
        cert = check_tilting(shrink_complex(A, g))
        assert certificate_valid(cert) and all(v == 0 for v in cert.hom_vanishing.values()), name
        checked += 1
        pivots = [c for c in g.cycle_edges[1:] if g.trees[c]]
        if pivots:
            cert2 = check_tilting(enlarge_complex(A, g, enlarge_data(g, pivots[0])))
            assert certificate_valid(cert2) and all(v == 0 for v in cert2.hom_vanishing.values()), name
            checked += 1
    print(f"A4 PASS: hom vanishing and generation witnesses on {checked} "
          "tilting complexes, zero failures")


def test_a5_reduction_soundness(corpus, g_min):
    for name, g in corpus.items():
        trace = reduce_to_normal_form(g, certify=True)
        tree_edges = sum(len(t) for t in g.trees.values())
        assert len(trace.steps) == tree_edges, name
        assert trace.normal_form.is_loop_star(), name
        assert edge_count(trace.normal_form) == edge_count(g), name
        dets = [abs(s.certificate.det_source) for s in trace.steps] + [
            abs(s.certificate.det_end) for s in trace.steps
        ]
        assert len(set(dets)) <= 1, name
        certify_trace(trace)
    gm = reduce_to_normal_form(g_min, certify=True)
    assert len(gm.steps) == 1 and gm.n == 3
    cert = gm.steps[0].certificate
    assert (cert.det_source, cert.det_end) == (4, 4)
    print("A5 PASS: certified reductions terminate in #tree-edges steps with "
          "constant |det|; G_min gives (4, 4)")


@pytest.mark.parametrize("n", range(1, 7))
def test_a6_socle_equivalence(n):
    O = algebra_for(loop_star(n))
    An = quotient_basis(a_n_presentation(n))
    assert presentations_equal_on_basis(socle_quotient(O), socle_quotient(An))
    if n == 6:
        print("A6 PASS: socle quotients presentation-equal for n = 1..6")


def test_a7_happel_identity(corpus):
    total = 0
    for name, g in corpus.items():
        A = algebra_for(g)
        C = A.cartan()
        verts = A.vertices
        Cm = [[cartan_entry(C, i, j) for j in verts] for i in verts]
        rng = random.Random(hash(name) % 100000)
        complexes = random_complexes(A, rng, 100)
        for lo in range(0, 100, 5):
            batch = complexes[lo : lo + 5]
            got = happel_cartan(batch, C, [str(k) for k in range(len(batch))])
            S = s_matrix(batch, verts)
            expect = [
                [
                    sum(
                        S[z][a] * Cm[a][b] * S[w][b]
                        for a in range(len(verts))
                        for b in range(len(verts))
                    )
                    for w in range(len(batch))
                ]
                for z in range(len(batch))
            ]
            assert [list(r) for r in got.rows] == expect, name
        total += 100
    print(f"A7 PASS: alternating-sum Cartan equals S C S^T on {total} random "
          "complexes, exact integers")


def test_a8_engine_stability(corpus):
    for n in range(1, 9):
        A = algebra_for(loop_star(n))  # defaults; raises NotStabilized if unstable
        assert A.dim == n * n + 3 * n
    for name, g in corpus.items():
        A = algebra_for(g)
        dims = {k: len(v) for k, v in A.blocks.items()}
        for dcap, dmargin in ((0, 1), (1, 0)):
            B = quotient_basis(A.presentation, cap=A.cap + dcap, margin=A.margin + dmargin)
            assert {k: len(v) for k, v in B.blocks.items()} == dims, name
    print("A8 PASS: dimensions invariant under cap+1 and margin+1; "
          "defaults stabilize for n <= 8")
