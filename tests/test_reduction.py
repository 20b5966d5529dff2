import copy

import pytest

from brauer_derive.algebra import presentations_equal_on_basis
from brauer_derive.graph import (
    edge_count,
    loop_star,
    parse_graph,
)
from brauer_derive.reduction import (
    CertificateFailure,
    certify_trace,
    classify,
    reduce_to_normal_form,
)

from conftest import algebra_for, canonical_relabel, structure_key


def tree_edge_count(g):
    return sum(len(t.edges) for t in g.trees.values())


def test_loop_star_already_normal():
    trace = reduce_to_normal_form(loop_star(5))
    assert trace.steps == []
    assert trace.n == 5
    assert trace.normal_form.is_loop_star()


def test_g_min_trace(g_min):
    trace = reduce_to_normal_form(g_min, certify=True)
    assert len(trace.steps) == 1
    assert trace.n == 3
    assert trace.steps[0].at == "2"
    assert trace.normal_form.is_loop_star()
    cert = trace.steps[0].certificate
    assert (cert.det_source, cert.det_end) == (4, 4)
    assert certify_trace(trace)


def test_step_count_equals_tree_edges(corpus):
    for name, g in corpus.items():
        trace = reduce_to_normal_form(g)
        assert len(trace.steps) == tree_edge_count(g), name
        assert trace.normal_form.is_loop_star()
        assert edge_count(trace.normal_form) == edge_count(g)
        # cycle length grows by exactly one per step
        sizes = [len(s.before.cycle_edges) for s in trace.steps]
        if trace.steps:
            assert sizes == list(range(sizes[0], sizes[0] + len(sizes)))
            assert len(trace.normal_form.cycle_edges) == sizes[0] + len(sizes)


def test_classify(corpus, g_min):
    assert classify(loop_star(5)) == 5
    assert classify(g_min) == 3
    for g in corpus.values():
        n = classify(g)
        for c in g.cycle_edges[1:]:
            if g.trees[c]:
                from brauer_derive.tilting import enlarge_graph_move

                assert classify(enlarge_graph_move(g, c)) == n


def test_certified_trace_dets_constant():
    g = parse_graph(
        '{"vertices":[{"id":"S","cyclic":["1","1","2"]},'
        '{"id":"v","cyclic":["2","3"]},{"id":"w","cyclic":["3","4"]}]}'
    )
    trace = reduce_to_normal_form(g, certify=True)
    dets = [(s.certificate.det_source, s.certificate.det_end) for s in trace.steps]
    assert all(d == (4, 4) for d in dets)
    assert certify_trace(trace)


def test_tampered_certificate_rejected(g_min):
    trace = reduce_to_normal_form(g_min, certify=True)
    bad = copy.deepcopy(trace)
    cert = bad.steps[0].certificate
    rows = [list(r) for r in cert.end_cartan.rows]
    rows[0][0] += 1
    cert.end_cartan = type(cert.end_cartan)(cert.end_cartan.order, tuple(tuple(r) for r in rows))
    with pytest.raises(CertificateFailure, match="step 0"):
        certify_trace(bad)


def test_final_presentation_matches_normal_form(corpus):
    for name, g in list(corpus.items())[:3]:
        trace = reduce_to_normal_form(g)
        relabeled, _ = canonical_relabel(trace.normal_form)
        star = loop_star(trace.n)
        assert structure_key(relabeled) == structure_key(star), name
        A = algebra_for(relabeled)
        B = algebra_for(star)
        assert presentations_equal_on_basis(A, B), name


def test_trace_json_schema(g_min):
    trace = reduce_to_normal_form(g_min, certify=True)
    payload = trace.to_json()
    assert payload["n"] == 3
    assert len(payload["steps"]) == 1
    step = payload["steps"][0]
    assert step["at"] == "2"
    assert "homVanishing" in step["certificate"]
    assert "endCartan" in step["certificate"]
    assert step["certificate"]["detSource"] == 4


def test_prime_field_certified_pipeline(g_min):
    from brauer_derive.linalg import PrimeField

    for p in (2, 5):
        field = PrimeField(p)
        trace = reduce_to_normal_form(g_min, certify=True, field=field)
        assert len(trace.steps) == 1
        assert (trace.steps[0].certificate.det_source,
                trace.steps[0].certificate.det_end) == (4, 4)
        assert certify_trace(trace, field=field)


def test_tampered_graph_rejected(g_min):
    from brauer_derive.tilting import enlarge_graph_move

    trace = reduce_to_normal_form(g_min, certify=True)
    bad = copy.deepcopy(trace)
    # swap the recorded result for a different (valid) graph
    bad.steps[0].after = loop_star(3)
    with pytest.raises(CertificateFailure, match="step 0"):
        certify_trace(bad)
