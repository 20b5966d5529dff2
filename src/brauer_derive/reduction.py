"""Iterated cycle enlargement down to the loop-star normal form.

Each step moves the direct successor of the first cycle edge with a
non-empty tree onto the exceptional cycle, optionally attaching a full
tilting certificate plus a Cartan cross-check of the surgery against the
endomorphism ring.  The trace ends at a loop-star with the same number of
edges, which indexes the derived-equivalence class.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from .algebra import omega_relations, quotient_basis
from .graph import (
    BrauerGraph,
    MalformedInput,
    edge_count,
    parse_graph,
    serialize_graph,
    validate,
)
from .linalg import QQ
from .quiver import build_quiver
from .tilting import (
    CertificateFailure,
    EmptyTree,
    TiltCertificate,
    check_tilting,
    enlarge_complex,
    enlarge_data,
    enlarge_graph_move,
)


@dataclass
class ReductionStep:
    before: BrauerGraph
    after: BrauerGraph
    at: str
    certificate: TiltCertificate | dict | None  # a dict once loaded from JSON


def _certificate_json(cert):
    return cert.to_json() if isinstance(cert, TiltCertificate) else cert


@dataclass
class ReductionTrace:
    input: BrauerGraph
    steps: list
    normal_form: BrauerGraph
    n: int

    def to_json(self):
        from .graph import _canonical_obj

        return {
            "input": _canonical_obj(self.input),
            "n": self.n,
            "steps": [
                {
                    "at": s.at,
                    "after": _canonical_obj(s.after),
                    "certificate": _certificate_json(s.certificate),
                }
                for s in self.steps
            ],
            "normalForm": _canonical_obj(self.normal_form),
        }


def classify(g: BrauerGraph) -> int:
    """Index n of the normal form of the graph's algebra.

    Two of these algebras are derived equivalent (equivalently, being
    selfinjective, stably equivalent) exactly when their indices agree.
    """
    return edge_count(g)


def _pivot(g: BrauerGraph):
    for c in g.cycle_edges[1:]:
        if g.trees[c]:
            return c
    return None


class _AlgebraCache:
    def __init__(self, cap, margin, field):
        self.cap, self.margin, self.field = cap, margin, field
        self.store = {}

    def get(self, g):
        key = serialize_graph(g)
        if key not in self.store:
            self.store[key] = quotient_basis(
                omega_relations(build_quiver(g)), self.cap, self.margin, self.field
            )
        return self.store[key]


def _certified_step(g, at, cache):
    A = cache.get(g)
    Q = enlarge_complex(A, g, enlarge_data(g, at))
    cert = check_tilting(Q)
    moved = enlarge_graph_move(g, at)
    A2 = cache.get(moved)
    expected = cert.end_cartan.reorder(A2.vertices)
    actual = A2.cartan()
    if actual.rows != expected.rows:
        raise CertificateFailure(
            f"surgery Cartan mismatch at edge {at}: endomorphism ring and "
            "moved graph disagree"
        )
    if abs(cert.det_source) != abs(actual.det()):
        raise CertificateFailure(f"|det Cartan| changed at edge {at}")
    return moved, cert


def reduce_to_normal_form(
    g: BrauerGraph, certify: bool = False, cap=None, margin=None, field=QQ
) -> ReductionTrace:
    validate(g)
    cache = _AlgebraCache(cap, margin, field)
    steps = []
    current = g
    while True:
        at = _pivot(current)
        if at is None:
            break
        if certify:
            moved, cert = _certified_step(current, at, cache)
        else:
            moved, cert = enlarge_graph_move(current, at), None
        validate(moved)
        if edge_count(moved) != edge_count(current):
            raise CertificateFailure(f"edge count changed at edge {at}")
        steps.append(ReductionStep(current, moved, at, cert))
        current = moved
    if not current.is_loop_star():
        raise CertificateFailure("reduction did not end at a loop-star")
    return ReductionTrace(g, steps, current, edge_count(g))


def _load_graph(obj):
    g = parse_graph(json.dumps(obj))
    validate(g)
    return g


def load_trace(payload) -> ReductionTrace:
    """Rebuild a trace from its ``to_json`` form, e.g. ``reduce --json`` output.

    Every graph is parsed and validated again; a step's ``before`` is the
    previous step's ``after``.  Certificates stay JSON dicts, which
    ``certify_trace`` compares with the ones it recomputes.
    """
    try:
        current = start = _load_graph(payload["input"])
        steps = []
        for s in payload["steps"]:
            after = _load_graph(s["after"])
            steps.append(ReductionStep(current, after, s["at"], s["certificate"]))
            current = after
        return ReductionTrace(start, steps, _load_graph(payload["normalForm"]), payload["n"])
    except (KeyError, TypeError) as exc:
        raise MalformedInput(f"not a reduction trace ({type(exc).__name__}: {exc})") from None


def certify_trace(t: ReductionTrace, cap=None, margin=None, field=QQ) -> bool:
    """Re-validate a trace from scratch; raises CertificateFailure on step index.

    Each step is certified again from its graph alone, and a stored
    certificate must equal the recomputed one in its JSON form.
    """
    cache = _AlgebraCache(cap, margin, field)
    current = t.input
    validate(current)
    for idx, step in enumerate(t.steps):
        try:
            if serialize_graph(step.before) != serialize_graph(current):
                raise CertificateFailure("trace steps do not chain")
            moved, cert = _certified_step(current, step.at, cache)
            if serialize_graph(moved) != serialize_graph(step.after):
                raise CertificateFailure(f"stored result of step differs at {step.at}")
            stored = _certificate_json(step.certificate)
            if stored is not None and stored != cert.to_json():
                raise CertificateFailure("stored certificate does not re-validate")
        except (CertificateFailure, EmptyTree) as exc:
            # a stored step that names an edge no move can take does not
            # match the recomputed trace: a certificate fault, not bad input
            raise CertificateFailure(f"step {idx}: {exc}") from None
        current = step.after
    if serialize_graph(current) != serialize_graph(t.normal_form):
        raise CertificateFailure("trace normal form mismatch")
    if not t.normal_form.is_loop_star() or edge_count(t.normal_form) != t.n:
        raise CertificateFailure("normal form is not the loop-star of the right size")
    return True
