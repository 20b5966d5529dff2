"""Iterated cycle enlargement down to the loop-star normal form.

Each step moves the direct successor of the first cycle edge with a
non-empty tree onto the exceptional cycle, optionally attaching a full
tilting certificate plus a Cartan cross-check of the surgery against the
endomorphism ring.  The trace ends at a loop-star with the same number of
edges, which indexes the derived-equivalence class.

A graph's constructor is its validation, so only the graph a reduction
starts from is validated again.  No step eliminates a Cartan matrix.  The
input's determinant is det(M)^2, M the half-edge matrix with C = M M^T,
which the algebra's Cartan check proves (see ``algebra``).  A step's
det_end is det(S)^2 det(C), S the square class matrix of the enlarging
complex and C the source algebra's Cartan matrix (see ``homological``).
As det C = 4, the step's |det| check holds exactly when det(S)^2 = 1: the
classes of the complex's summands form a basis of K_0.  A moved graph whose
Cartan rows equal the endomorphism ring's, reordered to its vertices, has
that matrix up to a simultaneous permutation of rows and columns, which
keeps the determinant; so the moved graph's algebra takes that matrix, with
det_end, as its own, and the next step reads its det C from there.  A
reduction thus eliminates the input's M once and each step's S once, both
sparse and triangular up to a permutation.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from .algebra import omega_relations, quotient_basis
from .graph import (
    BrauerGraph,
    MalformedInput,
    _canonical_obj,
    edge_count,
    parse_graph,
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


def _algebra(g, cap, margin, field):
    return quotient_basis(omega_relations(build_quiver(g)), cap, margin, field)


def _certified_step(g, A, at, cap, margin, field):
    """Certify the move at ``at`` of g, whose algebra is A (built here when
    None): (moved graph, its algebra, certificate).  The algebra is carried
    to the next step, since a trace never returns to a graph."""
    if A is None:
        A = _algebra(g, cap, margin, field)
    Q = enlarge_complex(A, g, enlarge_data(g, at))
    cert = check_tilting(Q)
    moved = Q.target
    A2 = _algebra(moved, cap, margin, field)
    if set(A2.vertices) != set(cert.end_cartan.order):
        raise CertificateFailure(
            f"surgery edge mismatch at edge {at}: endomorphism ring and moved graph "
            "have different edges"
        )
    expected = cert.end_cartan.reorder(A2.vertices)
    # A2's rows hold its block counts, zero where a block is empty
    order = expected.order
    if A2._counts != {
        (i, j): c for i, row in zip(order, expected.rows) for j, c in zip(order, row) if c
    }:
        raise CertificateFailure(
            f"surgery Cartan mismatch at edge {at}: endomorphism ring and "
            "moved graph disagree"
        )
    # an equal matrix that carries det_end (see the module docstring)
    A2._cartan = expected
    if abs(cert.det_source) != abs(expected.det()):
        raise CertificateFailure(f"|det Cartan| changed at edge {at}")
    return moved, A2, cert


def reduce_to_normal_form(
    g: BrauerGraph, certify: bool = False, cap=None, margin=None, field=QQ
) -> ReductionTrace:
    validate(g)
    steps = []
    current, A = g, None
    while True:
        at = _pivot(current)
        if at is None:
            break
        if certify:
            moved, A, cert = _certified_step(current, A, at, cap, margin, field)
        else:
            moved, cert = enlarge_graph_move(current, enlarge_data(current, at)), None
        if edge_count(moved) != edge_count(current):
            raise CertificateFailure(f"edge count changed at edge {at}")
        steps.append(ReductionStep(current, moved, at, cert))
        current = moved
    if not current.is_loop_star():
        raise CertificateFailure("reduction did not end at a loop-star")
    return ReductionTrace(g, steps, current, edge_count(g))


def load_trace(payload) -> ReductionTrace:
    """Rebuild a trace from its ``to_json`` form, e.g. ``reduce --json`` output.

    Every graph is parsed, and so validated, again; a step's ``before`` is
    the previous step's ``after``.  Certificates stay JSON dicts, which
    ``certify_trace`` compares with the ones it recomputes.  A payload not
    shaped like that form raises ``MalformedInput``.
    """
    try:
        current = start = parse_graph(json.dumps(payload["input"]))
        n, raw = payload["n"], payload["steps"]
        if type(n) is not int or not isinstance(raw, list) or not all(
            isinstance(s, dict)
            and isinstance(s["at"], str)
            and isinstance(s["certificate"], (dict, type(None)))
            for s in raw
        ):
            raise MalformedInput(
                "not a reduction trace: 'n' must be an integer and 'steps' a list "
                "of objects, each with a string 'at' and an object or null 'certificate'"
            )
        steps = []
        for s in raw:
            after = parse_graph(json.dumps(s["after"]))
            steps.append(ReductionStep(current, after, s["at"], s["certificate"]))
            current = after
        normal_form = parse_graph(json.dumps(payload["normalForm"]))
        return ReductionTrace(start, steps, normal_form, n)
    except (KeyError, TypeError) as exc:
        raise MalformedInput(f"not a reduction trace ({type(exc).__name__}: {exc})") from None


def certify_trace(t: ReductionTrace, cap=None, margin=None, field=QQ) -> bool:
    """Re-validate a trace from scratch; raises CertificateFailure on step index.

    Each step is certified again from its graph alone, and a stored
    certificate must equal the recomputed one in its JSON form.
    """
    current, A = t.input, None
    validate(current)
    for idx, step in enumerate(t.steps):
        try:
            if step.before != current:
                raise CertificateFailure("trace steps do not chain")
            moved, A, cert = _certified_step(current, A, step.at, cap, margin, field)
            if moved != step.after:
                raise CertificateFailure(f"stored result of step differs at {step.at}")
            stored = _certificate_json(step.certificate)
            if stored is not None and stored != cert.to_json():
                raise CertificateFailure("stored certificate does not re-validate")
        except (CertificateFailure, EmptyTree) as exc:
            # a stored step that names an edge no move can take does not
            # match the recomputed trace: a certificate fault, not bad input
            raise CertificateFailure(f"step {idx}: {exc}") from None
        current = step.after
    if current != t.normal_form:
        raise CertificateFailure("trace normal form mismatch")
    if not t.normal_form.is_loop_star() or edge_count(t.normal_form) != t.n:
        raise CertificateFailure("normal form is not the loop-star of the right size")
    return True
