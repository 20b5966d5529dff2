"""The Hom solver against the oracle solver in conftest, at benchmark sizes.

The complexes are the shrink complexes of chains of depth 11 and 13 with
twigs and of deep trees with 18 and 21 edges (the shrink-deep shapes), and
the enlarge complexes along seeded reduce traces of 10, 12 and 14 edges (the
reduce-random sizes), each over Q, GF(2), GF(3) and GF(1000003).  For every
shift that ``check_tilting`` visits, and for shift 0, the solver and the
oracle must agree on the number of variables and on both ranks, not only on
the dimension.  Over GF(2), ``BitEchelon`` must reach ``SparseEchelon``'s
ranks on the solver's rows and homotopy columns.  Over Q, the mod-2 screen
must prove every nonzero shift's Hom 0 and must not prove shift 0's.  Every
``is_null_homotopic`` question that ``verify_end_generators`` asks must get
the oracle's answer, and a relation between a summand and itself plus that
summand's identity, which is not null-homotopic, must stay so.  Over Q and
GF(2), at each of these shifts, the rows and the columns of each degree
that the solver lays out as bits must be, sorted and without zeros, the
reference packing in conftest of the dict rows and columns it lays out for
``SparseEchelon``.  All of this runs over Q and GF(2) on the shrink
complex of a deep tree with 40 edges too.  On every
summand pair, the solver for C -> D[r], which folds the sign of D[r] into
D's products, must build the very rows and homotopy span of a solver for
C -> ``shift(D, r)``, the shifted copy that conftest builds.
"""
import random

import pytest

from brauer_derive import tilting
from brauer_derive.algebra import omega_relations, quotient_basis
from brauer_derive.graph import parse_graph
from brauer_derive.homological import (
    _HomSolver,
    _vanishes_mod_2,
    homotopy_hom,
    is_null_homotopic,
)
from brauer_derive.linalg import QQ, BitEchelon, PrimeField, SparseEchelon
from brauer_derive.quiver import build_quiver
from brauer_derive.reduction import reduce_to_normal_form
from brauer_derive.tilting import (
    enlarge_complex,
    enlarge_data,
    shrink_complex,
    verify_end_generators,
)

from conftest import (
    OracleHomSolver,
    gf2_bits,
    identity,
    oracle_is_null_homotopic,
    parity_bits,
    shift,
    solver_ranks,
)
from test_random_graphs import random_one_loop_graph
from test_scale import chain_with_twigs, deep_tree

FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(1000003)]

SHRINK = {
    "chain11_twigs": chain_with_twigs(11, twigs=(1, 6)),
    "chain13_twigs": chain_with_twigs(13, twigs=(2, 7)),
    "deep18": deep_tree(18, seed=5),
    "deep21": deep_tree(21, seed=3),
}

# (seed, edges) of the random graphs whose reduce traces give enlarge complexes
TRACES = [(11, 10), (12, 12), (13, 14)]


def echelon_ranks(total, r, echelon):
    """Ranks of the solver's commutation rows and of all its homotopy
    columns, each fed into a fresh ``echelon()``."""
    solver = _HomSolver(total, total, r)
    rows = echelon()
    for n in total.terms:
        rows.extend(solver.constraint_rows(n, rows.bits))
    return rows.rank, solver.homotopy_span(echelon()).rank


def assert_layouts_agree(total, r):
    """The bit rows and bit columns of the solver for total -> total[r],
    degree by degree, zeros dropped and sorted, against the reference
    packing (parity over Q, nonzero over GF(2)) of its dict vectors.
    Returns how many nonzero rows and columns were compared."""
    pack = parity_bits if total.algebra.field == QQ else gf2_bits
    solver = _HomSolver(total, total, r)
    compared = 0
    for n in total.terms:
        for vectors in (solver.constraint_rows, solver.homotopy_columns):
            bits = sorted(b for b in vectors(n, True) if b)
            assert bits == sorted(b for b in map(pack, vectors(n)) if b), (r, n)
            compared += len(bits)
    return compared


def assert_agrees_with_oracle(Q, monkeypatch):
    """Ranks at every shift ``check_tilting`` visits and at 0, the answers
    ``verify_end_generators`` gets, and the mutant relations."""
    total = Q.direct_sum()
    width = total.width
    for r in range(-width - 1, width + 2):
        ranks = solver_ranks(_HomSolver, total, total, r)
        assert ranks == solver_ranks(OracleHomSolver, total, total, r), r
        nvars, rows, span = ranks
        assert homotopy_hom(total, total, r) == nvars - rows - span
        assert (nvars - rows - span > 0) == (r == 0), r
        field = total.algebra.field
        if field == PrimeField(2):
            assert echelon_ranks(total, r, BitEchelon) == echelon_ranks(
                total, r, lambda: SparseEchelon(field.one)
            ), r
        elif field == QQ:
            assert _vanishes_mod_2(_HomSolver(total, total, r)) == (r != 0), r
        if field in (QQ, PrimeField(2)):
            assert assert_layouts_agree(total, r) or not nvars, r
    asked = []

    def both(f):
        got = is_null_homotopic(f)
        assert got == oracle_is_null_homotopic(f)
        asked.append(f)
        return got

    monkeypatch.setattr(tilting, "is_null_homotopic", both)
    assert verify_end_generators(Q)
    mutants = [f + identity(f.source) for f in asked if f.source is f.target]
    assert asked and mutants
    for g in mutants:
        assert not is_null_homotopic(g) and not oracle_is_null_homotopic(g)


@pytest.mark.slow
@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("name", sorted(SHRINK))
def test_shrink_solver_matches_oracle(name, field, monkeypatch):
    g = parse_graph(SHRINK[name])
    A = quotient_basis(omega_relations(build_quiver(g)), field=field)
    assert_agrees_with_oracle(shrink_complex(A, g), monkeypatch)


@pytest.mark.slow
@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("seed,edges", TRACES)
def test_enlarge_solver_matches_oracle(seed, edges, field, monkeypatch):
    g = random_one_loop_graph(random.Random(seed), edges)
    steps = reduce_to_normal_form(g).steps
    assert steps
    for step in steps:
        A = quotient_basis(omega_relations(build_quiver(step.before)), field=field)
        Q = enlarge_complex(A, step.before, enlarge_data(step.before, step.at))
        assert_agrees_with_oracle(Q, monkeypatch)


@pytest.mark.slow
@pytest.mark.parametrize("field", [QQ, PrimeField(2)], ids=repr)
def test_deep40_solver_matches_oracle(field, monkeypatch):
    """The deepest shrink complex tested, twice the depth of the benchmark's
    deepest, on the fields whose Hom systems are laid out as bits."""
    g = parse_graph(deep_tree(40, seed=3))
    A = quotient_basis(omega_relations(build_quiver(g)), field=field)
    assert_agrees_with_oracle(shrink_complex(A, g), monkeypatch)


@pytest.mark.slow
@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=repr)
@pytest.mark.parametrize("name", ["deep21", "chain13_twigs", "enlarge14"])
def test_folded_sign_matches_the_shifted_complex(name, field):
    """The solver for C -> D[r] reads D at n + r and folds (-1)^r into D's
    products.  On every summand pair and r = -2..2 it must build the very
    rows and homotopy span that a solver for C -> shift(D, r) builds, and
    give the same dimension.  The dimensions alone could not catch a dropped
    sign: D with its differential negated is isomorphic to D."""
    if name in SHRINK:
        g = parse_graph(SHRINK[name])
    else:  # the first step of the 14-edge trace
        seed, edges = TRACES[-1]
        step = reduce_to_normal_form(random_one_loop_graph(random.Random(seed), edges)).steps[0]
        g = step.before
    A = quotient_basis(omega_relations(build_quiver(g)), field=field)
    Q = shrink_complex(A, g) if name in SHRINK else enlarge_complex(A, g, enlarge_data(g, step.at))
    nonzero = 0
    for C in Q.summands.values():
        for D in Q.summands.values():
            for r in range(-2, 3):
                dim = homotopy_hom(C, D, r)
                assert dim == homotopy_hom(C, shift(D, r), 0), r
                nonzero += dim > 0
                folded, shifted = _HomSolver(C, D, r), _HomSolver(C, shift(D, r))
                assert folded.nvars == shifted.nvars
                for n in C.terms:
                    assert folded.constraint_rows(n) == shifted.constraint_rows(n), (r, n)
                assert folded.homotopy_span().pivots == shifted.homotopy_span().pivots, r
    assert nonzero


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3)], ids=repr)
@pytest.mark.parametrize("name", ["deep21", "enlarge13"])
def test_homotopy_span_only_where_chain_maps_exist(name, field, monkeypatch):
    """Every null-homotopic map is a chain map, so ``homotopy_hom`` builds
    the homotopy span only at the shifts whose chain-map space, counted here
    by the oracle as variables less the rank of the commutation rows, is
    nonzero.  At r = -1 these complexes have variables but no chain maps.
    This holds in both layouts: the span is built as bits over GF(2) and by
    the mod-2 screen over Q, which decides every shift here, and as dicts
    over GF(3)."""
    if name in SHRINK:
        g = parse_graph(SHRINK[name])
        A = quotient_basis(omega_relations(build_quiver(g)), field=field)
        Q = shrink_complex(A, g)
    else:  # the first step of a seeded 13-edge trace
        step = reduce_to_normal_form(random_one_loop_graph(random.Random(13), 13)).steps[0]
        A = quotient_basis(omega_relations(build_quiver(step.before)), field=field)
        Q = enlarge_complex(A, step.before, enlarge_data(step.before, step.at))
    total = Q.direct_sum()
    width = total.width
    with_variables = with_chain_maps = 0
    for r in range(-width - 1, width + 2):
        if r:
            nvars, rows, _ = solver_ranks(OracleHomSolver, total, total, r)
            with_variables += nvars > 0
            with_chain_maps += nvars > rows
    built = []
    homotopy_span = _HomSolver.homotopy_span
    monkeypatch.setattr(
        _HomSolver, "homotopy_span",
        lambda self, span: built.append(span.bits) or homotopy_span(self, span),
    )
    tilting.check_tilting(Q)
    assert len(built) == with_chain_maps < with_variables
    assert set(built) == {field != PrimeField(3)}
