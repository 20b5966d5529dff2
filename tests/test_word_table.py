"""The basis word table is built only when it is read.

``quotient_basis`` counts the normal words of each block in one pass over
the levels of ``rewriting.normal_words``; ``dim``, ``cartan`` and the
half-edge Cartan certificate read those counts, and ``blocks`` (the words of
every block) is built on first read.  The tests check that the Cartan paths
never build it, that a table built on read is the one the engine used to
build eagerly from (source, word) pairs, and that the levels still add up
to the dimension, which the benchmark's word counter reads.
"""
from itertools import product

import pytest

from brauer_derive import algebra, cli, reduction
from brauer_derive.algebra import omega_relations, quotient_basis, socle_quotient
from brauer_derive.cli import EXIT_OK, run
from brauer_derive.graph import loop_star
from brauer_derive.linalg import QQ, PrimeField
from brauer_derive.quiver import build_quiver

from conftest import CORPUS_TEXTS, corpus_graphs

FIELDS = pytest.mark.parametrize("field", [QQ, PrimeField(2)], ids=["Q", "GF2"])
CORPUS = corpus_graphs()


def reference_blocks(A):
    """The word table as the engine used to build it eagerly: the normal
    words as (source, word) pairs, extended a length at a time from the
    trivial path at each vertex, then grouped by block."""
    q, rs = A.quiver, A._rsys
    by_source = {}
    for a, arrow in enumerate(q.arrows):
        by_source.setdefault(arrow.source, []).append(a)
    level, found = [(v, ()) for v in q.vertices], {}
    while level:
        nxt = []
        for source, word in level:
            at = q.target[word[-1]] if word else source
            if (source, word) not in A.dropped:
                found.setdefault((source, at), []).append(word)
            for a in by_source.get(at, ()):
                if rs.lead_suffix(word + (a,)) is None:
                    nxt.append((source, word + (a,)))
        level = nxt
    blocks = dict.fromkeys(product(q.vertices, repeat=2), ())
    blocks.update((key, tuple(words)) for key, words in found.items())
    return blocks


@pytest.fixture
def built(monkeypatch):
    """Every algebra ``quotient_basis`` returns to the CLI or the reduction
    loop, in order."""
    algebras = []

    def spy(*args, **kwargs):
        algebras.append(quotient_basis(*args, **kwargs))
        return algebras[-1]

    monkeypatch.setattr(cli, "quotient_basis", spy)
    monkeypatch.setattr(reduction, "quotient_basis", spy)
    return algebras


@FIELDS
def test_dim_and_cartan_leave_the_table_unbuilt(field):
    A = quotient_basis(omega_relations(build_quiver(loop_star(9))), field=field)
    assert A.dim == 9 * 12
    assert A.cartan().det() == 4
    assert "blocks" not in A.__dict__
    assert sum(len(words) for words in A.blocks.values()) == A.dim


@pytest.mark.parametrize(
    "argv",
    [["cartan", "--omega", "9", "--json"], ["cartan", "--an", "5"], ["omega", "9"], ["an", "9"]],
)
def test_cartan_commands_leave_the_table_unbuilt(argv, built, capsys):
    assert run(argv) == EXIT_OK
    capsys.readouterr()
    assert len(built) == 1 and "blocks" not in built[0].__dict__


def test_socle_comparison_builds_the_tables_it_compares(built, capsys):
    assert run(["an", "5", "--compare-socle"]) == EXIT_OK
    assert "socle quotients equal: true" in capsys.readouterr().out
    assert len(built) == 2 and all("blocks" in A.__dict__ for A in built)


def test_last_algebra_of_a_reduction_leaves_the_table_unbuilt(built, tmp_path, capsys):
    path = tmp_path / "mixed7.json"
    path.write_text(CORPUS_TEXTS["mixed7"], encoding="utf-8")
    assert run(["reduce", str(path), "--certify", "--json"]) == EXIT_OK
    capsys.readouterr()
    # the source algebra of every step builds its table for the tilting
    # complex; the last step's target algebra only has its Cartan matrix read
    assert len(built) > 2
    assert all("blocks" in A.__dict__ for A in built[:-1])
    assert "blocks" not in built[-1].__dict__


@FIELDS
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_table_built_on_read_is_the_eager_one(name, field):
    A = quotient_basis(omega_relations(build_quiver(CORPUS[name])), field=field)
    expected = reference_blocks(A)
    assert repr(A.blocks) == repr(expected)
    assert A.cartan().rows == tuple(
        tuple(len(expected[(i, j)]) for j in A.vertices) for i in A.vertices
    )
    S = socle_quotient(A)
    assert S.dropped and repr(S.blocks) == repr(reference_blocks(S))
    assert S.dim == sum(len(words) for words in S.blocks.values()) == A.dim - len(S.dropped)


@FIELDS
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_levels_add_up_to_the_dimension(name, field, monkeypatch):
    """The benchmark counts sum(len(level)) of ``normal_words`` as the words
    of an algebra; level 0 holds one entry per vertex, the trivial paths."""
    levels = []
    normal_words = algebra.rewriting.normal_words

    def spy(rs, vertices, arrows_by_source, target, maxlen):
        levels.append(normal_words(rs, vertices, arrows_by_source, target, maxlen))
        return levels[-1]

    monkeypatch.setattr(algebra.rewriting, "normal_words", spy)
    A = quotient_basis(omega_relations(build_quiver(CORPUS[name])), field=field)
    (found,) = levels
    assert found[0] == list(A.vertices)
    assert all(len(word) == k for k, level in enumerate(found[1:], 1) for word in level)
    assert sum(len(level) for level in found) == A.dim
