"""The normal-word basis rests on one confluent completion.

``quotient_basis`` completes the relations once, at max(cap + margin,
2 * cap), and raises ``NotStabilized`` if ``rewriting.complete`` reports a
discarded overlap.  That decides as well as growing the bound from
cap + margin would: a completion untruncated at some bound is untruncated,
with the same rules, at every larger one.  A spy on ``complete`` checks that
every returned algebra came from one untruncated completion at that bound,
that a truncated completion fails closed, and that default bounds take one
untruncated completion at the sizes the benchmarks run.
"""
import random
from collections import Counter

import pytest

from brauer_derive import algebra
from brauer_derive.algebra import (
    NotStabilized,
    _default_bounds,
    a_n_presentation,
    omega_relations,
    quotient_basis,
)
from brauer_derive.cli import EXIT_NOT_STABILIZED, run
from brauer_derive.graph import loop_star, parse_graph
from brauer_derive.linalg import QQ, PrimeField
from brauer_derive.quiver import build_quiver
from brauer_derive.rewriting import complete

from conftest import corpus_graphs
from test_random_graphs import random_one_loop_graph
from test_scale import chain_with_twigs

FIELDS = pytest.mark.parametrize("field", [QQ, PrimeField(2)], ids=["Q", "GF2"])


def _presentation(g):
    return omega_relations(build_quiver(g))


@pytest.fixture
def completions(monkeypatch):
    """(bound, truncated) of every ``rewriting.complete`` call, in order."""
    calls = []

    def spy(relations, field, maxlen):
        rs, truncated = complete(relations, field, maxlen)
        calls.append((maxlen, truncated))
        return rs, truncated

    monkeypatch.setattr(algebra.rewriting, "complete", spy)
    return calls


GRID_GRAPHS = {
    **corpus_graphs(),
    **{f"random{n}": random_one_loop_graph(random.Random(n), n) for n in (4, 6, 9)},
}


@FIELDS
@pytest.mark.parametrize("name", sorted(GRID_GRAPHS))
def test_every_basis_rests_on_an_untruncated_completion(name, field, completions):
    """On a grid of explicit bounds, every point takes one completion, at
    max(cap + margin, 2 * cap); each success took an untruncated one and has
    the blocks of the default-bounds algebra, and every other point raises
    ``NotStabilized``.  The grid reaches successes where a completion at
    cap + margin alone is truncated."""
    p = _presentation(GRID_GRAPHS[name])
    expected = quotient_basis(p, field=field).blocks
    combos = algebra._relation_combos(p, field)
    outcomes = Counter()
    for cap in range(1, 13):
        for margin in range(-2, 5):
            bound = max(cap + margin, 2 * cap)
            completions.clear()
            try:
                A = quotient_basis(p, cap=cap, margin=margin, field=field)
            except NotStabilized:
                assert [b for b, _ in completions] == [bound], (cap, margin)
                outcomes["not stabilized"] += 1
                continue
            assert completions == [(bound, False)], (cap, margin)
            assert A.blocks == expected, (cap, margin)
            _, truncated = complete(combos, field, cap + margin)
            outcomes["truncated at cap + margin" if truncated else "untruncated"] += 1
    assert set(outcomes) >= {"not stabilized", "truncated at cap + margin"}, outcomes


@FIELDS
@pytest.mark.parametrize("name", sorted(GRID_GRAPHS))
def test_untruncated_completion_stays_so_at_every_larger_bound(name, field):
    """Once some bound leaves ``complete`` untruncated, every larger bound up
    to 2 * cap does too, with the same rules in the same order, so one
    completion at the ceiling decides what any search over the bounds would."""
    p = _presentation(GRID_GRAPHS[name])
    cap, _ = _default_bounds(p.quiver)
    combos = algebra._relation_combos(p, field)
    first = None
    for bound in range(1, 2 * cap + 1):
        rs, truncated = complete(combos, field, bound)
        if first is None and not truncated:
            first = list(rs.rules.items())
        elif first is not None:
            assert not truncated, bound
            assert list(rs.rules.items()) == first, bound
    assert first is not None


def test_a_completion_that_stays_truncated_fails_closed(monkeypatch, capsys):
    """A completion that reports a discarded overlap is taken once, at the
    ceiling max(cap + margin, 2 * cap), and no algebra is returned; a margin
    far below cap costs no more completions."""
    bounds = []

    def always_truncated(relations, field, maxlen):
        bounds.append(maxlen)
        return complete(relations, field, maxlen)[0], True

    monkeypatch.setattr(algebra.rewriting, "complete", always_truncated)
    p = _presentation(loop_star(3))
    cap, _ = _default_bounds(p.quiver)
    for kwargs, ceiling in (({}, 2 * cap), ({"cap": 3, "margin": 5}, 8),
                            ({"cap": 3, "margin": -20000}, 6)):
        bounds.clear()
        with pytest.raises(NotStabilized, match=f"completion truncated up to length {ceiling};"):
            quotient_basis(p, **kwargs)
        assert bounds == [ceiling], kwargs
    assert run(["cartan", "--omega", "3"]) == EXIT_NOT_STABILIZED
    assert "NotStabilized: completion truncated" in capsys.readouterr().err


BENCHMARK_SIZED = {
    "omega59": lambda: _presentation(loop_star(59)),
    "an14": lambda: a_n_presentation(14),
    "chain11": lambda: _presentation(parse_graph(chain_with_twigs(11, ()))),
    "chain13_twigs": lambda: _presentation(parse_graph(chain_with_twigs(13, (2, 7)))),
    **{
        f"random{n}_{seed}": (
            lambda n=n, seed=seed: _presentation(
                random_one_loop_graph(random.Random(100 * n + seed), n)
            )
        )
        for n in range(10, 15)
        for seed in (1, 2)
    },
}


@FIELDS
@pytest.mark.parametrize("name", sorted(BENCHMARK_SIZED))
def test_default_bounds_take_one_untruncated_completion(name, field, completions):
    p = BENCHMARK_SIZED[name]()
    cap, margin = _default_bounds(p.quiver)
    quotient_basis(p, field=field)
    assert completions == [(max(cap + margin, 2 * cap), False)]
