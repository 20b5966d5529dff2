"""The normal-word basis rests on one confluent completion.

``quotient_basis`` completes the relations at cap + margin and, while
``rewriting.complete`` reports a discarded overlap, grows the bound by one up
to max(cap + margin, 2 * cap).  A spy on ``complete`` checks that every
returned algebra came from an untruncated completion, that a completion that
never stops truncating fails closed with ``NotStabilized``, and that default
bounds take one untruncated completion at the sizes the benchmarks run.
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
    complete = algebra.rewriting.complete

    def spy(relations, source, target, field, maxlen):
        rs, truncated = complete(relations, source, target, field, maxlen)
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
    """On a grid of explicit bounds, each success took completions at
    cap + margin, cap + margin + 1, ... of which only the last is untruncated,
    and has the blocks of the default-bounds algebra; every other point
    raises ``NotStabilized``.  The grid reaches all three outcomes."""
    p = _presentation(GRID_GRAPHS[name])
    expected = quotient_basis(p, field=field).blocks
    outcomes = Counter()
    for cap in range(1, 13):
        for margin in range(5):
            completions.clear()
            try:
                A = quotient_basis(p, cap=cap, margin=margin, field=field)
            except NotStabilized:
                outcomes["not stabilized"] += 1
                continue
            start = cap + margin
            assert completions == [(start + k, True) for k in range(len(completions) - 1)] + [
                (start + len(completions) - 1, False)
            ], (cap, margin)
            assert A.blocks == expected, (cap, margin)
            outcomes["grown" if len(completions) > 1 else "first"] += 1
    assert set(outcomes) >= {"not stabilized", "grown"}, outcomes


def test_a_completion_that_stays_truncated_fails_closed(monkeypatch, capsys):
    """If every completion reports a discarded overlap, the bound grows to
    its ceiling, max(cap + margin, 2 * cap), and no algebra is returned."""
    bounds = []
    complete = algebra.rewriting.complete

    def always_truncated(relations, source, target, field, maxlen):
        bounds.append(maxlen)
        return complete(relations, source, target, field, maxlen)[0], True

    monkeypatch.setattr(algebra.rewriting, "complete", always_truncated)
    p = _presentation(loop_star(3))
    cap, margin = _default_bounds(p.quiver)
    with pytest.raises(NotStabilized, match="completion truncated"):
        quotient_basis(p)
    assert bounds == list(range(cap + margin, 2 * cap + 1))
    bounds.clear()
    with pytest.raises(NotStabilized, match="completion truncated"):
        quotient_basis(p, cap=3, margin=5)  # the ceiling is the first bound
    assert bounds == [8]
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
    assert completions == [(cap + margin, False)]
