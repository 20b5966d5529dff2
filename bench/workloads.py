"""Seeded inputs, argv and output checks for the three benchmark workloads.

Every workload is a plan: a list of rounds, each round holding the
invocations for one input from every size stratum, in a seeded order.
Running the plan in order for a fixed time therefore sees nearly the same
mix of sizes whatever the seed, so medians compare across seeds and
commits.  No graph file repeats within a plan, and the loop imports the
package anew for every invocation (measure.py), so a memo kept across
invocations cannot give a gain that separate CLI processes would never see.

This module uses only the standard library; it never imports the program.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass


@dataclass
class Item:
    """One CLI invocation: argv (with ``{file}`` for the graph file) and checks."""

    key: str
    argv: list
    graph: str | None  # graph file text, or None when argv names no file
    file: str | None  # graph file name; items sharing it share the file
    check: object  # check(payload) -> error text or None
    units: int  # work units this invocation completes
    steps: int = 0  # certified reduction steps it performs
    stratum: int = 0  # index of its size stratum in the plan


# -- graph generators ----------------------------------------------------


def grow_graph(rng, n_edges, window=None):
    """Random one-loop graph as (vertex lists, number of cycle edges).

    Tree edges are attached one at a time at a random position of a host
    vertex; with ``window`` the host is one of the last ``window`` vertices
    created, which makes deep trees.  Without it this is the construction of
    ``random_one_loop_graph`` in the test suite.
    """
    r = rng.randint(2, min(4, n_edges))
    labels = [str(i) for i in range(1, n_edges + 1)]
    lists = {"S": ["1", "1"] + labels[1:r]}
    spots = []
    for i, e in enumerate(labels[1:r], start=1):
        lists[f"v{i}"] = [e]
        spots.append(f"v{i}")
    for e in labels[r:]:
        host = rng.choice(spots if window is None else spots[-window:])
        lists[host].insert(rng.randrange(1, len(lists[host]) + 1), e)
        lists[f"v{e}"] = [e]
        spots.append(f"v{e}")
    return lists, r


def chain_graph(rng, depth, twigs):
    """A spine of ``depth`` tree edges off a random cycle edge, plus twigs.

    Each twig is one extra tree edge at a random spine vertex and side, so
    chains of one depth stay distinct across a run.
    """
    r = rng.randint(2, 4)
    labels = [str(i) for i in range(1, r + depth + twigs + 1)]
    lists = {"S": ["1", "1"] + labels[1:r]}
    for i, e in enumerate(labels[1:r], start=1):
        lists[f"v{i}"] = [e]
    host = f"v{rng.randint(1, r - 1)}"
    spine = []
    for e in labels[r : r + depth]:
        lists[host].append(e)
        host = f"v{e}"
        lists[host] = [e]
        spine.append(host)
    for e in labels[r + depth :]:
        at = rng.choice(spine[:-1] or spine)
        lists[at].insert(rng.randrange(1, len(lists[at]) + 1), e)
        lists[f"v{e}"] = [e]
    return lists, r


def graph_text(lists):
    return json.dumps(
        {"vertices": [{"id": v, "cyclic": c} for v, c in lists.items()]},
        separators=(",", ":"),
    )


def _distinct(make, seen, attempts=50):
    """Call make() until it returns a graph text not yet in ``seen``."""
    for _ in range(attempts):
        lists, r = make()
        text = graph_text(lists)
        if text not in seen:
            seen.add(text)
            return lists, r, text
    raise RuntimeError("input generator keeps repeating graphs; widen the family")


# -- output checks -------------------------------------------------------


def _check_certificate(cert, where):
    bad = {k: v for k, v in cert["homVanishing"].items() if v != 0}
    if bad:
        return f"{where}: nonzero homotopy Hom {bad}"
    if abs(cert["detSource"]) != abs(cert["detEnd"]):
        return f"{where}: |det| {cert['detSource']} vs {cert['detEnd']}"
    return None


def _is_loop_star(obj, n):
    """True when one vertex carries every edge, the loop "1" twice, and the
    rest are leaves."""
    lists = [v["cyclic"] for v in obj["vertices"]]
    centre = [c for c in lists if len(c) > 1]
    if len(centre) != 1 or len(centre[0]) != n + 1 or centre[0].count("1") != 2:
        return False
    return len(set(centre[0])) == n and all(len(c) == 1 for c in lists if c is not centre[0])


def check_reduce(n, steps):
    def check(p):
        if p.get("n") != n:
            return f"n is {p.get('n')}, expected {n}"
        if len(p["steps"]) != steps:
            return f"{len(p['steps'])} steps, expected {steps}"
        if not _is_loop_star(p["normalForm"], n):
            return "normal form is not a loop-star"
        for i, s in enumerate(p["steps"]):
            if s["certificate"] is None:
                return f"step {i} has no certificate"
            err = _check_certificate(s["certificate"], f"step {i}")
            if err:
                return err
        return None

    return check


def check_shrink(n):
    def check(p):
        if len(p["ordering"]) != n:
            return f"{len(p['ordering'])} summands, expected {n}"
        if p.get("endGenerators") != "ok":
            return "endGenerators is not ok"
        if len(p["certificate"]["generation"]) != n:
            return "generation witnesses do not cover every summand"
        return _check_certificate(p["certificate"], "certificate")

    return check


def _check_cartan(c, n):
    """The loop-star algebra on n edges has dimension n(n+3) and |det| 4."""
    if len(c["order"]) != n:
        return f"cartan order has {len(c['order'])} vertices, expected {n}"
    if c["dim"] != n * (n + 3) or sum(map(sum, c["matrix"])) != c["dim"]:
        return f"dim {c['dim']}, expected {n * (n + 3)}"
    if abs(c["det"]) != 4:
        return f"|det| is {abs(c['det'])}, expected 4"
    return None


def check_omega(n):
    return lambda p: _check_cartan(p, n)


def check_an(n):
    def check(p):
        if p.get("n") != n or p.get("kind") != "an":
            return "not the an(N) report for this N"
        if p.get("socleQuotientsEqual") is not True:
            return "socle quotients differ"
        return _check_cartan(p["cartan"], n)

    return check


# -- plans ---------------------------------------------------------------


def _rounds(rng, strata, rounds, make):
    """``rounds`` rounds of one item per stratum, shuffled within each round."""
    plan = []
    for k in range(rounds):
        order = list(enumerate(strata))
        rng.shuffle(order)
        items = []
        for index, s in order:
            for item in make(s, k):
                item.stratum = index
                items.append(item)
        plan.append(items)
    return plan


def reduce_random(seed, sizes=range(10, 15), rounds=100):
    """``reduce FILE --certify --json`` on random graphs, one per edge count."""
    rng = random.Random(seed)
    seen = set()

    def make(n, k):
        lists, r, text = _distinct(lambda: grow_graph(rng, n), seen)
        steps = n - r
        return [
            Item(f"reduce-n{n}-{k}", ["reduce", "{file}", "--certify", "--json"], text,
                 f"n{n}-{k}", check_reduce(n, steps), units=steps, steps=steps)
        ]

    return _rounds(rng, sizes, rounds, make)


def shrink_deep(seed, depths=(11, 13), trees=(18, 21), rounds=100):
    """``tilt-shrink FILE --json`` over Q and GF(2) on chains and deep trees."""
    rng = random.Random(seed)
    seen = set()
    strata = [("chain", d) for d in depths] + [("deep", n) for n in trees]

    def make(stratum, k):
        kind, size = stratum
        if kind == "chain":
            lists, _, text = _distinct(
                lambda: chain_graph(rng, size, rng.randint(0, 2)), seen
            )
        else:
            lists, _, text = _distinct(lambda: grow_graph(rng, size, window=3), seen)
        n = sum(len(c) for c in lists.values()) // 2
        base = ["tilt-shrink", "{file}", "--json"]
        return [
            Item(f"{kind}{size}-{k}-{field}", base + extra, text, f"{kind}{size}-{k}",
                 check_shrink(n), units=n)
            for field, extra in (("q", []), ("gf2", ["--field", "2"]))
        ]

    return _rounds(rng, strata, rounds, make)


def _blocks(lo, hi, count):
    """Split lo..hi into ``count`` contiguous blocks of equal length."""
    size = (hi - lo + 1) // count
    return [range(lo + b * size, lo + (b + 1) * size) for b in range(count)]


def basis_star(seed, omega=(36, 59, 4), an=(9, 14, 2), rounds=100):
    """``cartan --omega N`` and ``an N --compare-socle`` on seeded N.

    Every round takes one N from each block of each range, so the size mix
    stays fixed however far the run gets.  An N may recur in a later round;
    the fresh import per invocation keeps that from helping.
    """
    rng = random.Random(seed)
    strata = [("omega", b) for b in _blocks(*omega)] + [("an", b) for b in _blocks(*an)]

    def make(stratum, k):
        kind, block = stratum
        n = rng.choice(block)
        if kind == "omega":
            return [Item(f"omega{n}-{k}", ["cartan", "--omega", str(n), "--json"], None, None,
                         check_omega(n), units=n * (n + 3))]
        # both the A(n) and the Omega(n) algebra are built, each of dim n(n+3)
        return [Item(f"an{n}-{k}", ["an", str(n), "--compare-socle", "--json"], None, None,
                     check_an(n), units=2 * n * (n + 3))]

    return _rounds(rng, strata, rounds, make)


WORKLOADS = {
    "reduce-random": reduce_random,
    "shrink-deep": shrink_deep,
    "basis-star": basis_star,
}

# Small sizes for the smoke test: every workload, a few invocations each.
TINY = {
    "reduce-random": dict(sizes=range(4, 7), rounds=2),
    "shrink-deep": dict(depths=(3, 4), trees=(5,), rounds=1),
    "basis-star": dict(omega=(2, 5, 2), an=(2, 3, 1), rounds=2),
}
