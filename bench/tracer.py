"""Outside-in tracing of brauer_derive's public functions.

The tracer wraps public functions where the package's modules look them up
(module globals, plus ``QuotientAlgebra.multiply``), so the program's source
is not touched.  The wrappers are planned anew for every traced
invocation, because the package is imported anew for each one.  Each call
records a span (name, start, end, parent span,
invocation id) in compact in-memory arrays, and adds to per-invocation
calls, self time and counters.  Self time is a span's duration minus the
time of the wrapped spans directly inside it.  ``install`` and
``uninstall`` swap the wrappers in and out, so untraced invocations run the
package exactly as imported.
"""
from __future__ import annotations

import csv
import functools
import gzip
import sys
from array import array
from time import perf_counter

ROOT = "cli"

# (module, attribute) of every traced function; spans are named module.attribute
TRACED = [
    ("rewriting", "complete"),
    ("rewriting", "normal_words"),
    ("algebra", "quotient_basis"),
    ("algebra", "socle_quotient"),
    ("algebra", "presentations_equal_on_basis"),
    ("linalg", "det_int"),
    ("quiver", "build_quiver"),
    ("homological", "homotopy_hom"),
    ("homological", "happel_cartan"),
    ("homological", "minimize"),
    ("homological", "is_null_homotopic"),
    ("homological", "check_complex"),
    ("tilting", "check_tilting"),
    ("tilting", "verify_end_generators"),
    ("tilting", "end_cartan"),
    ("reduction", "reduce_to_normal_form"),
    ("reduction", "certify_trace"),
    ("graph", "parse_graph"),
    ("graph", "validate"),
    ("graph", "serialize_graph"),
    ("graph", "edge_count"),
    ("graph", "loop_star"),
]


# -- counters taken from a traced call's arguments and result -------------


def _count_rules(c, args, kwargs, result):
    c["rewriting.rules"] = c.get("rewriting.rules", 0) + len(result[0].rules)


def _count_words(c, args, kwargs, result):
    c["rewriting.normal_words.words"] = (
        c.get("rewriting.normal_words.words", 0) + sum(len(level) for level in result)
    )


def _count_hom(c, args, kwargs, result):
    C, D = args[0], args[1]
    r = args[2] if len(args) > 2 else kwargs.get("shift_by", 0)
    cdeg = set(C.degrees())
    # (D[r])^n = D^(n+r), so D[r] sits in degrees n - r
    if any(n - r in cdeg for n in D.degrees()):
        c["homological.homotopy_hom.overlaps"] = c.get("homological.homotopy_hom.overlaps", 0) + 1
    c["homological.homotopy_hom.max_summands"] = max(
        c.get("homological.homotopy_hom.max_summands", 0),
        C.total_summands(),
        D.total_summands(),
    )


def _count_det(c, args, kwargs, result):
    rows = args[0]
    c.setdefault("det_keys", set()).add(tuple(map(tuple, rows)))
    c["linalg.det_int.max_n"] = max(c.get("linalg.det_int.max_n", 0), len(rows))


def _count_algebra(c, args, kwargs, result):
    p = args[0]
    q = p.quiver
    key = (
        tuple((a.name, a.source, a.target) for a in q.arrows),
        tuple(str(rel) for rel in p.relations),
        args[1:],
        tuple(sorted(kwargs.items())),
    )
    c.setdefault("algebra_keys", set()).add(repr(key))


def _count_minimize(c, args, kwargs, result):
    # each cancellation removes one summand from two adjacent degrees
    removed = args[0].total_summands() - result.total_summands()
    c["homological.minimize.cancelled"] = c.get("homological.minimize.cancelled", 0) + removed // 2


COUNTERS = {
    "rewriting.complete": _count_rules,
    "rewriting.normal_words": _count_words,
    "homological.homotopy_hom": _count_hom,
    "linalg.det_int": _count_det,
    "algebra.quotient_basis": _count_algebra,
    "homological.minimize": _count_minimize,
}


class Tracer:
    def __init__(self):
        self.names = [ROOT]
        self.ids = {ROOT: 0}
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_inv = array("L")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []  # [span index, time covered by child spans]
        self.invocation = 0
        self.calls = []
        self.self_s = []
        self.counters = {}
        self._patches = []

    # -- spans -------------------------------------------------------------

    def _enter(self, nid):
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1][0] if self.stack else -1)
        self.span_inv.append(self.invocation)
        self.span_end.append(0.0)
        self.stack.append([idx, 0.0])
        self.span_start.append(perf_counter())

    def _exit(self):
        end = perf_counter()
        idx, children = self.stack.pop()
        self.span_end[idx] = end
        duration = end - self.span_start[idx]
        if self.stack:
            self.stack[-1][1] += duration
        nid = self.span_name[idx]
        self.calls[nid] += 1
        self.self_s[nid] += duration - children

    def _wrap(self, name, fn):
        nid = self.ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if count is not None:
                count(self.counters, args, kwargs, result)
            return result

        return traced

    def _plan(self):
        """Every (owner, attribute, original, wrapper) to swap on install."""
        mods = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "brauer_derive" or name.startswith("brauer_derive.")
        }
        patches = []
        for mod_name, attr in TRACED:
            original = getattr(mods[f"brauer_derive.{mod_name}"], attr)
            wrapper = self._wrap(f"{mod_name}.{attr}", original)
            for mod in mods.values():
                if getattr(mod, attr, None) is original:
                    patches.append((mod, attr, original, wrapper))
        algebra = mods["brauer_derive.algebra"]
        cls = algebra.QuotientAlgebra
        patches.append((cls, "multiply", cls.multiply, self._wrap("algebra.multiply", cls.multiply)))
        return patches

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # -- invocations -------------------------------------------------------

    def begin(self, invocation):
        """Start traced invocation number ``invocation``; its root span is ``cli``."""
        self.invocation = invocation
        self._patches = self._plan()
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.counters = {}
        self.install()
        self._enter(0)

    def end(self):
        """Close the invocation and return its per-layer record."""
        self._exit()
        self.uninstall()
        rec = {"calls": dict(zip(self.names, self.calls)),
               "self_s": dict(zip(self.names, self.self_s))}
        c = self.counters
        c["linalg.det_int.distinct"] = len(c.pop("det_keys", ()))
        c["algebra.quotient_basis.distinct"] = len(c.pop("algebra_keys", ()))
        rec["counters"] = c
        return rec

    def write_spans(self, path):
        """Write every span as gzip CSV: invocation, span, parent, name, start, end."""
        with gzip.open(path, "wt", newline="", compresslevel=1) as fh:
            out = csv.writer(fh)
            out.writerow(["invocation", "span", "parent", "name", "start_s", "end_s"])
            names = self.names
            for i in range(len(self.span_start)):
                out.writerow([
                    self.span_inv[i], i, self.span_parent[i], names[self.span_name[i]],
                    repr(self.span_start[i]), repr(self.span_end[i]),
                ])
        return len(self.span_start)
