"""Rewriting engine for two-sided path-algebra ideals.

Paths are tuples of small integer arrow ids whose numeric order realizes the
term order: words are compared length first, then lexicographically by arrow
id.  Relations are completed into a rewriting system by resolving overlaps of
leading words (bounded by a maximum word length), after which normal forms
are unique and the surviving factor-free words of each length enumerate a
basis of the quotient.
"""
from __future__ import annotations

import heapq

from .linalg import vec_add_scaled


def order_key(word):
    return (len(word), word)


class NotAdmissible(Exception):
    """A completed consequence had a leading word of length < 2."""


class RewriteSystem:
    """A set of rewriting rules lead -> combination of smaller words."""

    def __init__(self, source, target, field):
        # source[a] / target[a]: endpoint vertices of arrow id a
        self.source = source
        self.target = target
        self.field = field
        self.rules = {}
        self.max_lead = 0
        self._memo = {}

    def _invalidate(self):
        self._memo.clear()

    def add_rule(self, lead, tail):
        self.rules[lead] = dict(tail)
        if len(lead) > self.max_lead:
            self.max_lead = len(lead)
        self._invalidate()

    def drop_rule(self, lead):
        tail = self.rules.pop(lead)
        self._invalidate()
        return tail

    def find_factor(self, word):
        """Leftmost, shortest rule lead occurring as a factor of word."""
        rules = self.rules
        top = self.max_lead
        n = len(word)
        for i in range(n):
            limit = min(top, n - i)
            for length in range(1, limit + 1):
                cand = word[i : i + length]
                if cand in rules:
                    return i, cand
        return None

    def has_lead_suffix(self, word):
        """True when some rule lead is a suffix of word."""
        rules = self.rules
        for length in range(1, min(self.max_lead, len(word)) + 1):
            if word[-length:] in rules:
                return True
        return False

    def nf_word(self, word):
        """Normal form of a single word as a dict {word: coefficient}."""
        memo = self._memo
        cached = memo.get(word)
        if cached is not None:
            return cached
        hit = self.find_factor(word)
        if hit is None:
            result = {word: self.field.one}
        else:
            i, lead = hit
            prefix, suffix = word[:i], word[i + len(lead) :]
            result = {}
            for tword, tcoeff in self.rules[lead].items():
                vec_add_scaled(result, self.nf_word(prefix + tword + suffix), tcoeff)
        memo[word] = result
        return result

    def nf_combo(self, combo):
        out = {}
        for word, coeff in combo.items():
            if coeff:
                vec_add_scaled(out, self.nf_word(word), coeff)
        return out


def _overlaps(l1, l2):
    """Proper overlaps: suffix of l1 of length k equals prefix of l2."""
    top = min(len(l1), len(l2)) - 1
    for k in range(1, top + 1):
        if l1[-k:] == l2[:k]:
            yield k


def complete(relations, source, target, field, maxlen):
    """Bounded completion of a list of relation combos.

    Returns (system, truncated); ``truncated`` records whether any overlap
    was discarded for exceeding ``maxlen``, i.e. whether the resulting
    system might be degree-limited rather than a full completion.
    """
    rs = RewriteSystem(source, target, field)
    heap = []
    counter = 0
    for rel in relations:
        rel = {w: c for w, c in rel.items() if c}
        if not rel:
            continue
        length = max(len(w) for w in rel)
        heapq.heappush(heap, (length, counter, rel))
        counter += 1
    seen = set()
    truncated = False

    while heap:
        _, _, poly = heapq.heappop(heap)
        poly = rs.nf_combo(poly)
        if not poly:
            continue
        lead = max(poly, key=order_key)
        if len(lead) < 2:
            raise NotAdmissible(f"ideal contains a generator of length {len(lead)}")
        lc = poly[lead]
        tail = {w: -c / lc for w, c in poly.items() if w != lead}

        # Interreduce: requeue rules whose lead now factors through the new lead.
        stale = [
            other
            for other in rs.rules
            if len(other) > len(lead)
            and any(other[i : i + len(lead)] == lead for i in range(len(other) - len(lead) + 1))
        ]
        for other in stale:
            old_tail = rs.drop_rule(other)
            requeued = {other: field.one}
            vec_add_scaled(requeued, old_tail, -field.one)
            heapq.heappush(heap, (len(other), counter, requeued))
            counter += 1

        rs.add_rule(lead, tail)

        for other in list(rs.rules):
            for first, second in ((lead, other), (other, lead)):
                t1 = rs.rules[first]
                t2 = rs.rules[second]
                for k in _overlaps(first, second):
                    total = len(first) + len(second) - k
                    if total > maxlen:
                        truncated = True
                        continue
                    key = (first, second, k)
                    if key in seen:
                        continue
                    seen.add(key)
                    suffix, prefix = second[k:], first[: len(first) - k]
                    spoly = {w + suffix: c for w, c in t1.items()}
                    vec_add_scaled(spoly, {prefix + w: c for w, c in t2.items()}, -field.one)
                    if spoly:
                        heapq.heappush(heap, (total, counter, spoly))
                        counter += 1
    return rs, truncated


def normal_words(rs, vertices, arrows_by_source, maxlen):
    """Factor-free words by length: levels[k] is a list of (source, word).

    Stops early once a length yields no survivors (normal words are closed
    under taking factors, so nothing longer can survive either).
    """
    levels = [[(v, ()) for v in vertices]]
    for _ in range(maxlen):
        prev = levels[-1]
        nxt = []
        for src, word in prev:
            at = rs.target[word[-1]] if word else src
            for a in arrows_by_source.get(at, ()):
                cand = word + (a,)
                if not rs.has_lead_suffix(cand):
                    nxt.append((src, cand))
        if not nxt:
            break
        levels.append(nxt)
    return levels
