"""Rewriting engine for two-sided path-algebra ideals.

Paths are tuples of small integer arrow ids whose numeric order realizes the
term order: words are compared length first, then lexicographically by arrow
id.  Relations are completed into a rewriting system by resolving overlaps of
leading words (bounded by a maximum word length), after which normal forms
are unique and the surviving factor-free words of each length enumerate a
basis of the quotient.

Completion is output-sensitive: ``RewriteSystem`` indexes its leads so that
each question reads only the leads that can answer it.
- Leads by first arrow and by last arrow find overlaps: an overlap of
  length k of (lead, other) needs ``other[0] == lead[-k]``, one of
  (other, lead) needs ``other[-1] == lead[k - 1]`` (Mora, TCS 134, 1994;
  Green, *Noncommutative Gröbner bases, and projective resolutions*, 1999).
  Sorting the hits by the other lead's insertion stamp, then side, then k
  gives the order of a scan over all rules, so the heap sees the same pushes.
- A second pair of these indexes holds only the binomial leads, whose tail
  is not empty.  The S-polynomial of two monomial rules (empty tails) is
  identically zero, so it is never pushed and never advances the heap
  counter.  When the new lead is monomial, ``complete`` therefore looks up
  its overlaps among the binomial leads only.  Skipped pairs never enter
  ``seen``, which loses nothing: a pair comes up only when the later of its
  two leads is added, a live lead's tail never changes (``nf_combo`` output
  is irreducible, so an added lead is always new), and a lead dropped as
  stale stays reducible, so it is never added again.  A skipped pair could
  still have set ``truncated``, so the binomial-only lookup is taken only
  when ``truncated`` is already set or when no monomial pair can exceed
  ``maxlen``: len(lead) + (longest monomial lead) - 1 <= maxlen.
- Leads by contained arrow give the candidates for interreduction.
- The lead lengths present per first and per last arrow bound the slices
  ``find_factor`` and ``has_lead_suffix`` try at each position.  ``add_rule``
  inserts a length that is new there, and ``drop_rule`` recounts them.
The ``nf_word`` memo is cleared in full whenever a rule is added or dropped.
Keeping the entries whose word does not contain the new lead is unsound:
such an entry's result, or a word met while rewriting it, may contain the
new lead, and before confluence rewriting it again can give another normal
form and so different later tails.
"""
from __future__ import annotations

import heapq

from .linalg import vec_add_scaled


def order_key(word):
    return (len(word), word)


def has_factor(word, factor):
    """True when factor occurs in word; ``tuple.index`` finds the candidate
    starts, so only the places where factor's first arrow occurs are compared."""
    first, n = factor[0], len(factor)
    stop = len(word) - n + 1
    i = 0
    while True:
        try:
            i = word.index(first, i, stop)
        except ValueError:
            return False
        if word[i : i + n] == factor:
            return True
        i += 1


class NotAdmissible(Exception):
    """A completed consequence had a leading word of length < 2."""


class RewriteSystem:
    """A set of rewriting rules lead -> combination of smaller words.

    ``rules`` keeps insertion order.  Beside it every lead is indexed by its
    insertion stamp, its first arrow, its last arrow and each arrow it
    contains, binomial leads (non-empty tail) also in their own first- and
    last-arrow indexes, and the lead lengths present are kept per first and
    last arrow.
    ``add_rule`` and ``drop_rule`` keep all of them in step with ``rules``.
    ``longest_monomial`` is the length of the longest monomial lead ever
    added, a bound on the live ones.
    """

    def __init__(self, source, target, field):
        # source[a] / target[a]: endpoint vertices of arrow id a
        self.source = source
        self.target = target
        self.field = field
        self.rules = {}
        self._stamp = {}
        self._clock = 0
        self._by_first = {}  # arrow -> set of leads starting with it
        self._by_last = {}  # arrow -> set of leads ending with it
        self._by_arrow = {}  # arrow -> set of leads containing it
        self._binomial_first = {}  # arrow -> set of binomial leads starting with it
        self._binomial_last = {}
        self.longest_monomial = 0
        self._first_lengths = {}  # arrow -> ascending lengths of its leads
        self._last_lengths = {}
        self._memo = {}

    def add_rule(self, lead, tail):
        if lead not in self.rules:
            self._stamp[lead] = self._clock
            self._clock += 1
            self._by_first.setdefault(lead[0], set()).add(lead)
            self._by_last.setdefault(lead[-1], set()).add(lead)
            for a in set(lead):
                self._by_arrow.setdefault(a, set()).add(lead)
            for lengths, end in ((self._first_lengths, lead[0]), (self._last_lengths, lead[-1])):
                have = lengths.get(end, ())
                if len(lead) not in have:
                    lengths[end] = tuple(sorted(have + (len(lead),)))
        if tail:
            self._binomial_first.setdefault(lead[0], set()).add(lead)
            self._binomial_last.setdefault(lead[-1], set()).add(lead)
        else:
            self._binomial_first.get(lead[0], set()).discard(lead)
            self._binomial_last.get(lead[-1], set()).discard(lead)
            self.longest_monomial = max(self.longest_monomial, len(lead))
        self.rules[lead] = dict(tail)
        self._memo.clear()

    def drop_rule(self, lead):
        tail = self.rules.pop(lead)
        del self._stamp[lead]
        self._by_first[lead[0]].remove(lead)
        self._by_last[lead[-1]].remove(lead)
        for a in set(lead):
            self._by_arrow[a].discard(lead)
        if tail:
            self._binomial_first[lead[0]].remove(lead)
            self._binomial_last[lead[-1]].remove(lead)
        self._refresh_lengths(lead)
        self._memo.clear()
        return tail

    def _refresh_lengths(self, lead):
        """Recount the lead lengths under lead's first and last arrow."""
        first, last = lead[0], lead[-1]
        self._first_lengths[first] = tuple(sorted({len(w) for w in self._by_first[first]}))
        self._last_lengths[last] = tuple(sorted({len(w) for w in self._by_last[last]}))

    def find_factor(self, word):
        """Leftmost, shortest rule lead occurring as a factor of word."""
        rules = self.rules
        by_first = self._first_lengths
        n = len(word)
        for i in range(n):
            for length in by_first.get(word[i], ()):
                if length > n - i:
                    break
                cand = word[i : i + length]
                if cand in rules:
                    return i, cand
        return None

    def has_lead_suffix(self, word):
        """True when some rule lead is a suffix of word."""
        if not word:
            return False
        rules = self.rules
        n = len(word)
        for length in self._last_lengths.get(word[-1], ()):
            if length > n:
                break
            if word[-length:] in rules:
                return True
        return False

    def overlaps(self, lead, binomial=False):
        """Proper overlaps of lead with every rule, as (first, second, k):
        the suffix of first of length k equals the prefix of second.  They
        come in rule insertion order, (lead, other) before (other, lead),
        then by k; lead against itself appears once on each side.  With
        ``binomial`` only the rules with a non-empty tail are read."""
        if binomial:
            by_first, by_last = self._binomial_first, self._binomial_last
        else:
            by_first, by_last = self._by_first, self._by_last
        hits = []
        n = len(lead)
        for k in range(1, n):
            others = by_first.get(lead[-k])
            if others:
                tail = lead[-k:]
                for other in others:
                    if len(other) > k and other[:k] == tail:
                        hits.append((self._stamp[other], 0, k, other))
            others = by_last.get(lead[k - 1])
            if others:
                head = lead[:k]
                for other in others:
                    if len(other) > k and other[-k:] == head:
                        hits.append((self._stamp[other], 1, k, other))
        hits.sort()
        return [(lead, other, k) if side == 0 else (other, lead, k) for _, side, k, other in hits]

    def stale(self, lead):
        """Rules with a longer lead that has lead as a factor, in insertion
        order: they must be requeued once lead becomes a rule."""
        n = len(lead)
        found = [
            other
            for other in self._by_arrow.get(lead[0], ())
            if len(other) > n and has_factor(other, lead)
        ]
        found.sort(key=self._stamp.__getitem__)
        return found

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
        tail = {w: field.div(-c, lc) for w, c in poly.items() if w != lead}

        # Interreduce: requeue rules whose lead now factors through the new lead.
        for other in rs.stale(lead):
            old_tail = rs.drop_rule(other)
            requeued = {other: field.one}
            vec_add_scaled(requeued, old_tail, -field.one)
            heapq.heappush(heap, (len(other), counter, requeued))
            counter += 1

        rs.add_rule(lead, tail)

        # Monomial pairs have empty S-polynomials; skip them when they cannot
        # set ``truncated`` (see the module docstring).
        binomial = not tail and (truncated or len(lead) + rs.longest_monomial - 1 <= maxlen)
        for first, second, k in rs.overlaps(lead, binomial):
            total = len(first) + len(second) - k
            if total > maxlen:
                truncated = True
                continue
            key = (first, second, k)
            if key in seen:
                continue
            seen.add(key)
            suffix, prefix = second[k:], first[: len(first) - k]
            spoly = {w + suffix: c for w, c in rs.rules[first].items()}
            vec_add_scaled(spoly, {prefix + w: c for w, c in rs.rules[second].items()}, -field.one)
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
