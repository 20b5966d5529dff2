"""Rewriting engine for two-sided path-algebra ideals.

A word engine: paths are tuples of small integer arrow ids, compared length
first, then lexicographically by id, and only ``normal_words`` reads arrow
ends, which its caller passes.  Relations are completed into a rewriting
system by resolving overlaps of leading words (bounded by a maximum word
length), after which normal forms are unique and the surviving factor-free
words of each length enumerate a basis of the quotient.

Relations must be binomial, one path or a sum or difference of two, as is
every one ``algebra`` builds (else ``NonBinomialRelation``, an engine
fault).  Then, by induction on the rules added, every polynomial in
``complete`` has at most two terms and every tail at most one: with
one-term tails a rewrite step, and so a normal form, maps c * w to 0 or to
one signed word; an S-polynomial tail1 * s - p * tail2 has at most two
terms; taking the lead off two terms leaves one.  The completion and the
diamond lemma (below) hold unchanged.  So ``rules`` maps each lead to its
tail term, (word, coefficient) or None for 0, and ``complete`` reduces each
term of a polynomial with ``nf_word``, making no dict per word.  No normal
form is memoized: a memo had to be cleared at every added rule (an entry's
normal form, or a word met while rewriting it, may contain the new lead),
and after completion ``QuotientAlgebra`` keeps each class it reads.

Completion is output-sensitive: ``RewriteSystem`` indexes its leads so that
each question reads only the leads that can answer it.
- Leads by first arrow and by last arrow find overlaps: an overlap of
  length k of (lead, other) needs ``other[0] == lead[-k]``, one of
  (other, lead) needs ``other[-1] == lead[k - 1]`` (Mora, TCS 134, 1994;
  Green, *Noncommutative Gröbner bases, and projective resolutions*, 1999).
  Sorting the hits by the other lead's insertion stamp, then side, then k
  gives the order of a scan over all rules, so the heap sees the same pushes.
- A second pair of these indexes holds only the binomial leads, whose tail
  is a word.  The S-polynomial of two monomial rules (tails 0) is
  identically zero, so it is never pushed and never advances the heap
  counter.  When the new lead is monomial, ``complete`` therefore looks up
  its overlaps among the binomial leads only.  Skipping loses nothing: a
  pair comes up only when the later of its two leads is added, and a rule
  is never changed or dropped once added.  For the same reason the only
  pairs met twice are a lead's overlaps with itself, which ``overlaps``
  lists on both sides, so only those are remembered as taken.
  A skipped pair could still have set ``truncated``, so the binomial-only
  lookup is taken only when ``truncated`` is already set or when no
  monomial pair can exceed ``maxlen``:
  len(lead) + (longest monomial lead) - 1 <= maxlen.
- The lead lengths present per first and per last arrow bound the slices
  ``find_factor`` and ``lead_suffix`` try at each position.

A rule is added only for a lead that ``nf_word`` left irreducible, so a new
lead never contains an older one.  An older lead may contain a newer one;
that is an inclusion ambiguity, which ``overlaps`` (proper suffix-prefix
overlaps only) does not resolve, so the diamond lemma would not apply
(Bergman, 1978; Mora, TCS 134, 1994).  No presentation the program builds
gives one, so instead of interreducing, ``complete`` checks every lead of
three or more arrows (no lead is one arrow) at the end and raises
``InclusionAmbiguity``, an engine fault, if another lead lies inside it.
"""
from __future__ import annotations

import heapq


class NotAdmissible(Exception):
    """A completed consequence had a leading word of length < 2."""


class InclusionAmbiguity(Exception):
    """A completed lead contains another lead as a proper factor."""


class NonBinomialRelation(Exception):
    """A relation given to ``complete`` has three or more terms."""


class RewriteSystem:
    """A set of rewriting rules lead -> at most one smaller signed word.

    ``rules`` maps each lead, in insertion order, to its tail term as
    (word, coefficient), or to None for a monomial lead.  Every lead is
    indexed by its insertion stamp, its first arrow and its last arrow,
    binomial leads (tail a word) also in their own first- and last-arrow
    indexes, and the lead lengths present are kept per first and last arrow.
    ``longest_monomial`` is the length of the longest monomial lead.
    """

    def __init__(self, field):
        self.field = field
        self.rules = {}
        self._stamp = {}
        self._by_first = {}  # arrow -> set of leads starting with it
        self._by_last = {}  # arrow -> set of leads ending with it
        self._binomial_first = {}  # arrow -> set of binomial leads starting with it
        self._binomial_last = {}
        self.longest_monomial = 0
        self._first_lengths = {}  # arrow -> ascending lengths of its leads
        self._last_lengths = {}

    def add_rule(self, lead, term):
        """Add the rule lead -> term, a (word, coefficient) pair or None for
        0, whose lead is not yet one (see the module docstring)."""
        self._stamp[lead] = len(self.rules)
        self._by_first.setdefault(lead[0], set()).add(lead)
        self._by_last.setdefault(lead[-1], set()).add(lead)
        for lengths, end in ((self._first_lengths, lead[0]), (self._last_lengths, lead[-1])):
            have = lengths.get(end, ())
            if len(lead) not in have:
                lengths[end] = tuple(sorted(have + (len(lead),)))
        if term is not None:
            self._binomial_first.setdefault(lead[0], set()).add(lead)
            self._binomial_last.setdefault(lead[-1], set()).add(lead)
        else:
            self.longest_monomial = max(self.longest_monomial, len(lead))
        self.rules[lead] = term

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

    def lead_suffix(self, word):
        """The shortest rule lead that is a suffix of word, or None."""
        rules = self.rules
        n = len(word)
        for length in self._last_lengths.get(word[-1], ()) if word else ():
            if length > n:
                break
            cand = word[-length:]
            if cand in rules:
                return cand
        return None

    def overlaps(self, lead, binomial=False):
        """Proper overlaps of lead with every rule, as (first, second, k):
        the suffix of first of length k equals the prefix of second.  They
        come in rule insertion order, (lead, other) before (other, lead),
        then by k; lead against itself appears once on each side.  With
        ``binomial`` only the rules whose tail is a word are read."""
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

    def nf_word(self, word, coeff):
        """Normal form of coeff * word as (word, coefficient), or None for 0,
        rewriting the leftmost, shortest lead by its tail term until none is left."""
        find_factor, tails = self.find_factor, self.rules
        hit = find_factor(word)
        while hit is not None:
            i, lead = hit
            term = tails[lead]
            if term is None:
                return None
            word = word[:i] + term[0] + word[i + len(lead) :]
            coeff = term[1] * coeff
            hit = find_factor(word)
        return word, coeff


def complete(relations, field, maxlen):
    """Bounded completion of a list of binomial relation combos.

    Returns (system, truncated); ``truncated`` records whether any overlap
    was discarded for exceeding ``maxlen``, i.e. whether the resulting
    system might be degree-limited rather than a full completion.
    """
    rs = RewriteSystem(field)
    heap = []
    counter = 0
    for rel in relations:
        terms = [(w, c) for w, c in rel.items() if c]
        if len(terms) > 2:
            raise NonBinomialRelation(f"relation of {len(terms)} terms, not at most two")
        if terms:
            heapq.heappush(heap, (max(len(w) for w, _ in terms), counter, terms))
            counter += 1
    truncated = False

    while heap:
        _, _, terms = heapq.heappop(heap)
        # at most two terms, each now 0 or one signed word (see the module
        # docstring); equal words merge, else the larger word leads
        poly = [t for w, c in terms if (t := rs.nf_word(w, c)) is not None]
        if len(poly) == 2:
            (u, a), (v, b) = poly
            if u == v:
                poly = [(u, a + b)] if a + b else []
            elif (len(v), v) > (len(u), u):
                poly.reverse()
        if not poly:
            continue
        (lead, lc), *rest = poly
        term = (rest[0][0], field.div(-rest[0][1], lc)) if rest else None
        if len(lead) < 2:
            raise NotAdmissible(f"ideal contains a generator of length {len(lead)}")

        rs.add_rule(lead, term)

        # Monomial pairs have empty S-polynomials; skip them when they cannot
        # set ``truncated`` (see the module docstring).
        binomial = term is None and (truncated or len(lead) + rs.longest_monomial - 1 <= maxlen)
        # Every other pair comes up once, when the later of its leads is
        # added; ``overlaps`` lists lead against itself on both sides.
        seen = set()  # k of the self-overlaps of lead taken so far
        for first, second, k in rs.overlaps(lead, binomial):
            total = len(first) + len(second) - k
            if total > maxlen:
                truncated = True
                continue
            if first == second:
                if k in seen:
                    continue
                seen.add(k)
            # tail(first) * second[k:] - first[:-k] * tail(second)
            t1, t2 = rs.rules[first], rs.rules[second]
            spoly = [(t1[0] + second[k:], t1[1])] if t1 else []
            if t2:
                spoly.append((first[: len(first) - k] + t2[0], -t2[1]))
            if spoly:
                heapq.heappush(heap, (total, counter, spoly))
                counter += 1

    # A proper factor of a lead lies in the lead less its last arrow, or is
    # a suffix of the lead less its first.
    for lead in rs.rules:
        if len(lead) > 2:
            hit = rs.find_factor(lead[:-1])
            inner = hit[1] if hit else rs.lead_suffix(lead[1:])
            if inner is not None:
                raise InclusionAmbiguity(f"lead {lead} contains the lead {inner}")
    return rs, truncated


def normal_words(rs, vertices, arrows_by_source, target, maxlen):
    """Factor-free words by length: levels[0] lists the vertices, one per
    trivial word e_v, and levels[k] for k >= 1 the words of length k, whose
    source is their first arrow's.  So sum(len(level)) is the dimension.
    ``arrows_by_source[v]``: ascending ids out of v; ``target[a]``: a's target.

    Stops early once a length yields no survivors (normal words are closed
    under taking factors, so nothing longer can survive either).
    """
    lead_suffix = rs.lead_suffix
    levels = [list(vertices)]
    words = [(a,) for v in vertices for a in arrows_by_source.get(v, ())]
    for _ in range(maxlen):
        survivors = [w for w in words if lead_suffix(w) is None]
        if not survivors:
            break
        levels.append(survivors)
        words = [w + (a,) for w in survivors for a in arrows_by_source.get(target[w[-1]], ())]
    return levels
