"""Shortlex string rewriting systems with a Knuth-Bendix completeness check.

A system is a finite ordered alphabet plus rules lhs -> rhs where every rule
is shortlex-reducing (rhs strictly smaller than lhs in the shortlex order
induced by the alphabet ordering).  Shortlex is a reduction order on words,
so rewriting always terminates; the completeness check then reduces to local
confluence of the finitely many critical pairs (Newman's lemma).  Systems
that fail the check are reported with an explicit witness peak rather than
completed.
"""

from dataclasses import dataclass

from .errors import UnknownSymbol

Word = tuple

EMPTY = ()


def parse_word(text, alphabet):
    """Split a word string into alphabet symbols.

    If every symbol is a single character the string is split char by char;
    otherwise the symbols must be whitespace-separated.  The empty string is
    the empty word.
    """
    if text == "":
        return EMPTY
    if all(len(a) == 1 for a in alphabet):
        return tuple(text)
    return tuple(text.split())


def format_word(word, sep=""):
    """Join a word's symbols back into a display string."""
    return sep.join(word)


@dataclass(frozen=True)
class Rule:
    lhs: Word
    rhs: Word


@dataclass(frozen=True)
class ConfluenceFailure:
    """A critical peak whose two reducts normalize to distinct words."""

    peak: Word
    nf1: Word
    nf2: Word


COMPLETE = "complete"
UNVERIFIED = "unverified"


class RewritingSystem:
    """An ordered alphabet with shortlex-reducing rules.

    Instances are immutable after construction.  Completeness is verified at
    construction unless verify=False, in which case the status stays
    'unverified' until check_complete() is called.
    """

    def __init__(self, alphabet, rules, verify=True):
        alphabet = tuple(alphabet)
        if len(set(alphabet)) != len(alphabet):
            raise ValueError("alphabet symbols must be distinct")
        if any(a == "" for a in alphabet):
            raise ValueError("alphabet symbols must be nonempty")
        self.alphabet = alphabet
        self._rank = {a: i for i, a in enumerate(alphabet)}
        norm_rules = []
        for lhs, rhs in rules:
            lhs = tuple(lhs)
            rhs = tuple(rhs)
            self._require_known(lhs)
            self._require_known(rhs)
            if len(lhs) == 0:
                raise ValueError("rule left side must be nonempty")
            if not self.shortlex_less(rhs, lhs):
                raise ValueError(
                    "rule %s -> %s is not shortlex-reducing"
                    % (format_word(lhs), format_word(rhs))
                )
            norm_rules.append(Rule(lhs, rhs))
        self.rules = tuple(norm_rules)
        # a rule can only fire right after its last symbol was appended
        by_last = {}
        for rule in self.rules:
            by_last.setdefault(rule.lhs[-1], []).append(
                (list(rule.lhs), len(rule.lhs), rule.rhs[::-1])
            )
        self._rules_by_last = by_last
        self.completeness = UNVERIFIED
        if verify:
            failure = self.check_complete()
            self.completeness = COMPLETE if failure is None else failure

    def _require_known(self, word):
        for sym in word:
            if sym not in self._rank:
                raise UnknownSymbol("symbol %r not in alphabet %r" % (sym, self.alphabet))

    def shortlex_key(self, word):
        return (len(word), tuple(self._rank[s] for s in word))

    def shortlex_less(self, u, v):
        return self.shortlex_key(u) < self.shortlex_key(v)

    @property
    def is_complete(self):
        return self.completeness == COMPLETE

    def normalize(self, word):
        """Rewrite to the irreducible form, reducing the leftmost-innermost
        redex first.

        The scan keeps an irreducible prefix and feeds symbols in one at a
        time; the first rule (in declaration order) whose left side ends at
        the current position fires, and its right side is re-scanned.  On a
        complete system every strategy gives the same answer, so the choice
        only pins down behaviour on rejected systems.
        """
        word = tuple(word)
        self._require_known(word)
        return self._rewrite([], word)

    def normal_product(self, u, v):
        """The normal form of the concatenation u + v, for irreducible u.

        No rule fires inside an irreducible prefix, so the scan starts after
        u instead of re-reading it.  Nothing is checked: u must be
        irreducible and both words must be over the alphabet, as normal
        forms returned by normalize() are.
        """
        return self._rewrite(list(u), v)

    def _rewrite(self, out, word):
        """Feed word's symbols onto the irreducible prefix out, rewriting
        as normalize() describes; only the rules ending in the symbol just
        appended are tried."""
        rules_by_last = self._rules_by_last
        pending = list(word)
        pending.reverse()
        while pending:
            sym = pending.pop()
            out.append(sym)
            for lhs, n, rev_rhs in rules_by_last.get(sym, ()):
                if out[-n:] == lhs:
                    del out[-n:]
                    pending.extend(rev_rhs)
                    break
        return tuple(out)

    def critical_pairs(self):
        """All critical peaks with their two one-step reducts.

        For rules i and j this collects proper suffix/prefix overlaps of
        lhs_i with lhs_j and every containment of lhs_j inside lhs_i (the
        full self-containment of a rule in itself is skipped).  Order is
        deterministic: rule pairs in declaration order, positions ascending.
        """
        pairs = []
        rules = self.rules
        for i, ri in enumerate(rules):
            for j, rj in enumerate(rules):
                li, lj = ri.lhs, rj.lhs
                # suffix of lhs_i equals prefix of lhs_j, proper on both sides
                for k in range(1, min(len(li), len(lj))):
                    if li[len(li) - k :] == lj[:k]:
                        peak = li + lj[k:]
                        red1 = ri.rhs + lj[k:]
                        red2 = li[: len(li) - k] + rj.rhs
                        pairs.append((peak, red1, red2))
                # lhs_j contained in lhs_i
                for p in range(0, len(li) - len(lj) + 1):
                    if li[p : p + len(lj)] == lj:
                        if i == j and len(li) == len(lj):
                            continue
                        peak = li
                        red1 = ri.rhs
                        red2 = li[:p] + rj.rhs + li[p + len(lj) :]
                        pairs.append((peak, red1, red2))
        return pairs

    def check_complete(self):
        """None when every critical pair joins; else the first failure."""
        for peak, red1, red2 in self.critical_pairs():
            nf1 = self.normalize(red1)
            nf2 = self.normalize(red2)
            if nf1 != nf2:
                return ConfluenceFailure(peak, nf1, nf2)
        return None

    def __repr__(self):
        shown = ", ".join(
            "%s->%s" % (format_word(r.lhs), format_word(r.rhs)) for r in self.rules
        )
        return "RewritingSystem(%r, [%s])" % (list(self.alphabet), shown)
