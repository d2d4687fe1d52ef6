"""Shortlex string rewriting systems with a Knuth-Bendix completeness check.

A system is a finite ordered alphabet plus rules lhs -> rhs where every rule
is shortlex-reducing (rhs strictly smaller than lhs in the shortlex order
induced by the alphabet ordering).  Shortlex is a reduction order on words,
so rewriting always terminates; the completeness check then reduces to local
confluence of the finitely many critical pairs (Newman's lemma).  Systems
that fail the check are reported with an explicit witness peak rather than
completed.
"""

from ._records import record
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


@record(frozen=True)
class Rule:
    lhs: Word
    rhs: Word


@record(frozen=True)
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
        # a rule can only fire right after its last symbol was appended; per
        # symbol, (length, {lhs: (declaration order, reversed rhs)}) by length,
        # and the first declared rule keeps a shared lhs
        by_last = {}
        for order, rule in enumerate(self.rules):
            by_length = by_last.setdefault(rule.lhs[-1], {})
            by_length.setdefault(len(rule.lhs), {}).setdefault(
                rule.lhs, (order, rule.rhs[::-1]))
        self._rules_by_last = {sym: sorted(by_length.items())
                               for sym, by_length in by_last.items()}
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
        if len(v) == 1 and v[0] not in self._rules_by_last:
            return tuple(u) + tuple(v)
        return self._rewrite(list(u), v)

    def _rewrite(self, out, word):
        """Feed word's symbols onto the irreducible prefix out, rewriting
        as normalize() describes.  After each append the suffix of out is
        looked up once per left-side length among the rules ending in the
        symbol just appended; of the hits, the first declared fires."""
        rules_by_last = self._rules_by_last
        pending = list(word)
        pending.reverse()
        while pending:
            sym = pending.pop()
            out.append(sym)
            hit = None
            for size, table in rules_by_last.get(sym, ()):
                found = table.get(tuple(out[-size:]))
                if found is not None and (hit is None or found < hit):
                    hit, n = found, size
            if hit is not None:
                del out[-n:]
                pending.extend(hit[1])
        return tuple(out)

    def critical_pairs(self):
        """All critical peaks with their two one-step reducts.

        For rules i and j this collects proper suffix/prefix overlaps of
        lhs_i with lhs_j and every containment of lhs_j inside lhs_i (the
        full self-containment of a rule in itself is skipped).  Order is
        deterministic: rule pairs in declaration order, overlaps before
        containments, positions ascending.

        Each rule looks its own proper suffixes up among the proper
        prefixes of all left sides, and its factors among the whole left
        sides, instead of scanning every pair of rules.
        """
        rules = self.rules
        prefixes = {}
        wholes = {}
        for j, rule in enumerate(rules):
            lhs = rule.lhs
            for k in range(1, len(lhs)):
                prefixes.setdefault(lhs[:k], []).append(j)
            wholes.setdefault(lhs, []).append(j)
        lengths = sorted({len(lhs) for lhs in wholes})
        found = []
        for i, ri in enumerate(rules):
            li = ri.lhs
            n = len(li)
            # suffix of lhs_i equals prefix of lhs_j, proper on both sides
            for k in range(1, n):
                for j in prefixes.get(li[n - k :], ()):
                    rj = rules[j]
                    peak = li + rj.lhs[k:]
                    red1 = ri.rhs + rj.lhs[k:]
                    red2 = li[: n - k] + rj.rhs
                    found.append(((i, j, 0, k), (peak, red1, red2)))
            # lhs_j contained in lhs_i
            for size in lengths:
                if size > n:
                    break
                for p in range(n - size + 1):
                    for j in wholes.get(li[p : p + size], ()):
                        if i == j and size == n:
                            continue
                        red2 = li[:p] + rules[j].rhs + li[p + size :]
                        found.append(((i, j, 1, p), (li, ri.rhs, red2)))
        found.sort(key=lambda item: item[0])
        return [pair for _, pair in found]

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


class LeftSideAutomaton:
    """The Aho-Corasick automaton of a system's left sides, restricted to
    irreducible words (Aho & Corasick 1975).

    States are the prefixes of left sides, state 0 the empty word; reading
    a word from state 0 ends in the state of its longest suffix that is
    such a prefix.  delta[state][letter] is the next state, letters indexed
    in alphabet order, or -1 when the letter completes a left side, so the
    words readable from state 0 are exactly the irreducible ones.  On a
    complete system those are the normal forms, one per element.
    """

    def __init__(self, system):
        rank = system._rank
        goto = [{}]
        terminal = [False]
        for rule in system.rules:
            state = 0
            for sym in rule.lhs:
                nxt = goto[state].get(rank[sym])
                if nxt is None:
                    nxt = len(goto)
                    goto[state][rank[sym]] = nxt
                    goto.append({})
                    terminal.append(False)
                state = nxt
            terminal[state] = True
        letters = range(len(system.alphabet))
        delta = [None] * len(goto)
        delta[0] = [goto[0].get(a, 0) for a in letters]
        fail = [0] * len(goto)
        # breadth-first, so a state's failure target is finished before it
        queue = list(goto[0].values())
        for state in queue:
            terminal[state] = terminal[state] or terminal[fail[state]]
            back = delta[fail[state]]
            row = list(back)
            for a, child in goto[state].items():
                fail[child] = back[a]
                row[a] = child
                queue.append(child)
            delta[state] = row
        # a left side ends wherever a terminal state is entered
        self.delta = [[-1 if terminal[t] else t for t in row] for row in delta]

    def is_finite(self):
        """True when only finitely many words are irreducible: no cycle
        through live states is reachable from state 0 (iterative DFS)."""
        delta = self.delta
        colour = [0] * len(delta)  # 0 unseen, 1 on the stack, 2 done
        colour[0] = 1
        stack = [(0, iter(delta[0]))]
        while stack:
            state, succ = stack[-1]
            for nxt in succ:
                if nxt < 0 or colour[nxt] == 2:
                    continue
                if colour[nxt] == 1:
                    return False
                colour[nxt] = 1
                stack.append((nxt, iter(delta[nxt])))
                break
            else:
                colour[state] = 2
                stack.pop()
        return True

    def counts(self):
        """The number of irreducible words of length 0, 1, 2, ..., computed
        length by length with a transfer vector over the live states;
        the sequence ends when a length has none."""
        delta = self.delta
        vector = {0: 1}
        while vector:
            yield sum(vector.values())
            nxt = {}
            for state, count in vector.items():
                for target in delta[state]:
                    if target >= 0:
                        nxt[target] = nxt.get(target, 0) + count
            vector = nxt
