"""Rewriting systems: parsing, normalization oracles, critical pairs.

Normal forms for the three stock complete systems are checked against
independent oracles: sorting for the commutative relation, a pending-count
scan for the one-relator cancellation, and a signed sum for the two-sided
cancellation.  Joinability is cross-checked by brute breadth-first search.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_joinable, free_comm_system, one_step_reducts
from semigeom.errors import UnknownSymbol
from semigeom.rewriting import (
    COMPLETE,
    EMPTY,
    UNVERIFIED,
    ConfluenceFailure,
    LeftSideAutomaton,
    RewritingSystem,
    format_word,
    parse_word,
)


def comm2():
    return RewritingSystem(("a", "b"), [("ba", "ab")])


def bicyclic():
    return RewritingSystem(("b", "c"), [("bc", "")])


def integers():
    return RewritingSystem(("p", "q"), [("pq", ""), ("qp", "")])


def all_words(alphabet, max_len):
    for n in range(max_len + 1):
        yield from itertools.product(alphabet, repeat=n)


# -- parsing ------------------------------------------------------------------


def test_parse_word_char_split():
    assert parse_word("bcb", ("b", "c")) == ("b", "c", "b")
    assert parse_word("", ("b", "c")) == EMPTY


def test_parse_word_whitespace_split():
    assert parse_word("g1 g2 g1", ("g1", "g2")) == ("g1", "g2", "g1")
    assert parse_word("", ("g1", "g2")) == EMPTY


def test_format_word():
    assert format_word(("b", "c", "b")) == "bcb"
    assert format_word(("g1", "g2"), sep=" ") == "g1 g2"
    assert format_word(EMPTY) == ""


# -- construction -------------------------------------------------------------


def test_duplicate_alphabet_rejected():
    with pytest.raises(ValueError):
        RewritingSystem(("a", "a"), [])


def test_non_reducing_rule_rejected():
    with pytest.raises(ValueError):
        RewritingSystem(("a", "b"), [("a", "ab")])  # rhs longer
    with pytest.raises(ValueError):
        RewritingSystem(("a", "b"), [("ab", "ba")])  # wrong orientation
    with pytest.raises(ValueError):
        RewritingSystem(("a", "b"), [("a", "a")])  # not strictly smaller


def test_empty_lhs_rejected():
    with pytest.raises(ValueError):
        RewritingSystem(("a",), [("", "a")])


def test_unknown_symbol_in_rule():
    with pytest.raises(UnknownSymbol):
        RewritingSystem(("a", "b"), [("az", "a")])


def test_shortlex_order():
    s = comm2()
    assert s.shortlex_less(("a",), ("b",))
    assert s.shortlex_less(("b",), ("a", "a"))
    assert s.shortlex_less(("a", "b"), ("b", "a"))
    assert not s.shortlex_less(("a",), ("a",))


# -- normal forms against oracles ---------------------------------------------


def sorted_oracle(word):
    return tuple(sorted(word))


def cancel_oracle(word):
    # pending-count scan: each c cancels the latest open b, else survives
    outer = 0
    pending = 0
    for sym in word:
        if sym == "b":
            pending += 1
        elif pending > 0:
            pending -= 1
        else:
            outer += 1
    return ("c",) * outer + ("b",) * pending


def signed_sum_oracle(word):
    net = word.count("p") - word.count("q")
    return ("p",) * net if net >= 0 else ("q",) * (-net)


@pytest.mark.parametrize(
    "system,oracle",
    [(comm2(), sorted_oracle), (bicyclic(), cancel_oracle),
     (integers(), signed_sum_oracle)],
    ids=["comm2", "bicyclic", "integers"],
)
def test_normalize_matches_oracle(system, oracle):
    for w in all_words(system.alphabet, 7):
        assert system.normalize(w) == oracle(w), w


@pytest.mark.parametrize(
    "system", [comm2(), bicyclic(), integers()],
    ids=["comm2", "bicyclic", "integers"],
)
def test_normalize_idempotent_and_congruent(system):
    words = list(all_words(system.alphabet, 5))
    for w in words:
        nf = system.normalize(w)
        assert system.normalize(nf) == nf
    for u in words[:32]:
        for v in words[:32]:
            assert system.normalize(u + v) == system.normalize(
                system.normalize(u) + system.normalize(v)
            )


# -- critical pairs and completeness ------------------------------------------


def test_critical_pair_reducts_are_one_step_reducts():
    sys_ab = RewritingSystem(("a", "b"), [("ab", "a"), ("ba", "b")], verify=False)
    for system in (comm2(), bicyclic(), integers(), sys_ab):
        for peak, red1, red2 in system.critical_pairs():
            reducts = one_step_reducts(system, peak)
            assert red1 in reducts
            assert red2 in reducts


def test_critical_pairs_of_stock_systems():
    assert comm2().critical_pairs() == []
    assert bicyclic().critical_pairs() == []
    # pq/qp overlap in both orders; both reducts of each peak coincide
    pairs = integers().critical_pairs()
    assert (("p", "q", "p"), ("p",), ("p",)) in pairs
    assert (("q", "p", "q"), ("q",), ("q",)) in pairs
    assert len(pairs) == 2


def test_stock_systems_verify_complete():
    for system in (comm2(), bicyclic(), integers()):
        assert system.check_complete() is None
        assert system.completeness == COMPLETE
        assert system.is_complete


def test_known_incomplete_system():
    system = RewritingSystem(("a", "b"), [("ab", "a"), ("ba", "b")])
    failure = system.completeness
    assert isinstance(failure, ConfluenceFailure)
    assert failure.peak == ("a", "b", "a")
    assert failure.nf1 == ("a", "a")
    assert failure.nf2 == ("a",)
    assert not system.is_complete


def test_verify_false_defers_check():
    system = RewritingSystem(("a", "b"), [("ab", "a"), ("ba", "b")], verify=False)
    assert system.completeness == UNVERIFIED
    failure = system.check_complete()
    assert failure is not None and failure.peak == ("a", "b", "a")


@pytest.mark.parametrize(
    "system", [comm2(), bicyclic(), integers()],
    ids=["comm2", "bicyclic", "integers"],
)
def test_joinability_equals_normal_form_equality(system):
    words = list(all_words(system.alphabet, 5))
    nfs = {w: system.normalize(w) for w in words}
    for u in words[: len(words) // 2]:
        for v in words[: len(words) // 2]:
            assert brute_joinable(system, u, v) == (nfs[u] == nfs[v])


# -- the scan kernel against the unindexed scan ---------------------------------


def reference_normalize(system, word):
    """The scan without the rule index: after each appended symbol, every
    rule is tried in declaration order against the end of the prefix."""
    out = []
    pending = list(word)
    pending.reverse()
    rules = system.rules
    while pending:
        out.append(pending.pop())
        for rule in rules:
            lhs = rule.lhs
            n = len(lhs)
            if len(out) >= n and tuple(out[len(out) - n :]) == lhs:
                del out[len(out) - n :]
                pending.extend(reversed(rule.rhs))
                break
    return tuple(out)


def rejected_ab():
    return RewritingSystem(("a", "b"), [("ab", "a"), ("ba", "b")], verify=False)


def rejected_same_last():
    # both rules end in b, and which fires first decides the normal form
    return RewritingSystem(("a", "b"), [("ab", ""), ("b", "a")], verify=False)


@pytest.mark.parametrize(
    "system", [comm2(), bicyclic(), integers(), rejected_ab(), rejected_same_last()],
    ids=["comm2", "bicyclic", "integers", "rejected-ab", "rejected-same-last"],
)
def test_normalize_matches_unindexed_scan(system):
    for w in all_words(system.alphabet, 6):
        assert system.normalize(w) == reference_normalize(system, w), w


def test_normalize_matches_unindexed_scan_free_comm10():
    # 45 rules; every word to length 6 would be 1.1M words, so all words to
    # length 4 plus a seeded sample of longer ones
    system = free_comm_system(10)
    assert len(system.rules) == 45
    for w in all_words(system.alphabet, 4):
        assert system.normalize(w) == reference_normalize(system, w), w
    rng = random.Random(10)
    for _ in range(3000):
        w = tuple(rng.choice(system.alphabet) for _ in range(rng.randint(5, 12)))
        assert system.normalize(w) == reference_normalize(system, w), w


@pytest.mark.parametrize(
    "system", [comm2(), bicyclic(), integers(), rejected_ab(), free_comm_system(4)],
    ids=["comm2", "bicyclic", "integers", "rejected-ab", "free-comm4"],
)
def test_normal_product_is_normal_form_of_concatenation(system):
    nfs = sorted({system.normalize(w) for w in all_words(system.alphabet, 3)})
    for u in nfs:
        for v in nfs:
            assert system.normal_product(u, v) == system.normalize(u + v), (u, v)


SMALL_ALPHABET = ("a", "b", "c")
DRAWN_ALPHABETS = [("a", "b"), SMALL_ALPHABET, ("x", "yy", "zzz"), ("a", "bc", "d", "ef")]


def shortlex_oriented(alphabet, pairs):
    """Each pair of distinct words as a rule from the larger to the
    smaller in the shortlex order of the alphabet."""
    rank = {a: i for i, a in enumerate(alphabet)}

    def key(w):
        return (len(w), [rank[s] for s in w])

    return [(u, v) if key(v) < key(u) else (v, u) for u, v in pairs if u != v]


@st.composite
def unverified_systems(draw):
    """Shortlex-reducing rule sets, complete or not: left sides of length 1
    to 4 over two to four symbols, some of several characters, and often a
    second rule on a drawn left side, declared before or after it."""
    alphabet = draw(st.sampled_from(DRAWN_ALPHABETS))
    words = st.lists(st.sampled_from(alphabet), max_size=4).map(tuple)
    rules = shortlex_oriented(alphabet, draw(st.lists(st.tuples(words, words), max_size=7)))
    if rules and draw(st.booleans()):
        # on a rejected system, which of the two fires decides the normal forms
        lhs, _ = draw(st.sampled_from(rules))
        shorter = st.lists(st.sampled_from(alphabet), max_size=len(lhs) - 1).map(tuple)
        rules.insert(draw(st.integers(0, len(rules))), (lhs, draw(shorter)))
    return RewritingSystem(alphabet, rules, verify=False)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(unverified_systems())
def test_normalize_matches_unindexed_scan_on_drawn_systems(system):
    for w in all_words(system.alphabet, 6):
        assert system.normalize(w) == reference_normalize(system, w), (system, w)
    # the scan's strategy decides a rejected system's witness
    assert system.check_complete() == reference_check_complete(system, reference_normalize)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(unverified_systems())
def test_normal_product_on_drawn_systems(system):
    nfs = sorted({system.normalize(w) for w in all_words(system.alphabet, 3)})
    for u in nfs:
        for v in nfs:
            want = system.normalize(u + v)
            assert system.normal_product(u, v) == want, (system, u, v)
            assert system.normal_product(list(u), list(v)) == want, (system, u, v)


# -- critical pairs by index against the pairwise scan ----------------------------


def reference_critical_pairs(system):
    """The pairwise scan: for every ordered pair of rules, proper overlaps
    by length, then containments by position."""
    pairs = []
    rules = system.rules
    for i, ri in enumerate(rules):
        for j, rj in enumerate(rules):
            li, lj = ri.lhs, rj.lhs
            for k in range(1, min(len(li), len(lj))):
                if li[len(li) - k :] == lj[:k]:
                    pairs.append((li + lj[k:], ri.rhs + lj[k:], li[: len(li) - k] + rj.rhs))
            for p in range(0, len(li) - len(lj) + 1):
                if li[p : p + len(lj)] == lj:
                    if i == j and len(li) == len(lj):
                        continue
                    pairs.append((li, ri.rhs, li[:p] + rj.rhs + li[p + len(lj) :]))
    return pairs


def reference_check_complete(system, normalize=RewritingSystem.normalize):
    for peak, red1, red2 in reference_critical_pairs(system):
        nf1 = normalize(system, red1)
        nf2 = normalize(system, red2)
        if nf1 != nf2:
            return ConfluenceFailure(peak, nf1, nf2)
    return None


@st.composite
def rule_sets(draw):
    """Shortlex-reducing rule sets, mostly not complete, with single-letter
    and repeated left sides, over single- or multi-character symbols."""
    alphabet = draw(st.sampled_from([("a",), ("a", "b"), SMALL_ALPHABET, ("g1", "g2", "h")]))
    words = st.lists(st.sampled_from(alphabet), max_size=3).map(tuple)
    rules = shortlex_oriented(alphabet, draw(st.lists(st.tuples(words, words), max_size=7)))
    if rules and draw(st.booleans()):
        # a second rule with the first rule's left side
        lhs = rules[0][0]
        smaller = [w for w in all_words(alphabet, len(lhs))
                   if shortlex_oriented(alphabet, [(w, lhs)]) == [(lhs, w)]]
        rules.append((lhs, draw(st.sampled_from(smaller))))
    return RewritingSystem(alphabet, rules, verify=False)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(rule_sets())
def test_critical_pairs_match_pairwise_scan(system):
    assert system.critical_pairs() == reference_critical_pairs(system)
    assert system.check_complete() == reference_check_complete(system)


def test_critical_pairs_match_pairwise_scan_on_long_left_sides():
    # left sides up to 6 symbols, so one rule holds several others
    rng = random.Random(3390)
    for _ in range(400):
        alphabet = SMALL_ALPHABET[: rng.randint(1, 3)]
        pairs = [(tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 6))),
                  tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 4))))
                 for _ in range(rng.randint(0, 6))]
        system = RewritingSystem(alphabet, shortlex_oriented(alphabet, pairs), verify=False)
        assert system.critical_pairs() == reference_critical_pairs(system), system
        assert system.check_complete() == reference_check_complete(system), system


@pytest.mark.parametrize(
    "system",
    [comm2(), bicyclic(), integers(), rejected_ab(), rejected_same_last(),
     free_comm_system(10)],
    ids=["comm2", "bicyclic", "integers", "rejected-ab", "rejected-same-last",
         "free-comm10"],
)
def test_critical_pairs_match_pairwise_scan_on_fixed_systems(system):
    assert system.critical_pairs() == reference_critical_pairs(system)
    assert system.check_complete() == reference_check_complete(system)


# -- the left-side automaton ----------------------------------------------------------


def irreducible(system, word):
    return not any(
        word[p : p + len(r.lhs)] == r.lhs
        for r in system.rules
        for p in range(len(word) - len(r.lhs) + 1)
    )


def reads(automaton, system, word):
    """True when the automaton reads the whole word from state 0."""
    rank = {a: i for i, a in enumerate(system.alphabet)}
    state = 0
    for sym in word:
        state = automaton.delta[state][rank[sym]]
        if state < 0:
            return False
    return True


def has_irreducible_word_of_length(system, n):
    """Depth-first search for one irreducible word of length n; every
    prefix of an irreducible word is irreducible, so only those extend."""
    stack = [()]
    while stack:
        word = stack.pop()
        if len(word) == n:
            return True
        for sym in system.alphabet:
            longer = word + (sym,)
            if irreducible(system, longer):
                stack.append(longer)
    return False


@settings(max_examples=150, deadline=None, derandomize=True)
@given(rule_sets())
def test_automaton_reads_exactly_the_irreducible_words(system):
    automaton = LeftSideAutomaton(system)
    brute = [0] * 6
    for w in all_words(system.alphabet, 5):
        assert reads(automaton, system, w) == irreducible(system, w), (system, w)
        brute[len(w)] += irreducible(system, w)
    counts = list(itertools.islice(automaton.counts(), 6))
    assert counts + [0] * (6 - len(counts)) == brute
    assert all(counts)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(rule_sets())
def test_automaton_finiteness_matches_a_long_irreducible_word(system):
    # a factor-closed language is infinite exactly when it has a word as
    # long as the automaton has states, the trie of the left sides
    states = 1 + sum(len(r.lhs) for r in system.rules)
    finite = LeftSideAutomaton(system).is_finite()
    assert finite == (not has_irreducible_word_of_length(system, states)), system
    if finite:
        counts = list(LeftSideAutomaton(system).counts())
        assert sum(counts) == sum(
            irreducible(system, w) for w in all_words(system.alphabet, len(counts))
        )


def test_automaton_of_free_and_finite_systems():
    free = LeftSideAutomaton(RewritingSystem(("a", "b"), []))
    assert free.delta == [[0, 0]]
    assert not free.is_finite()
    assert list(itertools.islice(free.counts(), 5)) == [1, 2, 4, 8, 16]
    z3 = LeftSideAutomaton(RewritingSystem(("a",), [("aaa", "")]))
    assert z3.is_finite()
    assert list(z3.counts()) == [1, 1, 1]
    # a letter that is itself a left side is never read
    collapsed = LeftSideAutomaton(RewritingSystem(("a", "b"), [("b", "a")]))
    assert not collapsed.is_finite()
    assert list(itertools.islice(collapsed.counts(), 4)) == [1, 1, 1, 1]
