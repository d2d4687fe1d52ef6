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
small_words = st.lists(st.sampled_from(SMALL_ALPHABET), max_size=3).map(tuple)


@st.composite
def unverified_systems(draw):
    """Shortlex-reducing rule sets over a, b, c, complete or not."""
    rules = []
    for u, v in draw(st.lists(st.tuples(small_words, small_words), max_size=6)):
        if u != v:
            # ranks follow string order on this alphabet
            rules.append((u, v) if (len(v), v) < (len(u), u) else (v, u))
    return RewritingSystem(SMALL_ALPHABET, rules, verify=False)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(unverified_systems())
def test_normalize_matches_unindexed_scan_on_drawn_systems(system):
    for w in all_words(SMALL_ALPHABET, 6):
        assert system.normalize(w) == reference_normalize(system, w), (system, w)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(unverified_systems())
def test_normal_product_on_drawn_systems(system):
    nfs = sorted({system.normalize(w) for w in all_words(SMALL_ALPHABET, 3)})
    for u in nfs:
        for v in nfs:
            assert system.normal_product(u, v) == system.normalize(u + v), (system, u, v)
