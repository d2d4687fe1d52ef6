"""Growth sequences, domination witnesses, classification, ends.

Closed forms used as oracles:
  free rank 2         g(m) = 2^(m+1) - 1
  free commutative r  g(m) = C(m+r, r)
  integers            g(m) = 2m + 1
  bicyclic            g(m) = (m+1)(m+2)/2
"""

import itertools
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import free_comm_system
from semigeom import catalog, growth
from semigeom.errors import CapExceeded
from semigeom.geometry import check_product_projection_qi
from semigeom.growth import (
    EndsProfile,
    Exponential,
    GrowingAtLeast,
    GrowthSequence,
    Inconclusive,
    Polynomial,
    Stable,
    Witness,
    check_domination,
    classify_growth,
    dominates_within,
    ends_profile,
    growth_sequence,
)
from semigeom.monoids import (
    RewritingMonoid,
    enumerate_all,
    enumerate_out_ball,
    proved_infinite,
)
from semigeom.rewriting import LeftSideAutomaton, RewritingSystem


def free2_formula(window):
    return GrowthSequence(tuple(2 ** (m + 1) - 1 for m in range(window + 1)))


def comm_formula(rank, window):
    return GrowthSequence(
        tuple(math.comb(m + rank, rank) for m in range(window + 1))
    )


def integers_formula(window):
    return GrowthSequence(tuple(2 * m + 1 for m in range(window + 1)))


def seq(name, mmax, cap=10**6):
    return growth_sequence(catalog.monoid(name), mmax, cap)


# -- sequences ---------------------------------------------------------------------


def test_growth_matches_closed_forms():
    assert seq("free1", 12).values == tuple(m + 1 for m in range(13))
    assert seq("free2", 12).values == free2_formula(12).values
    assert seq("free-comm1", 12).values == comm_formula(1, 12).values
    assert seq("free-comm2", 12).values == comm_formula(2, 12).values
    assert seq("free-comm3", 12).values == comm_formula(3, 12).values
    assert seq("integers", 12).values == integers_formula(12).values
    assert seq("bicyclic", 12).values == tuple(
        (m + 1) * (m + 2) // 2 for m in range(13)
    )


def test_growth_of_finite_monoids_stabilizes():
    t3 = seq("t3", 10)
    assert t3.values[0] == 1
    assert t3.values[-1] == 27
    assert seq("one-a-zero", 6).values == (1, 2, 3, 3, 3, 3, 3)
    assert seq("z3", 6).values == (1, 2, 3, 3, 3, 3, 3)
    assert seq("trivial", 8).values == (1,) * 9


def test_growth_basic_shape():
    for name in catalog.names():
        g = seq(name, 8)
        assert g[0] == 1
        assert all(g[m] <= g[m + 1] for m in range(g.window))
        assert g.window == 8 and len(g) == 9


def test_growth_agrees_with_ball_enumeration():
    for name, mmax in (("bicyclic", 6), ("free2", 5), ("t2", 6)):
        m = catalog.monoid(name)
        g = growth_sequence(m, mmax)
        for r in range(mmax + 1):
            assert g[r] == len(enumerate_out_ball(m, r))


def test_growth_cap():
    with pytest.raises(CapExceeded):
        growth_sequence(catalog.monoid("free2"), 12, cap=100)


def test_growth_label_is_description():
    g = seq("z2", 3)
    assert "table" in g.label


# -- domination ----------------------------------------------------------------------


def test_domination_reflexive():
    g = seq("bicyclic", 10)
    assert dominates_within(g, g, 3, 3) == Witness(1, 0, (0, 10))


def test_linear_below_quadratic():
    a1 = seq("integers", 30)
    a2 = seq("free-comm2", 30)
    assert dominates_within(a1, a2, 10, 10) == Witness(1, 0, (0, 30))


def test_quadratic_below_linear_on_a_window_only():
    # (t+1)(t+2)/2 <= 2*(2(2t+2)+1) + 2 holds up to t = 14 and fails at 15;
    # the witness only ever claims the checked range
    a1 = seq("free-comm2", 30)
    a2 = seq("integers", 30)
    w = dominates_within(a1, a2, 10, 10)
    assert w == Witness(2, 2, (0, 14))
    assert check_domination(a1, a2, 2, 2) == list(range(15))


def test_exponential_never_below_quadratic_within_bounds():
    a1 = free2_formula(30)
    a2 = comm_formula(2, 310)  # deep enough that every t is checked
    assert dominates_within(a1, a2, 10, 10) is None
    assert check_domination(a1, a2, 10, 10) is None


def test_generating_set_change_is_mutual_domination():
    from semigeom.rewriting import RewritingSystem
    from semigeom.monoids import RewritingMonoid

    plain = catalog.monoid("bicyclic")
    system = RewritingSystem(["b", "c"], [("bc", "")])
    extra = RewritingMonoid(system, extra_generators=[("d", "cb")])
    g1 = growth_sequence(plain, 5)
    g2 = growth_sequence(extra, 5)
    assert g1.values == (1, 3, 6, 10, 15, 21)
    assert g2.values == (1, 4, 8, 13, 19, 26)
    assert dominates_within(g1, g2, 2, 2) == Witness(1, 0, (0, 5))
    assert dominates_within(g2, g1, 2, 2) == Witness(1, 1, (0, 4))


def test_domination_composes():
    a = seq("free-comm2", 30)
    b = seq("integers", 62)
    c = free2_formula(130)
    w1 = dominates_within(a, b, 10, 10)
    w2 = dominates_within(b, c, 10, 10)
    assert w1 is not None and w2 is not None
    lam = w1.lam * w2.lam
    cc = w2.lam * w1.c + w2.c + w1.lam * w2.c + w1.c
    checked = check_domination(a, c, lam, cc)
    assert checked is not None and checked[0] == 0 and len(checked) == 31


def test_product_with_z2_dominates_both_ways():
    for name in ("integers", "bicyclic"):
        base = growth_sequence(catalog.monoid(name), 12)
        prod = growth_sequence(catalog.product(name, "z2"), 12)
        assert dominates_within(base, prod, 2, 2) is not None
        assert dominates_within(prod, base, 2, 2) is not None


# -- classification --------------------------------------------------------------------


def test_classify_polynomial_ranks():
    assert classify_growth(comm_formula(1, 40)) == Polynomial(1)
    assert classify_growth(comm_formula(2, 40)) == Polynomial(2)
    assert classify_growth(comm_formula(3, 40)) == Polynomial(3)
    assert classify_growth(seq("bicyclic", 40)) == Polynomial(2)


def test_classify_exponential():
    enumerated = seq("free2", 16)
    assert enumerated.values == free2_formula(16).values
    assert classify_growth(enumerated) == Exponential(2.0)
    assert classify_growth(free2_formula(20)) == Exponential(2.0)


def test_classify_constant():
    assert classify_growth(seq("t3", 16)) == Polynomial(0)
    assert classify_growth(seq("trivial", 10)) == Polynomial(0)


def test_classify_inconclusive_on_staircase():
    values = (1, 1, 1, 1, 1, 1000, 1000, 1000, 10**6, 10**6, 10**6, 10**9, 10**9)
    verdict = classify_growth(GrowthSequence(values))
    assert isinstance(verdict, Inconclusive)
    assert "residual" in verdict.reason


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_classify_names_free_commutative_rank(k):
    full = growth_sequence(RewritingMonoid(free_comm_system(k)), 13)
    assert full.values == comm_formula(k, 13).values
    for w in range(8, 14):
        assert classify_growth(GrowthSequence(full.values[: w + 1])) == Polynomial(k), w


def test_classify_keeps_other_catalog_verdicts():
    for w in range(8, 14):
        assert classify_growth(seq("bicyclic", w)) == Polynomial(2)
        assert classify_growth(seq("integers", w)) == Polynomial(1)
        assert classify_growth(seq("free2", w)) == Exponential(2.01 if w <= 10 else 2.0)


def test_classify_needs_window():
    with pytest.raises(ValueError):
        classify_growth(seq("integers", 7))


# -- ends --------------------------------------------------------------------------------


def test_ends_one_ray():
    p = ends_profile(catalog.monoid("free1"), 5, 20)
    assert p.counts == (1, 1, 1, 1, 1, 1)
    assert p.counts_inner == p.counts
    assert p.verdict == Stable(1)
    assert p.horizon == 20 and p.outer_radius == 20
    assert p.inner_radii == (0, 1, 2, 3, 4, 5)


def test_ends_two_rays():
    p = ends_profile(catalog.monoid("integers"), 5, 20)
    assert p.verdict == Stable(2)
    assert p.counts == (2,) * 6


def test_ends_tree_grows():
    p = ends_profile(catalog.monoid("free2"), 4, 12)
    assert p.counts == (2, 4, 8, 16, 32)
    assert p.verdict == GrowingAtLeast((2, 4, 8, 16, 32))


def test_ends_finite_monoid():
    p = ends_profile(catalog.monoid("z3"), 2, 5)
    assert p.counts == (0, 0, 0)
    assert p.verdict == Stable(0)
    # the sweep once allocated and walked one layer per radius value, so
    # its cost grew with the radius and not with the ball
    p = ends_profile(catalog.monoid("t3"), 2, 10**30)
    assert p.counts == p.counts_inner == (0, 0, 0)
    assert p.verdict == Stable(0) and p.horizon == 10**30


def test_ends_bicyclic_columns():
    # right-multiplication edges only tie the columns c^i b^* together along
    # the b-free axis, so cutting the radius-k ball strands k+2 components
    p = ends_profile(catalog.monoid("bicyclic"), 3, 10)
    assert p.counts == (2, 3, 4, 5)
    assert p.counts_inner == (2, 3, 4, 5)
    assert p.verdict == GrowingAtLeast((2, 3, 4, 5))


def test_ends_product_with_z2_agrees():
    base = ends_profile(catalog.monoid("integers"), 4, 12)
    prod = ends_profile(catalog.product("integers", "z2"), 4, 12)
    assert base.verdict == Stable(2)
    assert prod.verdict == Stable(2)


def test_ends_validation():
    m = catalog.monoid("integers")
    with pytest.raises(ValueError):
        ends_profile(m, 3, 0)
    with pytest.raises(ValueError):
        ends_profile(m, 5, 5)


# -- quasi-isometry invariants of M and M x G ------------------------------------------


INFINITE_CATALOG = ["free1", "free2", "free-comm1", "free-comm2", "free-comm3",
                    "bicyclic", "integers"]


@pytest.mark.parametrize("factor", ["z2", "z3"])
@pytest.mark.parametrize("name", INFINITE_CATALOG)
def test_product_with_a_finite_group_keeps_the_invariants(name, factor):
    # M x G projects onto M with fibers of diameter 1, so the two are
    # quasi-isometric and share growth and ends
    m = catalog.monoid(name)
    pm = catalog.product(name, factor)
    assert check_product_projection_qi(pm, 4).ok
    a, b = growth_sequence(m, 8), growth_sequence(pm, 8)
    assert dominates_within(a, b, 4, 8) is not None
    assert dominates_within(b, a, 4, 8) is not None
    base, prod = ends_profile(m, 4, 8).verdict, ends_profile(pm, 4, 8).verdict
    if isinstance(base, Stable):
        assert prod == base
    else:
        # e(0, r) alone may differ: the rest of the identity's fiber stays in
        # and joins branches that removing the identity separates in M
        assert isinstance(base, GrowingAtLeast) and isinstance(prod, GrowingAtLeast)
        assert prod.counts[1:] == base.counts[1:]


# -- ends against the re-multiplied adjacency and the per-k component search ----------


def _sphere_components(lengths, adjacency, k, sphere):
    """Components of the subgraph on {l > k} that meet the given sphere,
    by one search per component (ends_profile's former count)."""
    n = len(lengths)
    seen = [False] * n
    hits = 0
    for s in range(n):
        if seen[s] or lengths[s] <= k:
            continue
        seen[s] = True
        queue = [s]
        touches = False
        while queue:
            u = queue.pop()
            if lengths[u] == sphere:
                touches = True
            for v in adjacency[u]:
                if not seen[v] and lengths[v] > k:
                    seen[v] = True
                    queue.append(v)
        if touches:
            hits += 1
    return hits


def reference_ends_profile(m, kmax, r, cap):
    """ends_profile with its former adjacency: enumerate the ball, then
    multiply every element by every generator again."""
    ball = enumerate_out_ball(m, r, cap)
    index = {le.element.key: i for i, le in enumerate(ball)}
    lengths = [le.length for le in ball]
    adjacency = [set() for _ in ball]
    gens = [g for _, g in m.generators()]
    for i, le in enumerate(ball):
        for g in gens:
            j = index.get(m.multiply(le.element, g).key)
            if j is not None and j != i:
                adjacency[i].add(j)
                adjacency[j].add(i)
    ks = tuple(range(kmax + 1))
    counts = tuple(_sphere_components(lengths, adjacency, k, r) for k in ks)
    keep = [i for i in range(len(ball)) if lengths[i] <= r - 1]
    remap = {old: new for new, old in enumerate(keep)}
    in_lengths = [lengths[i] for i in keep]
    in_adj = [{remap[v] for v in adjacency[i] if lengths[v] <= r - 1} for i in keep]
    counts_inner = tuple(_sphere_components(in_lengths, in_adj, k, r - 1) for k in ks)
    top = ks[len(ks) // 2:]
    stable_n = counts[top[0]]
    if all(counts[k] == stable_n for k in top) and all(
        counts_inner[k] == stable_n for k in top
    ):
        verdict = Stable(stable_n)
    elif all(counts[i] < counts[i + 1] for i in range(len(counts) - 1)):
        verdict = GrowingAtLeast(counts)
    else:
        verdict = Inconclusive("counts neither stable on top half nor increasing")
    return EndsProfile(ks, r, counts, counts_inner, verdict, r)


# (name, (radius, kmax) pairs) as the ends jobs of the benchmark run them
ENDS_CASES = [
    ("free2", [(5, 2), (8, 4)]),
    ("free-comm2", [(6, 3), (10, 4)]),
    ("free-comm3", [(5, 2), (8, 3)]),
    ("bicyclic", [(6, 3), (12, 4)]),
    ("integers", [(8, 2), (16, 4)]),
]


@pytest.mark.parametrize("name,cases", ENDS_CASES, ids=[c[0] for c in ENDS_CASES])
def test_ends_matches_remultiplied_adjacency(name, cases):
    m = catalog.monoid(name)
    for r, kmax in cases:
        assert ends_profile(m, kmax, r) == reference_ends_profile(m, kmax, r, 10**6)
    r, kmax = cases[0]
    size = len(enumerate_out_ball(m, r))
    for cap in range(1, size + 2):
        try:
            want = reference_ends_profile(m, kmax, r, cap)
        except CapExceeded:
            with pytest.raises(CapExceeded):
                ends_profile(m, kmax, r, cap=cap)
        else:
            assert ends_profile(m, kmax, r, cap=cap) == want


@pytest.mark.parametrize("factor", [None, "z2", "z3"])
@pytest.mark.parametrize("name", catalog.names())
def test_ends_sweep_matches_per_k_searches(name, factor):
    m = catalog.monoid(name) if factor is None else catalog.product(name, factor)
    for r in range(1, 8):
        for kmax in range(r):
            assert ends_profile(m, kmax, r) == reference_ends_profile(m, kmax, r, 10**6)


def test_ends_makes_one_product_per_slot():
    m = catalog.monoid("free-comm3")
    products = []
    mul = m._mul_key

    def counted(a, b):
        products.append((a, b))
        return mul(a, b)

    m._mul_key = counted
    ends_profile(m, 4, 8)
    # the radius-8 ball of free-comm3 has C(11, 3) = 165 elements
    assert len(products) == 165 * 3 == len(set(products))


# -- counted growth of rewriting monoids against enumeration -----------------------


def rewriting(alphabet, rules, extra=()):
    return RewritingMonoid(RewritingSystem(alphabet, rules), extra)


def enumerated_growth(m, mmax, cap=10**6):
    """Ball sizes from the breadth-first enumeration alone."""
    spheres = [0] * (mmax + 1)
    for le in enumerate_out_ball(m, mmax, cap):
        spheres[le.length] += 1
    return tuple(itertools.accumulate(spheres))


def no_enumeration(*args, **kwargs):
    raise AssertionError("growth of a rewriting monoid was enumerated")


# the catalog's rewriting monoids and the seven benchmark systems; each
# window is 12 unless the ball would pass 20,000 elements
COUNTED = [(name, 12) for name in ("bicyclic", "free1", "free2", "free-comm1",
                                   "free-comm2", "free-comm3", "integers")]
COUNTED += [("free-comm4", 12), ("free-comm6", 10), ("free-comm10", 7)]


def counted_monoid(name):
    if name.startswith("free-comm") and name not in catalog.names():
        return RewritingMonoid(free_comm_system(int(name[len("free-comm"):])))
    return catalog.monoid(name)


@pytest.mark.parametrize("name, mmax", COUNTED, ids=[n for n, _ in COUNTED])
def test_growth_counts_match_enumeration(monkeypatch, name, mmax):
    m = counted_monoid(name)
    expected = enumerated_growth(m, mmax)
    monkeypatch.setattr(growth, "enumerate_out_ball", no_enumeration)
    assert growth_sequence(m, mmax).values == expected


FINITE_SYSTEMS = [
    (("a",), [("aaa", "")]),                          # Z3
    (("a",), [("aa", "a")]),                          # {1, a}
    (("a", "b"), [("aa", "a"), ("bb", "b"), ("ab", "a"), ("ba", "b")]),
    (("a", "b"), [("b", "a"), ("aa", "")]),           # Z2, b a second name of a
    (("a", "b"), [("aa", ""), ("bb", ""), ("bab", "aba")]),  # S3
]


@pytest.mark.parametrize("alphabet, rules", FINITE_SYSTEMS)
def test_finite_rewriting_monoids_are_counted_and_decided(monkeypatch, alphabet, rules):
    m = rewriting(alphabet, rules)
    elements = enumerate_all(m)
    assert elements is not None
    expected = enumerated_growth(m, 12)
    assert expected[-1] == len(elements)
    assert not proved_infinite(m)
    monkeypatch.setattr(growth, "enumerate_out_ball", no_enumeration)
    assert growth_sequence(m, 12).values == expected


@pytest.mark.parametrize("name", ["bicyclic", "free1", "free2", "free-comm1",
                                  "free-comm2", "free-comm3", "integers"])
def test_infinite_rewriting_monoids_are_proved_infinite(name):
    m = catalog.monoid(name)
    assert proved_infinite(m)
    assert enumerate_all(m, 2000) is None


SMALL = ("a", "b", "c")


@st.composite
def complete_systems(draw):
    """Complete shortlex systems over 1-3 letters with left sides of up to
    3 letters."""
    alphabet = SMALL[: draw(st.integers(1, 3))]
    words = st.lists(st.sampled_from(alphabet), max_size=3).map("".join)
    rules = []
    for u, v in draw(st.lists(st.tuples(words, words), max_size=4)):
        if u != v:
            # ranks follow string order on this alphabet
            rules.append((u, v) if (len(v), v) < (len(u), u) else (v, u))
    system = RewritingSystem(alphabet, rules)
    assume(system.is_complete)
    return system


@settings(max_examples=200, deadline=None, derandomize=True)
@given(complete_systems())
def test_growth_counts_match_enumeration_on_drawn_systems(system):
    m = RewritingMonoid(system)
    assert growth_sequence(m, 7).values == enumerated_growth(m, 7)
    # drawn finite monoids have at most a few elements, far below the cap
    elements = enumerate_all(m, 500)
    assert proved_infinite(m) == (elements is None)
    if elements is not None:
        assert growth_sequence(m, 30).values[-1] == len(elements)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(complete_systems(), st.integers(1, 6))
def test_ends_sweep_matches_per_k_searches_on_drawn_systems(system, r):
    m = RewritingMonoid(system)
    assert ends_profile(m, r - 1, r) == reference_ends_profile(m, r - 1, r, 10**6)


@pytest.mark.parametrize("name, mmax", [("free2", 6), ("bicyclic", 8), ("integers", 9),
                                        ("free-comm3", 5), ("t3", 4), ("free2 x z2", 3)])
def test_growth_cap_is_exceeded_exactly_when_the_ball_passes_it(name, mmax):
    if " x " in name:
        m = catalog.product(*name.split(" x "))
    else:
        m = catalog.monoid(name)
    size = len(enumerate_out_ball(m, mmax))
    for cap in range(0, size + 2):
        try:
            enumerate_out_ball(m, mmax, cap)
            enumerated = False
        except CapExceeded:
            enumerated = True
        try:
            g = growth_sequence(m, mmax, cap)
            counted = False
        except CapExceeded as e:
            assert e.cap == cap
            counted = True
        assert counted == enumerated, cap
        if cap >= 1:
            assert counted == (size > cap), cap
        if not counted:
            assert g[mmax] == size


def test_growth_cap_of_zero_allows_the_identity():
    assert growth_sequence(catalog.monoid("free2"), 0, cap=0).values == (1,)
    assert growth_sequence(rewriting(("a",), [("a", "")]), 5, cap=0).values == (1,) * 6
    with pytest.raises(CapExceeded):
        growth_sequence(catalog.monoid("free2"), 1, cap=0)


def test_huge_window_on_a_finite_system_stops_counting(monkeypatch):
    automaton = LeftSideAutomaton(RewritingSystem(("a",), [("aaa", "")]))
    assert list(automaton.counts()) == [1, 1, 1]
    monkeypatch.setattr(growth, "enumerate_out_ball", no_enumeration)
    g = growth_sequence(rewriting(("a",), [("aaa", "")]), 10**6, cap=3)
    assert g.window == 10**6
    assert g.values[:4] == (1, 2, 3, 3) and g[10**6] == 3


def test_extra_generators_are_enumerated(monkeypatch):
    m = rewriting(("a", "b"), [("ba", "ab")], extra=[("c", "ab")])
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return enumerate_out_ball(*args, **kwargs)

    monkeypatch.setattr(growth, "enumerate_out_ball", counted)
    g = growth_sequence(m, 6)
    assert calls == [6]
    assert g.values == enumerated_growth(m, 6)
    # the extra generator ab shortens words, so word length is not
    # normal-form length
    assert g.values != comm_formula(2, 6).values
