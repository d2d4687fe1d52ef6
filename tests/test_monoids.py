"""Monoid backends: laws, naming, enumeration, products.

Word lengths from enumerate_out_ball are checked against a brute-force
shortest-word oracle that multiplies out every generator word by increasing
length, independently of the BFS under test.
"""

import itertools

import pytest

from semigeom import catalog, descriptions
from semigeom.errors import BackendMismatch, CapExceeded, UnknownSymbol
from semigeom.monoids import (
    DEFAULT_CAP,
    ProductMonoid,
    TableMonoid,
    TransformationMonoid,
    direct_product,
    enumerate_all,
    enumerate_out_ball,
)
from semigeom.rewriting import RewritingSystem
from semigeom.monoids import RewritingMonoid

CATALOG_SAMPLE_RADIUS = {
    "bicyclic": 3,
    "free1": 4,
    "free2": 3,
    "free-comm1": 4,
    "free-comm2": 3,
    "free-comm3": 2,
    "integers": 4,
    "one-a-zero": 4,
    "one-a-zero-b": 4,
    "t2": 4,
    "t3": 4,
    "z2": 4,
    "z3": 4,
    "trivial": 2,
}


def sample_elements(m, radius):
    return [le.element for le in enumerate_out_ball(m, radius, cap=100000)]


# -- laws over the whole catalog ------------------------------------------------


@pytest.mark.parametrize("name", sorted(CATALOG_SAMPLE_RADIUS))
def test_monoid_laws(name):
    m = catalog.monoid(name)
    xs = sample_elements(m, CATALOG_SAMPLE_RADIUS[name])[:12]
    e = m.identity
    for x in xs:
        assert m.multiply(e, x) == x
        assert m.multiply(x, e) == x
    for x in xs[:8]:
        for y in xs[:8]:
            for z in xs[:8]:
                assert m.multiply(m.multiply(x, y), z) == m.multiply(
                    x, m.multiply(y, z)
                )


def test_product_laws():
    m = catalog.product("bicyclic", "z2")
    xs = sample_elements(m, 2)[:10]
    e = m.identity
    for x in xs:
        assert m.multiply(e, x) == x == m.multiply(x, e)
    for x in xs[:6]:
        for y in xs[:6]:
            for z in xs[:6]:
                assert m.multiply(m.multiply(x, y), z) == m.multiply(
                    x, m.multiply(y, z)
                )


def test_backend_mismatch():
    m1 = catalog.monoid("free1")
    m2 = catalog.monoid("free2")
    with pytest.raises(BackendMismatch):
        m1.multiply(m1.identity, m2.identity)
    with pytest.raises(BackendMismatch):
        m1.element_name(m2.identity)


# -- naming and parsing ---------------------------------------------------------


def test_rewriting_names():
    m = catalog.monoid("bicyclic")
    assert m.element_name(m.identity) == "ε"
    assert m.parse_element("") == m.identity
    assert m.parse_element("ε") == m.identity
    b = m.generator("b")
    c = m.generator("c")
    assert m.element_name(m.multiply(b, c)) == "ε"  # bc collapses
    assert m.element_name(m.multiply(c, b)) == "cb"
    with pytest.raises(UnknownSymbol):
        m.parse_element("zz")
    with pytest.raises(UnknownSymbol):
        m.generator("z")


def test_transformation_names():
    m = catalog.monoid("t3")
    assert m.element_name(m.identity) == "012"
    s = m.generator("s")
    t = m.generator("t")
    assert m.element_name(s) == "120"
    assert m.element_name(t) == "102"
    # right action composes left-to-right: (s*t)(i) = t(s(i))
    assert m.element_name(m.multiply(s, t)) == "021"
    assert m.parse_element("021") == m.multiply(s, t)
    assert m.parse_element("(0,2,1)") == m.multiply(s, t)
    assert m.parse_element("[0, 2, 1]") == m.multiply(s, t)
    for bad in ("333", "zz", "01", "0123", "0,1,-1", "(0,1,3)", ""):
        with pytest.raises(ValueError, match="is not a list of 3 images in 0..2"):
            m.parse_element(bad)


def test_table_names():
    m = catalog.monoid("one-a-zero")
    a = m.parse_element("a")
    assert m.element_name(m.multiply(a, a)) == "0"
    with pytest.raises(UnknownSymbol):
        m.parse_element("x")


def test_product_names_round_trip():
    m = catalog.product("bicyclic", "z2")
    for _sym, g in m.generators():
        assert m.parse_element(m.element_name(g)) == g
    assert m.element_name(m.identity) == "(ε,0)"
    assert m.parse_element("(ε,0)") == m.identity
    with pytest.raises(ValueError):
        m.parse_element("no-parens")


def test_nested_product_parse():
    inner = catalog.product("z2", "z3")
    outer = ProductMonoid(inner, catalog.monoid("z2"))
    name = outer.element_name(outer.identity)
    assert name == "((0,0),0)"
    assert outer.parse_element(name) == outer.identity


# -- generators -----------------------------------------------------------------


def test_generator_listing():
    m = catalog.monoid("t3")
    assert m.generator_symbols == ("s", "t", "e")
    pairs = m.generators()
    assert [sym for sym, _ in pairs] == ["s", "t", "e"]
    for sym, g in pairs:
        assert m.generator(sym) == g


def test_extra_generators():
    system = RewritingSystem(("b", "c"), [("bc", "")])
    m = RewritingMonoid(system, extra_generators=[("d", "cb")])
    assert m.generator_symbols == ("b", "c", "d")
    assert m.generator("d") == m.parse_element("cb")
    ball = enumerate_out_ball(m, 1)
    names = {m.element_name(le.element): le.length for le in ball}
    assert names["cb"] == 1  # one step via the extra generator
    desc = m.description()
    assert desc["extra_generators"] == [["d", "cb"]]
    again = descriptions.load_monoid(desc)
    assert again.generator_symbols == ("b", "c", "d")


# -- enumeration ----------------------------------------------------------------


def brute_min_word_length(m, elem, radius):
    if elem == m.identity:
        return 0
    gens = [g for _s, g in m.generators()]
    for n in range(1, radius + 1):
        for word in itertools.product(gens, repeat=n):
            x = m.identity
            for g in word:
                x = m.multiply(x, g)
            if x == elem:
                return n
    return None


@pytest.mark.parametrize("name", ["bicyclic", "free2", "t2", "one-a-zero-b"])
def test_ball_lengths_match_brute_force(name):
    m = catalog.monoid(name)
    for le in enumerate_out_ball(m, 3):
        assert brute_min_word_length(m, le.element, 3) == le.length


def test_ball_lengths_nondecreasing_and_nested():
    m = catalog.monoid("bicyclic")
    small = enumerate_out_ball(m, 2)
    large = enumerate_out_ball(m, 4)
    lengths = [le.length for le in large]
    assert lengths == sorted(lengths)
    assert set(le.element for le in small) <= set(le.element for le in large)
    assert [le for le in large if le.length <= 2] == small


def test_ball_size_formulas():
    free2 = catalog.monoid("free2")
    assert len(enumerate_out_ball(free2, 5)) == 2**6 - 1
    comm2 = catalog.monoid("free-comm2")
    assert len(enumerate_out_ball(comm2, 5)) == 7 * 6 // 2
    bicyclic = catalog.monoid("bicyclic")
    # pairs c^x b^y with x + y <= 5
    assert len(enumerate_out_ball(bicyclic, 5)) == 7 * 6 // 2


def test_cap_exceeded():
    with pytest.raises(CapExceeded) as info:
        enumerate_out_ball(catalog.monoid("free2"), 25, cap=1000)
    assert info.value.cap == 1000
    assert "1000" in str(info.value)


def test_enumerate_all():
    assert len(enumerate_all(catalog.monoid("t3"))) == 27
    assert len(enumerate_all(catalog.monoid("z3"))) == 3
    assert len(enumerate_all(catalog.monoid("one-a-zero"))) == 3
    assert enumerate_all(catalog.monoid("free2"), cap=500) is None
    assert enumerate_all(catalog.monoid("bicyclic"), cap=500) is None


# -- table backend --------------------------------------------------------------


def test_table_validation():
    with pytest.raises(ValueError):
        TableMonoid(["x", "x"], [[0, 0], [0, 0]], 0)
    with pytest.raises(ValueError):
        TableMonoid(["e", "a"], [[0, 1]], 0)  # bad shape
    with pytest.raises(ValueError):
        TableMonoid(["e", "a"], [[0, 1], [1, 5]], 0)  # entry out of range
    with pytest.raises(ValueError, match="not associative"):
        # x*x = e, x*e = x but e*e = x: fails (ee)e = e(ee)
        TableMonoid(["e", "x"], [[1, 1], [1, 0]], 0)
    with pytest.raises(ValueError, match="identity"):
        TableMonoid(["e", "a"], [[0, 1], [1, 1]], 1)


def test_from_semigroup_adjoins_identity():
    # left-zero semigroup: xy = x, no identity
    m = TableMonoid.from_semigroup(["x", "y"], [["x", "x"], ["y", "y"]])
    assert sorted(m.names) == ["1", "x", "y"]
    assert m.element_name(m.identity) == "1"
    x = m.parse_element("x")
    y = m.parse_element("y")
    assert m.multiply(x, y) == x
    assert m.multiply(y, x) == y
    assert m.multiply(m.identity, x) == x


def test_from_semigroup_detects_existing_identity():
    m = TableMonoid.from_semigroup(["e", "a"], [["e", "a"], ["a", "e"]])
    assert m.names == ["e", "a"]
    assert m.element_name(m.identity) == "e"


def test_default_generators_are_all_non_identity():
    m = TableMonoid(["e", "a", "b"], [[0, 1, 2], [1, 2, 0], [2, 0, 1]], 0)
    assert m.generator_symbols == ("a", "b")


# -- products -------------------------------------------------------------------


def test_product_group_flavor_generators():
    m = catalog.product("z2", "z3")
    # right factor is a finite group: one generator per (left gen, group
    # element) plus the non-identity group fiber of the left identity
    assert m.generator_symbols == ("(1,0)", "(1,1)", "(1,2)", "(0,1)", "(0,2)")
    assert len(enumerate_all(m)) == 6

    m2 = catalog.product("one-a-zero", "z2")
    assert m2.generator_symbols == ("(a,0)", "(a,1)", "(1,1)")
    assert len(enumerate_all(m2)) == 6


def test_product_union_flavor_generators():
    m = catalog.product("z2", "free1")
    assert m.generator_symbols == ("(1,ε)", "(0,s)")
    # (p, s^k) has word length k + p: k steps of (0,s) plus p parity flips
    ball = enumerate_out_ball(m, 3)
    assert len(ball) == 7
    names = {m.element_name(le.element) for le in ball}
    assert "(1,ss)" in names


def counted_products(*factors):
    """Wrap each factor's _mul_key to record its calls in one list."""
    calls = []
    for m in factors:
        mul = m._mul_key

        def counted(a, b, mul=mul):
            calls.append((a, b))
            return mul(a, b)

        m._mul_key = counted
    return calls


@pytest.mark.parametrize("left,right,products", [
    ("z2", "bicyclic", 0), ("z2", "free2", 0), ("z2", "z3", 3), ("z2", "t2", 8)])
def test_product_probes_only_a_factor_not_proved_infinite(left, right, products):
    # a right factor proved infinite is not a finite group: no probe (the
    # probe made 8,013 products for bicyclic); finite ones still probe, with
    # one product per element and generator and none for the group test
    lm, rm = catalog.monoid(left), catalog.monoid(right)
    calls = counted_products(lm, rm)
    m = ProductMonoid(lm, rm)
    assert len(calls) == products
    assert m.right_is_group == (right == "z3")


def test_product_multiplication_is_componentwise():
    m = catalog.product("bicyclic", "z2")
    x = m.parse_element("(b,1)")
    y = m.parse_element("(c,1)")
    assert m.element_name(m.multiply(x, y)) == "(ε,0)"
    assert m.element_name(m.multiply(y, x)) == "(cb,0)"


def test_direct_product_alias():
    m = direct_product(catalog.monoid("z2"), catalog.monoid("z2"))
    assert len(enumerate_all(m)) == 4


# -- descriptions ---------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(CATALOG_SAMPLE_RADIUS))
def test_description_round_trip(name):
    m = catalog.monoid(name)
    again = descriptions.load_monoid(m.description())
    assert again.description() == m.description()
    assert again.generator_symbols == m.generator_symbols
    ball1 = enumerate_out_ball(m, 3, cap=10000)
    ball2 = enumerate_out_ball(again, 3, cap=10000)
    assert [m.element_name(le.element) for le in ball1] == [
        again.element_name(le.element) for le in ball2
    ]


def test_product_description_round_trip():
    m = catalog.product("integers", "z2")
    again = descriptions.load_monoid(m.description())
    assert isinstance(again, ProductMonoid)
    assert again.generator_symbols == m.generator_symbols


def test_load_monoid_rejects_non_confluent_rules():
    with pytest.raises(ValueError, match="aba"):
        descriptions.load_monoid(
            {"kind": "rewriting", "alphabet": ["a", "b"],
             "rules": [["ab", "a"], ["ba", "b"]]}
        )


def test_load_monoid_unknown_kind():
    with pytest.raises(ValueError):
        descriptions.load_monoid({"kind": "mystery"})
