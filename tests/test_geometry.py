"""Spaces, embeddings, symmetrization, search, quotients.

The 5-point directed line (forward distance j-i, one unit back) is the
workhorse example: its quasi-metricity constant, symmetrization, and both
certificates are frozen by hand.
"""

import random
from fractions import Fraction

import pytest

from conftest import rand_space
from semigeom import catalog, cayley, geometry, green, growth, rewriting
from semigeom.distances import INFINITE, ZERO, beyond, finite, scaled_rows
from semigeom.errors import (
    CapExceeded,
    InvalidSpace,
    NotACongruence,
    NotStronglyConnected,
)
from semigeom.geometry import (
    PairViolation,
    QiConstants,
    SearchResult,
    check_axioms,
    check_product_projection_qi,
    check_qi_embedding,
    check_quasi_isometry,
    check_quotient_qi,
    eps_grid,
    is_congruence,
    is_strongly_connected,
    make_space,
    monoid_space,
    quasi_density,
    quasi_metricity_lambda,
    search_quasi_isometry,
    space_from_ball,
    symmetrize,
)


def line5():
    n = 5
    d = [[0 if i == j else (j - i if j > i else 1) for j in range(n)]
         for i in range(n)]
    return make_space(["g%d" % i for i in range(n)], d)


def chain2():
    return make_space(["u", "v"], [[0, 1], [None, 0]])


def sym2():
    return make_space(["u", "v"], [[0, 1], [1, 0]])


def point1():
    return make_space(["p"], [[0]])


def path3():
    return make_space(["x", "y", "z"], [[0, 1, 2], [1, 0, 1], [2, 1, 0]])


# -- axioms and construction ------------------------------------------------------


def test_axiom_violations_in_order():
    bad_diag = [[finite(1)]]
    v = check_axioms(["p"], bad_diag)
    assert (v.kind, v.points) == ("diagonal", (0,))

    zero_off = [[finite(0), finite(0)], [finite(1), finite(0)]]
    v = check_axioms(["u", "v"], zero_off)
    assert (v.kind, v.points) == ("positivity", (0, 1))

    tri = [[finite(0), finite(1), finite(3)],
           [finite(1), finite(0), finite(1)],
           [finite(3), finite(1), finite(0)]]
    v = check_axioms(["x", "y", "z"], tri)
    assert (v.kind, v.points) == ("triangle", (0, 1, 2))


def test_infinite_on_the_short_side_breaks_triangle():
    # d(x,z) infinite but d(x,y), d(y,z) finite: no detour may exist
    m = [[finite(0), finite(1), INFINITE],
         [INFINITE, finite(0), finite(1)],
         [INFINITE, INFINITE, finite(0)]]
    v = check_axioms(["x", "y", "z"], m)
    assert (v.kind, v.points) == ("triangle", (0, 1, 2))


def test_beyond_entries_never_witness():
    m = [[finite(0), beyond(3), finite(10)],
         [beyond(3), finite(0), beyond(3)],
         [finite(10), beyond(3), finite(0)]]
    assert check_axioms(["x", "y", "z"], m) is None


def test_make_space():
    s = chain2()
    assert s.d(0, 1) == finite(1)
    assert s.d(1, 0) == INFINITE
    assert s.index("v") == 1
    assert s.exact
    with pytest.raises(InvalidSpace) as info:
        make_space(["p"], [[1]])
    assert info.value.violation.kind == "diagonal"


def test_space_from_ball():
    full = cayley.full_cayley_graph(catalog.monoid("one-a-zero"))
    s = space_from_ball(full)
    assert s.points == ("1", "a", "0")
    assert s.exact
    truncated = cayley.build_cayley_ball(catalog.monoid("bicyclic"), 2)
    s2 = space_from_ball(truncated)
    assert not s2.exact  # horizon stamps on undecided pairs


def test_is_strongly_connected():
    assert is_strongly_connected(sym2())
    assert not is_strongly_connected(chain2())


# -- quasi-metricity ---------------------------------------------------------------


def test_lambda_on_symmetric_space():
    assert quasi_metricity_lambda(sym2()) == 1
    assert quasi_metricity_lambda(path3()) == 1


def test_lambda_on_directed_line():
    assert quasi_metricity_lambda(line5()) == 4
    assert quasi_metricity_lambda(line5(), eps=1) == 3
    assert quasi_metricity_lambda(line5(), eps=3) == 1


def test_lambda_not_strongly_connected():
    assert quasi_metricity_lambda(chain2()) is None


def test_lambda_monotone_in_eps():
    rng = random.Random(11)
    for _ in range(10):
        s = rand_space(rng, rng.randint(2, 6))
        lams = [quasi_metricity_lambda(s, e) for e in (0, Fraction(1, 2), 1, 2)]
        assert all(l >= 1 for l in lams)
        assert lams == sorted(lams, reverse=True)


def test_lambda_is_tight():
    # the returned constant certifies, and nothing smaller does
    rng = random.Random(12)
    for _ in range(10):
        s = rand_space(rng, rng.randint(2, 6))
        lam = quasi_metricity_lambda(s)
        pairs = [
            (s.d(i, j).value, s.d(j, i).value)
            for i in range(len(s)) for j in range(len(s)) if i != j
        ]
        assert all(back <= lam * fwd for fwd, back in pairs)
        if lam > 1:
            assert any(back == lam * fwd for fwd, back in pairs)


# -- embeddings ---------------------------------------------------------------------


def test_identity_embedding():
    for s in (sym2(), line5(), chain2()):
        emb = check_qi_embedding(tuple(range(len(s))), s, s, 1, 0)
        assert emb.ok and emb.violation is None
        assert emb.checked == len(s) ** 2 and emb.skipped == 0


def test_collapse_reports_first_lower_violation():
    src = make_space(["x", "y", "z"],
                     [[0, 1, 2], [None, 0, 1], [None, None, 0]])
    emb = check_qi_embedding((0, 0, 0), src, point1(), 1, Fraction(1, 2))
    assert not emb.ok
    assert emb.violation == PairViolation(0, 1, "lower")
    # with a looser epsilon the first failing pair moves further out
    emb = check_qi_embedding((0, 0, 0), src, point1(), 1, 1)
    assert emb.violation == PairViolation(0, 2, "lower")


def test_upper_violation_on_separated_target():
    target = make_space(["u", "v"], [[0, None], [None, 0]])
    emb = check_qi_embedding((0, 1), sym2(), target, 1, 10)
    assert not emb.ok
    assert emb.violation == PairViolation(0, 1, "upper")


def test_infinite_pairs_must_match():
    # an infinite source distance mapped to a finite one fails the lower bound
    emb = check_qi_embedding((0, 1), chain2(), sym2(), 10, 10)
    assert not emb.ok
    assert emb.violation == PairViolation(1, 0, "lower")
    # infinite to infinite is fine
    emb = check_qi_embedding((0, 1), chain2(), chain2(), 1, 0)
    assert emb.ok


def test_embedding_skips_horizon_pairs():
    ball = cayley.build_cayley_ball(catalog.monoid("bicyclic"), 2)
    s = space_from_ball(ball)
    n = len(s)
    stamped = sum(
        1
        for i in range(n) for j in range(n)
        if s.d(i, j).is_beyond() or s.d(j, i).is_beyond()
    )
    assert stamped > 0
    emb = check_qi_embedding(tuple(range(n)), s, s, 1, 0)
    assert emb.ok
    assert emb.skipped > 0
    assert emb.checked + emb.skipped == n * n


def test_ball_inclusion_is_isometric_where_decided():
    m = catalog.monoid("bicyclic")
    small = space_from_ball(cayley.build_cayley_ball(m, 3))
    large_ball = cayley.build_cayley_ball(m, 5)
    large = space_from_ball(large_ball)
    f = tuple(large.index(p) for p in small.points)
    emb = check_qi_embedding(f, small, large, 1, 0)
    assert emb.ok and emb.skipped > 0


# -- density and full QI checks ------------------------------------------------------


def test_quasi_density():
    assert quasi_density((0, 1, 2), path3(), path3()) == ZERO
    assert quasi_density((0, 2), sym2(), path3()) == finite(1)
    separated = make_space(["u", "v"], [[0, None], [None, 0]])
    assert quasi_density((0,), point1(), separated) == INFINITE
    ball = space_from_ball(cayley.build_cayley_ball(catalog.monoid("bicyclic"), 2))
    bb = ball.index("bb")
    assert quasi_density((bb,), point1(), ball) == beyond(2)


def test_check_quasi_isometry():
    s = sym2()
    rep = check_quasi_isometry((0, 1), s, s, QiConstants(1, 1, 0))
    assert rep.ok and rep.mu == ZERO and rep.mu_ok
    rep = check_quasi_isometry((0, 2), sym2(), path3(), QiConstants(2, 1, 0))
    assert not rep.ok and not rep.mu_ok  # embedding fine, but mu = 1 > 0
    assert rep.embedding.ok
    rep = check_quasi_isometry((0, 2), sym2(), path3(), QiConstants(2, 1, 1))
    assert rep.ok and rep.mu == finite(1)


def test_compose_embeddings_replay():
    """f: a -> 2a is a (2, 0)-embedding and g: 2a -> 2a + 1 a (1, 1) one, so
    g o f is a (2 * 1, 1 * 0 + 1)-embedding."""
    rng = random.Random(13)
    for _ in range(8):
        a = rand_space(rng, 4)
        doubled = geometry.Space(
            a.points, scaled_rows([[d.scaled(2) for d in row] for row in a.dist])
        )
        bumped = geometry.Space(
            a.points,
            scaled_rows([
                [d.scaled(2).plus(1) if i != j else d
                 for j, d in enumerate(row)]
                for i, row in enumerate(a.dist)
            ]),
        )
        ident = tuple(range(len(a)))
        assert check_qi_embedding(ident, a, doubled, 2, 0).ok
        assert check_qi_embedding(ident, doubled, bumped, 1, 1).ok
        assert check_qi_embedding(ident, a, bumped, 2, 1).ok


# -- symmetrization -------------------------------------------------------------------


def test_symmetrize_symmetric_space():
    res = symmetrize(sym2())
    assert res.lam == 1 and res.eps == 0
    assert res.forward == QiConstants(2, 0, 0)
    assert res.space.d(0, 1) == finite(2)  # d' doubles a symmetric d
    assert res.metric_ok and res.forward_ok and res.backward_ok
    assert (res.backward_lam, res.backward_eps) == (4, 0)


def test_symmetrize_directed_line():
    res = symmetrize(line5(), eps=1)
    assert res.lam == 3
    assert res.forward == QiConstants(4, 1, 0)
    assert (res.backward_lam, res.backward_eps) == (16, 8)
    assert res.metric_ok and res.forward_ok and res.backward_ok
    # d'(g0, gi) = i + 1: forward distance plus the unit return
    assert [res.space.d(0, j) for j in range(5)] == [
        finite(v) for v in (0, 2, 3, 4, 5)
    ]


def test_symmetrize_single_point():
    res = symmetrize(point1())
    assert res.lam == 1 and res.metric_ok and res.forward_ok and res.backward_ok


def test_symmetrize_needs_strong_connectivity():
    with pytest.raises(NotStronglyConnected):
        symmetrize(chain2())


def test_symmetrize_random_spaces():
    rng = random.Random(17)
    for _ in range(20):
        s = rand_space(rng, rng.randint(2, 7))
        eps = rng.choice((Fraction(0), Fraction(1, 2), Fraction(1)))
        res = symmetrize(s, eps)
        assert res.forward == QiConstants(res.lam + 1, eps, 0)
        assert res.backward_lam == (res.lam + 1) ** 2
        assert res.backward_eps == 2 * (res.lam + 1) * eps
        assert res.metric_ok and res.forward_ok and res.backward_ok
        for i in range(len(s)):
            for j in range(len(s)):
                assert res.space.d(i, j) == s.d(i, j).plus(s.d(j, i))


# -- search -----------------------------------------------------------------------------


def test_eps_grid():
    assert eps_grid(4) == [Fraction(1, 2), 1, 2, 4]
    assert eps_grid(3) == [Fraction(1, 2), 1, 2]
    assert eps_grid(Fraction(1, 2)) == [Fraction(1, 2)]
    assert eps_grid(Fraction(1, 4)) == []


def test_search_identity_needs_surjectivity_at_mu_zero():
    s = sym2()
    found = search_quasi_isometry(s, s, 2, 2, 0)
    assert found == SearchResult((0, 1), QiConstants(1, Fraction(1, 2), 0))


def test_search_collapse():
    found = search_quasi_isometry(sym2(), point1(), 2, 2, 0)
    assert found == SearchResult((0, 0), QiConstants(1, 1, 0))


def test_search_respects_reachability_obstruction():
    assert search_quasi_isometry(chain2(), sym2(), 4, 4, 4) is None


def test_search_mu_bound_prunes():
    far = make_space(["x", "w"], [[0, 5], [5, 0]])
    assert search_quasi_isometry(point1(), far, 4, 4, 2) is None
    found = search_quasi_isometry(point1(), far, 4, 4, 5)
    assert found is not None and found.constants.mu == 5
    assert found.constants.lam == 1


def test_search_found_constants_replay():
    rng = random.Random(19)
    found_any = 0
    for _ in range(10):
        a = rand_space(rng, rng.randint(2, 4))
        b = rand_space(rng, rng.randint(2, 4))
        found = search_quasi_isometry(a, b, 4, 4, 8)
        if found is None:
            continue
        found_any += 1
        rep = check_quasi_isometry(
            found.point_map, a, b,
            QiConstants(found.constants.lam, found.constants.eps, found.constants.mu),
        )
        assert rep.ok
    assert found_any > 0


def test_search_cap():
    big = make_space(
        ["p%d" % i for i in range(11)],
        [[0 if i == j else 1 for j in range(11)] for i in range(11)],
    )
    with pytest.raises(CapExceeded):
        search_quasi_isometry(big, big, 2, 2, 2)


# -- quotients ----------------------------------------------------------------------------


def test_monoid_space_z3():
    fm = green.FiniteMonoid(catalog.monoid("z3"))
    s = monoid_space(fm)
    assert s.points == ("0", "1", "2")
    assert [[d.value for d in row] for row in s.dist] == [
        [0, 1, 2], [2, 0, 1], [1, 2, 0]
    ]


def test_monoid_space_t2_has_unreachable_pairs():
    fm = green.FiniteMonoid(catalog.monoid("t2"))
    s = monoid_space(fm)
    assert s.d(s.index("00"), s.index("01")) == INFINITE
    assert s.d(s.index("00"), s.index("11")) == finite(1)


def test_is_congruence():
    fm = green.FiniteMonoid(catalog.monoid("z3"))
    assert is_congruence(fm, [0, 1, 2]) is None  # identity partition
    assert is_congruence(fm, [0, 0, 0]) is None  # universal partition
    assert is_congruence(fm, [0, 1, 1]) == (1, 1, 1, 2)


def test_quotient_identity_congruence_is_isometric():
    fm = green.FiniteMonoid(catalog.monoid("t3"))
    report = check_quotient_qi(fm, list(range(len(fm))))
    assert report.ok
    assert report.r_bound == ZERO
    assert report.constants == QiConstants(1, 0, 0)
    assert any("isometric-grade" in n for n in report.notes)
    assert len(report.classes) == 27


def test_quotient_universal_congruence_finite_diameter():
    fm = green.FiniteMonoid(catalog.monoid("z3"))
    report = check_quotient_qi(fm, [0, 0, 0])
    assert report.ok
    assert report.r_bound == finite(2)
    assert report.constants == QiConstants(1, 2, 0)
    assert report.mu == ZERO
    assert any("trivial" in n for n in report.notes)


def test_quotient_universal_congruence_infinite_diameter():
    fm = green.FiniteMonoid(catalog.monoid("t2"))
    report = check_quotient_qi(fm, [0, 0, 0, 0])
    assert not report.ok
    assert report.r_bound == INFINITE
    assert report.constants is None
    assert any("infinite diameter" in n for n in report.notes)
    assert any("trivial" in n for n in report.notes)


def test_quotient_not_a_congruence():
    fm = green.FiniteMonoid(catalog.monoid("z3"))
    with pytest.raises(NotACongruence) as info:
        check_quotient_qi(fm, [0, 1, 1])
    assert info.value.witness == (1, 1, 1, 2)


def test_quotient_product_fibers():
    pm = catalog.product("one-a-zero", "z2")
    fm = green.FiniteMonoid(pm)
    class_of = [e.key[0] for e in fm.elements]
    ids = {k: i for i, k in enumerate(dict.fromkeys(class_of))}
    report = check_quotient_qi(fm, [ids[k] for k in class_of])
    assert report.ok
    assert report.r_bound == finite(1)
    assert report.constants == QiConstants(1, 1, 0)
    assert report.mu == ZERO
    assert sorted(len(c) for c in report.classes) == [2, 2, 2]


# -- product projections ---------------------------------------------------------------


def test_projection_integers_z2():
    pm = catalog.product("integers", "z2")
    report = check_product_projection_qi(pm, 4)
    assert report.ok
    assert report.horizon == 4
    assert report.r_bound == finite(1)
    assert report.mu == ZERO
    assert report.skipped_fiber_pairs == 0
    assert report.embedding.checked == 244
    assert report.embedding.skipped == 80


def test_projection_bicyclic_z2():
    pm = catalog.product("bicyclic", "z2")
    report = check_product_projection_qi(pm, 4)
    assert report.ok
    assert report.r_bound == finite(1)
    assert report.mu == ZERO


def test_projection_cap():
    pm = catalog.product("integers", "z2")
    with pytest.raises(CapExceeded):
        check_product_projection_qi(pm, 4, cap=10)


# -- record classes ----------------------------------------------------------------------

# every record class of the package, frozen or not
RECORDS = [
    (geometry.Violation, True), (geometry.PairViolation, True),
    (geometry.QiConstants, False), (geometry.EmbeddingReport, False),
    (geometry.QiReport, False), (geometry.SymmetrizeResult, False),
    (geometry.SearchResult, False), (geometry.QuotientReport, False),
    (geometry.ProjectionReport, False),
    (green.GreenStructure, False), (green.ActionReport, False),
    (green.SvarcReport, False),
    (growth.GrowthSequence, True), (growth.Witness, True),
    (growth.Polynomial, True), (growth.Exponential, True),
    (growth.Inconclusive, True), (growth.Stable, True),
    (growth.GrowingAtLeast, True), (growth.EndsProfile, False),
    (rewriting.Rule, True), (rewriting.ConfluenceFailure, True),
]


def record_values(cls, tag):
    names = list(cls.__annotations__)
    if cls is QiConstants:
        return names, [tag + i for i in range(len(names))]
    return names, [("%s%d" % (tag, i),) for i in range(len(names))]


@pytest.mark.parametrize("cls, frozen", RECORDS, ids=[c.__name__ for c, _ in RECORDS])
def test_record_semantics(cls, frozen):
    names, values = record_values(cls, 1)
    a = cls(*values)
    assert a == cls(**dict(zip(names, values)))
    assert a != cls(*record_values(cls, 2)[1])
    assert [getattr(a, n) for n in names] == values
    assert repr(a) == "%s(%s)" % (cls.__name__, ", ".join(
        "%s=%r" % (n, getattr(a, n)) for n in names))
    if frozen:
        assert hash(a) == hash(cls(*values))
        for change in (lambda: setattr(a, names[0], None),
                       lambda: delattr(a, names[0]),
                       lambda: setattr(a, "other", None)):
            with pytest.raises(AttributeError):
                change()
    else:
        with pytest.raises(TypeError):
            hash(a)
        setattr(a, names[0], None)
        assert getattr(a, names[0]) is None


def test_record_equality_needs_the_same_class():
    assert growth.Polynomial(2) != growth.Stable(2)
    assert not growth.Polynomial(2) == growth.Stable(2)
    assert growth.Polynomial(2) != growth.Exponential(2.0)
    assert growth.Polynomial(2) == growth.Polynomial(2.0)
    assert geometry.Violation("diagonal", (1,)) != ("diagonal", (1,))
    assert len({growth.Stable(2), growth.Stable(2), growth.Polynomial(2)}) == 2


def test_record_reprs_and_defaults():
    assert repr(geometry.Violation("diagonal", (1,))) == "Violation(kind='diagonal', points=(1,))"
    assert repr(growth.Exponential(2.0)) == "Exponential(base=2.0)"
    assert repr(QiConstants(2, "1/2", 0)) == (
        "QiConstants(lam=Fraction(2, 1), eps=Fraction(1, 2), mu=Fraction(0, 1))")
    assert growth.GrowthSequence((1, 2)).label == ""
    assert growth.Inconclusive() == growth.Inconclusive("")
    with pytest.raises(TypeError):
        growth.Polynomial()
    with pytest.raises(TypeError):
        growth.Polynomial(1, 2)
    with pytest.raises(TypeError):
        growth.Polynomial(1, degree=1)
    with pytest.raises(TypeError):
        growth.Polynomial(dgree=1)


def test_qi_constants_coerce_to_fractions():
    c = QiConstants(2, "3/4", Fraction(1, 3))
    assert (c.lam, c.eps, c.mu) == (Fraction(2), Fraction(3, 4), Fraction(1, 3))
    assert all(type(v) is Fraction for v in (c.lam, c.eps, c.mu))
    assert c == QiConstants(Fraction(2), Fraction(3, 4), "1/3")


@pytest.mark.parametrize("cls", [geometry.QuotientReport, geometry.ProjectionReport,
                                 green.ActionReport], ids=lambda c: c.__name__)
def test_record_notes_are_fresh_per_instance(cls):
    n = len(cls.__annotations__) - 1
    a, b = cls(*range(n)), cls(*range(n))
    assert a.notes == [] and b.notes == [] and a.notes is not b.notes
    a.notes.append("x")
    assert b.notes == [] and cls(*range(n)).notes == []
    assert cls(*range(n), notes=["y"]).notes == ["y"]
