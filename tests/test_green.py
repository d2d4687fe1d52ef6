"""Green's relations, Schutzenberger groups, the action, Svarc-Milnor.

The orbit/H-class comparison is done against an independent union-find over
left translates, not the geometry class, so the two sides of the claimed
identity are computed by disjoint code paths.
"""

import random
from fractions import Fraction

import pytest

from conftest import rand_transformation_monoid
from semigeom import catalog, cayley, green
from semigeom.errors import NotAnHClass, NotFinite, NotGenerating, ProvedInfinite
from semigeom.geometry import Space, check_qi_embedding, quasi_density
from semigeom.green import (
    FiniteMonoid,
    check_schutz_action,
    check_schutz_action_finite,
    schutz_group,
    svarc_milnor,
)
from semigeom.monoids import (
    DEFAULT_CAP,
    RewritingMonoid,
    TransformationMonoid,
    enumerate_all,
    proved_infinite,
)
from semigeom.rewriting import RewritingSystem


@pytest.fixture(scope="module")
def t2():
    return FiniteMonoid(catalog.monoid("t2"))


@pytest.fixture(scope="module")
def t3():
    return FiniteMonoid(catalog.monoid("t3"))


def rank_of(fm, i):
    return len(set(fm.elements[i].key))


def orbit_partition(fm, r_class, representatives):
    """Orbits of the left action of the listed representatives, by
    union-find over translates."""
    parent = {x: x for x in r_class}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for rep in representatives:
        for x in r_class:
            y = fm.product(rep, x)
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[rx] = ry
    groups = {}
    for x in r_class:
        groups.setdefault(find(x), []).append(x)
    return {frozenset(g) for g in groups.values()}


# -- FiniteMonoid ----------------------------------------------------------------


def test_finite_monoid_basics(t3):
    assert len(t3) == 27
    assert t3.identity_index == 0
    assert t3.names[0] == "012"
    assert t3.element_index("120") == t3.element_index(
        t3.monoid.generator("s")
    )
    assert t3.element_index(5) == 5
    m = t3.monoid
    for i in (0, 3, 7, 11):
        for j in (0, 2, 9):
            prod = m.multiply(t3.elements[i], t3.elements[j])
            assert t3.elements[t3.product(i, j)] == prod


def test_finite_monoid_rejects_infinite():
    with pytest.raises(NotFinite):
        FiniteMonoid(catalog.monoid("bicyclic"), cap=500)


# -- Green structure ---------------------------------------------------------------


def test_t2_green_counts(t2):
    gs = t2.green()
    assert len(gs.r_classes) == 2
    assert len(gs.l_classes) == 3
    assert len(gs.h_classes) == 3
    units = {t2.names[i] for i in gs.h_classes[0]}
    assert units == {"01", "10"}
    singles = {frozenset(t2.names[i] for i in h) for h in gs.h_classes[1:]}
    assert singles == {frozenset(["00"]), frozenset(["11"])}


def test_t3_green_counts(t3):
    gs = t3.green()
    assert len(gs.r_classes) == 5
    assert len(gs.l_classes) == 7
    assert len(gs.h_classes) == 13
    assert {t3.names[i] for i in gs.r_classes[0]} == {
        "012", "120", "102", "201", "021", "210"
    }


def test_t3_r_order(t3):
    gs = t3.green()
    assert sorted(gs.r_order) == [(1, 0), (2, 0), (3, 0), (4, 0),
                                  (4, 1), (4, 2), (4, 3)]


def test_green_classes_partition(t3):
    gs = t3.green()
    for classes, class_of in (
        (gs.r_classes, gs.r_class_of),
        (gs.l_classes, gs.l_class_of),
        (gs.h_classes, gs.h_class_of),
    ):
        seen = sorted(i for c in classes for i in c)
        assert seen == list(range(len(t3)))
        for ci, members in enumerate(classes):
            assert all(class_of[i] == ci for i in members)
    # H refines both R and L
    for h in gs.h_classes:
        assert len({gs.r_class_of[i] for i in h}) == 1
        assert len({gs.l_class_of[i] for i in h}) == 1


# -- Schutzenberger groups -----------------------------------------------------------


def test_schutz_group_orders_by_rank(t3):
    gs = t3.green()
    want = {3: 6, 2: 2, 1: 1}
    for h in gs.h_classes:
        g = schutz_group(t3, h)
        assert g.order == len(h)  # the group is always as big as its H-class
        assert g.order == want[rank_of(t3, h[0])]


def test_schutz_group_order_matches_h_size_t2(t2):
    for h in t2.green().h_classes:
        assert schutz_group(t2, h).order == len(h)


def test_schutz_group_is_a_group(t3):
    gs = t3.green()
    g = schutz_group(t3, gs.h_classes[0])
    assert g.order == 6
    n = g.order
    for a in range(n):
        assert sorted(g.table[a]) == list(range(n))  # rows permute
        assert sorted(g.table[b][a] for b in range(n)) == list(range(n))
        inv = g.inverse(a)
        assert g.table[a][inv] == g.identity_index
        assert g.table[inv][a] == g.identity_index
    # representatives really induce their permutations
    members = g.h_class
    pos = {x: k for k, x in enumerate(members)}
    for perm, rep in zip(g.perms, g.representatives):
        assert perm == tuple(pos[t3.product(rep, x)] for x in members)


def test_schutz_group_accepts_element_names(t3):
    g = schutz_group(t3, ["000"])
    assert g.order == 1
    assert g.rep_names[g.identity_index] == "012"


def test_not_an_h_class(t3):
    gs = t3.green()
    mixed = list(gs.h_classes[0]) + [t3.element_index("000")]
    with pytest.raises(NotAnHClass):
        schutz_group(t3, mixed)
    with pytest.raises(NotAnHClass):
        schutz_group(t3, gs.r_classes[1])  # a full R-class, several H-classes


def test_orbits_are_h_classes(t2, t3):
    rng = random.Random(7)
    suite = [t2, t3] + [
        FiniteMonoid(rand_transformation_monoid(rng)) for _ in range(10)
    ]
    for fm in suite:
        gs = fm.green()
        for h in gs.h_classes:
            group = schutz_group(fm, h)
            r_class = gs.r_classes[gs.r_class_of[h[0]]]
            orbits = orbit_partition(fm, r_class, group.representatives)
            h_parts = {
                frozenset(hc)
                for hc in gs.h_classes
                if gs.r_class_of[hc[0]] == gs.r_class_of[h[0]]
            }
            assert orbits == h_parts


# -- the action -----------------------------------------------------------------------


def test_action_exact_t3_units(t3):
    report = check_schutz_action(catalog.monoid("t3"))
    assert report.exact
    assert report.group_order == 6
    assert report.isometric and report.counterexample is None
    assert report.outward_proper
    assert report.cocompact
    assert report.covering_radius == 0  # the R-class is a single H-class
    assert report.failed_radius is None
    # a radius-1 ball misses one translate; outward properness shows as
    # meets stabilizing at the full group order
    assert report.orbit_meet_sizes == [(1, 5)] + [
        (rho, 6) for rho in range(2, 9)
    ]


def test_action_exact_lower_rank(t2, t3):
    # H-class {00} of T2: R-class {00, 11} splits into two H-classes
    report = check_schutz_action_finite(t2, ["00"])
    assert report.exact and report.isometric and report.cocompact
    assert report.group_order == 1
    assert report.covering_radius == 1
    for h in t3.green().h_classes:
        rep = check_schutz_action_finite(t3, h)
        assert rep.exact and rep.isometric and rep.cocompact
        assert rep.counterexample is None
        assert rep.covering_radius >= 0


def per_radius_orbit_meets(fm, h_class, radius):
    """The orbit-meet counts with the ball rebuilt at every radius."""
    geo = green._RClassGeometry(fm, h_class)
    sizes = []
    for rho in range(1, radius + 1):
        ball = {v for v, d in enumerate(geo.dist[geo.base]) if d <= rho}
        sizes.append((rho, sum(1 for perm in geo.vperms
                               if any(perm[v] in ball for v in ball))))
    return sizes, max(geo.dist[geo.base])


T4 = TransformationMonoid(4, [("s", [1, 2, 3, 0]), ("t", [1, 0, 2, 3]),
                              ("e", [0, 0, 2, 3])])


@pytest.mark.parametrize("monoid", ["t3", "t4", 0, 1, 2, 3, 4, 5])
def test_orbit_meets_match_the_per_radius_loop(monoid):
    # the action check repeats the count once the ball stops growing
    if monoid == "t3":
        m = catalog.monoid("t3")
    elif monoid == "t4":
        m = T4
    else:
        m = rand_transformation_monoid(random.Random(monoid), max_degree=4)
    fm = FiniteMonoid(m)
    gs = fm.green()
    # one H-class per R-class
    h_classes = {gs.r_class_of[h[0]]: h for h in gs.h_classes}
    for h in h_classes.values():
        _, eccentricity = per_radius_orbit_meets(fm, h, 0)
        for radius in range(eccentricity + 4):
            expected, _ = per_radius_orbit_meets(fm, h, radius)
            report = check_schutz_action_finite(fm, h, radius=radius)
            assert report.orbit_meet_sizes == expected


def test_action_evidence_bicyclic():
    report = check_schutz_action(catalog.monoid("bicyclic"), radius=8)
    assert not report.exact
    assert report.group_order == 1
    assert report.isometric
    assert report.outward_proper
    assert not report.cocompact
    assert report.covering_radius is None
    assert report.failed_radius == 8
    assert report.orbit_meet_sizes == [(rho, 1) for rho in range(1, 9)]
    assert any("evidence" in note for note in report.notes)


def test_ball_h_class_of_identity():
    m = catalog.monoid("bicyclic")
    h, _ball = green._identity_h_class(m, 6, DEFAULT_CAP)[:2]
    assert [m.element_name(x) for x in h] == ["ε"]
    mz = catalog.monoid("integers")
    h2, _ = green._identity_h_class(mz, 3, DEFAULT_CAP)[:2]
    assert {mz.element_name(x) for x in h2} >= {"ε", "p", "q"}


def test_probe_cap_controls_dispatch():
    # t3 is finite but a tiny probe treats it as infinite: evidence mode
    report = check_schutz_action(catalog.monoid("t3"), radius=6, probe_cap=10)
    assert not report.exact


# -- Svarc-Milnor ------------------------------------------------------------------------


def test_svarc_t3_units(t3):
    gs = t3.green()
    report = svarc_milnor(t3, gs.h_classes[0])
    assert report.ball_radius == 1 and report.l == 1
    assert len(report.s_indices) == 6  # every group element moves B near B
    assert report.s_names == ["012", "120", "102", "201", "021", "210"]
    assert report.lam == 2
    assert max(report.word_length) == 1
    assert report.forward_ok and report.reverse_ok


def test_svarc_z3():
    fm = FiniteMonoid(catalog.monoid("z3"))
    h = fm.green().h_classes[0]
    report = svarc_milnor(fm, h)
    assert "1" in report.s_names
    assert report.lam == 1
    assert report.forward_ok and report.reverse_ok
    assert sorted(report.word_length) == [0, 1, 2]


def test_svarc_not_generating(t3):
    gs = t3.green()
    with pytest.raises(NotGenerating) as info:
        svarc_milnor(t3, gs.h_classes[0], ball_radius=0, l=0)
    assert len(info.value.missing) == 5  # everything but the identity


# The Svarc-Milnor conclusion, checked on all pairs by the QI checker: the
# orbit map g -> g x0 from the group with the word metric of the extracted
# S to the R-class space is a (max(lambda, 2), 0)-quasi-isometric embedding
# with a finite density.  With l = 1, d_S <= d + 1 and d >= 1 for g != h
# (the action is free), so d_S <= 2 d; and d <= lambda d_S by isometry.


def svarc_cases():
    """(fm, h_class, report): the first six H-classes that svarc_milnor
    accepts at ball radius 1 and at 2, on T2, T3 and seeded random
    transformation monoids of degree 3-4."""
    rng = random.Random(10)
    monoids = [catalog.monoid("t2"), catalog.monoid("t3")]
    for _ in range(40):
        degree = rng.randint(3, 4)
        gens = [("g%d" % i, [rng.randrange(degree) for _ in range(degree)])
                for i in range(rng.randint(1, 3))]
        monoids.append(TransformationMonoid(degree, gens))
    for m in monoids:
        fm = FiniteMonoid(m)
        for ball_radius in (1, 2):
            accepted = 0
            for h in fm.green().h_classes:
                try:
                    report = svarc_milnor(fm, h, ball_radius=ball_radius)
                except NotGenerating:
                    continue
                yield fm, h, report
                accepted += 1
                if accepted == 6:
                    break


def orbit_map(fm, h, report):
    """(f, group space, R-class space) of the orbit map g -> g x0."""
    geo = green._RClassGeometry(fm, h)
    group = geo.group
    s_columns = [[row[s] for s in report.s_indices] for row in group.table]
    word = [cayley.bfs(s_columns, g)[0] for g in range(group.order)]
    assert min(map(min, word)) >= 0 and min(map(min, geo.dist)) >= 0
    points = [geo.vertex_name(v) for v in range(len(geo.vertices))]
    f = [perm[geo.base] for perm in geo.vperms]
    return f, Space(group.rep_names, (1, word)), Space(points, (1, geo.dist))


def test_svarc_orbit_map_is_a_quasi_isometric_embedding():
    cases = 0
    sharp = 0
    for fm, h, report in svarc_cases():
        assert report.forward_ok and report.reverse_ok
        f, group, rclass = orbit_map(fm, h, report)
        lam = report.lam
        assert check_qi_embedding(f, group, rclass, max(lam, 2), 0).ok, (fm.names, h)
        assert quasi_density(f, group, rclass).is_finite()
        cases += 1
        if lam > 2:
            # some s moves x0 by lambda while d_S(e, s) = 1
            less = Fraction(2 * lam - 1, 2)
            assert not check_qi_embedding(f, group, rclass, less, 0).ok, (fm.names, h)
            sharp += 1
    assert cases >= 200 and sharp >= 5, (cases, sharp)


# -- proved-infinite monoids skip the finiteness probe ----------------------------------


def no_enumeration(*args, **kwargs):
    raise AssertionError("a proved-infinite monoid was enumerated")


@pytest.mark.parametrize("m", [
    catalog.monoid("free2"), catalog.monoid("bicyclic"), catalog.monoid("integers"),
    catalog.product("free2", "z2"), catalog.product("z2", "bicyclic"),
], ids=["free2", "bicyclic", "integers", "free2-x-z2", "z2-x-bicyclic"])
def test_finite_monoid_refuses_proved_infinite_without_enumerating(monkeypatch, m):
    assert proved_infinite(m)
    monkeypatch.setattr(m, "_mul_key", no_enumeration)
    with pytest.raises(ProvedInfinite, match="infinite"):
        FiniteMonoid(m)
    monkeypatch.undo()
    report = check_schutz_action(m, radius=3)
    assert not report.exact


@pytest.mark.parametrize("m", [
    catalog.monoid("t3"), catalog.monoid("z3"), catalog.monoid("one-a-zero"),
    catalog.product("z3", "z2"),
    RewritingMonoid(RewritingSystem(("a",), [("aaa", "")])),
], ids=["t3", "z3", "one-a-zero", "z3-x-z2", "rewriting-z3"])
def test_finite_and_undecided_monoids_are_enumerated(m):
    assert not proved_infinite(m)
    assert len(FiniteMonoid(m)) == len(enumerate_all(m))


def test_finite_rewriting_monoid_beyond_the_probe_goes_to_evidence():
    # Z5 is finite, so only the probe cap can send it to evidence mode
    m = RewritingMonoid(RewritingSystem(("a",), [("aaaaa", "")]))
    assert not proved_infinite(m)
    assert check_schutz_action(m, radius=4, probe_cap=4).exact is False
    assert check_schutz_action(m, radius=4, probe_cap=5).exact is True
    with pytest.raises(NotFinite) as info:
        FiniteMonoid(m, cap=4)
    assert not isinstance(info.value, ProvedInfinite)
