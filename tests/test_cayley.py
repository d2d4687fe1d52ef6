"""Cayley balls: structure, in-ball distance semantics, realization.

The bicyclic radius-2 ball is small enough to freeze completely by hand:
vertices ε,b,c,bb,cb,cc; the b-side cancels (bc collapses to ε) while the
c-side only grows, which exercises every distance classification.
"""

from fractions import Fraction

import pytest

from semigeom import catalog, cayley, green
from semigeom.cayley import (
    ABOVE,
    BELOW,
    EQUIVALENT,
    INCOMPARABLE,
    UNKNOWN,
    build_cayley_ball,
    component_comparability,
    component_poset,
    distance_table,
    edge_point,
    export_dot,
    full_cayley_graph,
    realized_distance,
    realized_point_name,
    sample_points,
    schutzenberger_ball,
    strongly_connected_components,
    vertex_point,
)
from semigeom.distances import INFINITE, beyond, finite
from semigeom.errors import CapExceeded, NotFinite
from semigeom.monoids import TransformationMonoid


@pytest.fixture(scope="module")
def bic2():
    return build_cayley_ball(catalog.monoid("bicyclic"), 2)


@pytest.fixture(scope="module")
def oaz():
    return full_cayley_graph(catalog.monoid("one-a-zero"))


# -- ball structure -------------------------------------------------------------


def test_bicyclic_radius2_structure(bic2):
    m = bic2.monoid
    assert [bic2.name(i) for i in range(len(bic2))] == ["ε", "b", "c", "bb", "cb", "cc"]
    assert bic2.lengths == [0, 1, 1, 2, 2, 2]
    assert bic2.complete == [True, True, True, False, False, False]
    named_edges = [(bic2.name(u), bic2.name(v), s) for u, v, s in bic2.edges]
    assert named_edges == [
        ("ε", "b", "b"),
        ("ε", "c", "c"),
        ("b", "bb", "b"),
        ("b", "ε", "c"),
        ("c", "cb", "b"),
        ("c", "cc", "c"),
        ("bb", "b", "c"),
        ("cb", "c", "c"),
    ]
    assert bic2.in_degrees() == [1, 2, 2, 1, 1, 1]
    assert bic2.out_degrees() == [2, 2, 2, 1, 1, 0]
    assert bic2.index_of(m.parse_element("cb")) == 4
    assert bic2.index_of(3) == 3


def test_ball_base_defaults_to_identity(bic2):
    assert bic2.base == bic2.monoid.identity
    assert bic2.radius == 2


def test_left_ball_differs():
    m = catalog.monoid("bicyclic")
    left = build_cayley_ball(m, 2, side=cayley.LEFT)
    # left multiplication by c kills b: c * b = cb but b * <- hmm, c.b edge
    names = [left.name(i) for i in range(len(left))]
    assert names[0] == "ε"
    assert set(names) == {"ε", "b", "c", "bb", "cb", "cc"}
    # in the left graph the edge from b goes via c to cb (c*b), not to ε
    assert ("b", "cb") in {(left.name(u), left.name(v)) for u, v, s in left.edges
                           if s == "c"}


def test_ball_cap():
    with pytest.raises(CapExceeded):
        build_cayley_ball(catalog.monoid("free2"), 30, cap=100)


def test_full_graph_requires_finite():
    with pytest.raises(NotFinite):
        full_cayley_graph(catalog.monoid("free1"), cap=50)


def test_full_graph_is_complete(oaz):
    assert all(oaz.complete)
    assert [oaz.name(i) for i in range(3)] == ["1", "a", "0"]


# -- distances -------------------------------------------------------------------


def test_distance_classification(bic2):
    d = bic2.distance
    assert d(0, 3) == finite(2)  # ε -> bb
    assert d(3, 0) == finite(2)  # bb -c-> b -c-> ε
    assert d(3, 1) == finite(1)
    assert d(0, 0) == finite(0)
    # c cannot reach b in the ball and the escape through cc is unexplored
    assert d(2, 1) == beyond(2)
    # an in-ball path exists but is longer than the radius: stay conservative
    assert d(3, 5) == beyond(2)


def test_distance_infinite_needs_complete_closure(oaz):
    assert oaz.distance(2, 1) == INFINITE  # 0 never reaches a
    assert oaz.distance(1, 0) == INFINITE  # a never reaches 1
    assert oaz.distance(0, 2) == finite(2)


def test_geodesic_replays_to_target(bic2):
    m = bic2.monoid
    for u in range(len(bic2)):
        for v in range(len(bic2)):
            d = bic2.distance(u, v)
            if not d.is_finite():
                assert bic2.geodesic(u, v) is None or d == beyond(2)
                continue
            word = bic2.geodesic(u, v)
            assert len(word) == d.value
            x = bic2.vertices[u]
            for sym in word:
                x = m.multiply(x, m.generator(sym))
            assert x == bic2.vertices[v]


def test_geodesic_on_full_graph():
    ball = full_cayley_graph(catalog.monoid("t2"))
    m = ball.monoid
    for u in range(len(ball)):
        for v in range(len(ball)):
            d = ball.distance(u, v)
            assert d.is_decisive()  # complete graph decides every pair
            if d.is_finite():
                x = ball.vertices[u]
                for sym in ball.geodesic(u, v):
                    x = m.multiply(x, m.generator(sym))
                assert x == ball.vertices[v]


def test_distance_matrix_z3():
    ball = full_cayley_graph(catalog.monoid("z3"))
    want = [[0, 1, 2], [2, 0, 1], [1, 2, 0]]
    assert ball.distance_rows() == want


def test_distance_table_cost_does_not_grow_with_the_radius():
    # depths stay below the vertex count, whatever the radius
    ball = build_cayley_ball(catalog.monoid("z3"), 10**12)
    assert ball.distance_rows() == [[0, 1, 2], [2, 0, 1], [1, 2, 0]]
    assert distance_table(ball).splitlines()[:3] == ["0\t0\t0", "0\t1\t1", "0\t2\t2"]


# -- strongly connected components ----------------------------------------------


def test_scc_of_truncated_ball(bic2):
    scc = strongly_connected_components(bic2)
    assert scc.components == [[0, 1, 3], [2, 4], [5]]
    assert scc.comp_of == [0, 0, 1, 0, 1, 2]
    # every component can leak through an incomplete vertex
    assert scc.verified == [False, False, False]


def test_scc_matches_r_classes():
    for name in ("t2", "t3", "z3", "one-a-zero-b"):
        m = catalog.monoid(name)
        ball = full_cayley_graph(m)
        scc = strongly_connected_components(ball)
        assert all(scc.verified)
        fm = green.FiniteMonoid(m)
        gs = fm.green()
        by_scc = {
            frozenset(ball.name(v) for v in comp) for comp in scc.components
        }
        by_green = {
            frozenset(fm.names[i] for i in rc) for rc in gs.r_classes
        }
        assert by_scc == by_green


def test_component_poset_chain(oaz):
    scc = strongly_connected_components(oaz)
    assert scc.components == [[0], [1], [2]]
    reach = component_poset(oaz, scc)
    assert reach[0] == {0, 1, 2}  # 1 reaches everything
    assert reach[1] == {1, 2}
    assert reach[2] == {2}


# -- Schutzenberger balls ---------------------------------------------------------


def test_schutzenberger_ball_bicyclic():
    m = catalog.monoid("bicyclic")
    sb = schutzenberger_ball(m, m.identity, 4)
    assert [sb.name(i) for i in range(len(sb))] == ["ε", "b", "bb", "bbb", "bbbb"]
    assert sb.lengths == [0, 1, 2, 3, 4]
    # completeness is relative to the component: ε loses its c-edge
    assert sb.complete == [False, True, True, True, False]
    assert sb.in_degrees() == [1, 2, 2, 2, 1]
    assert sb.out_degrees() == [1, 2, 2, 2, 1]


def test_schutzenberger_ball_other_base():
    m = catalog.monoid("bicyclic")
    c = m.generator("c")
    sb = schutzenberger_ball(m, c, 3)
    # the R-class of c is {c b^j}; in-ball slice at radius 3
    assert [sb.name(i) for i in range(len(sb))] == ["c", "cb", "cbb", "cbbb"]


def test_schutzenberger_ball_finite_group():
    m = catalog.monoid("z3")
    sb = schutzenberger_ball(m, m.identity, 5)
    assert len(sb) == 3
    assert all(sb.complete)


# -- one product per slot against the two-pass build --------------------------------


def two_pass_ball(m, radius, side, base, cap):
    """Reference build: a BFS pass for the vertices, then an edge pass that
    multiplies every (vertex, generator) slot again."""
    gens = list(zip(m._gen_syms, m._gen_keys))

    def step(key, gk):
        return m._mul_key(key, gk) if side == cayley.RIGHT else m._mul_key(gk, key)

    index = {base.key: 0}
    vertices = [base.key]
    lengths = [0]
    i = 0
    while i < len(vertices):
        key, d = vertices[i], lengths[i]
        i += 1
        if d >= radius:
            continue
        for _sym, gk in gens:
            nk = step(key, gk)
            if nk not in index:
                if len(vertices) >= cap:
                    raise CapExceeded(cap)
                index[nk] = len(vertices)
                vertices.append(nk)
                lengths.append(d + 1)
    edges = []
    complete = [True] * len(vertices)
    for u, key in enumerate(vertices):
        for sym, gk in gens:
            t = index.get(step(key, gk))
            if t is None:
                complete[u] = False
            else:
                edges.append((u, t, sym))
    return vertices, lengths, edges, complete


def t4():
    return TransformationMonoid(
        4, [("s", [1, 2, 3, 0]), ("t", [1, 0, 2, 3]), ("e", [0, 0, 2, 3])]
    )


BALL_CASES = [
    ("free2", lambda: catalog.monoid("free2"), 5),
    ("free-comm3", lambda: catalog.monoid("free-comm3"), 4),
    ("bicyclic", lambda: catalog.monoid("bicyclic"), 6),
    ("integers", lambda: catalog.monoid("integers"), 6),
    ("t4", t4, 4),
    ("bicyclic-x-z2", lambda: catalog.product("bicyclic", "z2"), 4),
]


def non_identity_base(m):
    gens = [g for _, g in m.generators()]
    return m.multiply(gens[0], gens[-1])


@pytest.mark.parametrize("name,make,radius", BALL_CASES, ids=[c[0] for c in BALL_CASES])
@pytest.mark.parametrize("side", [cayley.RIGHT, cayley.LEFT])
def test_ball_matches_two_pass_build(name, make, radius, side):
    m = make()
    for base in (m.identity, non_identity_base(m)):
        ball = build_cayley_ball(m, radius, side=side, base=base)
        vertices, lengths, edges, complete = two_pass_ball(m, radius, side, base, 10**6)
        assert [v.key for v in ball.vertices] == vertices
        assert ball.lengths == lengths
        assert ball.edges == edges
        assert ball.complete == complete


@pytest.mark.parametrize("name,make,radius", BALL_CASES, ids=[c[0] for c in BALL_CASES])
def test_ball_cap_matches_two_pass_build(name, make, radius):
    m = make()
    base = non_identity_base(m)
    r = min(radius, 3)
    size = len(build_cayley_ball(m, r, base=base))
    for cap in range(1, size + 2):
        try:
            two_pass_ball(m, r, cayley.RIGHT, base, cap)
        except CapExceeded:
            with pytest.raises(CapExceeded):
                build_cayley_ball(m, r, base=base, cap=cap)
        else:
            assert len(build_cayley_ball(m, r, base=base, cap=cap)) == size


@pytest.mark.parametrize("name,make,radius", BALL_CASES, ids=[c[0] for c in BALL_CASES])
def test_schutzenberger_ball_matches_recomputed_products(name, make, radius):
    m = make()
    for h in (m.identity, non_identity_base(m)):
        sb = schutzenberger_ball(m, h, radius)
        kept = {v.key: i for i, v in enumerate(sb.vertices)}
        edges = []
        complete = []
        for u, x in enumerate(sb.vertices):
            ok = True
            for sym, g in m.generators():
                t = kept.get(m.multiply(x, g).key)
                if t is None:
                    ok = False
                else:
                    edges.append((u, t, sym))
            complete.append(ok)
        assert sb.edges == edges
        assert sb.complete == complete
        ball = build_cayley_ball(m, radius, base=h)
        scc = strongly_connected_components(ball)
        assert [ball.index_of(x) for x in sb.vertices] == scc.components[scc.comp_of[0]]


# -- realization ------------------------------------------------------------------


def test_edge_point_validation(bic2):
    with pytest.raises(ValueError):
        edge_point(0, 0)
    with pytest.raises(ValueError):
        edge_point(0, 1)
    with pytest.raises(ValueError):
        edge_point(0, Fraction(3, 2))


def test_realized_distance_cases(bic2):
    half = Fraction(1, 2)
    e_eb = 0  # ε -b-> b
    e_ccc = 5  # c -c-> cc
    # vertex to vertex falls back to ball distance
    assert realized_distance(bic2, vertex_point(0), vertex_point(1)) == finite(1)
    # vertex to an edge interior: reach the source, walk in
    assert realized_distance(bic2, vertex_point(0), edge_point(e_eb, half)) == finite(half)
    # edge interior to vertex: walk out of the target
    assert realized_distance(bic2, edge_point(e_eb, half), vertex_point(0)) == finite(
        Fraction(3, 2)
    )
    # same edge, increasing parameter: inside the segment
    assert realized_distance(
        bic2, edge_point(e_eb, Fraction(1, 4)), edge_point(e_eb, Fraction(3, 4))
    ) == finite(half)
    # same edge, decreasing parameter: out the target and back around
    assert realized_distance(
        bic2, edge_point(e_eb, Fraction(3, 4)), edge_point(e_eb, Fraction(1, 4))
    ) == finite(Fraction(3, 2))
    # different edges go via target of one and source of the other
    assert realized_distance(
        bic2, edge_point(e_eb, half), edge_point(e_ccc, half)
    ) == finite(3)


def test_realized_distance_propagates_nonfinite(bic2, oaz):
    half = Fraction(1, 2)
    # bicyclic ball: distances beyond the horizon stay stamped
    p = edge_point(5, half)  # on c -c-> cc
    assert realized_distance(bic2, p, vertex_point(1)) == beyond(2)
    # one-a-zero: true infinity propagates through edge arithmetic
    e_a0 = next(
        i for i, (u, v, s) in enumerate(oaz.edges)
        if oaz.name(u) == "a" and oaz.name(v) == "0"
    )
    assert realized_distance(oaz, edge_point(e_a0, half), vertex_point(0)) == INFINITE


def test_realized_point_names(bic2):
    assert realized_point_name(bic2, vertex_point(3)) == "bb"
    assert realized_point_name(bic2, edge_point(0, Fraction(1, 2))) == "ε-b->b@1/2"


def test_sample_points_count(bic2):
    assert len(sample_points(bic2, 1)) == 6 + 8
    assert len(sample_points(bic2, 2)) == 6 + 16
    pts = sample_points(bic2, 2)
    assert vertex_point(5) in pts
    assert edge_point(7, Fraction(2, 3)) in pts


# -- comparability -----------------------------------------------------------------


def test_comparability_single_generator_chain(oaz):
    result = component_comparability(oaz, samples_per_edge=1)
    assert result.count(INCOMPARABLE) == 0
    assert result.count(UNKNOWN) == 0
    assert result.count(EQUIVALENT) > 0  # loop points at 0
    assert result.count(BELOW) == result.count(ABOVE) > 0


def test_comparability_parallel_edges():
    ball = full_cayley_graph(catalog.monoid("one-a-zero-b"))
    result = component_comparability(ball, samples_per_edge=1)
    assert result.count(UNKNOWN) == 0
    # midpoints of the two parallel a->0 edges can't reach each other
    assert result.count(INCOMPARABLE) >= 2


def test_comparability_unknown_on_truncated_ball(bic2):
    result = component_comparability(bic2, samples_per_edge=1)
    assert result.count(UNKNOWN) > 0


# -- text output -------------------------------------------------------------------


def test_export_dot_golden():
    ball = build_cayley_ball(catalog.monoid("bicyclic"), 1)
    assert export_dot(ball) == (
        'digraph {\n'
        '  "ε";\n'
        '  "b";\n'
        '  "c";\n'
        '  "ε" -> "b" [label="b"];\n'
        '  "ε" -> "c" [label="c"];\n'
        '  "b" -> "ε" [label="c"];\n'
        '}\n'
    )


def test_distance_table_golden(oaz):
    assert distance_table(oaz) == (
        "1\t1\t0\n1\ta\t1\n1\t0\t2\n"
        "a\t1\tinf\na\ta\t0\na\t0\t1\n"
        "0\t1\tinf\n0\ta\tinf\n0\t0\t0\n"
    )


def test_outputs_are_byte_stable(bic2):
    assert export_dot(bic2) == export_dot(
        build_cayley_ball(catalog.monoid("bicyclic"), 2)
    )
    assert distance_table(bic2) == distance_table(
        build_cayley_ball(catalog.monoid("bicyclic"), 2)
    )
