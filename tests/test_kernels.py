"""Row-at-a-time distance kernels against the per-entry loops they replaced.

check_axioms and check_qi_embedding decode a matrix into rows of exact
numbers; CayleyBall.distance_matrix builds each row from one BFS and
distance_table formats from those rows.  The references below are the
per-entry versions of the same functions, kept as oracles: every triple
and every pair, in row-major order, through the ExtDist methods.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semigeom import catalog, cayley
from semigeom.cayley import build_cayley_ball, distance_table
from semigeom.distances import INFINITE, ZERO, beyond, finite
from semigeom.geometry import (
    EmbeddingReport,
    PairViolation,
    Space,
    Violation,
    check_axioms,
    check_qi_embedding,
)

# -- references ------------------------------------------------------------------


def reference_check_axioms(points, dist):
    n = len(points)
    for i in range(n):
        dii = dist[i][i]
        if not (dii.is_finite() and dii.value == 0):
            return Violation("diagonal", (i,))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            dij = dist[i][j]
            if dij.is_finite() and dij.value <= 0:
                return Violation("positivity", (i, j))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                left = dist[i][k]
                a, b = dist[i][j], dist[j][k]
                if left.is_beyond() or a.is_beyond() or b.is_beyond():
                    continue
                if a.is_infinite() or b.is_infinite():
                    continue
                if left.is_infinite() or left.value > a.value + b.value:
                    return Violation("triangle", (i, j, k))
    return None


def reference_check_qi_embedding(f, source, target, lam, eps):
    lam = Fraction(lam)
    eps = Fraction(eps)
    checked = 0
    skipped = 0
    n = len(source)
    for i in range(n):
        for j in range(n):
            dx = source.dist[i][j]
            dy = target.dist[f[i]][f[j]]
            if dx.is_beyond() or dy.is_beyond():
                skipped += 1
                continue
            checked += 1
            if dx.is_infinite():
                if not dy.is_infinite():
                    return EmbeddingReport(False, PairViolation(i, j, "lower"),
                                           checked, skipped)
                continue
            if not dy.is_infinite() and dx.value > lam * (dy.value + eps):
                return EmbeddingReport(False, PairViolation(i, j, "lower"),
                                       checked, skipped)
            if dy.is_infinite():
                return EmbeddingReport(False, PairViolation(i, j, "upper"),
                                       checked, skipped)
            if dy.value > lam * dx.value + eps:
                return EmbeddingReport(False, PairViolation(i, j, "upper"),
                                       checked, skipped)
    return EmbeddingReport(True, None, checked, skipped)


def reference_distance_table(ball):
    lines = []
    n = len(ball.vertices)
    for i in range(n):
        for j in range(n):
            lines.append(
                "%s\t%s\t%s" % (ball.name(i), ball.name(j), ball.distance(i, j).format())
            )
    return "\n".join(lines) + "\n"


# -- matrices --------------------------------------------------------------------



def entry(code):
    """Codes 0-11: the halves 1/2 .. 6; 12-15: quarters 1/4 .. 7/4;
    16-18: infinity; 19-22: the stamps >1 .. >4."""
    if code < 12:
        return finite(Fraction(code + 1, 2))
    if code < 16:
        return finite(Fraction(2 * (code - 12) + 1, 4))
    if code < 19:
        return INFINITE
    return beyond(code - 18)


entries = st.integers(0, 22).map(entry)


def close(rows):
    """Min-plus closure over the finite entries, in place; stamps stay."""
    n = len(rows)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                a, b, c = rows[i][k], rows[k][j], rows[i][j]
                if a.is_finite() and b.is_finite() and not c.is_beyond():
                    if c.is_infinite() or a.value + b.value < c.value:
                        rows[i][j] = finite(a.value + b.value)


@st.composite
def matrices(draw, max_points=7):
    n = draw(st.integers(1, max_points))
    codes = draw(st.lists(st.integers(0, 22), min_size=n * n, max_size=n * n))
    rows = [[entry(c) for c in codes[i * n:(i + 1) * n]] for i in range(n)]
    # mode 0 keeps some drawn diagonal entries; the others zero the
    # diagonal so that the triangle check is reached, and modes 4-7 close
    # the finite entries so that most triangles hold
    mode = draw(st.integers(0, 7))
    for i in range(n):
        if mode or codes[i * n + i] % 2 == 0:
            rows[i][i] = ZERO
    if mode >= 4:
        close(rows)
    if draw(st.integers(0, 3)) == 0:
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i != j:
            rows[i][j] = ZERO
    return rows


@settings(max_examples=400, deadline=None, derandomize=True)
@given(matrices())
def test_check_axioms_matches_triple_loop(rows):
    points = ["p%d" % i for i in range(len(rows))]
    assert check_axioms(points, rows) == reference_check_axioms(points, rows)


def test_check_axioms_draws_reach_every_verdict():
    """The strategy above produces every kind of verdict."""
    seen = set()

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(matrices())
    def collect(rows):
        v = reference_check_axioms(["p"] * len(rows), rows)
        seen.add(None if v is None else v.kind)

    collect()
    assert seen == {None, "diagonal", "positivity", "triangle"}


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    st.data(),
    matrices(),
    matrices(),
    st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)]),
    st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(3)]),
)
def test_check_qi_embedding_matches_pair_loop(data, src, tgt, lam, eps):
    source = Space(["x%d" % i for i in range(len(src))], src)
    target = Space(["y%d" % i for i in range(len(tgt))], tgt)
    f = data.draw(st.lists(st.integers(0, len(tgt) - 1), min_size=len(src),
                           max_size=len(src)))
    got = check_qi_embedding(f, source, target, lam, eps)
    assert got == reference_check_qi_embedding(f, source, target, lam, eps)


# -- ball distance rows ----------------------------------------------------------


BALLS = [
    ("free2", lambda: catalog.monoid("free2"), 3),
    ("free-comm2", lambda: catalog.monoid("free-comm2"), 4),
    ("bicyclic", lambda: catalog.monoid("bicyclic"), 4),
    ("integers", lambda: catalog.monoid("integers"), 4),
    ("t3", lambda: catalog.monoid("t3"), 3),
    ("t3-full", lambda: catalog.monoid("t3"), 12),
    ("bicyclic-x-z2", lambda: catalog.product("bicyclic", "z2"), 3),
]


def balls(make, radius):
    m = make()
    gens = [g for _, g in m.generators()]
    for side in (cayley.RIGHT, cayley.LEFT):
        for base in (m.identity, m.multiply(gens[0], gens[-1])):
            yield build_cayley_ball(m, radius, side=side, base=base)


@pytest.mark.parametrize("name,make,radius", BALLS, ids=[b[0] for b in BALLS])
def test_distance_matrix_matches_distance(name, make, radius):
    kinds = set()
    for ball in balls(make, radius):
        n = len(ball)
        matrix = ball.distance_matrix()
        assert matrix == [[ball.distance(u, v) for v in range(n)] for u in range(n)]
        # one shared instance per distinct value
        entries = [d for row in matrix for d in row]
        assert len({id(d) for d in entries}) == len(set(entries))
        kinds.update(d.format()[0] for d in entries)
        if name != "t3-full":
            assert not all(ball.complete)
    if name == "t3-full":
        assert "i" in kinds and ">" not in kinds
    else:
        assert ">" in kinds


@pytest.mark.parametrize("name,make,radius", BALLS, ids=[b[0] for b in BALLS])
def test_distance_table_matches_pair_formatter(name, make, radius):
    for ball in balls(make, radius):
        want = reference_distance_table(ball)
        fresh = build_cayley_ball(ball.monoid, radius, side=ball.side, base=ball.base)
        assert distance_table(fresh) == want
