"""Row-at-a-time distance kernels and the shared breadth-first search
against the loops they replaced.

The space checks run on a Space's rows of exact integers over a common
denominator; CayleyBall.distance_rows builds each row from one BFS,
distance_table formats from those rows and certify_ball_rows validates
them in place of check_axioms.  The references below are the
per-entry versions of the same functions, kept as oracles: every triple
and every pair, in row-major order, through the ExtDist methods and
Fraction arithmetic.  A later section keeps the separate searches that
cayley.bfs replaced (ball distances with parent edges, R-class distances,
Svarc word lengths, monoid_space, the component poset) as oracles too,
the next one the full multiplication table that Green's relations, the
Schutzenberger groups and the congruence test used to read (with the
quotient check that built, validated and enumerated the quotient's own
table), the next one the backend products that FiniteMonoid now derives
from words and the exhaustive associativity scan that Light's test
replaced, the next one the four loops that monoids.explore replaced, the
next one the per-pair ExtDist loop that the evidence-mode action check ran
before it read rows, and the last one the finite-mode action check's own
loops.
"""

import random
import re
from collections import Counter
from fractions import Fraction
from functools import cached_property
from itertools import compress
from math import lcm
from operator import sub

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import rand_transformation_monoid
from semigeom import catalog, cayley, geometry, green, monoids
from semigeom.cayley import build_cayley_ball, distance_table
from semigeom.descriptions import NotRational
from semigeom.distances import (INF, INFINITE, ZERO, ExtDist, beyond, decode, finite,
                                scaled_rows)
from semigeom.errors import (CapExceeded, InvalidSpace, NotACongruence, NotFinite,
                             NotGenerating, NotStronglyConnected)
from semigeom.geometry import (
    EmbeddingReport,
    PairViolation,
    QiConstants,
    QuotientReport,
    SearchResult,
    Space,
    Violation,
    certify_ball_rows,
    check_axioms,
    check_product_projection_qi,
    check_qi_embedding,
    check_quasi_isometry,
    check_quotient_qi,
    eps_grid,
    is_congruence,
    monoid_space,
    quasi_density,
    quasi_metricity_lambda,
    search_quasi_isometry,
    space_from_ball,
    symmetrize,
)
from semigeom.green import FiniteMonoid, check_schutz_action_finite, svarc_milnor
from semigeom.monoids import TableMonoid, TransformationMonoid, enumerate_all

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


def reference_quasi_metricity_lambda(space, eps=0):
    if not all(d.is_finite() for row in space.dist for d in row):
        return None
    eps = Fraction(eps)
    lam = Fraction(1)
    n = len(space)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            need = (space.dist[j][i].value - eps) / space.dist[i][j].value
            if need > lam:
                lam = need
    return lam


def reference_quasi_density(f, source, target):
    image = sorted(set(f))
    worst = ZERO
    for y in range(len(target)):
        best = None
        horizon = None
        for x in image:
            a = target.dist[x][y]
            b = target.dist[y][x]
            if a.is_beyond() or b.is_beyond():
                h = a.horizon if a.is_beyond() else b.horizon
                horizon = h if horizon is None else max(horizon, h)
                continue
            if a.is_infinite() or b.is_infinite():
                continue
            strong = max(a.value, b.value)
            if best is None or strong < best:
                best = strong
        if best is None:
            return INFINITE if horizon is None else beyond(horizon)
        if best > worst.value:
            worst = finite(best)
    return worst


def reference_symmetrize(space, eps=0):
    """(sym rows, lam, eps, lam', metric_ok, forward_ok, back_lam,
    back_eps, backward_ok)."""
    lam = reference_quasi_metricity_lambda(space, eps)
    if lam is None:
        raise NotStronglyConnected("not strongly connected")
    eps = Fraction(eps)
    n = len(space)
    rows = [
        [space.dist[i][j].plus(space.dist[j][i]) for j in range(n)]
        for i in range(n)
    ]
    sym = Space(space.points, scaled_rows(rows))
    metric_ok = reference_check_axioms(sym.points, rows) is None
    for i in range(n):
        for j in range(n):
            if rows[i][j] != rows[j][i]:
                metric_ok = False
    lam_p = lam + 1
    identity = tuple(range(n))
    emb = reference_check_qi_embedding(identity, space, sym, lam_p, eps)
    mu = reference_quasi_density(identity, space, sym)
    forward_ok = emb.ok and mu.is_finite() and mu.value <= 0
    back_lam = lam_p * lam_p
    back_eps = 2 * lam_p * eps
    backward_ok = True
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if space.dist[j][i].value > back_lam * space.dist[i][j].value + back_eps:
                backward_ok = False
    return (tuple(map(tuple, rows)), lam, eps, lam_p, metric_ok, forward_ok, back_lam, back_eps,
            backward_ok)


def reference_rational(value):
    """One entry as the loader read it before scaled_rows read ints: a
    Fraction, from int() of the documented text, refused as the loader
    refused it (what is no int or string as NotRational)."""
    if isinstance(value, Fraction):
        q = value
    elif isinstance(value, bool) or value is None:
        raise NotRational("expected a rational, got %r" % value)
    elif isinstance(value, int):
        q = Fraction(value)
    elif isinstance(value, str):
        match = re.fullmatch(r"([+-]?[0-9]+)(?:/([0-9]+))?", value)
        if match is None:
            raise ValueError("Invalid literal for Fraction: %r" % value)
        num, den = match.groups()
        try:
            q = Fraction(int(num), int(den or 1))
        except ZeroDivisionError:
            raise ValueError("zero denominator in %r" % value) from None
    else:
        raise NotRational("expected int or 'p/q' string, got %r" % value)
    if q < 0:
        raise ValueError("distances are nonnegative, got %s" % q)
    return q


def reference_code(entry):
    if entry is None:
        return INF
    if not isinstance(entry, ExtDist):
        return reference_rational(entry)
    if entry.is_finite():
        return entry.value
    return INF if entry.is_infinite() else -1 - entry.horizon


def reference_scaled_rows(matrix):
    """scaled_rows through one Fraction per entry."""
    codes = [list(map(reference_code, row)) for row in matrix]
    scale = lcm(*{q.denominator for row in codes for q in row if isinstance(q, Fraction)})
    return scale, [[q.numerator * (scale // q.denominator) if isinstance(q, Fraction) else q
                    for q in row] for row in codes]


def reference_pair_need(dx, dy, eps, lam_max):
    if dx.is_beyond() or dy.is_beyond():
        return Fraction(1)
    if dx.is_infinite():
        return None if dy.is_finite() else Fraction(1)
    if dy.is_infinite():
        return None
    need = Fraction(1)
    if dx.value > 0:
        up = (dy.value - eps) / dx.value
        if up > need:
            need = up
    elif dy.value > eps:
        return None
    lo = dx.value / (dy.value + eps)
    if lo > need:
        need = lo
    return need if need <= lam_max else None


def reference_search(source, target, lam_max, eps_max, mu_max, cap=10):
    n, m = len(source), len(target)
    if n > cap or m > cap:
        raise CapExceeded(cap, "search is capped at %d points per space" % cap)
    grid = eps_grid(eps_max)
    if not grid or m == 0:
        return None
    lam_max = Fraction(lam_max)
    mu_max = Fraction(mu_max)
    eps_hi = grid[-1]
    assign = []

    def extend_ok(k):
        for i in range(k):
            for a, b in ((i, k), (k, i)):
                need = reference_pair_need(
                    source.dist[a][b],
                    target.dist[assign[a]][assign[b]],
                    eps_hi,
                    lam_max,
                )
                if need is None:
                    return False
        return True

    def leaf():
        f = tuple(assign)
        mu = reference_quasi_density(f, source, target)
        if not (mu.is_finite() and mu.value <= mu_max):
            return None
        best = None
        for eps in grid:
            lam = Fraction(1)
            for i in range(n):
                for j in range(n):
                    if i == j:
                        continue
                    need = reference_pair_need(
                        source.dist[i][j], target.dist[f[i]][f[j]], eps, lam_max
                    )
                    if need is None:
                        lam = None
                        break
                    if need > lam:
                        lam = need
                if lam is None:
                    break
            if lam is not None and (best is None or (lam, eps) < best):
                best = (lam, eps)
        if best is None:
            return None
        return SearchResult(f, QiConstants(best[0], best[1], mu.value))

    def dfs():
        k = len(assign)
        if k == n:
            return leaf()
        for img in range(m):
            assign.append(img)
            if extend_ok(k):
                found = dfs()
                if found is not None:
                    return found
            assign.pop()
        return None

    return dfs()


def reference_distance_table(ball):
    lines = []
    n = len(ball.vertices)
    for i in range(n):
        for j in range(n):
            lines.append(
                "%s\t%s\t%s" % (ball.name(i), ball.name(j), ball.distance(i, j).format())
            )
    return "\n".join(lines) + "\n"


def decode(x):
    """An entry of integer rows on scale 1 as the ExtDist it encodes."""
    if x == float("inf"):
        return INFINITE
    if x < 0:
        return beyond(-1 - x)
    return finite(x)


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
    st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(2, 3), Fraction(1),
                     Fraction(3, 2), Fraction(2)]),
    st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(3)]),
)
def test_check_qi_embedding_matches_pair_loop(data, src, tgt, lam, eps):
    source = Space(["x%d" % i for i in range(len(src))], scaled_rows(src))
    target = Space(["y%d" % i for i in range(len(tgt))], scaled_rows(tgt))
    f = data.draw(st.lists(st.integers(0, len(tgt) - 1), min_size=len(src),
                           max_size=len(src)))
    got = check_qi_embedding(f, source, target, lam, eps)
    assert got == reference_check_qi_embedding(f, source, target, lam, eps)


# -- rational spaces over a common denominator ----------------------------------


STAMPS = tuple(beyond(h) for h in range(1, 5))
EPSILONS = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(5, 2)]


@st.composite
def rational_matrices(draw, max_points=7, special=(INFINITE,)):
    """A zero diagonal and off-diagonal entries p/q with q in 1..6, so that
    the common denominator is rarely a power of two, or one of `special`
    (about one entry in four).  Half the draws are min-plus closed, which
    fills in most infinities."""
    n = draw(st.integers(1, max_points))
    fractions = st.builds(lambda p, q: finite(Fraction(p, q)),
                          st.integers(1, 12), st.integers(1, 6))
    entries = st.one_of(fractions, fractions, fractions, st.sampled_from(special))
    rows = [[ZERO if i == j else draw(entries) for j in range(n)] for i in range(n)]
    if draw(st.booleans()):
        close(rows)
    return rows


def space_of(rows, prefix="p"):
    return Space(["%s%d" % (prefix, i) for i in range(len(rows))], scaled_rows(rows))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rational_matrices(), st.sampled_from(EPSILONS))
def test_quasi_metricity_lambda_matches_pair_loop(rows, eps):
    space = space_of(rows)
    got = quasi_metricity_lambda(space, eps)
    assert got == reference_quasi_metricity_lambda(space, eps)
    assert got is None or type(got) is Fraction


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data(), rational_matrices(),
       rational_matrices(special=(INFINITE, ZERO) + STAMPS))
def test_quasi_density_matches_pair_loop(data, src, tgt):
    source, target = space_of(src, "x"), space_of(tgt, "y")
    f = data.draw(st.lists(st.integers(0, len(tgt) - 1), min_size=len(src),
                           max_size=len(src)))
    got = quasi_density(f, source, target)
    assert got == reference_quasi_density(f, source, target)
    assert not got.is_finite() or type(got.value) is Fraction


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rational_matrices(), st.sampled_from(EPSILONS))
def test_symmetrize_matches_pair_loop(rows, eps):
    space = space_of(rows)
    try:
        want = reference_symmetrize(space, eps)
    except NotStronglyConnected:
        with pytest.raises(NotStronglyConnected):
            symmetrize(space, eps)
        return
    got = symmetrize(space, eps)
    assert got.space.points == space.points
    assert (got.space.dist, got.lam, got.eps, got.forward.lam, got.metric_ok,
            got.forward_ok, got.backward_lam, got.backward_eps,
            got.backward_ok) == want
    assert got.forward == QiConstants(want[3], eps, 0)
    for q in (got.lam, got.eps, got.forward.lam, got.forward.eps, got.forward.mu,
              got.backward_lam, got.backward_eps):
        assert type(q) is Fraction
    for row in got.space.dist:
        assert all(type(d.value) is Fraction for d in row)


# what a space file or an API caller may put in a matrix: "p/q" text with
# signs, leading zeros and unreduced forms, numerators around 10**30
DIGITS = st.one_of(st.integers(0, 99), st.integers(10**29, 10**31))
RATIO_TEXT = st.one_of(
    st.builds(lambda sign, zeros, p, q: "%s%s%d%s" % (sign, "0" * zeros, p, q),
              st.sampled_from(["", "+", "-"]), st.integers(0, 2), DIGITS,
              st.one_of(st.just(""), st.builds("/{}{}".format, st.sampled_from(["", "0"]),
                                               st.integers(1, 60)))),
    st.sampled_from(["-0", "+3", "4/6", "0/7", "000/012", "6/3", "-0/5"]),
)
GOOD_ENTRIES = st.one_of(
    st.integers(0, 40), DIGITS, RATIO_TEXT.filter(lambda t: not t.startswith("-")),
    st.sampled_from(["-0", "-0/5"]),
    st.builds(Fraction, DIGITS, st.integers(1, 60)), st.none(),
    st.builds(Fraction, st.integers(0, 40), st.integers(1, 12)).map(finite),
    st.just(INFINITE), st.integers(0, 9).map(beyond),
)
# a third of the text is negative; the rest are entries the reader refuses
BAD_ENTRIES = st.one_of(
    RATIO_TEXT, st.integers(-40, -1), st.builds(Fraction, st.integers(-40, -1),
                                                st.integers(1, 12)),
    st.sampled_from(["-2/4", "1/0", "-3/00", "1e3", "1.5", " 1", "x", "", 1.5, 0.0, True,
                     False, [1], {"a": 1}, 1j, b"1"]),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.data())
def test_scaled_rows_matches_the_fraction_encoder(data):
    """Equal (scale, rows), or, at the first bad entry in row-major order,
    the same exception type and text."""
    n = data.draw(st.integers(1, 5))
    matrix = data.draw(st.lists(st.lists(GOOD_ENTRIES, min_size=n, max_size=n),
                                min_size=n, max_size=n))
    for _ in range(data.draw(st.integers(0, 2))):
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        matrix[i][j] = data.draw(BAD_ENTRIES)
    try:
        want = reference_scaled_rows(matrix)
    except (TypeError, ValueError) as error:
        with pytest.raises(type(error)) as got:
            scaled_rows(matrix)
        assert (type(got.value), str(got.value)) == (type(error), str(error))
        return
    got = scaled_rows(matrix)
    assert got == want
    assert all(type(c) is int or c == INF for row in got[1] for c in row)


def test_symmetrize_backward_certificate_needs_its_epsilon():
    """d(v,u) = 2 <= 1 * d(u,v) + 5/2, so lambda = 1 and lambda' = 2; the
    backward certificate (4, 10) holds only through its epsilon, since
    2 > 4 * (1/6)."""
    space = space_of([[ZERO, finite(Fraction(1, 6))], [finite(2), ZERO]])
    got = symmetrize(space, Fraction(5, 2))
    assert (got.lam, got.backward_lam, got.backward_eps) == (1, 4, 10)
    assert got.backward_ok
    assert reference_symmetrize(space, Fraction(5, 2))[8]


def test_symmetrize_draws_reach_every_verdict():
    """The strategy above reaches every outcome that can occur: a space that
    is not strongly connected, and a symmetrization that is or is not a
    metric (the forward and backward certificates hold by construction)."""
    seen = set()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(rational_matrices(), st.sampled_from(EPSILONS))
    def collect(rows, eps):
        try:
            seen.add(reference_symmetrize(space_of(rows), eps)[4])
        except NotStronglyConnected:
            seen.add(None)

    collect()
    assert seen == {None, True, False}


SEARCH_SPECIAL = (INFINITE, ZERO, beyond(2))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    rational_matrices(max_points=5, special=SEARCH_SPECIAL),
    rational_matrices(max_points=5, special=SEARCH_SPECIAL),
    st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(4)]),
    st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(4)]),
    st.sampled_from([Fraction(0), Fraction(1), Fraction(2)]),
)
def test_search_matches_pair_need_search(src, tgt, lam_max, eps_max, mu_max):
    source, target = space_of(src, "x"), space_of(tgt, "y")
    got = search_quasi_isometry(source, target, lam_max, eps_max, mu_max)
    assert got == reference_search(source, target, lam_max, eps_max, mu_max)
    if got is not None:
        for q in (got.constants.lam, got.constants.eps, got.constants.mu):
            assert type(q) is Fraction


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
        rows = ball.distance_rows()
        for u in range(n):
            for v in range(n):
                d = decode(rows[u][v])
                assert d == ball.distance(u, v)
                kinds.add(d.format()[0])
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


# -- the ball-row certificate ----------------------------------------------------
#
# space_from_ball validates a ball's rows by certify_ball_rows instead of
# the cubic check_axioms, which stays the reference here: on every ball
# both accept, and no mutation the certificate accepts is one that
# check_axioms would reject.
# reference_certify_ball_rows is the certificate as the row scan it was
# before it read columns: both name the same first violation.


def eager_matrix(ball):
    n = len(ball)
    return [[ball.distance(u, v) for v in range(n)] for u in range(n)]


@pytest.mark.parametrize("name,make,radius", BALLS, ids=[b[0] for b in BALLS])
def test_certificate_accepts_ball_rows_as_check_axioms_does(name, make, radius):
    for ball in ball_and_schutz_balls(make, radius):
        rows = ball.distance_rows()
        matrix = eager_matrix(ball)
        points = [ball.name(i) for i in range(len(ball))]
        assert (1, rows) == scaled_rows(matrix)
        assert certify_ball_rows(ball, rows) is None
        assert check_axioms(points, matrix) is None
        assert reference_check_axioms(points, matrix) is None
        space = space_from_ball(ball)
        assert space.decoded == (1, rows)
        assert space.dist == tuple(map(tuple, matrix))


def reference_certify_ball_rows(ball, rows):
    """certify_ball_rows as a row scan: every rule on one row, then the
    next row, with the edge and parent rules read off all the edges."""
    r = ball.radius
    stamp = -1 - r
    n = len(rows)
    depths = range(min(n, r + 1))
    allowed = {*depths, stamp, INF}
    positive = frozenset(depths[1:])
    key = dict(zip(depths, depths))
    key[stamp] = r + 1
    key[INF] = r + 3
    sources = [u for u, out in enumerate(ball.out_adj) for _v in out]
    targets = [v for out in ball.out_adj for v in out]
    for s, row in enumerate(rows):
        if not allowed.issuperset(row):
            v = next(v for v, x in enumerate(row) if x not in allowed)
            return Violation("range", (s, v))
        if row[s] != 0:
            return Violation("diagonal", (s,))
        if row.count(0) > 1:
            v = next(v for v, x in enumerate(row) if x == 0 and v != s)
            return Violation("positivity", (s, v))
        k = list(map(key.__getitem__, row))
        steps = list(map(sub, map(k.__getitem__, targets), map(k.__getitem__, sources)))
        if max(steps, default=0) > 1:
            e = next(e for e, step in enumerate(steps) if step > 1)
            return Violation("edge", (s, sources[e], targets[e]))
        parented = set(compress(targets, map((1).__eq__, steps)))
        if not parented.issuperset(compress(range(n), map(positive.__contains__, row))):
            v = next(v for v, x in enumerate(row) if x in positive and v not in parented)
            return Violation("parent", (s, v))
        if INF in row:
            for v, x in enumerate(row):
                if x != INF and not ball.complete[v]:
                    return Violation("infinity", (s, v))
    return None


def certificate_balls():
    """Truncated balls with stamps, infinities and unreached vertices, and
    one complete graph."""
    yield build_cayley_ball(catalog.monoid("bicyclic"), 4)
    yield build_cayley_ball(catalog.monoid("free2"), 3)
    yield build_cayley_ball(catalog.monoid("t3"), 2)
    yield build_cayley_ball(catalog.monoid("t3"), 2, side=cayley.LEFT)
    m = catalog.product("bicyclic", "z2")
    gens = [g for _, g in m.generators()]
    yield build_cayley_ball(m, 3, base=m.multiply(gens[0], gens[-1]))
    yield cayley.full_cayley_graph(catalog.monoid("t3"))


def mutants(ball, rows):
    """(kind, s, v, value): each mutation the certificate must reject, at
    every entry where it applies."""
    r = ball.radius
    stamp = -1 - r
    for s, row in enumerate(rows):
        reached = [v for v, x in enumerate(row) if x != INF]
        reaches_incomplete = not all(ball.complete[v] for v in reached)
        yield "diagonal", s, s, 1
        yield "diagonal", s, s, stamp
        for v, x in enumerate(row):
            if v == s:
                continue
            if x == 1:
                yield "one-to-zero", s, v, 0
            if 1 < x <= r:
                yield "lowered", s, v, x - 1
            if 0 < x <= r:
                yield "raised", s, v, x + 1
                yield "finite-to-stamp", s, v, stamp
            if x == stamp:
                for k in range(r + 1):
                    yield "stamp-to-finite", s, v, k
                if reaches_incomplete:
                    yield "infinity-reaching-incomplete", s, v, INF


def mutated(rows, s, v, value):
    out = [list(row) for row in rows]
    out[s][v] = value
    return out


def test_certificate_rejects_every_mutation(monkeypatch):
    kinds = Counter()
    for ball in certificate_balls():
        rows = ball.distance_rows()
        for kind, s, v, value in mutants(ball, rows):
            bad = mutated(rows, s, v, value)
            assert certify_ball_rows(ball, bad) is not None, (kind, s, v, value)
            kinds[kind] += 1
        # space_from_ball raises on what the certificate rejects
        kind, s, v, value = next(mutants(ball, rows))
        monkeypatch.setattr(ball, "distance_rows",
                            lambda: mutated(rows, s, v, value))
        with pytest.raises(InvalidSpace) as info:
            space_from_ball(ball)
        assert info.value.violation == Violation("diagonal", (0,))
    assert set(kinds) == {"diagonal", "one-to-zero", "lowered", "raised",
                          "finite-to-stamp", "stamp-to-finite",
                          "infinity-reaching-incomplete"}


def test_certificate_names_the_failing_rule():
    ball = build_cayley_ball(catalog.monoid("free2"), 2)
    rows = ball.distance_rows()
    # 0: 1, 1: a, 2: b, 3: aa, ...; row 0 is 0 1 1 2 2 2 2
    assert rows[0] == [0, 1, 1, 2, 2, 2, 2]
    assert rows[1][0] == -3  # the identity is not reached from a
    cases = [
        ((0, 3, 3), Violation("range", (0, 3))),
        ((0, 0, 1), Violation("diagonal", (0,))),
        ((0, 1, 0), Violation("positivity", (0, 1))),
        ((0, 3, 1), Violation("parent", (0, 3))),
        ((0, 1, 2), Violation("edge", (0, 0, 1))),
        ((0, 3, -3), Violation("edge", (0, 1, 3))),
        ((1, 0, INF), Violation("infinity", (1, 3))),
    ]
    for (s, v, value), want in cases:
        assert certify_ball_rows(ball, mutated(rows, s, v, value)) == want


def test_certificate_accepts_only_the_rows_or_a_stamp_for_infinity():
    """Random single-entry mutations: the only one the certificate may
    accept is a stamp where infinity is proved, a conservative value that
    check_axioms accepts too."""
    rng = random.Random(12)
    rejected = 0
    for ball in certificate_balls():
        rows = ball.distance_rows()
        n, r = len(rows), ball.radius
        points = [ball.name(i) for i in range(n)]
        for _ in range(150):
            s, v = rng.randrange(n), rng.randrange(n)
            x = rows[s][v]
            value = rng.choice([x - 1 if 0 < x < INF else 0, x + 1 if x < INF else 0,
                                0, 1, -1 - r, INF, rng.randint(0, r)])
            if value == x:
                continue
            bad = mutated(rows, s, v, value)
            if certify_ball_rows(ball, bad) is None:
                assert (x, value) == (INF, -1 - r)
                matrix = [[decode(d) for d in row] for row in bad]
                assert reference_check_axioms(points, matrix) is None
            else:
                rejected += 1
    assert rejected > 500


NAMING_BALLS = [("certificate", certificate_balls)] + [
    (name, lambda make=make, radius=radius: balls(make, radius))
    for name, make, radius in BALLS]


@pytest.mark.parametrize("name,make", NAMING_BALLS, ids=[b[0] for b in NAMING_BALLS])
def test_certificate_names_what_the_row_scan_names(name, make):
    kinds = Counter()
    for ball in make():
        rows = ball.distance_rows()
        assert certify_ball_rows(ball, rows) is None
        assert reference_certify_ball_rows(ball, rows) is None
        for kind, s, v, value in mutants(ball, rows):
            x, rows[s][v] = rows[s][v], value
            want = reference_certify_ball_rows(ball, rows)
            assert certify_ball_rows(ball, rows) == want, (kind, s, v, value)
            rows[s][v] = x
            kinds[want.kind] += 1
    assert {"diagonal", "edge", "parent"} <= set(kinds)
    if name == "certificate":
        assert set(kinds) == {"range", "diagonal", "positivity", "edge", "parent",
                              "infinity"}


def test_certificate_needs_a_parent_at_a_vertex_without_in_neighbours():
    ball = build_cayley_ball(catalog.monoid("free2"), 2)
    rows = ball.distance_rows()
    # nothing leads into the identity; a depth there has no parent, and
    # every edge out of it still keeps the edge rule
    assert not any(0 in out for out in ball.out_adj)
    bad = mutated(rows, 1, 0, 2)
    assert certify_ball_rows(ball, bad) == Violation("parent", (1, 0))
    assert reference_certify_ball_rows(ball, bad) == Violation("parent", (1, 0))


def test_certificate_reads_the_nearest_in_neighbour():
    ball = build_cayley_ball(catalog.monoid("t3"), 1, side=cayley.LEFT)
    rows = ball.distance_rows()
    # "002" (vertex 3) is entered from the identity and by its own loops; a
    # stamp there breaks the edge from the identity, not the loops
    assert ball.out_adj[0] == [1, 2, 3] and ball.out_adj[3] == [3, 3]
    bad = mutated(rows, 0, 3, -2)
    assert certify_ball_rows(ball, bad) == Violation("edge", (0, 0, 3))
    assert reference_certify_ball_rows(ball, bad) == Violation("edge", (0, 0, 3))


SMALL_BALLS = ["free2", "free-comm2", "bicyclic", "integers", "t3", "z3",
               ("bicyclic", "z2"), ("integers", "z3")]


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from(SMALL_BALLS), st.integers(1, 5),
       st.sampled_from([cayley.RIGHT, cayley.LEFT]))
def test_certificate_matches_the_row_scan_on_random_mutations(data, name, radius, side):
    m = catalog.product(*name) if isinstance(name, tuple) else catalog.monoid(name)
    ball = build_cayley_ball(m, radius, side=side)
    rows = ball.distance_rows()
    n = len(rows)
    values = st.sampled_from([*range(-2, radius + 3), -1 - radius, INF])
    for _ in range(data.draw(st.integers(1, 3))):
        s, v = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        rows[s][v] = data.draw(values)
    assert certify_ball_rows(ball, rows) == reference_certify_ball_rows(ball, rows)


def counting_view(monkeypatch):
    """Record every Space whose ExtDist view is built."""
    built = []
    view = vars(Space)["dist"]

    def counted(space):
        built.append(space)
        return view.func(space)

    prop = cached_property(counted)
    prop.__set_name__(Space, "dist")
    monkeypatch.setattr(Space, "dist", prop)
    return built


def test_checks_on_derived_spaces_never_build_the_view(monkeypatch):
    built = counting_view(monkeypatch)
    report = check_product_projection_qi(catalog.product("bicyclic", "z2"), 4)
    assert report.ok and report.embedding.skipped > 0
    fm = FiniteMonoid(catalog.monoid("t3"))
    assert check_quotient_qi(fm, list(range(len(fm)))).ok
    assert not check_quotient_qi(fm, [0] * len(fm)).ok
    ball = build_cayley_ball(catalog.monoid("bicyclic"), 3)
    space = space_from_ball(ball)
    assert not space.exact and not geometry.is_strongly_connected(space)
    full = monoid_space(FiniteMonoid(catalog.monoid("z3")))
    assert full.exact and geometry.is_strongly_connected(full)
    assert built == []
    # once built, the view is the matrix of ExtDist values
    assert space.dist == tuple(map(tuple, eager_matrix(ball)))
    assert space.d(0, 1) == ball.distance(0, 1)
    assert built == [space]


# -- one breadth-first search ----------------------------------------------------
#
# The references below are the searches that cayley.bfs replaced: the
# parent-edge search of CayleyBall, the R-class search of green, the word
# lengths of svarc_milnor, the per-source search of monoid_space and the
# second condensation of component_poset.


def reference_bfs_from(ball, s):
    out_adj = [[] for _ in ball.vertices]
    for eid, (u, v, _label) in enumerate(ball.edges):
        out_adj[u].append((v, eid))
    dist = [-1] * len(ball.vertices)
    parent_edge = [-1] * len(ball.vertices)
    dist[s] = 0
    queue = [s]
    qi = 0
    all_complete = ball.complete[s]
    while qi < len(queue):
        u = queue[qi]
        qi += 1
        for v, eid in out_adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                parent_edge[v] = eid
                if not ball.complete[v]:
                    all_complete = False
                queue.append(v)
    return dist, parent_edge, all_complete


def reference_distance(ball, u, v):
    dist, _parents, all_complete = reference_bfs_from(ball, u)
    n = dist[v]
    if n >= 0:
        return finite(n) if n <= ball.radius else beyond(ball.radius)
    return INFINITE if all_complete else beyond(ball.radius)


def reference_geodesic(ball, u, v):
    dist, parent_edge, _ = reference_bfs_from(ball, u)
    if dist[v] < 0:
        return None
    labels = []
    cur = v
    while cur != u:
        src, _dst, label = ball.edges[parent_edge[cur]]
        labels.append(label)
        cur = src
    labels.reverse()
    return labels


def reference_schutzenberger_ball(m, h, radius):
    ball = build_cayley_ball(m, radius, side=cayley.RIGHT, base=h)
    scc = cayley.strongly_connected_components(ball)
    keep = scc.components[scc.comp_of[0]]
    remap = {old: new for new, old in enumerate(keep)}
    complete = [ball.complete[i] for i in keep]
    edges = []
    for u, v, sym in ball.edges:
        if u in remap:
            if v in remap:
                edges.append((remap[u], remap[v], sym))
            else:
                complete[remap[u]] = False
    return [ball.vertices[i] for i in keep], [ball.lengths[i] for i in keep], edges, complete


def ball_of_lists(m, radius, base, vertices, lengths, edges, complete):
    """A CayleyBall with the given edges, each slot without one left -1."""
    syms = list(m.generator_symbols)
    succ = [[-1] * len(syms) for _ in vertices]
    for u, v, sym in edges:
        succ[u][syms.index(sym)] = v
    keys = [x.key for x in vertices]
    ball = cayley.CayleyBall(m, cayley.RIGHT, radius, base, keys,
                             {k: i for i, k in enumerate(keys)}, lengths, succ)
    assert ball.edges == edges and ball.complete == complete
    return ball


def reference_condensation(ball, comp_of, k):
    adj = [set() for _ in range(k)]
    for u, v, _label in ball.edges:
        if comp_of[u] != comp_of[v]:
            adj[comp_of[u]].add(comp_of[v])
    return adj


def reference_component_poset(ball, scc):
    adj = reference_condensation(ball, scc.comp_of, len(scc.components))
    reach = []
    for c in range(len(adj)):
        seen = {c}
        todo = [c]
        while todo:
            cur = todo.pop()
            for s in adj[cur]:
                if s not in seen:
                    seen.add(s)
                    todo.append(s)
        reach.append(seen)
    return reach


def reference_verified(ball, scc):
    reach = reference_component_poset(ball, scc)
    return [all(ball.complete[v] for d in reach[c] for v in scc.components[d])
            for c in range(len(scc.components))]


def reference_rclass_dist(fm, geo):
    vpos = {x: k for k, x in enumerate(geo.vertices)}
    out_adj = [[] for _ in geo.vertices]
    for k, x in enumerate(geo.vertices):
        for g in fm.gen_indices:
            t = vpos.get(fm.product(x, g))
            if t is not None:
                out_adj[k].append(t)
    rows = []
    for s in range(len(geo.vertices)):
        dist = [-1] * len(geo.vertices)
        dist[s] = 0
        queue = [s]
        qi = 0
        while qi < len(queue):
            u = queue[qi]
            qi += 1
            for v in out_adj[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        rows.append(dist)
    return rows


def reference_word_lengths(group, s_set):
    length = [-1] * group.order
    length[group.identity_index] = 0
    queue = [group.identity_index]
    qi = 0
    while qi < len(queue):
        g = queue[qi]
        qi += 1
        for s in s_set:
            t = group.table[g][s]
            if length[t] < 0:
                length[t] = length[g] + 1
                queue.append(t)
    return length


def reference_monoid_space_rows(fm):
    n = len(fm)
    matrix = []
    for s in range(n):
        dist = [-1] * n
        dist[s] = 0
        queue = [s]
        qi = 0
        while qi < len(queue):
            u = queue[qi]
            qi += 1
            for g in fm.gen_indices:
                v = fm.product(u, g)
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        matrix.append([finite(d) if d >= 0 else INFINITE for d in dist])
    return matrix


def ball_and_schutz_balls(make, radius):
    m = make()
    yield from balls(make, radius)
    gens = [g for _, g in m.generators()]
    for h in (m.identity, m.multiply(gens[0], gens[-1])):
        sb = cayley.schutzenberger_ball(m, h, radius)
        want = reference_schutzenberger_ball(m, h, radius)
        assert [sb.vertices, sb.lengths, sb.edges, sb.complete] == list(want)
        assert (sb.radius, sb.base) == (radius, h)
        yield sb


@pytest.mark.parametrize("name,make,radius", BALLS, ids=[b[0] for b in BALLS])
def test_ball_search_matches_parent_edge_search(name, make, radius):
    for ball in ball_and_schutz_balls(make, radius):
        n = len(ball)
        # geodesic finds a vertex's edges by bisecting on the source
        sources = [e[0] for e in ball.edges]
        assert sources == sorted(sources)
        for u in range(n):
            dist, _parents, all_complete = reference_bfs_from(ball, u)
            depth, order, got_complete = ball._bfs_from(u)
            assert depth == dist
            assert got_complete == all_complete
            assert sorted(order) == [v for v in range(n) if dist[v] >= 0]
            for v in range(n):
                assert ball.distance(u, v) == reference_distance(ball, u, v)
                assert ball.geodesic(u, v) == reference_geodesic(ball, u, v)


@pytest.mark.parametrize("name,make,radius", BALLS, ids=[b[0] for b in BALLS])
def test_condensation_matches_reference(name, make, radius):
    for ball in ball_and_schutz_balls(make, radius):
        scc = cayley.strongly_connected_components(ball)
        k = len(scc.components)
        assert scc.succ == reference_condensation(ball, scc.comp_of, k)
        assert scc.verified == reference_verified(ball, scc)
        assert cayley.component_poset(ball, scc) == reference_component_poset(ball, scc)


def t4_monoid():
    return TransformationMonoid(
        4, [("s", [1, 2, 3, 0]), ("t", [1, 0, 2, 3]), ("e", [0, 0, 2, 3])])


# seeded random transformation monoids of degree <= 4 (4-128 elements) and
# <= 5 (24-221 elements)
FINITE = [("t3", lambda: catalog.monoid("t3")), ("t4", t4_monoid)] + [
    ("random-%d-deg%d" % (seed, degree), lambda seed=seed, degree=degree:
     rand_transformation_monoid(random.Random(seed), max_degree=degree))
    for seed, degree in ((5, 4), (6, 4), (9, 4), (11, 4), (0, 5), (3, 5), (5, 5), (11, 5))
]


@pytest.mark.parametrize("name,make", FINITE, ids=[f[0] for f in FINITE])
def test_table_searches_match_references(name, make):
    fm = FiniteMonoid(make())
    assert monoid_space(fm).dist == tuple(map(tuple, reference_monoid_space_rows(fm)))
    gs = fm.green()
    for r_class in gs.r_classes:
        h_class = gs.h_classes[gs.h_class_of[r_class[0]]]
        geo = green._RClassGeometry(fm, h_class)
        assert geo.dist == reference_rclass_dist(fm, geo)
        for ball_radius in (0, 1, 2):
            try:
                report = svarc_milnor(fm, h_class, ball_radius=ball_radius)
            except NotGenerating:
                continue
            assert report.word_length == reference_word_lengths(geo.group, report.s_indices)


@pytest.mark.parametrize("name,make", FINITE, ids=[f[0] for f in FINITE])
def test_svarc_missing_elements_match_reference(name, make):
    fm = FiniteMonoid(make())
    gs = fm.green()
    for h_class in gs.h_classes:
        geo = green._RClassGeometry(fm, h_class)
        if geo.group.order == 1:
            continue
        # at l = 0 the strong 0-ball {x0} gives S = {e}, which generates
        # only the identity
        want = [geo.group.rep_names[g] for g, d in enumerate(
            reference_word_lengths(geo.group, [geo.group.identity_index])) if d < 0]
        with pytest.raises(NotGenerating) as caught:
            svarc_milnor(fm, h_class, ball_radius=0, l=0)
        assert caught.value.missing == want


@pytest.mark.parametrize("name", ["free2", "free-comm2", "free-comm3", "bicyclic", "integers"])
@pytest.mark.parametrize("radius", [2, 3, 4, 5, 6])
def test_evidence_action_matches_fresh_schutzenberger_ball(monkeypatch, name, radius):
    m = catalog.monoid(name)
    got = green.check_schutz_action_ball(m, radius)
    # the report as built from a second, separately built right ball
    monkeypatch.setattr(cayley, "base_component", lambda ball, scc: ball_of_lists(
        m, ball.radius, m.identity, *reference_schutzenberger_ball(m, m.identity, ball.radius)))
    assert got == green.check_schutz_action_ball(m, radius)


@pytest.mark.parametrize("name", ["free2", "bicyclic", "integers"])
def test_evidence_action_searches_each_ball_once(monkeypatch, name):
    m = catalog.monoid(name)
    built = []
    searched = []
    build, tarjan = cayley.build_cayley_ball, cayley.strongly_connected_components

    def counted_build(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    def counted_tarjan(ball):
        searched.append(ball)
        return tarjan(ball)

    monkeypatch.setattr(cayley, "build_cayley_ball", counted_build)
    monkeypatch.setattr(cayley, "strongly_connected_components", counted_tarjan)
    green.check_schutz_action_ball(m, 4)
    # the right and the left ball, each built and searched once
    assert len(built) == 2
    assert searched == built


def counting_products(m):
    products = []
    mul = m._mul_key

    def counted(a, b):
        products.append((a, b))
        return mul(a, b)

    m._mul_key = counted
    return products


GRAPHS = FINITE[:4] + [("one-a-zero-b", lambda: catalog.monoid("one-a-zero-b")),
                       ("z3", lambda: catalog.monoid("z3"))]


@pytest.mark.parametrize("name,make", GRAPHS, ids=[g[0] for g in GRAPHS])
@pytest.mark.parametrize("side", [cayley.RIGHT, cayley.LEFT])
def test_full_cayley_graph_makes_one_product_per_slot(name, make, side):
    m = make()
    elements = enumerate_all(m)
    want = build_cayley_ball(m, len(elements) + 1, side=side)
    products = counting_products(m)
    graph = cayley.full_cayley_graph(m, side=side)
    slots = [(v.key, g) if side == cayley.RIGHT else (g, v.key)
             for v in graph.vertices for g in m._gen_keys]
    assert len(graph) == len(elements)
    assert Counter(products) == Counter(slots)
    assert [graph.vertices, graph.lengths, graph.edges, graph.complete, graph.radius] == [
        want.vertices, want.lengths, want.edges, want.complete, want.radius]
    assert all(graph.complete)


def test_full_cayley_graph_not_finite_within_cap():
    with pytest.raises(NotFinite):
        cayley.full_cayley_graph(catalog.monoid("bicyclic"), cap=50)
    size = len(enumerate_all(catalog.monoid("t3")))
    # the one message FiniteMonoid gives too
    with pytest.raises(NotFinite, match="^monoid not exhausted within cap %d$" % (size - 1)):
        cayley.full_cayley_graph(catalog.monoid("t3"), cap=size - 1)
    assert len(cayley.full_cayley_graph(catalog.monoid("t3"), cap=size)) == size


def reference_fiber_diameters(pm, radius):
    """(r_bound, skipped) from one CayleyBall.distance call per fiber pair."""
    ball = build_cayley_ball(pm, radius)
    fibers = {}
    for i, v in enumerate(ball.vertices):
        fibers.setdefault(v.key[0], []).append(i)
    r_bound = ZERO
    skipped = 0
    for members in fibers.values():
        for x in members:
            for y in members:
                d = ball.distance(x, y)
                if d.is_beyond():
                    skipped += 1
                elif d.is_infinite():
                    r_bound = INFINITE
                elif r_bound.is_finite() and d.value > r_bound.value:
                    r_bound = d
    return r_bound, skipped


PRODUCTS = [("bicyclic", "z2"), ("integers", "z3"), ("bicyclic", "one-a-zero"),
            ("integers", "bicyclic"), ("free2", "t2"), ("one-a-zero", "t2"), ("z2", "one-a-zero")]


@pytest.mark.parametrize("left,right", PRODUCTS, ids=["%s-x-%s" % p for p in PRODUCTS])
def test_projection_fibers_match_distance_loop(left, right):
    pm = catalog.product(left, right)
    for radius in (1, 2, 3, 4):
        report = check_product_projection_qi(pm, radius)
        want = reference_fiber_diameters(pm, radius)
        assert (report.r_bound, report.skipped_fiber_pairs) == want
        assert report.notes[0] == ("evidence at ball radius %d; %d fiber pairs undecided"
                                   % (radius, want[1]))


# -- Green's relations without a multiplication table ---------------------------
#
# FiniteMonoid keeps only the generator translations on each side; the
# references below are the full-table view it replaced: all n^2 products,
# classes by comparing principal ideals, the stabilizer scan over table
# rows, and the congruence test over every pair.  The quotient check's
# reference builds the quotient's table with FiniteMonoid.product,
# validates it as a TableMonoid and enumerates it again before its BFS.


class TableMonoidView:
    """The former FiniteMonoid: every element and the full product table."""

    def __init__(self, m):
        self.keys = [e.key for e in enumerate_all(m)]
        index = {k: i for i, k in enumerate(self.keys)}
        self.table = [[index[m._mul_key(a, b)] for b in self.keys] for a in self.keys]


def reference_partition(n, key_of):
    groups = {}
    for i in range(n):
        groups.setdefault(key_of(i), []).append(i)
    classes = sorted(groups.values(), key=lambda c: c[0])
    class_of = [0] * n
    for ci, members in enumerate(classes):
        for i in members:
            class_of[i] = ci
    return classes, class_of


def reference_green(view):
    table = view.table
    n = len(table)
    right_ideal = [frozenset(table[i]) for i in range(n)]
    left_ideal = [frozenset(table[j][i] for j in range(n)) for i in range(n)]
    r_classes, r_of = reference_partition(n, lambda i: right_ideal[i])
    l_classes, l_of = reference_partition(n, lambda i: left_ideal[i])
    h_classes, h_of = reference_partition(n, lambda i: (right_ideal[i], left_ideal[i]))
    r_order = [(i, j) for i, ci in enumerate(r_classes) for j, cj in enumerate(r_classes)
               if i != j and right_ideal[ci[0]] <= right_ideal[cj[0]]]
    return r_classes, l_classes, h_classes, r_of, l_of, h_of, r_order


def reference_schutz(view, members):
    pos = {x: k for k, x in enumerate(members)}
    hset = frozenset(members)
    seen = {}
    for s, row in enumerate(view.table):
        images = [row[h] for h in members]
        if frozenset(images) == hset:
            seen.setdefault(tuple(pos[y] for y in images), s)
    return list(seen), list(seen.values())


def reference_is_congruence(view, class_of):
    rep = {}
    for x, row in enumerate(view.table):
        for y, xy in enumerate(row):
            key = (class_of[x], class_of[y])
            prev = rep.setdefault(key, (x, y, class_of[xy]))
            if prev[2] != class_of[xy]:
                return (prev[0], prev[1], x, y)
    return None


def rectangular_band_with_identity(rows, cols):
    names = ["%d%d" % (i, j) for i in range(rows) for j in range(cols)]
    table = [[names.index("%s%s" % (a[0], b[1])) for b in names] for a in names]
    return TableMonoid.from_semigroup(names, table)


def as_table_monoid(m):
    view = TableMonoidView(m)
    names = [m._key_name(k) for k in view.keys]
    return TableMonoid(names, view.table, 0, [m._key_name(g) for g in m._gen_keys])


GREEN_MONOIDS = FINITE + [
    ("one-a-zero-b", lambda: catalog.monoid("one-a-zero-b")),
    ("band-2x3", lambda: rectangular_band_with_identity(2, 3)),
    ("z2-x-z3", lambda: catalog.product("z2", "z3")),
    ("t2-x-z2", lambda: catalog.product("t2", "z2")),
    ("t3-table", lambda: as_table_monoid(catalog.monoid("t3"))),
]


def partitions(fm, view, rng):
    """Named partitions of fm's elements: random ones, Rees quotients by
    the ideal of an element, kernels (by key, key component or image set)
    and the Green partitions."""
    n = len(fm)
    table = view.table
    gs = fm.green()
    out = [("all", [0] * n), ("points", list(range(n))),
           ("r", gs.r_class_of), ("l", gs.l_class_of), ("h", gs.h_class_of)]
    for k in (2, 3, 5):
        out.append(("random-%d" % k, [rng.randrange(k) for _ in range(n)]))
    for x in sorted(rng.sample(range(n), min(n, 4))):
        ideal = {table[table[s][x]][t] for s in range(n) for t in range(n)}
        out.append(("rees-%d" % x, [0 if i in ideal else i + 1 for i in range(n)]))
    for name, part in (("kernel", lambda key: tuple(sorted(
            {tuple(i for i, y in enumerate(key) if y == v) for v in key}))),
            ("image", lambda key: frozenset(key)),
            ("left-factor", lambda key: key[0])):
        try:
            keys = [part(key) for key in view.keys]
        except TypeError:
            continue
        ids = {}
        out.append((name, [ids.setdefault(k, len(ids)) for k in keys]))
    return out


def reference_schutz_table(perms):
    """The group's table by composing actions: the action of st is first
    t, then s."""

    def compose(p, q):
        return tuple(p[q[i]] for i in range(len(p)))

    index = {p: k for k, p in enumerate(perms)}
    return [[index[compose(p, q)] for q in perms] for p in perms]


@pytest.mark.parametrize("name,make", GREEN_MONOIDS, ids=[g[0] for g in GREEN_MONOIDS])
def test_green_relations_match_table_reference(name, make):
    fm = FiniteMonoid(make())
    view = TableMonoidView(fm.monoid)
    assert view.keys == fm.keys
    gs = fm.green()
    r_classes, l_classes, h_classes, r_of, l_of, h_of, r_order = reference_green(view)
    assert [gs.r_classes, gs.l_classes, gs.h_classes] == [r_classes, l_classes, h_classes]
    assert [gs.r_class_of, gs.l_class_of, gs.h_class_of] == [r_of, l_of, h_of]
    assert gs.r_order == r_order
    for h_class in gs.h_classes:
        group = green.schutz_group(fm, h_class)
        assert (group.perms, group.representatives) == reference_schutz(view, h_class)
        assert group.table == reference_schutz_table(group.perms)
        assert group.perms[group.identity_index] == tuple(range(len(h_class)))
    assert fm.right == [[row[g] for g in fm.gen_indices] for row in view.table]
    assert fm.left == [[view.table[g][i] for g in fm.gen_indices] for i in range(len(fm))]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2**32), st.integers(2, 4), st.integers(1, 3))
def test_schutz_table_matches_composition_on_drawn_monoids(seed, degree, gens):
    fm = FiniteMonoid(
        rand_transformation_monoid(random.Random(seed), max_degree=degree, max_gens=gens))
    for h_class in fm.green().h_classes:
        group = green.schutz_group(fm, h_class)
        assert group.table == reference_schutz_table(group.perms), h_class
        assert group.perms[group.identity_index] == tuple(range(len(h_class)))


def test_schutz_table_refuses_actions_that_agree_at_the_first_member():
    fm = FiniteMonoid(catalog.monoid("t3"))
    h_class = fm.green().h_classes[fm.green().h_class_of[fm.identity_index]]
    with pytest.raises(AssertionError, match="agree at its first member"):
        green.SchutzGroup(fm, h_class, [(0, 1, 2, 3, 4, 5), (0, 2, 1, 3, 5, 4)], [0, 1])


@pytest.mark.parametrize("name,make", GREEN_MONOIDS, ids=[g[0] for g in GREEN_MONOIDS])
def test_is_congruence_matches_table_reference(name, make):
    fm = FiniteMonoid(make())
    view = TableMonoidView(fm.monoid)
    verdicts = Counter()
    for label, class_of in partitions(fm, view, random.Random(name)):
        want = reference_is_congruence(view, class_of)
        assert is_congruence(fm, class_of) == want, label
        verdicts[label.split("-")[0], want is None] += 1
    # Rees quotients are congruences; the trivial partitions too
    assert verdicts["all", True] == verdicts["points", True] == 1
    assert verdicts["rees", False] == 0


def test_is_congruence_draws_reach_both_verdicts():
    seen = Counter()
    for name, make in GREEN_MONOIDS:
        fm = FiniteMonoid(make())
        view = TableMonoidView(fm.monoid)
        for label, class_of in partitions(fm, view, random.Random(name)):
            seen[label.split("-")[0], is_congruence(fm, class_of) is None] += 1
    for label in ("random", "kernel", "image", "r", "l", "h"):
        assert seen[label, False] > 0, label
    for label in ("rees", "left", "image", "kernel", "h"):
        assert seen[label, True] > 0, label


def reference_check_quotient_qi(fm, class_of):
    """The quotient check that built the quotient's table with fm.product,
    validated it as a TableMonoid and enumerated it again as a
    FiniteMonoid before its BFS."""
    witness = is_congruence(fm, class_of)
    if witness is not None:
        raise NotACongruence(witness)
    classes = {}
    for i, c in enumerate(class_of):
        classes.setdefault(c, []).append(i)
    ordered = sorted(classes.values(), key=lambda members: members[0])
    cid = {}
    for new, members in enumerate(ordered):
        for i in members:
            cid[class_of[i]] = new
    phi = tuple(cid[c] for c in class_of)

    source = monoid_space(fm)
    rows = source.decoded[1]
    worst = max(max(map(rows[x].__getitem__, members))
                for members in ordered for x in members)
    r_bound = decode(worst)

    names = [fm.names[members[0]] for members in ordered]
    table = [[phi[fm.product(a[0], b[0])] for b in ordered] for a in ordered]
    gen_names = []
    for g in fm.gen_indices:
        nm = names[phi[g]]
        if nm not in gen_names and phi[g] != phi[fm.identity_index]:
            gen_names.append(nm)
    quotient = TableMonoid(names, table, phi[fm.identity_index], gen_names)
    target = monoid_space(FiniteMonoid(quotient))
    notes = []
    class_names = [[fm.names[i] for i in members] for members in ordered]
    if len(ordered) == 1 and len(fm) > 1:
        notes.append("quotient is trivial; distances collapse to a point")
    if not r_bound.is_finite():
        notes.append("some class has infinite diameter; no (1, R, 0) certificate")
        return QuotientReport(False, r_bound, None, None, None, class_names, notes)
    if r_bound.value == 0:
        notes.append("isometric-grade certificate (epsilon = 0)")
    constants = QiConstants(1, r_bound.value, 0)
    report = check_quasi_isometry(phi, source, target, constants)
    return QuotientReport(
        report.ok, r_bound, constants, report.embedding, report.mu,
        class_names, notes,
    )


@pytest.mark.parametrize("name,make", GREEN_MONOIDS, ids=[g[0] for g in GREEN_MONOIDS])
def test_quotient_matches_table_reference(name, make):
    fm = FiniteMonoid(make())
    view = TableMonoidView(fm.monoid)
    source = monoid_space(fm)
    for label, class_of in partitions(fm, view, random.Random(name)):
        if reference_is_congruence(view, class_of) is not None:
            continue
        report = check_quotient_qi(fm, class_of)
        assert report == reference_check_quotient_qi(fm, class_of), label
        ordered = sorted({c: [i for i in range(len(fm)) if class_of[i] == c]
                          for c in class_of}.values())
        r_bound = ZERO
        for members in ordered:
            for x in members:
                for y in members:
                    d = source.dist[x][y]
                    if d.is_infinite():
                        r_bound = INFINITE
                    elif r_bound.is_finite() and d.value > r_bound.value:
                        r_bound = d
        assert report.r_bound == r_bound, label
        assert report.classes == [[fm.names[i] for i in members] for members in ordered]


def test_quotient_reads_no_product_table(monkeypatch):
    """The quotient's space is the image of the monoid's right Cayley
    graph: no product, no table validation, no second enumeration."""
    fm = FiniteMonoid(catalog.monoid("t3"))
    view = TableMonoidView(fm.monoid)
    want = {}
    for label, class_of in partitions(fm, view, random.Random("t3")):
        if is_congruence(fm, class_of) is None:
            want[label] = (class_of, reference_check_quotient_qi(fm, class_of))

    def refuse(*args, **kwargs):
        raise AssertionError("the quotient check must not call this")

    monkeypatch.setattr(TableMonoid, "__init__", refuse)
    monkeypatch.setattr(FiniteMonoid, "__init__", refuse)
    monkeypatch.setattr(FiniteMonoid, "product", refuse)
    monkeypatch.setattr(FiniteMonoid, "row", refuse)
    assert {report.ok for _, report in want.values()} == {True, False}
    for label, (class_of, report) in want.items():
        assert check_quotient_qi(fm, class_of) == report, label


def test_green_of_t5_makes_few_products():
    m = TransformationMonoid(5, [("s", [1, 2, 3, 4, 0]), ("t", [1, 0, 2, 3, 4]),
                                 ("e", [0, 0, 2, 3, 4])])
    products = counting_products(m)
    fm = FiniteMonoid(m)
    gs = fm.green()
    # one product per element and generator: the left translations and
    # every other product follow the right ones along words
    assert len(products) == 3125 * 3
    assert [len(fm), len(gs.r_classes), len(gs.l_classes), len(gs.h_classes)] == [
        3125, 52, 31, 456]


# -- one Froidure-Pin pass ----------------------------------------------------------
#
# FiniteMonoid multiplies in the backend once per element and generator;
# the left translations and every other product follow the right
# translations along words.  The references are the backend products
# themselves and the enumeration order of enumerate_all.


def assert_pass_matches_backend(m):
    fm = FiniteMonoid(m)
    keys = [e.key for e in enumerate_all(m)]
    assert fm.keys == keys
    assert fm.names == [m.element_name(e) for e in fm.elements]
    mul, gens, index = m._mul_key, m._gen_keys, fm.index
    assert fm.gen_indices == [index[g] for g in gens]
    assert fm.right == [[index[mul(k, g)] for g in gens] for k in keys]
    assert fm.left == [[index[mul(g, k)] for g in gens] for k in keys]
    for i, a in enumerate(keys):
        want = [index[mul(a, b)] for b in keys]
        assert [fm.product(i, j) for j in range(len(keys))] == want
        assert fm.row(i) == want


@st.composite
def transformation_monoids(draw):
    degree = draw(st.integers(3, 5))
    images = st.lists(st.integers(0, degree - 1), min_size=degree, max_size=degree)
    gens = [("g%d" % i, draw(images)) for i in range(draw(st.integers(2, 3)))]
    return TransformationMonoid(degree, gens)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(transformation_monoids())
def test_froidure_pin_pass_matches_backend(m):
    # every pair is checked, so the few monoids near T5's size are skipped
    assume(enumerate_all(m, 400) is not None)
    assert_pass_matches_backend(m)


@pytest.mark.parametrize("name,make", GREEN_MONOIDS, ids=[g[0] for g in GREEN_MONOIDS])
def test_froidure_pin_pass_matches_backend_on_green_monoids(name, make):
    assert_pass_matches_backend(make())


def test_quotient_matches_reference_on_drawn_monoids():
    """Every congruence among the partitions of drawn transformation
    monoids gets the reference's report, and the draws reach both
    verdicts."""
    seen = Counter()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(transformation_monoids())
    def collect(m):
        # the table view makes every product, so large monoids are skipped
        assume(enumerate_all(m, 120) is not None)
        fm = FiniteMonoid(m)
        for label, class_of in partitions(fm, TableMonoidView(m), random.Random(len(fm))):
            if is_congruence(fm, class_of) is None:
                report = check_quotient_qi(fm, class_of)
                assert report == reference_check_quotient_qi(fm, class_of), label
                seen[report.ok] += 1

    collect()
    assert seen[True] > 0 and seen[False] > 0


def reference_table_check(names, table, e):
    """The load-time check before Light's test: the first failing triple
    of the exhaustive scan, then the identity law."""
    n = len(table)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if table[table[i][j]][k] != table[i][table[j][k]]:
                    return "table is not associative at (%s, %s, %s)" % (
                        names[i], names[j], names[k])
    if any(table[e][j] != j or table[j][e] != j for j in range(n)):
        return "%r is not a two-sided identity" % names[e]
    return None


def random_tables(rng, count):
    """(names, table, identity) of random finite monoids, relabelled by a
    random permutation, and of copies with one entry changed."""
    for _ in range(count):
        view = TableMonoidView(rand_transformation_monoid(rng, max_degree=3))
        n = len(view.keys)
        perm = list(range(n))
        rng.shuffle(perm)
        table = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                table[perm[a]][perm[b]] = perm[view.table[a][b]]
        names = ["x%d" % i for i in range(n)]
        yield names, table, perm[0]
        i, j = rng.randrange(n), rng.randrange(n)
        changed = [list(row) for row in table]
        changed[i][j] = rng.choice([v for v in range(n) if v != table[i][j]] or [0])
        yield names, changed, perm[0]


def test_light_test_matches_cubic_scan():
    verdicts = Counter()
    for names, table, e in random_tables(random.Random(7), 150):
        want = reference_table_check(names, table, e)
        try:
            TableMonoid(names, table, e)
            got = None
        except ValueError as err:
            got = str(err)
        assert got == want
        verdicts["ok" if want is None else "identity" if "identity" in want
                 else "associativity"] += 1
        if want is None:
            # the test set generates the table: everything is reached from
            # the identity by right multiplications with it
            taken = monoids._generating_set(table, e)
            reached = cayley.bfs([[row[t] for t in taken] for row in table], e)[1]
            assert sorted(reached) == list(range(len(table)))
    assert verdicts["ok"] and verdicts["identity"] and verdicts["associativity"]


def test_light_test_needs_the_identity_law():
    # 0 is no identity here, so what it reaches with the elements taken
    # misses products of the table, and Light's test over them passes
    names, table = ["e", "a", "b"], [[0, 0, 0], [1, 1, 1], [2, 1, 1]]
    assert monoids._light_test(table, monoids._generating_set(table, 0))
    with pytest.raises(ValueError) as err:
        TableMonoid(names, table, 0)
    assert str(err.value) == reference_table_check(names, table, 0)
    assert "not associative" in str(err.value)


@pytest.mark.parametrize("name,make", FINITE[:2], ids=[f[0] for f in FINITE[:2]])
def test_light_test_set_is_the_generators(name, make):
    # in BFS order T3's and T4's three generators come first and generate
    # the rest
    assert monoids._generating_set(as_table_monoid(make()).table, 0) == [1, 2, 3]


# -- one breadth-first search behind every Cayley graph ---------------------------
#
# monoids.explore replaced four loops that each multiplied every vertex by
# every generator.  The references below are those loops as they were: the
# enumeration BFS, the Cayley ball builder, the Froidure-Pin pass of
# FiniteMonoid and the inverse search of the product's group test.


def reference_bfs_keys(m, radius, cap):
    """Key-level BFS; returns ([(key, length)...], exhausted_flag)."""
    start = m._identity_key
    dist = {start: 0}
    order = [(start, 0)]
    gen_keys = m._gen_keys
    i = 0
    while i < len(order):
        key, d = order[i]
        i += 1
        if radius is not None and d >= radius:
            break
        for gk in gen_keys:
            nk = m._mul_key(key, gk)
            if nk not in dist:
                if len(dist) >= cap:
                    raise CapExceeded(cap)
                dist[nk] = d + 1
                order.append((nk, d + 1))
    return order, i >= len(order)


def reference_ball_loop(m, radius, side=cayley.RIGHT, base=None, cap=monoids.DEFAULT_CAP):
    """The ball builder's loop: (keys, lengths, edges, complete)."""
    if base is None:
        base = m.identity
    gens = list(zip(m._gen_syms, m._gen_keys))
    mul = m._mul_key
    start = base.key
    index = {start: 0}
    vertices = [start]
    lengths = [0]
    edges = []
    complete = []
    i = 0
    while i < len(vertices):
        key = vertices[i]
        d = lengths[i]
        inside = True
        for sym, gk in gens:
            nk = mul(key, gk) if side == cayley.RIGHT else mul(gk, key)
            t = index.get(nk)
            if t is None:
                if d >= radius:
                    inside = False
                    continue
                if len(vertices) >= cap:
                    raise CapExceeded(cap)
                t = len(vertices)
                index[nk] = t
                vertices.append(nk)
                lengths.append(d + 1)
            edges.append((i, t, sym))
        complete.append(inside)
        i += 1
    return vertices, lengths, edges, complete


def reference_froidure_pin(monoid, cap=monoids.DEFAULT_CAP):
    """FiniteMonoid's own pass: (keys, index, right, parent, last)."""
    mul = monoid._mul_key
    gen_keys = monoid._gen_keys
    keys = [monoid._identity_key]
    index = {keys[0]: 0}
    parent = [0]
    last = [0]
    right = []
    for key in keys:
        row = []
        for g, gk in enumerate(gen_keys):
            nk = mul(key, gk)
            j = index.get(nk)
            if j is None:
                if len(keys) >= cap:
                    raise NotFinite("monoid not exhausted within cap %d" % cap)
                j = index[nk] = len(keys)
                keys.append(nk)
                parent.append(len(right))
                last.append(g)
            row.append(j)
        right.append(row)
    return keys, index, right, parent, last


def reference_is_group_elements(m, elements):
    """True when every listed element has a two-sided inverse."""
    keys = [x.key for x in elements]
    e = m._identity_key
    for a in keys:
        if not any(m._mul_key(a, b) == e and m._mul_key(b, a) == e for b in keys):
            return False
    return True


EXPLORED = [(name, make) for name, make, _radius in BALLS if name != "t3-full"] + GREEN_MONOIDS


def explorations(m):
    """(side, base, radius) on both sides, from the identity (as None and
    as an Element) and from another element, at radii 0-4."""
    gens = [g for _, g in m.generators()]
    for side in (cayley.RIGHT, cayley.LEFT):
        for base in (None, m.identity, m.multiply(gens[0], gens[-1])):
            for radius in range(5):
                yield side, base, radius


def raised(call):
    """(type, message) of the error call raises, or None."""
    try:
        call()
    except (CapExceeded, NotFinite) as err:
        return type(err), str(err)
    return None


@pytest.mark.parametrize("name,make", EXPLORED, ids=[e[0] for e in EXPLORED])
def test_explore_matches_the_ball_loop(name, make):
    m = make()
    syms = list(m.generator_symbols)
    products = counting_products(m)
    for side, base, radius in explorations(m):
        keys, lengths, edges, complete = reference_ball_loop(m, radius, side, base)
        del products[:]
        table = monoids.explore(m, radius, side, base)
        # one product per vertex and generator, boundary vertices included
        assert len(products) == len(table.keys) * len(syms)
        assert [table.keys, table.lengths] == [keys, lengths]
        assert table.index == {k: i for i, k in enumerate(keys)}
        # each vertex past the base is reached by the first edge into it
        first = {}
        for u, v, sym in edges:
            first.setdefault(v, (u, syms.index(sym)))
        assert list(zip(table.parent, table.last))[1:] == [first[v] for v in range(1, len(keys))]
        ball = build_cayley_ball(m, radius, side, base)
        assert [[x.key for x in ball.vertices], ball.lengths, ball.edges, ball.complete] == [
            keys, lengths, edges, complete]
        assert ball.out_adj == [[v for src, v, _sym in edges if src == u] for u in range(len(keys))]
        assert [ball.index_of(x) for x in ball.vertices] == list(range(len(keys)))


@pytest.mark.parametrize("name,make", EXPLORED, ids=[e[0] for e in EXPLORED])
def test_enumeration_matches_the_bfs_keys_loop(name, make):
    m = make()
    for radius in range(5):
        want, _exhausted = reference_bfs_keys(m, radius, monoids.DEFAULT_CAP)
        got = monoids.enumerate_out_ball(m, radius)
        assert [(le.element.key, le.length) for le in got] == want
    for cap in (0, 5, 400):
        try:
            ball, exhausted = reference_bfs_keys(m, None, cap)
        except CapExceeded:
            ball, exhausted = None, False
        want = [k for k, _ in ball] if exhausted else None
        got = enumerate_all(m, cap)
        assert (got if got is None else [x.key for x in got]) == want


@pytest.mark.parametrize("name,make", GREEN_MONOIDS, ids=[g[0] for g in GREEN_MONOIDS])
def test_finite_monoid_matches_the_froidure_pin_loop(name, make):
    m = make()
    keys, index, right, parent, last = reference_froidure_pin(m)
    products = counting_products(m)
    fm = FiniteMonoid(m)
    assert len(products) == len(keys) * len(m._gen_keys)
    assert [fm.keys, fm.index, fm.right, fm._parent, fm._last] == [
        keys, index, right, parent, last]
    for side in (cayley.RIGHT, cayley.LEFT):
        table = monoids.explore(m, side=side)
        assert sorted(table.keys) == sorted(keys)
        assert len(table.succ) == len(keys) and all(-1 not in row for row in table.succ)


@pytest.mark.parametrize("name,make", EXPLORED, ids=[e[0] for e in EXPLORED])
def test_caps_fail_as_the_loops_did(name, make):
    m = make()
    for side, base, radius in explorations(m):
        size = len(monoids.explore(m, radius, side, base).keys)
        assert len(build_cayley_ball(m, radius, side, base, cap=size)) == size
        if size == 1:
            # the base alone never meets the cap
            continue
        assert raised(lambda: build_cayley_ball(m, radius, side, base, cap=size - 1)) == raised(
            lambda: reference_ball_loop(m, radius, side, base, cap=size - 1)) == (
            CapExceeded, "enumeration exceeded cap of %d elements" % (size - 1))
    for radius in range(5):
        size = len(reference_bfs_keys(m, radius, monoids.DEFAULT_CAP)[0])
        assert len(monoids.enumerate_out_ball(m, radius, cap=size)) == size
        if size > 1:
            assert raised(lambda: monoids.enumerate_out_ball(m, radius, cap=size - 1)) == raised(
                lambda: reference_bfs_keys(m, radius, size - 1))
    if name in dict(GREEN_MONOIDS):
        size = len(reference_froidure_pin(m)[0])
        assert len(FiniteMonoid(m, cap=size)) == size
        assert raised(lambda: FiniteMonoid(m, cap=size - 1)) == raised(
            lambda: reference_froidure_pin(m, cap=size - 1)) == (
            NotFinite, "monoid not exhausted within cap %d" % (size - 1))
        assert raised(lambda: FiniteMonoid(m, cap=0)) == raised(
            lambda: reference_froidure_pin(m, cap=0))


@st.composite
def groups_and_monoids(draw):
    """Transformation monoids whose generators are often permutations."""
    degree = draw(st.integers(2, 5))
    maps = st.lists(st.integers(0, degree - 1), min_size=degree, max_size=degree)
    images = st.one_of(st.permutations(range(degree)), maps)
    gens = [("g%d" % i, list(draw(images))) for i in range(draw(st.integers(1, 3)))]
    return TransformationMonoid(degree, gens)


def test_product_group_test_matches_the_inverse_search():
    seen = set()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(groups_and_monoids())
    def check(m):
        order, _ = reference_bfs_keys(m, None, monoids.GROUP_PROBE_CAP)
        want = reference_is_group_elements(m, [monoids.Element(m, k) for k, _ in order])
        pm = monoids.ProductMonoid(catalog.monoid("z2"), m)
        assert pm.right_is_group == want
        seen.add(want)

    check()
    assert seen == {True, False}
    # a finite factor past the probe cap is not taken for a group
    t6 = TransformationMonoid(6, [("s", [1, 2, 3, 4, 5, 0]), ("t", [1, 0, 2, 3, 4, 5]),
                                  ("e", [0, 0, 2, 3, 4, 5])])
    assert not monoids.ProductMonoid(catalog.monoid("z2"), t6).right_is_group


# -- evidence-mode action on distance rows ------------------------------------------


def reference_check_schutz_action_ball(m, radius, cap=monoids.DEFAULT_CAP):
    """green.check_schutz_action_ball as it read the base component through
    CayleyBall.distance: two ExtDist values per pair and group element."""
    h_class, rball, rscc = green._identity_h_class(m, radius, cap)
    hkeys = {h.key for h in h_class}
    pos = {h.key: k for k, h in enumerate(h_class)}
    seen = {}
    order = []
    reps = []
    for s in rball.vertices:
        images = [m.multiply(s, h) for h in h_class]
        if {x.key for x in images} != hkeys:
            continue
        perm = tuple(pos[x.key] for x in images)
        if perm not in seen:
            seen[perm] = s
            order.append(perm)
            reps.append(s)

    graph = cayley.base_component(rball, rscc)
    nverts = len(graph.vertices)
    vkey = {v.key: i for i, v in enumerate(graph.vertices)}
    vperms = []
    usable = []
    notes = ["evidence: ball radius %d, group scanned within ball" % radius]
    for k, s in enumerate(reps):
        images = [m.multiply(s, v) for v in graph.vertices]
        if all(x.key in vkey for x in images):
            vperms.append([vkey[x.key] for x in images])
            usable.append(k)
        else:
            notes.append("action of %s leaves the explored component"
                         % m.element_name(s))

    isometric = True
    counterexample = None
    for k, perm in zip(usable, vperms):
        for u in range(nverts):
            for v in range(nverts):
                d1 = graph.distance(u, v)
                d2 = graph.distance(perm[u], perm[v])
                if d1.is_decisive() and d2.is_decisive() and d1 != d2:
                    isometric = False
                    counterexample = (m.element_name(reps[k]), graph.name(u),
                                      graph.name(v), d1.format(), d2.format())

    def within(u, v, rho):
        d = graph.distance(u, v)
        return d.is_finite() and d.value <= rho

    base = 0
    sizes = []
    for rho in range(1, radius + 1):
        ball = {v for v in range(nverts) if within(base, v, rho)}
        meets = sum(1 for perm in vperms if any(perm[v] in ball for v in ball))
        sizes.append((rho, meets))

    covering = None
    for lam in range(radius):
        strong = [v for v in range(nverts)
                  if within(base, v, lam) and within(v, base, lam)]
        hit = set()
        for perm in vperms:
            hit.update(perm[v] for v in strong)
        if len(hit) == nverts:
            covering = lam
            break
    return green.ActionReport(
        exact=False,
        group_order=len(order),
        isometric=isometric,
        counterexample=counterexample,
        outward_proper=True,
        orbit_meet_sizes=sizes,
        cocompact=covering is not None,
        covering_radius=covering,
        failed_radius=None if covering is not None else radius,
        notes=notes,
    )


INFINITE_CATALOG = ["free1", "free2", "free-comm1", "free-comm2", "free-comm3",
                    "bicyclic", "integers"]


@pytest.mark.parametrize("factor", [None, "z2", "z3"])
@pytest.mark.parametrize("name", INFINITE_CATALOG)
def test_evidence_action_matches_the_extdist_pair_loop(name, factor):
    m = catalog.monoid(name) if factor is None else catalog.product(name, factor)
    for radius in range(1, 7):
        got = green.check_schutz_action_ball(m, radius)
        want = reference_check_schutz_action_ball(m, radius)
        for attr in green.ActionReport.__annotations__:
            assert getattr(got, attr) == getattr(want, attr), (radius, attr)
        assert got == want


# free2 x z3's identity R-class is (ε,0), (ε,1), (ε,2), every pair at
# distance 1, and z3 acts on it by rotation.  No catalog monoid has a
# non-isometric evidence action, nor a stamp where a rotation reads it, so
# these entries are stubbed, in the rows and in CayleyBall.distance alike:
# (row code, ExtDist) for each stubbed pair.
STUBS = {
    "infinity": {(0, 1): (INF, INFINITE)},
    "stamps": {pair: (-3, beyond(2)) for pair in [(0, 1), (0, 2), (1, 0), (2, 0)]},
}


@pytest.mark.parametrize("stub,isometric,counterexample,meets", [
    # the last pair found: the third group element maps ((ε,1), (ε,2)) onto
    # the stubbed pair
    ("infinity", False, ("(ε,2)", "(ε,1)", "(ε,2)", "1", "inf"), [(1, 3), (2, 3)]),
    # a stamp decides no pair, and puts no vertex in a ball around the base
    ("stamps", True, None, [(1, 1), (2, 1)]),
])
def test_evidence_action_on_stubbed_entries(monkeypatch, stub, isometric,
                                            counterexample, meets):
    m = catalog.product("free2", "z3")
    patch = STUBS[stub]
    base_component = cayley.base_component

    def stubbed(ball, scc):
        graph = base_component(ball, scc)
        rows = graph.distance_rows()
        for (u, v), (code, _) in patch.items():
            assert rows[u][v] == 1
            rows[u][v] = code
        distance = graph.distance
        graph.distance_rows = lambda: rows
        graph.distance = lambda u, v: patch[u, v][1] if (u, v) in patch else distance(u, v)
        return graph

    monkeypatch.setattr(cayley, "base_component", stubbed)
    got = green.check_schutz_action_ball(m, 2)
    assert got == reference_check_schutz_action_ball(m, 2)
    assert (got.isometric, got.counterexample, got.orbit_meet_sizes) == (
        isometric, counterexample, meets)


# -- finite-mode action against its own loops -----------------------------------


def reference_check_schutz_action_finite(fm, h_class, radius=8):
    """green.check_schutz_action_finite as it ran its own loops: the first
    counterexample, the out-ball rebuilt up to the base's eccentricity, and
    the least covering radius found by the strong ball meeting every H-class
    of the R-class, with no bound on the search."""
    geo = green._RClassGeometry(fm, h_class)
    n = len(geo.vertices)
    counterexample = None
    for g, perm in enumerate(geo.vperms):
        for u in range(n):
            row = geo.dist[u]
            prow = geo.dist[perm[u]]
            for v in range(n):
                if prow[perm[v]] != row[v]:
                    counterexample = (geo.group.rep_names[g], geo.vertex_name(u),
                                      geo.vertex_name(v), row[v], prow[perm[v]])
                    break
            if counterexample:
                break
        if counterexample:
            break

    out = geo.dist[geo.base]
    eccentricity = max(out)
    sizes = []
    for rho in range(1, radius + 1):
        if rho <= eccentricity or rho == 1:
            ball = {v for v in range(n) if out[v] <= rho}
            meets = sum(1 for perm in geo.vperms if any(perm[v] in ball for v in ball))
        sizes.append((rho, meets))

    h_class_of = fm.green().h_class_of
    h_of_vertex = [h_class_of[x] for x in geo.vertices]
    h_ids = sorted(set(h_of_vertex))
    covering = None
    lam = 0
    while covering is None:
        strong = [v for v in range(n) if out[v] <= lam and geo.dist[v][geo.base] <= lam]
        if set(h_ids) <= {h_of_vertex[v] for v in strong}:
            covering = lam
        else:
            lam += 1
    return green.ActionReport(
        exact=True,
        group_order=geo.group.order,
        isometric=counterexample is None,
        counterexample=counterexample,
        outward_proper=True,
        orbit_meet_sizes=sizes,
        cocompact=True,
        covering_radius=covering,
        failed_radius=None,
        notes=["exact: finite monoid, %d H-classes in the R-class" % len(h_ids)],
    )


# T2, T3, T4 and the first seeded random transformation monoids of degree 3-4
ACTION_MONOIDS = [("t2", lambda: catalog.monoid("t2")), ("t3", lambda: catalog.monoid("t3")),
                  ("t4", t4_monoid)] + [
    ("random-%d" % seed, lambda seed=seed: rand_transformation_monoid(random.Random(seed)))
    for seed in range(40)
    if rand_transformation_monoid(random.Random(seed)).degree >= 3
][:11]


@pytest.mark.parametrize("name,make", ACTION_MONOIDS, ids=[a[0] for a in ACTION_MONOIDS])
def test_finite_action_matches_its_own_loops(name, make):
    fm = FiniteMonoid(make())
    for h_class in fm.green().h_classes:
        geo = green._RClassGeometry(fm, h_class)
        eccentricity = max(geo.dist[geo.base])
        for radius in range(eccentricity + 4):
            got = check_schutz_action_finite(fm, h_class, radius=radius)
            want = reference_check_schutz_action_finite(fm, h_class, radius=radius)
            assert got.counterexample is None and want.counterexample is None
            for attr in green.ActionReport.__annotations__:
                assert getattr(got, attr) == getattr(want, attr), (h_class, radius, attr)
