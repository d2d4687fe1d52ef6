"""Finite semimetric spaces and quasi-isometry checks.

A Space is a named point list with its distances as rows of exact
integers over a common denominator (see Space and distances.scaled_rows).
All the checks treat infinity per the usual conventions (it absorbs sums
and positive scaling; an inequality with infinity on the smaller side
holds only when the larger side is infinite too) and skip pairs carrying
a horizon stamp, counting them so reports can say how much was left
undecided.

A space is built from its rows alone.  make_space, and so a loaded
space, encodes its entries once with scaled_rows and is validated by the
cubic semimetric-axiom scan, as is the output of symmetrize.  Ball and
monoid spaces take their rows, on scale 1, straight from BFS depths: a
monoid space needs no check, and a ball space is validated in
O(|V| (|V| + |E|)) by certifying that each row is the ball's BFS depth
function (certify_ball_rows).  A space's ExtDist matrix is made only
when the API or a printer reads it.  Every check compares the integers,
with the constants brought onto the same scale by cross-multiplication;
nothing goes through floating point and no Fraction arithmetic runs per
entry.  Fractions appear only in reported values.

The quasi-isometric embedding inequalities for a map f and constants
(lambda, epsilon) are

    (1/lambda) d(x,y) - epsilon <= d'(f(x),f(y)) <= lambda d(x,y) + epsilon

and a quasi-isometry additionally requires the image to be mu-quasi-dense.
Epsilon is required positive by the definitions; checks accept epsilon = 0
and reports then label the claim isometric-grade.
"""

from fractions import Fraction
from functools import cached_property
from itertools import compress, repeat
from math import lcm
from operator import add, gt, sub

from ._records import field, record
from .distances import INF, INFINITE, ExtDist, beyond, decode, scaled_rows
from .errors import (
    DEFAULT_CAP,
    CapExceeded,
    InvalidSpace,
    NotACongruence,
    NotStronglyConnected,
)


@record(frozen=True)
class Violation:
    # "diagonal" | "positivity" | "triangle", and for ball rows also
    # "range" | "edge" | "parent" | "infinity" (see certify_ball_rows)
    kind: str
    points: tuple


class Space:
    """Named points with distances held as exact integer rows.

    ``decoded`` is (L, rows) with L a common denominator of the finite
    distances and rows in the encoding of distances.scaled_rows (d * L as
    an int, infinity as INF, a stamp beyond(h) as -1 - h); every check
    reads these rows, and a space is built from them alone (make_space
    builds one from a matrix of entries).  ``dist`` is the same matrix as
    ExtDist row tuples, for the API and for printing, made on first read.
    """

    def __init__(self, points, decoded):
        self.points = tuple(points)
        self.decoded = decoded

    @cached_property
    def dist(self):
        scale, rows = self.decoded
        # one ExtDist per distinct value
        entry = {v: decode(v, scale) for v in set().union(*rows)}
        return tuple(tuple(map(entry.__getitem__, row)) for row in rows)

    def __len__(self):
        return len(self.points)

    def d(self, i, j):
        return self.dist[i][j]

    def index(self, name):
        return self.points.index(name)

    @property
    def exact(self):
        """True when no entry is horizon-stamped (no row has a negative)."""
        return min(map(min, self.decoded[1]), default=0) >= 0


def _linear(lam, c, sx, sy):
    """Integers (a, b, k) such that x > lam * y + c exactly when
    a * X > b * Y + k, for x = X / sx and y = Y / sy (sx, sy > 0)."""
    b = lam * Fraction(sx, sy)
    k = c * sx
    m = lcm(b.denominator, k.denominator)
    return m, b.numerator * (m // b.denominator), k.numerator * (m // k.denominator)


def _rescaled(space, scale):
    """The decoded rows of a Space over a multiple of its scale (a stamp
    stays negative but no longer encodes its horizon)."""
    own, rows = space.decoded
    k = scale // own
    if k == 1:
        return rows
    return [[v * k for v in row] for row in rows]


def check_axioms(points, dist):
    """First semimetric-axiom violation, or None.

    dist is a matrix of entries as scaled_rows takes them (ExtDist
    values, say), or a Space, whose integer rows are read as they are.
    Horizon-stamped entries are skipped: an undecided distance can never
    witness a violation.
    """
    n = len(points)
    lhs = (dist.decoded if isinstance(dist, Space) else scaled_rows(dist))[1]
    # on the right-hand side a stamp counts as infinity (an infinite sum)
    if min(map(min, lhs), default=0) < 0:
        rhs = [[INF if v < 0 else v for v in row] for row in lhs]
    else:
        rhs = lhs
    for i in range(n):
        # a stamp (negative) or infinity is not a zero either
        if lhs[i][i] != 0:
            return Violation("diagonal", (i,))
    for i in range(n):
        for j, dij in enumerate(rhs[i]):
            if i != j and dij <= 0:
                return Violation("positivity", (i, j))
    # triangle d(i,k) <= d(i,j) + d(j,k), all k of one (i, j) at once.
    # Entries are nonnegative here, so a stamp on the left (negative) never
    # exceeds a sum, infinity on the left always exceeds a finite one, and
    # a stamp or infinity on the right (an infinite sum) exempts the triple.
    # Every inequality is homogeneous, so the common scale does not matter.
    for i in range(n):
        left = lhs[i]
        for j, a in enumerate(rhs[i]):
            if a == INF:
                continue
            right = rhs[j]
            if any(map(gt, left, map(add, repeat(a), right))):
                k = next(k for k in range(n) if left[k] > a + right[k])
                return Violation("triangle", (i, j, k))
    return None


def make_space(points, matrix):
    """Build a validated Space; entries may be rationals, None (infinity),
    or ExtDist values (see distances.scaled_rows)."""
    space = Space(points, scaled_rows(matrix))
    violation = check_axioms(points, space)
    if violation is not None:
        raise InvalidSpace(violation)
    return space


def space_from_ball(ball):
    """The vertex set of a Cayley ball as a Space (may carry horizon
    stamps on pairs the ball cannot decide), on the ball's integer
    distance rows as certified by certify_ball_rows."""
    rows = ball.distance_rows()
    violation = certify_ball_rows(ball, rows)
    if violation is not None:
        raise InvalidSpace(violation)
    return Space([ball.name(i) for i in range(len(rows))], (1, rows))


def certify_ball_rows(ball, rows):
    """None when every row is the rule of CayleyBall.distance applied to
    the BFS depths of the ball's digraph; else the first failure in
    row-major order, as a Violation naming the row's source s first.

    With r the radius, row s must have
      - "range": every entry a depth 0..r, the stamp -1 - r or INF;
      - "diagonal", "positivity": d(s, s) = 0 and no other 0;
      - "edge" (s, u, v): d(s, v) <= d(s, u) + 1 on every edge u -> v,
        reading a stamp as r + 1 and INF as infinity;
      - "parent": an in-neighbour at k - 1 for every entry 0 < k <= r;
      - "infinity": INF only if every vertex without INF is complete.
    The parent and zero rules give a path of length k from s to every
    entry k, and the edge rule along a shortest path keeps every entry at
    most the in-ball depth, so each entry k is exactly the depth, each
    stamp has depth past r or none, and no reached vertex is INF.  The
    vertices without INF are then closed under the monoid's generators,
    so INF is a proved infinity.  Rows that pass satisfy the semimetric
    axioms.

    The range, zero and infinity rules are checked row by row.  The edge
    and parent rules are checked a column (target vertex v) at a time over
    all sources: with low the entrywise minimum of the columns of v's
    in-neighbours, gap = col_v - low must be at most 1 (edge), and 1 at
    every entry 0 < k <= r (parent); a vertex with no in-neighbour may
    have no such entry.  Only when a check fails are the rows scanned one
    at a time (_first_violation) to name the failure.  Either way the
    total is O(n (n + |E|)) for n vertices.
    """
    n = len(rows)
    allowed, positive, key = _entry_rules(ball.radius, n)
    incomplete = [v for v, done in enumerate(ball.complete) if not done]
    keyed = []
    for s, row in enumerate(rows):
        # range, diagonal, positivity, and infinity: a row with INF has it
        # at every incomplete vertex
        if (not allowed.issuperset(row) or row[s] != 0 or row.count(0) > 1
                or (INF in row and INF != min(map(row.__getitem__, incomplete),
                                              default=INF))):
            return _first_violation(ball, rows)
        keyed.append(list(map(key.__getitem__, row)))
    cols = list(zip(*keyed))
    ins = [[] for _ in range(n)]
    for u, out in enumerate(ball.out_adj):
        for v in out:
            ins[v].append(cols[u])
    for col, feeds in zip(cols, ins):
        if not feeds:
            if any(map(positive.__contains__, col)):
                return _first_violation(ball, rows)
            continue
        low = feeds[0] if len(feeds) == 1 else map(min, *feeds)
        gap = list(map(sub, col, low))
        if (max(gap) > 1
                or min(compress(gap, map(positive.__contains__, col)), default=1) < 1):
            return _first_violation(ball, rows)
    return None


def _entry_rules(r, n):
    """(allowed, positive, key) for the rows of a radius-r ball on n
    vertices: the entries the range rule allows, the entries the parent
    rule applies to, and an int per allowed entry for the edge rule."""
    depths = range(min(n, r + 1))
    # a stamp is r + 1, and INF is r + 3, more than one step past any
    # other entry
    key = dict(zip(depths, depths))
    key[-1 - r] = r + 1
    key[INF] = r + 3
    return set(key), frozenset(depths[1:]), key


def _first_violation(ball, rows):
    """The first Violation of certify_ball_rows in row-major order, or
    None; each row takes O(|V| + |E|)."""
    n = len(rows)
    allowed, positive, key = _entry_rules(ball.radius, n)
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
        # steps[e] = k(target) - k(source) for each edge e
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


def is_strongly_connected(space):
    rows = space.decoded[1]
    # every entry finite: no stamp (negative) and no infinity
    return (min(map(min, rows), default=0) >= 0
            and max(map(max, rows), default=0) < INF)


def quasi_metricity_lambda(space, eps=0):
    """Least lambda >= 1 with d(y,x) <= lambda d(x,y) + eps everywhere,
    or None when the space is not strongly connected."""
    if not is_strongly_connected(space):
        return None
    eps = Fraction(eps)
    # the greatest (d(j,i) - eps) / d(i,j), kept as num / den, with the
    # entries and eps over one scale
    scale = lcm(space.decoded[0], eps.denominator)
    rows = _rescaled(space, scale)
    e = int(eps * scale)
    num, den = 1, 1
    for i, row in enumerate(rows):
        for j, dij in enumerate(row):
            if i != j and (rows[j][i] - e) * den > num * dij:
                num, den = rows[j][i] - e, dij
    return Fraction(num, den)


@record
class QiConstants:
    lam: Fraction
    eps: Fraction
    mu: Fraction

    def __post_init__(self):
        self.lam = Fraction(self.lam)
        self.eps = Fraction(self.eps)
        self.mu = Fraction(self.mu)


@record(frozen=True)
class PairViolation:
    x: int
    y: int
    side: str  # "lower" | "upper"


@record
class EmbeddingReport:
    ok: bool
    violation: object
    checked: int
    skipped: int


def check_qi_embedding(f, source, target, lam, eps):
    """Check both embedding inequalities on every ordered pair; the first
    violation (row-major) is reported.  Horizon-stamped pairs are skipped
    and counted."""
    lam = Fraction(lam)
    eps = Fraction(eps)
    checked = 0
    skipped = 0
    sscale, srows = source.decoded
    tscale, trows = target.decoded
    # lower: (1/lam) dx - eps <= dy fails when dx > lam dy + lam eps;
    # upper: dy <= lam dx + eps fails when dy > lam dx + eps
    la, lb, lk = _linear(lam, lam * eps, sscale, tscale)
    ua, ub, uk = _linear(lam, eps, tscale, sscale)
    for i, xrow in enumerate(srows):
        yrow = trows[f[i]]
        for j, dx in enumerate(xrow):
            dy = yrow[f[j]]
            if dx < 0 or dy < 0:
                skipped += 1
                continue
            checked += 1
            if dx == INF:
                if dy != INF:
                    return EmbeddingReport(False, PairViolation(i, j, "lower"),
                                           checked, skipped)
                continue
            if dy != INF and la * dx > lb * dy + lk:
                return EmbeddingReport(False, PairViolation(i, j, "lower"),
                                       checked, skipped)
            if dy == INF or ua * dy > ub * dx + uk:
                return EmbeddingReport(False, PairViolation(i, j, "upper"),
                                       checked, skipped)
    return EmbeddingReport(True, None, checked, skipped)


def quasi_density(f, source, target):
    """Least mu with every target point in a strong mu-ball of the image.

    Returns an ExtDist: Infinite when some point is separated from the
    image, a horizon stamp when the data cannot decide.
    """
    image = sorted(set(f))
    scale, rows = target.decoded
    worst = 0
    for y, yrow in enumerate(rows):
        best = INF
        horizon = None
        for x in image:
            a = rows[x][y]
            b = yrow[x]
            if a < 0 or b < 0:
                h = -1 - (a if a < 0 else b)
                horizon = h if horizon is None else max(horizon, h)
                continue
            # an infinite side makes the strong distance infinite
            strong = a if a > b else b
            if strong < best:
                best = strong
        if best == INF:
            return INFINITE if horizon is None else beyond(horizon)
        if best > worst:
            worst = best
    return decode(worst, scale)


@record
class QiReport:
    ok: bool
    embedding: EmbeddingReport
    mu: ExtDist
    mu_ok: bool


def check_quasi_isometry(f, source, target, constants):
    emb = check_qi_embedding(f, source, target, constants.lam, constants.eps)
    mu = quasi_density(f, source, target)
    mu_ok = mu.is_finite() and mu.value <= constants.mu
    return QiReport(emb.ok and mu_ok, emb, mu, mu_ok)


# -- symmetrization -----------------------------------------------------------


@record
class SymmetrizeResult:
    space: Space
    lam: Fraction
    eps: Fraction
    forward: QiConstants
    backward_lam: Fraction
    backward_eps: Fraction
    metric_ok: bool
    forward_ok: bool
    backward_ok: bool


def symmetrize(space, eps=0):
    """d'(x,y) = d(x,y) + d(y,x), with both certificates checked.

    The identity map into the symmetrized space is certified as a
    (lam', eps, 0)-quasi-isometry with lam' = lam + 1, where lam >= 1 is
    the least quasi-metricity constant at the given eps;
    conversely the original space is checked to be
    (lam'^2, 2 lam' eps)-quasi-metric.
    """
    lam = quasi_metricity_lambda(space, eps)
    if lam is None:
        raise NotStronglyConnected("symmetrization needs a strongly connected space")
    eps = Fraction(eps)
    n = len(space)
    scale, rows = space.decoded
    sums = [list(map(add, row, col)) for row, col in zip(rows, zip(*rows))]
    sym = Space(space.points, (scale, sums))

    metric_ok = (check_axioms(sym.points, sym) is None
                 and sums == [list(col) for col in zip(*sums)])

    lam_p = lam + 1
    identity = tuple(range(n))
    forward = QiConstants(lam_p, eps, 0)
    forward_ok = check_quasi_isometry(identity, space, sym, forward).ok

    back_lam = lam_p * lam_p
    back_eps = 2 * lam_p * eps
    a, b, k = _linear(back_lam, back_eps, scale, scale)
    backward_ok = not any(
        a * rows[j][i] > b * dij + k
        for i, row in enumerate(rows)
        for j, dij in enumerate(row)
        if i != j
    )
    return SymmetrizeResult(
        space=sym,
        lam=lam,
        eps=eps,
        forward=forward,
        backward_lam=back_lam,
        backward_eps=back_eps,
        metric_ok=metric_ok,
        forward_ok=forward_ok,
        backward_ok=backward_ok,
    )


# -- search -------------------------------------------------------------------


def eps_grid(eps_max):
    """The epsilon grid 1/2, 1, 2, 4, ... up to eps_max."""
    eps_max = Fraction(eps_max)
    out = []
    e = Fraction(1, 2)
    while e <= eps_max:
        out.append(e)
        e *= 2
    return out


@record
class SearchResult:
    point_map: tuple
    constants: QiConstants


def search_quasi_isometry(source, target, lam_max, eps_max, mu_max, cap=10):
    """Backtracking search for a quasi-isometry within the stated bounds.

    Maps are enumerated by lexicographic image tuples with partial-pair
    pruning at the loosest constants; the first map admitting constants
    within bounds is returned with its lexicographically least
    (lambda, epsilon).  A None result refutes nothing beyond the bounds.
    """
    n, m = len(source), len(target)
    if n > cap or m > cap:
        raise CapExceeded(cap, "search is capped at %d points per space" % cap)
    grid = eps_grid(eps_max)
    if not grid or m == 0:
        return None
    lam_max = Fraction(lam_max)
    mu_max = Fraction(mu_max)
    # both spaces and every epsilon of the grid over one scale, so each
    # eps * scale is an int; the search reads only the sign of a stamp
    scale = lcm(source.decoded[0], target.decoded[0],
                *(e.denominator for e in grid))
    srows = _rescaled(source, scale)
    trows = _rescaled(target, scale)
    p, q = lam_max.numerator, lam_max.denominator
    # every finite pair needs lambda >= 1
    wide = lam_max >= 1
    e_hi = int(grid[-1] * scale)
    qe, pe = q * e_hi, p * e_hi
    assign = []

    def extend_ok(k):
        """Whether each pair between k and an earlier point admits some
        lambda <= lam_max at the largest epsilon.  A stamped pair imposes
        nothing; a finite pair fails exactly when one inequality does."""
        ak = assign[k]
        for i in range(k):
            ai = assign[i]
            for x, y in ((srows[i][k], trows[ai][ak]), (srows[k][i], trows[ak][ai])):
                if x < 0 or y < 0:
                    continue
                if x == INF:
                    if y != INF:
                        return False
                    continue
                if y == INF or not wide or q * y > p * x + qe or q * x > p * y + pe:
                    return False
        return True

    def least_lam(f, eps):
        """Least lambda >= 1 admitted by every pair at eps, or None when a
        pair admits none within lam_max.  A finite pair needs
        (dy - eps) / dx when dx > 0 (dy <= eps when dx = 0) and
        dx / (dy + eps); the running maximum is kept as num / den."""
        e = int(eps * scale)
        num, den = 1, 1
        seen = False
        for i, xrow in enumerate(srows):
            yrow = trows[f[i]]
            for j, x in enumerate(xrow):
                if i == j:
                    continue
                y = yrow[f[j]]
                if x < 0 or y < 0:
                    continue
                if x == INF:
                    if y != INF:
                        return None
                    continue
                if y == INF:
                    return None
                seen = True
                if x > 0:
                    if (y - e) * den > num * x:
                        num, den = y - e, x
                elif y > e:
                    return None
                if x * den > num * (y + e):
                    num, den = x, y + e
        # only finite pairs are held to lam_max: stamped or doubly infinite
        # pairs alone give lambda = 1 even when lam_max < 1
        if seen and q * num > p * den:
            return None
        return Fraction(num, den)

    def leaf():
        f = tuple(assign)
        mu = quasi_density(f, source, target)
        if not (mu.is_finite() and mu.value <= mu_max):
            return None
        best = None
        for eps in grid:
            lam = least_lam(f, eps)
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


# -- quotients ----------------------------------------------------------------


def monoid_space(fm):
    """The whole finite monoid as a space under right Cayley distances,
    with the BFS depths as its rows on scale 1."""
    return _depth_space(fm.names, fm.right)


def _depth_space(names, succ):
    """The space on names whose rows are the BFS depths of the graph
    succ, on scale 1."""
    from .cayley import bfs

    n = len(names)
    # a depth is below n; index -1 (unreached) is the last slot
    lookup = list(range(n)) + [INF]
    rows = []
    for s in range(n):
        depth = bfs(succ, s)[0]
        rows.append(list(map(lookup.__getitem__, depth)) if -1 in depth else depth)
    return Space(names, (1, rows))


def is_congruence(fm, class_of):
    """None when the partition respects products; else a witness
    (x, y, x2, y2) of classwise-equal pairs with differing product class,
    the first in x-major order over all pairs."""
    # a partition is a congruence exactly when each element's generator
    # translations, on both sides, land in the classes of its class's
    # first member's translations
    first = {}
    for x, c in enumerate(class_of):
        f = first.setdefault(c, x)
        for rows in (fm.right, fm.left):
            if any(class_of[a] != class_of[b] for a, b in zip(rows[x], rows[f])):
                return _congruence_witness(fm, class_of)
    return None


def _congruence_witness(fm, class_of):
    n = len(fm)
    rep = {}
    for x in range(n):
        row = fm.row(x)
        for y in range(n):
            key = (class_of[x], class_of[y])
            c = class_of[row[y]]
            prev = rep.get(key)
            if prev is None:
                rep[key] = (x, y, c)
            elif prev[2] != c:
                return (prev[0], prev[1], x, y)
    raise AssertionError("generator translations disagree but no pair does")


@record
class QuotientReport:
    ok: bool
    r_bound: ExtDist
    constants: object
    embedding: object
    mu: object
    classes: list
    notes: list = field(default_factory=list)


def check_quotient_qi(fm, class_of):
    """Check the natural map onto the quotient by a congruence.

    The certificate constants are (1, R, 0) with R the largest class
    diameter in the monoid's right Cayley distances; when some class has
    infinite diameter the map provably fails and the report says so.
    """
    witness = is_congruence(fm, class_of)
    if witness is not None:
        raise NotACongruence(witness)

    from .green import _partition

    ordered, phi = _partition(len(fm), class_of.__getitem__)
    source = monoid_space(fm)
    # word distances are integers: the decoded rows are on scale 1
    rows = source.decoded[1]
    worst = max(max(map(rows[x].__getitem__, members))
                for members in ordered for x in members)
    r_bound = decode(worst)

    notes = []
    class_names = [[fm.names[i] for i in members] for members in ordered]
    if len(ordered) == 1 and len(fm) > 1:
        notes.append("quotient is trivial; distances collapse to a point")
    if not r_bound.is_finite():
        notes.append("some class has infinite diameter; no (1, R, 0) certificate")
        return QuotientReport(False, r_bound, None, None, None, class_names, notes)
    if r_bound.value == 0:
        notes.append("isometric-grade certificate (epsilon = 0)")
    # a congruence class steps by a generator to the class of any
    # member's product, so the quotient's Cayley graph is the image of
    # the monoid's; generators in the identity's class or sharing a
    # class add self-loops and parallel edges, which move no depth
    target = _depth_space([fm.names[members[0]] for members in ordered],
                          [[phi[y] for y in fm.right[members[0]]] for members in ordered])
    constants = QiConstants(1, r_bound.value, 0)
    report = check_quasi_isometry(phi, source, target, constants)
    return QuotientReport(
        report.ok, r_bound, constants, report.embedding, report.mu,
        class_names, notes,
    )


@record
class ProjectionReport:
    ok: bool
    r_bound: ExtDist
    horizon: int
    embedding: object
    mu: object
    skipped_fiber_pairs: int
    notes: list = field(default_factory=list)


def check_product_projection_qi(pm, radius, cap=DEFAULT_CAP):
    """Horizon-stamped evidence that projecting a product monoid onto its
    left factor is a (1, R, 0)-quasi-isometry, compared at equal radii.

    R is the largest decisive fiber diameter seen in the ball; pairs the
    ball cannot decide are skipped and counted.
    """
    from .cayley import build_cayley_ball
    from .green import _partition

    prod_ball = build_cayley_ball(pm, radius, cap=cap)
    left_ball = build_cayley_ball(pm.left, radius, cap=cap)
    phi = tuple(left_ball.index[v.key[0]] for v in prod_ball.vertices)
    fibers = _partition(len(phi), phi.__getitem__)[0]

    source = space_from_ball(prod_ball)
    scale, rows = source.decoded
    worst = 0
    skipped = 0
    for members in fibers:
        for x in members:
            row = rows[x]
            for y in members:
                d = row[y]
                if d < 0:
                    skipped += 1
                elif d > worst:
                    worst = d
    r_bound = decode(worst, scale)
    target = space_from_ball(left_ball)
    notes = ["evidence at ball radius %d; %d fiber pairs undecided"
             % (radius, skipped)]
    if not r_bound.is_finite():
        notes.append("a fiber is provably disconnected; no (1, R, 0) certificate")
        return ProjectionReport(False, r_bound, radius, None, None, skipped, notes)
    report = check_quasi_isometry(phi, source, target, QiConstants(1, r_bound.value, 0))
    return ProjectionReport(report.ok, r_bound, radius, report.embedding, report.mu,
                            skipped, notes)
