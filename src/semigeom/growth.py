"""Growth sequences, window domination certificates, and ends estimates.

Everything here is a finite-window statement.  A domination witness
certifies the inequality on the checked range only; a None result is
"none within bounds", not an asymptotic refutation.  Ends counts are
estimated on the undirected graph underlying a radius-r out-ball, with
"touches the outer sphere" standing in for "infinite component"; in-edges
from outside the ball are invisible, so every profile carries the radius
as its horizon stamp.
"""

import math
import sys

from ._records import record
from .cayley import build_cayley_ball
from .errors import CapExceeded
from .monoids import DEFAULT_CAP, RewritingMonoid, enumerate_out_ball
from .rewriting import LeftSideAutomaton

# largest relative residual of a growth fit that classify_growth reports
FIT_THRESHOLD = 0.05


@record(frozen=True)
class GrowthSequence:
    values: tuple  # values[m] = |B(m)|, m = 0 .. window
    label: str = ""

    @property
    def window(self):
        return len(self.values) - 1

    def __getitem__(self, m):
        return self.values[m]

    def __len__(self):
        return len(self.values)


def growth_sequence(m, mmax, cap=DEFAULT_CAP):
    """Exact ball sizes |B(0)| .. |B(mmax)|.

    A rewriting monoid generated by its alphabet has one normal form per
    element, and a shortlex normal form is a shortest word for its
    element, so the sphere sizes are the counts of irreducible words by
    length, read off the left-side automaton.  Every other monoid is
    enumerated breadth-first from the identity.  Either way CapExceeded is
    raised as soon as the ball passes the cap (the identity alone never
    does, as in enumeration).
    """
    if mmax > sys.maxsize:
        raise ValueError("mmax %d is too large to be a size" % mmax)
    if isinstance(m, RewritingMonoid) and not m.extra_generators:
        spheres = LeftSideAutomaton(m.system).counts()
    else:
        spheres = [0] * (mmax + 1)
        for le in enumerate_out_ball(m, mmax, cap):
            spheres[le.length] += 1
    values = []
    total = 0
    for _, c in zip(range(mmax + 1), spheres):
        total += c
        if total > max(cap, 1):
            raise CapExceeded(cap)
        values.append(total)
    values += [total] * (mmax + 1 - len(values))
    return GrowthSequence(tuple(values), label=str(m.description()))


@record(frozen=True)
class Witness:
    lam: int
    c: int
    checked: tuple  # (first t, last t) verified


def check_domination(a1, a2, lam, c):
    """Replay a1(t) <= lam * a2(lam t + c) + c at every t whose argument
    lands in a2's window; the list of checked t, or None on failure."""
    checked = []
    for t in range(len(a1)):
        s = lam * t + c
        if s > a2.window:
            continue
        if a1[t] > lam * a2[s] + c:
            return None
        checked.append(t)
    return checked


def dominates_within(a1, a2, lam_max, c_max):
    """Smallest (lam, c) in lexicographic order certifying domination on
    the shared window, or None within the stated bounds.  A witness must
    cover at least one t."""
    for lam in range(1, lam_max + 1):
        for c in range(c_max + 1):
            checked = check_domination(a1, a2, lam, c)
            if checked:
                return Witness(lam, c, (checked[0], checked[-1]))
    return None


@record(frozen=True)
class Polynomial:
    degree: int


@record(frozen=True)
class Exponential:
    base: float


@record(frozen=True)
class Inconclusive:
    reason: str = ""


def _fit(xs, ys):
    """Least-squares line; returns (slope, relative residual), the latter
    as sqrt(unexplained variance fraction)."""
    n = len(xs)
    xbar = sum(xs) / n
    ybar = sum(ys) / n
    sxx = sum((x - xbar) ** 2 for x in xs)
    sst = sum((y - ybar) ** 2 for y in ys)
    slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sxx
    intercept = ybar - slope * xbar
    sse = sum((y - (intercept + slope * x)) ** 2 for x, y in zip(xs, ys))
    if sst == 0:
        return slope, 0.0
    return slope, math.sqrt(max(sse, 0.0) / sst)


def _exact_degree(values):
    """Least d whose d-th differences over the whole sequence are one
    constant repeated at least 3 times, or None."""
    diffs = list(values)
    d = 0
    while len(diffs) >= 3:
        if all(x == diffs[0] for x in diffs):
            return d
        diffs = [y - x for x, y in zip(diffs, diffs[1:])]
        d += 1
    return None


def classify_growth(a):
    """Growth-type estimate from the window.

    A tail half that is constant gives degree 0.  Otherwise, when the
    exact integer d-th differences over the whole window are constant for
    some d (least such d, at least 3 values), the window is a degree-d
    polynomial and Polynomial(d) is reported.  Failing both, a heuristic
    fits log g(m) against log m (polynomial) and against m (exponential)
    on the tail half and reports the better fit when its relative residual
    beats FIT_THRESHOLD, preferring polynomial on ties.  Needs a window of
    length >= 8.
    """
    if a.window < 8:
        raise ValueError("classification needs a window of length >= 8")
    ms = list(range((a.window + 1) // 2, a.window + 1))
    gs = [a[t] for t in ms]
    if gs[0] == gs[-1]:
        return Polynomial(0)
    degree = _exact_degree(a.values)
    if degree is not None:
        return Polynomial(degree)
    ys = [math.log(g) for g in gs]
    poly_slope, poly_res = _fit([math.log(t) for t in ms], ys)
    exp_slope, exp_res = _fit(list(ms), ys)
    if poly_res <= exp_res:
        if poly_res < FIT_THRESHOLD:
            return Polynomial(max(0, round(poly_slope)))
        return Inconclusive("best fit residual %.3f over threshold" % poly_res)
    if exp_res < FIT_THRESHOLD:
        return Exponential(round(math.exp(exp_slope), 2))
    return Inconclusive("best fit residual %.3f over threshold" % exp_res)


@record(frozen=True)
class Stable:
    count: int


@record(frozen=True)
class GrowingAtLeast:
    counts: tuple


@record
class EndsProfile:
    inner_radii: tuple
    outer_radius: int
    counts: tuple        # e(k, r) per inner radius
    counts_inner: tuple  # e(k, r-1), the consistency check
    verdict: object
    horizon: int


def _end_counts(lengths, adjacency, sphere, kmax):
    """For k = 0..kmax, the number of components of the subgraph on
    {k < l <= sphere} that meet the sphere {l = sphere}.

    One union-find sweep adds the depth layers from the sphere inward: a
    whole layer first (only the sphere's vertices are live roots), then
    its edges to vertices of depth d..sphere.  Joining two live roots
    leaves one, and once layer d is in, the live roots number e(d - 1).
    Layers past the ball's deepest vertex are empty; the sweep starts there.
    """
    deepest = min(sphere, max(lengths))
    layers = [[] for _ in range(deepest + 1)]
    for v, depth in enumerate(lengths):
        if depth <= deepest:
            layers[depth].append(v)
    parent = list(range(len(lengths)))
    live = [depth == sphere for depth in lengths]

    def find(v):
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    counts = [0] * (kmax + 1)
    alive = live.count(True)
    for d in range(deepest, 0, -1):
        for u in layers[d]:
            for v in adjacency[u]:
                if d <= lengths[v] <= sphere:
                    a, b = find(u), find(v)
                    if a != b:
                        if live[a] and live[b]:
                            alive -= 1
                        parent[a] = b
                        live[b] = live[b] or live[a]
        if d - 1 <= kmax:
            counts[d - 1] = alive
    return tuple(counts)


def ends_profile(m, kmax, r, cap=DEFAULT_CAP):
    """Estimate e(k, r) for k = 0..kmax on the radius-r undirected ball.

    Verdict is Stable(n) when every k in the top half of the range gives n
    at both outer radii r and r-1, GrowingAtLeast when the counts strictly
    increase throughout, else Inconclusive.
    """
    if r < 1 or kmax >= r:
        raise ValueError("need 0 <= kmax < r with r >= 1")
    if kmax > sys.maxsize:
        raise ValueError("kmax %d is too large to be a size" % kmax)
    ball = build_cayley_ball(m, r, cap=cap)
    lengths = ball.lengths
    adjacency = [set() for _ in lengths]
    for i, j, _label in ball.edges:
        if j != i:
            adjacency[i].add(j)
            adjacency[j].add(i)

    ks = tuple(range(kmax + 1))
    counts = _end_counts(lengths, adjacency, r, kmax)
    # the radius-(r-1) ball is the induced subgraph on {l <= r-1}
    counts_inner = _end_counts(lengths, adjacency, r - 1, kmax)

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
