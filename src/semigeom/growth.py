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
from dataclasses import dataclass

from .cayley import build_cayley_ball
from .monoids import DEFAULT_CAP, enumerate_out_ball

# largest relative residual of a growth fit that classify_growth reports
FIT_THRESHOLD = 0.05


@dataclass(frozen=True)
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
    """Exact ball sizes |B(0)| .. |B(mmax)| from identity-based BFS."""
    counts = [0] * (mmax + 1)
    for le in enumerate_out_ball(m, mmax, cap):
        counts[le.length] += 1
    values = []
    total = 0
    for c in counts:
        total += c
        values.append(total)
    return GrowthSequence(tuple(values), label=str(m.description()))


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Polynomial:
    degree: int


@dataclass(frozen=True)
class Exponential:
    base: float


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Stable:
    count: int


@dataclass(frozen=True)
class GrowingAtLeast:
    counts: tuple


@dataclass
class EndsProfile:
    inner_radii: tuple
    outer_radius: int
    counts: tuple        # e(k, r) per inner radius
    counts_inner: tuple  # e(k, r-1), the consistency check
    verdict: object
    horizon: int


def _sphere_components(lengths, adjacency, k, sphere):
    """Components of the subgraph on {l > k} that meet the given sphere."""
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


def ends_profile(m, kmax, r, cap=DEFAULT_CAP):
    """Estimate e(k, r) for k = 0..kmax on the radius-r undirected ball.

    Verdict is Stable(n) when every k in the top half of the range gives n
    at both outer radii r and r-1, GrowingAtLeast when the counts strictly
    increase throughout, else Inconclusive.
    """
    if r < 1 or kmax >= r:
        raise ValueError("need 0 <= kmax < r with r >= 1")
    ball = build_cayley_ball(m, r, cap=cap)
    lengths = ball.lengths
    adjacency = [set() for _ in lengths]
    for i, j, _label in ball.edges:
        if j != i:
            adjacency[i].add(j)
            adjacency[j].add(i)

    ks = tuple(range(kmax + 1))
    counts = tuple(_sphere_components(lengths, adjacency, k, r) for k in ks)
    # the radius-(r-1) ball is the induced subgraph on {l <= r-1}
    keep = [i for i in range(len(lengths)) if lengths[i] <= r - 1]
    remap = {old: new for new, old in enumerate(keep)}
    in_lengths = [lengths[i] for i in keep]
    in_adj = [
        {remap[v] for v in adjacency[i] if lengths[v] <= r - 1} for i in keep
    ]
    counts_inner = tuple(
        _sphere_components(in_lengths, in_adj, k, r - 1) for k in ks
    )

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
