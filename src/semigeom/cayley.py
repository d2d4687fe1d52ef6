"""Cayley graph balls, path distances with horizon stamps, components,
Schutzenberger graph approximations, and geodesic realization.

A ball is the out-neighbourhood of a base element at a given radius in the
right (or left) Cayley graph, held as monoids.explore's successor table.  Path
distances inside the ball are exact values of the ball digraph; they carry
the ball radius as a horizon: a shortest in-ball path longer than the
radius, or a missing path that might re-enter from outside, is reported as
a horizon stamp rather than a guessed number.  Infinity is only reported
when the forward-reachable set of the source is fully explored.
CayleyBall.distance gives one such value as an ExtDist; distance_rows
writes all of them as integer rows straight from the BFS depths, and
distance_table and geometry.space_from_ball read those rows.

The geodesic realization treats every edge as a directed unit segment; its
points are the vertices plus interior edge points (e, mu) with rational
0 < mu < 1, and distances follow the exact segment formulas.
"""

from bisect import bisect_left
from fractions import Fraction
from functools import cached_property
from operator import add

from .distances import INF, INFINITE, beyond, finite
from .errors import CapExceeded, NotFinite
# unused here; perfbench/selftest.py checks the tracer rebinds this from-import
from .monoids import DEFAULT_CAP, Element, enumerate_all  # noqa: F401
from .monoids import LEFT, RIGHT, explore


def bfs(adj, s):
    """Breadth-first search over successor lists from vertex s.

    Returns (depth, order): depth[v] is the length of a shortest path from
    s to v, or -1 when v is unreached; order lists the reached vertices in
    the order the search reached them, s first.
    """
    depth = [-1] * len(adj)
    depth[s] = 0
    order = [s]
    for u in order:
        d = depth[u] + 1
        for v in adj[u]:
            if depth[v] < 0:
                depth[v] = d
                order.append(v)
    return depth, order


class CayleyBall:
    """A radius-r ball of a Cayley graph as an explicit digraph.

    vertices[i] is an Element, and index maps its key back to i; lengths[i]
    is the BFS depth from the base (the word length when the base is the
    identity).  succ[i][g] is the vertex that the g-th generator leads to
    from vertex i, or -1 when that product lies outside the ball, and
    out_adj[i] lists the ball's targets in generator order.  edges hold
    (source, target, label) triples ordered by source, then generator
    order.  complete[i] says whether every product of vertex i by a
    generator lands inside the ball, i.e. the vertex's out-edges are fully
    visible.
    """

    def __init__(self, monoid, side, radius, base, keys, index, lengths, succ):
        self.monoid = monoid
        self.side = side
        self.radius = radius
        self.base = base
        self.vertices = [Element(monoid, k) for k in keys]
        self.index = index
        self.lengths = lengths
        self.succ = succ
        self.complete = [-1 not in row for row in succ]
        # a complete row is its own successor list; no caller mutates either
        self.out_adj = [row if inside else [v for v in row if v >= 0]
                        for row, inside in zip(succ, self.complete)]
        self._dist_cache = {}

    @cached_property
    def edges(self):
        syms = self.monoid._gen_syms
        return [(u, v, syms[g]) for u, row in enumerate(self.succ)
                for g, v in enumerate(row) if v >= 0]

    def __len__(self):
        return len(self.vertices)

    def name(self, i):
        return self.monoid.element_name(self.vertices[i])

    def index_of(self, x):
        """Vertex index of an Element (or pass an index through)."""
        if isinstance(x, Element):
            return self.index[x.key]
        return int(x)

    def in_degrees(self):
        deg = [0] * len(self.vertices)
        for _u, v, _label in self.edges:
            deg[v] += 1
        return deg

    def out_degrees(self):
        return [len(a) for a in self.out_adj]

    def _bfs_from(self, s):
        """bfs from s, plus whether every reached vertex is complete."""
        if s in self._dist_cache:
            return self._dist_cache[s]
        depth, order = bfs(self.out_adj, s)
        result = (depth, order, all(map(self.complete.__getitem__, order)))
        self._dist_cache[s] = result
        return result

    def distance(self, u, v):
        """Shortest directed in-ball path length as an ExtDist.

        Finite(n) when an in-ball path of minimal length n <= radius exists;
        Infinite when no path exists and the source's reachable set is fully
        explored (so no outside detour can exist); ExceedsHorizon(radius)
        otherwise.
        """
        u = self.index_of(u)
        v = self.index_of(v)
        depth, _order, all_complete = self._bfs_from(u)
        n = depth[v]
        if n >= 0:
            if n <= self.radius:
                return finite(n)
            return beyond(self.radius)
        if all_complete:
            return INFINITE
        return beyond(self.radius)

    def geodesic(self, u, v):
        """Label word of one shortest in-ball path, or None if unreached."""
        u = self.index_of(u)
        v = self.index_of(v)
        depth, order, _ = self._bfs_from(u)
        if depth[v] < 0:
            return None
        labels = []
        while v != u:
            # the search reached v by the first edge (by source, then
            # generator) out of the first vertex in search order, a level up
            i = bisect_left(order, depth[v] - 1, key=depth.__getitem__)
            while v not in self.out_adj[order[i]]:
                i += 1
            src = order[i]
            labels.append(self.monoid._gen_syms[self.succ[src].index(v)])
            v = src
        labels.reverse()
        return labels

    def distance_rows(self):
        """All distance(u, v) as integer rows, one BFS per source.

        An entry is the BFS depth when it is at most the radius, INF when
        distance() says infinity, and -1 - radius for a horizon stamp (the
        encoding of distances.scaled_rows on scale 1).
        """
        n = len(self.vertices)
        stamp = -1 - self.radius
        # lookup[d] is the entry for BFS depth d; index -1 (unreached) is
        # the last slot, which depends on the source's closure
        depths = list(range(min(n, self.radius + 1)))
        depths += [stamp] * (n - len(depths))
        closed = depths + [INF]
        truncated = depths + [stamp]
        rows = []
        for s in range(n):
            depth, _order, all_complete = self._bfs_from(s)
            lookup = closed if all_complete else truncated
            rows.append(list(map(lookup.__getitem__, depth)))
        return rows


def build_cayley_ball(m, radius, side=RIGHT, base=None, cap=DEFAULT_CAP):
    """The radius-r out-ball of base (default: identity) as a CayleyBall.

    side="right" multiplies generators on the right (edges x -> x*a);
    side="left" on the left (edges x -> a*x).  Every edge with both ends in
    the ball is recorded, including edges between boundary vertices.
    """
    if base is None:
        base = m.identity
    table = explore(m, radius, side, base, cap)
    return CayleyBall(m, side, radius, base, table.keys, table.index, table.lengths,
                      table.succ)


def full_cayley_graph(m, side=RIGHT, cap=DEFAULT_CAP):
    """The whole Cayley graph of a finite monoid, every vertex complete."""
    # a monoid of at most cap elements has every word length below cap
    try:
        ball = build_cayley_ball(m, cap, side=side, cap=cap)
    except CapExceeded:
        raise NotFinite("monoid is not finite within cap %d" % cap) from None
    # one step of slack past the longest word length keeps the horizon of
    # every distance outside the graph
    ball.radius = len(ball) + 1
    return ball


class SccResult:
    """Strongly connected components of a ball digraph.

    components are vertex-index lists ordered by first (BFS) member;
    verified[c] is True when every vertex reachable from the component is
    complete, so the component provably equals the component of the full
    graph.  succ is the condensation: succ[c] holds the components other
    than c that an edge from c enters.
    """

    def __init__(self, components, verified, comp_of, succ):
        self.components = components
        self.verified = verified
        self.comp_of = comp_of
        self.succ = succ


def tarjan(adj):
    """Strongly connected components of a digraph given by successor lists.

    Tarjan's algorithm, iterative to keep large graphs off the stack.
    Returns (components, comp_of, succ, finished): components are sorted
    vertex lists ordered by least vertex; comp_of[v] is the component of
    v; succ is the condensation (succ[c] holds the components other than c
    that an edge from c enters); finished lists the components in the
    order the search completed them, each after every component it reaches.
    """
    n = len(adj)
    index_of = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    comp_of = [-1] * n
    components = []
    counter = 0

    for root in range(n):
        if index_of[root] >= 0:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index_of[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            out = adj[v]
            while pi < len(out):
                w = out[pi]
                pi += 1
                if index_of[w] < 0:
                    work[-1] = (v, pi)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index_of[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index_of[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp_of[w] = len(components)
                    comp.append(w)
                    if w == v:
                        break
                comp.sort()
                components.append(comp)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])

    # renumber components by their least vertex for a stable order
    k = len(components)
    order = sorted(range(k), key=lambda c: components[c][0])
    renum = [0] * k
    for new, old in enumerate(order):
        renum[old] = new
    comp_of = [renum[c] for c in comp_of]
    succ = [set() for _ in range(k)]
    for u, out in enumerate(adj):
        cu = comp_of[u]
        for v in out:
            cv = comp_of[v]
            if cu != cv:
                succ[cu].add(cv)
    return [components[old] for old in order], comp_of, succ, renum


def strongly_connected_components(ball):
    """The ball digraph's components (see tarjan), each verified or not."""
    components, comp_of, succ, finished = tarjan(ball.out_adj)
    # verified: every vertex in the component's forward closure is complete;
    # in finishing order each successor is already decided
    verified = [None] * len(components)
    for c in finished:
        verified[c] = (all(map(ball.complete.__getitem__, components[c]))
                       and all(verified[t] for t in succ[c]))
    return SccResult(components, verified, comp_of, succ)


def component_poset(ball, scc=None):
    """Reachability order between components: C <= D iff D reaches C."""
    if scc is None:
        scc = strongly_connected_components(ball)
    return [set(bfs(scc.succ, c)[1]) for c in range(len(scc.components))]


def base_component(ball, scc):
    """The strongly connected component of the ball's base, as a CayleyBall.

    scc is the ball's SccResult.  Vertex order, lengths (distances from the
    base), and edges are induced from the ball; completeness is recomputed
    relative to the subgraph.
    """
    keep = scc.components[scc.comp_of[0]]
    # remap[-1] is the last slot, so an edge out of the ball or out of the
    # component is -1 alike and leaves its source incomplete
    remap = [-1] * (len(ball) + 1)
    for new, old in enumerate(keep):
        remap[old] = new
    keys = [ball.vertices[i].key for i in keep]
    index = {k: i for i, k in enumerate(keys)}
    lengths = [ball.lengths[i] for i in keep]
    succ = [list(map(remap.__getitem__, ball.succ[i])) for i in keep]
    return CayleyBall(ball.monoid, ball.side, ball.radius, ball.base, keys, index, lengths, succ)


def schutzenberger_ball(m, h, radius, cap=DEFAULT_CAP):
    """The strongly connected component of h inside its radius-r out-ball.

    This is the in-ball approximation of the Schutzenberger graph of the
    R-class of h: vertices mutually reachable with h using in-ball paths.
    """
    ball = build_cayley_ball(m, radius, side=RIGHT, base=h, cap=cap)
    return base_component(ball, strongly_connected_components(ball))


# -- geodesic realization ----------------------------------------------------


def vertex_point(i):
    return ("v", i)


def edge_point(edge_id, mu):
    mu = Fraction(mu)
    if not 0 < mu < 1:
        raise ValueError("edge point parameter must satisfy 0 < mu < 1")
    return ("e", edge_id, mu)


def realized_distance(ball, p, q):
    """Exact distance between realized points (vertices or edge points).

    Each edge is a unit directed segment: entering an edge is only possible
    at its source and leaving at its target, except that two points on the
    same edge in increasing parameter order are joined inside the segment.
    """
    if p[0] == "v" and q[0] == "v":
        return ball.distance(p[1], q[1])
    if p[0] == "e" and q[0] == "v":
        _e, eid, mu = p
        _src, dst, _label = ball.edges[eid]
        return ball.distance(dst, q[1]).plus(1 - mu)
    if p[0] == "v" and q[0] == "e":
        _e, eid, mu = q
        src, _dst, _label = ball.edges[eid]
        return ball.distance(p[1], src).plus(mu)
    _e1, e1, mu = p
    _e2, e2, nu = q
    if e1 == e2 and nu >= mu:
        return finite(nu - mu)
    _src1, dst1, _l1 = ball.edges[e1]
    src2, _dst2, _l2 = ball.edges[e2]
    return ball.distance(dst1, src2).plus((1 - mu) + nu)


def realized_point_name(ball, p):
    if p[0] == "v":
        return ball.name(p[1])
    _e, eid, mu = p
    u, v, label = ball.edges[eid]
    return "%s-%s->%s@%s" % (ball.name(u), label, ball.name(v), mu)


def sample_points(ball, samples_per_edge=1):
    """All vertices plus evenly spaced interior points on every edge."""
    points = [vertex_point(i) for i in range(len(ball.vertices))]
    s = int(samples_per_edge)
    for eid in range(len(ball.edges)):
        for k in range(1, s + 1):
            points.append(edge_point(eid, Fraction(k, s + 1)))
    return points


BELOW = "below"
ABOVE = "above"
EQUIVALENT = "equivalent"
INCOMPARABLE = "incomparable"
UNKNOWN = "unknown"


class ComparabilityResult:
    def __init__(self, points, names, matrix):
        self.points = points
        self.names = names
        self.matrix = matrix

    def count(self, relation):
        n = len(self.points)
        return sum(
            1
            for i in range(n)
            for j in range(n)
            if i != j and self.matrix[i][j] == relation
        )


def component_comparability(ball, samples_per_edge=1):
    """Classify every ordered pair of sampled realized points.

    Writing x <= y for "y reaches x" (d(y, x) finite), the entry for (x, y)
    is: equivalent when both directions are finite, below when only y
    reaches x, above when only x reaches y, incomparable when both
    directions are infinite, and unknown when a horizon stamp prevents a
    decision.
    """
    points = sample_points(ball, samples_per_edge)
    names = [realized_point_name(ball, p) for p in points]
    n = len(points)
    dist = [[realized_distance(ball, points[i], points[j]) for j in range(n)] for i in range(n)]
    matrix = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            ij = dist[i][j]
            ji = dist[j][i]
            if not ij.is_decisive() or not ji.is_decisive():
                matrix[i][j] = UNKNOWN
            elif ij.is_finite() and ji.is_finite():
                matrix[i][j] = EQUIVALENT
            elif ij.is_finite():
                matrix[i][j] = ABOVE
            elif ji.is_finite():
                matrix[i][j] = BELOW
            else:
                matrix[i][j] = INCOMPARABLE
    return ComparabilityResult(points, names, matrix)


# -- deterministic text output -----------------------------------------------


def _dot_quote(name):
    return '"%s"' % name.replace("\\", "\\\\").replace('"', '\\"')


def export_dot(ball):
    """DOT text for the ball digraph; byte-stable for equal inputs."""
    lines = ["digraph {"]
    for i in range(len(ball.vertices)):
        lines.append("  %s;" % _dot_quote(ball.name(i)))
    for u, v, label in ball.edges:
        lines.append(
            "  %s -> %s [label=%s];"
            % (_dot_quote(ball.name(u)), _dot_quote(ball.name(v)), _dot_quote(label))
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def distance_table(ball):
    """One line per ordered vertex pair: "u<TAB>v<TAB>d"."""
    names = [ball.name(i) for i in range(len(ball.vertices))]
    # the text of every entry value distance_rows writes (a depth is below n)
    text = {d: str(d) for d in range(min(len(ball), ball.radius + 1))}
    text[-1 - ball.radius] = ">%d" % ball.radius
    text[INF] = "inf"
    tails = [v + "\t" for v in names]
    blocks = []
    # a source's lines in one join, "u<TAB>" before each "v<TAB>d"
    for u, row in zip(names, ball.distance_rows()):
        head = u + "\t"
        blocks.append(head + ("\n" + head).join(map(add, tails, map(text.__getitem__, row))))
    return "\n".join(blocks) + "\n"
