"""Green's relations, Schutzenberger groups, and action checks.

Everything here that claims exactness requires a finite monoid: the
FiniteMonoid view reads the right Cayley graph from monoids.exhaust, one
backend product per element and generator, and derives the left
products, and any other product, from words in the generators.  Green's
relations then come from the two Cayley graphs (Froidure & Pin 1997):
the R-classes are the strongly connected components of the right Cayley
graph, the L-classes those of the left one, the H-classes their
intersections, and the R-order is reachability between R-classes.  The
Schutzenberger group of an H-class H is the left stabilizer
{s : sH = H} quotiented by the kernel of its action on H, so group
elements are literally permutations of H.

The action checks run the group against the induced digraph on the
R-class (whose internal path distances are the true word-metric
distances, since a product path between R-equivalent elements never
leaves the R-class).  For infinite monoids a horizon-stamped evidence
mode works inside a radius-r ball instead and never claims more than the
ball shows.  The two modes differ only in where the group and the distance
rows come from: one stabilizer scan finds the group and one report checks
the action.
"""

from functools import cached_property

from . import cayley
from ._records import field, record
from .distances import INF, decode
from .errors import PROBE_CAP, NotAnHClass, NotFinite, NotGenerating
# enumerate_all is unused here; perfbench/selftest.py checks the tracer
# rebinds this from-import
from .monoids import DEFAULT_CAP, Element, enumerate_all  # noqa: F401
from .monoids import exhaust


class FiniteMonoid:
    """A fully enumerated monoid with its two Cayley graphs.

    One Froidure-Pin pass, monoids.exhaust of the right Cayley graph,
    enumerates the elements breadth-first from the identity over the
    ordered generators, so index 0 is the identity and indices are
    comparable across runs.  The pass makes one backend product per
    element and generator: right[i][g] is the index of x_i a_g for the
    g-th generator a_g.  Each other element v also records its BFS parent
    p(v) and last letter b(v), with x_v = x_p(v) a_b(v).  So left[v][g],
    the index of a_g x_v (built on first use), is right[left[p(v)][g]][b(v)],
    product(i, j) follows right from i along the word of j, and row(i)
    lists x_i x_j for every j in one sweep of the same recurrence; none of
    them multiplies in the backend.  A monoid proved infinite raises
    ProvedInfinite before anything is enumerated; one not exhausted within
    the cap raises NotFinite.
    """

    def __init__(self, monoid, cap=DEFAULT_CAP):
        table = exhaust(monoid, cap=cap)
        self.monoid = monoid
        self.keys = table.keys
        self.index = table.index
        self.right = table.succ
        self._parent = table.parent
        self._last = table.last
        self.names = [monoid._key_name(k) for k in self.keys]
        self.identity_index = 0
        self.gen_indices = self.right[0]
        self._green = None

    @cached_property
    def elements(self):
        return [Element(self.monoid, k) for k in self.keys]

    @cached_property
    def left(self):
        right = self.right
        left = [right[0]]
        for p, b in zip(self._parent[1:], self._last[1:]):
            left.append([right[u][b] for u in left[p]])
        return left

    @cached_property
    def _words(self):
        """words[v]: the generator indices spelling x_v along BFS parents."""
        words = [()]
        for p, b in zip(self._parent[1:], self._last[1:]):
            words.append(words[p] + (b,))
        return words

    def product(self, i, j):
        """Index of x_i x_j."""
        right = self.right
        for g in self._words[j]:
            i = right[i][g]
        return i

    def row(self, i):
        """Indices of x_i x_j for every j, in index order."""
        right = self.right
        out = [i]
        for p, b in zip(self._parent[1:], self._last[1:]):
            out.append(right[out[p]][b])
        return out

    def __len__(self):
        return len(self.keys)

    def element_index(self, x):
        """Index of an Element, a canonical name, or an index."""
        if isinstance(x, int):
            return x
        if isinstance(x, str):
            return self.names.index(x)
        return self.index[x.key]

    def green(self):
        if self._green is None:
            self._green = green_relations(self)
        return self._green


@record
class GreenStructure:
    """R/L/H partitions (lists of sorted index lists, ordered by least
    member) plus the full R-order as comparable class pairs."""

    r_classes: list
    l_classes: list
    h_classes: list
    r_class_of: list
    l_class_of: list
    h_class_of: list
    r_order: list  # pairs (i, j), i != j, with R_i <=_R R_j


def _partition(n, key_of):
    groups = {}
    for i in range(n):
        groups.setdefault(key_of(i), []).append(i)
    classes = sorted(groups.values(), key=lambda c: c[0])
    class_of = [0] * n
    for ci, members in enumerate(classes):
        for i in members:
            class_of[i] = ci
    return classes, class_of


def green_relations(fm):
    """Exact R, L, and H partitions from the Cayley graphs' components."""
    r_classes, r_of, r_succ, _ = cayley.tarjan(fm.right)
    l_classes, l_of, _, _ = cayley.tarjan(fm.left)
    h_classes, h_of = _partition(len(fm), lambda i: (r_of[i], l_of[i]))
    # R_i <= R_j exactly when R_j reaches R_i
    r_order = sorted((i, j) for j in range(len(r_classes))
                     for i in cayley.bfs(r_succ, j)[1][1:])
    return GreenStructure(r_classes, l_classes, h_classes, r_of, l_of, h_of, r_order)


class SchutzGroup:
    """The left Schutzenberger group of an H-class, as permutations of H.

    perms[k] is the action of the k-th group element on h_class (position
    tuples); representatives[k] is the least stabilizer element inducing
    it.  Group multiplication composes actions: (st)h = s(th).
    """

    def __init__(self, fm, h_class, perms, representatives):
        self.fm = fm
        self.h_class = h_class
        self.perms = perms
        self.representatives = representatives
        self.rep_names = [fm.names[r] for r in representatives]
        # the group acts simply transitively on H, so an action is fixed by
        # the image of position 0, and (st)h_0 = s(t h_0)
        first = {p[0]: k for k, p in enumerate(perms)}
        if len(first) != len(perms):
            raise AssertionError("two actions on %r agree at its first member" % h_class)
        self.table = [[first[p[q[0]]] for q in perms] for p in perms]
        self.identity_index = first[0]

    @property
    def order(self):
        return len(self.perms)

    def inverse(self, k):
        return self.table[k].index(self.identity_index)


def _stabilizer(candidates, members, product):
    """(perms, reps): the distinct actions on members of the candidates s
    that map members onto themselves, in the order first found, each with
    the first candidate inducing it.  product(s, h) is the image of the
    member h under s; a perm lists the positions of the images."""
    pos = {x: k for k, x in enumerate(members)}
    h0, rest = members[0], members[1:]
    found = {}
    for s in candidates:
        # sH = H needs s h_0 in H; most s fail there, after one product
        first = product(s, h0)
        if first not in pos:
            continue
        images = [first, *[product(s, h) for h in rest]]
        if pos.keys() == set(images):
            found.setdefault(tuple(pos[y] for y in images), s)
    return list(found), list(found.values())


def schutz_group(fm, h_class):
    """Stab(H) = {s : sH = H} made faithful on H.

    Raises NotAnHClass unless h_class is exactly one of the monoid's
    H-classes.
    """
    members = sorted(fm.element_index(x) for x in h_class)
    gs = fm.green()
    if not members or gs.h_classes[gs.h_class_of[members[0]]] != members:
        raise NotAnHClass("%r is not an H-class" % [fm.names[i] for i in members])
    return SchutzGroup(fm, members, *_stabilizer(range(len(fm)), members, fm.product))


# -- the action of G(H) on the Schutzenberger graph ---------------------------


class _RClassGeometry:
    """The R-class digraph with exact distances and the group action.

    Paths between R-equivalent elements never leave the R-class (every
    prefix generates the same right ideal), so BFS inside the induced
    subgraph computes true d_A distances; the R-class is one strongly
    connected component, hence all distances are finite.
    """

    def __init__(self, fm, h_class):
        self.fm = fm
        self.group = schutz_group(fm, h_class)
        gs = fm.green()
        r_index = gs.r_class_of[self.group.h_class[0]]
        self.vertices = list(gs.r_classes[r_index])
        self.vpos = {x: k for k, x in enumerate(self.vertices)}
        n = len(self.vertices)
        succ = [[self.vpos[y] for y in fm.right[x] if y in self.vpos]
                for x in self.vertices]
        self.dist = [cayley.bfs(succ, s)[0] for s in range(n)]
        self.base = self.vpos[self.group.h_class[0]]
        # left multiplication by a stabilizer permutes the whole R-class
        self.vperms = []
        for rep in self.group.representatives:
            images = [self.vpos[fm.product(rep, x)] for x in self.vertices]
            assert sorted(images) == list(range(n))
            self.vperms.append(images)

    def vertex_name(self, k):
        return self.fm.names[self.vertices[k]]


def _strong_ball(rows, base, radius):
    """The vertices within radius of base and base within radius of them."""
    out = rows[base]
    return [v for v, row in enumerate(rows)
            if 0 <= out[v] <= radius and 0 <= row[base] <= radius]


@record
class ActionReport:
    exact: bool
    group_order: int
    isometric: bool
    counterexample: object
    outward_proper: bool
    orbit_meet_sizes: list
    cocompact: bool
    covering_radius: object
    failed_radius: object
    notes: list = field(default_factory=list)


def check_schutz_action(m, h_element=None, radius=8, cap=DEFAULT_CAP,
                        probe_cap=PROBE_CAP):
    """Verify the Schutzenberger action is isometric, outward proper, and
    (where the ball shows it) cocompact.

    Finite monoids get the exact R-class computation for the H-class of
    h_element (default: identity); infinite ones get ball evidence at the
    stated radius with the identity's in-ball H-class.  A monoid that
    monoids.proved_infinite decides is infinite skips the probe; any other
    is probed only up to probe_cap elements, and a finite monoid bigger
    than that is treated as infinite unless probe_cap is raised.
    """
    try:
        fm = FiniteMonoid(m, cap=min(cap, probe_cap))
    except NotFinite:
        return check_schutz_action_ball(m, radius, cap=cap)
    h = fm.identity_index if h_element is None else fm.element_index(h_element)
    gs = fm.green()
    return check_schutz_action_finite(fm, gs.h_classes[gs.h_class_of[h]], radius=radius)


def _action_report(exact, group_order, rows, base, vperms, rep_names, vertex_name,
                   radius, limit, notes):
    """The report of a group acting on a digraph by the vertex permutations
    vperms, named rep_names, from its distance rows on scale 1: an entry is
    finite, INF, or a negative horizon stamp (distances.scaled_rows).

    A pair is decided when neither entry is a stamp, and the last decided
    pair whose entries differ is the counterexample.  The orbit-meet count at
    rho uses the out-ball {v : 0 <= d(base, v) <= rho}; the covering radius
    is the least lam < limit whose strong ball's translates cover every
    vertex, and cocompactness fails when there is none.
    """
    counterexample = None
    for name, perm in zip(rep_names, vperms):
        for u, row in enumerate(rows):
            image = list(map(rows[perm[u]].__getitem__, perm))
            if image == row:
                continue
            for v, (a, b) in enumerate(zip(row, image)):
                if a != b and a >= 0 and b >= 0:
                    counterexample = (name, vertex_name(u), vertex_name(v),
                                      decode(a).format(), decode(b).format())

    out = rows[base]
    # past the base's largest finite entry the out-ball stops growing, so
    # the count repeats there
    reach = max(d for d in out if 0 <= d < INF)
    sizes = []
    for rho in range(1, radius + 1):
        if rho <= reach or rho == 1:
            ball = {v for v, d in enumerate(out) if 0 <= d <= rho}
            meets = sum(1 for perm in vperms if any(perm[v] in ball for v in ball))
        sizes.append((rho, meets))

    covering = None
    for lam in range(limit):
        strong = _strong_ball(rows, base, lam)
        hit = set()
        for perm in vperms:
            hit.update(perm[v] for v in strong)
        if len(hit) == len(rows):
            covering = lam
            break
    return ActionReport(
        exact=exact,
        group_order=group_order,
        isometric=counterexample is None,
        counterexample=counterexample,
        outward_proper=True,
        orbit_meet_sizes=sizes,
        cocompact=covering is not None,
        covering_radius=covering,
        failed_radius=None if covering is not None else radius,
        notes=notes,
    )


def check_schutz_action_finite(fm, h_class, radius=8):
    """The exact check on the R-class of h_class.

    The group's orbits on the R-class are its H-classes (Green's lemma),
    all of the size of H; every distance in the n-vertex R-class is at most
    n - 1, so a covering radius below n always exists.
    """
    geo = _RClassGeometry(fm, h_class)
    n = len(geo.vertices)
    notes = ["exact: finite monoid, %d H-classes in the R-class" % (n // len(geo.group.h_class))]
    return _action_report(True, geo.group.order, geo.dist, geo.base, geo.vperms,
                          geo.group.rep_names, geo.vertex_name, radius, n, notes)


def _identity_h_class(m, radius, cap):
    """In-ball evidence for the identity's H-class (the elements mutually
    reachable with the identity in both the right and the left ball), the
    right ball and its components."""
    rball = cayley.build_cayley_ball(m, radius, side=cayley.RIGHT, cap=cap)
    lball = cayley.build_cayley_ball(m, radius, side=cayley.LEFT, cap=cap)
    rscc = cayley.strongly_connected_components(rball)
    lscc = cayley.strongly_connected_components(lball)
    right = {rball.vertices[v].key for v in rscc.components[rscc.comp_of[0]]}
    left = {lball.vertices[v].key for v in lscc.components[lscc.comp_of[0]]}
    keys = right & left
    return [v for v in rball.vertices if v.key in keys], rball, rscc


def check_schutz_action_ball(m, radius, cap=DEFAULT_CAP):
    """Horizon-stamped evidence mode for infinite monoids."""
    h_class, rball, rscc = _identity_h_class(m, radius, cap)
    # stabilizer candidates are drawn from the ball only: evidence
    perms, reps = _stabilizer(rball.vertices, [h.key for h in h_class],
                              lambda s, h: m._mul_key(s.key, h))
    graph = cayley.base_component(rball, rscc)
    vkey = {v.key: i for i, v in enumerate(graph.vertices)}
    vperms = []
    rep_names = []
    notes = ["evidence: ball radius %d, group scanned within ball" % radius]
    for s in reps:
        images = [m._mul_key(s.key, v.key) for v in graph.vertices]
        if all(x in vkey for x in images):
            vperms.append([vkey[x] for x in images])
            rep_names.append(m.element_name(s))
        else:
            notes.append("action of %s leaves the explored component"
                         % m.element_name(s))
    return _action_report(False, len(perms), graph.distance_rows(), 0, vperms,
                          rep_names, graph.name, radius, radius, notes)


# -- Svarc-Milnor generating sets ---------------------------------------------


@record
class SvarcReport:
    s_indices: list
    s_names: list
    word_length: list
    lam: int
    forward_ok: bool
    reverse_ok: bool
    ball_vertices: list
    ball_radius: int
    l: int


def svarc_milnor(fm, h_class, ball_radius=1, l=1):
    """Extract S = {g : d(B, gB) <= l} from a strong ball B and verify the
    two quasi-isometry bounds of the group-versus-graph comparison.

    With l = 1 (one edge, the resolution of the graph) the bounds checked
    for every group element g are

        d_S(e, g) <= (1/l) d(x0, g x0) + 1    and
        d(x0, g x0) <= lambda d_S(e, g),  lambda = max_s d(x0, s x0).

    Raises NotGenerating when S fails to generate the group.
    """
    geo = _RClassGeometry(fm, h_class)
    group = geo.group
    x0 = geo.base
    ball = _strong_ball(geo.dist, x0, ball_radius)
    s_set = []
    for g, perm in enumerate(geo.vperms):
        translate = [perm[v] for v in ball]
        sep = min(geo.dist[u][w] for u in ball for w in translate)
        if sep <= l:
            s_set.append(g)

    s_columns = [[row[s] for s in s_set] for row in group.table]
    length = cayley.bfs(s_columns, group.identity_index)[0]
    missing = [group.rep_names[g] for g in range(group.order) if length[g] < 0]
    if missing:
        raise NotGenerating(missing)

    lam = max(geo.dist[x0][geo.vperms[s][x0]] for s in s_set)
    forward_ok = True
    reverse_ok = True
    for g in range(group.order):
        orbit_dist = geo.dist[x0][geo.vperms[g][x0]]
        if l > 0 and length[g] * l > orbit_dist + l:
            forward_ok = False
        if orbit_dist > lam * length[g]:
            reverse_ok = False
    return SvarcReport(
        s_indices=s_set,
        s_names=[group.rep_names[g] for g in s_set],
        word_length=length,
        lam=lam,
        forward_ok=forward_ok,
        reverse_ok=reverse_ok,
        ball_vertices=[geo.vertex_name(v) for v in ball],
        ball_radius=ball_radius,
        l=l,
    )
