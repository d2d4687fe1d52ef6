"""Oracles: the answer each benchmark job must give, computed without semigeom.

``Checker().check(spec, stdout, code)`` returns None when the job's output
agrees with the oracle, or a ``Contradiction``.  A job fails only when its output
contradicts the oracle: a different format choice, an honest ``>r``, a
bounded "none within bounds" or an evidence-mode negative is not a failure.

Each contradiction has a kind.  ``KNOWN_DEFECTS`` lists the kinds that are
open defects of the program at the time the benchmark was defined; the
benchmark counts them as failed jobs but still reports the run as correct.
Any other kind makes the run incorrect.  Remove a kind from the list in the
change that fixes it.
"""

import json
from dataclasses import dataclass
from fractions import Fraction

import models

KNOWN_DEFECTS = {
    # In-ball Finite(n) is printed as the distance although a shorter path
    # leaves the ball and comes back (ROADMAP item 2).
    "dist-overclaim": "in-ball distance larger than the true distance",
    # classify_growth fits floats to a short window; it is a heuristic and
    # can name the wrong degree (ROADMAP item 2 asks to label it so).
    "growth-classify": "heuristic growth class disagrees with the true one",
}


@dataclass(frozen=True)
class Contradiction:
    kind: str
    message: str

    @property
    def known(self):
        return self.kind in KNOWN_DEFECTS


class Mismatch(Exception):
    def __init__(self, kind, message):
        super().__init__(message)
        self.kind = kind


def expect(cond, message, kind="wrong-output"):
    if not cond:
        raise Mismatch(kind, message)


def fields(stdout):
    """The "key: value" lines of a report, first occurrence wins."""
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep and key not in out:
            out[key] = value
    return out


def rows(stdout, header):
    """Tab-separated rows after the given header line."""
    lines = stdout.splitlines()
    expect(header in lines, "missing header %r" % header)
    out = []
    for line in lines[lines.index(header) + 1:]:
        if "\t" not in line:
            break
        out.append(line.split("\t"))
    return out


# -- graph helpers over models --------------------------------------------------


def _distance(model, u, v, depth):
    """True distance from u to v if it is at most depth, else None."""
    if u == v:
        return 0
    frontier = [u]
    seen = {u}
    for d in range(1, depth + 1):
        nxt = []
        for key in frontier:
            for sym in model.gens:
                nk = model.step(key, sym)
                if nk == v:
                    return d
                if nk not in seen:
                    seen.add(nk)
                    nxt.append(nk)
        frontier = nxt
    return None


def _kosaraju(order, succ):
    """Strongly connected components of the digraph on ``order`` (indices)
    with successor lists ``succ``; components sorted by least member."""
    n = len(order)
    pred = [[] for _ in range(n)]
    for u in range(n):
        for v in succ[u]:
            pred[v].append(u)
    seen = [False] * n
    finish = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        stack = [(root, iter(succ[root]))]
        while stack:
            u, it = stack[-1]
            for v in it:
                if not seen[v]:
                    seen[v] = True
                    stack.append((v, iter(succ[v])))
                    break
            else:
                stack.pop()
                finish.append(u)
    comp = [-1] * n
    comps = []
    for root in reversed(finish):
        if comp[root] >= 0:
            continue
        members = [root]
        comp[root] = len(comps)
        k = 0
        while k < len(members):
            for v in pred[members[k]]:
                if comp[v] < 0:
                    comp[v] = len(comps)
                    members.append(v)
            k += 1
        comps.append(sorted(members))
    order_c = sorted(range(len(comps)), key=lambda c: comps[c][0])
    renum = {old: new for new, old in enumerate(order_c)}
    return [comps[c] for c in order_c], [renum[c] for c in comp]


def _ball_digraph(model, radius):
    order, dist = models.bfs(model, model.identity, depth=radius)
    index = {k: i for i, k in enumerate(order)}
    succ = []
    for key in order:
        out = []
        for sym in model.gens:
            j = index.get(model.step(key, sym))
            if j is not None:
                out.append(j)
        succ.append(out)
    return order, dist, succ


# -- infinite monoids: balls, growth, ends, posets, evidence modes ---------------


def check_ball(spec, out):
    model = models.from_spec(spec["model"])
    r = spec["radius"]
    table = rows(out, "vertex\tlength")
    expect(len(table) == models.ball_size(spec["model"], r),
           "ball has %d vertices, closed form %d"
           % (len(table), models.ball_size(spec["model"], r)))
    names = [name for name, _ in table]
    expect(len(set(names)) == len(names), "repeated vertex")
    per_length = [0] * (r + 1)
    for name, length in table:
        true = model.length(model.parse(name))
        expect(int(length) == true, "%s has length %s, true %d" % (name, length, true))
        expect(true <= r, "%s lies outside the ball" % name)
        per_length[true] += 1
    expect(per_length == [model.sphere(i) for i in range(r + 1)],
           "sphere sizes %s" % per_length)


def _check_distance(model, radius, u, v, shown, in_ball_length):
    """One distance verdict against the truth; ``in_ball_length`` gives the
    word length of a vertex so the in-ball path of an over-claim can be
    confirmed."""
    if shown == ">%d" % radius:
        return
    if shown == "inf":
        expect(not model.reachable(u, v),
               "%s reaches %s but inf was printed" % (model.name(u), model.name(v)))
        return
    n = int(shown)
    expect(n <= radius, "finite distance %d beyond horizon %d" % (n, radius))
    true = _distance(model, u, v, n)
    expect(true is not None,
           "no path of length %d from %s to %s" % (n, model.name(u), model.name(v)))
    if true < n:
        inball = _inball_distance(model, u, v, radius, in_ball_length)
        kind = "dist-overclaim" if inball == n else "wrong-distance"
        raise Mismatch(kind, "d(%s, %s) = %d, printed %d (in-ball %s)"
                       % (model.name(u), model.name(v), true, n, inball))


def _inball_distance(model, u, v, radius, length_of):
    frontier = [u]
    seen = {u}
    d = 0
    while frontier:
        if v in seen:
            return d
        d += 1
        nxt = []
        for key in frontier:
            for sym in model.gens:
                nk = model.step(key, sym)
                if nk not in seen and length_of(nk) <= radius:
                    seen.add(nk)
                    nxt.append(nk)
        frontier = nxt
    return None


def _length_fn(model):
    if not model.finite:
        return model.length
    _order, dist = models.bfs(model, model.identity)
    return dist.__getitem__


def check_distances(spec, out):
    model = models.from_spec(spec["model"])
    r = spec["radius"]
    table = [line.split("\t") for line in out.splitlines()]
    names = []
    for u, _v, _d in table:
        if not names or names[-1] != u:
            names.append(u)
    expect(len(names) == models.ball_size(spec["model"], r),
           "distance table over %d points" % len(names))
    expect(len(table) == len(names) ** 2, "distance table is not square")
    expect(all(model.length(model.parse(u)) <= r for u in names), "vertex outside the ball")
    for u, v, shown in table:
        _check_distance(model, r, model.parse(u), model.parse(v), shown, model.length)


def check_dist(spec, out):
    model = models.from_spec(spec["model"])
    r = spec["radius"]
    f = fields(out)
    expect(f.get("horizon") == str(r), "horizon line")
    shown = f.get("distance")
    expect(shown is not None, "no distance line")
    length_of = _length_fn(model)
    u, v = model.parse(spec["source"]), model.parse(spec["target"])
    if length_of(u) > r or length_of(v) > r:
        expect(shown == ">%d" % r, "endpoint outside the ball but %s printed" % shown)
        return
    _check_distance(model, r, u, v, shown, length_of)
    if shown not in ("inf", ">%d" % r):
        word = f.get("geodesic", "").split()
        expect(len(word) == int(shown), "geodesic length %d" % len(word))
        key = u
        for sym in word:
            key = model.step(key, sym)
            expect(length_of(key) <= r, "geodesic leaves the ball")
        expect(key == v, "geodesic does not end at the target")


def _growth_values(spec, mmax):
    model = models.from_spec(spec)
    total = 0
    values = []
    for i in range(mmax + 1):
        total += model.sphere(i)
        values.append(total)
    return values


def check_growth(spec, out):
    values = _growth_values(spec["model"], spec["mmax"])
    table = rows(out, "m\tg")
    expect([int(g) for _m, g in table] == values, "growth table differs")
    if not spec.get("classify"):
        return
    line = fields(out).get("classification", "")
    degree = models.growth_degree(spec["model"])
    truth = "exponential" if degree is None else "polynomial %d" % degree
    if line == "inconclusive":
        return
    shown = line if line.startswith("polynomial") else line.split()[0]
    if shown != truth:
        raise Mismatch("growth-classify", "classified %r, true %r" % (line, truth))


def witness(a1, a2, lam_max, c_max):
    """Least (lambda, c) with a1(t) <= lambda a2(lambda t + c) + c on every t
    whose argument lies in a2's window, and at least one such t."""
    for lam in range(1, lam_max + 1):
        for c in range(c_max + 1):
            ts = [t for t in range(len(a1)) if lam * t + c < len(a2)]
            if ts and all(a1[t] <= lam * a2[lam * t + c] + c for t in ts):
                return lam, c, ts[0], ts[-1]
    return None


def check_growth_other(spec, out):
    a1 = _growth_values(spec["model"], spec["mmax"])
    a2 = _growth_values(spec["other"], spec["mmax"])
    w = witness(a1, a2, spec["lambda_max"], spec["c_max"])
    f = fields(out)
    if w is None:
        expect(f.get("witness") == "none-within-bounds", "printed a witness, none exists")
        return
    expect(f.get("witness") == "lambda=%d c=%d" % w[:2],
           "witness %r, least is %r" % (f.get("witness"), w[:2]), "wrong-verdict")
    expect(f.get("checked") == "%d..%d" % w[2:], "checked range")


def _sphere_components(lengths, adj, k, sphere):
    """Components of the subgraph on k < length <= sphere that meet the
    sphere; the vertices beyond it are not in that ball."""
    inside = [k < n <= sphere for n in lengths]
    seen = set()
    hits = 0
    for s in range(len(lengths)):
        if s in seen or not inside[s]:
            continue
        seen.add(s)
        stack = [s]
        touches = False
        while stack:
            u = stack.pop()
            touches = touches or lengths[u] == sphere
            for v in adj[u]:
                if v not in seen and inside[v]:
                    seen.add(v)
                    stack.append(v)
        hits += touches
    return hits


def check_ends(spec, out):
    model = models.from_spec(spec["model"])
    r, kmax = spec["radius"], spec["kmax"]
    order, dist, succ = _ball_digraph(model, r)
    lengths = [dist[k] for k in order]
    adj = [set() for _ in order]
    for u, targets in enumerate(succ):
        for v in targets:
            if u != v:
                adj[u].add(v)
                adj[v].add(u)
    ks = range(kmax + 1)
    counts = [_sphere_components(lengths, adj, k, r) for k in ks]
    inner = [_sphere_components(lengths, adj, k, r - 1) for k in ks]
    table = rows(out, "k\te\te-inner")
    expect([(int(a), int(b), int(c)) for a, b, c in table]
           == list(zip(ks, counts, inner)), "end counts differ")
    top = list(ks)[len(ks) // 2:]
    n = counts[top[0]]
    if all(counts[k] == n and inner[k] == n for k in top):
        verdict = "stable %d" % n
    elif all(counts[i] < counts[i + 1] for i in range(len(counts) - 1)):
        verdict = "growing-at-least " + " ".join(map(str, counts))
    else:
        verdict = "inconclusive"
    expect(fields(out).get("verdict") == verdict, "ends verdict, expected %s" % verdict)


def check_poset(spec, out):
    model = models.from_spec(spec["model"])
    order, _dist, succ = _ball_digraph(model, spec["radius"])
    comps, comp_of = _kosaraju(order, succ)
    f = fields(out)
    expect(f.get("components") == str(len(comps)), "component count")
    table = rows(out, "component\tverified\tmembers")
    expect(len(table) == len(comps), "component lines")
    for (c, _verified, members), comp in zip(table, comps):
        expect(members.split(" ") == [model.name(order[i]) for i in comp],
               "members of component %s" % c)
    cadj = [set() for _ in comps]
    for u, targets in enumerate(succ):
        for v in targets:
            if comp_of[u] != comp_of[v]:
                cadj[comp_of[u]].add(comp_of[v])
    pairs = set()
    for high in range(len(comps)):
        stack, seen = [high], {high}
        while stack:
            for s in cadj[stack.pop()]:
                if s not in seen:
                    seen.add(s)
                    stack.append(s)
        pairs.update("%d<%d" % (low, high) for low in seen if low != high)
    shown = f.get("order", "").split()
    expect(len(shown) == len(pairs) and set(shown) == pairs, "reachability order")


def _identity_component(model, radius):
    order, dist, succ = _ball_digraph(model, radius)
    comps, comp_of = _kosaraju(order, succ)
    return [order[i] for i in comps[comp_of[0]]], dist


def check_schutz_evidence(spec, out):
    model = models.from_spec(spec["model"])
    members, dist = _identity_component(model, spec["radius"])
    f = fields(out)
    expect(f.get("mode") == "evidence", "mode")
    expect(f.get("vertices") == str(len(members)), "Schutzenberger ball size")
    table = rows(out, "vertex\tlength\tindegree\toutdegree\tinterior")
    expect(sorted(row[0] for row in table) == sorted(model.name(k) for k in members),
           "Schutzenberger ball members")
    for row in table:
        expect(int(row[1]) == dist[model.parse(row[0])], "length of %s" % row[0])


def check_act_evidence(spec, out):
    f = fields(out)
    expect(f.get("mode") == "evidence", "mode")
    # the Schutzenberger group acts by isometries: a counterexample is false
    expect(f.get("isometric") == "yes", "isometric verdict", "wrong-verdict")
    if f.get("cocompact") == "yes":
        expect(spec["cocompact"], "cocompact claimed for a non-cocompact action",
               "wrong-verdict")


# -- finite monoids ---------------------------------------------------------------


class FiniteOracle:
    """Brute-force structure of a finite transformation monoid.

    Elements are enumerated breadth-first over the generators in order, the
    same canonical order the program uses, so class numbers can be compared.
    R- and L-classes come from reachability in the right and left Cayley
    graphs (x R y iff xM = yM); for the full transformation monoid they come
    from kernels and images instead, which is cheaper and independent.
    """

    def __init__(self, spec):
        model = models.from_spec(spec)
        self.model = model
        self.full = spec.get("full", False)
        order, dist = models.bfs(model, model.identity)
        self.elements = order
        self.length = dist
        self.index = {k: i for i, k in enumerate(order)}
        self.names = [model.name(k) for k in order]
        n = len(order)
        self.right = [[self.index[model.step(k, g)] for g in model.gens] for k in order]
        self.left = [[self.index[model.left_step(k, g)] for g in model.gens] for k in order]
        if self.full:
            r_key = [_kernel(k) for k in order]
            l_key = [frozenset(k) for k in order]
        else:
            r_key = [frozenset(self._reach(i, self.right)) for i in range(n)]
            l_key = [frozenset(self._reach(i, self.left)) for i in range(n)]
        self.r_key = r_key
        self.r_classes = _partition(r_key)
        self.l_classes = _partition(l_key)
        self.h_classes = _partition([(a, b) for a, b in zip(r_key, l_key)])
        self.h_of = {}
        for c, members in enumerate(self.h_classes):
            for i in members:
                self.h_of[i] = c

    def _reach(self, s, succ):
        seen = {s}
        stack = [s]
        while stack:
            for v in succ[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return seen

    def r_below(self, i, j):
        """R_i <=_R R_j for class representatives i and j (xM inside yM)."""
        if self.full:
            return _refines(self.r_key[j], self.r_key[i])
        return self.r_key[i] <= self.r_key[j]

    def distances_from(self, s):
        dist = {s: 0}
        queue = [s]
        for u in queue:
            for v in self.right[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        return dist

    def mul(self, a, b):
        x, y = self.elements[a], self.elements[b]
        return self.index[tuple(y[i] for i in x)]

    def h_class(self, name):
        i = 0 if name is None else self.names.index(name)
        return self.h_classes[self.h_of[i]]


def _kernel(images):
    labels = {}
    return tuple(labels.setdefault(x, len(labels)) for x in images)


def _refines(fine, coarse):
    """Kernel ``fine`` is contained in kernel ``coarse`` as relations."""
    seen = {}
    return all(seen.setdefault(a, b) == b for a, b in zip(fine, coarse))


def _partition(keys):
    groups = {}
    for i, k in enumerate(keys):
        groups.setdefault(k, []).append(i)
    return sorted(groups.values(), key=lambda c: c[0])


def check_green(spec, out, fo):
    f = fields(out)
    expect(f.get("elements") == str(len(fo.elements)), "element count")
    for label, classes in (("r-class", fo.r_classes), ("l-class", fo.l_classes),
                           ("h-class", fo.h_classes)):
        expect(f.get(label + "es") == str(len(classes)), label + " count")
        shown = [line.split("\t") for line in out.splitlines()
                 if line.startswith(label + "\t")]
        expect([row[2].split(" ") for row in shown]
               == [[fo.names[i] for i in c] for c in classes], label + " members")
    reps = [c[0] for c in fo.r_classes]
    pairs = {"%d<=%d" % (i, j)
             for i in range(len(reps)) for j in range(len(reps))
             if i != j and fo.r_below(reps[i], reps[j])}
    shown = f.get("r-order", "").split()
    expect(len(shown) == len(pairs) and set(shown) == pairs, "R-order")


def check_schutz_exact(spec, out, fo):
    f = fields(out)
    h = fo.h_class(spec.get("element"))
    expect(f.get("mode") == "exact", "mode")
    expect(sorted(f.get("h-class", "").split()) == sorted(fo.names[i] for i in h),
           "H-class members")
    # |Schutzenberger group| = |H|
    expect(f.get("group-order") == str(len(h)), "group order", "wrong-verdict")


def _r_class_distances(fo, r_class):
    """Distances inside the R-class, {u: {v: d(u, v)}}: a product path
    between R-equivalent elements never leaves their R-class."""
    members = set(r_class)
    out = {}
    for s in r_class:
        dist = {s: 0}
        queue = [s]
        for u in queue:
            for v in fo.right[u]:
                if v in members and v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        out[s] = dist
    return out


def _r_class_of(fo, h):
    return next(c for c in fo.r_classes if h[0] in c)


def _covering_radius(fo, h):
    r_class = _r_class_of(fo, h)
    dist = _r_class_distances(fo, r_class)
    base = h[0]
    wanted = {fo.h_of[v] for v in r_class}
    lam = 0
    while {fo.h_of[v] for v in r_class
           if dist[base][v] <= lam and dist[v][base] <= lam} != wanted:
        lam += 1
    return lam


def check_act_exact(spec, out, fo):
    f = fields(out)
    h = fo.h_class(spec.get("element"))
    expect(f.get("mode") == "exact", "mode")
    expect(f.get("group-order") == str(len(h)), "group order", "wrong-verdict")
    expect(f.get("isometric") == "yes", "isometric verdict", "wrong-verdict")
    expect(f.get("cocompact") == "yes", "cocompact verdict", "wrong-verdict")
    expect(f.get("covering-radius") == str(_covering_radius(fo, h)), "covering radius")


def _schutz_group(fo, h):
    """The stabilizer {s : sH = H} made faithful on H: one representative
    per distinct action, the least in element order, and a map from each
    action (the images of H, in order) to its group index."""
    hset = set(h)
    reps = []
    action = {}
    for s in range(len(fo.elements)):
        images = tuple(fo.mul(s, x) for x in h)
        if images not in action and set(images) == hset:
            action[images] = len(reps)
            reps.append(s)
    return reps, action


def check_svarc(spec, out, fo):
    """S = {g : d(B, gB) <= 1} for the strong ball B of radius 1 about the
    H-class's least element x0, word lengths over S, lambda = max over S of
    d(x0, s x0), and the two Svarc-Milnor bounds for every group element."""
    f = fields(out)
    h = fo.h_class(spec.get("element"))
    reps, action = _schutz_group(fo, h)
    r_class = _r_class_of(fo, h)
    dist = _r_class_distances(fo, r_class)
    x0 = h[0]
    ball = [v for v in r_class if dist[x0][v] <= 1 and dist[v][x0] <= 1]
    s_set = [g for g, s in enumerate(reps)
             if min(dist[u][fo.mul(s, w)] for u in ball for w in ball) <= 1]

    def times(g, s):
        prod = fo.mul(reps[g], reps[s])
        return action[tuple(fo.mul(prod, x) for x in h)]

    length = {action[tuple(h)]: 0}
    queue = list(length)
    for g in queue:
        for s in s_set:
            t = times(g, s)
            if t not in length:
                length[t] = length[g] + 1
                queue.append(t)
    missing = [fo.names[reps[g]] for g in range(len(reps)) if g not in length]
    if missing:
        expect(f.get("verdict") == "not-generating", "S does not generate the group",
               "wrong-verdict")
        expect(f.get("unreachable") == " ".join(missing), "unreachable elements")
        return
    orbit = [dist[x0][fo.mul(s, x0)] for s in reps]
    lam = max(orbit[s] for s in s_set)
    forward_ok = all(length[g] <= orbit[g] + 1 for g in range(len(reps)))
    reverse_ok = all(orbit[g] <= lam * length[g] for g in range(len(reps)))
    verdict = "ok" if forward_ok and reverse_ok else "fail"
    expect(f.get("verdict") == verdict, "svarc verdict", "wrong-verdict")
    want = {
        "h-class-size": str(len(h)), "ball-radius": "1", "l": "1",
        "s": " ".join(fo.names[reps[g]] for g in s_set), "lambda": str(lam),
        "max-word-length": str(max(length.values())),
        "forward-ok": "yes" if forward_ok else "no",
        "reverse-ok": "yes" if reverse_ok else "no",
    }
    for key, value in want.items():
        expect(f.get(key) == value, "%s: %s, expected %s" % (key, f.get(key), value))


def check_quotient(spec, out, fo):
    f = fields(out)
    class_of = {}
    for c, members in enumerate(spec["classes"]):
        for name in members:
            class_of[fo.names.index(name)] = c
    bad = None
    # x ~ y must give xa ~ ya and ax ~ ay for every generator a
    for side in (fo.right, fo.left):
        for g in range(len(fo.model.gens)):
            image_of = {}
            for x, row in enumerate(side):
                c = class_of[row[g]]
                if image_of.setdefault(class_of[x], c) != c:
                    bad = x
    if bad is not None:
        expect(f.get("verdict") == "not-a-congruence", "missed a non-congruence",
               "wrong-verdict")
        x, y, x2, y2 = (fo.names.index(w) for w in f.get("witness", "").split())
        expect(class_of[x] == class_of[x2] and class_of[y] == class_of[y2]
               and class_of[fo.mul(x, y)] != class_of[fo.mul(x2, y2)],
               "congruence witness does not witness")
        return
    expect(f.get("verdict") != "not-a-congruence", "rejected a congruence",
           "wrong-verdict")
    expect(f.get("classes") == str(len(spec["classes"])), "class count")
    r_bound = 0
    for members in spec["classes"]:
        idx = [fo.names.index(w) for w in members]
        for x in idx:
            dist = fo.distances_from(x)
            if r_bound is None or any(y not in dist for y in idx):
                r_bound = None
                break
            r_bound = max([r_bound] + [dist[y] for y in idx])
    expect(f.get("r-bound") == ("inf" if r_bound is None else str(r_bound)), "r-bound")
    expect(f.get("verdict") == ("ok" if r_bound is not None else "fail"),
           "quotient verdict", "wrong-verdict")


def check_projection(spec, out):
    f = fields(out)
    n = models.ball_size(spec["model"], spec["radius"])
    expect(f.get("mode") == "evidence", "mode")
    # twisted generators put every fiber at diameter 1
    expect(f.get("r-bound") == "1", "fiber bound")
    expect(int(f.get("checked", 0)) + int(f.get("skipped", 0)) == n * n, "pairs")
    expect(f.get("mu-actual") == "0", "density")
    expect(f.get("verdict") == "ok", "projection verdict", "wrong-verdict")


# -- user spaces ------------------------------------------------------------------


def load_space(path):
    with open(path, "r", encoding="utf-8") as fh:
        desc = json.load(fh)
    return [[Fraction(v) for v in row] for row in desc["dist"]]


def quasi_lambda(d, eps):
    lam = Fraction(1)
    n = len(d)
    for i in range(n):
        for j in range(n):
            if i != j:
                lam = max(lam, (d[j][i] - eps) / d[i][j])
    return lam


def density(f, target):
    image = set(f)
    return max(min(max(target[x][y], target[y][x]) for x in image)
               for y in range(len(target)))


def first_violation(f, src, dst, lam, eps):
    """(checked, (i, j, side)) at the first violated pair, row-major."""
    n = len(src)
    checked = 0
    for i in range(n):
        for j in range(n):
            checked += 1
            dx, dy = src[i][j], dst[f[i]][f[j]]
            if dx > lam * (dy + eps):
                return checked, (i, j, "lower")
            if dy > lam * dx + eps:
                return checked, (i, j, "upper")
    return checked, None


def check_quasimetric(spec, out):
    d = load_space(spec["source"])
    eps = Fraction(spec["eps"])
    f = fields(out)
    expect(f.get("lambda") == str(quasi_lambda(d, eps)), "lambda")
    expect(f.get("verdict") == "ok", "quasimetric verdict", "wrong-verdict")


def check_symmetrize(spec, out):
    d = load_space(spec["source"])
    eps = Fraction(spec["eps"])
    n = len(d)
    lam = quasi_lambda(d, eps)
    lam_p = lam + 1
    sym = [[d[i][j] + d[j][i] for j in range(n)] for i in range(n)]
    _checked, bad = first_violation(list(range(n)), d, sym, lam_p, eps)
    back_lam, back_eps = lam_p * lam_p, 2 * lam_p * eps
    back_ok = all(d[j][i] <= back_lam * d[i][j] + back_eps
                  for i in range(n) for j in range(n) if i != j)
    f = fields(out)
    want = {
        "lambda": str(lam), "epsilon": str(eps), "lambda-prime": str(lam_p),
        "metric-ok": "yes", "forward-ok": "yes" if bad is None else "no",
        "backward-lambda": str(back_lam), "backward-epsilon": str(back_eps),
        "backward-ok": "yes" if back_ok else "no",
    }
    for key, value in want.items():
        expect(f.get(key) == value, "%s: %s, expected %s" % (key, f.get(key), value))
    payload = json.loads(out[out.index("{"):])
    expect([[Fraction(v) for v in row] for row in payload["dist"]] == sym,
           "symmetrized matrix")


def check_qi_check(spec, out):
    src, dst = load_space(spec["source"]), load_space(spec["target"])
    f_map = spec["map"]
    lam, eps, mu = (Fraction(spec[k]) for k in ("lam", "eps", "mu"))
    checked, bad = first_violation(f_map, src, dst, lam, eps)
    mu_actual = density(f_map, dst)
    f = fields(out)
    expect(f.get("checked") == str(checked), "checked pairs")
    expect(f.get("mu-actual") == str(mu_actual), "mu-actual")
    if bad is not None:
        expect(f.get("violation") == "p%d p%d %s" % bad, "first violation")
    ok = bad is None and mu_actual <= mu
    expect(f.get("verdict") == ("ok" if ok else "fail"), "qi verdict", "wrong-verdict")


def _eps_grid(eps_max):
    out, e = [], Fraction(1, 2)
    while e <= eps_max:
        out.append(e)
        e *= 2
    return out


def check_qi_search(spec, out):
    src, dst = load_space(spec["source"]), load_space(spec["target"])
    lam_max, eps_max, mu_max = (Fraction(spec[k]) for k in
                                ("lambda_max", "eps_max", "mu_max"))
    f = fields(out)
    if f.get("verdict") == "ok":
        index = {"q%d" % j: j for j in range(len(dst))}
        pairs = f["map"].split()
        f_map = [index[p.split("->")[1]] for p in pairs]
        lam, eps, mu = (Fraction(f[k]) for k in ("lambda", "epsilon", "mu"))
        expect(lam <= lam_max and eps <= eps_max and mu <= mu_max, "constants in bounds")
        _checked, bad = first_violation(f_map, src, dst, lam, eps)
        expect(bad is None, "found map violates its constants %r" % (bad,), "wrong-verdict")
        expect(density(f_map, dst) == mu, "found map density")
        return
    expect(not spec["exists"], "a quasi-isometry exists but none was found",
           "wrong-verdict")
    n, m = len(src), len(dst)
    grid = _eps_grid(eps_max)
    maps = [[]]
    for _ in range(n):
        maps = [fm + [j] for fm in maps for j in range(m)]
    for f_map in maps:
        if density(f_map, dst) > mu_max:
            continue
        for eps in grid:
            if first_violation(f_map, src, dst, lam_max, eps)[1] is None:
                raise Mismatch("wrong-verdict", "map %r is a quasi-isometry" % f_map)


CHECKS = {
    "ball": check_ball,
    "distances": check_distances,
    "dist": check_dist,
    "growth": check_growth,
    "growth-other": check_growth_other,
    "ends": check_ends,
    "poset": check_poset,
    "schutz-evidence": check_schutz_evidence,
    "act-evidence": check_act_evidence,
    "projection": check_projection,
    "quasimetric": check_quasimetric,
    "symmetrize": check_symmetrize,
    "qi-check": check_qi_check,
    "qi-search": check_qi_search,
}

FINITE_CHECKS = {
    "green": check_green,
    "schutz-exact": check_schutz_exact,
    "act-exact": check_act_exact,
    "svarc": check_svarc,
    "quotient": check_quotient,
}


class Checker:
    """Checks job outputs, sharing the finite-monoid oracles between jobs."""

    def __init__(self):
        self._finite = {}

    def finite(self, spec):
        key = json.dumps(spec, sort_keys=True)
        if key not in self._finite:
            self._finite[key] = FiniteOracle(spec)
        return self._finite[key]

    def check(self, spec, stdout, code):
        """None when the output agrees with the oracle, else a Contradiction."""
        if code not in (0, 1):
            return Contradiction("exit-code", "exit code %r" % (code,))
        try:
            kind = spec["check"]
            if kind in FINITE_CHECKS:
                FINITE_CHECKS[kind](spec, stdout, self.finite(spec["model"]))
            else:
                CHECKS[kind](spec, stdout)
        except Mismatch as e:
            return Contradiction(e.kind, str(e))
        except (ValueError, KeyError, IndexError, StopIteration) as e:
            return Contradiction("unparsable", "%s: %s" % (type(e).__name__, e))
        return None
