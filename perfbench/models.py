"""Independent models of the monoids the benchmark feeds to semigeom.

The oracles compare semigeom's output against these models.  Nothing here
imports semigeom: each model keeps elements in its own representation
(exponent vectors, (i, j) pairs for c^i b^j, integers, image tuples) and
multiplies by one generator at a time, so a wrong product, name or
enumeration order in the program cannot agree with a model by construction.

A model has ``gens`` (generator symbols in the program's order), ``identity``,
``step(key, sym)`` (right multiplication by a generator), ``name(key)`` and
``parse(name)`` in the program's element-name format, ``length(key)`` (word
length), and for infinite monoids ``reachable(u, v)`` (does the right Cayley
graph have a path from u to v) and ``sphere(i)`` (elements of length i).
"""

from math import comb

EPS = "ε"
LETTERS = "abcdefghijklmnopqrstuvwxyz"


class Free:
    """The free monoid on the first k letters; elements are strings."""

    finite = False

    def __init__(self, k):
        self.k = k
        self.gens = list(LETTERS[:k])
        self.identity = ""

    def step(self, key, sym):
        return key + sym

    def name(self, key):
        return key or EPS

    def parse(self, name):
        return "" if name == EPS else name

    def length(self, key):
        return len(key)

    def reachable(self, u, v):
        return v.startswith(u)

    def sphere(self, i):
        return self.k ** i


class FreeComm:
    """The free commutative monoid on k letters; elements are exponent
    vectors, named by their sorted words."""

    finite = False

    def __init__(self, k):
        self.k = k
        self.gens = list(LETTERS[:k])
        self.identity = (0,) * k

    def step(self, key, sym):
        i = LETTERS.index(sym)
        return key[:i] + (key[i] + 1,) + key[i + 1:]

    def name(self, key):
        return "".join(LETTERS[i] * e for i, e in enumerate(key)) or EPS

    def parse(self, name):
        if name == EPS:
            return self.identity
        if list(name) != sorted(name):
            raise ValueError("not a normal form: %r" % name)
        return tuple(name.count(a) for a in self.gens)

    def length(self, key):
        return sum(key)

    def reachable(self, u, v):
        return all(a <= b for a, b in zip(u, v))

    def sphere(self, i):
        return comb(i + self.k - 1, self.k - 1)


class Bicyclic:
    """<b, c | bc = 1>; (i, j) stands for the normal form c^i b^j."""

    finite = False
    gens = ["b", "c"]
    identity = (0, 0)

    def step(self, key, sym):
        i, j = key
        if sym == "b":
            return (i, j + 1)
        return (i, j - 1) if j else (i + 1, 0)

    def name(self, key):
        return "c" * key[0] + "b" * key[1] or EPS

    def parse(self, name):
        if name == EPS:
            return self.identity
        i = len(name) - len(name.lstrip("c"))
        if name[i:] != "b" * (len(name) - i):
            raise ValueError("not a normal form: %r" % name)
        return (i, len(name) - i)

    def length(self, key):
        return key[0] + key[1]

    def reachable(self, u, v):
        # from c^i b^j the c's walk down to c^i, then up to any c^p b^q, p >= i
        return v[0] >= u[0]

    def sphere(self, i):
        return i + 1


class Integers:
    """The group Z generated by p = +1 and q = -1."""

    finite = False
    gens = ["p", "q"]
    identity = 0

    def step(self, key, sym):
        return key + 1 if sym == "p" else key - 1

    def name(self, key):
        if key == 0:
            return EPS
        return "p" * key if key > 0 else "q" * -key

    def parse(self, name):
        if name == EPS:
            return 0
        if set(name) == {"p"}:
            return len(name)
        if set(name) == {"q"}:
            return -len(name)
        raise ValueError("not a normal form: %r" % name)

    def length(self, key):
        return abs(key)

    def reachable(self, u, v):
        return True

    def sphere(self, i):
        return 1 if i == 0 else 2


class CyclicProduct:
    """left x Z/n with the twisted generators (a, g) for every generator a
    of the left factor and every g, then (1, g) for g != 0."""

    finite = False

    def __init__(self, left, n):
        self.left = left
        self.n = n
        self.gens = ["(%s,%d)" % (a, g) for a in left.gens for g in range(n)]
        self.gens += ["(%s,%d)" % (EPS, g) for g in range(1, n)]
        self.identity = (left.identity, 0)

    def step(self, key, sym):
        a, g = sym[1:-1].rsplit(",", 1)
        lk = key[0] if a == EPS else self.left.step(key[0], a)
        return (lk, (key[1] + int(g)) % self.n)

    def name(self, key):
        return "(%s,%d)" % (self.left.name(key[0]), key[1])

    def parse(self, name):
        a, g = name[1:-1].rsplit(",", 1)
        return (self.left.parse(a), int(g))

    def length(self, key):
        lx = self.left.length(key[0])
        if lx:
            return lx
        return 0 if key[1] == 0 else 1

    def reachable(self, u, v):
        return self.left.reachable(u[0], v[0])

    def sphere(self, i):
        if i == 0:
            return 1
        extra = self.n - 1 if i == 1 else 0
        return self.n * self.left.sphere(i) + extra


class Transformation:
    """A monoid of maps on {0..degree-1}, acting on the right:
    (x * g)(i) = g(x(i))."""

    finite = True

    def __init__(self, degree, generators):
        self.degree = degree
        self.gen_maps = {sym: tuple(images) for sym, images in generators}
        self.gens = [sym for sym, _ in generators]
        self.identity = tuple(range(degree))

    def step(self, key, sym):
        g = self.gen_maps[sym]
        return tuple(g[x] for x in key)

    def left_step(self, key, sym):
        g = self.gen_maps[sym]
        return tuple(key[x] for x in g)

    def name(self, key):
        return "".join(str(x) for x in key)

    def parse(self, name):
        return tuple(int(c) for c in name)

    def reachable(self, u, v):
        return v in bfs(self, u)[1]


def from_spec(spec):
    """Build a model from the JSON spec the workload generator records."""
    kind = spec["kind"]
    if kind == "free":
        return Free(spec["k"])
    if kind == "free-comm":
        return FreeComm(spec["k"])
    if kind == "bicyclic":
        return Bicyclic()
    if kind == "integers":
        return Integers()
    if kind == "product":
        return CyclicProduct(from_spec(spec["left"]), spec["n"])
    if kind == "transformation":
        return Transformation(spec["degree"], spec["generators"])
    raise ValueError("unknown model kind %r" % kind)


def bfs(model, start, depth=None, cap=None):
    """Breadth-first search over the right Cayley graph; returns (order,
    dist) with order the discovery order.  With a cap the search stops once
    it has found more than cap elements."""
    dist = {start: 0}
    order = [start]
    i = 0
    while i < len(order) and (cap is None or len(order) <= cap):
        key = order[i]
        i += 1
        d = dist[key]
        if depth is not None and d >= depth:
            continue
        for sym in model.gens:
            nk = model.step(key, sym)
            if nk not in dist:
                dist[nk] = d + 1
                order.append(nk)
    return order, dist


def ball_size(spec, radius):
    """Closed-form |B(r)| for the catalog families."""
    kind = spec["kind"]
    if kind == "free":
        k = spec["k"]
        return sum(k ** i for i in range(radius + 1))
    if kind == "free-comm":
        return comb(radius + spec["k"], spec["k"])
    if kind == "bicyclic":
        return (radius + 1) * (radius + 2) // 2
    if kind == "integers":
        return 2 * radius + 1
    if kind == "product":
        inner = ball_size(spec["left"], radius)
        return spec["n"] * inner if radius >= 1 else 1
    raise ValueError("no closed form for %r" % kind)


def growth_degree(spec):
    """Polynomial growth degree, or None for exponential growth."""
    kind = spec["kind"]
    if kind == "free":
        return None if spec["k"] >= 2 else 1
    if kind == "free-comm":
        return spec["k"]
    if kind == "bicyclic":
        return 2
    if kind == "integers":
        return 1
    raise ValueError("no growth type for %r" % kind)

