"""Finitely generated monoid backends with a uniform multiplication API.

Four backends share one interface: complete rewriting systems (elements are
normal-form words), transformation monoids (elements are maps on {0..n-1}
acting on the right, composed left to right), finite multiplication tables
(associativity is checked at load; a semigroup table gets an identity
adjoined), and direct products.  One breadth-first search, explore, finds
every Cayley graph as a successor table (Froidure & Pin 1997); its order
over the ordered generator list is canonical on every ball.
"""

import sys
from collections import namedtuple
from collections.abc import Hashable

from .errors import (DEFAULT_CAP, BackendMismatch, CapExceeded, NotFinite, ProvedInfinite,
                     UnknownSymbol)
from .rewriting import LeftSideAutomaton, RewritingSystem, format_word, parse_word

RIGHT = "right"
LEFT = "left"

# budget for deciding whether a product's right factor is a finite group;
# an infinite factor must not drag construction through the full cap
GROUP_PROBE_CAP = 4096


class Element:
    """An element of a specific backend; hashable, comparable within it."""

    __slots__ = ("monoid", "key")

    def __init__(self, monoid, key):
        self.monoid = monoid
        self.key = key

    def __eq__(self, other):
        return (
            isinstance(other, Element)
            and self.monoid is other.monoid
            and self.key == other.key
        )

    def __hash__(self):
        return hash((id(self.monoid), self.key))

    def __repr__(self):
        return "<%s>" % self.monoid.element_name(self)


LengthedElement = namedtuple("LengthedElement", "element length")


class Monoid:
    """Shared backend interface: identity, ordered generators, product.

    Backends are immutable after construction and safe to share; all methods
    are pure.  Multiplication raises BackendMismatch when elements of a
    different backend are passed in.
    """

    kind = "abstract"

    def __init__(self):
        self._gen_syms = []
        self._gen_keys = []
        self._gen_index = {}
        self._identity_key = None

    # -- key-level operations implemented by each backend ------------------

    def _mul_key(self, a, b):
        raise NotImplementedError

    def _key_name(self, key):
        raise NotImplementedError

    def _parse_key(self, text):
        raise NotImplementedError

    # -- public API ---------------------------------------------------------

    @property
    def identity(self):
        return Element(self, self._identity_key)

    @property
    def generator_symbols(self):
        return tuple(self._gen_syms)

    def generators(self):
        """Ordered (symbol, element) pairs."""
        return [(s, Element(self, k)) for s, k in zip(self._gen_syms, self._gen_keys)]

    def generator(self, symbol):
        if symbol not in self._gen_index:
            raise UnknownSymbol("no generator named %r" % symbol)
        return Element(self, self._gen_keys[self._gen_index[symbol]])

    def multiply(self, x, y):
        if x.monoid is not self or y.monoid is not self:
            raise BackendMismatch("elements belong to a different backend")
        return Element(self, self._mul_key(x.key, y.key))

    def element_name(self, x):
        if x.monoid is not self:
            raise BackendMismatch("element belongs to a different backend")
        return self._key_name(x.key)

    def parse_element(self, text):
        return Element(self, self._parse_key(text))

    def description(self):
        """A serializable dict describing this backend."""
        raise NotImplementedError

    def _add_generator(self, sym, key):
        """Append a generator; two with one symbol would make words and
        edge labels ambiguous."""
        if not isinstance(sym, Hashable):
            raise ValueError("generator symbol %r is not a name" % (sym,))
        if sym in self._gen_index:
            raise ValueError("generator symbol %r is used twice" % (sym,))
        self._gen_index[sym] = len(self._gen_syms)
        self._gen_syms.append(sym)
        self._gen_keys.append(key)


class RewritingMonoid(Monoid):
    """Monoid presented by a complete shortlex rewriting system.

    extra_generators adds non-alphabet generators (symbol, word) pairs to
    the generating set; word lengths and Cayley balls are then taken over
    the extended set.
    """

    kind = "rewriting"

    def __init__(self, system: RewritingSystem, extra_generators=()):
        super().__init__()
        if not system.is_complete:
            raise ValueError(
                "rewriting backend needs a verified complete system, got %r"
                % (system.completeness,)
            )
        self.system = system
        self._identity_key = ()
        for sym in system.alphabet:
            self._add_generator(sym, system.normalize((sym,)))
        self._single_char = all(len(a) == 1 for a in system.alphabet)
        self.extra_generators = []
        for sym, word in extra_generators:
            if isinstance(word, str):
                word = parse_word(word, system.alphabet)
            self.extra_generators.append((sym, tuple(word)))
            self._add_generator(sym, system.normalize(tuple(word)))

    def _mul_key(self, a, b):
        # keys are normal forms, which normal_product requires of a
        return self.system.normal_product(a, b)

    def _key_name(self, key):
        if not key:
            return "ε"
        return format_word(key, "" if self._single_char else "·")

    def _parse_key(self, text):
        if text == "ε":
            return ()
        return self.system.normalize(parse_word(text, self.system.alphabet))

    def description(self):
        desc = {
            "kind": "rewriting",
            "alphabet": list(self.system.alphabet),
            "rules": [
                [format_word(r.lhs, "" if self._single_char else " "),
                 format_word(r.rhs, "" if self._single_char else " ")]
                for r in self.system.rules
            ],
        }
        if self.extra_generators:
            sep = "" if self._single_char else " "
            desc["extra_generators"] = [
                [sym, format_word(word, sep)] for sym, word in self.extra_generators
            ]
        return desc


class TransformationMonoid(Monoid):
    """Maps on {0..degree-1} under right action: (x*y)(i) = y(x(i))."""

    kind = "transformation"

    def __init__(self, degree, generators):
        super().__init__()
        if not _is_int(degree):
            raise ValueError("degree %r is not an integer" % (degree,))
        self.degree = degree
        if self.degree < 1:
            raise ValueError("degree must be at least 1")
        for gen in generators:
            if not (isinstance(gen, (list, tuple)) and len(gen) == 2):
                raise ValueError("generator %r is not a (symbol, images) pair" % (gen,))
            sym, images = gen
            ok = isinstance(images, (list, tuple)) and all(map(_is_int, images))
            if ok:
                images = tuple(images)
                ok = len(images) == self.degree and all(
                    0 <= i < self.degree for i in images)
            if not ok:
                raise ValueError("generator %r has bad image list %r" % (sym, images))
            self._add_generator(sym, images)
        # after the image lists, so a bad one fails before any degree-sized build
        if degree > sys.maxsize:
            raise ValueError("degree %d is too large to be a size" % degree)
        self._identity_key = tuple(range(degree))

    def _mul_key(self, a, b):
        return tuple(map(b.__getitem__, a))

    def _key_name(self, key):
        if self.degree <= 10:
            return "".join(map(str, key))
        return "(" + ",".join(map(str, key)) + ")"

    def _parse_key(self, text):
        body = text.strip("[]()")
        parts = body.split(",") if "," in body else list(body)
        try:
            images = tuple(int(p) for p in parts)
        except ValueError:
            images = None
        if images is None or len(images) != self.degree or any(
            not 0 <= i < self.degree for i in images
        ):
            raise ValueError("element %r is not a list of %d images in 0..%d"
                             % (text, self.degree, self.degree - 1))
        return images

    def description(self):
        return {
            "kind": "transformation",
            "degree": self.degree,
            "generators": [[s, list(k)] for s, k in zip(self._gen_syms, self._gen_keys)],
        }


class TableMonoid(Monoid):
    """Finite monoid given by its full multiplication table.

    Associativity and the identity law are checked at load.  Associativity
    is decided by Light's test over a generating set (Clifford & Preston
    1961, 1.2): when the identity law holds, (xt)y = x(ty) for every t of
    a set generating the table and all x, y makes the product associative,
    in k^2 steps per t instead of k^3 in all.  Only when that test fails,
    or the identity law does, does the exhaustive scan run, to name the
    first failing triple.  Semigroup tables (no two-sided identity) get a
    fresh identity adjoined as a distinguished extra row and column.
    """

    kind = "table"

    def __init__(self, names, table, identity_index, generator_names=None):
        super().__init__()
        names = list(names)
        if len(set(names)) != len(names):
            raise ValueError("element names must be distinct")
        n = len(names)
        table = [list(row) for row in table]
        if len(table) != n or any(len(row) != n for row in table):
            raise ValueError("table must be %d x %d" % (n, n))
        for row in table:
            for v in row:
                if not 0 <= v < n:
                    raise ValueError("table entry %r out of range" % v)
        e = identity_index
        unital = all(table[e][j] == j and table[j][e] == j for j in range(n))
        if not (unital and _light_test(table, _generating_set(table, e))):
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        if table[table[i][j]][k] != table[i][table[j][k]]:
                            raise ValueError(
                                "table is not associative at (%s, %s, %s)"
                                % (names[i], names[j], names[k])
                            )
        if not unital:
            raise ValueError("%r is not a two-sided identity" % names[e])
        self.names = names
        self.table = table
        self._identity_key = e
        if generator_names is None:
            generator_names = [names[i] for i in range(n) if i != e]
        idx = {name: i for i, name in enumerate(names)}
        for g in generator_names:
            if not isinstance(g, Hashable) or g not in idx:
                raise ValueError("generator %r is not an element of the table" % (g,))
            self._add_generator(g, idx[g])

    @classmethod
    def from_semigroup(cls, names, table, identity=None, generator_names=None):
        """Build from a possibly identity-free table, adjoining one if needed."""
        names = list(names)
        n = len(names)
        idx = {name: i for i, name in enumerate(names)}
        if not isinstance(table, (list, tuple)):
            raise ValueError("table must be a list of rows, got %r" % (table,))
        for row in table:
            if not isinstance(row, (list, tuple)):
                raise ValueError("table row %r is not a list" % (row,))
            for v in row:
                if not (v in idx if isinstance(v, str) else _is_int(v)):
                    raise ValueError("table entry %r is neither a name nor an index" % (v,))
        # the identity search below reads every row and column
        if len(table) != n or any(len(row) != n for row in table):
            raise ValueError("table must be %d x %d" % (n, n))
        table = [[idx[v] if isinstance(v, str) else v for v in row] for row in table]
        e = None
        if identity is not None:
            if identity not in names:
                raise ValueError("identity %r is not an element of the table" % (identity,))
            e = idx[identity]
        else:
            for i in range(n):
                if all(table[i][j] == j and table[j][i] == j for j in range(n)):
                    e = i
                    break
        if e is None:
            fresh = next(nm for nm in ["1", "e", "id", "_1"] if nm not in idx)
            names = names + [fresh]
            table = [row + [i] for i, row in enumerate(table)]
            table.append(list(range(n + 1)))
            e = n
        return cls(names, table, e, generator_names)

    def _mul_key(self, a, b):
        return self.table[a][b]

    def _key_name(self, key):
        return self.names[key]

    def _parse_key(self, text):
        try:
            return self.names.index(text)
        except ValueError:
            raise UnknownSymbol("no element named %r" % text) from None

    def description(self):
        return {
            "kind": "table",
            "elements": list(self.names),
            "identity": self.names[self._identity_key],
            "table": [[self.names[v] for v in row] for row in self.table],
            "generators": list(self._gen_syms),
        }


def _is_int(v):
    """True for an int that is not a bool."""
    return isinstance(v, int) and not isinstance(v, bool)


def _generating_set(table, e):
    """Elements that generate the table with its identity e: in index
    order, each element not reached from e by right multiplications with
    those taken so far is taken."""
    seen = {e}
    reached = [e]
    taken = []
    for c in range(len(table)):
        if c in seen:
            continue
        taken.append(c)
        # earlier elements have their products by the earlier choices
        done = len(reached)
        for i, x in enumerate(reached):
            row = table[x]
            for g in taken if i >= done else taken[-1:]:
                y = row[g]
                if y not in seen:
                    seen.add(y)
                    reached.append(y)
    return taken


def _light_test(table, tests):
    """True when (xt)y = x(ty) for every t in tests and all x, y."""
    for t in tests:
        trow = table[t]
        for xrow in table:
            if table[xrow[t]] != [xrow[v] for v in trow]:
                return False
    return True


class ProductMonoid(Monoid):
    """Direct product with componentwise multiplication.

    When the right factor is a finite group the generating set is
    {(a, g) : a generator of the left factor, g in the group} together with
    {(1, g) : g != 1}, so that the projection onto the left factor maps
    generators onto generators and every fiber has diameter at most 1.
    Otherwise the union-style set {(a, 1)} + {(1, b)} is used.
    """

    kind = "product"

    def __init__(self, left, right):
        super().__init__()
        self.left = left
        self.right = right
        self._identity_key = (left._identity_key, right._identity_key)
        try:
            probe = exhaust(right, cap=GROUP_PROBE_CAP)
        except NotFinite:
            probe = None
        # a finite monoid is a group exactly when right multiplication by
        # each generator permutes it
        self.right_is_group = probe is not None and all(
            len(set(column)) == len(probe.keys) for column in zip(*probe.succ))
        id1 = left._key_name(left._identity_key)
        id2 = right._key_name(right._identity_key)
        if self.right_is_group:
            for sym, gk in zip(left._gen_syms, left._gen_keys):
                for g in probe.keys:
                    self._add_generator("(%s,%s)" % (sym, right._key_name(g)), (gk, g))
            for g in probe.keys[1:]:
                self._add_generator("(%s,%s)" % (id1, right._key_name(g)),
                                    (left._identity_key, g))
        else:
            for sym, gk in zip(left._gen_syms, left._gen_keys):
                self._add_generator("(%s,%s)" % (sym, id2), (gk, right._identity_key))
            for sym, gk in zip(right._gen_syms, right._gen_keys):
                self._add_generator("(%s,%s)" % (id1, sym), (left._identity_key, gk))

    def _mul_key(self, a, b):
        return (self.left._mul_key(a[0], b[0]), self.right._mul_key(a[1], b[1]))

    def _key_name(self, key):
        return "(%s,%s)" % (self.left._key_name(key[0]), self.right._key_name(key[1]))

    def _parse_key(self, text):
        if not (text.startswith("(") and text.endswith(")")):
            raise ValueError("product element must look like (x,y), got %r" % text)
        body = text[1:-1]
        depth = 0
        for i, ch in enumerate(body):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "," and depth == 0:
                return (
                    self.left._parse_key(body[:i]),
                    self.right._parse_key(body[i + 1 :]),
                )
        raise ValueError("no top-level comma in %r" % text)

    def description(self):
        return {
            "kind": "product",
            "left": self.left.description(),
            "right": self.right.description(),
        }


def direct_product(left, right):
    return ProductMonoid(left, right)


def proved_infinite(m):
    """Whether m is infinite, decided with no product: table and transformation
    monoids are finite, a rewriting monoid is infinite exactly when its
    left-side automaton has a reachable cycle, and a product when a factor is."""
    if isinstance(m, RewritingMonoid):
        return not LeftSideAutomaton(m.system).is_finite()
    if isinstance(m, ProductMonoid):
        return proved_infinite(m.left) or proved_infinite(m.right)
    return False


# explore's result; its docstring says what each field holds
CayleyTable = namedtuple("CayleyTable", "keys index lengths succ parent last")


def explore(m, radius=None, side=RIGHT, base=None, cap=DEFAULT_CAP):
    """The radius-r out-ball of base (default: identity) as a CayleyTable.

    side="right" multiplies generators on the right (edges x -> x*a),
    side="left" on the left (edges x -> a*x); radius None searches until
    no new element appears.  Vertex i is the key keys[i] at BFS depth
    lengths[i], and index maps keys back to vertices.  Discovery order is
    canonical: vertices in order, each by the ordered generator list.
    succ[i][g] is the vertex of the product of vertex i by the g-th
    generator, or -1 when it lies past the radius; one backend product is
    made per vertex and generator.  Vertex v > 0 was first reached from
    parent[v] by generator last[v], so on the right x_v = x_parent[v]
    a_last[v].  Raises CapExceeded when the ball grows past the cap.
    """
    if side not in (RIGHT, LEFT):
        raise ValueError("side must be 'right' or 'left'")
    start = m._identity_key if base is None else base.key
    # within the cap every depth is below max(cap, 1): the base comes free
    radius = cap + 1 if radius is None else radius
    on_right = side == RIGHT
    mul = m._mul_key
    gens = list(enumerate(m._gen_keys))
    keys = [start]
    index = {start: 0}
    lengths = [0]
    parent = [0]
    last = [0]
    succ = []
    for i, key in enumerate(keys):
        d = lengths[i]
        row = []
        for g, gk in gens:
            nk = mul(key, gk) if on_right else mul(gk, key)
            t = index.get(nk)
            if t is None:
                if d >= radius:
                    # vertices come in BFS order, so by the first vertex at
                    # the radius every vertex of the ball is indexed
                    t = -1
                else:
                    if len(keys) >= cap:
                        raise CapExceeded(cap)
                    t = index[nk] = len(keys)
                    keys.append(nk)
                    lengths.append(d + 1)
                    parent.append(i)
                    last.append(g)
            row.append(t)
        succ.append(row)
    return CayleyTable(keys, index, lengths, succ, parent, last)


def exhaust(m, side=RIGHT, cap=DEFAULT_CAP):
    """The whole monoid's Cayley graph on the given side, as explore finds
    it.  Raises ProvedInfinite, before any product, when proved_infinite(m)
    holds, and NotFinite when the (so finite) monoid outgrows the cap."""
    if proved_infinite(m):
        raise ProvedInfinite("monoid is infinite")
    try:
        return explore(m, side=side, cap=cap)
    except CapExceeded:
        raise NotFinite("monoid not exhausted within cap %d" % cap) from None


def enumerate_out_ball(m, radius, cap=DEFAULT_CAP):
    """Elements at word length <= radius, breadth-first from the identity,
    in explore's order.  Raises CapExceeded when the ball grows past the
    cap."""
    table = explore(m, radius, cap=cap)
    return [LengthedElement(Element(m, k), d) for k, d in zip(table.keys, table.lengths)]


def enumerate_all(m, cap=DEFAULT_CAP):
    """All elements if the monoid is finite within the cap, else None."""
    try:
        table = exhaust(m, cap=cap)
    except NotFinite:
        return None
    return [Element(m, k) for k in table.keys]
