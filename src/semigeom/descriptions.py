"""Loading of monoid, space, and map description dicts; dumping of spaces.

The on-disk format is JSON.  Rationals serialize as "p/q" strings (plain
integers, and a sign before p, are accepted), which parse_ratio alone reads,
into ints; infinity in a distance matrix is null.  load_space hands a file's
rows unread to make_space, whose scaled_rows makes no Fraction per entry.
Loading a monoid re-checks all structural invariants (rule orientation,
completeness, associativity), so a loaded backend is always valid.
"""

import re
from fractions import Fraction
from math import gcd


def load_monoid(desc):
    # imported on use: the CLI parser needs only parse_rational, not the backends
    from .monoids import (
        ProductMonoid,
        RewritingMonoid,
        TableMonoid,
        TransformationMonoid,
    )
    from .rewriting import RewritingSystem, parse_word

    if not isinstance(desc, dict):
        raise ValueError("monoid description %r is not an object" % (desc,))
    kind = desc.get("kind")
    what = "%s monoid" % kind
    if kind == "rewriting":
        alphabet = _list_entry(desc, "alphabet", what, _STRING)
        rules = [
            (parse_word(lhs, alphabet), parse_word(rhs, alphabet))
            for lhs, rhs in _list_entry(desc, "rules", what, _STRING_PAIR)
        ]
        system = RewritingSystem(alphabet, rules)
        if not system.is_complete:
            f = system.completeness
            raise ValueError(
                "rewriting system is not confluent: peak %r joins to %r and %r"
                % ("".join(f.peak), "".join(f.nf1), "".join(f.nf2))
            )
        extra = "extra_generators"
        return RewritingMonoid(
            system, _list_entry(desc, extra, what, _STRING_PAIR) if extra in desc else ())
    if kind == "transformation":
        gens = desc.get("generators")
        gens = sorted(gens.items()) if isinstance(gens, dict) else _list_entry(
            desc, "generators", what)
        return TransformationMonoid(_entry(desc, "degree", what), gens)
    if kind == "table":
        gens = desc.get("generators")
        return TableMonoid.from_semigroup(
            _list_entry(desc, "elements", what, _STRING),
            _entry(desc, "table", what),
            identity=desc.get("identity"),
            generator_names=None if gens is None else _list_entry(desc, "generators", what),
        )
    if kind == "product":
        return ProductMonoid(load_monoid(_entry(desc, "left", what)),
                             load_monoid(_entry(desc, "right", what)))
    raise ValueError("unknown monoid kind %r" % kind)


def _entry(desc, key, what):
    if key not in desc:
        raise ValueError("%s description has no %r entry" % (what, key))
    return desc[key]


class NotRational(ValueError, TypeError):
    """No int or string where a rational is read (a TypeError to the API)."""


# the documented forms only, read by int(): Fraction(str) also takes
# exponents, decimal points, underscores and spaces, and builds 10**(10**7)
# from "1e10000000"
_RATIO = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def parse_ratio(value):
    """(p, q): an int or 'p/q' string as ints in lowest terms, q > 0."""
    if isinstance(value, str):
        match = _RATIO.fullmatch(value)
        if match is None:
            raise ValueError("Invalid literal for Fraction: %r" % value)
        p, q = int(match[1]), int(match[2] or 1)
        if q == 0:
            raise ValueError("zero denominator in %r" % value)
        g = gcd(p, q)
        return p // g, q // g
    if isinstance(value, bool) or value is None:
        raise NotRational("expected a rational, got %r" % value)
    if isinstance(value, int):
        return value, 1
    raise NotRational("expected int or 'p/q' string, got %r" % value)


def parse_rational(value):
    """parse_ratio's value as a Fraction, for the CLI's rational options."""
    return Fraction(*parse_ratio(value))


_STRING = (lambda item: isinstance(item, str), "a string")
_STRING_PAIR = (lambda item: isinstance(item, list) and len(item) == 2
                and all(isinstance(s, str) for s in item), "a pair of strings")


def _list_entry(desc, key, what, each=None):
    """desc[key], which must be a list, and with each = (test, wording), one
    whose every item passes the test."""
    value = _entry(desc, key, what)
    if not isinstance(value, list):
        raise ValueError("%s %r entry %r is not a list" % (what, key, value))
    if each is not None:
        ok, wording = each
        for item in value:
            if not ok(item):
                raise ValueError("%s %r entry: %r is not %s" % (what, key, item, wording))
    return value


def load_space(desc):
    from .geometry import make_space

    if not isinstance(desc, dict):
        raise ValueError("space description %r is not an object" % (desc,))
    points = _list_entry(desc, "points", "space")
    seen = set()
    for i, name in enumerate(points):
        if not isinstance(name, str):
            raise ValueError("space point %d is %r, not a string" % (i, name))
        if name in seen:
            raise ValueError("duplicate point name %r" % name)
        seen.add(name)
    rows = _list_entry(desc, "dist", "space")
    if len(rows) != len(points) or any(
        not isinstance(r, list) or len(r) != len(points) for r in rows
    ):
        raise ValueError("dist matrix must be %d x %d" % (len(points), len(points)))
    # read row-major: the first bad entry is reported, whatever its fault
    return make_space(points, rows)


def dump_space(space):
    if not space.exact:
        raise ValueError("cannot serialize horizon-stamped entries")
    return {"points": list(space.points), "dist": [
        [str(d.value) if d.is_finite() else None for d in row] for row in space.dist]}


def load_point_map(desc, source, target):
    """A point map as a list of target point names, one per source point."""
    if isinstance(desc, dict):
        desc = _list_entry(desc, "map", "map")
    elif not isinstance(desc, list):
        raise ValueError("map description %r is not a list or an object" % (desc,))
    if len(desc) != len(source.points):
        raise ValueError(
            "map must list %d target points, got %d" % (len(source.points), len(desc))
        )
    index = {p: i for i, p in enumerate(target.points)}
    out = []
    for name in desc:
        if not isinstance(name, str) or name not in index:
            raise ValueError("unknown target point %r" % name)
        out.append(index[name])
    return tuple(out)
