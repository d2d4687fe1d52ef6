"""Loading of monoid, space, and map description dicts; dumping of spaces.

The on-disk format is JSON.  Rationals serialize as "p/q" strings (plain
integers, and a sign before p, are accepted); infinity in a distance
matrix is null.  Loading a monoid re-checks all structural invariants (rule
orientation, completeness, associativity), so a loaded backend is always
in a valid state.
"""

import re
from fractions import Fraction


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


def parse_rational(value):
    if isinstance(value, bool) or value is None:
        raise ValueError("expected a rational, got %r" % value)
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        # the documented forms only, read by int(): Fraction(str) also takes
        # exponents, decimal points, underscores and spaces, and builds
        # 10**(10**7) from "1e10000000"
        match = re.fullmatch(r"([+-]?[0-9]+)(?:/([0-9]+))?", value)
        if match is None:
            raise ValueError("Invalid literal for Fraction: %r" % value)
        num, den = match.groups()
        try:
            return Fraction(int(num), int(den or 1))
        except ZeroDivisionError:
            raise ValueError("zero denominator in %r" % value) from None
    raise ValueError("expected int or 'p/q' string, got %r" % value)


def format_rational(q):
    return str(q)


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
    # parsed as make_space consumes them, so a bad entry is reported in
    # matrix order whether it fails parsing or the nonnegativity check
    matrix = (
        (None if v is None else parse_rational(v) for v in row) for row in rows
    )
    return make_space(points, matrix)


def dump_space(space):
    rows = []
    for row in space.dist:
        out = []
        for d in row:
            if d.is_infinite():
                out.append(None)
            elif d.is_finite():
                out.append(format_rational(d.value))
            else:
                raise ValueError("cannot serialize horizon-stamped entries")
        rows.append(out)
    return {"points": list(space.points), "dist": rows}


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
