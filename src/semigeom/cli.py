"""Command-line front end.

Loads monoids, spaces, and point maps from JSON description files,
dispatches to the library, and prints deterministic reports: "key: value"
lines for verdicts, tab-separated tables for bulk data, DOT for graphs.
The command echo and timing go to stderr so stdout stays byte-stable.

Exit codes: 0 for a successful positive verdict or plain data, 1 for a
negative verdict (a violation found, nothing within bounds, failure to
generate), 2 for input errors.
"""

import argparse
import functools
import os
import shutil
import sys
import time
from fractions import Fraction

from . import descriptions
from .errors import (
    DEFAULT_CAP,
    PROBE_CAP as DEFAULT_PROBE_CAP,
    CapExceeded,
    NotACongruence,
    NotFinite,
    NotGenerating,
    NotStronglyConnected,
    ProvedInfinite,
    SemigeomError,
)

DEFAULT_RADIUS = 64
SEARCH_CAP = 10


def _load_json(path):
    import json

    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_monoid(value):
    """A description file path, or a built-in catalog name."""
    from . import catalog

    if not os.path.exists(value) and value in catalog.names():
        return catalog.monoid(value)
    return descriptions.load_monoid(_load_json(value))


def _load_space(path):
    return descriptions.load_space(_load_json(path))


def _checked(parse, expected, ok):
    """An argparse type: parse the text, or reject it with a one-line
    reason when it does not parse or fails the range check."""

    def convert(text):
        try:
            value = parse(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError("expected %s, got %r" % (expected, text))
        return value

    return convert


# radii, caps and lengths; rationals per the definitions, which need
# epsilon, mu >= 0 and lambda > 0
_count = _checked(int, "an integer >= 0", lambda n: n >= 0)
_positive_count = _checked(int, "an integer >= 1", lambda n: n >= 1)
_nonnegative = _checked(descriptions.parse_rational, "a rational >= 0", lambda q: q >= 0)
_positive = _checked(descriptions.parse_rational, "a rational > 0", lambda q: q > 0)


def _fmt(q):
    return descriptions.format_rational(Fraction(q))


def _yes(flag):
    return "yes" if flag else "no"


def _say(line=""):
    sys.stdout.write(line + "\n")


# -- the command table --------------------------------------------------------

# name -> (handler, help, arguments); @command fills it in the parser's order
COMMANDS = {}


def command(name, help, *arguments):
    """Record the handler below as command name, with the (flag, keywords)
    pair of each argument it reads, as add_argument takes them."""

    def record(handler):
        COMMANDS[name] = (handler, help, arguments)
        return handler

    return record


def radius(default):
    return ("--radius", dict(type=_count, default=default))


MONOID = ("--monoid", dict(required=True))
CAP = ("--cap", dict(type=_count, default=DEFAULT_CAP, help="element enumeration cap"))
ELEMENT = ("--element", dict())
PROBE_CAP = ("--probe-cap", dict(type=_count, default=DEFAULT_PROBE_CAP,
                                 help="finiteness probe limit before evidence mode"))
SOURCE = ("--source", dict(required=True))
TARGET = ("--target", dict(required=True))
EPSILON = ("--epsilon", dict(type=_nonnegative, default=Fraction(0)))


# -- subcommand handlers ------------------------------------------------------


@command("ball", "enumerate a Cayley ball", CAP, MONOID, radius(DEFAULT_RADIUS),
         ("--format", dict(choices=["table", "dot", "distances"], default="table")))
def cmd_ball(args):
    from . import cayley

    m = _load_monoid(args.monoid)
    ball = cayley.build_cayley_ball(m, args.radius, cap=args.cap)
    if args.format == "dot":
        sys.stdout.write(cayley.export_dot(ball))
        return 0
    if args.format == "distances":
        sys.stdout.write(cayley.distance_table(ball))
        return 0
    _say("vertex\tlength")
    for i in range(len(ball.vertices)):
        _say("%s\t%d" % (ball.name(i), ball.lengths[i]))
    return 0


@command("dist", "in-ball distance between two elements",
         CAP, MONOID, radius(DEFAULT_RADIUS), SOURCE, TARGET)
def cmd_dist(args):
    from . import cayley

    m = _load_monoid(args.monoid)
    source = m.parse_element(args.source)
    target = m.parse_element(args.target)
    ball = cayley.build_cayley_ball(m, args.radius, cap=args.cap)
    _say("horizon: %d" % args.radius)
    try:
        u = ball.index_of(source)
        v = ball.index_of(target)
    except KeyError:
        # a valid endpoint out of the ball; nothing is decidable
        _say("distance: >%d" % args.radius)
        return 0
    d = ball.distance(u, v)
    _say("distance: %s" % d.format())
    if d.is_finite():
        _say("geodesic: %s" % " ".join(ball.geodesic(u, v)))
    return 0


@command("poset", "ball components and their order", CAP, MONOID, radius(DEFAULT_RADIUS))
def cmd_poset(args):
    from . import cayley

    m = _load_monoid(args.monoid)
    ball = cayley.build_cayley_ball(m, args.radius, cap=args.cap)
    scc = cayley.strongly_connected_components(ball)
    reach = cayley.component_poset(ball, scc)
    _say("horizon: %d" % args.radius)
    _say("components: %d" % len(scc.components))
    _say("component\tverified\tmembers")
    for c, members in enumerate(scc.components):
        _say(
            "%d\t%s\t%s"
            % (c, _yes(scc.verified[c]), " ".join(ball.name(i) for i in members))
        )
    pairs = []
    for high in range(len(scc.components)):
        for low in sorted(reach[high]):
            if low != high:
                pairs.append("%d<%d" % (low, high))
    _say("order: %s" % " ".join(pairs))
    return 0


@command("green", "Green's relations of a finite monoid", CAP, MONOID)
def cmd_green(args):
    from . import green

    fm = green.FiniteMonoid(_load_monoid(args.monoid), cap=args.cap)
    gs = fm.green()
    _say("elements: %d" % len(fm))
    _say("r-classes: %d" % len(gs.r_classes))
    _say("l-classes: %d" % len(gs.l_classes))
    _say("h-classes: %d" % len(gs.h_classes))
    for label, classes in (
        ("r-class", gs.r_classes),
        ("l-class", gs.l_classes),
        ("h-class", gs.h_classes),
    ):
        for c, members in enumerate(classes):
            _say("%s\t%d\t%s" % (label, c, " ".join(fm.names[i] for i in members)))
    order = " ".join("%d<=%d" % (i, j) for i, j in gs.r_order)
    _say("r-order: %s" % order)
    return 0


@command("schutz", "Schutzenberger graph and group", CAP, MONOID, ELEMENT, radius(8),
         ("--format", dict(choices=["table", "dot"], default="table")), PROBE_CAP)
def cmd_schutz(args):
    from . import cayley, green

    m = _load_monoid(args.monoid)
    h = m.parse_element(args.element) if args.element else m.identity
    try:
        fm = green.FiniteMonoid(m, cap=min(args.cap, args.probe_cap))
    except NotFinite:
        fm = None
    if fm is not None:
        gs = fm.green()
        hc = gs.h_classes[gs.h_class_of[fm.element_index(h)]]
        group = green.schutz_group(fm, hc)
        _say("mode: exact")
        _say("h-class: %s" % " ".join(fm.names[i] for i in hc))
        _say("group-order: %d" % group.order)
        _say("representatives: %s" % " ".join(group.rep_names))
        return 0
    graph = cayley.schutzenberger_ball(m, h, args.radius, cap=args.cap)
    _say("mode: evidence")
    _say("horizon: %d" % args.radius)
    _say("vertices: %d" % len(graph.vertices))
    if args.format == "dot":
        sys.stdout.write(cayley.export_dot(graph))
        return 0
    indeg = graph.in_degrees()
    outdeg = graph.out_degrees()
    _say("vertex\tlength\tindegree\toutdegree\tinterior")
    for i in range(len(graph.vertices)):
        _say(
            "%s\t%d\t%d\t%d\t%s"
            % (graph.name(i), graph.lengths[i], indeg[i], outdeg[i],
               _yes(graph.complete[i]))
        )
    return 0


def _print_action(report):
    _say("mode: %s" % ("exact" if report.exact else "evidence"))
    if report.group_order is not None:
        _say("group-order: %d" % report.group_order)
    _say("isometric: %s" % _yes(report.isometric))
    if report.counterexample is not None:
        _say("counterexample: %s" % " ".join(str(p) for p in report.counterexample))
    _say("outward-proper: %s" % _yes(report.outward_proper))
    _say("orbit-meets: %s" % " ".join("%d:%d" % rc for rc in report.orbit_meet_sizes))
    _say("cocompact: %s" % _yes(report.cocompact))
    if report.covering_radius is not None:
        _say("covering-radius: %d" % report.covering_radius)
    if report.failed_radius is not None:
        _say("failed-radius: %d" % report.failed_radius)
    for note in report.notes:
        _say("note: %s" % note)
    ok = report.isometric and report.outward_proper and report.cocompact
    _say("verdict: %s" % ("ok" if ok else "fail"))
    return 0 if ok else 1


@command("act", "check the Schutzenberger group action",
         CAP, MONOID, ELEMENT, radius(8), PROBE_CAP)
def cmd_act(args):
    from . import green

    m = _load_monoid(args.monoid)
    h = m.parse_element(args.element) if args.element else None
    report = green.check_schutz_action(
        m, h, radius=args.radius, cap=args.cap, probe_cap=args.probe_cap
    )
    return _print_action(report)


@command("svarc", "extract generators from a group action", CAP, MONOID, ELEMENT,
         ("--ball-radius", dict(type=_count, default=1)),
         ("--l", dict(type=_count, default=1)))
def cmd_svarc(args):
    from . import green

    m = _load_monoid(args.monoid)
    fm = green.FiniteMonoid(m, cap=args.cap)
    gs = fm.green()
    h = m.parse_element(args.element) if args.element else m.identity
    hc = gs.h_classes[gs.h_class_of[fm.element_index(h)]]
    try:
        report = green.svarc_milnor(fm, hc, ball_radius=args.ball_radius, l=args.l)
    except NotGenerating as e:
        _say("verdict: not-generating")
        _say("unreachable: %s" % " ".join(str(x) for x in e.missing))
        return 1
    _say("h-class-size: %d" % len(hc))
    _say("ball-radius: %d" % report.ball_radius)
    _say("l: %d" % report.l)
    _say("s: %s" % " ".join(report.s_names))
    _say("lambda: %s" % _fmt(report.lam))
    _say("max-word-length: %d" % max(report.word_length))
    _say("forward-ok: %s" % _yes(report.forward_ok))
    _say("reverse-ok: %s" % _yes(report.reverse_ok))
    ok = report.forward_ok and report.reverse_ok
    _say("verdict: %s" % ("ok" if ok else "fail"))
    return 0 if ok else 1


@command("growth", "growth sequence and domination", CAP, MONOID,
         ("--mmax", dict(type=_count, default=20)),
         ("--classify", dict(action="store_true")),
         ("--other", dict(help="second monoid: check domination instead")),
         ("--lambda-max", dict(type=_positive_count, default=10)),
         ("--c-max", dict(type=_count, default=10)))
def cmd_growth(args):
    from . import growth

    m = _load_monoid(args.monoid)
    seq = growth.growth_sequence(m, args.mmax, cap=args.cap)
    if args.other is None:
        # classified before the table is printed, so a window too short to
        # classify leaves stdout empty
        verdict = growth.classify_growth(seq) if args.classify else None
        _say("m\tg")
        for t, g in enumerate(seq.values):
            _say("%d\t%d" % (t, g))
        if args.classify:
            if isinstance(verdict, growth.Polynomial):
                _say("classification: polynomial %d" % verdict.degree)
            elif isinstance(verdict, growth.Exponential):
                _say("classification: exponential %.2f" % verdict.base)
            else:
                _say("classification: inconclusive")
                return 1
        return 0
    other = growth.growth_sequence(_load_monoid(args.other), args.mmax, cap=args.cap)
    witness = growth.dominates_within(seq, other, args.lambda_max, args.c_max)
    if witness is None:
        _say("witness: none-within-bounds")
        _say("note: bounded-window verdict only, not an asymptotic refutation")
        return 1
    _say("witness: lambda=%d c=%d" % (witness.lam, witness.c))
    _say("checked: %d..%d" % witness.checked)
    return 0


@command("ends", "estimate the number of ends", CAP, MONOID,
         ("--kmax", dict(type=_count, default=4)), radius(12))
def cmd_ends(args):
    from . import growth

    m = _load_monoid(args.monoid)
    profile = growth.ends_profile(m, args.kmax, args.radius, cap=args.cap)
    _say("horizon: %d" % profile.horizon)
    _say("k\te\te-inner")
    for k in profile.inner_radii:
        _say("%d\t%d\t%d" % (k, profile.counts[k], profile.counts_inner[k]))
    v = profile.verdict
    if isinstance(v, growth.Stable):
        _say("verdict: stable %d" % v.count)
    elif isinstance(v, growth.GrowingAtLeast):
        _say("verdict: growing-at-least %s" % " ".join(str(c) for c in v.counts))
    else:
        _say("verdict: inconclusive")
        return 1
    return 0


@command("qi-check", "verify a quasi-isometry claim", SOURCE, TARGET,
         ("--map", dict(required=True)),
         ("--lambda", dict(dest="lam", type=_positive, required=True)),
         ("--epsilon", dict(type=_nonnegative, required=True)),
         ("--mu", dict(type=_nonnegative, required=True)))
def cmd_qi_check(args):
    from . import geometry

    source = _load_space(args.source)
    target = _load_space(args.target)
    f = descriptions.load_point_map(_load_json(args.map), source, target)
    constants = geometry.QiConstants(args.lam, args.epsilon, args.mu)
    report = geometry.check_quasi_isometry(f, source, target, constants)
    _say("lambda: %s" % _fmt(constants.lam))
    _say("epsilon: %s" % _fmt(constants.eps))
    _say("mu: %s" % _fmt(constants.mu))
    if constants.eps == 0:
        _say("note: isometric-grade claim (epsilon = 0)")
    emb = report.embedding
    _say("checked: %d" % emb.checked)
    _say("skipped: %d" % emb.skipped)
    if emb.violation is not None:
        _say(
            "violation: %s %s %s"
            % (source.points[emb.violation.x], source.points[emb.violation.y],
               emb.violation.side)
        )
    _say("mu-actual: %s" % report.mu.format())
    _say("verdict: %s" % ("ok" if report.ok else "fail"))
    return 0 if report.ok else 1


@command("qi-search", "search for a quasi-isometry",
         ("--cap", dict(type=_count, default=SEARCH_CAP, help="points per space")),
         SOURCE, TARGET,
         ("--lambda-max", dict(type=_positive, default=Fraction(4))),
         ("--eps-max", dict(type=_nonnegative, default=Fraction(4))),
         ("--mu-max", dict(type=_nonnegative, default=Fraction(2))))
def cmd_qi_search(args):
    from . import geometry

    source = _load_space(args.source)
    target = _load_space(args.target)
    found = geometry.search_quasi_isometry(
        source, target, args.lambda_max, args.eps_max, args.mu_max, cap=args.cap
    )
    if found is None:
        _say("verdict: none-within-bounds")
        _say("note: bounded search only, not a refutation")
        return 1
    pairs = [
        "%s->%s" % (source.points[i], target.points[found.point_map[i]])
        for i in range(len(source.points))
    ]
    _say("map: %s" % " ".join(pairs))
    _say("lambda: %s" % _fmt(found.constants.lam))
    _say("epsilon: %s" % _fmt(found.constants.eps))
    _say("mu: %s" % _fmt(found.constants.mu))
    _say("verdict: ok")
    return 0


@command("quasimetric", "least quasi-metricity constant", SOURCE, EPSILON)
def cmd_quasimetric(args):
    from . import geometry

    space = _load_space(args.source)
    lam = geometry.quasi_metricity_lambda(space, args.epsilon)
    if lam is None:
        _say("strongly-connected: no")
        _say("verdict: not-quasi-metric")
        return 1
    _say("strongly-connected: yes")
    _say("epsilon: %s" % _fmt(args.epsilon))
    _say("lambda: %s" % _fmt(lam))
    _say("verdict: ok")
    return 0


@command("symmetrize", "symmetrize a space, with certificates", SOURCE, EPSILON,
         ("--out", dict(help="write the space JSON here")))
def cmd_symmetrize(args):
    import json

    from . import geometry

    space = _load_space(args.source)
    try:
        result = geometry.symmetrize(space, args.epsilon)
    except NotStronglyConnected:
        _say("verdict: not-strongly-connected")
        return 1
    payload = json.dumps(descriptions.dump_space(result.space), indent=2)
    if args.out:
        # written before the report, so a path that cannot be written
        # fails with nothing on stdout
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    _say("lambda: %s" % _fmt(result.lam))
    _say("epsilon: %s" % _fmt(result.eps))
    _say("lambda-prime: %s" % _fmt(result.forward.lam))
    _say("metric-ok: %s" % _yes(result.metric_ok))
    _say("forward-ok: %s" % _yes(result.forward_ok))
    _say("backward-lambda: %s" % _fmt(result.backward_lam))
    _say("backward-epsilon: %s" % _fmt(result.backward_eps))
    _say("backward-ok: %s" % _yes(result.backward_ok))
    ok = result.metric_ok and result.forward_ok and result.backward_ok
    _say("verdict: %s" % ("ok" if ok else "fail"))
    if not args.out:
        _say(payload)
    return 0 if ok else 1


def _class_of(fm, data):
    """The class index of every element, from a JSON list of class member
    lists that names every element exactly once."""
    if not isinstance(data, list):
        raise ValueError("classes file must be a list of member lists, got %r" % (data,))
    index = {name: i for i, name in enumerate(fm.names)}
    class_of = [None] * len(fm)
    for c, members in enumerate(data):
        if not isinstance(members, list):
            raise ValueError("class %d must be a list of element names, got %r"
                             % (c, members))
        for name in members:
            i = index.get(name) if isinstance(name, str) else None
            if i is None:
                raise ValueError("class %d: unknown element %r" % (c, name))
            if class_of[i] is not None:
                raise ValueError("class %d: element %r is already in class %d"
                                 % (c, name, class_of[i]))
            class_of[i] = c
    if None in class_of:
        raise ValueError("classes file does not cover every element: %r is in no class"
                         % fm.names[class_of.index(None)])
    return class_of


@command("quotient", "check a quotient or projection map", CAP, MONOID,
         ("--classes", dict(help="JSON list of class member lists")),
         ("--projection", dict(action="store_true",
                               help="product monoid: project onto the left factor")),
         radius(8))
def cmd_quotient(args):
    from . import geometry, green
    from .monoids import ProductMonoid

    m = _load_monoid(args.monoid)
    if args.projection:
        if not isinstance(m, ProductMonoid):
            raise ValueError("--projection needs a product monoid description")
        report = geometry.check_product_projection_qi(m, args.radius, cap=args.cap)
        _say("mode: evidence")
        _say("horizon: %d" % report.horizon)
        _say("r-bound: %s" % report.r_bound.format())
        if report.embedding is not None:
            _say("checked: %d" % report.embedding.checked)
            _say("skipped: %d" % report.embedding.skipped)
        if report.mu is not None:
            _say("mu-actual: %s" % report.mu.format())
        for note in report.notes:
            _say("note: %s" % note)
        _say("verdict: %s" % ("ok" if report.ok else "fail"))
        return 0 if report.ok else 1
    if args.classes is None:
        raise ValueError("either --classes or --projection is required")
    fm = green.FiniteMonoid(m, cap=args.cap)
    class_of = _class_of(fm, _load_json(args.classes))
    try:
        report = geometry.check_quotient_qi(fm, class_of)
    except NotACongruence as e:
        _say("verdict: not-a-congruence")
        _say("witness: %s" % " ".join(fm.names[i] for i in e.witness))
        return 1
    _say("mode: exact")
    _say("classes: %d" % len(report.classes))
    _say("r-bound: %s" % report.r_bound.format())
    if report.constants is not None:
        _say("lambda: %s" % _fmt(report.constants.lam))
        _say("epsilon: %s" % _fmt(report.constants.eps))
        _say("mu: %s" % _fmt(report.constants.mu))
    if report.mu is not None:
        _say("mu-actual: %s" % report.mu.format())
    for note in report.notes:
        _say("note: %s" % note)
    _say("verdict: %s" % ("ok" if report.ok else "fail"))
    return 0 if report.ok else 1


# -- parser -------------------------------------------------------------------


def _sub_parser(named, **kwargs):
    """The commands' parser_class: a parser if the call names the command."""
    return argparse.ArgumentParser(**kwargs) if named else None


def build_parser(argv=None):
    """The parser of every command in COMMANDS.  The terminal width is read
    once, when the parser is built, where argparse alone would probe it for
    each formatter it makes; help wraps at that width less 2, as argparse's
    default formatter does.  Given argv, only a command whose name argv
    holds as a token gets a parser, since argparse parses with, and prints
    the help of, only the command the first positional token names; every
    command keeps its name and help line, which are all that help, usage
    and an invalid choice read."""
    formatter = functools.partial(
        argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(
        prog="semigeom",
        description="Coarse geometry of finitely generated monoids.",
        formatter_class=formatter,
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_sub_parser)
    for name, (handler, help, arguments) in COMMANDS.items():
        named = argv is None or name in argv
        p = sub.add_parser(name, help=help, formatter_class=formatter, named=named)
        if named:
            p.set_defaults(func=handler)
            for flag, kwargs in arguments:
                p.add_argument(flag, **kwargs)
    return parser


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    print("semigeom " + " ".join(argv), file=sys.stderr)
    start = time.monotonic()
    try:
        code = args.func(args)
    except CapExceeded as e:
        print("error: %s (raise --cap)" % e, file=sys.stderr)
        code = 2
    except ProvedInfinite as e:
        print("error: %s (use an evidence-mode command)" % e, file=sys.stderr)
        code = 2
    except NotFinite as e:
        print("error: %s (raise --cap or use an evidence-mode command)" % e,
              file=sys.stderr)
        code = 2
    except (SemigeomError, ValueError, KeyError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        code = 2
    finally:
        print("elapsed: %.3fs" % (time.monotonic() - start), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
