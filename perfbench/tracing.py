"""Outside-in tracing of semigeom's layers.

``install(tracer)`` wraps the public functions and methods listed
by ``targets()`` and rebinds every module-level name that points at them, so
names taken with ``from ... import`` (``growth.enumerate_out_ball``,
``cayley.enumerate_all``, ``catalog.load_monoid``, ...) are traced too.
``uninstall`` puts the originals back.  Nothing in the program changes.

Each call becomes a span: name, job id, parent span, start, end.  Hot leaf
calls (``HOT``) are aggregated per job, parent span and name into one span
holding the call count and summed duration, so a pass with millions of
products stays in memory.  ``self_times`` subtracts from each span the part
covered by its children; ``job_sums`` sums one pass's spans per job, and
``layer_metrics`` turns the sums of chosen jobs into the per-layer metrics.
"""

import time
from collections import Counter, defaultdict

perf = time.perf_counter

HOT = {"monoids.mul_key", "rewriting.normalize", "cayley.distance", "cayley.bfs",
       "geometry.quasi_density"}


class Span:
    __slots__ = ("name", "job", "parent", "start", "end", "dur", "count", "counts",
                 "aggregate")

    def __init__(self, name, job, parent, start, end=None, aggregate=False):
        self.name = name
        self.job = job
        self.parent = parent
        self.start = start
        self.end = end
        self.dur = 0.0 if end is None else end - start
        self.count = 1 if not aggregate else 0
        self.counts = {}
        self.aggregate = aggregate

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def as_list(self):
        return [self.name, self.job, self.parent, self.start, self.end, self.dur,
                self.count, self.counts, self.aggregate]


class Tracer:
    """Spans kept in memory; ``job`` labels the spans opened and the counts
    made under it."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.hot = {}
        self.counters = defaultdict(int)
        self.job = None

    def count(self, name, value=1):
        self.counters[self.job, name] += value

    def open(self, name):
        parent = self.stack[-1] if self.stack else -1
        sid = len(self.spans)
        self.spans.append(Span(name, self.job, parent, perf()))
        self.stack.append(sid)
        return sid

    def close(self, sid):
        span = self.spans[sid]
        span.end = perf()
        span.dur = span.end - span.start
        self.stack.pop()

    def span(self, name, fn, note=None):
        """A wrapper recording one span per call."""
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if note is not None:
                note(tracer.spans[sid], args, kwargs, result)
            return result

        return traced

    def aggregated(self, name, fn, note=None):
        """A wrapper adding each call to its parent's aggregate span."""
        spans, stack, hot = self.spans, self.stack, self.hot
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = hot.get((parent, name))
            if sid is None:
                sid = len(spans)
                spans.append(Span(name, tracer.job, parent, perf(), aggregate=True))
                hot[(parent, name)] = sid
            stack.append(sid)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                span = spans[sid]
                span.dur += t1 - t0
                span.count += 1
                span.end = t1
            if note is not None:
                note(span, args, kwargs, result)
            return result

        return traced


def union_length(intervals):
    total = 0.0
    end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def self_times(spans):
    """Each span's duration minus the part covered by its children.

    A single-call child covers its interval clipped to the parent's; an
    aggregate child covers its summed duration, since the calls it stands
    for ran one after another inside the parent.
    """
    children = defaultdict(list)
    for sid, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(span)
    out = []
    for sid, span in enumerate(spans):
        intervals = []
        covered = 0.0
        for child in children[sid]:
            if child.aggregate:
                covered += child.dur
            else:
                a, b = max(child.start, span.start), min(child.end, span.end)
                if b > a:
                    intervals.append((a, b))
        out.append(span.dur - covered - union_length(intervals))
    return out


# -- what is wrapped ----------------------------------------------------------------


def _normalize(span, args, kwargs, result):
    span.add("in_symbols", len(args[1]))


def _critical_pairs(span, args, kwargs, result):
    span.add("pairs", len(result))


def _enumerate(span, args, kwargs, result):
    span.add("elements", len(result))


def _enumerate_all(cap_default):
    def note(span, args, kwargs, result):
        span.add("probes", 1)
        if result is None:
            span.add("wasted", args[1] if len(args) > 1 else kwargs.get("cap", cap_default))
        else:
            span.add("elements", len(result))
            span.add("useful", 1)

    return note


def _build(span, args, kwargs, result):
    span.add("vertices", len(result.vertices))
    span.add("edges", len(result.edges))
    span.add("slots", len(result.vertices) * len(result.monoid._gen_keys))


def _finite_monoid(span, args, kwargs, result):
    span.add("table_entries", len(args[0]) ** 2)


def _check_axioms(span, args, kwargs, result):
    span.add("triples", len(args[0]) ** 3)


def _qi_embedding(span, args, kwargs, result):
    span.add("pairs", result.checked + result.skipped)


def targets():
    """(owner, attribute, span name, note) for every traced callable."""
    from semigeom import (cayley, descriptions, geometry, green, growth, monoids,
                          rewriting)

    rs = rewriting.RewritingSystem
    out = [
        (rs, "normalize", "rewriting.normalize", _normalize),
        (rs, "check_complete", "rewriting.check_complete", None),
        (rs, "critical_pairs", "rewriting.critical_pairs", _critical_pairs),
        (monoids, "enumerate_out_ball", "monoids.enumerate", _enumerate),
        (monoids, "enumerate_all", "monoids.enumerate",
         _enumerate_all(monoids.DEFAULT_CAP)),
        (cayley, "build_cayley_ball", "cayley.build", _build),
        (cayley.CayleyBall, "distance", "cayley.distance", None),
        (cayley, "strongly_connected_components", "cayley.scc", None),
        (green.FiniteMonoid, "__init__", "green.finite_monoid", _finite_monoid),
        (green, "green_relations", "green.relations", None),
        (green, "schutz_group", "green.schutz_group", None),
        (green, "check_schutz_action", "green.action", None),
        (green, "svarc_milnor", "green.svarc", None),
        (geometry, "check_axioms", "geometry.check_axioms", _check_axioms),
        (geometry, "space_from_ball", "geometry.space_from_ball", None),
        (geometry, "check_qi_embedding", "geometry.qi_embedding", _qi_embedding),
        (geometry, "quasi_density", "geometry.quasi_density", None),
        (geometry, "search_quasi_isometry", "geometry.search", None),
        (geometry, "symmetrize", "geometry.symmetrize", None),
        (geometry, "monoid_space", "geometry.monoid_space", None),
        (geometry, "is_congruence", "geometry.is_congruence", None),
        (growth, "growth_sequence", "growth.sequence", None),
        (growth, "ends_profile", "growth.ends", None),
        (growth, "dominates_within", "growth.dominates", None),
        (growth, "classify_growth", "growth.classify", None),
        (descriptions, "load_monoid", "descriptions.load_monoid", None),
        (descriptions, "load_space", "descriptions.load_space", None),
    ]
    for backend in (monoids.RewritingMonoid, monoids.TransformationMonoid,
                    monoids.TableMonoid, monoids.ProductMonoid):
        out.append((backend, "_mul_key", "monoids.mul_key", None))
    return out


def install(tracer):
    """Wrap every target and rebind every module-level name bound to it.
    Returns the list of (namespace owner, attribute, original) to restore."""
    import sys

    from semigeom import cayley, distances

    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "semigeom" or name.startswith("semigeom."))]
    restore = []

    def rebind(owner, attr, original, wrapper):
        restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        if isinstance(owner, type):
            return
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original and not (module is owner and name == attr):
                    restore.append((module, name, original))
                    setattr(module, name, wrapper)

    for owner, attr, name, note in targets():
        original = vars(owner)[attr]
        make = tracer.aggregated if name in HOT else tracer.span
        rebind(owner, attr, original, make(name, original, note))

    bfs = vars(cayley.CayleyBall)["_bfs_from"]
    traced_bfs = tracer.aggregated("cayley.bfs", bfs)

    def bfs_from(ball, s):
        if s in ball._dist_cache:
            tracer.count("cayley.bfs.cache_hits")
            return bfs(ball, s)
        return traced_bfs(ball, s)

    rebind(cayley.CayleyBall, "_bfs_from", bfs, bfs_from)

    init = vars(distances.ExtDist)["__init__"]

    def counted_init(self, *args, **kwargs):
        tracer.count("distances.extdist.created")
        init(self, *args, **kwargs)

    rebind(distances.ExtDist, "__init__", init, counted_init)
    return restore


def uninstall(restore):
    for owner, attr, original in reversed(restore):
        setattr(owner, attr, original)


def job_sums(tracer):
    """One traced pass summed per job: {job: Counter} with keys
    ("self_s", name), ("calls", name), (name, note key), ("under", child
    name, parent name) and ("counter", name)."""
    spans = tracer.spans
    out = defaultdict(Counter)
    for span, st in zip(spans, self_times(spans)):
        sums = out[span.job]
        sums["self_s", span.name] += st
        sums["calls", span.name] += span.count
        for key, value in span.counts.items():
            sums[span.name, key] += value
        if span.parent >= 0:
            sums["under", span.name, spans[span.parent].name] += span.count
    for (job, name), value in tracer.counters.items():
        out[job]["counter", name] += value
    return out


def total_self_s(sums):
    """The self times of every span in ``sums``; they add up to the
    duration of its root spans."""
    return sum(value for key, value in sums.items() if key[0] == "self_s")


def layer_metrics(job_sums_list):
    """Per-layer metrics over the given per-job sums, by metric name."""
    total = Counter()
    for sums in job_sums_list:
        total.update(sums)

    def self_s(name):
        return total["self_s", name]

    def calls(name):
        return total["calls", name]

    def under(child, parent):
        return total["under", child, parent]

    def ratio(a, b):
        return a / b if b else 0.0

    def counter(name):
        return total["counter", name]

    hits = counter("cayley.bfs.cache_hits")
    return {
        "rewriting.normalize.calls": calls("rewriting.normalize"),
        "rewriting.normalize.in_symbols": total["rewriting.normalize", "in_symbols"],
        "rewriting.normalize.self_s": self_s("rewriting.normalize"),
        "rewriting.check_complete.self_s": self_s("rewriting.check_complete"),
        "rewriting.critical_pairs.count": total["rewriting.critical_pairs", "pairs"],
        "monoids.mul_key.calls": calls("monoids.mul_key"),
        "monoids.mul_key.self_s": self_s("monoids.mul_key"),
        "monoids.enumerate.elements": total["monoids.enumerate", "elements"],
        "monoids.enumerate.self_s": self_s("monoids.enumerate"),
        "monoids.enumerate_all.useful_frac": ratio(
            total["monoids.enumerate", "useful"], total["monoids.enumerate", "probes"]),
        "monoids.enumerate_all.wasted_elements": total["monoids.enumerate", "wasted"],
        "cayley.build.calls": calls("cayley.build"),
        "cayley.build.vertices": total["cayley.build", "vertices"],
        "cayley.build.edges": total["cayley.build", "edges"],
        "cayley.build.self_s": self_s("cayley.build"),
        "cayley.build.products_per_slot": ratio(
            under("monoids.mul_key", "cayley.build"), total["cayley.build", "slots"]),
        "cayley.distance.calls": calls("cayley.distance"),
        "cayley.distance.self_s": self_s("cayley.distance"),
        "cayley.distance.cache_hit_frac": ratio(hits, hits + calls("cayley.bfs")),
        "cayley.bfs.sources": calls("cayley.bfs"),
        "cayley.bfs.self_s": self_s("cayley.bfs"),
        "cayley.scc.self_s": self_s("cayley.scc"),
        "green.finite_monoid.self_s": self_s("green.finite_monoid"),
        "green.table_entries": total["green.finite_monoid", "table_entries"],
        "green.relations.self_s": self_s("green.relations"),
        "green.schutz_group.self_s": self_s("green.schutz_group"),
        "green.action.self_s": self_s("green.action"),
        "green.svarc.self_s": self_s("green.svarc"),
        "geometry.check_axioms.calls": calls("geometry.check_axioms"),
        "geometry.check_axioms.triples": total["geometry.check_axioms", "triples"],
        "geometry.check_axioms.self_s": self_s("geometry.check_axioms"),
        "geometry.space_from_ball.self_s": self_s("geometry.space_from_ball"),
        "geometry.qi_embedding.pairs": total["geometry.qi_embedding", "pairs"],
        "geometry.qi_embedding.self_s": self_s("geometry.qi_embedding"),
        "geometry.quasi_density.self_s": self_s("geometry.quasi_density"),
        "geometry.search.leaves": under("geometry.quasi_density", "geometry.search"),
        "geometry.search.self_s": self_s("geometry.search"),
        "geometry.symmetrize.self_s": self_s("geometry.symmetrize"),
        "geometry.monoid_space.self_s": self_s("geometry.monoid_space"),
        "geometry.is_congruence.self_s": self_s("geometry.is_congruence"),
        "growth.sequence.self_s": self_s("growth.sequence"),
        "growth.ends.self_s": self_s("growth.ends"),
        "growth.dominates.self_s": self_s("growth.dominates"),
        "growth.classify.self_s": self_s("growth.classify"),
        "distances.extdist.created": counter("distances.extdist.created"),
        "descriptions.load_monoid.self_s": self_s("descriptions.load_monoid"),
        "descriptions.load_space.self_s": self_s("descriptions.load_space"),
        "cli.self_s": self_s("cli"),
        "cli.stdout_bytes": counter("cli.stdout_bytes"),
    }
