"""Seeded job lists for the four workloads.

``generate(name, seed, workdir)`` returns the workload's jobs and the input
files they refer to, as a dict from path (inside ``workdir``) to contents;
``write_files`` writes them.  A job is a dict with ``argv`` (the arguments to
``semigeom.cli.main``) and ``spec`` (what the oracle needs to check the
output).  The same seed gives the same jobs and files.

Every workload has a fixed mix: each category of job below appears the same
number of times with the same monoid families for every seed.  Parameters
that set a job's cost (radii, windows, probe caps, space sizes, random-monoid
size strata) come from fixed lists that the seed only shuffles, while the
seed draws elements, random monoids, spaces and maps.  That keeps one pass's
cost steady across seeds while the inputs change.
"""

import json
import os
import random
from fractions import Fraction

import models

FREE2 = {"kind": "free", "k": 2}
BICYCLIC = {"kind": "bicyclic"}
INTEGERS = {"kind": "integers"}


def free_comm(k):
    return {"kind": "free-comm", "k": k}


# catalog names the CLI resolves itself; other monoids go to description files
CATALOG = {"free2": FREE2, "free-comm2": free_comm(2), "free-comm3": free_comm(3),
           "bicyclic": BICYCLIC, "integers": INTEGERS}


def rewriting_description(spec):
    kind = spec["kind"]
    if kind == "free-comm":
        letters = models.LETTERS[:spec["k"]]
        rules = [[b + a, a + b] for i, a in enumerate(letters) for b in letters[i + 1:]]
        return {"kind": "rewriting", "alphabet": list(letters), "rules": rules}
    if kind == "free":
        return {"kind": "rewriting", "alphabet": list(models.LETTERS[:spec["k"]]),
                "rules": []}
    if kind == "bicyclic":
        return {"kind": "rewriting", "alphabet": ["b", "c"], "rules": [["bc", ""]]}
    if kind == "integers":
        return {"kind": "rewriting", "alphabet": ["p", "q"],
                "rules": [["pq", ""], ["qp", ""]]}
    raise ValueError(kind)


def cyclic_group(n):
    names = [str(g) for g in range(n)]
    return {"kind": "table", "elements": names, "identity": "0",
            "table": [[str((a + b) % n) for b in range(n)] for a in range(n)],
            "generators": ["1"]}


class Builder:
    """Collects jobs and the description files they refer to."""

    def __init__(self, workdir, rng):
        self.workdir = workdir
        self.rng = rng
        self.jobs = []
        self.files = {}
        self._paths = {}

    def write(self, stem, payload):
        """The path of a description file with this payload, added once."""
        text = json.dumps(payload, sort_keys=True)
        if text not in self._paths:
            path = os.path.join(self.workdir, "%s.json" % stem)
            self.files[path] = text
            self._paths[text] = path
        return self._paths[text]

    def monoid_arg(self, spec):
        """The --monoid argument for a model spec: a catalog name or a file."""
        for name, cat in CATALOG.items():
            if cat == spec:
                return name
        if spec["kind"] == "product":
            desc = {"kind": "product", "left": rewriting_description(spec["left"]),
                    "right": cyclic_group(spec["n"])}
            return self.write("prod-%s-z%d" % (spec["left"]["kind"], spec["n"]), desc)
        if spec["kind"] == "transformation":
            desc = {"kind": "transformation", "degree": spec["degree"],
                    "generators": spec["generators"]}
            return self.write("trans-%d" % len(self.files), desc)
        return self.write("%s%d" % (spec["kind"], spec.get("k", 0)),
                          rewriting_description(spec))

    def add(self, argv, check, **spec):
        spec["check"] = check
        self.jobs.append({"argv": [str(a) for a in argv], "spec": spec})


# -- rewrite-balls ---------------------------------------------------------------

# Every parameter that sets a job's cost is dealt from a fixed list that the
# seed only shuffles, so a pass costs the same for every seed: ball radii,
# growth windows, evidence radii, and the --probe-cap of the finiteness probe
# act and schutz run before falling back to evidence mode (for integers the
# probe builds words up to probe-cap / 2 symbols long).
# (model, ball radii, growth windows, classify?, evidence radii, probe cap)
REWRITE_MONOIDS = [
    (FREE2, [8, 9, 10, 10, 11], [9, 12], True, [3, 6], 2048),
    (free_comm(3), [6, 7, 8, 9, 10], [9, 13], True, [2, 5], 1024),
    (free_comm(4), [4, 5, 6, 6, 7], [8, 9], True, [2, 4], 512),
    (free_comm(6), [3, 3, 4, 4, 5], [3, 4], False, [2], 384),
    (free_comm(10), [2, 2, 2, 2, 3], [2, 3], False, [2], 192),
    (BICYCLIC, [8, 10, 12, 14, 16], [9, 20], True, [4, 10], 1024),
    (INTEGERS, [10, 20, 30, 35, 40], [9, 30], True, [4, 10], 512),
]
# cheap monoids for ends, poset and growth --other:
# (model, ends (radius, kmax) pairs, poset radii, growth --other windows)
SMALL_MONOIDS = [
    (FREE2, [(5, 2), (8, 4)], [2, 4], [6, 10]),
    (free_comm(2), [(6, 3), (10, 4)], [3, 6], [6, 10]),
    (free_comm(3), [(5, 2), (8, 3)], [2, 4], [6, 10]),
    (BICYCLIC, [(6, 3), (12, 4)], [3, 8], [6, 10]),
    (INTEGERS, [(8, 2), (16, 4)], [3, 10], [6, 10]),
]


def deal(rng, values):
    """The fixed values in a seeded order."""
    return rng.sample(values, len(values))


def rewrite_balls(b):
    rng = b.rng
    for model, radii, windows, classify, ev_radii, probe in REWRITE_MONOIDS:
        arg = b.monoid_arg(model)
        for r in deal(rng, radii):
            b.add(["ball", "--monoid", arg, "--radius", r], "ball", model=model, radius=r)
        for mmax in deal(rng, windows):
            b.add(["growth", "--monoid", arg, "--mmax", mmax] + ["--classify"] * classify,
                  "growth", model=model, mmax=mmax, classify=classify)
        for command in ("act", "schutz"):
            for r in deal(rng, ev_radii):
                b.add([command, "--monoid", arg, "--radius", r, "--probe-cap", probe],
                      command + "-evidence", model=model, radius=r,
                      cocompact=model["kind"] != "bicyclic")
    for i, (model, ends, poset_radii, windows) in enumerate(SMALL_MONOIDS):
        arg = b.monoid_arg(model)
        for r, kmax in deal(rng, ends):
            b.add(["ends", "--monoid", arg, "--kmax", kmax, "--radius", r], "ends",
                  model=model, kmax=kmax, radius=r)
        for r in deal(rng, poset_radii):
            b.add(["poset", "--monoid", arg, "--radius", r], "poset", model=model, radius=r)
        for mmax in deal(rng, windows):
            other = SMALL_MONOIDS[(i + 1 + rng.randrange(4)) % len(SMALL_MONOIDS)][0]
            lam, c = rng.randint(2, 5), rng.randint(2, 6)
            b.add(["growth", "--monoid", arg, "--other", b.monoid_arg(other),
                   "--mmax", mmax, "--lambda-max", lam, "--c-max", c], "growth-other",
                  model=model, other=other, mmax=mmax, lambda_max=lam, c_max=c)


# -- finite-green ------------------------------------------------------------------


def full_transformation(n):
    gens = [["s", [(i + 1) % n for i in range(n)]],
            ["t", [1, 0] + list(range(2, n))],
            ["e", [0, 0] + list(range(2, n))]]
    return {"kind": "transformation", "degree": n, "generators": gens, "full": True}


# the ROADMAP item 2 reproduction: radius 3 prints 3, the true distance is 2
OVERCLAIM = ({"kind": "transformation", "degree": 4,
              "generators": [["g0", [2, 0, 2, 3]], ["g1", [1, 2, 2, 3]],
                             ["g2", [3, 0, 3, 1]]]}, 3, "1013", "3331")

# random monoids per seed: (how many, size range); the ten small ones hold
# the median job, so their cost averages over many monoids.  A command's
# cost grows with the square of the size (the multiplication table), so the
# ranges of the larger ones are narrow to keep a pass's cost steady
RANDOM_STRATA = [(10, (40, 50)), (4, (145, 155)), (1, (345, 355))]


def random_transformation_monoid(rng, size_range):
    """Rejection-sample generators until the monoid's size is in range."""
    while True:
        degree = rng.randint(3, 5)
        count = rng.randint(2, 3)
        gens = [["g%d" % i, [rng.randrange(degree) for _ in range(degree)]]
                for i in range(count)]
        spec = {"kind": "transformation", "degree": degree, "generators": gens}
        model = models.from_spec(spec)
        order, dist = models.bfs(model, model.identity, cap=size_range[1])
        if size_range[0] <= len(order) <= size_range[1]:
            return spec, model, order, dist


def _finite_jobs(b, spec, model, order, dist, dists):
    rng = b.rng
    arg = b.monoid_arg(spec)
    names = [model.name(k) for k in order]
    ranks = {}
    for key in order:
        ranks.setdefault(len(set(key)), []).append(model.name(key))
    b.add(["green", "--monoid", arg], "green", model=spec)
    element = rng.choice(names)
    b.add(["schutz", "--monoid", arg, "--element", element], "schutz-exact",
          model=spec, element=element)
    element = rng.choice(names)
    b.add(["act", "--monoid", arg, "--element", element], "act-exact",
          model=spec, element=element)
    b.add(["svarc", "--monoid", arg], "svarc", model=spec, element=None)
    low = sorted(ranks)
    # the quotient's table is checked for associativity in cubic time, so
    # the ideal is chosen to leave at most 64 classes
    small = [k for k in low[:-1] if 1 + sum(len(ranks[r]) for r in low if r > k) <= 64]
    k = rng.choice(small) if small else low[-2] if len(low) > 1 else low[0]
    ideal = [n for r in low if r <= k for n in ranks[r]]
    rees = [ideal] + [[n] for r in low if r > k for n in ranks[r]]
    b.add(["quotient", "--monoid", arg, "--classes", b.write("rees-%d" % len(b.files), rees)],
          "quotient", model=spec, classes=rees)
    by_rank = [ranks[r] for r in low]
    b.add(["quotient", "--monoid", arg, "--classes",
           b.write("rank-%d" % len(b.files), by_rank)],
          "quotient", model=spec, classes=by_rank)
    depth = max(dist.values())
    for _ in range(dists):
        r = rng.randint(1, max(1, depth - 1))
        source = rng.choice([k for k in order if dist[k] <= r])
        target = rng.choice(order)
        b.add(["dist", "--monoid", arg, "--radius", r, "--source", model.name(source),
               "--target", model.name(target)], "dist", model=spec, radius=r,
              source=model.name(source), target=model.name(target))


def finite_green(b):
    # T5 is left out: its 3125^2-entry table makes every T5 command a 7 to
    # 10 s job, so a run would see only two or three samples of it and its
    # time would follow the host's slow phases rather than the program
    t4 = full_transformation(4)
    model = models.from_spec(t4)
    order, dist = models.bfs(model, model.identity)
    # twelve T4 commands sit just below the largest random monoid's, so p90
    # falls among jobs whose monoid is the same for every seed
    for _ in range(2):
        _finite_jobs(b, t4, model, order, dist, dists=2)
    spec, r, source, target = OVERCLAIM
    b.add(["dist", "--monoid", b.monoid_arg(spec), "--radius", r, "--source", source,
           "--target", target], "dist", model=spec, radius=r, source=source,
          target=target)
    for count, size_range in RANDOM_STRATA:
        for _ in range(count):
            spec, model, order, dist = random_transformation_monoid(b.rng, size_range)
            _finite_jobs(b, spec, model, order, dist, dists=3)


# -- ball-spaces -------------------------------------------------------------------

# (model, radii of the distance tables); the seed reorders them
SPACE_MONOIDS = [(BICYCLIC, [6, 7, 8, 9, 9, 10, 10, 11, 11, 12]),
                 (INTEGERS, [10, 14, 18, 22, 26, 30, 34, 38, 40, 40]),
                 (free_comm(2), [5, 6, 6, 7, 7, 8, 8, 9, 9, 10])]
DIST_RADII = [6, 7, 8, 8, 9, 9, 10, 10, 10, 11, 11, 12, 12, 13, 13, 14]
# (product, radii of the projection checks, whose axiom check is cubic)
PRODUCTS = [({"kind": "product", "left": BICYCLIC, "n": 2}, [4, 4, 4, 5, 5, 5, 6, 6]),
            ({"kind": "product", "left": INTEGERS, "n": 3}, [4, 5, 5, 5, 6, 6, 6, 7]),
            ({"kind": "product", "left": free_comm(2), "n": 2}, [3, 3, 4, 4, 4, 5, 5, 5])]


def ball_spaces(b):
    rng = b.rng
    for model, radii in SPACE_MONOIDS:
        arg = b.monoid_arg(model)
        m = models.from_spec(model)
        for r in deal(rng, radii):
            b.add(["ball", "--monoid", arg, "--radius", r, "--format", "distances"],
                  "distances", model=model, radius=r)
        for r in deal(rng, DIST_RADII):
            ball, _ = models.bfs(m, m.identity, depth=r)
            source, target = m.name(rng.choice(ball)), m.name(rng.choice(ball))
            b.add(["dist", "--monoid", arg, "--radius", r, "--source", source,
                   "--target", target], "dist", model=model, radius=r,
                  source=source, target=target)
    for model, radii in PRODUCTS:
        arg = b.monoid_arg(model)
        for r in deal(rng, radii):
            b.add(["quotient", "--monoid", arg, "--projection", "--radius", r],
                  "projection", model=model, radius=r)


# -- user-spaces -------------------------------------------------------------------


def rand_space(rng, n):
    """A strongly connected rational space on n points: random weights on a
    shuffled Hamiltonian cycle and on half the other arcs, then the min-plus
    closure so the triangle inequality holds exactly."""
    big = Fraction(10 ** 6)
    d = [[big] * n for _ in range(n)]
    for i in range(n):
        d[i][i] = Fraction(0)
    cycle = list(range(n))
    rng.shuffle(cycle)
    for k in range(n):
        i, j = cycle[k], cycle[(k + 1) % n]
        if i != j:
            d[i][j] = Fraction(rng.randint(1, 8), rng.choice((1, 2)))
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < 0.5:
                d[i][j] = min(d[i][j], Fraction(rng.randint(1, 12), rng.choice((1, 2))))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    return d


def space_payload(d, prefix):
    return {"points": ["%s%d" % (prefix, i) for i in range(len(d))],
            "dist": [[str(v) for v in row] for row in d]}


def user_spaces(b):
    # space sizes follow fixed patterns so every seed has the same mix; the
    # search instances stay at 4 and 5 points because search time is
    # heavy-tailed (random 8-point pairs took 0.9 to 35 s), and there are
    # many of them so their sum varies little between seeds
    rng = b.rng
    eps_choices = ("0", "1/2", "1")
    for i in range(40):
        d = rand_space(rng, 6 + i % 7)
        path = b.write("qm-%d" % i, space_payload(d, "p"))
        eps = rng.choice(eps_choices)
        b.add(["quasimetric", "--source", path, "--epsilon", eps], "quasimetric",
              source=path, eps=eps)
    for i in range(40):
        # sixteen of the largest spaces put p90 inside one cluster of costs
        d = rand_space(rng, 10 if i < 16 else 5 + i % 5)
        path = b.write("sym-%d" % i, space_payload(d, "p"))
        eps = rng.choice(eps_choices)
        b.add(["symmetrize", "--source", path, "--epsilon", eps], "symmetrize",
              source=path, eps=eps)
    for i in range(40):
        src = rand_space(rng, 5 + i % 5)
        dst = rand_space(rng, 4 + (i // 5) % 5)
        f_map = [rng.randrange(len(dst)) for _ in src]
        spath = b.write("qis-%d" % i, space_payload(src, "p"))
        tpath = b.write("qit-%d" % i, space_payload(dst, "q"))
        mpath = b.write("qim-%d" % i, {"map": ["q%d" % j for j in f_map]})
        lam, eps, mu = rng.choice("1234"), rng.choice(("0", "1", "2", "4")), rng.choice("1248")
        b.add(["qi-check", "--source", spath, "--target", tpath, "--map", mpath,
               "--lambda", lam, "--epsilon", eps, "--mu", mu], "qi-check",
              source=spath, target=tpath, map=f_map, lam=lam, eps=eps, mu=mu)
    # p90 (the 15th slowest of 144 jobs) falls inside the cluster of the
    # sixteen 10-point symmetrize jobs; only the ten relabelled-copy searches,
    # whose cost depends on where the search order meets the map, lie above it
    for i in range(24):
        if i < 10:
            # a relabelled, rescaled copy: a quasi-isometry is known to exist
            src = rand_space(rng, 5)
            perm = list(range(len(src)))
            rng.shuffle(perm)
            scale = rng.choice((1, 2))
            dst = [[src[perm[a]][perm[c]] * scale for c in range(len(src))]
                   for a in range(len(src))]
            exists = True
        else:
            src = rand_space(rng, 4 + i % 2)
            dst = rand_space(rng, 3)
            exists = False
        spath = b.write("qss-%d" % i, space_payload(src, "p"))
        tpath = b.write("qst-%d" % i, space_payload(dst, "q"))
        b.add(["qi-search", "--source", spath, "--target", tpath], "qi-search",
              source=spath, target=tpath, lambda_max="4", eps_max="4", mu_max="2",
              exists=exists)


GENERATORS = {
    "rewrite-balls": rewrite_balls,
    "finite-green": finite_green,
    "ball-spaces": ball_spaces,
    "user-spaces": user_spaces,
}


def generate(name, seed, workdir):
    """(jobs, files) of the workload for this seed; nothing is written."""
    b = Builder(workdir, random.Random("%s:%d" % (name, seed)))
    GENERATORS[name](b)
    return b.jobs, b.files


def write_files(files):
    for path, text in files.items():
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
