"""Shared helpers: random instance generators and brute-force oracles.

The random generators always take an explicit ``random.Random`` so every
test run sees the same instances.  The rewriting oracles operate by plain
breadth-first search over one-step rewrites; they are deliberately
independent of the normalization code they are used to check.
"""

from fractions import Fraction

from semigeom import geometry
from semigeom.monoids import TransformationMonoid
from semigeom.rewriting import RewritingSystem


def rand_transformation_monoid(rng, max_degree=4, max_gens=3):
    degree = rng.randint(2, max_degree)
    count = rng.randint(1, max_gens)
    gens = [
        ("g%d" % i, [rng.randrange(degree) for _ in range(degree)])
        for i in range(count)
    ]
    return TransformationMonoid(degree, gens)


def free_comm_system(k):
    """The free commutative monoid of rank k: rules ba -> ab for a < b."""
    letters = "abcdefghijklmnopqrstuvwxyz"[:k]
    rules = [(b + a, a + b) for i, a in enumerate(letters) for b in letters[i + 1:]]
    return RewritingSystem(tuple(letters), rules)


def rand_space(rng, n):
    """A strongly connected exact space on n points.

    Random positive weights on the complete digraph, with a shuffled
    Hamiltonian cycle keeping everything reachable, then a min-plus closure
    so the triangle inequality holds exactly.
    """
    big = Fraction(10**6)
    d = [[big] * n for _ in range(n)]
    for i in range(n):
        d[i][i] = Fraction(0)
    order = list(range(n))
    rng.shuffle(order)
    for k in range(n):
        i, j = order[k], order[(k + 1) % n]
        if i != j:
            d[i][j] = Fraction(rng.randint(1, 8), rng.choice((1, 2)))
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < 0.5:
                w = Fraction(rng.randint(1, 12), rng.choice((1, 2)))
                if w < d[i][j]:
                    d[i][j] = w
    for k in range(n):
        for i in range(n):
            for j in range(n):
                via = d[i][k] + d[k][j]
                if via < d[i][j]:
                    d[i][j] = via
    points = ["p%d" % i for i in range(n)]
    return geometry.make_space(points, d)


def one_step_reducts(system, word):
    """Every word reachable by applying one rule at one position."""
    word = tuple(word)
    out = set()
    for rule in system.rules:
        span = len(rule.lhs)
        for i in range(len(word) - span + 1):
            if word[i:i + span] == rule.lhs:
                out.add(word[:i] + rule.rhs + word[i + span:])
    return out


def descendants(system, word, cap=20000):
    seen = {tuple(word)}
    stack = [tuple(word)]
    while stack:
        w = stack.pop()
        for r in one_step_reducts(system, w):
            if r not in seen:
                if len(seen) >= cap:
                    raise RuntimeError("descendant search exceeded %d words" % cap)
                seen.add(r)
                stack.append(r)
    return seen


def brute_joinable(system, u, v):
    return not descendants(system, u).isdisjoint(descendants(system, v))
