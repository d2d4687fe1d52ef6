"""Tests of the benchmark itself: oracles, self time, job generation, tracing.

    python3 -m pytest perfbench/selftest.py

The file is not named test_*.py, so the repository's own test run does not
collect it.
"""

import json
import os
import sys
from collections import Counter

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import models  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

FAMILIES = [workloads.FREE2, workloads.free_comm(2), workloads.free_comm(3),
            workloads.free_comm(6), workloads.BICYCLIC, workloads.INTEGERS,
            {"kind": "product", "left": workloads.BICYCLIC, "n": 2},
            {"kind": "product", "left": workloads.INTEGERS, "n": 3}]


# -- oracles against the catalog facts ------------------------------------------------


def test_closed_forms_match_the_catalog_facts():
    for r in range(6):
        assert models.ball_size(workloads.FREE2, r) == 2 ** (r + 1) - 1
        free_comm4 = (r + 1) * (r + 2) * (r + 3) * (r + 4) // 24
        assert models.ball_size(workloads.free_comm(4), r) == free_comm4
        assert models.ball_size(workloads.BICYCLIC, r) == (r + 1) * (r + 2) // 2
        assert models.ball_size(workloads.INTEGERS, r) == 2 * r + 1


@pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: json.dumps(s, sort_keys=True))
def test_models_enumerate_the_closed_form_balls(spec):
    model = models.from_spec(spec)
    for r in range(5):
        order, dist = models.bfs(model, model.identity, depth=r)
        assert len(order) == models.ball_size(spec, r)
        assert all(model.length(k) == dist[k] for k in order)
        assert all(model.parse(model.name(k)) == k for k in order)


@pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: json.dumps(s, sort_keys=True))
def test_models_agree_with_semigeom_balls(spec, tmp_path):
    from semigeom import cayley, descriptions

    b = workloads.Builder(str(tmp_path), None)
    arg = b.monoid_arg(spec)
    workloads.write_files(b.files)
    if arg in workloads.CATALOG:
        from semigeom import catalog

        m = catalog.monoid(arg)
    else:
        with open(arg, encoding="utf-8") as fh:
            m = descriptions.load_monoid(json.load(fh))
    model = models.from_spec(spec)
    order, _ = models.bfs(model, model.identity, depth=3)
    ball = cayley.build_cayley_ball(m, 3)
    assert [ball.name(i) for i in range(len(ball))] == [model.name(k) for k in order]


def bell(n):
    """Bell numbers by the Bell triangle."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def test_bell_numbers_and_full_transformation_green_counts():
    assert [bell(n) for n in range(6)] == [1, 1, 2, 5, 15, 52]
    t5 = oracles.FiniteOracle(workloads.full_transformation(5))
    assert len(t5.elements) == 5 ** 5
    assert len(t5.r_classes) == bell(5) == 52
    assert len(t5.l_classes) == 2 ** 5 - 1 == 31


def test_brute_force_green_matches_kernels_and_images_on_t4():
    full = oracles.FiniteOracle(workloads.full_transformation(4))
    spec = dict(workloads.full_transformation(4))
    del spec["full"]
    brute = oracles.FiniteOracle(spec)
    assert brute.names == full.names
    assert brute.r_classes == full.r_classes
    assert brute.l_classes == full.l_classes
    assert brute.h_classes == full.h_classes
    reps = [c[0] for c in full.r_classes]
    assert all(brute.r_below(i, j) == full.r_below(i, j) for i in reps for j in reps)


def test_true_distances_come_from_the_whole_cayley_graph():
    spec, r, source, target = workloads.OVERCLAIM
    model = models.from_spec(spec)
    u, v = model.parse(source), model.parse(target)
    assert oracles._distance(model, u, v, 10) == 2
    out = "horizon: 3\ndistance: 3\ngeodesic: g1 g0 g2\n"
    found = oracles.Checker().check({"check": "dist", "model": spec, "radius": r,
                                     "source": source, "target": target}, out, 0)
    assert found.kind == "dist-overclaim" and found.known


def test_a_wrong_ball_contradicts_the_oracle():
    spec = {"check": "ball", "model": workloads.BICYCLIC, "radius": 2}
    good = "vertex\tlength\nε\t0\nb\t1\nc\t1\nbb\t2\ncb\t2\ncc\t2\n"
    checker = oracles.Checker()
    assert checker.check(spec, good, 0) is None
    found = checker.check(spec, good.replace("cc\t2", "cc\t1"), 0)
    assert found is not None and not found.known
    assert checker.check(spec, good, 2).kind == "exit-code"


def run_cli(argv):
    import contextlib
    import io

    from semigeom import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


SVARC_MONOIDS = [
    workloads.full_transformation(3),
    workloads.full_transformation(4),
    # its units are {1, (0 1)}: a group of order 2
    {"kind": "transformation", "degree": 3,
     "generators": [["a", [1, 0, 2]], ["b", [0, 0, 1]]]},
]


@pytest.mark.parametrize("spec", SVARC_MONOIDS, ids=lambda s: json.dumps(s, sort_keys=True))
def test_svarc_oracle_agrees_with_semigeom_and_catches_each_field(spec, tmp_path):
    b = workloads.Builder(str(tmp_path), None)
    arg = b.monoid_arg(spec)
    workloads.write_files(b.files)
    code, out = run_cli(["svarc", "--monoid", arg])
    job = {"check": "svarc", "model": spec, "element": None}
    checker = oracles.Checker()
    assert checker.check(job, out, code) is None
    lines = out.splitlines()
    for k, line in enumerate(lines):
        key, _, value = line.partition(": ")
        wrong = {"yes": "no", "no": "yes", "ok": "fail", "fail": "ok"}.get(value, value + "0")
        broken = "\n".join(lines[:k] + ["%s: %s" % (key, wrong)] + lines[k + 1:]) + "\n"
        assert checker.check(job, broken, code) is not None, key


def test_svarc_oracle_rejects_a_false_not_generating():
    spec = workloads.full_transformation(3)
    fo = oracles.FiniteOracle(spec)
    reps, _action = oracles._schutz_group(fo, fo.h_class(None))
    assert len(reps) == 6
    job = {"check": "svarc", "model": spec, "element": None}
    out = "verdict: not-generating\nunreachable: %s\n" % fo.names[reps[1]]
    assert oracles.Checker().check(job, out, 1).kind == "wrong-verdict"


def test_an_honest_horizon_is_not_a_failure():
    spec = {"check": "dist", "model": workloads.BICYCLIC, "radius": 4,
            "source": "c", "target": "b"}
    assert oracles.Checker().check(spec, "horizon: 4\ndistance: >4\n", 0) is None


# -- self time ----------------------------------------------------------------------


def span(name, parent, start, end, aggregate=False, dur=None):
    s = tracing.Span(name, 0, parent, start, end, aggregate=aggregate)
    if dur is not None:
        s.dur = dur
    return s


def test_self_time_of_synthetic_nested_spans():
    spans = [
        span("cli", -1, 0.0, 10.0),
        span("a", 0, 1.0, 3.0),             # child of cli
        span("b", 0, 2.0, 5.0),             # overlaps a: union 1..5
        span("c", 0, 8.0, 12.0),            # clipped to 8..10
        span("hot", 0, 5.5, 7.5, aggregate=True, dur=1.5),
        span("leaf", 1, 1.5, 2.0),          # child of a
        span("hot", 4, 6.0, 7.0, aggregate=True, dur=0.25),  # child of the aggregate
    ]
    got = tracing.self_times(spans)
    assert got == pytest.approx([10 - 4 - 2 - 1.5, 2 - 0.5, 3, 4, 1.5 - 0.25, 0.5, 0.25])


def test_union_length():
    assert tracing.union_length([(0, 1), (0.5, 2), (3, 4)]) == 3
    assert tracing.union_length([]) == 0


# -- job lists ----------------------------------------------------------------------


def mix(jobs):
    def family(job):
        spec = job["spec"]
        model = spec.get("model", {})
        return (job["argv"][0], spec["check"], model.get("kind"), model.get("k"),
                model.get("full"))

    return Counter(family(j) for j in jobs)


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_one_seed_gives_one_job_list(name):
    a = workloads.generate(name, 7, "work")
    b = workloads.generate(name, 7, "work")
    assert json.dumps(a) == json.dumps(b)
    jobs, files = a
    assert len(jobs) >= 100
    named = {arg for job in jobs for arg in job["argv"] if arg.startswith("work")}
    assert named == set(files)


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_two_seeds_give_different_lists_with_the_same_mix(name):
    a, _ = workloads.generate(name, 1, "work")
    b, _ = workloads.generate(name, 2, "work")
    assert [j["argv"] for j in a] != [j["argv"] for j in b]
    assert mix(a) == mix(b)


def test_cold_setup_writes_the_files(tmp_path):
    files = {str(tmp_path / "a.json"): '{"x": 1}', str(tmp_path / "b.json"): "[]"}
    assert run.cold_setup(files) > 0
    assert (tmp_path / "a.json").read_text() == '{"x": 1}'
    assert (tmp_path / "b.json").read_text() == "[]"


# -- tracing ------------------------------------------------------------------------


def test_tracing_rebinds_from_imports_and_restores_them():
    from semigeom import catalog, cayley, green, growth, monoids

    originals = (growth.enumerate_out_ball, cayley.enumerate_all, green.enumerate_all)
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        assert growth.enumerate_out_ball is monoids.enumerate_out_ball
        assert growth.enumerate_out_ball is not originals[0]
        assert cayley.enumerate_all is not originals[1]
        assert green.enumerate_all is not originals[2]
        tracer.job = 0
        sid = tracer.open("cli")
        growth.growth_sequence(catalog.monoid("free2"), 3)
        tracer.close(sid)
    finally:
        tracing.uninstall(restore)
    assert (growth.enumerate_out_ball, cayley.enumerate_all, green.enumerate_all) == originals
    sums = tracing.job_sums(tracer)
    assert tracing.total_self_s(sums[0]) == pytest.approx(tracer.spans[sid].dur)
    layers = tracing.layer_metrics(sums.values())
    assert layers["monoids.enumerate.elements"] == 15
    assert layers["monoids.mul_key.calls"] == 14
    assert layers["rewriting.normalize.calls"] >= 14


def test_run_reports_the_benchmark_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.GENERATORS)
    for metric in bench["per_layer"]:
        assert run.unit_of(metric["name"]) == metric["unit"]
    names = set(tracing.layer_metrics([])) | {"trace.overhead"}
    assert names == {m["name"] for m in bench["per_layer"]}
