"""End-to-end CLI tests: every subcommand, every exit code.

main() is driven in process with capsys; input files are written to
tmp_path.  Stdout is asserted byte-for-byte where the format promises
stability (tables, DOT, verdict blocks); stderr carries the echo line and
timing and is only checked structurally.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import semigeom
from semigeom import catalog, cayley, descriptions
from semigeom.cli import main
from semigeom.distances import finite
from semigeom.monoids import RewritingMonoid


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture
def line5(tmp_path):
    n = 5
    dist = [[0 if i == j else (j - i if j > i else 1) for j in range(n)]
            for i in range(n)]
    return write_json(tmp_path, "line5.space",
                      {"points": ["g%d" % i for i in range(n)], "dist": dist})


@pytest.fixture
def chain(tmp_path):
    return write_json(tmp_path, "chain.space",
                      {"points": ["u", "v"], "dist": [[0, 1], [None, 0]]})


@pytest.fixture
def sym2(tmp_path):
    return write_json(tmp_path, "sym2.space",
                      {"points": ["u", "v"], "dist": [[0, 1], [1, 0]]})


@pytest.fixture
def point1(tmp_path):
    return write_json(tmp_path, "point.space", {"points": ["p"], "dist": [[0]]})


# -- ball, dist, poset ---------------------------------------------------------


def test_ball_table(capsys):
    code, out, err = run(capsys, "ball", "--monoid", "one-a-zero", "--radius", "4")
    assert code == 0
    assert out == "vertex\tlength\n1\t0\na\t1\n0\t2\n"
    assert err.splitlines()[0] == "semigeom ball --monoid one-a-zero --radius 4"
    assert err.splitlines()[-1].startswith("elapsed:")


def test_ball_dot_matches_library(capsys):
    code, out, _ = run(capsys, "ball", "--monoid", "bicyclic", "--radius", "1",
                       "--format", "dot")
    assert code == 0
    ball = cayley.build_cayley_ball(catalog.monoid("bicyclic"), 1)
    assert out == cayley.export_dot(ball)


def test_ball_output_is_byte_stable(capsys):
    first = run(capsys, "ball", "--monoid", "t2", "--radius", "3", "--format", "dot")
    second = run(capsys, "ball", "--monoid", "t2", "--radius", "3", "--format", "dot")
    assert first[1] == second[1]
    first = run(capsys, "ball", "--monoid", "one-a-zero", "--format", "distances")
    second = run(capsys, "ball", "--monoid", "one-a-zero", "--format", "distances")
    assert first[0] == 0 and first[1] == second[1]
    ball = cayley.full_cayley_graph(catalog.monoid("one-a-zero"))
    assert first[1] == cayley.distance_table(ball)


def test_dist_finite(capsys):
    code, out, _ = run(capsys, "dist", "--monoid", "bicyclic", "--radius", "3",
                       "--source", "c", "--target", "cb")
    assert code == 0
    assert out == "horizon: 3\ndistance: 1\ngeodesic: b\n"


def test_dist_infinite(capsys):
    code, out, _ = run(capsys, "dist", "--monoid", "one-a-zero", "--radius", "4",
                       "--source", "a", "--target", "1")
    assert code == 0
    assert out == "horizon: 4\ndistance: inf\n"


def test_dist_undecided(capsys):
    code, out, _ = run(capsys, "dist", "--monoid", "bicyclic", "--radius", "2",
                       "--source", "c", "--target", "b")
    assert code == 0
    assert out == "horizon: 2\ndistance: >2\n"


def test_dist_endpoint_out_of_ball(capsys):
    code, out, _ = run(capsys, "dist", "--monoid", "bicyclic", "--radius", "1",
                       "--source", "bb", "--target", "b")
    assert code == 0
    assert out == "horizon: 1\ndistance: >1\n"
    code, out, _ = run(capsys, "dist", "--monoid", "t3", "--radius", "1",
                       "--source", "012", "--target", "000")
    assert code == 0
    assert out == "horizon: 1\ndistance: >1\n"


def test_dist_bad_element(capsys):
    code, out, err = run(capsys, "dist", "--monoid", "bicyclic",
                         "--source", "x", "--target", "b")
    assert code == 2
    assert "error:" in err


def test_poset(capsys):
    code, out, _ = run(capsys, "poset", "--monoid", "one-a-zero", "--radius", "4")
    assert code == 0
    assert out == (
        "horizon: 4\n"
        "components: 3\n"
        "component\tverified\tmembers\n"
        "0\tyes\t1\n"
        "1\tyes\ta\n"
        "2\tyes\t0\n"
        "order: 1<0 2<0 2<1\n"
    )


# -- green, schutz, act, svarc ---------------------------------------------------


def test_green_t3(capsys):
    code, out, _ = run(capsys, "green", "--monoid", "t3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "elements: 27"
    assert lines[1] == "r-classes: 5"
    assert lines[2] == "l-classes: 7"
    assert lines[3] == "h-classes: 13"
    assert lines[-1].startswith("r-order: ")


def test_green_from_description_file(capsys, tmp_path):
    path = write_json(tmp_path, "z3.monoid", catalog.DESCRIPTIONS["z3"])
    from_file = run(capsys, "green", "--monoid", path)
    builtin = run(capsys, "green", "--monoid", "z3")
    assert from_file[0] == 0
    assert from_file[1] == builtin[1]


def test_schutz_exact(capsys):
    code, out, _ = run(capsys, "schutz", "--monoid", "t3", "--element", "120")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "mode: exact"
    assert lines[1].startswith("h-class: ")
    assert lines[2] == "group-order: 6"


def test_schutz_evidence_table(capsys):
    code, out, _ = run(capsys, "schutz", "--monoid", "bicyclic", "--radius", "4")
    assert code == 0
    assert out == (
        "mode: evidence\n"
        "horizon: 4\n"
        "vertices: 5\n"
        "vertex\tlength\tindegree\toutdegree\tinterior\n"
        "ε\t0\t1\t1\tno\n"
        "b\t1\t2\t2\tyes\n"
        "bb\t2\t2\t2\tyes\n"
        "bbb\t3\t2\t2\tyes\n"
        "bbbb\t4\t1\t1\tno\n"
    )


def test_act_exact(capsys):
    code, out, _ = run(capsys, "act", "--monoid", "t3", "--element", "120")
    assert code == 0
    lines = out.splitlines()
    assert "mode: exact" in lines
    assert "group-order: 6" in lines
    assert "isometric: yes" in lines
    assert "cocompact: yes" in lines
    assert "covering-radius: 0" in lines
    assert "orbit-meets: 1:5 2:6 3:6 4:6 5:6 6:6 7:6 8:6" in lines
    assert lines[-1] == "verdict: ok"


def test_act_evidence_fails_cocompactness(capsys):
    code, out, _ = run(capsys, "act", "--monoid", "bicyclic")
    assert code == 1
    lines = out.splitlines()
    assert "mode: evidence" in lines
    assert "group-order: 1" in lines
    assert "cocompact: no" in lines
    assert "failed-radius: 8" in lines
    assert lines[-1] == "verdict: fail"


def test_svarc_ok(capsys):
    code, out, _ = run(capsys, "svarc", "--monoid", "t3", "--element", "120")
    assert code == 0
    assert out == (
        "h-class-size: 6\n"
        "ball-radius: 1\n"
        "l: 1\n"
        "s: 012 120 102 201 021 210\n"
        "lambda: 2\n"
        "max-word-length: 1\n"
        "forward-ok: yes\n"
        "reverse-ok: yes\n"
        "verdict: ok\n"
    )


def test_svarc_not_generating(capsys):
    code, out, _ = run(capsys, "svarc", "--monoid", "t3", "--element", "120",
                       "--ball-radius", "0", "--l", "0")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "verdict: not-generating"
    assert lines[1].startswith("unreachable: ")


# -- growth and ends ----------------------------------------------------------------


def test_growth_table(capsys):
    code, out, _ = run(capsys, "growth", "--monoid", "integers", "--mmax", "5")
    assert code == 0
    assert out == "m\tg\n0\t1\n1\t3\n2\t5\n3\t7\n4\t9\n5\t11\n"


def test_growth_classify_exponential(capsys):
    code, out, _ = run(capsys, "growth", "--monoid", "free2", "--mmax", "12",
                       "--classify")
    assert code == 0
    assert out.splitlines()[-1] == "classification: exponential 2.00"


def test_growth_classify_polynomial(capsys):
    code, out, _ = run(capsys, "growth", "--monoid", "bicyclic", "--mmax", "40",
                       "--classify")
    assert code == 0
    assert out.splitlines()[-1] == "classification: polynomial 2"


def test_growth_classify_short_window_prints_nothing(capsys):
    # the whole table once went to stdout before the window check failed
    code, out, err = run(capsys, "growth", "--monoid", "free2", "--mmax", "5",
                         "--classify")
    assert code == 2 and out == ""
    assert "error: classification needs a window of length >= 8\n" in err


def test_growth_domination_witness(capsys):
    code, out, _ = run(capsys, "growth", "--monoid", "integers",
                       "--other", "free-comm2", "--mmax", "12")
    assert code == 0
    assert out == "witness: lambda=1 c=0\nchecked: 0..12\n"


def test_growth_domination_none(capsys):
    code, out, _ = run(capsys, "growth", "--monoid", "free2",
                       "--other", "free-comm2", "--mmax", "14",
                       "--lambda-max", "1", "--c-max", "1")
    assert code == 1
    assert out == (
        "witness: none-within-bounds\n"
        "note: bounded-window verdict only, not an asymptotic refutation\n"
    )


def test_ends_stable(capsys):
    code, out, _ = run(capsys, "ends", "--monoid", "integers", "--kmax", "3",
                       "--radius", "10")
    assert code == 0
    assert out == (
        "horizon: 10\n"
        "k\te\te-inner\n"
        "0\t2\t2\n"
        "1\t2\t2\n"
        "2\t2\t2\n"
        "3\t2\t2\n"
        "verdict: stable 2\n"
    )


def test_ends_growing(capsys):
    code, out, _ = run(capsys, "ends", "--monoid", "free2", "--kmax", "2",
                       "--radius", "8")
    assert code == 0
    assert out.splitlines()[-1] == "verdict: growing-at-least 2 4 8"


# -- spaces: qi-check, qi-search, quasimetric, symmetrize --------------------------


def test_qi_check_ok(capsys, tmp_path, sym2):
    fmap = write_json(tmp_path, "id.map", {"map": ["u", "v"]})
    code, out, _ = run(capsys, "qi-check", "--source", sym2, "--target", sym2,
                       "--map", fmap, "--lambda", "1", "--epsilon", "0",
                       "--mu", "0")
    assert code == 0
    assert out == (
        "lambda: 1\n"
        "epsilon: 0\n"
        "mu: 0\n"
        "note: isometric-grade claim (epsilon = 0)\n"
        "checked: 4\n"
        "skipped: 0\n"
        "mu-actual: 0\n"
        "verdict: ok\n"
    )


def test_qi_check_violation(capsys, tmp_path, chain, point1):
    fmap = write_json(tmp_path, "collapse.map", {"map": ["p", "p"]})
    code, out, _ = run(capsys, "qi-check", "--source", chain, "--target", point1,
                       "--map", fmap, "--lambda", "1", "--epsilon", "1",
                       "--mu", "0")
    assert code == 1
    assert out == (
        "lambda: 1\n"
        "epsilon: 1\n"
        "mu: 0\n"
        "checked: 3\n"
        "skipped: 0\n"
        "violation: v u lower\n"
        "mu-actual: 0\n"
        "verdict: fail\n"
    )


def test_qi_search_ok(capsys, sym2, point1):
    code, out, _ = run(capsys, "qi-search", "--source", sym2, "--target", point1,
                       "--mu-max", "0")
    assert code == 0
    assert out == (
        "map: u->p v->p\n"
        "lambda: 1\n"
        "epsilon: 1\n"
        "mu: 0\n"
        "verdict: ok\n"
    )


def test_qi_search_none(capsys, chain, sym2):
    code, out, _ = run(capsys, "qi-search", "--source", chain, "--target", sym2)
    assert code == 1
    assert out == (
        "verdict: none-within-bounds\n"
        "note: bounded search only, not a refutation\n"
    )


def test_quasimetric(capsys, line5):
    code, out, _ = run(capsys, "quasimetric", "--source", line5)
    assert code == 0
    assert out == "strongly-connected: yes\nepsilon: 0\nlambda: 4\nverdict: ok\n"
    code, out, _ = run(capsys, "quasimetric", "--source", line5,
                       "--epsilon", "1")
    assert code == 0
    assert out == "strongly-connected: yes\nepsilon: 1\nlambda: 3\nverdict: ok\n"


def test_quasimetric_not_strongly_connected(capsys, chain):
    code, out, _ = run(capsys, "quasimetric", "--source", chain)
    assert code == 1
    assert out == "strongly-connected: no\nverdict: not-quasi-metric\n"


def test_symmetrize(capsys, line5):
    code, out, _ = run(capsys, "symmetrize", "--source", line5, "--epsilon", "1")
    assert code == 0
    head, _, payload = out.partition("{")
    assert head == (
        "lambda: 3\n"
        "epsilon: 1\n"
        "lambda-prime: 4\n"
        "metric-ok: yes\n"
        "forward-ok: yes\n"
        "backward-lambda: 16\n"
        "backward-epsilon: 8\n"
        "backward-ok: yes\n"
        "verdict: ok\n"
    )
    space = descriptions.load_space(json.loads("{" + payload))
    assert [space.d(0, j) for j in range(5)] == [
        finite(v) for v in (0, 2, 3, 4, 5)
    ]


def test_symmetrize_to_file(capsys, tmp_path, line5):
    out_path = tmp_path / "sym.space"
    code, out, _ = run(capsys, "symmetrize", "--source", line5,
                       "--epsilon", "1", "--out", str(out_path))
    assert code == 0
    assert out.splitlines()[-1] == "verdict: ok"
    assert "{" not in out
    space = descriptions.load_space(json.loads(out_path.read_text()))
    assert space.d(0, 4) == finite(5)


def test_symmetrize_to_unwritable_file_prints_nothing(capsys, tmp_path, sym2):
    # the whole report once went to stdout before the file failed to open
    out_path = tmp_path / "missing" / "sym.space"
    code, out, err = run(capsys, "symmetrize", "--source", sym2, "--out", str(out_path))
    assert code == 2 and out == ""
    assert "error: [Errno 2] No such file or directory" in err


def test_symmetrize_not_strongly_connected(capsys, chain):
    code, out, _ = run(capsys, "symmetrize", "--source", chain)
    assert code == 1
    assert out == "verdict: not-strongly-connected\n"


# -- quotients ------------------------------------------------------------------------


def test_quotient_universal_finite(capsys, tmp_path):
    classes = write_json(tmp_path, "z3univ.classes", [["0", "1", "2"]])
    code, out, _ = run(capsys, "quotient", "--monoid", "z3",
                       "--classes", classes)
    assert code == 0
    assert out == (
        "mode: exact\n"
        "classes: 1\n"
        "r-bound: 2\n"
        "lambda: 1\n"
        "epsilon: 2\n"
        "mu: 0\n"
        "mu-actual: 0\n"
        "note: quotient is trivial; distances collapse to a point\n"
        "verdict: ok\n"
    )


def test_quotient_universal_infinite_diameter(capsys, tmp_path):
    classes = write_json(tmp_path, "t2univ.classes",
                         [["01", "10", "00", "11"]])
    code, out, _ = run(capsys, "quotient", "--monoid", "t2",
                       "--classes", classes)
    assert code == 1
    assert out == (
        "mode: exact\n"
        "classes: 1\n"
        "r-bound: inf\n"
        "note: quotient is trivial; distances collapse to a point\n"
        "note: some class has infinite diameter; no (1, R, 0) certificate\n"
        "verdict: fail\n"
    )


def test_quotient_not_a_congruence(capsys, tmp_path):
    classes = write_json(tmp_path, "z3bad.classes", [["0"], ["1", "2"]])
    code, out, _ = run(capsys, "quotient", "--monoid", "z3",
                       "--classes", classes)
    assert code == 1
    assert out == "verdict: not-a-congruence\nwitness: 1 1 1 2\n"


def test_quotient_classes_must_cover(capsys, tmp_path):
    classes = write_json(tmp_path, "partial.classes", [["0"]])
    code, _, err = run(capsys, "quotient", "--monoid", "z3",
                       "--classes", classes)
    assert code == 2
    assert "does not cover" in err


@pytest.mark.parametrize("classes,reason", [
    ([["1", "a"], ["a", "0"]], "class 1: element 'a' is already in class 0"),
    ([["1", "a", "a"], ["0"]], "class 0: element 'a' is already in class 0"),
    (["1a0"], "class 0 must be a list of element names, got '1a0'"),
    ([["1"], "a0"], "class 1 must be a list of element names, got 'a0'"),
    ({"1a0": 1}, "classes file must be a list of member lists, got {'1a0': 1}"),
    ("1a0", "classes file must be a list of member lists, got '1a0'"),
    ([["1", "a"], ["zz", "0"]], "class 1: unknown element 'zz'"),
    ([["1", "a"], [0]], "class 1: unknown element 0"),
    ([["1", "a"], [["0"]]], "class 1: unknown element ['0']"),
    ([["1", "0"]], "classes file does not cover every element: 'a' is in no class"),
])
def test_quotient_malformed_classes_exit_2(capsys, tmp_path, classes, reason):
    path = write_json(tmp_path, "bad.classes", classes)
    code, out, err = run(capsys, "quotient", "--monoid", "one-a-zero", "--classes", path)
    assert code == 2 and out == ""
    assert err.splitlines()[-2] == "error: " + reason


def test_quotient_projection(capsys, tmp_path):
    desc = write_json(tmp_path, "prod.monoid", {
        "kind": "product",
        "left": catalog.DESCRIPTIONS["integers"],
        "right": catalog.DESCRIPTIONS["z2"],
    })
    code, out, _ = run(capsys, "quotient", "--monoid", desc,
                       "--projection", "--radius", "4")
    assert code == 0
    assert out == (
        "mode: evidence\n"
        "horizon: 4\n"
        "r-bound: 1\n"
        "checked: 244\n"
        "skipped: 80\n"
        "mu-actual: 0\n"
        "note: evidence at ball radius 4; 0 fiber pairs undecided\n"
        "verdict: ok\n"
    )


def test_quotient_projection_needs_product(capsys):
    code, _, err = run(capsys, "quotient", "--monoid", "z3", "--projection")
    assert code == 2
    assert "--projection needs a product monoid description" in err


def test_quotient_needs_classes_or_projection(capsys):
    code, _, err = run(capsys, "quotient", "--monoid", "z3")
    assert code == 2
    assert "either --classes or --projection" in err


# -- error handling ---------------------------------------------------------------------


def test_missing_file(capsys):
    code, _, err = run(capsys, "ball", "--monoid", "/nonexistent/path.json")
    assert code == 2
    assert "error:" in err


def test_bad_json(capsys, tmp_path):
    path = tmp_path / "bad.space"
    path.write_text("{", encoding="utf-8")
    code, _, err = run(capsys, "quasimetric", "--source", str(path))
    assert code == 2
    assert "error:" in err


def test_cap_exceeded(capsys):
    code, _, err = run(capsys, "ball", "--monoid", "free2", "--radius", "10",
                       "--cap", "50")
    assert code == 2
    assert "(raise --cap)" in err


def test_not_finite(capsys):
    code, _, err = run(capsys, "green", "--monoid", "bicyclic", "--cap", "100")
    assert code == 2
    assert "evidence-mode" in err


TABLE = {"kind": "table", "elements": ["e", "a"]}
TRANSFORMATION = {"kind": "transformation", "degree": 2}
REWRITING = {"kind": "rewriting", "alphabet": ["a", "b"], "rules": []}


@pytest.mark.parametrize("desc, reason", [
    (dict(TABLE, table=[["e", "a"], ["a", 1.5]]),
     "table entry 1.5 is neither a name nor an index"),
    (dict(TABLE, table=[["e", "a"], ["a", True]]),
     "table entry True is neither a name nor an index"),
    (dict(TABLE, table=[[0, 1], 5]), "table row 5 is not a list"),
    (dict(TABLE, table=[["a"]]), "table must be 2 x 2"),
    (dict(TRANSFORMATION, generators=[["a", [1.7, 0]]]),
     "generator 'a' has bad image list [1.7, 0]"),
    (dict(TRANSFORMATION, generators=[["a", [True, 0]]]),
     "generator 'a' has bad image list [True, 0]"),
    (dict(TRANSFORMATION, generators=[["a", 5]]), "generator 'a' has bad image list 5"),
    (dict(TRANSFORMATION, generators=[5]), "generator 5 is not a (symbol, images) pair"),
    (dict(TRANSFORMATION, degree=2.5, generators=[]), "degree 2.5 is not an integer"),
    (dict(TRANSFORMATION, generators=[["a", [1, 0]], ["a", [0, 0]]]),
     "generator symbol 'a' is used twice"),
    (dict(TABLE, table=[["e", "a"], ["a", "e"]], generators=["a", "a"]),
     "generator symbol 'a' is used twice"),
    (dict(REWRITING, extra_generators=[["a", "ab"]]), "generator symbol 'a' is used twice"),
    (dict(TRANSFORMATION, generators=[[["a"], [1, 0]]]), "generator symbol ['a'] is not a name"),
    (dict(TABLE, table=[["e", "a"], ["a", "e"]], generators=["zz"]),
     "generator 'zz' is not an element of the table"),
    (dict(TABLE, table=[["e", "a"], ["a", "e"]], identity="zz"),
     "identity 'zz' is not an element of the table"),
    (dict(TABLE, table=[["e", "a"], ["a", "q"]]),
     "table entry 'q' is neither a name nor an index"),
    ({"kind": "product", "left": dict(TABLE, table=[["e", "a"], ["a", "e"]])},
     "product monoid description has no 'right' entry"),
    ([1, 2], "monoid description [1, 2] is not an object"),
    (dict(REWRITING, alphabet=5), "rewriting monoid 'alphabet' entry 5 is not a list"),
    (dict(REWRITING, alphabet=[1, 2]), "rewriting monoid 'alphabet' entry: 1 is not a string"),
    (dict(REWRITING, rules=[[1, ""]]),
     "rewriting monoid 'rules' entry: [1, ''] is not a pair of strings"),
    (dict(REWRITING, rules=[["a"]]),
     "rewriting monoid 'rules' entry: ['a'] is not a pair of strings"),
    (dict(REWRITING, extra_generators=5),
     "rewriting monoid 'extra_generators' entry 5 is not a list"),
    (dict(TRANSFORMATION, generators=5),
     "transformation monoid 'generators' entry 5 is not a list"),
    (dict(TABLE, elements=[["x"], "a"], table=[[0, 1], [1, 0]]),
     "table monoid 'elements' entry: ['x'] is not a string"),
    (dict(TRANSFORMATION, degree=10**30, generators=[["s", [0]]]),
     "generator 's' has bad image list (0,)"),
    (dict(TRANSFORMATION, degree=10**30, generators=[]),
     "degree %d is too large to be a size" % 10**30),
], ids=["table-float", "table-bool", "table-row", "table-shape", "image-float",
        "image-bool", "image-list", "generator-pair", "degree-float",
        "transformation-duplicate-symbol", "table-duplicate-symbol",
        "extra-generator-duplicate-symbol", "list-symbol", "table-unknown-generator",
        "table-unknown-identity", "table-unknown-entry", "product-without-right",
        "not-an-object", "alphabet-int", "alphabet-ints", "rule-int", "rule-single",
        "extra-generators-int", "generators-int", "elements-list", "degree-before-images",
        "degree-too-large"])
def test_bad_monoid_descriptions_exit_2(capsys, tmp_path, desc, reason):
    # each was once accepted with ambiguous output, truncated to an int, or
    # ended in a TypeError, a bare key, Python's own "not enough values to
    # unpack" or a traceback; a large degree once built its identity before
    # the image lists were read
    path = write_json(tmp_path, "bad.monoid", desc)
    code, out, err = run(capsys, "green", "--monoid", path)
    assert code == 2 and out == ""
    assert [line for line in err.splitlines() if "error:" in line] == ["error: " + reason]
    assert "Traceback" not in err


@pytest.mark.parametrize("desc, reason", [
    ([1, 2], "space description [1, 2] is not an object"),
    ({"dist": []}, "space description has no 'points' entry"),
    ({"points": ["u"]}, "space description has no 'dist' entry"),
    ({"points": 3, "dist": []}, "space 'points' entry 3 is not a list"),
    ({"points": ["u"], "dist": 5}, "space 'dist' entry 5 is not a list"),
    ({"points": ["u"], "dist": [5]}, "dist matrix must be 1 x 1"),
    ({"points": [None, [1], {"a": 2}], "dist": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]},
     "space point 0 is None, not a string"),
], ids=["not-an-object", "no-points", "no-dist", "points-int", "dist-int", "row-int",
        "point-not-a-string"])
def test_bad_space_descriptions_exit_2(capsys, tmp_path, desc, reason):
    # each once ended in a traceback or in a bare key such as error: 'points'
    path = write_json(tmp_path, "bad.space", desc)
    code, out, err = run(capsys, "quasimetric", "--source", path)
    assert code == 2 and out == ""
    assert ("error: %s\n" % reason) in err


@pytest.mark.parametrize("desc, reason", [
    (7, "map description 7 is not a list or an object"),
    ({"points": ["u", "v"]}, "map description has no 'map' entry"),
    ({"map": "uv"}, "map 'map' entry 'uv' is not a list"),
    (["u", ["v"]], "unknown target point ['v']"),
], ids=["int", "no-map", "map-string", "list-point"])
def test_bad_point_maps_exit_2(capsys, tmp_path, sym2, desc, reason):
    fmap = write_json(tmp_path, "bad.map", desc)
    code, out, err = run(capsys, "qi-check", "--source", sym2, "--target", sym2,
                         "--map", fmap, "--lambda", "1", "--epsilon", "0", "--mu", "0")
    assert code == 2 and out == ""
    assert ("error: %s\n" % reason) in err


def test_unknown_subcommand(capsys):
    code, _, err = run(capsys, "bogus")
    assert code == 2


def test_invalid_space_rejected(capsys, tmp_path):
    path = write_json(tmp_path, "bad.space",
                      {"points": ["u", "v"], "dist": [[0, 1], [1, 1]]})
    code, _, err = run(capsys, "quasimetric", "--source", str(path))
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("dist,reason", [
    ([[0, "-1"], ["x", 0]], "error: distances are nonnegative, got -1"),
    ([[0, "x"], ["-1", 0]], "error: Invalid literal for Fraction: 'x'"),
    ([[0, True], [1, 0]], "error: expected a rational, got True"),
    ([[0, 1], [1]], "error: dist matrix must be 2 x 2"),
    ([[0, 1], [1, 1]],
     "error: semimetric axioms violated: Violation(kind='diagonal', points=(1,))"),
] + [
    # Fraction(str) also reads exponents, decimal points, underscores, spaces
    # and non-ASCII digits; from "1e10000000" it builds 10**(10**7) before
    # any check runs
    ([[0, entry], [1, 0]], "error: Invalid literal for Fraction: %r" % entry)
    for entry in ["1e10000000", "1e3", "1_0", " 1/2 ", "1.5", "1/2/3", "\u0663", ""]
] + [
    # a JSON number other than an int, a list or an object is no rational;
    # the sign check reads an entry in lowest terms
    ([[0, 1.5], ["-1", 0]], "error: expected int or 'p/q' string, got 1.5"),
    ([[0, "-1"], [1.5, 0]], "error: distances are nonnegative, got -1"),
    ([[0, [1]], [1, 0]], "error: expected int or 'p/q' string, got [1]"),
    ([[0, {"a": 1}], [1, 0]], "error: expected int or 'p/q' string, got {'a': 1}"),
    ([[0, "-2/4"], [1, 0]], "error: distances are nonnegative, got -1/2"),
])
def test_space_load_reports_first_bad_entry(capsys, tmp_path, dist, reason):
    path = write_json(tmp_path, "bad.space", {"points": ["u", "v"], "dist": dist})
    code, _, err = run(capsys, "quasimetric", "--source", str(path))
    assert code == 2
    assert reason + "\n" in err


@pytest.mark.parametrize("dist,reason", [
    ([[0, "1/0"], [1, 0]], "error: zero denominator in '1/0'"),
    ([[0, 1], ["2/0", 0]], "error: zero denominator in '2/0'"),
])
def test_space_load_rejects_zero_denominators(capsys, tmp_path, dist, reason):
    path = write_json(tmp_path, "bad.space", {"points": ["u", "v"], "dist": dist})
    code, out, err = run(capsys, "quasimetric", "--source", str(path))
    assert code == 2 and out == ""
    assert reason + "\n" in err


def test_space_load_reads_signs_and_leading_zeros(capsys, tmp_path):
    path = write_json(tmp_path, "ok.space",
                      {"points": ["u", "v"], "dist": [["-0", "+3/02"], ["007", "0/5"]]})
    code, out, _ = run(capsys, "quasimetric", "--source", path)
    assert code == 0
    assert out == run(capsys, "quasimetric", "--source", write_json(
        tmp_path, "same.space", {"points": ["u", "v"], "dist": [[0, "3/2"], [7, 0]]}))[1]


def test_space_load_rejects_duplicate_point_names(capsys, tmp_path):
    path = write_json(tmp_path, "dup.space",
                      {"points": ["u", "v", "u"],
                       "dist": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]})
    code, out, err = run(capsys, "qi-search", "--source", path, "--target", path)
    assert code == 2 and out == ""
    assert "error: duplicate point name 'u'\n" in err


# the definitions need lambda > 0 and epsilon, mu >= 0
RATIONAL_OPTIONS = [
    ("qi-check", "--lambda", "> 0"),
    ("qi-check", "--epsilon", ">= 0"),
    ("qi-check", "--mu", ">= 0"),
    ("qi-search", "--lambda-max", "> 0"),
    ("qi-search", "--eps-max", ">= 0"),
    ("qi-search", "--mu-max", ">= 0"),
    ("quasimetric", "--epsilon", ">= 0"),
    ("symmetrize", "--epsilon", ">= 0"),
]


@pytest.mark.parametrize("command,option,bound,value", [
    (command, option, bound, value)
    for command, option, bound in RATIONAL_OPTIONS
    for value in ("1/0", "-1", "-1/3", "0", "1e10000000", "1.5")
    if value != "0" or bound == "> 0"
])
def test_bad_rational_options_exit_2(capsys, tmp_path, sym2, command, option, bound,
                                     value):
    argv = [command, "--source", sym2]
    if command == "qi-check":
        point_map = write_json(tmp_path, "id.map", {"map": ["u", "v"]})
        argv += ["--target", sym2, "--map", point_map,
                 "--lambda", "1", "--epsilon", "0", "--mu", "0"]
    if command == "qi-search":
        argv += ["--target", sym2]
    # "--epsilon=-1/3": argparse reads a separate "-1/3" as an option
    code, out, err = run(capsys, *argv, "%s=%s" % (option, value))
    assert code == 2 and out == ""
    assert err.endswith("error: argument %s: expected a rational %s, got '%s'\n"
                        % (option, bound, value))


@pytest.mark.parametrize("argv", [
    ["ball", "--monoid", "free2", "--radius", "-1"],
    ["ball", "--monoid", "free2", "--cap", "-5"],
    ["dist", "--monoid", "free2", "--source", "a", "--target", "b", "--radius", "-2"],
    ["poset", "--monoid", "free2", "--radius", "-1"],
    ["schutz", "--monoid", "bicyclic", "--radius", "-1"],
    ["schutz", "--monoid", "bicyclic", "--probe-cap", "-1"],
    ["act", "--monoid", "bicyclic", "--probe-cap", "-1"],
    ["svarc", "--monoid", "z3", "--ball-radius", "-1"],
    ["svarc", "--monoid", "z3", "--l", "-1"],
    ["growth", "--monoid", "free2", "--mmax", "-3"],
    ["growth", "--monoid", "free2", "--other", "integers", "--mmax", "4", "--c-max", "-3"],
    ["ends", "--monoid", "free2", "--kmax", "-1"],
    ["quotient", "--monoid", "z3", "--projection", "--radius", "-1"],
])
def test_negative_counts_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    option, value = argv[-2:]
    assert code == 2 and out == ""
    assert err.endswith("error: argument %s: expected an integer >= 0, got '%s'\n"
                        % (option, value))


@pytest.mark.parametrize("argv, reason", [
    (["growth", "--monoid", "t3", "--mmax", str(10**30)],
     "mmax %d is too large to be a size" % 10**30),
    (["ends", "--monoid", "t3", "--kmax", str(10**30), "--radius", str(10**30 + 1)],
     "kmax %d is too large to be a size" % 10**30),
], ids=["mmax", "kmax"])
def test_windows_too_large_to_be_a_size_exit_2(capsys, argv, reason):
    # each once ended in an OverflowError traceback from a window-sized list
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert [line for line in err.splitlines() if "error:" in line] == ["error: " + reason]
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["0", "-1"])
def test_growth_lambda_max_below_one_exits_2(capsys, value):
    code, out, err = run(capsys, "growth", "--monoid", "free2", "--other", "integers",
                         "--mmax", "4", "--lambda-max=%s" % value)
    assert code == 2 and out == ""
    assert err.endswith("error: argument --lambda-max: expected an integer >= 1, got '%s'\n"
                        % value)


def test_growth_least_bounds_are_accepted(capsys):
    code, out, _ = run(capsys, "growth", "--monoid", "integers", "--other", "free-comm2",
                       "--mmax", "12", "--lambda-max", "1", "--c-max", "0")
    assert code == 0
    assert out == "witness: lambda=1 c=0\nchecked: 0..12\n"


def test_zero_counts_and_rationals_are_accepted(capsys, sym2):
    code, out, _ = run(capsys, "ball", "--monoid", "free2", "--radius", "0")
    assert code == 0 and out == "vertex\tlength\n\u03b5\t0\n"
    code, out, _ = run(capsys, "quasimetric", "--source", sym2, "--epsilon", "0")
    assert code == 0 and "lambda: 1\n" in out


# -- element parsing and proved-infinite monoids -------------------------------------


@pytest.mark.parametrize("argv, element", [
    (["dist", "--monoid", "t3", "--radius", "9", "--source", "333", "--target", "012"],
     "333"),
    (["act", "--monoid", "t3", "--element", "333"], "333"),
    (["svarc", "--monoid", "t3", "--element", "zz"], "zz"),
    (["schutz", "--monoid", "t3", "--element", "01"], "01"),
])
def test_bad_transformation_elements_exit_2(capsys, argv, element):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert ("error: element %r is not a list of 3 images in 0..2\n" % element) in err


@pytest.mark.parametrize("monoid", ["free2", "bicyclic"])
@pytest.mark.parametrize("command", ["green", "svarc", "quotient"])
def test_proved_infinite_monoids_fail_at_once(capsys, monkeypatch, tmp_path, monoid,
                                              command):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("a proved-infinite monoid was enumerated")

    monkeypatch.setattr(RewritingMonoid, "_mul_key", no_enumeration)
    argv = [command, "--monoid", monoid]
    if command == "quotient":
        argv += ["--classes", write_json(tmp_path, "c.json", [["ε"]])]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "error: monoid is infinite (use an evidence-mode command)\n" in err
    assert "raise --cap" not in err


def test_finite_rewriting_monoid_beyond_the_probe_cap(capsys, tmp_path):
    z5 = write_json(tmp_path, "z5.json",
                    {"kind": "rewriting", "alphabet": ["a"], "rules": [["aaaaa", ""]]})
    code, out, _ = run(capsys, "schutz", "--monoid", z5, "--probe-cap", "4")
    assert code == 0 and out.startswith("mode: evidence\n")
    code, out, _ = run(capsys, "schutz", "--monoid", z5, "--probe-cap", "5")
    assert code == 0 and out.startswith("mode: exact\n")
    code, _, err = run(capsys, "green", "--monoid", z5, "--cap", "4")
    assert code == 2
    assert "(raise --cap or use an evidence-mode command)" in err


def test_cap_0_admits_only_the_identity(capsys):
    # T3 has 27 elements and S3 as its units: a cap of 0 exhausts nothing
    for command in ("green", "svarc"):
        code, out, err = run(capsys, command, "--monoid", "t3", "--cap", "0")
        assert code == 2 and out == ""
        assert ("error: monoid not exhausted within cap 0 (raise --cap or use an "
                "evidence-mode command)\n") in err
    code, out, err = run(capsys, "act", "--monoid", "t3", "--cap", "0")
    assert code == 2 and out == ""
    assert "error: enumeration exceeded cap of 0 elements (raise --cap)\n" in err
    code, out, _ = run(capsys, "schutz", "--monoid", "t3", "--probe-cap", "0")
    assert code == 0 and out.startswith("mode: evidence\n")
    code, out, _ = run(capsys, "green", "--monoid", "trivial", "--cap", "0")
    assert code == 0 and out.startswith("elements: 1\n")


def test_cold_import_stays_light():
    # -S: site preloads nothing, so every module listed was loaded by the code
    # run; importing dataclasses, which imports inspect, took about 15 ms of a
    # cold CLI call (Python 3.11, measured with -X importtime); json is
    # loaded only by the commands that read or write a file
    src = os.path.dirname(os.path.dirname(os.path.abspath(semigeom.__file__)))
    heavy = "sorted({'dataclasses', 'inspect', 'json', 'typing'} & set(sys.modules))"

    def loaded(code):
        done = subprocess.run(
            [sys.executable, "-S", "-c",
             "import sys; sys.path.insert(0, %r); %s; print(%s)" % (src, code, heavy)],
            capture_output=True, text=True, timeout=60, check=True)
        return done.stdout

    modules = sorted(f[:-3] for f in os.listdir(os.path.dirname(semigeom.__file__))
                     if f.endswith(".py") and f not in ("cli.py", "__main__.py"))
    assert "_records" in modules and "geometry" in modules
    assert loaded("import " + ", ".join("semigeom." + m for m in modules)) == "[]\n"
    # argparse itself may load some of them: from Python 3.14 its help
    # formatter, which add_subparsers and add_argument build, imports
    # _colorize and so dataclasses; the CLI may load nothing more than that
    bare = loaded("import argparse; p = argparse.ArgumentParser(prog='p'); "
                  "p.add_subparsers(dest='c').add_parser('x').add_argument('--y')")
    if sys.version_info < (3, 14):
        assert bare == "[]\n"
    assert loaded("import semigeom, semigeom.cli; semigeom.cli.build_parser()") == bare


# -- lazy imports ------------------------------------------------------------------

SRC = os.path.dirname(os.path.dirname(os.path.abspath(semigeom.__file__)))
MODULES = sorted(f[:-3] for f in os.listdir(os.path.dirname(semigeom.__file__))
                 if f.endswith(".py") and f not in ("__init__.py", "__main__.py"))
COLD = ["cli", "descriptions", "errors", "semigeom"]

COMMANDS = ("ball", "dist", "poset", "green", "schutz", "act", "svarc", "growth",
            "ends", "qi-check", "qi-search", "quasimetric", "symmetrize", "quotient")


def fresh(code):
    """(exit code, stdout, stderr, semigeom modules loaded) of running code
    in a fresh interpreter; -S, so site preloads nothing."""
    script = (
        "import sys\nsys.path.insert(0, %r)\ncode = 0\n%s\n"
        "print(' '.join(m.partition('.')[2] or m for m in sys.modules"
        " if m.partition('.')[0] == 'semigeom'), file=sys.stderr)\n"
        "sys.exit(code)\n" % (SRC, code))
    done = subprocess.run([sys.executable, "-S", "-c", script],
                          capture_output=True, text=True, timeout=60)
    *err, modules = done.stderr.splitlines(keepends=True)
    return done.returncode, done.stdout, "".join(err), sorted(modules.split())


def first_call(argv):
    return fresh("from semigeom.cli import main\ncode = main(%r)" % (argv,))


def command_lines(tmp_path):
    """One call of each command, by command name."""
    sym2 = write_json(tmp_path, "sym2.space",
                      {"points": ["u", "v"], "dist": [[0, 1], [1, 0]]})
    line3 = write_json(tmp_path, "line3.space", {
        "points": ["a", "b", "c"], "dist": [[0, 1, 2], [1, 0, 1], [1, 1, 0]]})
    swap = write_json(tmp_path, "swap.map", ["v", "u"])
    classes = write_json(tmp_path, "z3.classes", [["0", "1", "2"]])
    return {
        "ball": ["ball", "--monoid", "bicyclic", "--radius", "3"],
        "dist": ["dist", "--monoid", "bicyclic", "--radius", "4", "--source", "c",
                 "--target", "cbb"],
        "poset": ["poset", "--monoid", "bicyclic", "--radius", "3"],
        "green": ["green", "--monoid", "t3"],
        "schutz": ["schutz", "--monoid", "bicyclic", "--radius", "3"],
        "act": ["act", "--monoid", "t3", "--element", "120"],
        "svarc": ["svarc", "--monoid", "t3", "--element", "120"],
        "growth": ["growth", "--monoid", "free2", "--mmax", "9", "--classify"],
        "ends": ["ends", "--monoid", "free2", "--kmax", "2", "--radius", "5"],
        "qi-check": ["qi-check", "--source", sym2, "--target", sym2, "--map", swap,
                     "--lambda", "1", "--epsilon", "0", "--mu", "0"],
        "qi-search": ["qi-search", "--source", line3, "--target", sym2],
        "quasimetric": ["quasimetric", "--source", line3, "--epsilon", "1/2"],
        "symmetrize": ["symmetrize", "--source", line3],
        "quotient": ["quotient", "--monoid", "z3", "--classes", classes],
    }


def test_command_lines_cover_every_command(tmp_path):
    from semigeom import cli

    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    assert list(COMMANDS) == list(cli.COMMANDS) == list(sub.choices)
    assert sorted(COMMANDS) == sorted(command_lines(tmp_path))


def test_each_command_declares_exactly_the_arguments_it_reads():
    import inspect
    import re

    from semigeom import cli

    for name, (handler, _, arguments) in cli.COMMANDS.items():
        declared = {kwargs.get("dest", flag[2:].replace("-", "_"))
                    for flag, kwargs in arguments}
        assert len(declared) == len(arguments), name
        read = set(re.findall(r"\bargs\.(\w+)", inspect.getsource(handler)))
        assert declared == read, name


def test_readme_lists_the_command_table():
    from semigeom import cli

    with open(os.path.join(os.path.dirname(SRC), "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    table = readme.split("\n## Command line\n", 1)[1].split("\n\n| command |", 1)[1]
    rows = table.split("\n\n", 1)[0].splitlines()[2:]
    assert [row.split("`")[1] for row in rows] == list(cli.COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_first_call_in_a_fresh_interpreter_matches(capsys, tmp_path, command):
    # a command that imports its modules on first use must answer as it does
    # once every module is loaded
    argv = command_lines(tmp_path)[command]
    code, out, err, _ = first_call(argv)
    for name in MODULES:
        importlib.import_module("semigeom." + name)
    expected = run(capsys, *argv)

    def timeless(text):
        return [line for line in text.splitlines() if not line.startswith("elapsed: ")]

    assert (code, out, timeless(err)) == (expected[0], expected[1],
                                          timeless(expected[2]))
    assert "Traceback" not in err


def test_commands_load_only_their_modules(tmp_path):
    assert fresh("import semigeom.cli\nsemigeom.cli.build_parser()")[3] == COLD
    lines = command_lines(tmp_path)
    for command in ("qi-check", "qi-search", "quasimetric", "symmetrize"):
        code, _, _, loaded = first_call(lines[command])
        assert code in (0, 1)
        assert loaded == sorted(COLD + ["_records", "distances", "geometry"]), command
    for command in ("ball", "dist", "poset"):
        code, _, _, loaded = first_call(lines[command])
        assert code == 0
        assert "cayley" in loaded, command
        assert not {"geometry", "green", "growth"} & set(loaded), command


def test_package_names_resolve_to_their_modules():
    from semigeom import errors

    for name in semigeom.__all__:
        value = getattr(semigeom, name)
        if name in ("catalog", "descriptions"):
            assert value is importlib.import_module("semigeom." + name)
        elif name == "DEFAULT_CAP":
            assert value is errors.DEFAULT_CAP
        else:
            # classes, functions and the two ExtDist constants
            assert getattr(sys.modules[value.__module__], name) is value, name
    assert set(semigeom.__all__) <= set(dir(semigeom))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        getattr(semigeom, "no_such_name")
    namespace = {}
    exec("from semigeom import *", namespace)
    assert all(namespace[name] is getattr(semigeom, name) for name in semigeom.__all__)


def test_star_import_in_a_fresh_interpreter():
    code, out, err, loaded = fresh(
        "from semigeom import *\nimport semigeom\n"
        "print(sorted(set(semigeom.__all__) - set(globals())))\n"
        "print(Space is sys.modules['semigeom.geometry'].Space)")
    assert (code, out) == (0, "[]\nTrue\n"), err
    assert set(MODULES) - {"cli"} <= set(loaded)


# -- the parser's surface --------------------------------------------------------
#
# tests/cli_surface.json pins what the parser shows a user: the --help text
# and the usage errors, byte for byte, and a manifest of every action of
# every parser.  argparse words its messages differently across Python
# versions, so the bytes are compared only on the versions they were
# recorded on; the manifest is compared on every version.  To record the
# running version after a deliberate change, run
#   PYTHONPATH=src python tests/test_cli.py
# and list every pin that moved in CHANGES.md.

SURFACE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_surface.json")
SURFACE_ENV = {"COLUMNS": "80", "NO_COLOR": "1"}
SURFACE_CASES = (
    [["--help"], [], ["bogus"]]
    + [[command, "--help"] for command in COMMANDS]
    + [[command] for command in COMMANDS]
    + [["ball", "--radius", "x"],
       ["qi-check", "--source", "s", "--target", "t", "--map", "m",
        "--lambda", "0", "--epsilon", "0", "--mu", "0"]]
)


def surface_manifest():
    """Every action of the top-level parser and of each command's parser."""
    from semigeom.cli import build_parser

    def actions(parser):
        return [{"option_strings": a.option_strings, "dest": a.dest,
                 "default": repr(a.default), "required": a.required,
                 "choices": None if a.choices is None else list(a.choices),
                 "help": a.help, "nargs": a.nargs} for a in parser._actions]

    parser = build_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    helps = {a.dest: a.help for a in sub._choices_actions}
    manifest = {"semigeom": {"actions": actions(parser)}}
    for name, p in sub.choices.items():
        manifest[name] = {"help": helps[name], "func": p.get_default("func").__name__,
                          "actions": actions(p)}
    return manifest


def surface_case(argv):
    """[exit code, stdout, stderr] of main() on argv; run under SURFACE_ENV."""
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return [code, out.getvalue(), err.getvalue()]


def python_version():
    return "%d.%d" % sys.version_info[:2]


def load_surface():
    with open(SURFACE, encoding="utf-8") as fh:
        return json.load(fh)


def test_parser_manifest_is_pinned():
    assert surface_manifest() == load_surface()["manifest"]


@pytest.mark.parametrize("argv", SURFACE_CASES, ids=lambda argv: " ".join(argv) or "(none)")
def test_parser_bytes_are_pinned(monkeypatch, argv):
    pinned = load_surface()["bytes"].get(python_version())
    if pinned is None:
        pytest.skip("no --help bytes recorded for Python %s" % python_version())
    for name in ("FORCE_COLOR", "PYTHON_COLORS"):
        monkeypatch.delenv(name, raising=False)
    for name, value in SURFACE_ENV.items():
        monkeypatch.setenv(name, value)
    assert surface_case(argv) == pinned[" ".join(argv)]


def reference_build_parser(argv=None):
    """build_parser() with argparse's default formatter, which reads the
    terminal width for every formatter it builds.  It ignores argv and
    gives every command its arguments."""
    import argparse

    from semigeom.cli import COMMANDS

    parser = argparse.ArgumentParser(
        prog="semigeom",
        description="Coarse geometry of finitely generated monoids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=handler)
        for flag, kwargs in arguments:
            p.add_argument(flag, **kwargs)
    return parser


@pytest.mark.parametrize("columns", ["40", "80", "200", None])
def test_parser_reads_the_width_once_and_prints_the_default_bytes(monkeypatch, columns):
    # compared with the reference on the running Python, so this holds on
    # versions whose bytes are not pinned too
    import shutil

    from semigeom import cli

    for name in ("FORCE_COLOR", "PYTHON_COLORS", "COLUMNS"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("NO_COLOR", "1")
    if columns is not None:
        monkeypatch.setenv("COLUMNS", columns)
    probes = []
    probe = shutil.get_terminal_size

    def counted(*args):
        probes.append(args)
        return probe(*args)

    monkeypatch.setattr(shutil, "get_terminal_size", counted)
    build_parser = cli.build_parser
    for argv in SURFACE_CASES:
        probes.clear()
        got = surface_case(argv)
        assert len(probes) == 1, argv
        monkeypatch.setattr(cli, "build_parser", reference_build_parser)
        assert surface_case(argv) == got, argv
        monkeypatch.setattr(cli, "build_parser", build_parser)


def parse_outcome(parser, argv):
    """[vars of the namespace or the SystemExit code, stdout, stderr] of
    parsing argv."""
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parser.parse_args(argv))
        except SystemExit as e:
            result = e.code
    return [result, out.getvalue(), err.getvalue()]


def argv_tokens():
    """Command names, every declared flag, values for them, flags joined to
    a value with "=", help and the separators, and unknown or abbreviated
    options."""
    from semigeom.cli import COMMANDS

    flags = sorted({flag for _, _, arguments in COMMANDS.values()
                    for flag, _ in arguments})
    values = ["0", "3", "-1", "1/2", "x", "free2", "t3", "table", "dot"]
    return st.one_of(
        st.sampled_from(list(COMMANDS) + flags),
        st.sampled_from(values),
        st.builds("{}={}".format, st.sampled_from(flags), st.sampled_from(values)),
        st.sampled_from(["-h", "--help", "--", "-", "-1", "-x", "--rad", "--m",
                         "--bogus", "bogus"]),
    )


@st.composite
def command_calls(draw):
    """A command with each required argument and some optional ones, each
    flag with a value of its type, with a few drawn tokens put in."""
    from semigeom.cli import COMMANDS

    name = draw(st.sampled_from(list(COMMANDS)))
    argv = [name]
    for flag, kwargs in COMMANDS[name][2]:
        if not (kwargs.get("required") or draw(st.booleans())):
            continue
        if kwargs.get("action") == "store_true":
            argv.append(flag)
        else:
            value = st.sampled_from(kwargs.get("choices") or ["1", "2", "free2"])
            argv += [flag, draw(value)]
    for token in draw(st.lists(argv_tokens(), max_size=2)):
        argv.insert(draw(st.integers(0, len(argv))), token)
    return argv


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.one_of(st.lists(argv_tokens(), max_size=8), command_calls()))
@example(["-x", "ball"])
@example(["ball", "--radius", "0", "--monoid", "free2", "green"])
@example(["--", "ball", "--monoid", "free2"])
@example(["ball", "-h"])
@example(["-h", "ball"])
@example(["green", "--monoid", "free2", "ball", "-h"])
@example(["ball", "--radius", "0", "--monoid", "free2", "green", "--help"])
@example([])
@example(["-h"])
@example(["bogus"])
@example(["--", "-h"])
@example(["-x"])
def test_parser_with_argv_parses_as_the_full_parser(argv):
    # argparse parses with the command the first positional token names,
    # which need not be argv[0]; every other command has no parser at all
    from semigeom.cli import build_parser

    parser = build_parser(argv)
    sub = next(a for a in parser._actions if a.dest == "command")
    assert [name for name, p in sub.choices.items() if p is not None] == [
        name for name in sub.choices if name in argv]
    assert parse_outcome(parser, argv) == parse_outcome(build_parser(), argv)


def test_main_adds_only_the_named_commands_arguments(monkeypatch):
    import argparse

    from semigeom import cli

    added = []
    add_argument = argparse.ArgumentParser.add_argument

    def counted(self, *flags, **kwargs):
        added.append(flags[0])
        return add_argument(self, *flags, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counted)
    assert main(["ball", "--monoid", "free2", "--radius", "1"]) == 0
    # argparse's own -h only on the top-level parser and on ball's
    ball = [flag for flag, _ in cli.COMMANDS["ball"][2]]
    assert sorted(added) == sorted(["-h"] * 2 + ball)
    added.clear()
    cli.build_parser()
    assert len(added) == 1 + len(cli.COMMANDS) + sum(
        len(arguments) for _, _, arguments in cli.COMMANDS.values())


def test_main_makes_a_parser_only_for_the_named_command(monkeypatch):
    import argparse

    from semigeom import cli

    made = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        made.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert main(["ball", "--monoid", "free2", "--radius", "1"]) == 0
    assert made == ["semigeom", "semigeom ball"]
    made.clear()
    cli.build_parser()
    assert len(made) == 1 + len(cli.COMMANDS)


if __name__ == "__main__":
    for name in ("FORCE_COLOR", "PYTHON_COLORS"):
        os.environ.pop(name, None)
    os.environ.update(SURFACE_ENV)
    recorded = load_surface() if os.path.exists(SURFACE) else {"bytes": {}}
    recorded["manifest"] = surface_manifest()
    recorded["bytes"][python_version()] = {" ".join(argv): surface_case(argv)
                                           for argv in SURFACE_CASES}
    with open(SURFACE, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1, ensure_ascii=False, sort_keys=True)
        fh.write("\n")
