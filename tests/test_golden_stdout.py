"""Byte-identical stdout on the benchmark's jobs, as a tier-1 check.

golden_stdout.json pins, for each benchmark workload at seeds 11 and 12,
every job's argv, exit code and stdout sha256.  The inputs are not
committed: perfbench/workloads.generate is deterministic, so the test
writes them again under a temporary directory, at the benchmark's relative
workdir .bench_work/<workload>-<seed>, and runs each job in this process
through cli.main, as perfbench/run.py does.  The jobs include the known
in-ball distance over-claims (ROADMAP item 2), pinned as they print today.

After a deliberate change to some output, rewrite the manifest with

    PYTHONPATH=src python tests/test_golden_stdout.py --write

and list the jobs whose hash moved in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "golden_stdout.json")
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))

import workloads  # noqa: E402
from semigeom import cli  # noqa: E402

RUNS = [(name, seed) for name in sorted(workloads.GENERATORS) for seed in (11, 12)]


def run_jobs(name, seed, reverse=False):
    """(argv, exit code, stdout) of every job, run in the current directory,
    last job first if reverse."""
    jobs, files = workloads.generate(name, seed, os.path.join(".bench_work",
                                                              "%s-%d" % (name, seed)))
    workloads.write_files(files)
    for job in reversed(jobs) if reverse else jobs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(job["argv"])
        yield job["argv"], code, out.getvalue()


def digest(stdout):
    return hashlib.sha256(stdout.encode()).hexdigest()


def load_manifest():
    with open(MANIFEST, encoding="utf-8") as fh:
        return json.load(fh)


def check_against(want, got):
    assert [argv for argv, _code, _out in got] == [job[0] for job in want]
    for (argv, code, out), (_argv, want_code, want_sha) in zip(got, want):
        assert (code, digest(out)) == (want_code, want_sha), (
            "semigeom %s\nstdout begins:\n%s" % (" ".join(argv), out[:600]))


@pytest.mark.parametrize("name,seed", RUNS, ids=["%s-%d" % run for run in RUNS])
def test_stdout_matches_the_manifest(tmp_path, monkeypatch, name, seed):
    monkeypatch.chdir(tmp_path)
    check_against(load_manifest()["%s-%d" % (name, seed)], list(run_jobs(name, seed)))


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_stdout_does_not_depend_on_the_order_of_the_jobs(tmp_path, monkeypatch, name):
    # runs after the forward runs above, in the same process, so state that
    # outlives a call (a cache keyed on less than its whole input) shows here
    monkeypatch.chdir(tmp_path)
    want = load_manifest()["%s-11" % name]
    check_against(want[::-1], list(run_jobs(name, 11, reverse=True)))


def test_manifest_covers_every_workload():
    manifest = load_manifest()
    assert sorted(manifest) == sorted("%s-%d" % run for run in RUNS)
    assert sum(map(len, manifest.values())) == 1002


def write_manifest():
    manifest = {}
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, seed in RUNS:
                manifest["%s-%d" % (name, seed)] = [
                    [argv, code, digest(out)] for argv, code, out in run_jobs(name, seed)]
        finally:
            os.chdir(here)
    with open(MANIFEST, "w", encoding="utf-8") as fh:
        fh.write("{\n")
        for i, (key, jobs) in enumerate(manifest.items()):
            fh.write("%s: [\n" % json.dumps(key))
            fh.write(",\n".join("  " + json.dumps(job) for job in jobs))
            fh.write("\n]%s\n" % ("," if i + 1 < len(manifest) else ""))
        fh.write("}\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_stdout.py --write")
    write_manifest()
